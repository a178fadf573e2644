#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/fnv.h"
#include "host.h"
#include "mesh/generator.h"
#include "parallel/characterize.h"
#include "parallel/distributor.h"
#include "parallel/parallel_smvp.h"
#include "partition/geometric_bisection.h"
#include "quake/simulation.h"
#include "resilience/checkpoint.h"
#include "service/service.h"
#include "sparse/assembly.h"

namespace perfbench
{

namespace
{

using namespace quake;

// Run shape.  METRICS.md gives the reasons for each value.
constexpr int kSetupCycles = 5;          ///< set-ups per run; setup_s = median
constexpr std::int64_t kSolveSteps = 40; ///< planned steps of one sf5 scenario
constexpr std::int64_t kCheckpointEvery = 15; ///< sf5-seq, in steps
constexpr std::int64_t kWarmupSteps = 60; ///< before the window, untimed
constexpr std::size_t kMinScenarios = 100; ///< p90 keeps >= 10 samples beyond it
constexpr double kWindowCap = 3.0; ///< window may stretch to 3x --seconds for them
constexpr int kProbeRepeats = 30;
constexpr int kDispatchRepeats = 2000;

// service-mix traffic.
constexpr int kClients = 4;
constexpr int kExecutors = 2;
/**
 * 10 ms is below the 50 ms floor of the Eq. (1) per-step deadline, so
 * the admission model refuses every such request whatever the model
 * rate; one that waits longer than 10 ms in the queue is refused there.
 */
constexpr double kImpossibleDeadlineMs = 10.0;
constexpr double kModelMflops = 500.0;
constexpr double kModelTcSecondsPerWord = 1e-8;
constexpr std::size_t kCacheBytes = std::size_t{24} << 20;
constexpr std::int64_t kSf20Steps = 60;
constexpr std::int64_t kSf10Steps = 30;
constexpr int kStandaloneChecks = 4;

double
secondsSince(std::int64_t t0_ns)
{
    return 1e-9 * static_cast<double>(nowNs() - t0_ns);
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 50.0);
}

/** splitmix64: the benchmark's only source of randomness. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  private:
    std::uint64_t state_;
};

/** An independent stream of the workload seed. */
Rng
stream(std::uint64_t seed, std::uint64_t id)
{
    Rng mix(seed ^ (id * 0xd1b54a32d192ed03ULL));
    return Rng(mix.next());
}

/**
 * A hypocentre inside the sediment of the default basin: within 60% of
 * its half-widths of the centre and 0.2-1.5 km deep (the basin is 2 km
 * deep at its centre).
 */
mesh::Vec3
drawHypocentre(Rng &rng)
{
    const mesh::LayeredBasinModel::Params basin;
    const double x = basin.basinCenter.x +
                     (2.0 * rng.uniform() - 1.0) * 0.6 * basin.basinRadiusX;
    const double y = basin.basinCenter.y +
                     (2.0 * rng.uniform() - 1.0) * 0.6 * basin.basinRadiusY;
    return {x, y, 0.2 + 1.3 * rng.uniform()};
}

std::uint64_t
displacementHash(const sim::SimulationEngine &engine)
{
    return common::fnv1aVector(engine.stepper->displacement());
}

/** Fingerprint of the integrator state, as the resilience layer takes it. */
std::uint64_t
finalStateFingerprint(const sim::SimulationEngine &engine)
{
    resilience::Checkpoint c;
    c.fingerprint = engine.fingerprint;
    c.dt = engine.dt;
    c.plannedSteps = engine.plannedSteps;
    engine.stepper->saveState(c.state);
    return resilience::stateFingerprint(c);
}

/**
 * The source has fired and the wave has left its node: a check on the
 * wavefield must not pass only because everything is still zero.
 */
bool
wavefieldLive(const sim::SimulationEngine &engine)
{
    const std::vector<double> &u = engine.stepper->displacement();
    std::int64_t nonzero = 0;
    for (const double v : u) {
        if (!std::isfinite(v))
            return false;
        nonzero += v != 0.0;
    }
    return nonzero > 3 && engine.stepper->peakDisplacement() > 0.0;
}

void
check(WorkloadResult &r, bool ok, const std::string &what)
{
    r.tally.add(ok);
    if (!ok)
        r.failures.push_back(what);
}

Metric
timing(double value, const char *unit, std::size_t samples)
{
    return {value, unit, static_cast<std::int64_t>(samples)};
}

Metric
plain(double value, const char *unit)
{
    return {value, unit, 0};
}

/** The window keeps going until it is long enough and has its samples. */
bool
windowDone(std::int64_t w0, double seconds, std::size_t scenarios)
{
    const double elapsed = secondsSince(w0);
    return (elapsed >= seconds && scenarios >= kMinScenarios) ||
           elapsed >= kWindowCap * seconds;
}

void
scenarioMetrics(WorkloadResult &r, const std::vector<double> &scenario_ms,
                std::size_t ended_as_expected, double window_s)
{
    r.reported["scenario_ms_p50"] =
        timing(percentile(scenario_ms, 50.0), "ms", scenario_ms.size());
    r.reported["scenario_ms_p90"] =
        timing(percentile(scenario_ms, 90.0), "ms", scenario_ms.size());
    r.reported["scenarios_per_s"] = timing(
        static_cast<double>(ended_as_expected) / window_s, "1/s",
        ended_as_expected);
    check(r, highestPercentileWithTail(
                 static_cast<std::int64_t>(scenario_ms.size())) >= 90.0,
          "scenario_ms_p90 has fewer than 10 samples beyond it (" +
              std::to_string(scenario_ms.size()) + " scenarios)");
}

// ---------------------------------------------------------------------
// sf5-seq and sf5-pe8

struct Sf5Inputs
{
    mesh::MeshSpec spec;
    mesh::Vec3 hypocentre;
};

Sf5Inputs
sf5Inputs(std::uint64_t seed)
{
    Rng rng = stream(seed, 1);
    Sf5Inputs in;
    in.spec = mesh::MeshSpec::forClass(mesh::SfClass::kSf5);
    in.spec.seed = rng.next();
    in.hypocentre = drawHypocentre(rng);
    return in;
}

sim::SimulationConfig
sf5Config(const Sf5Inputs &in, int pes, int threads)
{
    sim::SimulationConfig cfg;
    cfg.numPes = pes;
    cfg.smvpThreads = threads;
    cfg.durationSeconds = 1e6; // maxSteps decides the planned steps
    cfg.maxSteps = kSolveSteps;
    cfg.hypocenter = in.hypocentre;
    // The pulse peaks at t = 0, so the source fires in every short solve.
    cfg.wavelet.delaySeconds = 0.0;
    return cfg;
}

/** One set-up: everything a solve needs before its first step. */
struct Sf5Build
{
    std::shared_ptr<const mesh::GeneratedMesh> generated;
    sim::EnginePrefix prefix;
    sim::SimulationEngine engine;
    double seconds = 0.0;
    double meshS = 0.0;
    double bisectS = 0.0;
    double distributeS = 0.0;
    double assembleS = 0.0;
    double engineS = 0.0;
};

void
buildSf5(Sf5Build &b, const mesh::SoilModel &model, const Sf5Inputs &in,
         const sim::SimulationConfig &cfg, Tracer *tr)
{
    const std::int64_t t0 = nowNs();
    Tracer::Scope setup(tr, "bench", "setup");
    std::int64_t t = nowNs();
    {
        Tracer::Scope s(tr, "mesh", "generateMesh");
        b.generated = std::make_shared<const mesh::GeneratedMesh>(
            mesh::generateMesh(model, in.spec));
    }
    b.meshS = secondsSince(t);
    const mesh::TetMesh &m = b.generated->mesh;
    if (cfg.numPes == 1) {
        t = nowNs();
        Tracer::Scope s(tr, "sparse", "assembleStiffness");
        b.prefix.globalK = std::make_shared<const sparse::Bcsr3Matrix>(
            sparse::assembleStiffness(m, model, cfg.poisson));
        s.end();
        b.assembleS = secondsSince(t);
    } else {
        t = nowNs();
        Tracer::Scope s(tr, "partition", "GeometricBisection::partition");
        const partition::Partition part =
            partition::GeometricBisection().partition(m, cfg.numPes);
        s.end();
        b.bisectS = secondsSince(t);
        t = nowNs();
        Tracer::Scope d(tr, "parallel", "distribute");
        b.prefix.problem = std::make_shared<const parallel::DistributedProblem>(
            parallel::distribute(m, model, part, cfg.poisson));
        d.end();
        b.distributeS = secondsSince(t);
    }
    t = nowNs();
    {
        Tracer::Scope s(tr, "quake", "makeSimulationEngineWith");
        b.engine = sim::makeSimulationEngineWith(m, model, cfg, b.prefix);
    }
    b.engineS = secondsSince(t);
    b.seconds = secondsSince(t0);
}

/** Samples a solve adds to. */
struct SolveLog
{
    std::vector<double> stepMs;
    std::vector<double> ckptMs;
    std::size_t ckptBytes = 0;
};

/**
 * One sf5 scenario: reset the engine to `start`, then run kSolveSteps
 * steps, writing a checkpoint every kCheckpointEvery steps when
 * `ckpt_path` is set.  Returns the solve's wall seconds (steps and
 * checkpoint writes; the reset is not part of it).
 */
double
runSolve(sim::SimulationEngine &e, const sim::StepperState &start,
         const std::string &ckpt_path, Tracer *tr, SolveLog &log)
{
    {
        Tracer::Scope s(tr, "quake", "restoreState");
        e.stepper->restoreState(start);
    }
    Tracer::Scope solve(tr, "bench", "solve", tr != nullptr ? tr->newGroup() : 0);
    resilience::Checkpoint ckpt;
    const std::int64_t t0 = nowNs();
    for (std::int64_t s = 1; s <= kSolveSteps; ++s) {
        const std::int64_t a = nowNs();
        {
            Tracer::Scope sp(tr, "quake", "step");
            e.stepper->step();
        }
        log.stepMs.push_back(1e3 * secondsSince(a));
        if (!ckpt_path.empty() && s % kCheckpointEvery == 0) {
            const std::int64_t c = nowNs();
            {
                Tracer::Scope sp(tr, "quake", "saveState");
                e.stepper->saveState(ckpt.state);
            }
            ckpt.fingerprint = e.fingerprint;
            ckpt.dt = e.dt;
            ckpt.plannedSteps = e.plannedSteps;
            ckpt.reportPeak = e.stepper->peakDisplacement();
            Tracer::Scope sp(tr, "resilience", "writeCheckpoint");
            log.ckptBytes = resilience::writeCheckpoint(ckpt_path, ckpt);
            sp.end();
            log.ckptMs.push_back(1e3 * secondsSince(c));
        }
    }
    return secondsSince(t0);
}

/** Wall milliseconds of each of `repeats` calls of fn. */
template <typename Fn>
std::vector<double>
timeRepeats(int repeats, Tracer *tr, const char *layer, const char *name,
            Fn &&fn)
{
    std::vector<double> ms;
    ms.reserve(static_cast<std::size_t>(repeats));
    for (int i = 0; i < repeats; ++i) {
        const std::int64_t a = nowNs();
        Tracer::Scope s(tr, layer, name);
        fn();
        s.end();
        ms.push_back(1e3 * secondsSince(a));
    }
    return ms;
}

/**
 * The after-solve probes of a traced pass: the serial kernel, the
 * engine's SMVP and an empty dispatch, each on its own, plus the
 * partition counts.  They run only here, never inside a timed window.
 */
void
probeSf5(WorkloadResult &r, const Sf5Build &b, const mesh::SoilModel &model,
         const sim::SimulationConfig &cfg, Tracer *tr)
{
    Tracer::Scope probe(tr, "bench", "probe");
    const std::vector<double> &u = b.engine.stepper->displacement();
    std::vector<double> y(u.size(), 0.0);

    std::shared_ptr<const sparse::Bcsr3Matrix> k = b.prefix.globalK;
    if (k == nullptr) {
        Tracer::Scope s(tr, "sparse", "assembleStiffness");
        k = std::make_shared<const sparse::Bcsr3Matrix>(
            sparse::assembleStiffness(b.generated->mesh, model, cfg.poisson));
    }
    const double flops = static_cast<double>(k->flopsPerMultiply());
    const double serial_ms = median(timeRepeats(
        kProbeRepeats, tr, "sparse", "Bcsr3Matrix::multiply",
        [&] { k->multiply(u.data(), y.data()); }));
    r.perLayer["sparse.smvp_ms_p50"] = timing(serial_ms, "ms", kProbeRepeats);
    r.perLayer["sparse.tf_ns"] = plain(1e6 * serial_ms / flops, "ns");
    r.perLayer["sparse.blocks"] = plain(static_cast<double>(k->numBlocks()), "count");
    // Computed, not measured: values + block columns + row pointers,
    // plus reading x and writing y once, per multiply.
    const double bytes = 72.0 * static_cast<double>(k->numBlocks()) +
                         4.0 * static_cast<double>(k->numBlocks()) +
                         8.0 * static_cast<double>(k->numBlockRows() + 1) +
                         16.0 * static_cast<double>(k->numRows());
    r.perLayer["sparse.bytes_per_flop"] = plain(bytes / flops, "B/flop");

    if (b.engine.psmvp != nullptr) {
        const parallel::ParallelSmvp &engine_smvp = *b.engine.psmvp;
        const double par_ms = median(timeRepeats(
            kProbeRepeats, tr, "parallel", "ParallelSmvp::multiplyInto",
            [&] { engine_smvp.multiplyInto(u, y); }));
        r.perLayer["parallel.smvp_ms_p50"] = timing(par_ms, "ms", kProbeRepeats);
        r.perLayer["parallel.tf_ns"] = plain(1e6 * par_ms / flops, "ns");
        parallel::WorkerPool &pool = engine_smvp.workerPool();
        std::vector<double> us = timeRepeats(
            kDispatchRepeats, tr, "parallel", "WorkerPool::run",
            [&] { pool.run([](int) {}); });
        for (double &v : us)
            v *= 1e3;
        r.perLayer["parallel.dispatch_us_p50"] =
            timing(percentile(us, 50.0), "us", us.size());
        r.perLayer["parallel.dispatch_us_p99"] =
            timing(percentile(us, 99.0), "us", us.size());

        core::CharacterizationSummary sum;
        {
            Tracer::Scope s(tr, "parallel", "characterize");
            sum = core::summarize(parallel::characterize(*b.prefix.problem, "sf5"));
        }
        r.perLayer["partition.flops_max"] = plain(static_cast<double>(sum.flopsMax), "count");
        r.perLayer["partition.words_max"] = plain(static_cast<double>(sum.wordsMax), "count");
        r.perLayer["partition.blocks_max"] = plain(static_cast<double>(sum.blocksMax), "count");
        r.perLayer["partition.flop_balance"] = plain(sum.flopBalance, "ratio");
    } else {
        // One PE: F is the whole multiply and nothing is exchanged.
        r.perLayer["partition.flops_max"] = plain(flops, "count");
        r.perLayer["partition.flop_balance"] = plain(1.0, "ratio");
    }
}

WorkloadResult
runSf5(const RunConfig &rc, Tracer *tr, bool distributed)
{
    WorkloadResult r;
    const mesh::LayeredBasinModel model;
    const Sf5Inputs in = sf5Inputs(rc.seed);
    const int threads =
        distributed ? std::min(4, std::max(1, readHostInfo().affinityCpus)) : 1;
    const sim::SimulationConfig cfg = sf5Config(in, distributed ? 8 : 1, threads);
    const std::string ckpt_path =
        distributed ? std::string() : rc.outDir + "/sf5-seq.ckpt";

    // Set-up cycles: each builds everything from nothing and then runs
    // one scenario from rest, which is the time to solution of that
    // cycle.  The last cycle's engine serves the timed window.
    std::vector<double> setup_s, tts_s, mesh_s, bisect_s, dist_s, asm_s, eng_s;
    Sf5Build build;
    sim::StepperState rest;
    std::uint64_t cold_reference = 0;
    SolveLog cold;
    for (int c = 0; c < kSetupCycles; ++c) {
        build = Sf5Build{}; // release the previous cycle before building
        buildSf5(build, model, in, cfg, tr);
        build.engine.stepper->saveState(rest);
        const double solve = runSolve(build.engine, rest, ckpt_path, tr, cold);
        setup_s.push_back(build.seconds);
        tts_s.push_back(build.seconds + solve);
        mesh_s.push_back(build.meshS);
        bisect_s.push_back(build.bisectS);
        dist_s.push_back(build.distributeS);
        asm_s.push_back(build.assembleS);
        eng_s.push_back(build.engineS);
        const std::uint64_t h = displacementHash(build.engine);
        if (c == 0)
            cold_reference = h;
        check(r, h == cold_reference && wavefieldLive(build.engine),
              "set-up cycle " + std::to_string(c) +
                  ": the scenario from rest ended in a different or empty "
                  "wavefield");
    }

    // Warm-up, untimed: the first steps after the source fires, while
    // most of the field is still zero, cost up to twice a later step,
    // and how many there are depends on where the source sits.  Every
    // window scenario therefore starts from the same live wavefield.
    {
        Tracer::Scope s(tr, "bench", "warmup");
        for (std::int64_t i = 0; i < kWarmupSteps; ++i)
            build.engine.stepper->step();
    }
    sim::StepperState live;
    build.engine.stepper->saveState(live);

    // The timed window: back-to-back scenarios from the live state; each
    // must end bitwise equal to the first.
    SolveLog log;
    std::vector<double> scenario_ms;
    std::size_t ok_solves = 0;
    std::uint64_t reference = 0;
    WindowMeter meter;
    Tracer::Scope window(tr, "bench", "window");
    const std::int64_t w0 = nowNs();
    while (!windowDone(w0, rc.seconds, scenario_ms.size())) {
        scenario_ms.push_back(
            1e3 * runSolve(build.engine, live, ckpt_path, tr, log));
        const std::uint64_t h = displacementHash(build.engine);
        if (scenario_ms.size() == 1)
            reference = h;
        const bool ok = h == reference;
        ok_solves += ok;
        check(r, ok, "scenario " + std::to_string(scenario_ms.size()) +
                         " ended in a different wavefield");
    }
    const double window_s = secondsSince(w0);
    window.end();
    meter.finish();
    r.stealShare = meter.stealShare();
    r.cpuPerWall = meter.cpuPerWall();
    const std::uint64_t uninterrupted = finalStateFingerprint(build.engine);
    const std::int64_t final_step = build.engine.stepper->stepCount();

    // Output checks, outside the window.
    Tracer::Scope checks(tr, "bench", "check");
    const mesh::TetMesh &m = build.generated->mesh;
    double read_ms = 0.0;
    double restore_ms = 0.0;
    try {
        check(r, wavefieldLive(build.engine),
              "the wavefield is empty or not finite after the window");
        if (!distributed) {
            // Resume once from the last checkpoint of the last scenario
            // into a freshly bound engine; it must end bitwise equal.
            sim::SimulationEngine fresh =
                sim::makeSimulationEngineWith(m, model, cfg, build.prefix);
            std::int64_t t = nowNs();
            Tracer::Scope rd(tr, "resilience", "readCheckpoint");
            const resilience::Checkpoint ck = resilience::readCheckpoint(ckpt_path);
            resilience::requireCompatible(ck, fresh);
            rd.end();
            read_ms = 1e3 * secondsSince(t);
            t = nowNs();
            {
                Tracer::Scope s(tr, "quake", "restoreState");
                fresh.stepper->restoreState(ck.state);
            }
            restore_ms = 1e3 * secondsSince(t);
            const std::int64_t resumed_at = fresh.stepper->stepCount();
            while (fresh.stepper->stepCount() < final_step)
                fresh.stepper->step();
            check(r,
                  resumed_at > live.steps && resumed_at < final_step &&
                      finalStateFingerprint(fresh) == uninterrupted,
                  "resume from the step-" + std::to_string(resumed_at) +
                      " checkpoint did not end bitwise equal to the "
                      "uninterrupted scenario");
        } else {
            // The same 8-PE problem on one thread, from the same live
            // state, compared at the scenario's last step.
            sim::SimulationConfig one = cfg;
            one.smvpThreads = 1;
            sim::SimulationEngine serial =
                sim::makeSimulationEngineWith(m, model, one, build.prefix);
            serial.stepper->restoreState(live);
            while (serial.stepper->stepCount() < final_step)
                serial.stepper->step();
            check(r, finalStateFingerprint(serial) == uninterrupted,
                  "the " + std::to_string(threads) +
                      "-thread trajectory differs from the 1-thread one");
        }
    } catch (const std::exception &e) {
        check(r, false, std::string("output check threw: ") + e.what());
    }
    checks.end();

    r.endToEnd["setup_s"] = timing(median(setup_s), "s", setup_s.size());
    r.endToEnd["time_to_solution_s"] = timing(median(tts_s), "s", tts_s.size());
    r.endToEnd["step_ms_p50"] = timing(median(log.stepMs), "ms", log.stepMs.size());
    scenarioMetrics(r, scenario_ms, ok_solves, window_s);

    // Read before the probes, which assemble an extra global K.
    r.endToEnd["peak_rss_mb"] = plain(peakRssMb(), "MB");
    if (tr != nullptr) {
        probeSf5(r, build, model, cfg, tr);
        auto &L = r.perLayer;
        L["mesh.generate_s"] = timing(median(mesh_s), "s", mesh_s.size());
        L["mesh.nodes"] = plain(static_cast<double>(m.numNodes()), "count");
        L["mesh.tets"] = plain(static_cast<double>(m.numElements()), "count");
        L["quake.engine_build_s"] = timing(median(eng_s), "s", eng_s.size());
        if (distributed) {
            L["partition.bisect_s"] = timing(median(bisect_s), "s", bisect_s.size());
            L["parallel.distribute_s"] = timing(median(dist_s), "s", dist_s.size());
        } else {
            L["sparse.assemble_s"] = timing(median(asm_s), "s", asm_s.size());
            L["resilience.ckpt_write_ms_p50"] =
                timing(median(log.ckptMs), "ms", log.ckptMs.size());
            L["resilience.ckpt_bytes"] =
                plain(static_cast<double>(log.ckptBytes), "B");
            L["resilience.ckpt_read_ms"] = timing(read_ms, "ms", 1);
            L["resilience.restore_ms"] = timing(restore_ms, "ms", 1);
        }
        const Summary steps = summarize(log.stepMs);
        L["quake.step_ms_p90"] = timing(steps.p90, "ms", steps.n);
        L["quake.step_ms_p99"] = timing(steps.p99, "ms", steps.n);
        L["quake.step_ms_max"] = timing(steps.max, "ms", steps.n);
        L["quake.solve_s"] =
            timing(summarize(scenario_ms).sum / 1e3, "s", scenario_ms.size());
        L["quake.steps"] = plain(static_cast<double>(steps.n), "count");
    }
    return r;
}

// ---------------------------------------------------------------------
// service-mix

struct MixRequest
{
    service::ScenarioRequest request;
    bool impossibleDeadline = false;
    bool fresh = false; ///< carries a mesh spec no other request shares
    int shared = 0;     ///< index into kShared of its class and PEs
};

/** The shared prefixes: (class, PEs), all on the workload's mesh seed. */
constexpr struct
{
    mesh::SfClass cls;
    int pes;
} kShared[] = {{mesh::SfClass::kSf20, 1},
               {mesh::SfClass::kSf20, 2},
               {mesh::SfClass::kSf10, 1},
               {mesh::SfClass::kSf10, 2}};
constexpr int kNumShared = sizeof(kShared) / sizeof(kShared[0]);
constexpr int kSf10OnePe = 2;

service::ScenarioRequest
mixRequest(Rng &rng, std::uint64_t mesh_seed, int shared, int index)
{
    service::ScenarioRequest q;
    q.tenant = "tenant-" + std::to_string(index % kClients);
    q.label = "req-" + std::to_string(index);
    q.meshSpec = mesh::MeshSpec::forClass(kShared[shared].cls);
    q.meshSpec.seed = mesh_seed;
    q.numPes = kShared[shared].pes;
    q.durationSeconds = 1e6; // maxSteps decides the planned steps
    q.maxSteps = kShared[shared].cls == mesh::SfClass::kSf20 ? kSf20Steps
                                                             : kSf10Steps;
    q.hypocenter = drawHypocentre(rng);
    // Resolvable on sf20 (period 20 s) and sf10 alike.
    q.wavelet.peakFrequencyHz = 0.03 + 0.02 * rng.uniform();
    q.wavelet.delaySeconds = 0.0;
    return q;
}

/**
 * One block of the mix: (kind, shared prefix, count).  Every block has
 * exactly this composition — 14 shared-prefix requests, 3 with a new
 * mesh spec, 3 with an impossible deadline — so the mix's cost does not
 * drift with the seed; the seed shuffles the order inside each block
 * and draws every source and new mesh seed.
 */
enum class Kind
{
    kShared,
    kFresh,
    kDeadline,
};
constexpr struct
{
    Kind kind;
    int shared;
    int count;
} kBlock[] = {
    {Kind::kShared, 3, 5},   {Kind::kShared, 2, 3},  {Kind::kShared, 1, 3},
    {Kind::kShared, 0, 3},   {Kind::kFresh, 0, 2},   {Kind::kFresh, 1, 1},
    {Kind::kDeadline, 3, 1}, {Kind::kDeadline, 2, 1}, {Kind::kDeadline, 0, 1},
};

/** The seeded request sequence the clients draw from, in order. */
std::vector<MixRequest>
buildMix(std::uint64_t seed, std::uint64_t mesh_seed, int blocks)
{
    Rng rng = stream(seed, 3);
    std::vector<MixRequest> mix;
    for (int b = 0; b < blocks; ++b) {
        std::vector<std::pair<Kind, int>> slots;
        for (const auto &e : kBlock)
            slots.insert(slots.end(), static_cast<std::size_t>(e.count),
                         {e.kind, e.shared});
        for (std::size_t i = slots.size() - 1; i > 0; --i)
            std::swap(slots[i], slots[rng.next() % (i + 1)]);
        for (const auto &[kind, shared] : slots) {
            MixRequest m;
            m.shared = shared;
            m.request = mixRequest(rng, mesh_seed, shared,
                                   static_cast<int>(mix.size()));
            if (kind == Kind::kFresh) {
                m.request.meshSpec.seed = rng.next();
                m.fresh = true;
            } else if (kind == Kind::kDeadline) {
                m.request.deadlineMs = kImpossibleDeadlineMs;
                m.impossibleDeadline = true;
            }
            mix.push_back(std::move(m));
        }
    }
    return mix;
}

struct RequestLog
{
    int index = 0;
    Outcome outcome = Outcome::kError;
    Outcome expected = Outcome::kCompleted;
    double latencyMs = 0.0;
    double submitUs = 0.0;
    service::ScenarioResult result;
};

RequestLog
issue(service::ScenarioService &svc, const MixRequest &m, int index,
      Tracer *tr, std::int64_t parent)
{
    RequestLog log;
    log.index = index;
    log.expected = expectedOutcome(m.impossibleDeadline);
    Tracer::Scope req(tr, "service", "request",
                      tr != nullptr ? tr->newGroup() : 0, parent);
    const std::int64_t t0 = nowNs();
    Tracer::Scope sub(tr, "service", "ScenarioService::submit");
    std::future<service::ScenarioResult> fut = svc.submit(m.request);
    sub.end();
    log.submitUs = 1e6 * secondsSince(t0);
    log.result = fut.get();
    log.latencyMs = 1e3 * secondsSince(t0);
    req.end();
    log.outcome = classify(log.result.admitted, log.result.completed,
                           log.result.deadlineMiss, log.result.error);
    return log;
}

WorkloadResult
runServiceMix(const RunConfig &rc, Tracer *tr)
{
    WorkloadResult r;
    Rng rng = stream(rc.seed, 2);
    const std::uint64_t mesh_seed = rng.next();
    const std::vector<MixRequest> mix = buildMix(rc.seed, mesh_seed, 1000);
    const std::string result_dir = rc.outDir + "/results";
    std::filesystem::create_directories(result_dir);

    service::ServiceOptions opt;
    opt.executors = kExecutors;
    opt.totalThreads = std::max(1, readHostInfo().affinityCpus);
    opt.cacheBytes = kCacheBytes;
    opt.modelMflops = kModelMflops;
    opt.modelTcSecondsPerWord = kModelTcSecondsPerWord;
    opt.resultDir = result_dir;

    // Set-up cycles: a new service, its cache filled with every shared
    // prefix.  The filling requests' sources are fixed, not drawn, so
    // set-up cost does not depend on the seed.
    std::vector<double> setup_s;
    std::unique_ptr<service::ScenarioService> svc;
    for (int c = 0; c < kSetupCycles; ++c) {
        svc.reset();
        const std::int64_t t0 = nowNs();
        Tracer::Scope setup(tr, "bench", "setup");
        {
            Tracer::Scope s(tr, "service", "ScenarioService");
            svc = std::make_unique<service::ScenarioService>(opt);
        }
        std::vector<std::future<service::ScenarioResult>> primes;
        for (int k = 0; k < kNumShared; ++k) {
            Rng prime_rng = stream(0, static_cast<std::uint64_t>(k));
            Tracer::Scope s(tr, "service", "ScenarioService::submit");
            primes.push_back(svc->submit(
                mixRequest(prime_rng, mesh_seed, k, -1 - k)));
        }
        bool primed = true;
        for (auto &f : primes) {
            Tracer::Scope s(tr, "service", "prime");
            primed = f.get().completed && primed;
        }
        setup.end();
        setup_s.push_back(secondsSince(t0));
        check(r, primed, "a cache-filling request did not complete");
    }

    // The timed window: a closed loop of kClients clients.
    const service::PrefixCache::Stats cache0 = svc->cacheStats();
    std::atomic<int> next{0};
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> completed{0};
    std::vector<std::vector<RequestLog>> logs(kClients);
    WindowMeter meter;
    Tracer::Scope window(tr, "bench", "window");
    const std::int64_t window_id = window.id();
    const std::int64_t w0 = nowNs();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            std::vector<RequestLog> &mine = logs[static_cast<std::size_t>(c)];
            while (!stop.load(std::memory_order_relaxed)) {
                const int i = next.fetch_add(1);
                const MixRequest &m = mix[static_cast<std::size_t>(i) % mix.size()];
                try {
                    mine.push_back(issue(*svc, m, i, tr, window_id));
                } catch (const std::exception &e) {
                    // Recorded as an unexpected outcome, never thrown
                    // out of the client thread.
                    RequestLog failed;
                    failed.index = i;
                    failed.expected = expectedOutcome(m.impossibleDeadline);
                    failed.result.error = e.what();
                    mine.push_back(std::move(failed));
                }
                if (mine.back().outcome == Outcome::kCompleted)
                    completed.fetch_add(1);
            }
        });
    while (!windowDone(w0, rc.seconds, completed.load()))
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true);
    for (std::thread &t : clients)
        t.join();
    const double window_s = secondsSince(w0);
    window.end();
    meter.finish();
    r.stealShare = meter.stealShare();
    r.cpuPerWall = meter.cpuPerWall();
    const service::PrefixCache::Stats cache1 = svc->cacheStats();

    std::vector<RequestLog> all;
    for (auto &l : logs)
        all.insert(all.end(), l.begin(), l.end());
    std::sort(all.begin(), all.end(),
              [](const RequestLog &a, const RequestLog &b) { return a.index < b.index; });
    std::vector<double> latency_ms, submit_us, queue_ms, prefix_ms, run_ms, step_ms;
    std::size_t as_expected = 0;
    std::int64_t shed = 0;
    std::int64_t misses = 0;
    for (const RequestLog &l : all) {
        const bool ok = l.outcome == l.expected;
        as_expected += ok;
        if (!ok && r.failures.size() < 20)
            r.failures.push_back("request " + std::to_string(l.index) +
                                 " ended " + outcomeName(l.outcome) + ", expected " +
                                 outcomeName(l.expected) + ": " + l.result.error);
        r.tally.add(ok);
        submit_us.push_back(l.submitUs);
        shed += l.outcome == Outcome::kShed;
        misses += l.outcome == Outcome::kDeadlineMiss;
        if (l.outcome != Outcome::kCompleted)
            continue;
        latency_ms.push_back(l.latencyMs);
        queue_ms.push_back(1e3 * l.result.queueSeconds);
        prefix_ms.push_back(1e3 * l.result.prefixSeconds);
        run_ms.push_back(1e3 * l.result.stepSeconds);
        // Steps of one class only (sf10 on 1 PE): a median over the whole
        // mix would fall between the classes' modes.
        if (mix[static_cast<std::size_t>(l.index) % mix.size()].shared ==
                kSf10OnePe &&
            l.result.report.steps > 0)
            step_ms.push_back(1e3 * l.result.report.totalSeconds /
                              static_cast<double>(l.result.report.steps));
    }
    // A failure beyond the first 20 messages is still in the tally.
    scenarioMetrics(r, latency_ms, as_expected, window_s);

    // Sampled bitwise checks against the standalone oracle, outside
    // the window: the first completed shared and fresh requests.
    Tracer::Scope checks(tr, "bench", "check");
    int shared_checks = 0;
    int fresh_checks = 0;
    for (const RequestLog &l : all) {
        if (l.outcome != Outcome::kCompleted)
            continue;
        const MixRequest &m = mix[static_cast<std::size_t>(l.index) % mix.size()];
        int &quota = m.fresh ? fresh_checks : shared_checks;
        if (quota >= kStandaloneChecks / 2)
            continue;
        ++quota;
        try {
            const service::ScenarioResult alone =
                service::ScenarioService::runStandalone(m.request);
            check(r,
                  alone.engineFingerprint == l.result.engineFingerprint &&
                      alone.stateFingerprint == l.result.stateFingerprint &&
                      l.result.report.peakDisplacement > 0.0,
                  "request " + std::to_string(l.index) +
                      " differs from its standalone run (or never moved)");
        } catch (const std::exception &e) {
            check(r, false, std::string("standalone check threw: ") + e.what());
        }
    }
    checks.end();

    r.endToEnd["setup_s"] = timing(median(setup_s), "s", setup_s.size());
    // A tenant of a running service waits for its request, not for the
    // service's set-up: its time to solution is the request latency.
    r.endToEnd["time_to_solution_s"] =
        timing(1e-3 * median(latency_ms), "s", latency_ms.size());
    r.endToEnd["step_ms_p50"] = timing(median(step_ms), "ms", step_ms.size());
    r.endToEnd["peak_rss_mb"] = plain(peakRssMb(), "MB");

    if (tr != nullptr) {
        auto &L = r.perLayer;
        L["service.submit_us_p50"] = timing(median(submit_us), "us", submit_us.size());
        L["service.queue_ms_p50"] = timing(median(queue_ms), "ms", queue_ms.size());
        L["service.prefix_ms_p50"] = timing(median(prefix_ms), "ms", prefix_ms.size());
        L["service.run_ms_p50"] = timing(median(run_ms), "ms", run_ms.size());
        const double hits = static_cast<double>(cache1.hits - cache0.hits);
        const double lookups = hits + static_cast<double>(cache1.misses - cache0.misses);
        L["service.cache_hits"] = plain(hits, "count");
        L["service.cache_misses"] = plain(lookups - hits, "count");
        L["service.cache_evictions"] =
            plain(static_cast<double>(cache1.evictions - cache0.evictions), "count");
        L["service.cache_lookups"] = plain(lookups, "count");
        L["service.cache_hit_ratio"] = plain(lookups > 0 ? hits / lookups : 0.0, "ratio");
        L["service.shed"] = plain(static_cast<double>(shed), "count");
        L["service.deadline_misses"] = plain(static_cast<double>(misses), "count");
        L["service.queue_rejections"] =
            plain(static_cast<double>(svc->queueRejections()), "count");
    }
    {
        Tracer::Scope s(tr, "service", "shutdown");
        svc.reset();
    }
    return r;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"sf5-seq", "sf5-pe8",
                                                   "service-mix"};
    return names;
}

WorkloadResult
runWorkload(const RunConfig &config, Tracer *tracer)
{
    // Every run starts from an empty output directory, so each writes
    // the same files fresh.
    std::filesystem::remove_all(config.outDir);
    std::filesystem::create_directories(config.outDir);
    WorkloadResult r;
    if (config.workload == "sf5-seq")
        r = runSf5(config, tracer, false);
    else if (config.workload == "sf5-pe8")
        r = runSf5(config, tracer, true);
    else if (config.workload == "service-mix")
        r = runServiceMix(config, tracer);
    else
        throw std::invalid_argument("unknown workload: " + config.workload);
    return r;
}

} // namespace perfbench
