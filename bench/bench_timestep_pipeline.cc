/**
 * @file
 * The time-stepping pipeline benchmark: measures what this PR builds —
 * the fused zero-allocation step loop (DESIGN.md §8) — against the
 * seed-style loop it replaces, on an sf10-class generated mesh.
 *
 * Three distributed configurations run the same physics:
 *
 *   seed-alloc  the seed step loop: `y = engine.multiply(x)` (a fresh
 *               DOF vector allocated and moved every step) plus the
 *               per-step O(n) peak-displacement sweep;
 *   zero-copy   multiplyInto() into the stepper's persistent scratch +
 *               the out-of-line reference triad, O(1) cached stats;
 *   fused       ParallelSmvp::stepFused() — SMVP, update, and stats in
 *               one pass, no ku vector;
 *
 * plus a sequential pair on the undistributed global matrix:
 *
 *   seq-unfused  Bcsr3Matrix::multiply + the reference triad;
 *   fused-seq    Bcsr3Matrix::multiplyFusedStep, the step that the
 *                one-PE fused simulation engine binds.
 *
 * Shared-memory parallelism runs only through ParallelSmvp, so the
 * sequential pair runs on one thread whatever --threads says.
 *
 * A global operator new/delete hook counts heap allocations during each
 * timed loop: the zero-copy and both fused configurations must make
 * NONE.
 * Emits BENCH_timestep.json for the perf trajectory.  The exit status
 * reflects correctness only: nonzero iff a fused displacement history
 * diverges bitwise from its unfused baseline (fused vs zero-copy,
 * fused-seq vs seq-unfused), or a zero-allocation contract is
 * violated.
 *
 * The fused distributed run carries a live telemetry collector, so the
 * allocation gate also proves the DESIGN.md §9 claim that telemetry
 * recording is allocation-free, and the run's phase split (local vs
 * exchange histograms) is emitted as BENCH_timestep_telemetry.json for
 * the perf trajectory (--metrics overrides the path).
 *
 * Flags: --smoke (tiny mesh, few steps — the `perf` ctest label),
 *        --pes N, --threads N, --steps N, --full (paper-scale sf10),
 *        --trace FILE / --metrics FILE (telemetry on the fused run).
 */

#include "bench/bench_util.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>

#include "parallel/parallel_smvp.h"
#include "quake/time_stepper.h"
#include "sparse/assembly.h"
#include "telemetry/collector.h"
#include "telemetry/export.h"

// ---------------------------------------------------------------------
// Allocation-counting hook: every heap allocation in the process goes
// through here.  Counting is relaxed-atomic so the hook itself never
// perturbs the timing it guards.  The replaced operators are noinline:
// once GCC inlines one side of a new/delete pair down to malloc or free,
// it reports the pair as mismatched (-Wmismatched-new-delete).
// ---------------------------------------------------------------------

namespace
{
std::atomic<std::int64_t> g_allocations{0};
} // namespace

[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    return operator new(size);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace quake;

/** One timed stepping run. */
struct RunResult
{
    double wallSeconds = 0.0;
    double smvpSeconds = 0.0;
    double totalSeconds = 0.0;  ///< stepper-internal step() time
    std::int64_t allocations = 0;
    double peak = 0.0;
    std::vector<double> u;  ///< final displacement
    std::vector<double> up; ///< final previous displacement
};

/** Drive `stepper` for `steps` steps, counting time and allocations. */
RunResult
timeRun(sim::ExplicitTimeStepper &stepper, int steps, bool seed_peak_sweep)
{
    stepper.step(); // warm caches and pool, outside the counted window

    double running_peak = 0.0;
    const std::int64_t alloc0 =
        g_allocations.load(std::memory_order_relaxed);
    const double smvp0 = stepper.smvpSeconds();
    const double total0 = stepper.totalSeconds();
    const auto t0 = std::chrono::steady_clock::now();
    for (int s = 0; s < steps; ++s) {
        stepper.step();
        if (seed_peak_sweep) {
            // The seed runSimulation loop: an O(n) sweep per step.
            double peak = 0.0;
            for (const double v : stepper.displacement())
                peak = std::max(peak, std::fabs(v));
            running_peak = std::max(running_peak, peak);
        } else {
            running_peak =
                std::max(running_peak, stepper.peakDisplacement());
        }
    }
    const auto t1 = std::chrono::steady_clock::now();

    RunResult r;
    r.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    r.smvpSeconds = stepper.smvpSeconds() - smvp0;
    r.totalSeconds = stepper.totalSeconds() - total0;
    r.allocations =
        g_allocations.load(std::memory_order_relaxed) - alloc0;
    r.peak = running_peak;
    r.u = stepper.displacement();
    r.up = stepper.previousDisplacement();
    return r;
}

bool
bitwiseEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const common::Args args(argc, argv);
    bench::benchHeader(
        "Fused time-stepping pipeline (zero-copy + fused step)",
        "the Section 2.2 step loop whose SMVP Section 3 measures");

    const bench::EngineBenchOptions opt = bench::engineBenchOptions(args);
    const bool smoke = opt.smoke;
    const int threads = opt.threads;
    const int pes = opt.pes;
    const int steps =
        static_cast<int>(args.getInt("steps", smoke ? 120 : 400));

    const bench::BenchMesh bm = opt.mesh;
    const mesh::TetMesh &m = bench::cachedMesh(bm);
    const mesh::LayeredBasinModel model;

    const double dt = sim::stableTimeStep(m, model);
    const std::vector<double> mass = sparse::assembleLumpedMass(m, model);
    const sparse::Bcsr3Matrix global_k = sparse::assembleStiffness(m, model);
    const std::int64_t dof = global_k.numRows();
    const std::int64_t nnz = global_k.nnz();

    std::cout << "mesh: " << bm.label << ", " << m.numNodes()
              << " nodes (" << dof << " DOFs), " << steps
              << " timed steps, dt = " << dt << " s\n"
              << "hardware threads: "
              << parallel::WorkerPool::hardwareThreads()
              << ", logical PEs: " << pes << "\n\n";

    const partition::GeometricBisection partitioner;
    const parallel::DistributedProblem problem =
        parallel::distribute(m, model, partitioner.partition(m, pes));
    parallel::ParallelSmvp engine(problem, threads);

    sim::RickerWavelet wavelet;
    wavelet.peakFrequencyHz = 0.5;
    wavelet.delaySeconds = 0.2;
    const sim::PointSource source =
        sim::makePointSource(m, {25.0, 25.0, 8.0}, {0, 0, 1}, wavelet);

    auto make_stepper = [&](sim::SmvpFn smvp) {
        sim::ExplicitTimeStepper stepper(std::move(smvp), mass, dt);
        stepper.addSource(source);
        return stepper;
    };

    // --- The three distributed configurations. ---
    sim::ExplicitTimeStepper seed_stepper =
        make_stepper([&engine](const std::vector<double> &x,
                               std::vector<double> &y) {
            y = engine.multiply(x); // seed: fresh vector every step
        });
    const RunResult seed =
        timeRun(seed_stepper, steps, /*seed_peak_sweep=*/true);

    sim::ExplicitTimeStepper zero_stepper =
        make_stepper([&engine](const std::vector<double> &x,
                               std::vector<double> &y) {
            engine.multiplyInto(x, y);
        });
    const RunResult zero = timeRun(zero_stepper, steps, false);

    // The fused run records telemetry while the allocation hook is
    // live: the zero-alloc gate below therefore also covers telemetry
    // recording (histograms every step, sampled spans).
    telemetry::Collector collector;
    sim::ExplicitTimeStepper fused_stepper =
        make_stepper([&engine](const std::vector<double> &x,
                               std::vector<double> &y) {
            engine.multiplyInto(x, y);
        });
    fused_stepper.setFusedStep([&engine](const sparse::StepUpdate &su) {
        return engine.stepFused(su);
    });
    engine.setCollector(&collector);
    fused_stepper.setCollector(&collector);
    const RunResult fused = timeRun(fused_stepper, steps, false);
    engine.setCollector(nullptr);

    // --- Sequential pair on the global matrix. ---
    sim::ExplicitTimeStepper seq_stepper =
        make_stepper([&global_k](const std::vector<double> &x,
                                 std::vector<double> &y) {
            global_k.multiply(x.data(), y.data());
        });
    const RunResult seq = timeRun(seq_stepper, steps, false);

    sim::ExplicitTimeStepper fused_seq_stepper =
        make_stepper([&global_k](const std::vector<double> &x,
                                 std::vector<double> &y) {
            global_k.multiply(x.data(), y.data());
        });
    fused_seq_stepper.setFusedStep(
        [&global_k](const sparse::StepUpdate &su) {
            return global_k.multiplyFusedStep(su);
        });
    const RunResult fused_seq = timeRun(fused_seq_stepper, steps, false);

    // --- Correctness gates. ---
    const bool seed_matches =
        bitwiseEqual(seed.u, zero.u) && bitwiseEqual(seed.up, zero.up);
    const bool fused_matches =
        bitwiseEqual(fused.u, zero.u) && bitwiseEqual(fused.up, zero.up);
    const bool fused_seq_matches = bitwiseEqual(fused_seq.u, seq.u) &&
                                   bitwiseEqual(fused_seq.up, seq.up);
    const bool zero_alloc_ok =
        zero.allocations == 0 && fused.allocations == 0 &&
        fused_seq.allocations == 0;

    // --- Report. ---
    const double flops = static_cast<double>(2 * nnz);
    std::vector<bench::BenchJsonRecord> records;
    common::Table table({"configuration", "steps/s", "ms/step",
                         "SMVP ms/step", "allocs/step"});
    auto add_row = [&](const std::string &name, const RunResult &r) {
        const double per_step = r.wallSeconds / steps;
        const double allocs_per_step =
            static_cast<double>(r.allocations) / steps;
        table.addRow(
            {name, common::formatFixed(1.0 / per_step, 1),
             common::formatFixed(per_step * 1e3, 3),
             common::formatFixed(r.smvpSeconds / steps * 1e3, 3),
             common::formatFixed(allocs_per_step, 2)});
        bench::BenchJsonRecord rec;
        rec.kernel = name;
        rec.rows = dof;
        rec.nnz = nnz;
        rec.secondsPerSmvp = per_step;
        rec.gflops = flops / per_step / 1e9;
        rec.tfNs = per_step / flops * 1e9;
        rec.extra.emplace_back("steps_per_sec", 1.0 / per_step);
        rec.extra.emplace_back("smvp_seconds_per_step",
                               r.smvpSeconds / steps);
        rec.extra.emplace_back("allocs_per_step", allocs_per_step);
        rec.extra.emplace_back("threads",
                               static_cast<double>(engine.numThreads()));
        rec.extra.emplace_back("pes", static_cast<double>(pes));
        records.push_back(std::move(rec));
    };
    add_row("seed-alloc", seed);
    add_row("zero-copy", zero);
    add_row("fused", fused);
    add_row("seq-unfused", seq);
    add_row("fused-seq", fused_seq);
    bench::printTable(table, args);

    const double fused_speedup = seed.wallSeconds / fused.wallSeconds;
    std::cout << "\nfused bitwise-equals zero-copy baseline: "
              << (fused_matches ? "PASS" : "FAIL") << "\n"
              << "seed-alloc bitwise-equals zero-copy: "
              << (seed_matches ? "PASS" : "FAIL") << "\n"
              << "fused-seq bitwise-equals seq-unfused: "
              << (fused_seq_matches ? "PASS" : "FAIL") << "\n"
              << "zero allocations per step (zero-copy/fused/fused-seq): "
              << (zero_alloc_ok ? "PASS" : "FAIL") << " ("
              << zero.allocations << "/" << fused.allocations << "/"
              << fused_seq.allocations << " in " << steps << " steps)\n"
              << "fused speedup vs seed loop: "
              << common::formatFixed(fused_speedup, 2) << "x, vs "
                 "zero-copy unfused: "
              << common::formatFixed(zero.wallSeconds / fused.wallSeconds,
                                     2)
              << "x\n";

    bench::writeBenchJson(
        "timestep", records,
        {{"mesh", bm.label},
         {"pes", std::to_string(pes)},
         {"engine_threads", std::to_string(engine.numThreads())},
         {"steps", std::to_string(steps)},
         {"fused_bitwise_equal", fused_matches ? "true" : "false"},
         {"zero_alloc_ok", zero_alloc_ok ? "true" : "false"},
         {"fused_speedup_vs_seed",
          common::formatFixed(fused_speedup, 3)}});

    // Phase-split metrics from the fused run's collector — written on
    // every invocation (the --smoke ctest run included) so the perf
    // trajectory tracks compute vs exchange, not just whole-step time.
    telemetry::writeMetricsBenchJson(
        collector, "timestep_telemetry",
        {{"mesh", bm.label},
         {"pes", std::to_string(pes)},
         {"engine_threads", std::to_string(engine.numThreads())},
         {"steps", std::to_string(steps)}},
        opt.metricsPath);
    if (!opt.tracePath.empty() &&
        telemetry::writeChromeTrace(collector, opt.tracePath))
        std::cout << "[bench] wrote trace " << opt.tracePath << "\n";

    const bool ok = seed_matches && fused_matches && fused_seq_matches &&
                    zero_alloc_ok;
    return ok ? 0 : 1;
}
