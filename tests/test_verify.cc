/**
 * @file
 * Unit tier of the verification subsystem (DESIGN.md §10): ULP metric
 * closed forms, generator validity on fixed seeds, every catalogue
 * property on one small fixed trial, the shrinker and its reproducer
 * line on a synthetic failing property, the FatalError rejection
 * regressions, and the golden Chrome trace of a fixed-seed fuzz trial.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>

#include "common/error.h"
#include "mesh/generator.h"
#include "parallel/fault_model.h"
#include "parallel/parallel_smvp.h"
#include "quake/simulation.h"
#include "sparse/bcsr3_sym.h"
#include "telemetry/collector.h"
#include "telemetry/export.h"
#include "verify/fuzz.h"
#include "verify/generators.h"
#include "verify/oracles.h"
#include "verify/properties.h"
#include "verify/ulp.h"

// ---------------------------------------------------------------------
// Global allocation hook (same pattern as test_telemetry.cc): counts
// every operator-new so the telemetry-transparency property can assert
// its traced steady state allocates nothing.  The replaced deletes are
// noinline: inlined into a new-expression's cleanup, their std::free
// trips GCC's -Wmismatched-new-delete.
// ---------------------------------------------------------------------

namespace
{
std::atomic<std::int64_t> g_allocations{0};
} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
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
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
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
using namespace quake::verify;

// ---------------------------------------------------------------------
// ULP metric closed forms.
// ---------------------------------------------------------------------

TEST(Ulp, ClosedForms)
{
    EXPECT_EQ(ulpDistance(1.0, 1.0), 0);
    EXPECT_EQ(ulpDistance(0.0, -0.0), 0);
    EXPECT_EQ(ulpDistance(1.0, std::nextafter(1.0, 2.0)), 1);
    EXPECT_EQ(ulpDistance(-1.0, std::nextafter(-1.0, -2.0)), 1);
    // One step across the sign boundary: -min_denormal to +min_denormal
    // is exactly two representable steps apart (through both zeros).
    const double dmin = std::numeric_limits<double>::denorm_min();
    EXPECT_EQ(ulpDistance(-dmin, dmin), 2);
    EXPECT_EQ(ulpDistance(std::nan(""), 1.0),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(ulpDistance(1.0, std::nan("")),
              std::numeric_limits<std::int64_t>::max());
    // Far-apart values saturate instead of overflowing.
    EXPECT_EQ(ulpDistance(-std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::max()),
              std::numeric_limits<std::int64_t>::max());
    // Symmetry.
    EXPECT_EQ(ulpDistance(3.25, 3.5), ulpDistance(3.5, 3.25));
}

TEST(Oracles, MixedToleranceAndBitwise)
{
    const std::vector<double> a = {1.0, 2.0, 3.0};
    std::vector<double> b = a;
    EXPECT_TRUE(bitwiseEqual(a, b));
    b[1] = std::nextafter(b[1], 10.0);
    EXPECT_FALSE(bitwiseEqual(a, b));
    std::string why;
    EXPECT_TRUE(withinMixedTolerance(a, b, 4, 0.0, &why));
    // Tiny absolute noise on a tiny element passes via the relative
    // branch even though it is millions of ULPs away.
    std::vector<double> c = a;
    c.push_back(1e-18);
    std::vector<double> d = c;
    d[3] = 3e-18;
    EXPECT_TRUE(withinMixedTolerance(c, d, 4, 1e-11, &why));
    // A genuine error fails and names the element.
    d[2] = 3.001;
    EXPECT_FALSE(withinMixedTolerance(c, d, 4, 1e-11, &why));
    EXPECT_NE(why.find("element 2"), std::string::npos);
}

// ---------------------------------------------------------------------
// Generators: validity on fixed seeds (every artifact passes its own
// validator; shapes hit their documented element counts).
// ---------------------------------------------------------------------

TEST(Generators, RandomSystemIsValid)
{
    for (int size = 0; size <= 2; ++size)
    {
        InputGen gen(0x1234 + size, size);
        GeneratedSystem sys = gen.randomSystem();
        EXPECT_GT(sys.mesh.numElements(), 0) << "size " << size;
        EXPECT_EQ(sys.stiffness.numRows(), 3 * sys.mesh.numNodes());
        EXPECT_GT(sys.dt, 0.0);
        for (double m : sys.lumpedMass)
            EXPECT_GT(m, 0.0);
    }
}

TEST(Generators, SpdMatrixIsBlockSymmetric)
{
    InputGen gen(99, 2);
    const sparse::Bcsr3Matrix a = gen.randomSpdBcsr3(17);
    // Zero-tolerance symmetric compression throws unless block(j,i) is
    // the exact transpose of block(i,j).
    EXPECT_NO_THROW(sparse::SymBcsr3Matrix::fromBcsr3(a, 0.0));
}

TEST(Generators, AdversarialShapes)
{
    EXPECT_EQ(InputGen::singleElementMesh().numElements(), 1);
    const mesh::TetMesh sliver = InputGen::sliverMesh(5, 1e-4);
    EXPECT_EQ(sliver.numElements(), 5);
    const mesh::TetMesh islands = InputGen::disconnectedMesh(3);
    EXPECT_EQ(islands.numElements(), 3 * 6); // 6 Kuhn tets per island
    InputGen gen(7, 1);
    EXPECT_GT(gen.pathologicalGradedMesh().numElements(), 6);
}

TEST(Generators, PartitionHasNoEmptyParts)
{
    InputGen gen(0xfeed, 2);
    GeneratedSystem sys = gen.randomSystem();
    const auto parts = static_cast<int>(
        std::min<std::int64_t>(sys.mesh.numElements(), 7));
    const partition::Partition part = gen.randomPartition(sys.mesh, parts);
    for (std::int64_t s : part.partSizes())
        EXPECT_GT(s, 0);
}

// ---------------------------------------------------------------------
// Every catalogue property passes one small fixed trial.  (The fuzz
// executable runs the deep sweeps; this catches a property that cannot
// even run.)
// ---------------------------------------------------------------------

TEST(Properties, CatalogueOnFixedSeed)
{
    quake::verify::setAllocationCounter(&g_allocations);
    TrialConfig cfg;
    cfg.seed = 0x5eed;
    cfg.size = 1;
    cfg.threads = {1, 2};
    for (const Property &p : allProperties())
    {
        const PropertyResult r = runProperty(p, cfg);
        EXPECT_TRUE(r.pass) << p.name << ": " << r.message;
    }
    quake::verify::setAllocationCounter(nullptr);
}

TEST(Properties, LookupByName)
{
    ASSERT_NE(findProperty("kernel_differential"), nullptr);
    EXPECT_EQ(findProperty("no_such_property"), nullptr);
}

// ---------------------------------------------------------------------
// The fuzz driver: shrinking and the reproducer line, on a synthetic
// property that fails at size >= 1 (so the minimal failure is size 1).
// ---------------------------------------------------------------------

TEST(Fuzz, ShrinksAndPrintsReproducer)
{
    Property synthetic;
    synthetic.name = "synthetic_fail";
    synthetic.summary = "fails whenever size >= 1";
    synthetic.run = [](const TrialConfig &cfg) {
        return cfg.size >= 1
                   ? PropertyResult::fail("size was " +
                                          std::to_string(cfg.size))
                   : PropertyResult::ok();
    };

    FuzzOptions options;
    options.trials = 8;
    std::ostringstream log;
    options.out = &log;
    const FuzzReport report = runFuzz({synthetic}, options);
    ASSERT_EQ(report.failures.size(), 1u);
    const FuzzFailure &f = report.failures.front();
    EXPECT_EQ(f.property, "synthetic_fail");
    EXPECT_EQ(f.size, 1) << "shrinker did not find the minimal size";
    EXPECT_EQ(f.message, "size was 1");
    EXPECT_EQ(f.reproducer,
              reproducerLine("synthetic_fail", f.seed, 1));
    EXPECT_NE(log.str().find("reproduce: verify_fuzz --property "
                             "synthetic_fail --seed 0x"),
              std::string::npos);

    // The reproducer replays deterministically: an explicit-seed run of
    // the same property fails with the same diagnostic.
    FuzzOptions replay;
    replay.explicitSeed = static_cast<std::int64_t>(f.seed);
    replay.explicitSize = f.size;
    const FuzzReport again = runFuzz({synthetic}, replay);
    ASSERT_EQ(again.failures.size(), 1u);
    EXPECT_EQ(again.failures.front().message, "size was 1");
}

TEST(Fuzz, PassingPropertyRunsAllTrials)
{
    Property always;
    always.name = "always_pass";
    always.summary = "";
    always.run = [](const TrialConfig &) { return PropertyResult::ok(); };
    FuzzOptions options;
    options.trials = 16;
    const FuzzReport report = runFuzz({always}, options);
    EXPECT_TRUE(report.passed());
    EXPECT_EQ(report.trialsRun, 16);
}

TEST(Fuzz, UnknownPropertyNameFails)
{
    FuzzOptions options;
    options.properties = {"no_such_property"};
    const FuzzReport report = runFuzz(options);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_NE(report.failures.front().message.find("unknown"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Rejection regressions (the satellite of the mesh-generator and
// simulation-config validation): FatalError, never UB.
// ---------------------------------------------------------------------

TEST(Reject, MeshSpecCombinations)
{
    const mesh::UniformModel model(
        mesh::Aabb{{0.0, 0.0, 0.0}, {4.0, 4.0, 4.0}}, 1.0);
    mesh::MeshSpec spec;
    spec.coarseNx = spec.coarseNy = spec.coarseNz = 1;

    auto expectReject = [&](auto mutate) {
        mesh::MeshSpec s = spec;
        mutate(s);
        EXPECT_THROW(mesh::generateMesh(model, s), common::FatalError);
    };
    expectReject([](mesh::MeshSpec &s) { s.periodSeconds = 0.0; });
    expectReject([](mesh::MeshSpec &s) { s.periodSeconds = -2.0; });
    expectReject([](mesh::MeshSpec &s) { s.pointsPerWavelength = 0.0; });
    expectReject([](mesh::MeshSpec &s) { s.hScale = std::nan(""); });
    expectReject([](mesh::MeshSpec &s) { s.hMin = 0.0; });
    expectReject([](mesh::MeshSpec &s) { s.coarseNx = 0; });
    expectReject([](mesh::MeshSpec &s) { s.coarseNy = -3; });
    expectReject([](mesh::MeshSpec &s) { s.coarseNz = 4096; });
    expectReject([](mesh::MeshSpec &s) { s.jitterFraction = 1.0; });
    expectReject([](mesh::MeshSpec &s) { s.jitterFraction = -0.1; });
    expectReject([](mesh::MeshSpec &s) { s.refine.maxElements = 0; });
    expectReject([](mesh::MeshSpec &s) { s.refine.maxPasses = -1; });

    // The baseline spec itself is fine.
    EXPECT_NO_THROW(mesh::generateMesh(model, spec));
}

TEST(Reject, ZeroExtentDomainMeansZeroElements)
{
    // A flat (zero-thickness) domain would produce zero-volume cubes
    // and therefore zero usable elements; the generator must refuse it
    // rather than emit a degenerate mesh.
    const mesh::UniformModel flat(
        mesh::Aabb{{0.0, 0.0, 0.0}, {4.0, 4.0, 0.0}}, 1.0);
    mesh::MeshSpec spec;
    spec.coarseNx = spec.coarseNy = spec.coarseNz = 1;
    EXPECT_THROW(mesh::generateMesh(flat, spec), common::FatalError);
}

TEST(Reject, LatticeNodeIdOverflow)
{
    EXPECT_THROW(mesh::buildKuhnLattice(
                     mesh::Aabb{{0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}}, 1300,
                     1300, 1300),
                 common::FatalError);
}

TEST(Reject, SimulationConfig)
{
    const auto reject = [](auto mutate) {
        sim::SimulationConfig config;
        mutate(config);
        EXPECT_THROW(config.validate(), common::FatalError);
    };
    reject([](sim::SimulationConfig &c) { c.durationSeconds = -5.0; });
    reject([](sim::SimulationConfig &c) { c.durationSeconds = 0.0; });
    reject([](sim::SimulationConfig &c) {
        c.durationSeconds = std::numeric_limits<double>::infinity();
    });
    reject([](sim::SimulationConfig &c) { c.cflSafety = 0.0; });
    reject([](sim::SimulationConfig &c) { c.poisson = 0.5; });
    reject([](sim::SimulationConfig &c) { c.poisson = -0.1; });
    reject([](sim::SimulationConfig &c) { c.dampingA0 = -1.0; });
    reject([](sim::SimulationConfig &c) { c.numPes = 0; });
    reject([](sim::SimulationConfig &c) { c.numPes = -4; });
    reject([](sim::SimulationConfig &c) { c.smvpThreads = -1; });
    reject([](sim::SimulationConfig &c) { c.sampleInterval = -1; });
    reject([](sim::SimulationConfig &c) { c.maxSteps = -1; });
    EXPECT_NO_THROW(sim::SimulationConfig{}.validate());
}

TEST(Reject, FaultSpec)
{
    parallel::FaultSpec spec;
    spec.dropProbability = 1.5;
    EXPECT_THROW(spec.validate(), common::FatalError);
    spec.dropProbability = std::nan("");
    EXPECT_THROW(spec.validate(), common::FatalError);
    spec.dropProbability = 0.1;
    EXPECT_NO_THROW(spec.validate());
}

// ---------------------------------------------------------------------
// Golden Chrome trace of a fixed-seed fuzz trial: a generated system,
// a 1-thread engine (inline, so span order is scheduling-free), a fake
// clock, and three traced steps must export exactly the committed JSON.
// Regenerate after an intentional exporter change with:
//   QUAKE98_REGEN_GOLDEN=1 ./test_verify --gtest_filter='*GoldenTrace*'
// ---------------------------------------------------------------------

std::uint64_t g_fake_now = 0;

std::uint64_t
fakeNow()
{
    return g_fake_now += 1000;
}

TEST(GoldenTrace, FixedSeedFuzzTrial)
{
    g_fake_now = 0;
    InputGen gen(42, 1);
    GeneratedSystem sys = gen.randomSystem();
    const partition::Partition part = gen.randomPartition(
        sys.mesh,
        static_cast<int>(std::min<std::int64_t>(sys.mesh.numElements(), 2)));
    const parallel::DistributedProblem problem =
        parallel::distribute(sys.mesh, *sys.model, part);

    telemetry::CollectorConfig cc;
    cc.enabled = true;
    cc.sampleEvery = 1;
    cc.now = &fakeNow;
    telemetry::Collector collector(cc);

    parallel::ParallelSmvp engine(problem, 1);
    engine.setCollector(&collector);

    const std::int64_t n = 3 * problem.numGlobalNodes;
    std::vector<double> u = gen.randomVector(n);
    std::vector<double> up(static_cast<std::size_t>(n), 0.0);
    std::vector<double> f(static_cast<std::size_t>(n), 0.0);
    std::vector<double> inv_mass(static_cast<std::size_t>(n), 1.0);
    sparse::StepUpdate su;
    su.f = f.data();
    su.invMass = inv_mass.data();
    su.dt = sys.dt;
    su.dt2 = sys.dt * sys.dt;
    su.prevCoeff = 1.0;
    su.denom = 1.0;
    for (int step = 0; step < 3; ++step)
    {
        collector.setStep(step);
        su.u = u.data();
        su.up = up.data();
        engine.stepFused(su);
        std::swap(u, up);
    }

    std::ostringstream out;
    telemetry::writeChromeTrace(collector, out);
    ASSERT_FALSE(out.str().empty());

    const std::string path =
        std::string(QUAKE98_GOLDEN_DIR) + "/verify_trace.json";
    if (std::getenv("QUAKE98_REGEN_GOLDEN") != nullptr)
    {
        std::ofstream file(path, std::ios::binary);
        ASSERT_TRUE(file.good()) << "cannot write " << path;
        file << out.str();
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream file(path, std::ios::binary);
    ASSERT_TRUE(file.good()) << "missing golden file " << path;
    std::ostringstream golden;
    golden << file.rdbuf();
    EXPECT_EQ(out.str(), golden.str())
        << "Chrome trace drifted from " << path
        << " (QUAKE98_REGEN_GOLDEN=1 regenerates after an intentional "
           "exporter change)";
}

} // namespace
