/**
 * @file
 * Tests for the sliced-ELLPACK-3x3 format (DESIGN.md §12): conversion
 * edge cases (empty rows, single-tet meshes, row-length skew, slice
 * height 1), exact round-trip against the source BCSR3, the fused-step
 * bitwise contract, and the engine-level backend knob.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "mesh/generator.h"
#include "quake/simulation.h"
#include "sparse/assembly.h"
#include "sparse/bcsr3_sym.h"
#include "sparse/sliced_ell3.h"

namespace
{

using namespace quake::mesh;
using quake::common::FatalError;
using quake::sparse::Bcsr3Matrix;
using quake::sparse::Block3;
using quake::sparse::SlicedEll3Matrix;
using quake::sparse::SymBcsr3Matrix;

/** Random vector of n scalars in [-1, 1]. */
std::vector<double>
randomVector(std::int64_t n, std::uint64_t seed)
{
    std::vector<double> x(static_cast<std::size_t>(n));
    quake::common::SplitMix64 rng(seed);
    for (double &v : x)
        v = rng.uniform(-1, 1);
    return x;
}

/** A skewed test matrix: row 0 dense, every other row diagonal-only. */
Bcsr3Matrix
skewedMatrix(std::int64_t rows)
{
    std::vector<std::int64_t> xadj(static_cast<std::size_t>(rows) + 1);
    xadj[0] = 0;
    xadj[1] = rows; // row 0 holds a block for every column
    for (std::int64_t r = 1; r < rows; ++r)
        xadj[static_cast<std::size_t>(r) + 1] = rows + r;
    std::vector<std::int32_t> cols;
    for (std::int64_t c = 0; c < rows; ++c)
        cols.push_back(static_cast<std::int32_t>(c));
    for (std::int64_t r = 1; r < rows; ++r)
        cols.push_back(static_cast<std::int32_t>(r));
    Bcsr3Matrix a(rows, xadj, cols);
    quake::common::SplitMix64 rng(11);
    for (std::int64_t r = 0; r < rows; ++r)
        for (std::int64_t b = xadj[static_cast<std::size_t>(r)];
             b < xadj[static_cast<std::size_t>(r) + 1]; ++b) {
            Block3 blk{};
            for (int e = 0; e < 9; ++e)
                blk[static_cast<std::size_t>(e)] = rng.uniform(-2, 2);
            a.addToBlock(r, cols[static_cast<std::size_t>(b)], blk);
        }
    return a;
}

void
expectSameProduct(const Bcsr3Matrix &a, const SlicedEll3Matrix &ell,
                  std::uint64_t seed)
{
    const std::vector<double> x = randomVector(a.numRows(), seed);
    const std::vector<double> ref = a.multiply(x);
    const std::vector<double> y = ell.multiply(x);
    ASSERT_EQ(y.size(), ref.size());
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-12 * (1.0 + std::fabs(ref[i])))
            << "dof " << i;
}

TEST(SlicedEll3, EmptyRowListCoversNothing)
{
    const Bcsr3Matrix a = skewedMatrix(5);
    const SlicedEll3Matrix ell =
        SlicedEll3Matrix::fromBcsr3Rows(a, nullptr, 0);
    EXPECT_EQ(ell.numCoveredRows(), 0);
    EXPECT_EQ(ell.numSlices(), 0);
    EXPECT_EQ(ell.storedBlocks(), 0);
    EXPECT_EQ(ell.numRows(), a.numRows());

    // multiply over zero covered rows must leave y untouched.
    const std::vector<double> x = randomVector(a.numRows(), 3);
    std::vector<double> y(static_cast<std::size_t>(a.numRows()), 7.5);
    ell.multiply(x.data(), y.data());
    for (double v : y)
        EXPECT_EQ(v, 7.5);
}

TEST(SlicedEll3, EmptyRowsInsideTheMatrix)
{
    // Row 1 holds no blocks at all: its lane is all padding and its
    // output rows must be overwritten with exact zero.
    Bcsr3Matrix a(3, {0, 1, 1, 2}, {0, 2});
    Block3 d{};
    d[0] = d[4] = d[8] = 2.0;
    a.addToBlock(0, 0, d);
    a.addToBlock(2, 2, d);

    for (std::int64_t h : {std::int64_t{1}, std::int64_t{2},
                           std::int64_t{8}}) {
        const SlicedEll3Matrix ell = SlicedEll3Matrix::fromBcsr3(a, h);
        ell.validate();
        EXPECT_EQ(ell.structuralBlocks(), a.numBlocks());
        const std::vector<double> x = randomVector(a.numRows(), 17);
        std::vector<double> y(static_cast<std::size_t>(a.numRows()),
                              -3.0);
        ell.multiply(x.data(), y.data());
        for (int c = 3; c < 6; ++c)
            EXPECT_EQ(y[static_cast<std::size_t>(c)], 0.0)
                << "empty row dof " << c;
        expectSameProduct(a, ell, 18);
    }
}

TEST(SlicedEll3, SingleTetMesh)
{
    // The smallest assembled system: one tetrahedron, four nodes.
    TetMesh m;
    m.addNode({0, 0, 0});
    m.addNode({1, 0, 0});
    m.addNode({0, 1, 0});
    m.addNode({0, 0, 1});
    m.addTet(0, 1, 2, 3);
    const UniformModel model(Aabb{{0, 0, 0}, {1, 1, 1}}, 1.0, 1.0);
    const Bcsr3Matrix a =
        quake::sparse::assembleStiffness(m, model, 0.25);

    // Four block rows against the default slice height of 8: a single
    // partially-filled slice, pad lanes included.
    const SlicedEll3Matrix ell = SlicedEll3Matrix::fromBcsr3(a);
    ell.validate();
    EXPECT_EQ(ell.numCoveredRows(), 4);
    EXPECT_EQ(ell.numSlices(), 1);
    expectSameProduct(a, ell, 23);
}

TEST(SlicedEll3, RowLengthSkewPadsButStaysCorrect)
{
    const Bcsr3Matrix a = skewedMatrix(17);
    const SlicedEll3Matrix ell = SlicedEll3Matrix::fromBcsr3(a, 8);
    ell.validate();
    // The dense row forces its whole slice to the full width, so the
    // stored slots must strictly exceed the structural blocks.
    EXPECT_GT(ell.storedBlocks(), ell.structuralBlocks());
    EXPECT_GT(ell.paddingRatio(), 1.0);
    expectSameProduct(a, ell, 29);
}

TEST(SlicedEll3, SliceHeightOneDegeneratesToRowMajorEll)
{
    const Bcsr3Matrix a = skewedMatrix(9);
    const SlicedEll3Matrix ell = SlicedEll3Matrix::fromBcsr3(a, 1);
    ell.validate();
    EXPECT_EQ(ell.sliceHeight(), 1);
    EXPECT_EQ(ell.numSlices(), a.numBlockRows());
    // With one row per slice, each slice width is exactly the row
    // length: no padding at all.
    EXPECT_EQ(ell.storedBlocks(), ell.structuralBlocks());
    EXPECT_DOUBLE_EQ(ell.paddingRatio(), 1.0);
    expectSameProduct(a, ell, 31);
}

TEST(SlicedEll3, RoundTripReproducesBcsr3Exactly)
{
    const Bcsr3Matrix a = skewedMatrix(13);
    const std::int64_t h = 4;
    const SlicedEll3Matrix ell = SlicedEll3Matrix::fromBcsr3(a, h);
    const std::vector<std::int64_t> &xadj = a.xadj();
    const std::vector<std::int32_t> &cols = a.blockCols();
    for (std::int64_t s = 0; s < ell.numSlices(); ++s) {
        const std::int64_t width = ell.sliceWidth(s);
        for (std::int64_t lane = 0; lane < h; ++lane) {
            const std::int64_t r = ell.laneRow(s * h + lane);
            const std::int64_t len =
                r >= 0 ? xadj[static_cast<std::size_t>(r) + 1] -
                             xadj[static_cast<std::size_t>(r)]
                       : 0;
            for (std::int64_t j = 0; j < width; ++j) {
                if (j < len) {
                    const std::int64_t b =
                        xadj[static_cast<std::size_t>(r)] + j;
                    EXPECT_EQ(ell.colAt(s, j, lane),
                              cols[static_cast<std::size_t>(b)]);
                    for (int e = 0; e < 9; ++e)
                        EXPECT_EQ(ell.valueAt(s, j, lane, e),
                                  a.blockAt(b)[e])
                            << "row " << r << " slot " << j;
                } else {
                    EXPECT_EQ(ell.colAt(s, j, lane), 0);
                    for (int e = 0; e < 9; ++e)
                        EXPECT_EQ(ell.valueAt(s, j, lane, e), 0.0);
                }
            }
        }
    }
}

TEST(SlicedEll3, FromSymBcsr3MatchesTheFullOperator)
{
    const TetMesh m =
        buildKuhnLattice(Aabb{{0, 0, 0}, {1, 1, 1}}, 3, 3, 3);
    const UniformModel model(Aabb{{0, 0, 0}, {1, 1, 1}}, 1.0, 1.0);
    const Bcsr3Matrix a =
        quake::sparse::assembleStiffness(m, model, 0.25);
    const SymBcsr3Matrix sym = SymBcsr3Matrix::fromBcsr3(a, 1e-9);
    const SlicedEll3Matrix ell = SlicedEll3Matrix::fromSymBcsr3(sym);
    ell.validate();
    EXPECT_EQ(ell.numCoveredRows(), a.numBlockRows());

    const std::vector<double> x = randomVector(a.numRows(), 37);
    const std::vector<double> ref = a.multiply(x);
    const std::vector<double> y = ell.multiply(x);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-9 * (1.0 + std::fabs(ref[i])))
            << "dof " << i;
}

TEST(SlicedEll3, FusedStepBitwiseEqualsMultiplyPlusTriad)
{
    const TetMesh m =
        buildKuhnLattice(Aabb{{0, 0, 0}, {1, 1, 1}}, 3, 3, 3);
    const UniformModel model(Aabb{{0, 0, 0}, {1, 1, 1}}, 1.0, 1.0);
    const Bcsr3Matrix a =
        quake::sparse::assembleStiffness(m, model, 0.25);
    const SlicedEll3Matrix ell = SlicedEll3Matrix::fromBcsr3(a);
    const std::int64_t n = a.numRows();

    const std::vector<double> u = randomVector(n, 41);
    const std::vector<double> up0 = randomVector(n, 43);
    const std::vector<double> f = randomVector(n, 47);
    std::vector<double> invMass(static_cast<std::size_t>(n), 1.0);
    const double dt = 1e-3;

    quake::sparse::StepUpdate su;
    su.u = u.data();
    su.f = f.data();
    su.invMass = invMass.data();
    su.dt = dt;
    su.dt2 = dt * dt;
    su.prevCoeff = 1.0;
    su.denom = 1.0;

    const std::vector<double> ku = ell.multiply(u);
    std::vector<double> upRef = up0;
    su.up = upRef.data();
    quake::sparse::StepPartials pRef;
    quake::sparse::applyStepUpdateRange(su, ku.data(), 0, n, pRef);

    std::vector<double> upF = up0;
    su.up = upF.data();
    std::vector<double> scratch(static_cast<std::size_t>(n), 0.0);
    const quake::sparse::StepPartials pF =
        ell.multiplyFusedStep(su, scratch.data());

    EXPECT_EQ(upRef, upF);
    EXPECT_EQ(pRef.peak, pF.peak);
    EXPECT_EQ(pRef.energy, pF.energy);
    // The fused sweep materializes the same ku in the caller scratch.
    EXPECT_EQ(ku, scratch);
}

TEST(SlicedEll3, FusedStepRequiresIdentityRowMap)
{
    const Bcsr3Matrix a = skewedMatrix(6);
    const std::int64_t rows[] = {2, 4}; // a proper subset, not identity
    const SlicedEll3Matrix ell =
        SlicedEll3Matrix::fromBcsr3Rows(a, rows, 2);
    EXPECT_FALSE(ell.identityRowMap());

    quake::sparse::StepUpdate su{};
    std::vector<double> y(static_cast<std::size_t>(a.numRows()), 0.0);
    EXPECT_THROW(ell.multiplyFusedStep(su, y.data()), FatalError);
}

TEST(SlicedEll3, RejectsInvalidSliceHeight)
{
    const Bcsr3Matrix a = skewedMatrix(4);
    EXPECT_THROW(SlicedEll3Matrix::fromBcsr3(a, 0), FatalError);
    EXPECT_THROW(SlicedEll3Matrix::fromBcsr3(
                     a, SlicedEll3Matrix::kMaxSliceHeight + 1),
                 FatalError);
    EXPECT_THROW(SlicedEll3Matrix::fromBcsr3(a).multiply(
                     std::vector<double>(3, 0.0)),
                 FatalError);
}

// ---------------------------------------------------------------------------
// Engine-level backend knob.
// ---------------------------------------------------------------------------

quake::sim::SimulationReport
runBackendSim(quake::sim::SimulationConfig::KernelBackend backend,
              int pes, int threads, bool overlap, bool fused)
{
    quake::sim::SimulationConfig config;
    config.durationSeconds = 1.0;
    config.maxSteps = 12;
    config.sampleInterval = 3;
    config.numPes = pes;
    config.smvpThreads = threads;
    config.overlapSmvp = overlap;
    config.fusedStep = fused;
    config.kernelBackend = backend;
    return quake::sim::runSfSimulation(SfClass::kSf20, config);
}

TEST(SlicedEll3Engine, BitwiseInvariantAcrossExecutionConfigs)
{
    using KB = quake::sim::SimulationConfig::KernelBackend;
    // Distributed ELL backend: threads, exchange mode, and fusion are
    // scheduling-only — the trajectory must be bitwise identical.
    const quake::sim::SimulationReport ref =
        runBackendSim(KB::kSlicedEll3, 3, 1, false, false);
    for (int t : {1, 2, 4})
        for (bool overlap : {false, true})
            for (bool fused : {false, true}) {
                const quake::sim::SimulationReport r =
                    runBackendSim(KB::kSlicedEll3, 3, t, overlap, fused);
                EXPECT_EQ(r.peakDisplacement, ref.peakDisplacement)
                    << t << " threads overlap=" << overlap
                    << " fused=" << fused;
                ASSERT_EQ(r.samples.size(), ref.samples.size());
                for (std::size_t i = 0; i < r.samples.size(); ++i) {
                    EXPECT_EQ(r.samples[i].peakDisplacement,
                              ref.samples[i].peakDisplacement);
                    EXPECT_EQ(r.samples[i].time, ref.samples[i].time);
                }
            }

    // Sequential ELL backend: fused vs unfused bitwise as well.
    const quake::sim::SimulationReport s1 =
        runBackendSim(KB::kSlicedEll3, 1, 1, false, false);
    const quake::sim::SimulationReport s2 =
        runBackendSim(KB::kSlicedEll3, 1, 1, false, true);
    EXPECT_EQ(s1.peakDisplacement, s2.peakDisplacement);

    // Cross-backend: close, but a distinct trajectory is legal.
    const quake::sim::SimulationReport b =
        runBackendSim(KB::kBcsr3, 3, 2, true, true);
    EXPECT_NEAR(b.peakDisplacement, ref.peakDisplacement,
                1e-9 * (1.0 + std::fabs(b.peakDisplacement)));
}

TEST(SlicedEll3Engine, BackendIsPartOfTheFingerprint)
{
    using KB = quake::sim::SimulationConfig::KernelBackend;
    const GeneratedMesh generated = generateSfMesh(SfClass::kSf20);
    const LayeredBasinModel model;
    quake::sim::SimulationConfig config;
    config.durationSeconds = 1.0;
    config.maxSteps = 4;
    config.numPes = 2;

    config.kernelBackend = KB::kBcsr3;
    const quake::sim::SimulationEngine e1 =
        quake::sim::makeSimulationEngine(generated.mesh, model, config);
    config.kernelBackend = KB::kSlicedEll3;
    const quake::sim::SimulationEngine e2 =
        quake::sim::makeSimulationEngine(generated.mesh, model, config);
    EXPECT_NE(e1.fingerprint, e2.fingerprint);

    // Execution-only knobs still do NOT move the fingerprint.
    config.smvpThreads = 4;
    config.overlapSmvp = !config.overlapSmvp;
    config.fusedStep = !config.fusedStep;
    const quake::sim::SimulationEngine e3 =
        quake::sim::makeSimulationEngine(generated.mesh, model, config);
    EXPECT_EQ(e2.fingerprint, e3.fingerprint);
}

} // namespace
