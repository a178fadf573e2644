/**
 * @file
 * Tests for the Spark98-style kernel suite: all storage formats compute
 * the same product, symmetric storage halves the stored entries, and the
 * T_f measurement harness returns sane numbers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/error.h"
#include "common/rng.h"
#include "mesh/generator.h"
#include "spark/kernels.h"
#include "sparse/bcsr3_sym.h"

namespace
{

using namespace quake::spark;
using namespace quake::mesh;
using quake::common::FatalError;

class SuiteTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        mesh_ = new TetMesh(
            buildKuhnLattice(Aabb{{0, 0, 0}, {1, 1, 1}}, 3, 3, 3));
        model_ = new UniformModel(Aabb{{0, 0, 0}, {1, 1, 1}}, 1.0, 1.0);
        suite_ = new KernelSuite(*mesh_, *model_);
    }

    static void
    TearDownTestSuite()
    {
        delete suite_;
        delete model_;
        delete mesh_;
    }

    static TetMesh *mesh_;
    static UniformModel *model_;
    static KernelSuite *suite_;
};

TetMesh *SuiteTest::mesh_ = nullptr;
UniformModel *SuiteTest::model_ = nullptr;
KernelSuite *SuiteTest::suite_ = nullptr;

TEST_F(SuiteTest, DofMatchesMesh)
{
    EXPECT_EQ(suite_->dof(), 3 * mesh_->numNodes());
}

TEST_F(SuiteTest, KernelNamesDistinct)
{
    EXPECT_NE(kernelName(Kernel::kCsr), kernelName(Kernel::kBcsr3));
    EXPECT_NE(kernelName(Kernel::kCsr), kernelName(Kernel::kSym));
}

TEST_F(SuiteTest, AllKernelsAgree)
{
    std::vector<double> x(static_cast<std::size_t>(suite_->dof()));
    quake::common::SplitMix64 rng(77);
    for (double &v : x)
        v = rng.uniform(-1, 1);

    const std::vector<double> y_csr = suite_->run(Kernel::kCsr, x);
    const std::vector<double> y_bcsr = suite_->run(Kernel::kBcsr3, x);
    const std::vector<double> y_sym = suite_->run(Kernel::kSym, x);
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(y_csr[i], y_bcsr[i], 1e-9);
        EXPECT_NEAR(y_csr[i], y_sym[i], 1e-9);
    }
}

TEST_F(SuiteTest, RunRejectsWrongSize)
{
    EXPECT_THROW(suite_->run(Kernel::kCsr, std::vector<double>(3, 0.0)),
                 FatalError);
}

TEST_F(SuiteTest, SymStorageRoughlyHalves)
{
    const std::int64_t full = suite_->csr().nnz();
    const std::int64_t half = suite_->sym().storedEntries();
    EXPECT_LT(half, full * 6 / 10);
    EXPECT_GT(half, full * 4 / 10);
}

TEST_F(SuiteTest, SymFlopCountMatchesFull)
{
    // Same arithmetic as full CSR on a structurally symmetric matrix
    // with every diagonal entry stored: 2 flops per logical nonzero.
    EXPECT_EQ(suite_->sym().flopsPerMultiply(), 2 * suite_->csr().nnz());
}

TEST_F(SuiteTest, MeasureReturnsSaneTiming)
{
    const KernelTiming t = suite_->measure(Kernel::kBcsr3, 3);
    EXPECT_GT(t.secondsPerSmvp, 0.0);
    EXPECT_EQ(t.flops, 2 * suite_->nnz());
    EXPECT_GT(t.mflops, 1.0);     // any machine manages > 1 MFLOPS
    EXPECT_LT(t.mflops, 100000.0); // and < 100 GFLOPS scalar
    EXPECT_NEAR(t.tf * t.mflops * 1e6, 1.0, 1e-9);
}

TEST_F(SuiteTest, MeasureRejectsZeroReps)
{
    EXPECT_THROW(suite_->measure(Kernel::kCsr, 0), FatalError);
}

TEST_F(SuiteTest, EveryKernelVariantAgreesWithCsr)
{
    std::vector<double> x(static_cast<std::size_t>(suite_->dof()));
    quake::common::SplitMix64 rng(4242);
    for (double &v : x)
        v = rng.uniform(-1, 1);

    const std::vector<double> y_ref = suite_->run(Kernel::kCsr, x);
    for (Kernel k : kAllKernels) {
        const std::vector<double> y = suite_->run(k, x);
        ASSERT_EQ(y.size(), y_ref.size()) << kernelName(k);
        for (std::size_t i = 0; i < y.size(); ++i)
            EXPECT_NEAR(y[i], y_ref[i],
                        1e-9 * (1.0 + std::fabs(y_ref[i])))
                << kernelName(k) << " dof " << i;
    }
}

TEST(KernelEquivalence, AllVariantsAgreeOnGradedSfMesh)
{
    // A graded (non-uniform) mesh: node degrees vary, which exercises
    // the sliced-ELL padding and the symmetric scatter paths harder
    // than a lattice does.
    const GeneratedMesh generated = generateSfMesh(SfClass::kSf20);
    const LayeredBasinModel model;
    const KernelSuite suite(generated.mesh, model);

    std::vector<double> x(static_cast<std::size_t>(suite.dof()));
    quake::common::SplitMix64 rng(90210);
    for (double &v : x)
        v = rng.uniform(-1, 1);

    const std::vector<double> y_ref = suite.run(Kernel::kCsr, x);
    for (Kernel k : kAllKernels) {
        const std::vector<double> y = suite.run(k, x);
        for (std::size_t i = 0; i < y.size(); ++i)
            ASSERT_NEAR(y[i], y_ref[i],
                        1e-9 * (1.0 + std::fabs(y_ref[i])))
                << kernelName(k) << " dof " << i;
    }
}

TEST_F(SuiteTest, AutotunePicksAMeasuredKernel)
{
    const AutotuneResult r = suite_->autotune(2);
    EXPECT_EQ(r.entries.size(), std::size(kAllKernels));
    EXPECT_GT(r.bestTiming.secondsPerSmvp, 0.0);
    bool best_in_entries = false;
    for (const AutotuneEntry &e : r.entries) {
        EXPECT_GT(e.timing.secondsPerSmvp, 0.0);
        EXPECT_GE(e.timing.secondsPerSmvp,
                  r.bestTiming.secondsPerSmvp);
        if (e.kernel == r.best)
            best_in_entries = true;
    }
    EXPECT_TRUE(best_in_entries);
}

// Deterministic fake measurement: the verdict must be a pure function
// of the kernel SET, never of the order the kernels are measured in
// (regression for the missing-warm-up bug, where the first-measured
// kernel paid the cold-start cost alone and could lose unfairly).
TEST(Autotune, VerdictIndependentOfMeasurementOrder)
{
    const auto measure = [](Kernel k, int) {
        KernelTiming t;
        switch (k) {
        case Kernel::kCsr: t.secondsPerSmvp = 5e-6; break;
        case Kernel::kBcsr3: t.secondsPerSmvp = 2e-6; break;
        case Kernel::kSym: t.secondsPerSmvp = 3e-6; break;
        case Kernel::kSlicedEll3: t.secondsPerSmvp = 1e-6; break;
        default: t.secondsPerSmvp = 9e-6; break;
        }
        return t;
    };

    std::vector<Kernel> order = {Kernel::kCsr, Kernel::kBcsr3,
                                 Kernel::kSym, Kernel::kSlicedEll3,
                                 Kernel::kSymBcsr3Simd};
    std::sort(order.begin(), order.end());
    do {
        const AutotuneResult r =
            KernelSuite::selectBest(order, 3, measure);
        EXPECT_EQ(r.best, Kernel::kSlicedEll3);
        EXPECT_DOUBLE_EQ(r.bestTiming.secondsPerSmvp, 1e-6);
        // Entries stay in call order, one per contender.
        ASSERT_EQ(r.entries.size(), order.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            EXPECT_EQ(r.entries[i].kernel, order[i]);
    } while (std::next_permutation(order.begin(), order.end()));
}

TEST(Autotune, ExactTiesBreakByEnumOrderNotMeasurementOrder)
{
    const auto measure = [](Kernel, int) {
        KernelTiming t;
        t.secondsPerSmvp = 4e-6; // everyone identical
        return t;
    };
    const std::vector<Kernel> fwd = {Kernel::kCsr, Kernel::kSlicedEll3};
    const std::vector<Kernel> rev = {Kernel::kSlicedEll3, Kernel::kCsr};
    EXPECT_EQ(KernelSuite::selectBest(fwd, 1, measure).best, Kernel::kCsr);
    EXPECT_EQ(KernelSuite::selectBest(rev, 1, measure).best, Kernel::kCsr);
}

TEST(Autotune, SubsetOverloadWarmsUpEveryContender)
{
    // The real autotune must produce a verdict drawn from the requested
    // subset and measure each contender (warm-up + timed); this is the
    // integration-level check that the subset overload works end to end.
    const TetMesh m =
        buildKuhnLattice(Aabb{{0, 0, 0}, {1, 1, 1}}, 2, 2, 2);
    const UniformModel model(Aabb{{0, 0, 0}, {1, 1, 1}}, 1.0, 1.0);
    KernelSuite suite(m, model);
    const std::vector<Kernel> subset = {Kernel::kBcsr3,
                                        Kernel::kSlicedEll3};
    const AutotuneResult r = suite.autotune(subset, 1);
    ASSERT_EQ(r.entries.size(), 2u);
    EXPECT_TRUE(r.best == Kernel::kBcsr3 ||
                r.best == Kernel::kSlicedEll3);
    for (const AutotuneEntry &e : r.entries)
        EXPECT_GT(e.timing.secondsPerSmvp, 0.0);
}

TEST(Autotune, RejectsEmptyKernelList)
{
    const auto measure = [](Kernel, int) { return KernelTiming{}; };
    EXPECT_THROW(KernelSuite::selectBest({}, 1, measure), FatalError);
}

TEST(SymBcsr3, KnownProduct)
{
    using quake::sparse::Bcsr3Matrix;
    using quake::sparse::Block3;
    using quake::sparse::SymBcsr3Matrix;

    // Two block rows: diagonal blocks D0, D1 and symmetric coupling
    // B on (0,1) / B^T on (1,0).
    Bcsr3Matrix full(2, {0, 2, 4}, {0, 1, 0, 1});
    Block3 d0{}, d1{}, b{}, bt{};
    for (int i = 0; i < 3; ++i) {
        d0[4 * i] = 2.0 + i;
        d1[4 * i] = 5.0 + i;
    }
    // b row-major; bt = b^T.  Off-diagonal within-block entries make
    // the transposed scatter observable.
    b[1] = 1.5;
    b[3] = -0.5;
    b[8] = 2.0;
    bt[3] = 1.5;
    bt[1] = -0.5;
    bt[8] = 2.0;
    full.addToBlock(0, 0, d0);
    full.addToBlock(1, 1, d1);
    full.addToBlock(0, 1, b);
    full.addToBlock(1, 0, bt);

    const SymBcsr3Matrix sym = SymBcsr3Matrix::fromBcsr3(full);
    EXPECT_EQ(sym.storedBlocks(), 3); // 2 diagonal + 1 upper

    std::vector<double> x = {1, 2, 3, 4, 5, 6};
    std::vector<double> y_full(6), y_sym(6);
    full.multiply(x.data(), y_full.data());
    sym.multiply(x.data(), y_sym.data());
    for (int i = 0; i < 6; ++i)
        EXPECT_DOUBLE_EQ(y_sym[i], y_full[i]) << "dof " << i;
}

TEST(SymBcsr3, RejectsAsymmetric)
{
    using quake::sparse::Bcsr3Matrix;
    using quake::sparse::Block3;
    using quake::sparse::SymBcsr3Matrix;

    Bcsr3Matrix full(2, {0, 2, 4}, {0, 1, 0, 1});
    Block3 d{}, b{}, not_bt{};
    d[0] = d[4] = d[8] = 1.0;
    b[1] = 1.0;
    not_bt[3] = 2.0; // should be 1.0 to mirror b
    full.addToBlock(0, 0, d);
    full.addToBlock(1, 1, d);
    full.addToBlock(0, 1, b);
    full.addToBlock(1, 0, not_bt);
    EXPECT_THROW(SymBcsr3Matrix::fromBcsr3(full), FatalError);
}

TEST(SymCsr, RejectsAsymmetric)
{
    using quake::sparse::CsrMatrix;
    using quake::sparse::SymCsrMatrix;
    const CsrMatrix asym(2, 2, {0, 2, 4}, {0, 1, 0, 1}, {1, 7, 6, 3});
    EXPECT_THROW(SymCsrMatrix::fromCsr(asym), FatalError);
}

TEST(SymCsr, KnownProduct)
{
    using quake::sparse::CsrMatrix;
    using quake::sparse::SymCsrMatrix;
    // | 2 1 |
    // | 1 3 |
    const CsrMatrix full(2, 2, {0, 2, 4}, {0, 1, 0, 1}, {2, 1, 1, 3});
    const SymCsrMatrix sym = SymCsrMatrix::fromCsr(full);
    EXPECT_EQ(sym.storedEntries(), 3);
    const std::vector<double> y = sym.multiply({1.0, 2.0});
    EXPECT_DOUBLE_EQ(y[0], 4.0);
    EXPECT_DOUBLE_EQ(y[1], 7.0);
}

} // namespace
