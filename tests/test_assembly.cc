/**
 * @file
 * Tests for global FEM assembly: sparsity pattern vs. mesh adjacency,
 * global symmetry, rigid-body null space, mass conservation, the
 * paper's ~1.2 KByte/node memory claim, and K pinned bit for bit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "mesh/generator.h"
#include "parallel/distributor.h"
#include "partition/geometric_bisection.h"
#include "sparse/assembly.h"
#include "sparse/elasticity.h"
#include "verify/generators.h"

namespace
{

using namespace quake::mesh;
using namespace quake::sparse;

TetMesh
lattice(int n)
{
    return buildKuhnLattice(Aabb{{0, 0, 0}, {1, 1, 1}}, n, n, n);
}

UniformModel
unitModel()
{
    return UniformModel(Aabb{{0, 0, 0}, {1, 1, 1}}, 1.0, 1.0);
}

TEST(Pattern, MatchesAdjacencyPlusDiagonal)
{
    const TetMesh m = lattice(2);
    const Bcsr3Matrix k = buildStiffnessPattern(m);
    const NodeAdjacency adj = m.buildNodeAdjacency();
    EXPECT_EQ(k.numBlockRows(), m.numNodes());
    EXPECT_EQ(k.numBlocks(),
              static_cast<std::int64_t>(adj.adjncy.size()) + m.numNodes());
    // Every node pair connected by an edge is in the pattern, plus self.
    for (NodeId i = 0; i < m.numNodes(); ++i) {
        EXPECT_GE(k.findBlock(i, i), 0);
        for (std::int64_t e = adj.xadj[i]; e < adj.xadj[i + 1]; ++e)
            EXPECT_GE(k.findBlock(i, adj.adjncy[e]), 0);
    }
}

TEST(Pattern, RowNonzerosMatchPaperEstimate)
{
    // Paper §2.2: each row of K has on average 14 blocks x 3 = 42 scalar
    // nonzeros.  Kuhn lattices are the same regime (interior nodes see
    // 15 blocks including self); accept a band.
    const TetMesh m = lattice(5);
    const Bcsr3Matrix k = buildStiffnessPattern(m);
    const double blocks_per_row =
        static_cast<double>(k.numBlocks()) /
        static_cast<double>(k.numBlockRows());
    EXPECT_GT(blocks_per_row * 3, 25.0);
    EXPECT_LT(blocks_per_row * 3, 50.0);
}

TEST(Stiffness, RefusesRowWiderThanSlotMap)
{
    // A fan of n slivers around the edge (0, 1): node 0's row holds
    // itself, node 1 and the n + 1 rim nodes, n + 3 blocks in all.
    using quake::verify::InputGen;
    const Bcsr3Matrix widest =
        assembleStiffness(InputGen::sliverMesh(65533, 1e-5), unitModel());
    EXPECT_EQ(widest.xadj()[1], 65536);

    try {
        assembleStiffness(InputGen::sliverMesh(65534, 1e-5), unitModel());
        ADD_FAILURE() << "expected FatalError";
    } catch (const quake::common::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("node 0 has 65537"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Stiffness, GlobalSymmetry)
{
    const TetMesh m = lattice(2);
    const Bcsr3Matrix k = assembleStiffness(m, unitModel());
    EXPECT_TRUE(k.toCsr().isSymmetric(1e-10));
}

TEST(Stiffness, TranslationNullSpace)
{
    const TetMesh m = lattice(2);
    const Bcsr3Matrix k = assembleStiffness(m, unitModel());
    for (int axis = 0; axis < 3; ++axis) {
        std::vector<double> u(static_cast<std::size_t>(k.numRows()), 0.0);
        for (std::int64_t i = axis; i < k.numRows(); i += 3)
            u[i] = 1.0;
        const std::vector<double> y = k.multiply(u);
        for (double v : y)
            EXPECT_NEAR(v, 0.0, 1e-9);
    }
}

TEST(Stiffness, GlobalRotationNullSpace)
{
    const TetMesh m = lattice(2);
    const Bcsr3Matrix k = assembleStiffness(m, unitModel());
    const Vec3 omega{0.2, 0.5, -0.3};
    std::vector<double> u(static_cast<std::size_t>(k.numRows()));
    for (NodeId i = 0; i < m.numNodes(); ++i) {
        const Vec3 r = omega.cross(m.node(i));
        u[3 * i + 0] = r.x;
        u[3 * i + 1] = r.y;
        u[3 * i + 2] = r.z;
    }
    const std::vector<double> y = k.multiply(u);
    for (double v : y)
        EXPECT_NEAR(v, 0.0, 1e-8);
}

TEST(Stiffness, PositiveSemidefiniteOnSamples)
{
    const TetMesh m = lattice(2);
    const Bcsr3Matrix k = assembleStiffness(m, unitModel());
    quake::common::SplitMix64 rng(2024);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<double> u(static_cast<std::size_t>(k.numRows()));
        for (double &v : u)
            v = rng.uniform(-1, 1);
        const std::vector<double> y = k.multiply(u);
        double quad = 0;
        for (std::size_t i = 0; i < u.size(); ++i)
            quad += u[i] * y[i];
        EXPECT_GE(quad, -1e-9);
    }
}

TEST(Stiffness, StiffnessTracksMaterial)
{
    // Same mesh, 2x the shear speed => 4x mu => 4x every entry.
    const TetMesh m = lattice(2);
    const Aabb box{{0, 0, 0}, {1, 1, 1}};
    const Bcsr3Matrix k1 =
        assembleStiffness(m, UniformModel(box, 1.0, 1.0));
    const Bcsr3Matrix k2 =
        assembleStiffness(m, UniformModel(box, 2.0, 1.0));
    const double *b1 = k1.blockAt(0);
    const double *b2 = k2.blockAt(0);
    for (int i = 0; i < 9; ++i)
        EXPECT_NEAR(b2[i], 4.0 * b1[i], 1e-9 * std::fabs(b1[i]) + 1e-12);
}

TEST(LumpedMass, ConservesTotalMass)
{
    const TetMesh m = lattice(3);
    const double rho = 2.2;
    const UniformModel model(Aabb{{0, 0, 0}, {1, 1, 1}}, 1.0, rho);
    const std::vector<double> mass = assembleLumpedMass(m, model);
    double total = 0;
    for (std::size_t i = 0; i < mass.size(); i += 3)
        total += mass[i]; // one DOF per node carries the nodal mass
    EXPECT_NEAR(total, rho * 1.0, 1e-9);
}

TEST(LumpedMass, AllPositive)
{
    const TetMesh m = lattice(2);
    const std::vector<double> mass = assembleLumpedMass(m, unitModel());
    EXPECT_EQ(mass.size(), static_cast<std::size_t>(3 * m.numNodes()));
    for (double v : mass)
        EXPECT_GT(v, 0.0);
}

TEST(LumpedMass, ThreeDofsShareNodalMass)
{
    const TetMesh m = lattice(2);
    const std::vector<double> mass = assembleLumpedMass(m, unitModel());
    for (std::size_t i = 0; i < mass.size(); i += 3) {
        EXPECT_DOUBLE_EQ(mass[i], mass[i + 1]);
        EXPECT_DOUBLE_EQ(mass[i], mass[i + 2]);
    }
}

TEST(BytesPerNode, MatchesPaperBallpark)
{
    // Paper §2.1: ~1.2 KByte per node at runtime.  Count the stiffness
    // (values + indices) plus the handful of state vectors the explicit
    // stepper carries (u, u_prev, Ku, f, M = 5 vectors of 3n doubles).
    const GeneratedMesh g =
        generateSfMesh(SfClass::kSf20);
    const LayeredBasinModel model;
    const Bcsr3Matrix k = assembleStiffness(g.mesh, model);
    const double bytes = bytesPerNode(k, 5);
    EXPECT_GT(bytes, 700.0);
    EXPECT_LT(bytes, 2000.0);
}

/** Byte-wise FNV-1a over K's structure and values. */
std::uint64_t
stiffnessFingerprint(const Bcsr3Matrix &k)
{
    quake::common::Fnv1aHasher h;
    h.vec(k.xadj()).vec(k.blockCols());
    if (k.numBlocks() > 0)
        h.bytes(k.blockAt(0),
                static_cast<std::size_t>(9 * k.numBlocks()) * sizeof(double));
    return h.digest();
}

/** K of `m` under a uniform material over its (padded) bounding box. */
std::uint64_t
uniformFingerprint(const TetMesh &m)
{
    Aabb box = m.bounds();
    box.hi = box.hi + Vec3{1e-6, 1e-6, 1e-6};
    return stiffnessFingerprint(
        assembleStiffness(m, UniformModel(box, 1.0, 2.0)));
}

// K is pinned bit for bit: any change to the pattern, the order in
// which element blocks are summed, or the element kernels shows up
// here.  The meshes are the generator's sf classes, a multi-basin
// model, a mesh with a node no element references (its row holds only
// the diagonal block), the eight sf5 subdomains the distributed engine
// assembles, and the verify generator's adversarial shapes.  The
// constants hold for IEEE-754 double arithmetic without FMA
// contraction; the mesh library and the assembly sources are compiled
// without it in every build tier, QUAKE98_NATIVE included.
TEST(Assembly, StiffnessFingerprintPinned)
{
    const LayeredBasinModel basin;
    const GeneratedMesh sf20 = generateSfMesh(SfClass::kSf20);
    const GeneratedMesh sf10 = generateSfMesh(SfClass::kSf10);
    const GeneratedMesh sf5 = generateSfMesh(SfClass::kSf5);
    EXPECT_EQ(stiffnessFingerprint(assembleStiffness(sf20.mesh, basin)),
              0xdb07efb3fa499cdfULL);
    EXPECT_EQ(stiffnessFingerprint(assembleStiffness(sf10.mesh, basin)),
              0xaf1bd7811aa19ba4ULL);
    EXPECT_EQ(stiffnessFingerprint(assembleStiffness(sf5.mesh, basin)),
              0x0f961c8875409fffULL);

    const MultiBasinModel three = MultiBasinModel::threeBasins();
    MeshSpec multi;
    multi.periodSeconds = 10.0;
    EXPECT_EQ(stiffnessFingerprint(assembleStiffness(
                  generateMesh(three, multi).mesh, three)),
              0xc1f7633bf89fc876ULL);

    TetMesh orphan = lattice(2);
    orphan.addNode({0.5, 0.5, 2.0});
    const Bcsr3Matrix k_orphan = assembleStiffness(orphan, unitModel());
    const std::int64_t last = k_orphan.numBlockRows() - 1;
    EXPECT_EQ(k_orphan.xadj()[last + 1] - k_orphan.xadj()[last], 1);
    EXPECT_EQ(k_orphan.blockCols().back(), last);
    EXPECT_EQ(stiffnessFingerprint(k_orphan), 0xdd4fba94f7b40802ULL);

    const std::uint64_t subdomain_pins[8] = {
        0xebeb2118f797166bULL, 0x6c4cb68bd76b3e6aULL,
        0x9ad904a0280b9590ULL, 0x5d4b854ce3e0b4aeULL,
        0x479e785ed3e9b268ULL, 0x834c58510e34e4f1ULL,
        0x4e61c407df54a65bULL, 0x780b356098ca47feULL};
    const quake::partition::GeometricBisection bisection;
    const quake::parallel::DistributedProblem problem =
        quake::parallel::distribute(sf5.mesh, basin,
                                    bisection.partition(sf5.mesh, 8), 0.25);
    ASSERT_EQ(problem.subdomains.size(), 8u);
    for (std::size_t p = 0; p < 8; ++p)
        EXPECT_EQ(stiffnessFingerprint(problem.subdomains[p].stiffness),
                  subdomain_pins[p])
            << "subdomain " << p;

    using quake::verify::InputGen;
    EXPECT_EQ(uniformFingerprint(InputGen::singleElementMesh()),
              0x2305daf5b07eecc8ULL);
    EXPECT_EQ(uniformFingerprint(InputGen::sliverMesh(7, 1e-4)),
              0xf16dd14fe81b94aeULL);
    EXPECT_EQ(uniformFingerprint(InputGen::disconnectedMesh(5)),
              0x17eddd2414a24a8cULL);
}

} // namespace
