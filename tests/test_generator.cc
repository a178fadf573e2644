/**
 * @file
 * Tests for the synthetic San Fernando mesh generator: the Kuhn lattice,
 * class presets, grading toward the basin, jitter safety, determinism,
 * and agreement with the paper's structural statistics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/error.h"
#include "common/fnv.h"
#include "mesh/generator.h"
#include "mesh/soil_model.h"

namespace
{

using namespace quake::mesh;
using quake::common::FatalError;

TEST(KuhnLattice, Counts)
{
    const TetMesh m = buildKuhnLattice(Aabb{{0, 0, 0}, {1, 1, 1}}, 2, 3, 4);
    EXPECT_EQ(m.numNodes(), 3 * 4 * 5);
    EXPECT_EQ(m.numElements(), 2 * 3 * 4 * 6);
}

TEST(KuhnLattice, AllPositiveVolumes)
{
    const TetMesh m = buildKuhnLattice(Aabb{{0, 0, 0}, {2, 1, 1}}, 3, 2, 2);
    m.validate(); // includes the positive-volume check
}

TEST(KuhnLattice, FillsTheBox)
{
    const Aabb box{{0, 0, 0}, {2, 3, 4}};
    const TetMesh m = buildKuhnLattice(box, 2, 2, 2);
    double volume = 0;
    for (TetId t = 0; t < m.numElements(); ++t)
        volume += m.tetVolumeOf(t);
    EXPECT_NEAR(volume, 24.0, 1e-9);
    const Aabb bounds = m.bounds();
    EXPECT_EQ(bounds.lo, box.lo);
    EXPECT_EQ(bounds.hi, box.hi);
}

TEST(KuhnLattice, RejectsBadResolution)
{
    EXPECT_THROW(buildKuhnLattice(Aabb{{0, 0, 0}, {1, 1, 1}}, 0, 1, 1),
                 FatalError);
}

TEST(SfClass, NamesRoundTrip)
{
    for (SfClass cls : {SfClass::kSf20, SfClass::kSf10, SfClass::kSf5,
                        SfClass::kSf2, SfClass::kSf1})
        EXPECT_EQ(sfClassFromName(sfClassName(cls)), cls);
    EXPECT_THROW(sfClassFromName("sf3"), FatalError);
}

TEST(SfClass, PeriodsHalve)
{
    EXPECT_DOUBLE_EQ(sfClassPeriod(SfClass::kSf10), 10.0);
    EXPECT_DOUBLE_EQ(sfClassPeriod(SfClass::kSf5), 5.0);
    EXPECT_DOUBLE_EQ(sfClassPeriod(SfClass::kSf2), 2.0);
    EXPECT_DOUBLE_EQ(sfClassPeriod(SfClass::kSf1), 1.0);
}

TEST(SfClass, PaperNodeCountsMatchFigure2)
{
    EXPECT_EQ(sfClassPaperNodes(SfClass::kSf10), 7'294);
    EXPECT_EQ(sfClassPaperNodes(SfClass::kSf5), 30'169);
    EXPECT_EQ(sfClassPaperNodes(SfClass::kSf2), 378'747);
    EXPECT_EQ(sfClassPaperNodes(SfClass::kSf1), 2'461'694);
}

TEST(MeshSpec, ForClassSetsPeriodAndScale)
{
    const MeshSpec spec = MeshSpec::forClass(SfClass::kSf2, 2.0);
    EXPECT_DOUBLE_EQ(spec.periodSeconds, 2.0);
    EXPECT_DOUBLE_EQ(spec.hScale, 2.0);
}

TEST(Generator, RejectsBadSpec)
{
    const LayeredBasinModel model;
    MeshSpec spec;
    spec.periodSeconds = -1;
    EXPECT_THROW(generateMesh(model, spec), FatalError);
    spec = MeshSpec{};
    spec.pointsPerWavelength = 0;
    EXPECT_THROW(generateMesh(model, spec), FatalError);
    spec = MeshSpec{};
    spec.hScale = 0;
    EXPECT_THROW(generateMesh(model, spec), FatalError);
}

/** Shared fixture: generate sf20 once (a few thousand nodes). */
class Sf20Mesh : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        generated_ = new GeneratedMesh(generateSfMesh(SfClass::kSf20));
    }

    static void
    TearDownTestSuite()
    {
        delete generated_;
        generated_ = nullptr;
    }

    static GeneratedMesh *generated_;
};

GeneratedMesh *Sf20Mesh::generated_ = nullptr;

TEST_F(Sf20Mesh, IsValidAndNonTrivial)
{
    const TetMesh &m = generated_->mesh;
    m.validate();
    EXPECT_GT(m.numNodes(), 500);
    EXPECT_GT(m.numElements(), 2000);
}

TEST_F(Sf20Mesh, AverageDegreeNearPaper)
{
    // Paper: each node has ~13 neighbours on average (sf meshes show
    // 2E/N between 12.3 and 13.6).  Accept a generous structural band.
    const MeshStats s = generated_->mesh.computeStats();
    EXPECT_GT(s.avgDegree, 10.0);
    EXPECT_LT(s.avgDegree, 16.0);
}

TEST_F(Sf20Mesh, ElementToNodeRatioNearPaper)
{
    // Paper Figure 2: elements/nodes is 4.8-5.7 across the sf meshes.
    const TetMesh &m = generated_->mesh;
    const double ratio = static_cast<double>(m.numElements()) /
                         static_cast<double>(m.numNodes());
    EXPECT_GT(ratio, 3.5);
    EXPECT_LT(ratio, 7.0);
}

TEST_F(Sf20Mesh, GradingConcentratesNodesInBasin)
{
    // Node density (per km^3) inside the basin footprint should far
    // exceed the density in distant rock.
    const LayeredBasinModel model;
    const TetMesh &m = generated_->mesh;
    std::int64_t basin = 0, rock = 0;
    for (NodeId i = 0; i < m.numNodes(); ++i) {
        const Vec3 &p = m.node(i);
        if (model.basinDepth(p.x, p.y) > 0.5 && p.z < 3.0)
            ++basin;
        else if (p.z < 3.0 &&
                 (p.x < 10 || p.x > 40 || p.y < 10 || p.y > 40))
            ++rock;
    }
    // The basin footprint is a small fraction of the domain yet should
    // hold a comparable or larger node count than the whole rock rim.
    EXPECT_GT(basin, rock / 4);
    EXPECT_GT(basin, 100);
}

TEST_F(Sf20Mesh, JitterAcceptedForMostNodes)
{
    EXPECT_GT(generated_->jitterAccepted,
              generated_->mesh.numNodes() / 2);
}

TEST_F(Sf20Mesh, FillsTheDomainVolume)
{
    const MeshStats s = generated_->mesh.computeStats();
    EXPECT_NEAR(s.totalVolume, 50.0 * 50.0 * 10.0, 1e-6 * 25000.0);
}

TEST(Generator, DeterministicUnderSeed)
{
    const GeneratedMesh a = generateSfMesh(SfClass::kSf20);
    const GeneratedMesh b = generateSfMesh(SfClass::kSf20);
    ASSERT_EQ(a.mesh.numNodes(), b.mesh.numNodes());
    ASSERT_EQ(a.mesh.numElements(), b.mesh.numElements());
    for (NodeId i = 0; i < a.mesh.numNodes(); ++i)
        EXPECT_EQ(a.mesh.node(i), b.mesh.node(i));
}

TEST(Generator, SeedChangesJitterOnly)
{
    MeshSpec spec = MeshSpec::forClass(SfClass::kSf20);
    const LayeredBasinModel model;
    const GeneratedMesh a = generateMesh(model, spec);
    spec.seed ^= 0xdeadbeefULL;
    const GeneratedMesh b = generateMesh(model, spec);
    // Same topology, different geometry.
    ASSERT_EQ(a.mesh.numNodes(), b.mesh.numNodes());
    ASSERT_EQ(a.mesh.numElements(), b.mesh.numElements());
    bool any_moved = false;
    for (NodeId i = 0; i < a.mesh.numNodes() && !any_moved; ++i)
        any_moved = !(a.mesh.node(i) == b.mesh.node(i));
    EXPECT_TRUE(any_moved);
}

TEST(Generator, HScaleCoarsens)
{
    const GeneratedMesh fine = generateSfMesh(SfClass::kSf20, 1.0);
    const GeneratedMesh coarse = generateSfMesh(SfClass::kSf20, 1.8);
    EXPECT_LT(coarse.mesh.numNodes(), fine.mesh.numNodes());
}

TEST(Generator, PeriodHalvingMultipliesNodes)
{
    // Paper §2.1: halving the period increases nodes by nearly 8x; the
    // coarse end of our class ladder is boundary-limited, so accept a
    // broad factor well above the 3D-scaling floor.
    const GeneratedMesh sf20 = generateSfMesh(SfClass::kSf20);
    const GeneratedMesh sf10 = generateSfMesh(SfClass::kSf10);
    const double growth = static_cast<double>(sf10.mesh.numNodes()) /
                          static_cast<double>(sf20.mesh.numNodes());
    EXPECT_GT(growth, 2.5);
    EXPECT_LT(growth, 12.0);
}

/**
 * Digest of everything refinement and jitter decide: every node
 * coordinate, every tet's vertex array in element order, and the
 * refiner's report.
 */
std::uint64_t
outputFingerprint(const TetMesh &mesh, const RefineReport &report)
{
    quake::common::Fnv1aHasher h;
    h.vec(mesh.nodes()).vec(mesh.tets());
    h.value(report.passes)
        .value(report.splits)
        .value(report.reachedElementCap)
        .value(report.reachedPassCap);
    return h.digest();
}

std::uint64_t
generatedFingerprint(const GeneratedMesh &g)
{
    return outputFingerprint(g.mesh, g.refineReport);
}

std::uint64_t
cappedLatticeFingerprint(const RefineOptions &options)
{
    TetMesh mesh = buildKuhnLattice(Aabb{{0, 0, 0}, {1, 1, 1}}, 1, 1, 1);
    const RefineReport report = refineToSizeField(
        mesh, [](const Vec3 &) { return 0.05; }, options);
    return outputFingerprint(mesh, report);
}

// The generator's output is pinned bit for bit: any change to the
// refiner, the jitter pass or the size field that moves a single node,
// reorders a single element or changes a split count shows up here.
// The constants hold for IEEE-754 double arithmetic without FMA
// contraction (the mesh library is never built with -march=native).
TEST(Generator, OutputFingerprintPinned)
{
    EXPECT_EQ(generatedFingerprint(generateSfMesh(SfClass::kSf20)),
              0x826037b388c2e76eULL);
    EXPECT_EQ(generatedFingerprint(generateSfMesh(SfClass::kSf10)),
              0x4f0365a6c85d935bULL);
    EXPECT_EQ(generatedFingerprint(generateSfMesh(SfClass::kSf5)),
              0xedefa333bf95cbcfULL);
    EXPECT_EQ(generatedFingerprint(generateSfMesh(SfClass::kSf5, 1.3)),
              0x5e4244ccc16e9e68ULL);

    MeshSpec multi;
    multi.periodSeconds = 10.0;
    EXPECT_EQ(generatedFingerprint(
                  generateMesh(MultiBasinModel::threeBasins(), multi)),
              0x5a0fcb3099c2ac9fULL);

    RefineOptions element_cap;
    element_cap.maxElements = 40;
    EXPECT_EQ(cappedLatticeFingerprint(element_cap), 0xf97018d4f4c984dcULL);

    RefineOptions pass_cap;
    pass_cap.maxPasses = 2;
    EXPECT_EQ(cappedLatticeFingerprint(pass_cap), 0x382b69c8e5472f27ULL);
}

} // namespace
