#include "sparse/assembly.h"

#include <algorithm>

#include "common/error.h"
#include "sparse/elasticity.h"

namespace quake::sparse
{

namespace
{

/** Widest block row the 16-bit slot map can address. */
constexpr std::size_t kMaxSlotRowBlocks = 65536;

/**
 * Build K's block pattern in one pass over a node -> (element, local
 * vertex) incidence list.  When `slots` is non-null it is filled with
 * 16 entries per element: slots[16 t + 4 a + b] is the offset, within
 * block row v_a, of block (v_a, v_b) of element t, so assembly adds
 * each element block without searching the row.
 */
Bcsr3Matrix
buildPattern(const mesh::TetMesh &mesh, std::vector<std::uint16_t> *slots)
{
    const std::int64_t n = mesh.numNodes();
    const std::vector<mesh::Tet> &tets = mesh.tets();
    QUAKE_EXPECT(tets.size() <= (std::size_t{1} << 30),
                 "mesh has " << tets.size()
                             << " elements; assembly handles at most 2^30");

    if (slots != nullptr)
        slots->assign(16 * tets.size(), 0);
    std::vector<std::int64_t> xadj(static_cast<std::size_t>(n) + 1, 0);
    std::vector<std::int32_t> cols;
    {
        // Incidence by counting sort; entry 4 t + a means node v_a of
        // element t.  Entries of a node come in ascending element order.
        std::vector<std::int64_t> first(static_cast<std::size_t>(n) + 1, 0);
        for (const mesh::Tet &e : tets)
            for (mesh::NodeId v : e.v)
                ++first[v + 1];
        for (std::int64_t i = 0; i < n; ++i)
            first[i + 1] += first[i];
        std::vector<std::uint32_t> incidence(4 * tets.size());
        std::vector<std::int64_t> cursor(first.begin(), first.end() - 1);
        for (std::size_t t = 0; t < tets.size(); ++t)
            for (std::uint32_t a = 0; a < 4; ++a)
                incidence[cursor[tets[t].v[a]]++] =
                    static_cast<std::uint32_t>(4 * t + a);

        // mark[v] == i: v is already a column of row i.  offset[v]: v's
        // position in row i once the row is sorted.
        std::vector<mesh::NodeId> mark(static_cast<std::size_t>(n), -1);
        std::vector<std::uint16_t> offset(static_cast<std::size_t>(n));
        for (std::int64_t i = 0; i < n; ++i) {
            const auto row = static_cast<mesh::NodeId>(i);
            const std::size_t begin = cols.size();
            // Seed the diagonal, so an unreferenced node keeps its row.
            mark[i] = row;
            cols.push_back(row);
            for (std::int64_t k = first[i]; k < first[i + 1]; ++k)
                for (mesh::NodeId v : tets[incidence[k] / 4].v)
                    if (mark[v] != row) {
                        mark[v] = row;
                        cols.push_back(v);
                    }
            std::sort(cols.begin() + begin, cols.end());
            xadj[i + 1] = static_cast<std::int64_t>(cols.size());
            if (slots == nullptr)
                continue;

            const std::size_t width = cols.size() - begin;
            QUAKE_EXPECT(width <= kMaxSlotRowBlocks,
                         "node " << i << " has " << width
                                 << " stiffness blocks in its row; "
                                    "assembly handles at most "
                                 << kMaxSlotRowBlocks);
            for (std::size_t k = begin; k < cols.size(); ++k)
                offset[cols[k]] = static_cast<std::uint16_t>(k - begin);
            for (std::int64_t k = first[i]; k < first[i + 1]; ++k) {
                std::uint16_t *s =
                    &(*slots)[4 * static_cast<std::size_t>(incidence[k])];
                const mesh::Tet &e = tets[incidence[k] / 4];
                for (int b = 0; b < 4; ++b)
                    s[b] = offset[e.v[b]];
            }
        }
    } // The scratch is freed here, before K's values are allocated.
    cols.shrink_to_fit();
    return Bcsr3Matrix(n, std::move(xadj), std::move(cols));
}

} // namespace

Bcsr3Matrix
buildStiffnessPattern(const mesh::TetMesh &mesh)
{
    return buildPattern(mesh, nullptr);
}

Bcsr3Matrix
assembleStiffness(const mesh::TetMesh &mesh, const mesh::SoilModel &model,
                  double poisson)
{
    std::vector<std::uint16_t> slots;
    Bcsr3Matrix k = buildPattern(mesh, &slots);

    // Elements in ascending order, blocks in (i, j) order: every block
    // sums its contributions in the same order as a search-based
    // scatter would, so K is bit-identical to it.
    for (mesh::TetId t = 0; t < mesh.numElements(); ++t) {
        const mesh::Tet &e = mesh.tet(t);
        const mesh::Vec3 &a = mesh.node(e.v[0]);
        const mesh::Vec3 &b = mesh.node(e.v[1]);
        const mesh::Vec3 &c = mesh.node(e.v[2]);
        const mesh::Vec3 &d = mesh.node(e.v[3]);

        const mesh::Vec3 centroid = mesh::tetCentroid(a, b, c, d);
        const Material mat = Material::fromShearWave(
            model.shearWaveSpeed(centroid), model.density(centroid),
            poisson);

        const ElementStiffness ke = elementStiffness(a, b, c, d, mat);
        const std::uint16_t *s = &slots[16 * static_cast<std::size_t>(t)];
        for (int i = 0; i < 4; ++i) {
            double *row = k.blockAt(k.xadj()[e.v[i]]);
            for (int j = 0; j < 4; ++j) {
                double *dst = row + 9 * s[4 * i + j];
                const Block3 &src = ke.blocks[i][j];
                for (int q = 0; q < 9; ++q)
                    dst[q] += src[q];
            }
        }
    }
    return k;
}

std::vector<double>
assembleLumpedMass(const mesh::TetMesh &mesh, const mesh::SoilModel &model)
{
    std::vector<double> mass(static_cast<std::size_t>(3 * mesh.numNodes()),
                             0.0);
    for (mesh::TetId t = 0; t < mesh.numElements(); ++t) {
        const mesh::Tet &e = mesh.tet(t);
        const mesh::Vec3 centroid = mesh.tetCentroidOf(t);
        const double node_mass = elementLumpedMass(
            mesh.node(e.v[0]), mesh.node(e.v[1]), mesh.node(e.v[2]),
            mesh.node(e.v[3]), model.density(centroid));
        for (mesh::NodeId v : e.v)
            for (int dof = 0; dof < 3; ++dof)
                mass[3 * static_cast<std::size_t>(v) + dof] += node_mass;
    }
    return mass;
}

double
bytesPerNode(const Bcsr3Matrix &stiffness, int num_vectors)
{
    QUAKE_EXPECT(stiffness.numBlockRows() > 0, "empty matrix");
    const double n = static_cast<double>(stiffness.numBlockRows());
    const double value_bytes = 9.0 * 8.0 * stiffness.numBlocks();
    const double index_bytes = 4.0 * stiffness.numBlocks() + 8.0 * (n + 1);
    const double vector_bytes = 8.0 * 3.0 * n * num_vectors;
    return (value_bytes + index_bytes + vector_bytes) / n;
}

} // namespace quake::sparse
