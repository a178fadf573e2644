#include "mesh/refine.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/error.h"

namespace quake::mesh
{

namespace
{

/** Canonical 64-bit key for an undirected edge (a, b). */
std::uint64_t
edgeKey(NodeId a, NodeId b)
{
    const std::uint32_t lo = static_cast<std::uint32_t>(std::min(a, b));
    const std::uint32_t hi = static_cast<std::uint32_t>(std::max(a, b));
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/** Longest edge of a tet given current node positions. */
struct LongestEdge
{
    std::uint64_t key;
    double len2;
};

LongestEdge
longestEdgeOf(const Tet &t, const std::vector<Vec3> &nodes)
{
    LongestEdge best{0, -1.0};
    for (const auto &e : kTetEdges) {
        const NodeId a = t.v[e[0]];
        const NodeId b = t.v[e[1]];
        const double len2 = (nodes[b] - nodes[a]).norm2();
        if (len2 > best.len2)
            best = LongestEdge{edgeKey(a, b), len2};
    }
    return best;
}

bool
hasNode(const Tet &t, NodeId n)
{
    return t.v[0] == n || t.v[1] == n || t.v[2] == n || t.v[3] == n;
}

/** A live element with its cached longest edge and size-field verdict. */
struct Element
{
    Tet tet;
    std::uint64_t longest; ///< edgeKey of the longest edge
    bool oversized;        ///< longest edge exceeds h(centroid)
};

/** A marked edge and its slice of the pass's flat incidence array. */
struct MarkedEdge
{
    double len2;
    std::uint64_t key;
    std::int32_t incBegin = 0;
    std::int32_t incEnd = 0;
};

} // namespace

RefineReport
refineToSizeField(TetMesh &mesh, const SizeField &h,
                  const RefineOptions &options)
{
    RefineReport report;

    // Working copy of the live elements; nodes are appended directly to
    // the mesh as midpoints are created.  Node positions never move, so
    // each element's longest edge and size-field verdict are computed
    // once, when the element is created.
    const std::vector<Vec3> &nodes = mesh.nodes();
    std::vector<MarkedEdge> marked;
    std::unordered_set<std::uint64_t> is_marked;
    auto element = [&](const Tet &t) {
        const Vec3 c = tetCentroid(nodes[t.v[0]], nodes[t.v[1]],
                                   nodes[t.v[2]], nodes[t.v[3]]);
        const double target = h(c);
        QUAKE_EXPECT(target > 0.0, "size field must be strictly positive");
        const LongestEdge le = longestEdgeOf(t, nodes);
        return Element{t, le.key, le.len2 > target * target};
    };
    // Mark an edge once.  Its squared length is recomputed from the key;
    // the squares make it bit-identical to the one longestEdgeOf saw,
    // whichever endpoint came first there.
    auto markEdge = [&](std::uint64_t key) {
        const NodeId a = static_cast<NodeId>(key >> 32);
        const NodeId b = static_cast<NodeId>(key & 0xffffffffULL);
        if (is_marked.insert(key).second)
            marked.push_back({(nodes[b] - nodes[a]).norm2(), key});
    };
    std::vector<Element> elems;
    elems.reserve(mesh.tets().size());
    for (const Tet &t : mesh.tets())
        elems.push_back(element(t));
    std::int64_t alive_count = static_cast<std::int64_t>(elems.size());

    std::vector<char> alive; // pre-pass elements not yet split this pass
    std::vector<std::int32_t> node_start; // node -> live tets, CSR
    std::vector<std::int32_t> node_tets;
    std::vector<std::int32_t> incidence;

    for (int pass = 0; pass < options.maxPasses; ++pass) {
        // --- Step 1: mark the longest edge of every oversized element. ---
        marked.clear();
        is_marked.clear();
        for (const Element &e : elems)
            if (e.oversized)
                markEdge(e.longest);
        if (marked.empty())
            break;

        // Node-to-live-tet lists, each ascending in element index.
        node_start.assign(nodes.size() + 1, 0);
        for (const Element &e : elems)
            for (NodeId n : e.tet.v)
                ++node_start[static_cast<std::size_t>(n) + 1];
        for (std::size_t n = 0; n < nodes.size(); ++n)
            node_start[n + 1] += node_start[n];
        node_tets.resize(static_cast<std::size_t>(node_start.back()));
        {
            std::vector<std::int32_t> fill(node_start.begin(),
                                           node_start.end() - 1);
            for (std::size_t ti = 0; ti < elems.size(); ++ti)
                for (NodeId n : elems[ti].tet.v)
                    node_tets[static_cast<std::size_t>(fill[n]++)] =
                        static_cast<std::int32_t>(ti);
        }

        // --- Step 2: Rivara propagation.  Any element that touches a
        // marked edge must also mark its own longest edge, so that
        // elements are (almost) always bisected by their longest edge,
        // which bounds shape degradation.  `marked` doubles as the
        // worklist: each edge is expanded once, and its incident
        // elements (in ascending order) become its incidence list for
        // step 3.  The marked set is the least fixpoint of the rule, so
        // it does not depend on the order edges are expanded in. ---
        incidence.clear();
        for (std::size_t wi = 0; wi < marked.size(); ++wi) {
            const std::uint64_t key = marked[wi].key;
            const NodeId na = static_cast<NodeId>(key >> 32);
            const NodeId nb = static_cast<NodeId>(key & 0xffffffffULL);
            marked[wi].incBegin = static_cast<std::int32_t>(incidence.size());
            for (std::int32_t k = node_start[na]; k < node_start[na + 1];
                 ++k) {
                const std::int32_t ti = node_tets[k];
                if (!hasNode(elems[ti].tet, nb))
                    continue;
                incidence.push_back(ti);
                markEdge(elems[ti].longest);
            }
            marked[wi].incEnd = static_cast<std::int32_t>(incidence.size());
            QUAKE_REQUIRE(marked[wi].incEnd > marked[wi].incBegin,
                          "marked edge has no incident elements");
        }

        // --- Step 3: split longest-first.  A split is atomic across all
        // elements incident to the edge, which preserves conformity; if
        // any incident element already died this pass, the edge is
        // deferred to the next pass. ---
        std::sort(marked.begin(), marked.end(),
                  [](const MarkedEdge &x, const MarkedEdge &y) {
                      return x.len2 > y.len2 ||
                             (x.len2 == y.len2 && x.key < y.key);
                  });

        alive.assign(elems.size(), 1);
        for (const MarkedEdge &edge : marked) {
            const auto first = incidence.begin() + edge.incBegin;
            const auto last = incidence.begin() + edge.incEnd;
            if (!std::all_of(first, last,
                             [&](std::int32_t ti) { return alive[ti]; }))
                continue; // deferred to the next pass

            const NodeId na = static_cast<NodeId>(edge.key >> 32);
            const NodeId nb = static_cast<NodeId>(edge.key & 0xffffffffULL);
            const NodeId mid =
                mesh.addNode((mesh.node(na) + mesh.node(nb)) * 0.5);

            for (auto it = first; it != last; ++it) {
                const std::int32_t ti = *it;
                Tet child_a = elems[ti].tet; // endpoint a + midpoint
                Tet child_b = elems[ti].tet; // endpoint b + midpoint
                for (int k = 0; k < 4; ++k) {
                    if (child_a.v[k] == nb)
                        child_a.v[k] = mid;
                    if (child_b.v[k] == na)
                        child_b.v[k] = mid;
                }
                alive[ti] = 0;
                elems.push_back(element(child_a));
                elems.push_back(element(child_b));
                ++alive_count;
                ++report.splits;
            }
            if (alive_count >= options.maxElements) {
                report.reachedElementCap = true;
                break;
            }
        }

        // Drop the split elements.  Survivors keep their order and the
        // children follow in creation order, so element order is the
        // same as if dead elements were kept in place and skipped.
        std::size_t kept = 0;
        for (std::size_t ti = 0; ti < elems.size(); ++ti)
            if (ti >= alive.size() || alive[ti])
                elems[kept++] = elems[ti];
        elems.resize(kept);

        ++report.passes;
        if (report.reachedElementCap)
            break;
        if (pass + 1 == options.maxPasses)
            report.reachedPassCap = true;
    }

    std::vector<Tet> live;
    live.reserve(elems.size());
    for (const Element &e : elems)
        live.push_back(e.tet);
    mesh.assignTets(std::move(live));
    return report;
}

} // namespace quake::mesh
