/**
 * @file
 * Graded conforming mesh refinement by longest-edge bisection.
 *
 * This plays the role of the guaranteed-quality Delaunay mesh generation in
 * the Archimedes tool chain (Shewchuk's thesis, paper ref [18]): it turns a
 * coarse conforming tetrahedral mesh into a graded unstructured mesh whose
 * local element size tracks a user-supplied size field h(p).
 *
 * Algorithm.  Repeated passes of Rivara-style longest-edge bisection:
 *  1. Mark the longest edge of every element whose longest edge exceeds
 *     the size field at the element centroid.  Each element is tested
 *     once, when it is created: node positions never move during
 *     refinement, so a verdict never changes.  Split elements are
 *     dropped at the end of each pass, so every pass works on live
 *     elements only.
 *  2. Propagate: any element incident to a marked edge that is not its own
 *     longest edge marks its own longest edge too.  The marked edges form
 *     a worklist; expanding an edge visits its incident elements (found
 *     through per-pass node-to-element lists) and marks their longest
 *     edges.  The result is the least set closed under this rule, so it
 *     does not depend on the order edges are expanded in.
 *  3. Split marked edges longest-first (ties by edge key).  A split
 *     inserts the edge midpoint and bisects *every* incident element, in
 *     ascending element order, which keeps the mesh conforming with no
 *     hanging nodes.  An edge whose incidence list has been invalidated
 *     by an earlier split in the same pass is deferred to the next pass.
 */

#ifndef QUAKE98_MESH_REFINE_H_
#define QUAKE98_MESH_REFINE_H_

#include <cstdint>
#include <functional>

#include "mesh/tet_mesh.h"

namespace quake::mesh
{

/**
 * Target edge length (km) as a function of position.  It must be a pure
 * function of position: the refiner evaluates it once per element, when
 * the element is created, and caches the verdict.
 */
using SizeField = std::function<double(const Vec3 &)>;

/** Controls for the refinement loop. */
struct RefineOptions
{
    /** Hard cap on refinement sweeps; generation stops cleanly at it. */
    int maxPasses = 60;

    /** Hard cap on element count; generation stops cleanly at it. */
    std::int64_t maxElements = 40'000'000;
};

/** What the refiner did (reported by the generator and checked in tests). */
struct RefineReport
{
    int passes = 0;               ///< sweeps executed
    std::int64_t splits = 0;      ///< edge bisections performed
    bool reachedElementCap = false;
    bool reachedPassCap = false;
};

/**
 * Refine `mesh` in place until every element's longest edge is at most
 * h(centroid), subject to the caps in `options`.  The input mesh must be
 * conforming; the output mesh is conforming.
 *
 * @param mesh    Mesh to refine (modified in place).
 * @param h       Target edge-length field; must be strictly positive and
 *                a pure function of position.  It is called once per
 *                element created: the input element count plus twice
 *                `splits`.
 * @param options Pass/element caps.
 * @return        Statistics about the refinement run.
 */
RefineReport refineToSizeField(TetMesh &mesh, const SizeField &h,
                               const RefineOptions &options = {});

} // namespace quake::mesh

#endif // QUAKE98_MESH_REFINE_H_
