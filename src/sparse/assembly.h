/**
 * @file
 * Global finite element assembly: mesh + soil model -> block stiffness
 * matrix K and lumped mass vector M (paper §2.2).  K has one 3x3 block
 * per node pair connected by a mesh edge, self-edges included, so the
 * block sparsity is exactly the node adjacency with the diagonal added.
 */

#ifndef QUAKE98_SPARSE_ASSEMBLY_H_
#define QUAKE98_SPARSE_ASSEMBLY_H_

#include <vector>

#include "mesh/soil_model.h"
#include "mesh/tet_mesh.h"
#include "sparse/bcsr3.h"

namespace quake::sparse
{

/**
 * Build the all-zero block sparsity pattern of K for `mesh`: block (i, j)
 * exists iff i == j or nodes i and j share a mesh edge.
 */
Bcsr3Matrix buildStiffnessPattern(const mesh::TetMesh &mesh);

/**
 * Assemble the global stiffness matrix.  Material at each element is
 * sampled from `model` at the element centroid with the given Poisson
 * ratio.  The result is symmetric positive semidefinite.  A block row
 * wider than 65,536 blocks (a node with more than 65,535 neighbours)
 * is refused with a FatalError naming the node.
 */
Bcsr3Matrix assembleStiffness(const mesh::TetMesh &mesh,
                              const mesh::SoilModel &model,
                              double poisson = 0.25);

/**
 * Assemble the lumped (diagonal) mass vector: one entry per scalar DOF
 * (3 per node), each node receiving rho * V / 4 from every incident
 * element.  All entries are strictly positive for a valid mesh.
 */
std::vector<double> assembleLumpedMass(const mesh::TetMesh &mesh,
                                       const mesh::SoilModel &model);

/**
 * Bytes of runtime storage per mesh node for the core simulation state
 * (the paper §2.1 claims ~1.2 KByte/node): the stiffness blocks and index
 * structure plus `num_vectors` length-3n solution/work vectors.
 */
double bytesPerNode(const Bcsr3Matrix &stiffness, int num_vectors);

} // namespace quake::sparse

#endif // QUAKE98_SPARSE_ASSEMBLY_H_
