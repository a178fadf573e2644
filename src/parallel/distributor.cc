#include "parallel/distributor.h"

#include <algorithm>

#include "common/error.h"
#include "sparse/assembly.h"

namespace quake::parallel
{

std::int64_t
Subdomain::localNodeOf(mesh::NodeId global_node) const
{
    const auto it = std::lower_bound(globalNodes.begin(), globalNodes.end(),
                                     global_node);
    QUAKE_REQUIRE(it != globalNodes.end() && *it == global_node,
                  "node " << global_node << " is not on PE " << part);
    return it - globalNodes.begin();
}

std::vector<Subdomain>
buildSubdomains(const mesh::TetMesh &mesh,
                const partition::Partition &partition,
                const mesh::SoilModel *model, double poisson)
{
    partition.validate(mesh);
    const int num_parts = partition.numParts;

    std::vector<Subdomain> subdomains(
        static_cast<std::size_t>(num_parts));
    for (int p = 0; p < num_parts; ++p)
        subdomains[p].part = p;

    // Elements per part.
    for (mesh::TetId t = 0; t < mesh.numElements(); ++t)
        subdomains[partition.elementPart[t]].elements.push_back(t);

    // Lowest and highest part touching each node: the lowest assigns
    // ownership, and min != max identifies shared (boundary) nodes.
    std::vector<partition::PartId> min_part(
        static_cast<std::size_t>(mesh.numNodes()), num_parts);
    std::vector<partition::PartId> max_part(
        static_cast<std::size_t>(mesh.numNodes()), -1);
    for (mesh::TetId t = 0; t < mesh.numElements(); ++t) {
        const partition::PartId p = partition.elementPart[t];
        for (mesh::NodeId v : mesh.tet(t).v) {
            min_part[v] = std::min(min_part[v], p);
            max_part[v] = std::max(max_part[v], p);
        }
    }

    // Global -> local node number of the subdomain being built.  Reused
    // across parts: a part's elements read only its own nodes' entries,
    // which are written before they are read.
    std::vector<mesh::NodeId> local_of(
        static_cast<std::size_t>(mesh.numNodes()), -1);

    for (Subdomain &sub : subdomains) {
        // Touched global nodes, sorted and deduplicated.
        sub.globalNodes.reserve(sub.elements.size());
        for (mesh::TetId t : sub.elements)
            for (mesh::NodeId v : mesh.tet(t).v)
                sub.globalNodes.push_back(v);
        std::sort(sub.globalNodes.begin(), sub.globalNodes.end());
        sub.globalNodes.erase(
            std::unique(sub.globalNodes.begin(), sub.globalNodes.end()),
            sub.globalNodes.end());

        // Local mesh: copy geometry, renumber elements.
        sub.localMesh.reserve(
            static_cast<std::int64_t>(sub.globalNodes.size()),
            static_cast<std::int64_t>(sub.elements.size()));
        for (std::size_t i = 0; i < sub.globalNodes.size(); ++i) {
            sub.localMesh.addNode(mesh.node(sub.globalNodes[i]));
            local_of[sub.globalNodes[i]] = static_cast<mesh::NodeId>(i);
        }
        for (mesh::TetId t : sub.elements) {
            const mesh::Tet &e = mesh.tet(t);
            sub.localMesh.addTet(local_of[e.v[0]], local_of[e.v[1]],
                                 local_of[e.v[2]], local_of[e.v[3]]);
        }

        sub.ownsNode.resize(sub.globalNodes.size());
        for (std::size_t i = 0; i < sub.globalNodes.size(); ++i)
            sub.ownsNode[i] = (min_part[sub.globalNodes[i]] == sub.part);

        // Boundary-first row split: a local node is boundary iff some
        // other PE also touches it (it then appears in an exchange).
        for (std::size_t i = 0; i < sub.globalNodes.size(); ++i) {
            const mesh::NodeId g = sub.globalNodes[i];
            if (min_part[g] != max_part[g])
                sub.boundaryRows.push_back(
                    static_cast<std::int64_t>(i));
            else
                sub.interiorRows.push_back(static_cast<std::int64_t>(i));
        }

        if (model != nullptr)
            sub.stiffness =
                sparse::assembleStiffness(sub.localMesh, *model, poisson);
    }
    return subdomains;
}

DistributedProblem
distribute(const mesh::TetMesh &mesh, const mesh::SoilModel &model,
           const partition::Partition &partition, double poisson)
{
    DistributedProblem problem;
    problem.numGlobalNodes = mesh.numNodes();
    problem.partition = partition;
    problem.schedule = CommSchedule::build(mesh, partition);
    problem.subdomains =
        buildSubdomains(mesh, partition, &model, poisson);
    return problem;
}

DistributedProblem
distributeTopology(const mesh::TetMesh &mesh,
                   const partition::Partition &partition)
{
    DistributedProblem problem;
    problem.numGlobalNodes = mesh.numNodes();
    problem.partition = partition;
    problem.schedule = CommSchedule::build(mesh, partition);
    problem.subdomains = buildSubdomains(mesh, partition, nullptr);
    return problem;
}

} // namespace quake::parallel
