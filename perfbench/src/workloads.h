/**
 * @file
 * The three benchmark workloads (sf5-seq, sf5-pe8, service-mix).  Each
 * builds its inputs from the workload seed, times the program from
 * outside around calls into each layer's public functions, checks the
 * program's outputs, and returns every end-to-end metric plus, when a
 * Tracer is given, the per-layer measurements of that pass.
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "tracer.h"

namespace perfbench
{

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 25.0;  ///< length of the timed window
    std::string outDir;     ///< checkpoints and streamed results
};

/** One reported figure. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    std::int64_t samples = 0; ///< timing samples behind it; 0 = not a timing
};

struct WorkloadResult
{
    /** Every end-to-end metric, by name. */
    std::map<std::string, Metric> endToEnd;

    /**
     * Scenario latency and throughput: printed with every run and
     * carried as run.* per-layer metrics, but not gated (METRICS.md).
     */
    std::map<std::string, Metric> reported;

    /** Per-layer values measured in this pass (traced passes only). */
    std::map<std::string, Metric> perLayer;

    /** Host context of the timed window (every pass). */
    double stealShare = 0.0;
    double cpuPerWall = 0.0;

    /** Scenarios and output checks: attempted and failed. */
    Tally tally;

    /** One line per failed check or unexpected outcome. */
    std::vector<std::string> failures;
};

/** The workload names, in the order `--workload all` runs them. */
const std::vector<std::string> &workloadNames();

/**
 * Run one workload.  `tracer` null = untimed-path-free pass; non-null =
 * record spans and run the after-solve probes.  Throws on an unknown
 * workload name.
 */
WorkloadResult runWorkload(const RunConfig &config, Tracer *tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
