/**
 * @file
 * The benchmark's own arithmetic: percentiles with their sample counts,
 * /proc/stat steal parsing, and the accounting that turns operation
 * outcomes into the attempted/failed figures of the result line.  Pure
 * functions only, so the self-tests can pin them on fixed inputs.
 */

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/**
 * Nearest-rank percentile: the value at 1-based rank ceil(p/100 * n) of
 * the sorted samples.  `p` in (0, 100]; `samples` need not be sorted.
 * Returns 0 for an empty set (callers report the sample count with it).
 */
double percentile(std::vector<double> samples, double p);

/** Samples strictly above the nearest-rank p-th percentile of n. */
std::int64_t samplesBeyond(std::int64_t n, double p);

/**
 * The highest percentile of the ladder 50, 90, 99, 99.9 that leaves at
 * least `min_beyond` samples above it, or 0 when even the median does
 * not (fewer than 2 * min_beyond samples).
 */
double highestPercentileWithTail(std::int64_t n,
                                 std::int64_t min_beyond = 10);

/** A timing summarised as the benchmark reports it. */
struct Summary
{
    std::int64_t n = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
    double sum = 0.0;
};

Summary summarize(const std::vector<double> &samples);

/** Jiffy counters of the aggregate "cpu" line of /proc/stat. */
struct CpuJiffies
{
    /** user + nice + system + idle + iowait + irq + softirq + steal */
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
    bool valid = false;
};

/** Parse the first "cpu " line of a /proc/stat text. */
CpuJiffies parseProcStat(const std::string &text);

/** Steal jiffies over all jiffies between two readings; 0 if unknown. */
double stealShare(const CpuJiffies &before, const CpuJiffies &after);

/** How one scenario request ended. */
enum class Outcome
{
    kCompleted,    ///< ran to its planned steps
    kShed,         ///< refused before execution (queue wait or Eq. (1))
    kDeadlineMiss, ///< admitted, then aborted at its deadline
    kError,        ///< anything else: an exception or a wedged result
};

/**
 * Classify a ScenarioResult from its flags and error text.  The service
 * prefixes the reason of every refusal with "shed:"; an unadmitted
 * result with any other error is an escaped failure, not a shed.
 */
Outcome classify(bool admitted, bool completed, bool deadline_miss,
                 const std::string &error);

const char *outcomeName(Outcome o);

/**
 * The outcome a request is built to have: a request carrying an
 * impossible deadline is expected to be shed; every other is expected
 * to complete.
 */
Outcome expectedOutcome(bool carries_impossible_deadline);

/** Attempted/failed accounting for the result line. */
struct Tally
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;

    /** Count one operation; `ok` false counts it as failed. */
    void add(bool ok);

    /** Failed over attempted; 0 when nothing was attempted. */
    double failedShare() const;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H_
