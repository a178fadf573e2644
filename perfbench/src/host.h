/**
 * @file
 * Host context recorded with every run: the machine the figures came
 * from and how much of it the run actually got.  Nothing here decides
 * whether a run counts — a run under heavy steal is reported, never
 * dropped or repeated, because the threaded engine's sensitivity to
 * steal is a property of the program.
 */

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>
#include <string>

#include "stats.h"

namespace perfbench
{

struct HostInfo
{
    int logicalCpus = 0;      ///< sysconf(_SC_NPROCESSORS_ONLN)
    int affinityCpus = 0;     ///< CPUs in the sched_getaffinity mask
    std::string affinityMask; ///< e.g. "0-3"
    std::string cpuModel;     ///< /proc/cpuinfo "model name"
};

HostInfo readHostInfo();

/** The aggregate cpu line of /proc/stat now (invalid if unreadable). */
CpuJiffies readProcStat();

/** User + system CPU seconds this process has used so far. */
double processCpuSeconds();

/** Peak resident set of this process in MB (ru_maxrss). */
double peakRssMb();

/**
 * Steal share and CPU-per-wall of one timed window: construct at the
 * window's start, call finish() at its end.
 */
class WindowMeter
{
  public:
    WindowMeter();
    void finish();

    double wallSeconds() const { return wall_; }
    double stealShare() const { return steal_; }
    double cpuPerWall() const { return wall_ > 0 ? cpu_ / wall_ : 0.0; }

  private:
    CpuJiffies jiffies0_;
    double cpu0_ = 0.0;
    std::int64_t t0_ns_ = 0;
    double wall_ = 0.0;
    double cpu_ = 0.0;
    double steal_ = 0.0;
};

/** Monotonic nanoseconds (steady_clock). */
std::int64_t nowNs();

} // namespace perfbench

#endif // PERFBENCH_HOST_H_
