#include "host.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <vector>

namespace perfbench
{

namespace
{

std::string
slurp(const char *path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** "0-3,6" style rendering of a sorted CPU list. */
std::string
cpuRanges(const std::vector<int> &cpus)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < cpus.size();) {
        std::size_t j = i;
        while (j + 1 < cpus.size() && cpus[j + 1] == cpus[j] + 1)
            ++j;
        if (i > 0)
            os << ',';
        os << cpus[i];
        if (j > i)
            os << '-' << cpus[j];
        i = j + 1;
    }
    return os.str();
}

} // namespace

HostInfo
readHostInfo()
{
    HostInfo h;
    h.logicalCpus = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    h.affinityCpus = static_cast<int>(cpus.size());
    h.affinityMask = cpuRanges(cpus);
    std::istringstream info(slurp("/proc/cpuinfo"));
    std::string line;
    while (std::getline(info, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                h.cpuModel = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    return h;
}

CpuJiffies
readProcStat()
{
    return parseProcStat(slurp("/proc/stat"));
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

WindowMeter::WindowMeter()
    : jiffies0_(readProcStat()), cpu0_(processCpuSeconds()),
      t0_ns_(nowNs())
{
}

void
WindowMeter::finish()
{
    wall_ = 1e-9 * static_cast<double>(nowNs() - t0_ns_);
    cpu_ = processCpuSeconds() - cpu0_;
    steal_ = perfbench::stealShare(jiffies0_, readProcStat());
}

} // namespace perfbench
