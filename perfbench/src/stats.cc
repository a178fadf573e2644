#include "stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench
{

namespace
{

/**
 * 1-based nearest rank of the p-th percentile of n > 0 samples.  The
 * small slack keeps an exact product such as 99.9% of 10000 from
 * rounding up past its rank.
 */
std::int64_t
nearestRank(std::int64_t n, double p)
{
    const double exact = p * static_cast<double>(n) / 100.0;
    return std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::ceil(exact - 1e-9)), 1, n);
}

} // namespace

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto n = static_cast<std::int64_t>(samples.size());
    return samples[static_cast<std::size_t>(nearestRank(n, p) - 1)];
}

std::int64_t
samplesBeyond(std::int64_t n, double p)
{
    return n > 0 ? n - nearestRank(n, p) : 0;
}

double
highestPercentileWithTail(std::int64_t n, std::int64_t min_beyond)
{
    double best = 0.0;
    for (const double p : {50.0, 90.0, 99.0, 99.9})
        if (samplesBeyond(n, p) >= min_beyond)
            best = p;
    return best;
}

Summary
summarize(const std::vector<double> &samples)
{
    Summary s;
    s.n = static_cast<std::int64_t>(samples.size());
    if (samples.empty())
        return s;
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    s.p50 = percentile(sorted, 50.0);
    s.p90 = percentile(sorted, 90.0);
    s.p99 = percentile(sorted, 99.0);
    s.max = sorted.back();
    for (const double v : sorted)
        s.sum += v;
    return s;
}

CpuJiffies
parseProcStat(const std::string &text)
{
    CpuJiffies out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("cpu ", 0) != 0)
            continue;
        std::istringstream fields(line.substr(4));
        // user nice system idle iowait irq softirq steal [guest ...];
        // guest time is already inside user, so it is not added.
        std::uint64_t v[8] = {};
        int read = 0;
        while (read < 8 && (fields >> v[read]))
            ++read;
        if (read < 4)
            return out;
        for (int i = 0; i < read; ++i)
            out.total += v[i];
        out.steal = read == 8 ? v[7] : 0;
        out.valid = true;
        return out;
    }
    return out;
}

double
stealShare(const CpuJiffies &before, const CpuJiffies &after)
{
    if (!before.valid || !after.valid || after.total <= before.total ||
        after.steal < before.steal)
        return 0.0;
    return static_cast<double>(after.steal - before.steal) /
           static_cast<double>(after.total - before.total);
}

Outcome
classify(bool admitted, bool completed, bool deadline_miss,
         const std::string &error)
{
    if (completed && admitted && !deadline_miss && error.empty())
        return Outcome::kCompleted;
    if (admitted && deadline_miss)
        return Outcome::kDeadlineMiss;
    if (!admitted && !completed && error.rfind("shed:", 0) == 0)
        return Outcome::kShed;
    return Outcome::kError;
}

const char *
outcomeName(Outcome o)
{
    switch (o) {
    case Outcome::kCompleted:
        return "completed";
    case Outcome::kShed:
        return "shed";
    case Outcome::kDeadlineMiss:
        return "deadline-miss";
    case Outcome::kError:
        return "error";
    }
    return "error";
}

Outcome
expectedOutcome(bool carries_impossible_deadline)
{
    return carries_impossible_deadline ? Outcome::kShed
                                       : Outcome::kCompleted;
}

void
Tally::add(bool ok)
{
    ++attempted;
    if (!ok)
        ++failed;
}

double
Tally::failedShare() const
{
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
}

} // namespace perfbench
