/**
 * @file
 * Self-tests of the benchmark's own arithmetic: percentiles and their
 * sample counts, /proc/stat steal parsing, outcome classification and
 * failed-share accounting, and the span analysis of the tracer.
 * Run with `python3 perfbench/run.py --self-test`.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "stats.h"
#include "tracer.h"

namespace perfbench
{
namespace
{

std::vector<double>
oneTo(int n)
{
    std::vector<double> v(static_cast<std::size_t>(n));
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(Percentile, NearestRankOnKnownInputs)
{
    const std::vector<double> v = oneTo(100);
    EXPECT_EQ(percentile(v, 50.0), 50.0);
    EXPECT_EQ(percentile(v, 90.0), 90.0);
    EXPECT_EQ(percentile(v, 99.0), 99.0);
    EXPECT_EQ(percentile(v, 100.0), 100.0);
    EXPECT_EQ(percentile({7.0}, 50.0), 7.0);
    EXPECT_EQ(percentile({}, 50.0), 0.0);
    // Order of the input does not matter; odd counts take the middle.
    EXPECT_EQ(percentile({5.0, 1.0, 3.0}, 50.0), 3.0);
    EXPECT_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.0);
}

TEST(Percentile, SamplesBeyondCountsTheTail)
{
    EXPECT_EQ(samplesBeyond(100, 90.0), 10);
    EXPECT_EQ(samplesBeyond(99, 90.0), 9);
    EXPECT_EQ(samplesBeyond(1000, 99.0), 10);
    EXPECT_EQ(samplesBeyond(10, 50.0), 5);
    EXPECT_EQ(samplesBeyond(0, 50.0), 0);
}

TEST(Percentile, HighestPercentileWithTenBeyond)
{
    EXPECT_EQ(highestPercentileWithTail(19), 0.0);
    EXPECT_EQ(highestPercentileWithTail(20), 50.0);
    EXPECT_EQ(highestPercentileWithTail(99), 50.0);
    EXPECT_EQ(highestPercentileWithTail(100), 90.0);
    EXPECT_EQ(highestPercentileWithTail(999), 90.0);
    EXPECT_EQ(highestPercentileWithTail(1000), 99.0);
    EXPECT_EQ(highestPercentileWithTail(10000), 99.9);
    EXPECT_EQ(highestPercentileWithTail(10, 5), 50.0);
}

TEST(Percentile, SummaryCarriesCountAndTail)
{
    const Summary s = summarize(oneTo(200));
    EXPECT_EQ(s.n, 200);
    EXPECT_EQ(s.p50, 100.0);
    EXPECT_EQ(s.p90, 180.0);
    EXPECT_EQ(s.p99, 198.0);
    EXPECT_EQ(s.max, 200.0);
    EXPECT_EQ(s.sum, 200.0 * 201.0 / 2.0);
    EXPECT_EQ(summarize({}).n, 0);
}

constexpr const char *kStatBefore =
    "cpu  3177007 0 297240 5542467 4805 0 201170 210263 0 0\n"
    "cpu0 794251 0 74310 1385616 1201 0 50292 52565 0 0\n"
    "intr 1 2 3\n";
constexpr const char *kStatAfter =
    "cpu  3177107 0 297260 5542767 4805 0 201180 210313 0 0\n"
    "cpu0 794276 0 74315 1385691 1201 0 50294 52577 0 0\n";

TEST(ProcStat, ParsesTheAggregateLine)
{
    const CpuJiffies j = parseProcStat(kStatBefore);
    ASSERT_TRUE(j.valid);
    EXPECT_EQ(j.steal, 210263u);
    EXPECT_EQ(j.total, 3177007u + 297240u + 5542467u + 4805u + 201170u +
                           210263u);
}

TEST(ProcStat, StealShareOfADelta)
{
    const CpuJiffies a = parseProcStat(kStatBefore);
    const CpuJiffies b = parseProcStat(kStatAfter);
    // 100 user + 20 system + 300 idle + 10 softirq + 50 steal.
    EXPECT_DOUBLE_EQ(stealShare(a, b), 50.0 / 480.0);
    EXPECT_EQ(stealShare(b, a), 0.0); // counters never run backwards
}

TEST(ProcStat, OldKernelsWithoutStealAndGarbage)
{
    const CpuJiffies old = parseProcStat("cpu  10 0 5 100\n");
    ASSERT_TRUE(old.valid);
    EXPECT_EQ(old.steal, 0u);
    EXPECT_EQ(old.total, 115u);
    EXPECT_FALSE(parseProcStat("").valid);
    EXPECT_FALSE(parseProcStat("cpu0 1 2 3 4 5 6 7 8\n").valid);
    EXPECT_FALSE(parseProcStat("cpu  x y z\n").valid);
    EXPECT_EQ(stealShare(CpuJiffies{}, parseProcStat(kStatAfter)), 0.0);
}

TEST(Outcome, ClassifiesServiceResults)
{
    EXPECT_EQ(classify(true, true, false, ""), Outcome::kCompleted);
    EXPECT_EQ(classify(false, false, false,
                       "shed: model predicts one step alone needs 0.05 s"),
              Outcome::kShed);
    EXPECT_EQ(classify(false, false, false, "shed: queued 0.02 s, past the "
                                            "10 ms deadline"),
              Outcome::kShed);
    EXPECT_EQ(classify(true, false, true, "deadline miss: 1 s elapsed"),
              Outcome::kDeadlineMiss);
    // An escaped exception is not a shed even though nothing ran.
    EXPECT_EQ(classify(false, false, false, "bad_alloc"), Outcome::kError);
    EXPECT_EQ(classify(false, false, false, ""), Outcome::kError);
    // A completed run whose result record failed to stream is a failure.
    EXPECT_EQ(classify(true, true, false, "write failed"), Outcome::kError);
}

TEST(Outcome, ShedIsExpectedOnlyForImpossibleDeadlines)
{
    EXPECT_EQ(expectedOutcome(true), Outcome::kShed);
    EXPECT_EQ(expectedOutcome(false), Outcome::kCompleted);
    EXPECT_NE(classify(false, false, false, "shed: queued"),
              expectedOutcome(false));
}

TEST(Tally, FailedShareCountsEveryAttempt)
{
    Tally t;
    EXPECT_EQ(t.failedShare(), 0.0);
    for (int i = 0; i < 7; ++i)
        t.add(true);
    t.add(false);
    const Outcome shed = classify(false, false, false, "shed: queued");
    t.add(shed == expectedOutcome(true));  // shed as designed: not failed
    t.add(shed == expectedOutcome(false)); // shed unexpectedly: failed
    EXPECT_EQ(t.attempted, 10);
    EXPECT_EQ(t.failed, 2);
    EXPECT_DOUBLE_EQ(t.failedShare(), 0.2);
}

TEST(Tracer, CoverageUnionClipsAndMerges)
{
    // [0,10) covered by [2,4) and [3,6) (overlap) and [8,12) (clipped).
    EXPECT_DOUBLE_EQ(coveredSeconds({{2'000'000'000, 4'000'000'000},
                                     {3'000'000'000, 6'000'000'000},
                                     {8'000'000'000, 12'000'000'000}},
                                    0, 10'000'000'000),
                     6.0);
    EXPECT_EQ(coveredSeconds({}, 0, 10), 0.0);
}

TEST(Tracer, SelfTimeAndCoverageFromRecords)
{
    auto span = [](const char *layer, const char *name, std::int64_t id,
                   std::int64_t parent, std::int64_t a, std::int64_t b) {
        SpanRecord s;
        s.layer = layer;
        s.name = name;
        s.id = id;
        s.parent = parent;
        s.startNs = a * 1'000'000'000;
        s.endNs = b * 1'000'000'000;
        return s;
    };
    const std::vector<SpanRecord> spans = {
        span("bench", "setup", 1, 0, 0, 10),
        span("mesh", "generateMesh", 2, 1, 0, 6),
        span("sparse", "assembleStiffness", 3, 1, 6, 9),
        span("bench", "window", 4, 0, 10, 20),
        span("bench", "solve", 5, 4, 10, 20),
        span("quake", "step", 6, 5, 10, 18),
    };
    const auto self = selfSecondsByLayer(spans);
    EXPECT_DOUBLE_EQ(self.at("bench"), 1.0 + 0.0 + 2.0);
    EXPECT_DOUBLE_EQ(self.at("mesh"), 6.0);
    EXPECT_DOUBLE_EQ(self.at("sparse"), 3.0);
    EXPECT_DOUBLE_EQ(self.at("quake"), 8.0);
    EXPECT_EQ(layerCoverage(spans, "setup"), std::make_pair(9.0, 10.0));
    // The bench-layer solve span does not count; the step under it does.
    EXPECT_EQ(layerCoverage(spans, "window"), std::make_pair(8.0, 10.0));
}

TEST(Tracer, ScopesNestPerThreadAndShareGroups)
{
    Tracer t;
    {
        Tracer::Scope outer(&t, "bench", "solve", t.newGroup());
        Tracer::Scope inner(&t, "quake", "step");
        const std::int64_t parent = outer.id();
        std::thread other([&] {
            Tracer::Scope remote(&t, "service", "request", 0, parent);
        });
        other.join();
    }
    Tracer::Scope none(nullptr, "quake", "step");
    EXPECT_EQ(none.id(), 0);
    const std::vector<SpanRecord> spans = t.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_EQ(spans[2].parent, spans[0].id);
    EXPECT_EQ(spans[1].group, spans[0].group);
    EXPECT_EQ(spans[2].group, spans[0].group);
    EXPECT_NE(spans[2].tid, spans[0].tid);
    for (const SpanRecord &s : spans)
        EXPECT_LE(s.startNs, s.endNs);
}

} // namespace
} // namespace perfbench
