/**
 * @file
 * Tests for the persistent worker pool: every tid runs exactly once per
 * fork/join, the pool is reusable across many epochs (the engine runs
 * thousands of timesteps against one pool), the size-1 pool runs
 * inline without spawning threads, hardwareThreads() respects the
 * process affinity mask, and advisory pinning counts failures instead
 * of aborting (DESIGN.md §13), and a collector may be detached and
 * destroyed before the pool that reported into it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "parallel/topology.h"
#include "parallel/worker_pool.h"
#include "telemetry/collector.h"

namespace
{

using quake::parallel::WorkerPool;

TEST(WorkerPool, RunsEveryTidExactlyOnce)
{
    WorkerPool pool(4);
    ASSERT_EQ(pool.size(), 4);
    std::vector<std::atomic<int>> hits(4);
    for (auto &h : hits)
        h.store(0);
    pool.run([&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, ReusableAcrossManyEpochs)
{
    WorkerPool pool(3);
    std::atomic<int> total{0};
    for (int epoch = 0; epoch < 100; ++epoch)
        pool.run([&](int) { total++; });
    EXPECT_EQ(total.load(), 300);
}

TEST(WorkerPool, SizeOneRunsInlineOnCallerThread)
{
    WorkerPool pool(1);
    EXPECT_EQ(pool.size(), 1);
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id seen;
    pool.run([&](int tid) {
        EXPECT_EQ(tid, 0);
        seen = std::this_thread::get_id();
    });
    EXPECT_EQ(seen, caller);
}

TEST(WorkerPool, DefaultSizeIsPositive)
{
    WorkerPool pool;
    EXPECT_GE(pool.size(), 1);
    EXPECT_GE(WorkerPool::hardwareThreads(), 1);
}

TEST(WorkerPool, HardwareThreadsMatchesAffinityMask)
{
    // hardwareThreads() must report usable concurrency — the CPUs the
    // scheduler will actually grant — not the machine's core count.
    const std::vector<int> cpus = quake::parallel::affinityCpus();
    ASSERT_GE(cpus.size(), 1u);
    EXPECT_EQ(WorkerPool::hardwareThreads(),
              static_cast<int>(cpus.size()));
}

#ifdef __linux__
TEST(WorkerPool, HardwareThreadsRespectsNarrowedMask)
{
    // Regression for the seed's hardware_concurrency() fallback, which
    // over-reported inside cpuset-restricted containers: narrow this
    // thread's affinity to one CPU and hardwareThreads() must follow.
    cpu_set_t original;
    CPU_ZERO(&original);
    ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);

    const std::vector<int> cpus = quake::parallel::affinityCpus();
    ASSERT_GE(cpus.size(), 1u);
    cpu_set_t narrow;
    CPU_ZERO(&narrow);
    CPU_SET(static_cast<std::size_t>(cpus[0]), &narrow);
    ASSERT_EQ(sched_setaffinity(0, sizeof(narrow), &narrow), 0);

    EXPECT_EQ(WorkerPool::hardwareThreads(), 1);
    EXPECT_EQ(quake::parallel::affinityCpus(),
              std::vector<int>{cpus[0]});

    ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
    EXPECT_EQ(WorkerPool::hardwareThreads(),
              static_cast<int>(cpus.size()));
}
#endif

TEST(WorkerPool, PinnedWorkersCountAttemptsAndSucceedOnRealCpus)
{
    // Pin both workers to a CPU the process is allowed on: every
    // attempt must stick, and the pool must work exactly as unpinned.
    const std::vector<int> cpus = quake::parallel::affinityCpus();
    quake::parallel::WorkerPoolOptions opts;
    opts.workerCpus = {{cpus[0]}}; // reused modulo size for both tids
    WorkerPool pool(2, opts);
    std::atomic<int> total{0};
    pool.run([&](int) { total++; });
    EXPECT_EQ(total.load(), 2);
    EXPECT_EQ(pool.pinAttempts(), 2);
    EXPECT_EQ(pool.pinFailures(), 0);
}

TEST(WorkerPool, BogusPinFailsGracefullyAndStillRuns)
{
    // A CPU id far beyond any real machine: the pin must fail, be
    // counted, and leave the pool fully functional (advisory only).
    quake::parallel::WorkerPoolOptions opts;
    opts.workerCpus = {{1 << 20}};
    WorkerPool pool(2, opts);
    std::atomic<int> total{0};
    for (int epoch = 0; epoch < 10; ++epoch)
        pool.run([&](int) { total++; });
    EXPECT_EQ(total.load(), 20);
    EXPECT_EQ(pool.pinAttempts(), 2);
    EXPECT_EQ(pool.pinFailures(), 2);
}

TEST(WorkerPool, SizeOnePoolIgnoresPinning)
{
    // Size-1 pools run inline on the caller's thread, which the pool
    // must not re-pin out from under the caller.
    quake::parallel::WorkerPoolOptions opts;
    opts.workerCpus = {{0}};
    WorkerPool pool(1, opts);
    std::atomic<int> total{0};
    pool.run([&](int tid) {
        EXPECT_EQ(tid, 0);
        total++;
    });
    EXPECT_EQ(total.load(), 1);
    EXPECT_EQ(pool.pinAttempts(), 0);
}

TEST(WorkerPool, PinnedPoolDestructsCleanly)
{
    // Construction joins no dispatch, so destruction must work whether
    // or not the pool ever ran — including with failed pins pending.
    quake::parallel::WorkerPoolOptions opts;
    opts.workerCpus = {{1 << 20}, {0}};
    {
        WorkerPool unused(3, opts);
    }
    {
        WorkerPool used(3, opts);
        std::atomic<int> total{0};
        used.run([&](int) { total++; });
        EXPECT_EQ(total.load(), 3);
    }
}

TEST(WorkerPool, JoinIsABarrier)
{
    // After run() returns, all side effects of all workers are visible.
    WorkerPool pool(4);
    std::vector<int> slots(4, 0);
    for (int round = 1; round <= 10; ++round) {
        pool.run([&](int tid) {
            slots[static_cast<std::size_t>(tid)] = round;
        });
        for (int v : slots)
            EXPECT_EQ(v, round);
    }
}

// Clock for the detach test: counts reads, and separately the reads
// made after the collector that owns it was destroyed.
std::atomic<int> g_clock_reads{0};
std::atomic<bool> g_collector_gone{false};
std::atomic<int> g_reads_after_gone{0};

std::uint64_t
countingClock()
{
    if (g_collector_gone.load())
        g_reads_after_gone.fetch_add(1);
    return static_cast<std::uint64_t>(g_clock_reads.fetch_add(1) + 1);
}

TEST(WorkerPool, CollectorDetachedAndDestroyedBeforePool)
{
    // Regression: a parked worker used to keep the collector pointer it
    // read before waiting and, when woken by the pool's destructor,
    // charged its wait time to a collector that had already been
    // detached and freed.  Four explicit workers give real threads on
    // any host, including one with a single CPU.
    quake::telemetry::CollectorConfig config;
    config.spanCapacity = 16;
    config.now = &countingClock;
    auto collector = std::make_unique<quake::telemetry::Collector>(config);
    auto pool = std::make_unique<WorkerPool>(4);
    pool->setCollector(collector.get());

    std::atomic<int> total{0};
    pool->run([&](int) { total++; });
    EXPECT_EQ(total.load(), 4);

    // run() reads the clock twice; each worker reads it once more, under
    // the pool lock, just before it parks again.  Wait until all four
    // are parked holding the collector pointer.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (g_clock_reads.load() < 2 + 4 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    EXPECT_GE(g_clock_reads.load(), 2 + 4);

    pool->setCollector(nullptr);
    collector.reset();
    g_collector_gone.store(true);
    pool.reset(); // wakes the parked workers for shutdown
    EXPECT_EQ(g_reads_after_gone.load(), 0);
}

} // namespace
