/**
 * @file
 * Tests for the multi-tenant scenario service (DESIGN.md §14): the
 * bounded MPMC admission queue, the content-addressed single-flight
 * prefix cache (eviction under a tight byte budget, concurrent
 * hit/miss on one key), the stage-key discipline of ScenarioRequest,
 * and the end-to-end service — including the bitwise
 * service-vs-standalone contract the whole design hangs on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "service/mpmc_queue.h"
#include "service/prefix_cache.h"
#include "service/scenario.h"
#include "service/service.h"

namespace
{

using quake::common::FatalError;
using quake::service::BoundedMpmcQueue;
using quake::service::PrefixCache;
using quake::service::ScenarioRequest;
using quake::service::ScenarioResult;
using quake::service::ScenarioService;
using quake::service::ServiceOptions;
using quake::service::SoilKind;
using quake::service::TenantStats;

// ----------------------------------------------------------- mpmc queue

TEST(MpmcQueue, RejectsZeroCapacity)
{
    EXPECT_THROW(BoundedMpmcQueue<int>(0), FatalError);
}

TEST(MpmcQueue, FifoOrder)
{
    BoundedMpmcQueue<int> q(4);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.push(3));
    int v = 0;
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 2);
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 3);
}

TEST(MpmcQueue, TryPushRespectsCapacity)
{
    BoundedMpmcQueue<int> q(2);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_FALSE(q.tryPush(3));
    int v = 0;
    EXPECT_TRUE(q.pop(v));
    EXPECT_TRUE(q.tryPush(3));
}

TEST(MpmcQueue, CloseRefusesProducersButDrainsConsumers)
{
    BoundedMpmcQueue<int> q(4);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    q.close();
    EXPECT_FALSE(q.push(3));
    EXPECT_FALSE(q.tryPush(3));
    int v = 0;
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 2);
    EXPECT_FALSE(q.pop(v)); // closed AND drained
}

TEST(MpmcQueue, CloseWakesBlockedProducer)
{
    BoundedMpmcQueue<int> q(1);
    EXPECT_TRUE(q.push(1));
    std::thread producer([&] {
        // Blocks on the full queue until close() wakes it.
        EXPECT_FALSE(q.push(2));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
    producer.join();
}

TEST(MpmcQueue, ConcurrentProducersConsumersDeliverExactlyOnce)
{
    constexpr int kProducers = 4, kConsumers = 3, kPerProducer = 200;
    BoundedMpmcQueue<int> q(8);
    std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
    for (auto &s : seen)
        s.store(0);

    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p)
        threads.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i)
                EXPECT_TRUE(q.push(p * kPerProducer + i));
        });
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c)
        consumers.emplace_back([&] {
            int v = 0;
            while (q.pop(v))
                seen[static_cast<std::size_t>(v)].fetch_add(1);
        });
    for (std::thread &t : threads)
        t.join();
    q.close();
    for (std::thread &t : consumers)
        t.join();
    for (const auto &s : seen)
        EXPECT_EQ(s.load(), 1);
}

// --------------------------------------------------------- prefix cache

/** A cached payload with a visible compute count. */
std::function<std::pair<std::shared_ptr<const int>, std::size_t>()>
makePayload(std::atomic<int> &computes, int value, std::size_t bytes)
{
    return [&computes, value, bytes] {
        computes.fetch_add(1);
        return std::make_pair(std::make_shared<const int>(value), bytes);
    };
}

TEST(PrefixCache, MissThenHitReturnsSameObject)
{
    PrefixCache cache(1024);
    std::atomic<int> computes{0};
    bool hit = true;
    const auto a =
        cache.getOrCompute<int>(1, makePayload(computes, 7, 10), &hit);
    EXPECT_FALSE(hit);
    const auto b =
        cache.getOrCompute<int>(1, makePayload(computes, 8, 10), &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(*b, 7); // the cached value, not the second compute's
    EXPECT_EQ(computes.load(), 1);
    const PrefixCache::Stats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, 10u);
}

TEST(PrefixCache, EvictsLeastRecentlyUsedUnderTightBudget)
{
    PrefixCache cache(130);
    std::atomic<int> computes{0};
    cache.getOrCompute<int>(1, makePayload(computes, 1, 60));
    cache.getOrCompute<int>(2, makePayload(computes, 2, 60));
    // Touch 1 so 2 becomes the LRU tail, then overflow the budget.
    bool hit = false;
    cache.getOrCompute<int>(1, makePayload(computes, 1, 60), &hit);
    EXPECT_TRUE(hit);
    cache.getOrCompute<int>(3, makePayload(computes, 3, 60));

    PrefixCache::Stats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.bytes, 120u);

    // 1 survived (it was MRU), 2 was evicted and recomputes.
    cache.getOrCompute<int>(1, makePayload(computes, 1, 60), &hit);
    EXPECT_TRUE(hit);
    cache.getOrCompute<int>(2, makePayload(computes, 2, 60), &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(computes.load(), 4); // keys 1, 2, 3, and 2 again
}

TEST(PrefixCache, OversizeEntryReturnedButNotRetained)
{
    PrefixCache cache(50);
    std::atomic<int> computes{0};
    const auto v = cache.getOrCompute<int>(
        1, makePayload(computes, 42, 60));
    EXPECT_EQ(*v, 42);
    const PrefixCache::Stats s = cache.stats();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);
    // A second lookup must recompute.
    bool hit = true;
    cache.getOrCompute<int>(1, makePayload(computes, 42, 60), &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(computes.load(), 2);
}

TEST(PrefixCache, ZeroBudgetDisablesCaching)
{
    PrefixCache cache(0);
    std::atomic<int> computes{0};
    for (int i = 0; i < 3; ++i) {
        bool hit = true;
        const auto v = cache.getOrCompute<int>(
            9, makePayload(computes, i, 10), &hit);
        EXPECT_FALSE(hit);
        EXPECT_EQ(*v, i);
    }
    EXPECT_EQ(computes.load(), 3);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(PrefixCache, ConcurrentSameKeyIsSingleFlight)
{
    constexpr int kThreads = 8;
    PrefixCache cache(1024);
    std::atomic<int> computes{0};
    const PrefixCache::ComputeFn slow =
        [&computes]() -> std::pair<std::shared_ptr<const void>,
                                   std::size_t> {
        computes.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return {std::make_shared<const int>(5), 16};
    };

    std::vector<std::shared_ptr<const void>> results(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            results[static_cast<std::size_t>(t)] =
                cache.getOrComputeErased(77, slow);
        });
    for (std::thread &t : threads)
        t.join();

    // One leader computed; every waiter got the same object.
    EXPECT_EQ(computes.load(), 1);
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(results[static_cast<std::size_t>(t)].get(),
                  results[0].get());
    const PrefixCache::Stats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(PrefixCache, ConcurrentDistinctKeysAllCompute)
{
    constexpr int kThreads = 6;
    PrefixCache cache(1024);
    std::atomic<int> computes{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            cache.getOrCompute<int>(
                static_cast<std::uint64_t>(t),
                makePayload(computes, t, 8));
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(computes.load(), kThreads);
    EXPECT_EQ(cache.stats().entries,
              static_cast<std::size_t>(kThreads));
}

TEST(PrefixCache, FailingComputePropagatesAndCachesNothing)
{
    PrefixCache cache(1024);
    const PrefixCache::ComputeFn boom =
        []() -> std::pair<std::shared_ptr<const void>, std::size_t> {
        throw std::runtime_error("assembly failed");
    };
    EXPECT_THROW(cache.getOrComputeErased(5, boom), std::runtime_error);
    EXPECT_EQ(cache.stats().entries, 0u);

    // The key is not poisoned: a later compute succeeds and caches.
    std::atomic<int> computes{0};
    bool hit = true;
    const auto v =
        cache.getOrCompute<int>(5, makePayload(computes, 1, 8), &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(*v, 1);
    EXPECT_EQ(cache.stats().entries, 1u);
}

// ------------------------------------------------------- scenario keys

ScenarioRequest
smallRequest()
{
    ScenarioRequest req;
    req.tenant = "acme";
    req.label = "unit";
    req.maxSteps = 8;
    return req;
}

TEST(ScenarioKeys, StableAcrossCalls)
{
    const ScenarioRequest req = smallRequest();
    EXPECT_EQ(req.meshKey(), req.meshKey());
    EXPECT_EQ(req.partitionKey(), req.partitionKey());
    EXPECT_EQ(req.assemblyKey(), req.assemblyKey());
    EXPECT_EQ(req.scenarioKey(), req.scenarioKey());
}

TEST(ScenarioKeys, StagesAreDomainSeparated)
{
    const ScenarioRequest req = smallRequest();
    EXPECT_NE(req.meshKey(), req.partitionKey());
    EXPECT_NE(req.partitionKey(), req.assemblyKey());
    EXPECT_NE(req.assemblyKey(), req.scenarioKey());
}

TEST(ScenarioKeys, MeshFieldsInvalidateEveryStage)
{
    const ScenarioRequest a = smallRequest();
    ScenarioRequest b = a;
    b.meshSpec.hScale *= 1.01;
    EXPECT_NE(a.meshKey(), b.meshKey());
    EXPECT_NE(a.assemblyKey(), b.assemblyKey());
    EXPECT_NE(a.scenarioKey(), b.scenarioKey());

    ScenarioRequest c = a;
    c.soil = SoilKind::kUniform;
    EXPECT_NE(a.meshKey(), c.meshKey());
}

TEST(ScenarioKeys, NumPesInvalidatesPartitionButNotMesh)
{
    const ScenarioRequest a = smallRequest();
    ScenarioRequest b = a;
    b.numPes = 4;
    EXPECT_EQ(a.meshKey(), b.meshKey());
    EXPECT_NE(a.partitionKey(), b.partitionKey());
    EXPECT_NE(a.assemblyKey(), b.assemblyKey());
}

TEST(ScenarioKeys, PoissonInvalidatesAssemblyButNotPartition)
{
    const ScenarioRequest a = smallRequest();
    ScenarioRequest b = a;
    b.poisson = 0.3;
    EXPECT_EQ(a.meshKey(), b.meshKey());
    EXPECT_EQ(a.partitionKey(), b.partitionKey());
    EXPECT_NE(a.assemblyKey(), b.assemblyKey());
    EXPECT_NE(a.scenarioKey(), b.scenarioKey());
}

TEST(ScenarioKeys, SourceInvalidatesOnlyScenario)
{
    const ScenarioRequest a = smallRequest();
    ScenarioRequest b = a;
    b.wavelet.peakFrequencyHz = 0.4;
    EXPECT_EQ(a.assemblyKey(), b.assemblyKey());
    EXPECT_NE(a.scenarioKey(), b.scenarioKey());

    ScenarioRequest c = a;
    c.hypocenter.x += 1.0;
    EXPECT_EQ(a.assemblyKey(), c.assemblyKey());
    EXPECT_NE(a.scenarioKey(), c.scenarioKey());
}

TEST(ScenarioKeys, ExecutionKnobsDoNotChangeAnyKey)
{
    // Bitwise-invariant knobs must be invisible to every key: the
    // whole point of prefix sharing is that these can differ freely.
    const ScenarioRequest a = smallRequest();
    ScenarioRequest b = a;
    b.fusedStep = false;
    b.topologyHint = "2x2";
    b.faults = true;
    b.faultDropRate = 0.1;
    b.deadlineMs = 500.0;
    EXPECT_EQ(a.meshKey(), b.meshKey());
    EXPECT_EQ(a.partitionKey(), b.partitionKey());
    EXPECT_EQ(a.assemblyKey(), b.assemblyKey());
    EXPECT_EQ(a.scenarioKey(), b.scenarioKey());
}

TEST(ScenarioKeys, KernelBackendChangesScenarioKeyOnly)
{
    const ScenarioRequest a = smallRequest();
    ScenarioRequest b = a;
    b.kernelBackend =
        quake::sim::SimulationConfig::KernelBackend::kSlicedEll3;
    EXPECT_EQ(a.assemblyKey(), b.assemblyKey());
    EXPECT_NE(a.scenarioKey(), b.scenarioKey());
}

TEST(ScenarioRequest, ValidateRejectsBadFields)
{
    ScenarioRequest req = smallRequest();
    req.tenant.clear();
    EXPECT_THROW(req.validate(), FatalError);

    req = smallRequest();
    req.faultDropRate = 1.5;
    EXPECT_THROW(req.validate(), FatalError);

    req = smallRequest();
    req.deadlineMs = -1.0;
    EXPECT_THROW(req.validate(), FatalError);

    req = smallRequest();
    req.soil = SoilKind::kUniform;
    req.uniformVs = 0.0;
    EXPECT_THROW(req.validate(), FatalError);
}

// ------------------------------------------------------ service e2e

ServiceOptions
smallServiceOptions()
{
    ServiceOptions opt;
    opt.executors = 2;
    opt.queueCapacity = 16;
    return opt;
}

TEST(ScenarioService, ServiceMatchesStandaloneBitwise)
{
    const ScenarioRequest req = smallRequest();
    const ScenarioResult solo = ScenarioService::runStandalone(req);
    ASSERT_TRUE(solo.completed);

    ScenarioService svc(smallServiceOptions());
    const ScenarioResult served = svc.submit(req).get();
    ASSERT_TRUE(served.completed);
    EXPECT_EQ(served.engineFingerprint, solo.engineFingerprint);
    EXPECT_EQ(served.stateFingerprint, solo.stateFingerprint);
    EXPECT_EQ(served.report.steps, solo.report.steps);
    EXPECT_EQ(served.report.peakDisplacement,
              solo.report.peakDisplacement);
}

TEST(ScenarioService, RepeatedSpecsShareThePrefix)
{
    ScenarioService svc(smallServiceOptions());
    std::vector<std::future<ScenarioResult>> futures;
    for (int i = 0; i < 4; ++i) {
        ScenarioRequest req = smallRequest();
        req.label = "rep-" + std::to_string(i);
        req.wavelet.peakFrequencyHz = 0.25 + 0.05 * i;
        futures.push_back(svc.submit(std::move(req)));
    }
    std::uint64_t fingerprint0 = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const ScenarioResult r = futures[i].get();
        ASSERT_TRUE(r.completed) << r.error;
        if (i == 0)
            fingerprint0 = r.engineFingerprint;
        // Same prefix, different sources: engine fingerprints differ
        // only through the config, which includes the wavelet.
        if (i > 0) {
            EXPECT_NE(r.engineFingerprint, fingerprint0);
        }
    }
    svc.shutdown();
    const PrefixCache::Stats s = svc.cacheStats();
    // Mesh and assembly each computed once; the other 3 requests hit
    // both stages (single-flight may serialize, order is irrelevant).
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.hits, 6u);
}

TEST(ScenarioService, PerTenantAccountingSplits)
{
    ScenarioService svc(smallServiceOptions());
    std::vector<std::future<ScenarioResult>> futures;
    for (int i = 0; i < 3; ++i) {
        ScenarioRequest req = smallRequest();
        req.tenant = i < 2 ? "alpha" : "beta";
        req.label = "t-" + std::to_string(i);
        futures.push_back(svc.submit(std::move(req)));
    }
    for (auto &f : futures)
        ASSERT_TRUE(f.get().completed);
    svc.shutdown();

    const TenantStats alpha = svc.tenantStats("alpha");
    const TenantStats beta = svc.tenantStats("beta");
    EXPECT_EQ(alpha.submitted, 2u);
    EXPECT_EQ(alpha.completed, 2u);
    EXPECT_EQ(beta.submitted, 1u);
    EXPECT_EQ(beta.completed, 1u);
    EXPECT_EQ(svc.tenantStats("nobody").submitted, 0u);
    EXPECT_EQ(alpha.cacheHits + alpha.cacheMisses, 4u); // 2 stages x 2
}

TEST(ScenarioService, ShedsOnImpossibleDeadline)
{
    // With the Eq. (1) model armed, a 1 ms SLO is below even the
    // 50 ms floor of modelStepDeadline: the request must be shed (or,
    // if it aged in the queue, refused there) — never executed.
    ServiceOptions opt = smallServiceOptions();
    opt.modelMflops = 100.0;
    ScenarioService svc(opt);
    ScenarioRequest req = smallRequest();
    req.deadlineMs = 1.0;
    const ScenarioResult r = svc.submit(req).get();
    EXPECT_FALSE(r.completed);
    EXPECT_FALSE(r.admitted);
    EXPECT_NE(r.error.find("shed"), std::string::npos) << r.error;
    svc.shutdown();
    EXPECT_EQ(svc.tenantStats("acme").shed, 1u);
}

TEST(ScenarioService, GenerousDeadlineWithModelStillAdmits)
{
    ServiceOptions opt = smallServiceOptions();
    opt.modelMflops = 100.0;
    ScenarioService svc(opt);
    ScenarioRequest req = smallRequest();
    req.deadlineMs = 600000.0; // 10 minutes: plenty
    const ScenarioResult r = svc.submit(req).get();
    EXPECT_TRUE(r.admitted);
    EXPECT_TRUE(r.completed) << r.error;
    EXPECT_GT(r.predictedSeconds, 0.0);
}

TEST(ScenarioService, StreamsResultRecordAtomically)
{
    const std::string dir = ::testing::TempDir() + "quake_service_res";
    std::filesystem::create_directories(dir);
    ServiceOptions opt = smallServiceOptions();
    opt.resultDir = dir;
    ScenarioService svc(opt);
    const ScenarioResult r = svc.submit(smallRequest()).get();
    ASSERT_TRUE(r.completed);
    ASSERT_FALSE(r.resultPath.empty());
    std::ifstream in(r.resultPath);
    ASSERT_TRUE(in.good()) << r.resultPath;
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(body.find("\"tenant\": \"acme\""), std::string::npos);
    EXPECT_NE(body.find("\"completed\": true"), std::string::npos);
    EXPECT_NE(body.find("state_fingerprint"), std::string::npos);
}

TEST(ScenarioService, SubmitValidatesBeforeEnqueue)
{
    ScenarioService svc(smallServiceOptions());
    ScenarioRequest bad = smallRequest();
    bad.tenant.clear();
    EXPECT_THROW(svc.submit(bad), FatalError);
}

TEST(ScenarioService, SubmitAfterShutdownThrowsAndTrySubmitRefuses)
{
    ScenarioService svc(smallServiceOptions());
    svc.shutdown();
    EXPECT_THROW(svc.submit(smallRequest()), FatalError);
    std::future<ScenarioResult> out;
    EXPECT_FALSE(svc.trySubmit(smallRequest(), &out));
    EXPECT_EQ(svc.queueRejections(), 1u);
}

TEST(ScenarioService, RejectsBadOptions)
{
    ServiceOptions opt;
    opt.executors = 0;
    EXPECT_THROW(ScenarioService{opt}, FatalError);
    opt = ServiceOptions{};
    opt.queueCapacity = 0;
    EXPECT_THROW(ScenarioService{opt}, FatalError);
    opt = ServiceOptions{};
    opt.admitSlack = 0.0;
    EXPECT_THROW(ScenarioService{opt}, FatalError);
}

TEST(ScenarioService, DestructorDrainsAcceptedRequests)
{
    std::future<ScenarioResult> future;
    {
        ScenarioService svc(smallServiceOptions());
        future = svc.submit(smallRequest());
        // Destruction closes the queue and joins the lanes; the
        // accepted future must still become ready.
    }
    const ScenarioResult r = future.get();
    EXPECT_TRUE(r.completed) << r.error;
}

TEST(ScenarioService, DistributedScenarioMatchesStandalone)
{
    ScenarioRequest req = smallRequest();
    req.numPes = 4;
    req.maxSteps = 6;
    const ScenarioResult solo = ScenarioService::runStandalone(req);
    ASSERT_TRUE(solo.completed);

    ScenarioService svc(smallServiceOptions());
    const ScenarioResult served = svc.submit(req).get();
    ASSERT_TRUE(served.completed) << served.error;
    EXPECT_EQ(served.stateFingerprint, solo.stateFingerprint);
    EXPECT_EQ(served.cacheStagesTotal, 3); // mesh, partition, assembly
}

} // namespace
