// Cross-request proxy coalescing: N concurrent identical queries compute
// each proxy exactly once; different keys never coalesce; a cancelled
// leader hands its flight to a live waiter instead of failing it; and
// coalescing on vs off is bit-identical (it changes cost, never answers).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/service.h"
#include "transfer/proxy_flight.h"

namespace tps {
namespace serve {
namespace {

// --- ProxyFlightGroup unit tests (deterministic via latches) ----------------

ProxyCacheKey Key(uint64_t fingerprint, const std::string& model) {
  ProxyCacheKey key;
  key.dataset_fingerprint = fingerprint;
  key.model = model;
  key.scorer = "leep";
  return key;
}

TEST(ProxyFlightGroupTest, SingleCallerComputesDirectly) {
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  auto result = group.ComputeShared(
      Key(1, "m"), /*poll_cancel=*/nullptr, /*lookup=*/nullptr,
      []() -> StatusOr<double> { return 3.5; });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 3.5);
  EXPECT_EQ(group.leaders(), 1u);
  EXPECT_EQ(group.waiters(), 0u);
  EXPECT_EQ(group.computes(), 1u);
  EXPECT_EQ(group.handoffs(), 0u);
  EXPECT_EQ(group.InFlight(), 0u);
  EXPECT_EQ(metrics.counter("proxy_flight.computes").value(), 1u);
}

TEST(ProxyFlightGroupTest, ErrorsShareWithWaitersAndDoNotCountAsComputes) {
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  auto result = group.ComputeShared(
      Key(1, "m"), nullptr, nullptr,
      []() -> StatusOr<double> {
        return Status::InvalidArgument("deterministic failure");
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(group.computes(), 0u);
  EXPECT_EQ(group.InFlight(), 0u);
}

TEST(ProxyFlightGroupTest, ConcurrentIdenticalKeysComputeExactlyOnce) {
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  ProxyScoreCache cache(64, &metrics);
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 20;
  std::atomic<uint64_t> compute_calls{0};

  for (size_t round = 0; round < kRounds; ++round) {
    const ProxyCacheKey key = Key(round, "model");
    std::vector<std::thread> threads;
    std::vector<StatusOr<std::vector<double>>> results(
        kThreads, StatusOr<std::vector<double>>(std::vector<double>{}));
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        results[t] = group.GetOrComputeBatch(
            &cache, {key}, /*poll_cancel=*/nullptr,
            [&](const std::vector<size_t>&)
                -> StatusOr<std::vector<double>> {
              compute_calls.fetch_add(1);
              return std::vector<double>{static_cast<double>(round) + 0.25};
            });
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const StatusOr<std::vector<double>>& result : results) {
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(*result,
                std::vector<double>{static_cast<double>(round) + 0.25});
    }
  }
  // The exactly-once guarantee: the leader inserts into the cache before
  // its flight retires, so no interleaving of the 8 threads can compute a
  // key twice.
  EXPECT_EQ(compute_calls.load(), kRounds);
  EXPECT_EQ(group.computes(), kRounds);
  EXPECT_EQ(metrics.counter("proxy_flight.computes").value(), kRounds);
  // Conservation: every arrival either hit the cache before the flight,
  // led a flight, or waited on one.
  EXPECT_EQ(group.leaders() + group.waiters() + cache.hits(),
            kThreads * kRounds);
  EXPECT_EQ(group.InFlight(), 0u);
  EXPECT_EQ(cache.size(), kRounds);
}

TEST(ProxyFlightGroupTest, DistinctKeysNeverCoalesce) {
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  // Serial requests over three distinct keys: every call must lead its own
  // flight and compute; nothing waits.
  for (uint64_t fp : {1u, 2u, 3u}) {
    auto result = group.ComputeShared(
        Key(fp, "m"), nullptr, nullptr,
        [fp]() -> StatusOr<double> { return static_cast<double>(fp); });
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, static_cast<double>(fp));
  }
  EXPECT_EQ(group.leaders(), 3u);
  EXPECT_EQ(group.computes(), 3u);
  EXPECT_EQ(group.waiters(), 0u);
  EXPECT_EQ(group.handoffs(), 0u);
}

TEST(ProxyFlightGroupTest, CancelledLeaderHandsOffToLiveWaiter) {
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  const ProxyCacheKey key = Key(9, "m");

  std::promise<void> leader_in_compute;
  std::promise<void> waiter_joined;
  std::shared_future<void> waiter_joined_future =
      waiter_joined.get_future().share();

  // Leader: blocks inside compute until the waiter has joined, then
  // reports its own cancellation. Only this caller may see the error.
  std::thread leader([&] {
    auto result = group.ComputeShared(
        key, nullptr, nullptr,
        [&]() -> StatusOr<double> {
          leader_in_compute.set_value();
          waiter_joined_future.wait();
          return Status::DeadlineExceeded("leader request expired");
        });
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsDeadlineExceeded());
  });

  leader_in_compute.get_future().wait();
  // Waiter: joins while the leader is mid-compute; after promotion it runs
  // its OWN compute closure and must succeed.
  std::thread waiter([&] {
    auto result = group.ComputeShared(
        key, nullptr, nullptr, [&]() -> StatusOr<double> { return 42.0; });
    EXPECT_TRUE(result.ok());
    if (result.ok()) {
      EXPECT_EQ(*result, 42.0);
    }
  });
  while (group.waiters() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  waiter_joined.set_value();
  leader.join();
  waiter.join();

  EXPECT_EQ(group.handoffs(), 1u);
  EXPECT_EQ(group.computes(), 1u);  // Only the promoted waiter's compute.
  EXPECT_EQ(group.leaders(), 2u);   // Original + promoted.
  EXPECT_EQ(metrics.counter("proxy_flight.handoffs").value(), 1u);
  EXPECT_EQ(group.InFlight(), 0u);
}

TEST(ProxyFlightGroupTest, WaiterWithExpiredDeadlineLeavesFlightIntact) {
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  const ProxyCacheKey key = Key(11, "m");

  std::promise<void> leader_in_compute;
  std::promise<void> waiter_left;
  std::shared_future<void> waiter_left_future =
      waiter_left.get_future().share();

  std::thread leader([&] {
    auto result = group.ComputeShared(
        key, nullptr, nullptr,
        [&]() -> StatusOr<double> {
          leader_in_compute.set_value();
          waiter_left_future.wait();
          return 7.0;
        });
    EXPECT_TRUE(result.ok());
    if (result.ok()) {
      EXPECT_EQ(*result, 7.0);
    }
  });

  leader_in_compute.get_future().wait();
  // Waiter whose own deadline is already expired: it must leave without
  // disturbing the leader's flight.
  auto result = group.ComputeShared(
      key,
      /*poll_cancel=*/
      []() { return Status::DeadlineExceeded("waiter expired"); },
      nullptr, []() -> StatusOr<double> { return -1.0; });
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
  waiter_left.set_value();
  leader.join();

  EXPECT_EQ(group.handoffs(), 0u);
  EXPECT_EQ(group.computes(), 1u);
  EXPECT_EQ(group.InFlight(), 0u);
}

// --- Batched flights ---------------------------------------------------------

// A batch compute that records the positions it was asked for and answers
// each with `base + position`.
BatchCompute Recording(std::vector<std::vector<size_t>>* calls,
                       double base) {
  return [calls, base](const std::vector<size_t>& positions)
             -> StatusOr<std::vector<double>> {
    calls->push_back(positions);
    std::vector<double> scores;
    for (size_t p : positions) scores.push_back(base + static_cast<double>(p));
    return scores;
  };
}

TEST(ProxyFlightGroupTest, FlightRetiringBetweenPrecheckAndJoinCountsOnce) {
  // The schedule that broke the conservation law on multi-core machines,
  // forced on one thread: the late arrival's pre-check misses, then —
  // inside the join hook — another caller leads, computes, inserts and
  // retires the whole flight. The late arrival then leads a fresh flight
  // whose cache re-check hits: it must count as a leader only, and must
  // not compute.
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  ProxyScoreCache cache(8, &metrics);
  const ProxyCacheKey key = Key(21, "model");
  size_t compute_calls = 0;
  auto compute =
      [&](const std::vector<size_t>&) -> StatusOr<std::vector<double>> {
    ++compute_calls;
    return std::vector<double>{0.75};
  };
  bool armed = true;
  group.SetJoinHookForTesting([&] {
    if (!armed) return;
    armed = false;
    auto early = group.GetOrComputeBatch(&cache, {key}, nullptr, compute);
    EXPECT_TRUE(early.ok());
    EXPECT_EQ(group.InFlight(), 0u);  // Retired before the late join.
  });
  auto late = group.GetOrComputeBatch(&cache, {key}, nullptr, compute);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(*late, std::vector<double>{0.75});
  EXPECT_FALSE(armed);
  EXPECT_EQ(compute_calls, 1u);
  EXPECT_EQ(group.computes(), 1u);
  EXPECT_EQ(group.leaders(), 2u);
  EXPECT_EQ(group.waiters(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(group.leaders() + group.waiters() + cache.hits(), 2u);
  EXPECT_EQ(group.InFlight(), 0u);
}

TEST(ProxyFlightGroupTest, BatchMixesCachedInFlightAndNewKeys) {
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  ProxyScoreCache cache(8, &metrics);
  const ProxyCacheKey cached = Key(31, "cached");
  const ProxyCacheKey elsewhere = Key(31, "elsewhere");
  const ProxyCacheKey fresh = Key(31, "fresh");
  cache.Insert(cached, 1.5);

  // Another request leads `elsewhere` and holds it in compute until the
  // batch below has joined it.
  std::promise<void> other_in_compute;
  std::promise<void> batch_joined;
  std::shared_future<void> batch_joined_future =
      batch_joined.get_future().share();
  std::thread other([&] {
    auto result = group.GetOrComputeBatch(
        &cache, {elsewhere}, nullptr,
        [&](const std::vector<size_t>&) -> StatusOr<std::vector<double>> {
          other_in_compute.set_value();
          batch_joined_future.wait();
          return std::vector<double>{2.5};
        });
    EXPECT_TRUE(result.ok());
  });
  other_in_compute.get_future().wait();

  std::vector<std::vector<size_t>> calls;
  std::thread batch([&] {
    auto scores = group.GetOrComputeBatch(&cache, {cached, elsewhere, fresh},
                                          nullptr, Recording(&calls, 10.0));
    ASSERT_TRUE(scores.ok());
    EXPECT_EQ(*scores, (std::vector<double>{1.5, 2.5, 12.0}));
  });
  while (group.waiters() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  batch_joined.set_value();
  other.join();
  batch.join();

  // The batch computed only its new key, in one call, by its position.
  EXPECT_EQ(calls, (std::vector<std::vector<size_t>>{{2}}));
  EXPECT_EQ(group.computes(), 2u);  // `elsewhere` once, `fresh` once.
  EXPECT_EQ(group.leaders(), 2u);
  EXPECT_EQ(group.waiters(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(group.leaders() + group.waiters() + cache.hits(), 4u);
  EXPECT_EQ(cache.Peek(fresh), std::optional<double>(12.0));
  EXPECT_EQ(group.InFlight(), 0u);
}

TEST(ProxyFlightGroupTest, SameKeyTwiceInOneBatchComputesOnce) {
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  ProxyScoreCache cache(8, &metrics);
  const ProxyCacheKey a = Key(41, "a");
  const ProxyCacheKey b = Key(41, "b");
  std::vector<std::vector<size_t>> calls;
  auto scores = group.GetOrComputeBatch(&cache, {a, b, a}, nullptr,
                                        Recording(&calls, 5.0));
  ASSERT_TRUE(scores.ok());
  // The repeat shares its first occurrence's flight and answer.
  EXPECT_EQ(*scores, (std::vector<double>{5.0, 6.0, 5.0}));
  EXPECT_EQ(calls, (std::vector<std::vector<size_t>>{{0, 1}}));
  EXPECT_EQ(group.computes(), 2u);
  EXPECT_EQ(group.leaders(), 2u);
  EXPECT_EQ(group.waiters(), 1u);
  EXPECT_EQ(group.leaders() + group.waiters() + cache.hits(), 3u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(group.InFlight(), 0u);
}

TEST(ProxyFlightGroupTest, CancelledBatchLeaderHandsEachKeyToLiveWaiter) {
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  ProxyScoreCache cache(8, &metrics);
  const std::vector<ProxyCacheKey> keys = {Key(51, "x"), Key(51, "y")};

  std::promise<void> leader_in_compute;
  std::promise<void> waiter_joined;
  std::shared_future<void> waiter_joined_future =
      waiter_joined.get_future().share();
  // Leader: leads both keys, then reports its own cancellation from the
  // batch compute. Only this caller may see the error.
  std::thread leader([&] {
    auto result = group.GetOrComputeBatch(
        &cache, keys, nullptr,
        [&](const std::vector<size_t>&) -> StatusOr<std::vector<double>> {
          leader_in_compute.set_value();
          waiter_joined_future.wait();
          return Status::DeadlineExceeded("leader request expired");
        });
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsDeadlineExceeded());
  });
  leader_in_compute.get_future().wait();

  // Waiter: joins both flights mid-compute; after each abdication it is
  // promoted and computes that key alone with its own closure.
  std::vector<std::vector<size_t>> calls;
  std::thread waiter([&] {
    auto result =
        group.GetOrComputeBatch(&cache, keys, nullptr, Recording(&calls, 7.0));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, (std::vector<double>{7.0, 8.0}));
  });
  while (group.waiters() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  waiter_joined.set_value();
  leader.join();
  waiter.join();

  EXPECT_EQ(calls, (std::vector<std::vector<size_t>>{{0}, {1}}));
  EXPECT_EQ(group.handoffs(), 2u);
  EXPECT_EQ(group.computes(), 2u);  // Only the promoted waiter's computes.
  EXPECT_EQ(group.leaders(), 4u);   // Two original + two promotions.
  EXPECT_EQ(metrics.counter("proxy_flight.handoffs").value(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(group.InFlight(), 0u);
}

TEST(ProxyFlightGroupTest, OverlappingConcurrentWavesComputeEachKeyOnce) {
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  ProxyScoreCache cache(256, &metrics);
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 10;
  constexpr size_t kKeys = 12;
  constexpr size_t kWave = 6;
  std::mutex mu;
  std::vector<size_t> computed_per_key(kRounds * kKeys, 0);

  size_t arrivals = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      // Thread t's wave: kWave keys starting at 2t, wrapping, in an order
      // that alternates direction so waves overlap in both orders.
      std::vector<size_t> ids;
      for (size_t i = 0; i < kWave; ++i) ids.push_back((2 * t + i) % kKeys);
      if (t % 2 == 1) std::reverse(ids.begin(), ids.end());
      arrivals += ids.size();
      threads.emplace_back([&, round, ids] {
        std::vector<ProxyCacheKey> keys;
        for (size_t id : ids) {
          keys.push_back(Key(1000 + round, "m" + std::to_string(id)));
        }
        auto scores = group.GetOrComputeBatch(
            &cache, keys, nullptr,
            [&](const std::vector<size_t>& positions)
                -> StatusOr<std::vector<double>> {
              std::vector<double> out;
              std::lock_guard<std::mutex> lock(mu);
              for (size_t p : positions) {
                computed_per_key[round * kKeys + ids[p]] += 1;
                out.push_back(static_cast<double>(round * kKeys + ids[p]));
              }
              return out;
            });
        ASSERT_TRUE(scores.ok());
        for (size_t i = 0; i < ids.size(); ++i) {
          EXPECT_EQ((*scores)[i], static_cast<double>(round * kKeys + ids[i]));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  // Exactly once per key, and every arrival counted exactly once.
  for (size_t count : computed_per_key) EXPECT_EQ(count, 1u);
  EXPECT_EQ(group.computes(), kRounds * kKeys);
  EXPECT_EQ(group.handoffs(), 0u);
  EXPECT_EQ(group.leaders() + group.waiters() + cache.hits(), arrivals);
  EXPECT_EQ(cache.size(), kRounds * kKeys);
  EXPECT_EQ(group.InFlight(), 0u);
}

// --- Service-level coalescing ----------------------------------------------

class CoalescingServiceTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    artifacts_ = new ServiceArtifacts(
        *ServiceArtifacts::Build(TaskDomain::kNLP));
  }

  static ServiceArtifacts Artifacts() { return *artifacts_; }

  static SelectionRequest Request(const std::string& target) {
    SelectionRequest request;
    request.target = target;
    return request;
  }

  static ServiceArtifacts* artifacts_;
};

ServiceArtifacts* CoalescingServiceTest::artifacts_ = nullptr;

TEST_F(CoalescingServiceTest, StampedeComputesEachProxyExactlyOnce) {
  constexpr int kWorkers = 4;
  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = kWorkers;
  options.metrics = &metrics;

  // Barrier: no worker starts its request until all four hold one, so the
  // four identical queries are genuinely concurrent on a cold cache.
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  options.pre_handle_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    cv.wait(lock, [&] { return arrived >= kWorkers; });
  };

  auto service_or = SelectionService::Create(Artifacts(), options);
  ASSERT_TRUE(service_or.ok());
  auto& service = *service_or;

  std::vector<std::future<SelectionResponse>> futures;
  for (int i = 0; i < kWorkers; ++i) {
    futures.push_back(service->Submit(Request("mnli")));
  }
  std::vector<SelectionResponse> responses;
  for (auto& future : futures) responses.push_back(future.get());

  for (const SelectionResponse& response : responses) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    // Coalesced answers are the leader's answer — identical bits.
    EXPECT_EQ(response.selected_model, responses[0].selected_model);
    EXPECT_EQ(response.selected_accuracy, responses[0].selected_accuracy);
    EXPECT_EQ(response.total_epochs, responses[0].total_epochs);
  }

  // Exactly-once: each unique (target, model, scorer) key was computed one
  // time no matter how the four requests interleaved; the cache holds one
  // entry per key afterwards.
  ASSERT_NE(service->flight_group(), nullptr);
  EXPECT_GT(service->flight_group()->computes(), 0u);
  EXPECT_EQ(service->flight_group()->computes(), service->cache()->size());
  EXPECT_EQ(metrics.counter("proxy_flight.computes").value(),
            service->flight_group()->computes());
  EXPECT_EQ(service->flight_group()->InFlight(), 0u);
}

TEST_F(CoalescingServiceTest, MixedKeyQueriesDoNotCoalesce) {
  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = 0;  // Serial: Handle on this thread.
  options.metrics = &metrics;
  auto service_or = SelectionService::Create(Artifacts(), options);
  ASSERT_TRUE(service_or.ok());
  auto& service = *service_or;

  const SelectionResponse first = service->Handle(Request("mnli"));
  const SelectionResponse second = service->Handle(Request("sst2"));
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();

  ASSERT_NE(service->flight_group(), nullptr);
  // Serial distinct-target queries: every flight had one member; nothing
  // waited, nothing was handed off, and each key computed once.
  EXPECT_EQ(service->flight_group()->waiters(), 0u);
  EXPECT_EQ(service->flight_group()->handoffs(), 0u);
  EXPECT_EQ(service->flight_group()->computes(),
            service->flight_group()->leaders());
  EXPECT_EQ(service->flight_group()->computes(), service->cache()->size());
}

TEST_F(CoalescingServiceTest, CoalescingOnEqualsOffBitForBit) {
  ServiceOptions on;
  on.worker_threads = 0;
  ServiceOptions off = on;
  off.coalesce_proxies = false;

  auto service_on_or = SelectionService::Create(Artifacts(), on);
  auto service_off_or = SelectionService::Create(Artifacts(), off);
  ASSERT_TRUE(service_on_or.ok());
  ASSERT_TRUE(service_off_or.ok());
  EXPECT_EQ((*service_off_or)->flight_group(), nullptr);

  for (const char* target : {"mnli", "sst2", "mnli"}) {
    const SelectionResponse a = (*service_on_or)->Handle(Request(target));
    const SelectionResponse b = (*service_off_or)->Handle(Request(target));
    ASSERT_TRUE(a.status.ok()) << a.status.ToString();
    ASSERT_TRUE(b.status.ok()) << b.status.ToString();
    EXPECT_EQ(a.selected_model, b.selected_model);
    EXPECT_EQ(a.selected_accuracy, b.selected_accuracy);
    EXPECT_EQ(a.training_epochs, b.training_epochs);
    EXPECT_EQ(a.inference_epochs, b.inference_epochs);
    EXPECT_EQ(a.total_epochs, b.total_epochs);
    EXPECT_EQ(a.survivors_per_stage, b.survivors_per_stage);
  }
}

}  // namespace
}  // namespace serve
}  // namespace tps
