#include "transfer/score_cache.h"

#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "data/registry.h"
#include "model/paper_zoo.h"
#include "model/zoo.h"
#include "transfer/proxy_scorer.h"

namespace tps {
namespace {

ProxyCacheKey Key(uint64_t fp, const std::string& model,
                  const std::string& scorer = "leep") {
  ProxyCacheKey key;
  key.dataset_fingerprint = fp;
  key.model = model;
  key.scorer = scorer;
  return key;
}

// A batch of one through GetOrComputeBatch, keyed the way coarse recall
// keys a (target, model, scorer) proxy: a cache hit, or `scorer.Score` on
// a miss.
StatusOr<double> GetOrComputeOne(ProxyScoreCache& cache,
                                 const ProxyScorer& scorer,
                                 const PretrainedModel& model,
                                 const Dataset& target) {
  ProxyCacheKey key;
  key.dataset_fingerprint = DatasetFingerprint(target);
  key.model = model.name();
  key.scorer = scorer.name();
  TPS_ASSIGN_OR_RETURN(
      std::vector<double> scores,
      cache.GetOrComputeBatch(
          {key},
          [&](const std::vector<size_t>&) -> StatusOr<std::vector<double>> {
            TPS_ASSIGN_OR_RETURN(double score, scorer.Score(model, target));
            return std::vector<double>{score};
          }));
  return scores[0];
}

TEST(DatasetFingerprintTest, DeterministicAcrossCalls) {
  DatasetRegistry registry = *DatasetRegistry::CreatePaperInventory();
  const Dataset* mnli = *registry.Find("mnli");
  EXPECT_EQ(DatasetFingerprint(*mnli), DatasetFingerprint(*mnli));
  // A second registry instance produces the same dataset, hence the same
  // fingerprint — no pointer identity or ASLR leaks into the key.
  DatasetRegistry again = *DatasetRegistry::CreatePaperInventory();
  EXPECT_EQ(DatasetFingerprint(*mnli),
            DatasetFingerprint(**again.Find("mnli")));
}

TEST(DatasetFingerprintTest, DistinctDatasetsDistinctFingerprints) {
  DatasetRegistry registry = *DatasetRegistry::CreatePaperInventory();
  const Dataset* mnli = *registry.Find("mnli");
  const Dataset* boolq = *registry.Find("boolq");
  EXPECT_NE(DatasetFingerprint(*mnli), DatasetFingerprint(*boolq));
}

TEST(ProxyScoreCacheTest, MissThenHit) {
  MetricsRegistry metrics;
  ProxyScoreCache cache(8, &metrics);
  const ProxyCacheKey key = Key(1, "bert");
  EXPECT_FALSE(cache.Lookup(key).has_value());
  cache.Insert(key, 0.25);
  auto cached = cache.Lookup(key);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(*cached, 0.25);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(metrics.counter("proxy_cache.hits").value(), 1u);
  EXPECT_EQ(metrics.counter("proxy_cache.misses").value(), 1u);
}

TEST(ProxyScoreCacheTest, KeyDistinguishesAllThreeComponents) {
  MetricsRegistry metrics;
  ProxyScoreCache cache(8, &metrics);
  cache.Insert(Key(1, "bert", "leep"), 1.0);
  EXPECT_FALSE(cache.Lookup(Key(2, "bert", "leep")).has_value());
  EXPECT_FALSE(cache.Lookup(Key(1, "gpt", "leep")).has_value());
  EXPECT_FALSE(cache.Lookup(Key(1, "bert", "nce")).has_value());
  EXPECT_TRUE(cache.Lookup(Key(1, "bert", "leep")).has_value());
}

TEST(ProxyScoreCacheTest, EvictionOrderIsDeterministicLru) {
  MetricsRegistry metrics;
  ProxyScoreCache cache(3, &metrics);
  cache.Insert(Key(1, "a"), 0.1);
  cache.Insert(Key(2, "b"), 0.2);
  cache.Insert(Key(3, "c"), 0.3);
  // Touch "a": it becomes most-recent, "b" becomes least-recent.
  EXPECT_TRUE(cache.Lookup(Key(1, "a")).has_value());
  cache.Insert(Key(4, "d"), 0.4);  // Evicts "b", the strict LRU victim.
  EXPECT_FALSE(cache.Lookup(Key(2, "b")).has_value());
  EXPECT_TRUE(cache.Lookup(Key(3, "c")).has_value());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(metrics.counter("proxy_cache.evictions").value(), 1u);

  // MRU -> LRU after the lookups above: c (just touched), d, a.
  const std::vector<ProxyCacheKey> order = cache.KeysByRecency();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0].model, "c");
  EXPECT_EQ(order[1].model, "d");
  EXPECT_EQ(order[2].model, "a");
}

TEST(ProxyScoreCacheTest, SameAccessSequenceSameEvictionOrder) {
  // The eviction order is a pure function of the access sequence: two
  // caches fed identically agree on every victim.
  MetricsRegistry metrics;
  ProxyScoreCache a(4, &metrics), b(4, &metrics);
  const auto feed = [](ProxyScoreCache& cache) {
    for (int round = 0; round < 3; ++round) {
      for (uint64_t i = 0; i < 9; ++i) {
        const ProxyCacheKey key = Key(i % 6, std::string("m") + std::to_string(i % 5));
        if (!cache.Lookup(key).has_value()) {
          cache.Insert(key, static_cast<double>(i));
        }
      }
    }
  };
  feed(a);
  feed(b);
  EXPECT_EQ(a.KeysByRecency(), b.KeysByRecency());
  EXPECT_EQ(a.hits(), b.hits());
  EXPECT_EQ(a.evictions(), b.evictions());
}

TEST(ProxyScoreCacheTest, ZeroCapacityDisablesStorage) {
  MetricsRegistry metrics;
  ProxyScoreCache cache(0, &metrics);
  cache.Insert(Key(1, "a"), 0.5);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(Key(1, "a")).has_value());
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(ProxyScoreCacheTest, InsertRefreshesExistingEntry) {
  MetricsRegistry metrics;
  ProxyScoreCache cache(2, &metrics);
  cache.Insert(Key(1, "a"), 0.1);
  cache.Insert(Key(2, "b"), 0.2);
  cache.Insert(Key(1, "a"), 0.9);  // Overwrite, no eviction.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(*cache.Lookup(Key(1, "a")), 0.9);
  // "a" was refreshed by the overwrite, so "b" is now the LRU victim.
  cache.Insert(Key(3, "c"), 0.3);
  EXPECT_FALSE(cache.Lookup(Key(2, "b")).has_value());
}

TEST(ProxyScoreCacheTest, ClearDropsEntriesKeepsCounters) {
  MetricsRegistry metrics;
  ProxyScoreCache cache(8, &metrics);
  cache.Insert(Key(1, "a"), 0.1);
  EXPECT_TRUE(cache.Lookup(Key(1, "a")).has_value());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(Key(1, "a")).has_value());
  EXPECT_EQ(cache.hits(), 1u);  // Retained across Clear.
}

TEST(ProxyScoreCacheTest, GetOrComputeCachesBitIdenticalScores) {
  DatasetRegistry registry = *DatasetRegistry::CreatePaperInventory();
  ModelZoo zoo = *ModelZoo::Create(NlpPaperZooSpecs());
  const Dataset* target = *registry.Find("mnli");
  auto scorer = MakeProxyScorer("leep").value();

  MetricsRegistry metrics;
  ProxyScoreCache cache(8, &metrics);
  auto first = GetOrComputeOne(cache, *scorer, zoo.model(0), *target);
  ASSERT_TRUE(first.ok());
  auto direct = scorer->Score(zoo.model(0), *target);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*first, *direct);  // Bit-identical, not approximately equal.

  auto second = GetOrComputeOne(cache, *scorer, zoo.model(0), *target);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, *first);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProxyScoreCacheTest, GetOrComputeDoesNotCacheErrors) {
  DatasetRegistry registry = *DatasetRegistry::CreatePaperInventory();
  // CV model x NLP dataset: Score fails with a domain mismatch.
  ModelZoo zoo = *ModelZoo::Create(CvPaperZooSpecs());
  const Dataset* target = *registry.Find("mnli");
  auto scorer = MakeProxyScorer("leep").value();

  MetricsRegistry metrics;
  ProxyScoreCache cache(8, &metrics);
  EXPECT_FALSE(GetOrComputeOne(cache, *scorer, zoo.model(0), *target).ok());
  EXPECT_EQ(cache.size(), 0u);
  // The failure stays live: a later call fails again instead of serving a
  // stale cached error.
  EXPECT_FALSE(GetOrComputeOne(cache, *scorer, zoo.model(0), *target).ok());
}

TEST(ProxyScoreCacheTest, PeekRefreshesRecencyWithoutCounting) {
  MetricsRegistry metrics;
  ProxyScoreCache cache(2, &metrics);
  cache.Insert(Key(1, "a"), 1.0);
  cache.Insert(Key(1, "b"), 2.0);
  EXPECT_EQ(cache.Peek(Key(1, "a")), std::optional<double>(1.0));
  EXPECT_FALSE(cache.Peek(Key(1, "c")).has_value());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(metrics.counter("proxy_cache.hits").value(), 0u);
  // "a" was touched last, so "b" is the one evicted.
  cache.Insert(Key(1, "c"), 3.0);
  EXPECT_TRUE(cache.Peek(Key(1, "a")).has_value());
  EXPECT_FALSE(cache.Peek(Key(1, "b")).has_value());
}

TEST(ProxyScoreCacheTest, GetOrComputeBatchComputesMissesInOneCall) {
  MetricsRegistry metrics;
  ProxyScoreCache cache(8, &metrics);
  cache.Insert(Key(2, "hit"), 0.5);
  std::vector<std::vector<size_t>> calls;
  auto compute = [&](const std::vector<size_t>& positions)
      -> StatusOr<std::vector<double>> {
    calls.push_back(positions);
    std::vector<double> out;
    for (size_t p : positions) out.push_back(10.0 + static_cast<double>(p));
    return out;
  };
  auto scores = cache.GetOrComputeBatch(
      {Key(2, "x"), Key(2, "hit"), Key(2, "y")}, compute);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(*scores, (std::vector<double>{10.0, 0.5, 12.0}));
  EXPECT_EQ(calls, (std::vector<std::vector<size_t>>{{0, 2}}));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 3u);

  // A second pass is all hits: no compute call at all.
  auto again = cache.GetOrComputeBatch(
      {Key(2, "x"), Key(2, "hit"), Key(2, "y")}, compute);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *scores);
  EXPECT_EQ(calls.size(), 1u);

  // A failed batch caches nothing.
  auto failed = cache.GetOrComputeBatch(
      {Key(3, "z")},
      [](const std::vector<size_t>&) -> StatusOr<std::vector<double>> {
        return Status::InvalidArgument("no");
      });
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(cache.Peek(Key(3, "z")).has_value());
}

}  // namespace
}  // namespace tps
