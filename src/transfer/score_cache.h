#ifndef TPS_TRANSFER_SCORE_CACHE_H_
#define TPS_TRANSFER_SCORE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "model/pretrained_model.h"
#include "transfer/proxy_scorer.h"
#include "util/metrics.h"
#include "util/statusor.h"

namespace tps {

/// Stable identity of a (simulated) dataset for cache keying. Mixes every
/// spec field that feeds example generation (name-derived seed, domain,
/// label space, example count, difficulty, chance/ceiling overrides, tags)
/// so two datasets produce the same fingerprint iff they generate the same
/// examples. Deterministic across processes and platforms (FNV-1a over a
/// canonical serialization; no pointers, no ASLR).
uint64_t DatasetFingerprint(const Dataset& dataset);

/// Cache key: which proxy number is this? One entry per (artifact epoch,
/// target dataset, model, scorer kind) tuple. `artifact_epoch` is the
/// serving layer's artifact version ("Serving: hot artifact swap" in
/// DESIGN.md): proxy scores depend on the loaded model zoo, so scores
/// computed under version V must never answer a request admitted against
/// version V+1. Epoch-tagging the key (instead of flushing the cache on
/// swap) keeps in-flight old-version requests correct too — they keep
/// hitting their own epoch's entries while new requests warm the next
/// epoch, and retired epochs age out through normal LRU eviction.
/// Embedded callers that never swap artifacts leave it 0.
struct ProxyCacheKey {
  uint64_t dataset_fingerprint = 0;
  std::string model;   // PretrainedModel name (unique within a zoo).
  std::string scorer;  // ProxyScorer::name(): "leep", "nce", ...
  uint64_t artifact_epoch = 0;

  bool operator==(const ProxyCacheKey& other) const {
    return dataset_fingerprint == other.dataset_fingerprint &&
           artifact_epoch == other.artifact_epoch &&
           model == other.model && scorer == other.scorer;
  }
};

struct ProxyCacheKeyHash {
  size_t operator()(const ProxyCacheKey& key) const;
};

/// Computes the scores of the keys at `positions` (ascending indices into
/// the caller's key list) in one batch, in `positions` order — the
/// compute closure of the batched cache and flight entry points.
using BatchCompute = std::function<StatusOr<std::vector<double>>(
    const std::vector<size_t>& positions)>;

/// Thread-safe LRU cache of proxy scores ("Serving" in DESIGN.md).
///
/// Inertness contract: proxy scores are pure functions of (dataset, model,
/// scorer), so serving a cached double is bit-identical to recomputing it —
/// tests/serve/cache_inertness_test.cc proves cache-on == cache-off for
/// whole selection reports, serial and parallel. Only successful scores
/// are cached; Status errors always propagate live.
///
/// Eviction is strict LRU over a doubly-linked list guarded by one mutex,
/// so the eviction order is a deterministic function of the access
/// sequence (tests/serve/score_cache_test.cc pins it).
///
/// Observability: hit/miss/eviction counters and an entry gauge are
/// reported both to the MetricsRegistry passed at construction
/// (`proxy_cache.hits` / `.misses` / `.evictions` / `.entries`) and to
/// local atomics exposed as accessors, so tests and the serve stats
/// endpoint read exact values without scraping the global registry.
class ProxyScoreCache {
 public:
  /// `capacity` is the maximum number of entries; 0 disables caching
  /// entirely (every lookup misses, nothing is stored). `metrics` defaults
  /// to MetricsRegistry::Default().
  explicit ProxyScoreCache(size_t capacity,
                           MetricsRegistry* metrics = nullptr);

  ProxyScoreCache(const ProxyScoreCache&) = delete;
  ProxyScoreCache& operator=(const ProxyScoreCache&) = delete;

  /// Returns the cached score and refreshes recency, or nullopt on miss.
  std::optional<double> Lookup(const ProxyCacheKey& key);

  /// Lookup without the hit/miss accounting (recency still refreshes):
  /// the flight leader's re-check of a key whose pre-check Lookup already
  /// counted, so no arrival is counted twice.
  std::optional<double> Peek(const ProxyCacheKey& key);

  /// Inserts (or refreshes) a score, evicting the least-recently-used
  /// entry when at capacity. No-op when capacity is 0.
  void Insert(const ProxyCacheKey& key, double score);

  /// The uncoalesced seam used by coarse recall: every key is looked up,
  /// the misses are computed in one `compute` call and the successful
  /// scores inserted. Result order matches `keys`; a failed batch is
  /// returned as is and caches nothing.
  StatusOr<std::vector<double>> GetOrComputeBatch(
      const std::vector<ProxyCacheKey>& keys, const BatchCompute& compute);

  /// Drops every entry (counters are retained).
  void Clear();

  size_t capacity() const { return capacity_; }
  size_t size() const;
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Keys in most- to least-recently-used order (for eviction-order
  /// tests and the serve stats endpoint).
  std::vector<ProxyCacheKey> KeysByRecency() const;

 private:
  using Entry = std::pair<ProxyCacheKey, double>;

  /// Lookup's body; counts the outcome only when `count` is set.
  std::optional<double> Find(const ProxyCacheKey& key, bool count);

  const size_t capacity_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // Front = most recent.
  std::unordered_map<ProxyCacheKey, std::list<Entry>::iterator,
                     ProxyCacheKeyHash>
      index_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};

  // Registry instruments, resolved once at construction.
  Counter& hit_counter_;
  Counter& miss_counter_;
  Counter& eviction_counter_;
  Gauge& entries_gauge_;
};

}  // namespace tps

#endif  // TPS_TRANSFER_SCORE_CACHE_H_
