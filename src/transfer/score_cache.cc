#include "transfer/score_cache.h"

#include <cstring>

namespace tps {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMixBytes(uint64_t h, const void* data, size_t n) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvMixString(uint64_t h, const std::string& s) {
  // Length-prefixed so {"ab","c"} and {"a","bc"} differ.
  const uint64_t len = s.size();
  h = FnvMixBytes(h, &len, sizeof(len));
  return FnvMixBytes(h, s.data(), s.size());
}

uint64_t FnvMixU64(uint64_t h, uint64_t v) {
  return FnvMixBytes(h, &v, sizeof(v));
}

uint64_t FnvMixDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return FnvMixU64(h, bits);
}

}  // namespace

uint64_t DatasetFingerprint(const Dataset& dataset) {
  const DatasetSpec& spec = dataset.spec();
  uint64_t h = kFnvOffset;
  h = FnvMixString(h, spec.name);
  h = FnvMixU64(h, dataset.seed());
  h = FnvMixU64(h, static_cast<uint64_t>(spec.domain));
  h = FnvMixU64(h, static_cast<uint64_t>(spec.role));
  h = FnvMixU64(h, static_cast<uint64_t>(spec.num_labels));
  h = FnvMixU64(h, static_cast<uint64_t>(spec.num_examples));
  h = FnvMixDouble(h, spec.difficulty);
  h = FnvMixDouble(h, spec.chance_accuracy);
  h = FnvMixDouble(h, spec.ceiling_accuracy);
  h = FnvMixU64(h, spec.tags.size());
  for (const std::string& tag : spec.tags) h = FnvMixString(h, tag);
  return h;
}

size_t ProxyCacheKeyHash::operator()(const ProxyCacheKey& key) const {
  uint64_t h = FnvMixU64(kFnvOffset, key.dataset_fingerprint);
  h = FnvMixU64(h, key.artifact_epoch);
  h = FnvMixString(h, key.model);
  h = FnvMixString(h, key.scorer);
  return static_cast<size_t>(h);
}

ProxyScoreCache::ProxyScoreCache(size_t capacity, MetricsRegistry* metrics)
    : capacity_(capacity),
      hit_counter_((metrics != nullptr ? metrics : MetricsRegistry::Default())
                       ->counter("proxy_cache.hits")),
      miss_counter_((metrics != nullptr ? metrics
                                        : MetricsRegistry::Default())
                        ->counter("proxy_cache.misses")),
      eviction_counter_(
          (metrics != nullptr ? metrics : MetricsRegistry::Default())
              ->counter("proxy_cache.evictions")),
      entries_gauge_((metrics != nullptr ? metrics
                                         : MetricsRegistry::Default())
                         ->gauge("proxy_cache.entries")) {}

std::optional<double> ProxyScoreCache::Find(const ProxyCacheKey& key,
                                            bool count) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // Refresh recency.
      if (count) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        hit_counter_.Increment();
      }
      return it->second->second;
    }
  }
  if (count) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    miss_counter_.Increment();
  }
  return std::nullopt;
}

std::optional<double> ProxyScoreCache::Lookup(const ProxyCacheKey& key) {
  return Find(key, /*count=*/true);
}

std::optional<double> ProxyScoreCache::Peek(const ProxyCacheKey& key) {
  return Find(key, /*count=*/false);
}

void ProxyScoreCache::Insert(const ProxyCacheKey& key, double score) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = score;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    const Entry& victim = lru_.back();
    index_.erase(victim.first);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    eviction_counter_.Increment();
  }
  lru_.emplace_front(key, score);
  index_.emplace(key, lru_.begin());
  entries_gauge_.Set(static_cast<double>(lru_.size()));
}

StatusOr<std::vector<double>> ProxyScoreCache::GetOrComputeBatch(
    const std::vector<ProxyCacheKey>& keys, const BatchCompute& compute) {
  std::vector<double> scores(keys.size(), 0.0);
  std::vector<size_t> misses;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (std::optional<double> cached = Lookup(keys[i]); cached.has_value()) {
      scores[i] = *cached;
    } else {
      misses.push_back(i);
    }
  }
  if (misses.empty()) return scores;
  TPS_ASSIGN_OR_RETURN(std::vector<double> computed, compute(misses));
  for (size_t j = 0; j < misses.size(); ++j) {
    scores[misses[j]] = computed[j];
    Insert(keys[misses[j]], computed[j]);
  }
  return scores;
}

void ProxyScoreCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  entries_gauge_.Set(0.0);
}

size_t ProxyScoreCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::vector<ProxyCacheKey> ProxyScoreCache::KeysByRecency() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ProxyCacheKey> keys;
  keys.reserve(lru_.size());
  for (const Entry& entry : lru_) keys.push_back(entry.first);
  return keys;
}

}  // namespace tps
