#ifndef TPS_TRANSFER_PROXY_FLIGHT_H_
#define TPS_TRANSFER_PROXY_FLIGHT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "transfer/score_cache.h"
#include "util/metrics.h"
#include "util/statusor.h"

namespace tps {

/// Cross-request proxy coalescing ("single-flight"): identical in-flight
/// (dataset, model, scorer) computations — keyed by the same ProxyCacheKey
/// the LRU cache uses — collapse so ONE pass over the target's predictions
/// answers every queued query. The first arrival becomes the flight's
/// leader and computes; later arrivals wait on the flight and share the
/// leader's result.
///
/// Batches: a request arrives with a whole probe wave of keys. One lock
/// pass joins or leads the flight of every key, the leader's misses are
/// computed in ONE batch call (one stacked forward pass), and each led
/// flight is published — after its score is in the cache — before the
/// caller waits on any flight it joined. Because no member ever waits
/// while leading, waves that overlap in any order cannot deadlock. The
/// single-key entry point, ComputeShared, is a batch of one.
///
/// Inertness: proxy scores are pure functions of the key, so a waiter
/// receiving the leader's double is bit-identical to computing it — the
/// coalescing suite (tests/serve/coalescing_test.cc) pins responses with
/// == and the exactly-once compute count via the metrics counters.
///
/// Cancellation-safe waiter handoff: a leader whose own request is
/// cancelled (compute returns DeadlineExceeded) ABDICATES every flight it
/// leads that still has live waiters — one waiter per flight is promoted
/// to leader and computes that key with its own closure; only the
/// cancelled caller sees DeadlineExceeded. Genuine (deterministic) compute
/// errors are shared with all waiters, the same answer every member would
/// have computed alone; a failed batch is retried one key at a time so
/// each flight publishes its own key's outcome. Waiters poll their own
/// cancellation between waits, so a waiter with an expired deadline
/// leaves the flight without disturbing it.
///
/// Counting: every arrival (one per key) is exactly one of a pre-check
/// cache hit, a leader or a waiter, so with no handoffs
/// `leaders + waiters + cache hits == arrivals`. The leader's re-check of
/// the cache is a non-counting ProxyScoreCache::Peek: it is what keeps
/// compute exactly-once when another flight retires between the
/// pre-check and the join, and it must not count that arrival twice.
///
/// Observability (MetricsRegistry + local atomics, like ProxyScoreCache):
///   proxy_flight.leaders   — flights led (first arrival or promotion)
///   proxy_flight.waiters   — arrivals that joined an existing flight,
///                            including a key repeated within one batch
///   proxy_flight.computes  — keys whose compute succeeded
///   proxy_flight.handoffs  — waiter promotions after leader abdication
class ProxyFlightGroup {
 public:
  explicit ProxyFlightGroup(MetricsRegistry* metrics = nullptr);

  ProxyFlightGroup(const ProxyFlightGroup&) = delete;
  ProxyFlightGroup& operator=(const ProxyFlightGroup&) = delete;

  /// The serving seam: a counted cache lookup of every key (when `cache`
  /// is non-null), then coalesced compute of the misses; the leader
  /// inserts each successful score into the cache BEFORE its flight is
  /// retired, so any request arriving after the flight hits the cache —
  /// compute runs exactly once per key. `poll_cancel` (may be null) is
  /// this caller's own cancellation check, polled while waiting; `compute`
  /// runs without any flight lock held. Result order matches `keys`; on
  /// failure the error of the first failing key is returned.
  StatusOr<std::vector<double>> GetOrComputeBatch(
      ProxyScoreCache* cache, const std::vector<ProxyCacheKey>& keys,
      const std::function<Status()>& poll_cancel,
      const BatchCompute& compute);

  /// The raw coalescing primitive for one key (no cache semantics): joins
  /// or creates its flight. A (possibly promoted) leader first consults
  /// `lookup` (may be null) and only computes on nullopt. Each caller
  /// passes its own closures; whichever member ends up leading runs its
  /// own `compute`.
  StatusOr<double> ComputeShared(
      const ProxyCacheKey& key, const std::function<Status()>& poll_cancel,
      const std::function<std::optional<double>()>& lookup,
      const std::function<StatusOr<double>()>& compute);

  /// Test hook: runs inside GetOrComputeBatch after the cache pre-check
  /// and before the flight join, on the calling thread with no lock held,
  /// so a test can retire a flight in exactly that window. Set it before
  /// any concurrent use.
  void SetJoinHookForTesting(std::function<void()> hook) {
    join_hook_ = std::move(hook);
  }

  uint64_t leaders() const { return leaders_.load(std::memory_order_relaxed); }
  uint64_t waiters() const { return waiters_.load(std::memory_order_relaxed); }
  uint64_t computes() const {
    return computes_.load(std::memory_order_relaxed);
  }
  uint64_t handoffs() const {
    return handoffs_.load(std::memory_order_relaxed);
  }

  /// In-flight key count (0 when idle; for tests and stats).
  size_t InFlight() const;

 private:
  struct Flight {
    std::condition_variable cv;
    bool done = false;
    bool leader_active = false;
    size_t members = 0;
    StatusOr<double> result{0.0};
  };

  /// The batched primitive behind both entry points: joins or creates the
  /// flight of every key in one lock pass. The keys this caller leads are
  /// first offered to `peek` (may be null; called with the key's position)
  /// and the rest computed in one `compute` call.
  StatusOr<std::vector<double>> ComputeSharedBatch(
      const std::vector<ProxyCacheKey>& keys,
      const std::function<Status()>& poll_cancel,
      const std::function<std::optional<double>(size_t)>& peek,
      const BatchCompute& compute);

  /// One caller's stake in one flight: the first position of its key in
  /// the caller's batch, and the outcome once it is known.
  struct Membership {
    std::shared_ptr<Flight> flight;
    size_t position = 0;
    bool leading = false;
    StatusOr<double> outcome{0.0};
  };

  /// Leads `led` (indices into `held`): peeks, computes the rest in one
  /// batch, then publishes each flight or — when this caller's compute
  /// was cancelled and waiters remain — abdicates it. Fills each led
  /// membership's outcome.
  void Lead(const std::vector<ProxyCacheKey>& keys,
            const std::vector<size_t>& led, std::vector<Membership>& held,
            const std::function<std::optional<double>(size_t)>& peek,
            const BatchCompute& compute);

  /// Drops one membership; erases the flight when the last member leaves
  /// an unfinished flight. Caller holds mu_.
  void Depart(const ProxyCacheKey& key,
              const std::shared_ptr<Flight>& flight);

  std::function<void()> join_hook_;

  MetricsRegistry* const metrics_;

  mutable std::mutex mu_;
  std::unordered_map<ProxyCacheKey, std::shared_ptr<Flight>,
                     ProxyCacheKeyHash>
      flights_;

  std::atomic<uint64_t> leaders_{0};
  std::atomic<uint64_t> waiters_{0};
  std::atomic<uint64_t> computes_{0};
  std::atomic<uint64_t> handoffs_{0};

  Counter& leader_counter_;
  Counter& waiter_counter_;
  Counter& compute_counter_;
  Counter& handoff_counter_;
};

}  // namespace tps

#endif  // TPS_TRANSFER_PROXY_FLIGHT_H_
