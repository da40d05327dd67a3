#ifndef TPS_PERFBENCH_WORKLOAD_H_
#define TPS_PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset_spec.h"
#include "util/statusor.h"

namespace tps {
namespace perfbench {

/// Which model zoo a workload serves.
enum class ZooKind {
  kPaper,      // The 40-model paper NLP zoo, no recall index.
  kGenerated,  // The 5000-model generated NLP zoo with its IVF index.
};

/// The fixed shape of one workload. Every rate, count and limit is a
/// constant of the benchmark: nothing is derived from a measurement taken
/// during the run, so two runs of the same code offer the same load.
struct WorkloadSpec {
  std::string name;
  ZooKind zoo = ZooKind::kPaper;
  /// Every request names a generated target no earlier request named.
  bool novel_targets = false;
  /// Open-loop Poisson arrival rate.
  double offered_qps = 0.0;
  /// Open-loop requests in a run of kReferenceSeconds; scaled linearly by
  /// the run's --seconds.
  size_t open_loop_requests = 0;
  /// Closed-loop requests for the capacity phase, scaled the same way.
  size_t capacity_requests = 0;
  /// Latency limit for slo_attainment, from scheduled send to reply.
  double slo_ms = 0.0;
  /// Swap phase, after the measured rounds: this many `reload`s on the
  /// control connection, each beside an open-loop segment of its own of
  /// kSwapSegmentRequests at offered_qps. Its replies are checked but not
  /// timed into p50_ms or p99_ms.
  size_t swap_reloads = 0;
  /// Times the stack is set up in a --trace 0 run; setup_s is the median.
  size_t setup_repeats = 3;
  /// Open-loop replies checked against the serial, uncached selector on a
  /// novel-target workload (the others check every reply).
  size_t checked_targets = 0;
};

/// The measured phases run in this many rounds: each round is an
/// open-loop segment, then a capacity segment. Interleaving makes every
/// metric sample the whole run, so a slow stretch of the host falls on all
/// of them alike.
constexpr size_t kRounds = 5;

/// The run length the request counts above are written for.
constexpr double kReferenceSeconds = 15.0;
/// Connections (and client threads) the load generator drives selects on.
constexpr int kLoadConnections = 3;
/// Entries of the service's proxy-score cache (ServiceOptions default).
constexpr size_t kCacheCapacity = 4096;

/// The workloads: "cold-5k" and "hot-wire".
const std::vector<WorkloadSpec>& AllWorkloads();
StatusOr<WorkloadSpec> FindWorkload(const std::string& name);

/// Everything a run sends, generated from (spec, seed, seconds) alone.
struct WorkloadInputs {
  /// Generated target datasets the server's registry must hold (novel
  /// workloads only): one per open-loop and capacity request, plus the
  /// traced-run samples.
  std::vector<DatasetSpec> novel_targets;
  /// Open-loop arrivals in seconds from the phase start, ascending.
  std::vector<double> arrival_s;
  /// Untimed requests sent before the measured rounds.
  std::vector<std::string> warmup_targets;
  std::vector<std::string> open_loop_targets;
  std::vector<std::string> capacity_targets;
  /// Targets of the traced per-layer pass: `traced_targets` run through
  /// the spanned call sequence, `untraced_targets` through
  /// SelectionService::Handle for the overhead comparison.
  std::vector<std::string> traced_targets;
  std::vector<std::string> untraced_targets;
  /// The swap phase's schedule, targets and reload times (one per
  /// segment), on a clock of its own with the segments laid end to end.
  std::vector<double> swap_arrival_s;
  std::vector<std::string> swap_targets;
  std::vector<double> reload_at_s;
};

/// Requests per traced pass (each of the two).
constexpr size_t kTracedRequests = 64;
/// Warm-up requests.
constexpr size_t kWarmupRequests = 32;
/// Open-loop requests beside each swap-phase reload.
constexpr size_t kSwapSegmentRequests = 400;

/// Round `r`'s share [begin, end) of `n` requests.
size_t RoundBegin(size_t r, size_t n);

StatusOr<WorkloadInputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                                    double seconds);

/// Canonical text of every generated input (target specs, schedule,
/// targets, reload times) at full precision; equal text means
/// byte-identical inputs.
std::string DescribeInputs(const WorkloadInputs& inputs);

/// Guard for novel-target workloads: no target name is sent twice and no
/// generated name collides with the paper inventory.
Status CheckNoTargetReuse(const WorkloadInputs& inputs);

/// Guard for repeated-target workloads: the distinct targets times the
/// proxies one request computes fit the proxy cache, so the hit ratio is
/// not a property of the eviction policy.
Status CheckTargetsFitCache(const WorkloadInputs& inputs,
                            size_t proxies_per_request,
                            size_t cache_capacity);

}  // namespace perfbench
}  // namespace tps

#endif  // TPS_PERFBENCH_WORKLOAD_H_
