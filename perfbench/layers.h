#ifndef TPS_PERFBENCH_LAYERS_H_
#define TPS_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "perfbench/stack.h"
#include "perfbench/workload.h"
#include "util/statusor.h"

namespace tps {
namespace perfbench {

/// Per-request results of the traced pass: the service's pipeline,
/// replayed as direct calls into each module from the benchmark's own
/// code, with a span around every call.
struct TracedRequest {
  std::string target;
  std::string selected_model;
  double total_epochs = 0.0;
  double total_ms = 0.0;  // First span start to last span end.
  double acquire_us = 0.0;    // SelectionService::snapshot()
  double codec_us = 0.0;      // Request and response lines, both ways.
  double find_us = 0.0;       // DatasetRegistry::Find
  double recall_ms = 0.0;     // CoarseRecall::Recall, service options
  double fine_ms = 0.0;       // FineSelectionSelector::Select
  double rank_ms = 0.0;       // The same recall again, every proxy cached.
  double probe_us = 0.0;      // IvfIndex::ProbePartitions (0 without index)
  size_t partitions_probed = 0;
  size_t proxies = 0;         // RecallResult::proxies_computed
  size_t candidates = 0;      // RecallResult::ranked.size()
  double training_epochs = 0.0;
  double trend_prunes = 0.0;
  /// Share of total_ms no span covers.
  double unattributed_frac = 0.0;
};

struct LayerPass {
  std::vector<TracedRequest> traced;
  /// SelectionService::Handle latency of the untraced requests, ms.
  std::vector<double> untraced_ms;
  /// Per proxy, over a sample of traced targets' probe sets.
  double forward_ms_per_proxy = 0.0;
  double kernel_ms_per_proxy = 0.0;
};

/// Runs inputs.traced_targets through the spanned call sequence and
/// inputs.untraced_targets through SelectionService::Handle, interleaved,
/// against the stack's current artifacts, cache and flight group.
StatusOr<LayerPass> RunLayerPass(Stack* stack, const WorkloadInputs& inputs);

/// Median wall time, in ms, of publishing a copy of the current artifacts
/// with SelectionService::Reload(ServiceArtifacts), `repeats` times.
StatusOr<double> MeasurePublishMs(Stack* stack, int repeats);

}  // namespace perfbench
}  // namespace tps

#endif  // TPS_PERFBENCH_LAYERS_H_
