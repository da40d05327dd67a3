#ifndef TPS_RECALL_HYBRID_BACKEND_H_
#define TPS_RECALL_HYBRID_BACKEND_H_

#include <string>

#include "core/coarse_recall.h"

namespace tps {
namespace recall {

/// Union-and-fuse recall: runs the representative and embedding backends,
/// min-max normalizes each backend's recall scores over its own candidate
/// set, and ranks the union by the mean of the two normalized scores
/// (a model one backend never saw contributes 0 for that backend). The
/// epoch budget and proxies_computed come from the representative run
/// alone — the embedding side is free by construction.
class HybridBackend : public RecallBackend {
 public:
  /// Both legs are borrowed and must outlive the hybrid.
  HybridBackend(const RecallBackend* representative,
                const RecallBackend* embedding)
      : representative_(representative), embedding_(embedding) {}

  const std::string& name() const override { return name_; }

  StatusOr<RecallResult> Recall(const Dataset& target,
                                const RecallOptions& options,
                                EpochBudget* budget,
                                ThreadPool* pool = nullptr,
                                MetricsRegistry* metrics = nullptr,
                                SelectionTrace* trace = nullptr,
                                const CancelToken* cancel =
                                    nullptr) const override;

  /// The leg that carries the budget, metrics and trace.
  const RecallBackend& representative() const { return *representative_; }

 private:
  std::string name_ = "hybrid";
  const RecallBackend* representative_;
  const RecallBackend* embedding_;
};

}  // namespace recall
}  // namespace tps

#endif  // TPS_RECALL_HYBRID_BACKEND_H_
