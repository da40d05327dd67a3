#include "transfer/knn_proxy.h"

#include <algorithm>

#include "transfer/kernels.h"

namespace tps {

StatusOr<double> KnnLeaveOneOutAccuracy(const Matrix& features,
                                        const std::vector<int>& labels,
                                        int k) {
  const size_t n = features.rows();
  if (n < 2) {
    return Status::InvalidArgument("kNN needs at least 2 examples");
  }
  if (labels.size() != n) {
    return Status::InvalidArgument("kNN labels/features size mismatch");
  }
  if (k < 1) {
    return Status::InvalidArgument("kNN needs k >= 1");
  }
  const size_t kk = std::min<size_t>(static_cast<size_t>(k), n - 1);
  return kernels::KnnBatched(features, labels, kk);
}

StatusOr<double> KnnScorer::Score(const PretrainedModel& model,
                                  const Dataset& target) const {
  TPS_ASSIGN_OR_RETURN(Matrix features, model.ExtractFeatures(target));
  return KnnLeaveOneOutAccuracy(features, TargetLabels(target), k_);
}

StatusOr<std::vector<double>> KnnScorer::ScoreBatch(
    const std::vector<const PretrainedModel*>& models,
    const Dataset& target) const {
  return ScoreStacked(
      models, target, /*softmax=*/false,
      [&](const Matrix& features, const std::vector<int>& labels) {
        return KnnLeaveOneOutAccuracy(features, labels, k_);
      });
}

}  // namespace tps
