#include "transfer/nce.h"

#include "transfer/kernels.h"

namespace tps {

StatusOr<double> NceFromPredictions(const Matrix& predictions,
                                    const std::vector<int>& labels,
                                    int num_target_labels) {
  const size_t n = predictions.rows();
  const size_t num_source = predictions.cols();
  if (n == 0 || num_source == 0) {
    return Status::InvalidArgument("NCE needs a non-empty prediction matrix");
  }
  if (labels.size() != n) {
    return Status::InvalidArgument("NCE labels/predictions size mismatch");
  }
  if (num_target_labels < 2) {
    return Status::InvalidArgument("NCE needs at least 2 target labels");
  }
  for (int y : labels) {
    if (y < 0 || y >= num_target_labels) {
      return Status::OutOfRange("NCE label out of range");
    }
  }
  const size_t num_target = static_cast<size_t>(num_target_labels);
  return kernels::NceBatched(predictions, labels, num_target);
}

StatusOr<double> NceScorer::Score(const PretrainedModel& model,
                                  const Dataset& target) const {
  TPS_ASSIGN_OR_RETURN(Matrix predictions,
                       model.PredictDistributions(target));
  return NceFromPredictions(predictions, TargetLabels(target),
                            target.spec().num_labels);
}

StatusOr<std::vector<double>> NceScorer::ScoreBatch(
    const std::vector<const PretrainedModel*>& models,
    const Dataset& target) const {
  return ScoreStacked(
      models, target, /*softmax=*/true,
      [&](const Matrix& predictions, const std::vector<int>& labels) {
        return NceFromPredictions(predictions, labels,
                                  target.spec().num_labels);
      });
}

}  // namespace tps
