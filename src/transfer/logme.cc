#include "transfer/logme.h"

#include "transfer/kernels.h"

namespace tps {

StatusOr<double> LogMeFromFeatures(const Matrix& features,
                                   const std::vector<int>& labels,
                                   int num_target_labels) {
  const size_t n = features.rows();
  const size_t dims = features.cols();
  if (n == 0 || dims == 0) {
    return Status::InvalidArgument("LogME needs a non-empty feature matrix");
  }
  if (labels.size() != n) {
    return Status::InvalidArgument("LogME labels/features size mismatch");
  }
  if (num_target_labels < 2) {
    return Status::InvalidArgument("LogME needs at least 2 target labels");
  }
  for (int y : labels) {
    if (y < 0 || y >= num_target_labels) {
      return Status::OutOfRange("LogME label out of range");
    }
  }
  const size_t num_target = static_cast<size_t>(num_target_labels);
  return kernels::LogMeBatched(features, labels, num_target);
}

StatusOr<double> LogMeScorer::Score(const PretrainedModel& model,
                                    const Dataset& target) const {
  TPS_ASSIGN_OR_RETURN(Matrix features, model.ExtractFeatures(target));
  return LogMeFromFeatures(features, TargetLabels(target),
                           target.spec().num_labels);
}

StatusOr<std::vector<double>> LogMeScorer::ScoreBatch(
    const std::vector<const PretrainedModel*>& models,
    const Dataset& target) const {
  return ScoreStacked(
      models, target, /*softmax=*/false,
      [&](const Matrix& features, const std::vector<int>& labels) {
        return LogMeFromFeatures(features, labels,
                                 target.spec().num_labels);
      });
}

}  // namespace tps
