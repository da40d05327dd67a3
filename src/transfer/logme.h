#ifndef TPS_TRANSFER_LOGME_H_
#define TPS_TRANSFER_LOGME_H_

#include <string>
#include <vector>

#include "matrix/matrix.h"
#include "transfer/proxy_scorer.h"
#include "util/statusor.h"

namespace tps {

/// LogME (You et al., ICML 2021): the log marginal evidence of a Bayesian
/// linear regression from model features to (one-hot) target labels,
/// maximized over the prior/noise precisions (alpha, beta) by fixed-point
/// iteration, averaged over classes and normalized by the sample count.
/// Higher is better.
///
/// `features` is n examples x D dimensions; `labels` in
/// [0, num_target_labels).
StatusOr<double> LogMeFromFeatures(const Matrix& features,
                                   const std::vector<int>& labels,
                                   int num_target_labels);

/// ProxyScorer adapter over the simulated penultimate-layer features.
class LogMeScorer : public ProxyScorer {
 public:
  std::string name() const override { return "logme"; }
  StatusOr<double> Score(const PretrainedModel& model,
                         const Dataset& target) const override;
  StatusOr<std::vector<double>> ScoreBatch(
      const std::vector<const PretrainedModel*>& models,
      const Dataset& target) const override;
};

}  // namespace tps

#endif  // TPS_TRANSFER_LOGME_H_
