#ifndef TPS_TRANSFER_LEEP_H_
#define TPS_TRANSFER_LEEP_H_

#include <string>
#include <vector>

#include "matrix/matrix.h"
#include "transfer/proxy_scorer.h"
#include "util/statusor.h"

namespace tps {

/// Log Expected Empirical Prediction (Nguyen et al., ICML 2020), computed
/// exactly from source-model predictions:
///
///   P(y, z) = (1/n) sum_i theta_z(x_i) * 1[y_i = y]     (empirical joint)
///   P(y | z) = P(y, z) / P(z)
///   LEEP    = (1/n) sum_i log( sum_z P(y_i | z) * theta_z(x_i) )
///
/// `predictions` is row-stochastic (n examples x Z source labels); `labels`
/// holds target labels in [0, num_target_labels). Returns a value in
/// (-inf, 0]; higher means better transferability.
StatusOr<double> LeepFromPredictions(const Matrix& predictions,
                                     const std::vector<int>& labels,
                                     int num_target_labels);

/// ProxyScorer adapter: obtains the model's predictive distributions on the
/// target via the simulated head and applies LEEP.
class LeepScorer : public ProxyScorer {
 public:
  std::string name() const override { return "leep"; }
  StatusOr<double> Score(const PretrainedModel& model,
                         const Dataset& target) const override;
  StatusOr<std::vector<double>> ScoreBatch(
      const std::vector<const PretrainedModel*>& models,
      const Dataset& target) const override;
};

}  // namespace tps

#endif  // TPS_TRANSFER_LEEP_H_
