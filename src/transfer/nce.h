#ifndef TPS_TRANSFER_NCE_H_
#define TPS_TRANSFER_NCE_H_

#include <string>
#include <vector>

#include "matrix/matrix.h"
#include "transfer/proxy_scorer.h"
#include "util/statusor.h"

namespace tps {

/// Negative Conditional Entropy (Tran et al., ICCV 2019): uses hard source
/// predictions z_i = argmax_z theta_z(x_i) and scores transferability as
/// -H(Y | Z) under the empirical joint of (y_i, z_i). In [-log|Y|, 0];
/// higher is better.
StatusOr<double> NceFromPredictions(const Matrix& predictions,
                                    const std::vector<int>& labels,
                                    int num_target_labels);

/// ProxyScorer adapter for NCE over the simulated predictive head.
class NceScorer : public ProxyScorer {
 public:
  std::string name() const override { return "nce"; }
  StatusOr<double> Score(const PretrainedModel& model,
                         const Dataset& target) const override;
  StatusOr<std::vector<double>> ScoreBatch(
      const std::vector<const PretrainedModel*>& models,
      const Dataset& target) const override;
};

}  // namespace tps

#endif  // TPS_TRANSFER_NCE_H_
