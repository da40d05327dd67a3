#ifndef TPS_TRANSFER_KNN_PROXY_H_
#define TPS_TRANSFER_KNN_PROXY_H_

#include <string>
#include <vector>

#include "matrix/matrix.h"
#include "transfer/proxy_scorer.h"
#include "util/statusor.h"

namespace tps {

/// kNN proxy (Renggli et al., CVPR 2022): leave-one-out k-nearest-neighbour
/// classification accuracy over the model's features on the target dataset.
/// Approximates post-fine-tuning accuracy directly; in [0, 1], higher is
/// better. More faithful than LEEP but needs the pairwise distance pass the
/// paper calls out as "extra training".
StatusOr<double> KnnLeaveOneOutAccuracy(const Matrix& features,
                                        const std::vector<int>& labels,
                                        int k);

/// ProxyScorer adapter over the simulated penultimate-layer features.
class KnnScorer : public ProxyScorer {
 public:
  explicit KnnScorer(int k = 5) : k_(k) {}
  std::string name() const override { return "knn"; }
  StatusOr<double> Score(const PretrainedModel& model,
                         const Dataset& target) const override;
  StatusOr<std::vector<double>> ScoreBatch(
      const std::vector<const PretrainedModel*>& models,
      const Dataset& target) const override;

 private:
  int k_;
};

}  // namespace tps

#endif  // TPS_TRANSFER_KNN_PROXY_H_
