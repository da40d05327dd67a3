#ifndef TPS_TESTS_ORACLES_REFERENCE_FORWARD_H_
#define TPS_TESTS_ORACLES_REFERENCE_FORWARD_H_

#include "data/dataset.h"
#include "matrix/matrix.h"
#include "model/pretrained_model.h"
#include "util/statusor.h"

namespace tps {

/// Test oracle for the stacked forward pass: the straightforward AoS
/// loops (one vec::Dot per example and source label) that
/// PretrainedModel::ForwardBatch was derived from. The model's friend, so
/// it reads the prototypes and head parameters without widening the
/// model's public API.
class PretrainedModelTestPeer {
 public:
  /// Reference logits; oracle of model.ExtractFeatures(dataset).
  static StatusOr<Matrix> ExtractFeaturesReference(
      const PretrainedModel& model, const Dataset& dataset);

  /// ExtractFeaturesReference + allocating per-row vec::Softmax; oracle of
  /// model.PredictDistributions(dataset).
  static StatusOr<Matrix> PredictDistributionsReference(
      const PretrainedModel& model, const Dataset& dataset);
};

}  // namespace tps

#endif  // TPS_TESTS_ORACLES_REFERENCE_FORWARD_H_
