#include "tests/oracles/reference_forward.h"

#include <vector>

#include "matrix/vector_ops.h"

namespace tps {

StatusOr<Matrix> PretrainedModelTestPeer::ExtractFeaturesReference(
    const PretrainedModel& model, const Dataset& dataset) {
  TPS_RETURN_NOT_OK(model.CheckDomain(dataset));
  const PretrainedModel::HeadParams params = model.ComputeHeadParams(dataset);
  const size_t num_labels = model.source_prototypes_.size();
  Matrix logits(dataset.size(), num_labels);
  for (size_t i = 0; i < dataset.size(); ++i) {
    const Example& ex = dataset.examples()[i];
    const size_t routed =
        (static_cast<size_t>(ex.label) + params.route_offset) % num_labels;
    for (size_t z = 0; z < num_labels; ++z) {
      logits.At(i, z) =
          params.beta * vec::Dot(ex.features, model.source_prototypes_[z]) +
          (z == routed ? params.separation : 0.0);
    }
  }
  return logits;
}

StatusOr<Matrix> PretrainedModelTestPeer::PredictDistributionsReference(
    const PretrainedModel& model, const Dataset& dataset) {
  TPS_ASSIGN_OR_RETURN(Matrix logits, ExtractFeaturesReference(model, dataset));
  Matrix predictions(logits.rows(), logits.cols());
  for (size_t i = 0; i < logits.rows(); ++i) {
    const std::vector<double> probs = vec::Softmax(logits.Row(i));
    for (size_t z = 0; z < logits.cols(); ++z) {
      predictions.At(i, z) = probs[z];
    }
  }
  return predictions;
}

}  // namespace tps
