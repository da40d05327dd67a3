#ifndef TPS_TRANSFER_PROXY_SCORER_H_
#define TPS_TRANSFER_PROXY_SCORER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "model/pretrained_model.h"
#include "util/statusor.h"

namespace tps {

/// A light-weight transferability proxy: predicts how well `model` would
/// perform after fine-tuning on `target`, *without* fine-tuning. Scores of
/// different models on the same target are comparable (higher is better);
/// scores across targets are not.
///
/// The paper uses LEEP in the coarse-recall phase and cites NCE, kNN and
/// LogME as interchangeable alternates; all four are implemented.
class ProxyScorer {
 public:
  virtual ~ProxyScorer() = default;

  /// Stable scorer identifier ("leep", "nce", "logme", "knn").
  virtual std::string name() const = 0;

  /// Computes the proxy score. Fails if the model and dataset domains
  /// differ.
  virtual StatusOr<double> Score(const PretrainedModel& model,
                                 const Dataset& target) const = 0;

  /// Batched entry point: scores every model against the same target,
  /// sharing per-target setup (label extraction) and one stacked forward
  /// pass across models. Result order matches `models`. Bit-identical to
  /// calling Score() in a loop, errors included — the kernel harness and
  /// the parallel-equivalence suite compare the two paths with ==. The
  /// base implementation is that loop; the concrete scorers override it
  /// with ScoreStacked.
  virtual StatusOr<std::vector<double>> ScoreBatch(
      const std::vector<const PretrainedModel*>& models,
      const Dataset& target) const;
};

/// The shared body of the concrete scorers' ScoreBatch: one stacked
/// forward pass over `models` (PretrainedModel::PredictDistributionsBatch
/// when `softmax`, ExtractFeaturesBatch otherwise), then `score(output,
/// labels)` per model in order. Fails exactly as the one-model Score loop
/// would: the stacked pass covers the models before the first wrong-domain
/// one, and that model's own forward pass supplies the error after them.
StatusOr<std::vector<double>> ScoreStacked(
    const std::vector<const PretrainedModel*>& models, const Dataset& target,
    bool softmax,
    const std::function<StatusOr<double>(const Matrix&,
                                         const std::vector<int>&)>& score);

/// Constructs a scorer by name; InvalidArgument for unknown names. Every
/// score runs on the batched kernels (transfer/kernels.h).
StatusOr<std::unique_ptr<ProxyScorer>> MakeProxyScorer(
    const std::string& name);

/// Min-max normalizes scores to [0, 1] (the paper normalizes LEEP before
/// combining it with the prior accuracy in the recall score). A constant
/// vector maps to all 0.5.
std::vector<double> MinMaxNormalize(const std::vector<double>& scores);

/// The per-example labels of `target`, in example order — the shared
/// second input of every proxy kernel.
std::vector<int> TargetLabels(const Dataset& target);

}  // namespace tps

#endif  // TPS_TRANSFER_PROXY_SCORER_H_
