#ifndef TPS_MODEL_PRETRAINED_MODEL_H_
#define TPS_MODEL_PRETRAINED_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "matrix/matrix.h"
#include "model/model_spec.h"
#include "util/statusor.h"

namespace tps {

/// A materialized pre-trained model: spec + latent affinity vector +
/// source-label prototypes + a simulated predictive head.
///
/// The predictive head is what the proxy scores (LEEP/NCE/kNN) consume: for
/// a target example x it produces a softmax distribution over the model's
/// source label space. Prediction sharpness scales with
/// capability x domain-alignment (a model produces crisp, consistent
/// activations on in-domain inputs and diffuse ones off-domain), which is
/// the mechanism that makes transferability proxies informative in the real
/// world; see DESIGN.md for the substitution rationale.
class PretrainedModel {
 public:
  /// Builds the model deterministically from its spec. Fails on invalid
  /// specs (empty name, capability outside (0,1), < 2 source labels).
  static StatusOr<PretrainedModel> Create(const ModelSpec& spec);

  const ModelSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  TaskDomain domain() const { return spec_.domain; }

  /// Latent domain-affinity vector (unit norm).
  const std::vector<double>& affinity() const { return affinity_; }

  /// Effective capability: spec capability plus deterministic per-model
  /// jitter, clamped to (0, 1).
  double capability() const { return capability_; }

  /// Deterministic seed derived from the model name.
  uint64_t seed() const { return seed_; }

  /// Cosine similarity between this model's affinity and the dataset's
  /// domain vector, in [-1, 1].
  double DomainCosine(const Dataset& dataset) const;

  /// Softmax predictions of the source head over every example of
  /// `dataset`: an examples x num_source_labels row-stochastic matrix.
  /// Fails if the dataset's task domain differs from the model's (a CV
  /// backbone cannot embed text).
  StatusOr<Matrix> PredictDistributions(const Dataset& dataset) const;

  /// Penultimate-layer activations (the source-head logits) for every
  /// example: an examples x num_source_labels matrix. These are the
  /// "features" consumed by feature-based proxies (LogME, kNN).
  /// PredictDistributions is the row-wise softmax of this matrix.
  ///
  /// A batch of one on the stacked forward pass below. The straightforward
  /// AoS loops it was derived from live on as a test oracle
  /// (tests/oracles/reference_forward.h); the differential kernel harness
  /// pins the two bit-identical.
  StatusOr<Matrix> ExtractFeatures(const Dataset& dataset) const;

  /// Stacked forward pass over a wave of models against one dataset:
  /// result[k] is models[k]->ExtractFeatures(dataset), bit for bit. The
  /// wave's dimension-major prototypes are packed side by side into one
  /// kDims x (sum of Z) panel, and a register-blocked kernel multiplies
  /// the dataset's features against it: one product per wave instead of
  /// one per model. Every logit still sums its terms in ascending order
  /// from 0.0, and the per-model head epilogue runs over a scratch buffer
  /// of a few rows, never an n x (sum of Z) buffer. Fails
  /// with the first wrong-domain model's error, the same Status the
  /// one-model call returns. An empty wave yields an empty vector.
  static StatusOr<std::vector<Matrix>> ExtractFeaturesBatch(
      const std::vector<const PretrainedModel*>& models,
      const Dataset& dataset);

  /// The stacked pass with each row softmaxed in place: result[k] is
  /// models[k]->PredictDistributions(dataset), bit for bit.
  static StatusOr<std::vector<Matrix>> PredictDistributionsBatch(
      const std::vector<const PretrainedModel*>& models,
      const Dataset& dataset);

 private:
  /// The test oracle's reference forward pass reads the prototypes, head
  /// parameters and domain check below.
  friend class PretrainedModelTestPeer;

  struct HeadParams {
    double beta = 0.0;
    double separation = 0.0;
    size_t route_offset = 0;
  };

  PretrainedModel() = default;

  /// Deterministic per-(model, dataset) head parameters, shared by the
  /// stacked forward pass and its test oracle (identical Rng draw order).
  HeadParams ComputeHeadParams(const Dataset& dataset) const;

  Status CheckDomain(const Dataset& dataset) const;

  /// The stacked forward pass behind both *Batch entry points; `softmax`
  /// turns logits into predictions row by row.
  static StatusOr<std::vector<Matrix>> ForwardBatch(
      const std::vector<const PretrainedModel*>& models,
      const Dataset& dataset, bool softmax);

  ModelSpec spec_;
  uint64_t seed_ = 0;
  double capability_ = 0.0;
  std::vector<double> affinity_;
  /// Source-label prototype directions, one per source label (unit norm).
  std::vector<std::vector<double>> source_prototypes_;
  /// The same prototypes transposed to dimension-major SoA layout
  /// (proto_soa_[d * Z + z] = source_prototypes_[z][d]): row d is this
  /// model's slice of the stacked forward pass's panel row d.
  std::vector<double> proto_soa_;
};

}  // namespace tps

#endif  // TPS_MODEL_PRETRAINED_MODEL_H_
