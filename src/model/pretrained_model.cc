#include "model/pretrained_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "data/latent.h"
#include "matrix/vector_ops.h"
#include "util/rng.h"
#include "util/stats.h"

namespace tps {

namespace {
// Affinity mixture weights.
constexpr double kPretrainWeight = 0.7;
constexpr double kModelNoiseWeight = 0.10;
// Predictive-head geometry: source prototypes mirror the dataset example
// mixture so that cross dot-products carry label signal.
constexpr double kHeadAffinityWeight = 0.45;
constexpr double kHeadLabelWeight = 0.9;
// Sharpness = kBetaBase + kBetaScale * capability * max(0, domain cosine),
// times a per-(model, dataset) idiosyncratic log-normal factor.
constexpr double kBetaBase = 2.0;
constexpr double kBetaScale = 36.0;
constexpr double kBetaIdiosyncrasy = 0.10;
// Class-separation term: a transferable model's representation clusters
// target examples by their true class (the empirical regularity LEEP, kNN
// and LogME all exploit). Each target label y is routed to a fixed,
// model-specific source label sigma(y); the routing logit scales with
// capability * alignment.
constexpr double kSeparationScale = 7.0;
constexpr double kSeparationIdiosyncrasy = 0.12;

// Register block of the stacked forward pass: kBlockRows examples x
// kBlockCols panel columns of logits stay in accumulators for the whole
// kDims-term reduction — 12 two-lane registers at 3 x 8, which fits the 16
// of baseline x86-64.
constexpr size_t kBlockRows = 3;
constexpr size_t kBlockCols = 8;

// Two doubles in one register. Lane arithmetic is the scalar IEEE multiply
// and add; nothing here asks for a fused multiply-add.
typedef double Lanes __attribute__((vector_size(2 * sizeof(double))));
constexpr size_t kLaneCols = kBlockCols / 2;

// One kRows x kBlockCols block of raw logits:
// out[r * stride + j] = sum_d features[r][d] * panel[d * stride + j], each
// sum accumulated from 0.0 in ascending d — vec::Dot's order, term for
// term, so the block is bit-identical to the per-model loops. The unroll
// pragmas keep the accumulators in registers at -O2 as well as -O3.
template <size_t kRows>
void LogitBlock(const double* const* features, const double* panel,
                size_t stride, double* out) {
  Lanes acc[kRows][kLaneCols];
#pragma GCC unroll 8
  for (size_t r = 0; r < kRows; ++r) {
#pragma GCC unroll 8
    for (size_t v = 0; v < kLaneCols; ++v) acc[r][v] = Lanes{0.0, 0.0};
  }
  for (size_t d = 0; d < latent::kDims; ++d) {
    Lanes p[kLaneCols];
#pragma GCC unroll 8
    for (size_t v = 0; v < kLaneCols; ++v) {
      std::memcpy(&p[v], panel + d * stride + 2 * v, sizeof(Lanes));
    }
#pragma GCC unroll 8
    for (size_t r = 0; r < kRows; ++r) {
      const Lanes f = {features[r][d], features[r][d]};
#pragma GCC unroll 8
      for (size_t v = 0; v < kLaneCols; ++v) acc[r][v] += f * p[v];
    }
  }
#pragma GCC unroll 8
  for (size_t r = 0; r < kRows; ++r) {
#pragma GCC unroll 8
    for (size_t v = 0; v < kLaneCols; ++v) {
      std::memcpy(out + r * stride + 2 * v, &acc[r][v], sizeof(Lanes));
    }
  }
}
}  // namespace

StatusOr<PretrainedModel> PretrainedModel::Create(const ModelSpec& spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("model name must not be empty");
  }
  if (spec.capability <= 0.0 || spec.capability >= 1.0) {
    return Status::InvalidArgument("model " + spec.name +
                                   " capability must be in (0, 1)");
  }
  if (spec.num_source_labels < 2) {
    return Status::InvalidArgument("model " + spec.name +
                                   " needs at least 2 source labels");
  }
  if (spec.finetune_strength < 0.0 || spec.finetune_strength > 1.0) {
    return Status::InvalidArgument("model " + spec.name +
                                   " finetune_strength must be in [0, 1]");
  }

  PretrainedModel model;
  model.spec_ = spec;
  model.seed_ = latent::HashString(spec.name);

  Rng jitter_rng(latent::CombineSeeds(model.seed_,
                                      latent::HashString("capability")));
  model.capability_ =
      stats::Clamp(spec.capability + 0.02 * jitter_rng.Normal(), 0.05, 0.98);

  // Affinity: pretraining direction + optional fine-tune direction +
  // per-model idiosyncratic noise. The architecture family contributes its
  // own direction (inductive biases shape a model's transfer profile —
  // PoolFormers transfer alike, ViTs alike), which is what lets family
  // groups co-cluster in Table II even without a shared fine-tune dataset.
  std::vector<std::string> base_tags = spec.pretrain_tags;
  base_tags.push_back("family-" + spec.family);
  std::vector<double> base = latent::MixTags(
      base_tags, /*noise_scale=*/0.08,
      latent::CombineSeeds(model.seed_, latent::HashString("pretrain")));
  std::vector<double> affinity = vec::Scale(base, kPretrainWeight);
  if (!spec.finetune_tags.empty() && spec.finetune_strength > 0.0) {
    std::vector<double> ft = latent::MixTags(
        spec.finetune_tags, /*noise_scale=*/0.08,
        latent::CombineSeeds(model.seed_, latent::HashString("finetune")));
    affinity = vec::Add(affinity, vec::Scale(ft, spec.finetune_strength));
  }
  Rng noise_rng(latent::CombineSeeds(model.seed_,
                                     latent::HashString("affinity-noise")));
  std::vector<double> idio(latent::kDims);
  for (double& v : idio) v = noise_rng.Normal();
  vec::NormalizeInPlace(idio);
  for (size_t i = 0; i < latent::kDims; ++i) {
    affinity[i] += kModelNoiseWeight * idio[i];
  }
  vec::NormalizeInPlace(affinity);
  model.affinity_ = std::move(affinity);

  // Prototypes are written straight into the dimension-major layout the
  // stacked forward pass reads.
  const size_t num_protos = static_cast<size_t>(spec.num_source_labels);
  model.proto_soa_.resize(latent::kDims * num_protos);
  for (size_t z = 0; z < num_protos; ++z) {
    std::vector<double> proto = latent::LabelVector(
        latent::CombineSeeds(model.seed_, latent::HashString("head")),
        static_cast<int>(z));
    // Head prototype = affinity-anchored + label-specific direction, same
    // mixture shape as dataset examples.
    std::vector<double> psi(latent::kDims);
    for (size_t d = 0; d < latent::kDims; ++d) {
      psi[d] = kHeadAffinityWeight * model.affinity_[d] +
               kHeadLabelWeight * proto[d];
    }
    vec::NormalizeInPlace(psi);
    for (size_t d = 0; d < latent::kDims; ++d) {
      model.proto_soa_[d * num_protos + z] = psi[d];
    }
  }
  return model;
}

double PretrainedModel::DomainCosine(const Dataset& dataset) const {
  return vec::CosineSimilarity(affinity_, dataset.domain_vector());
}

Status PretrainedModel::CheckDomain(const Dataset& dataset) const {
  if (dataset.spec().domain != spec_.domain) {
    return Status::InvalidArgument(
        "model " + spec_.name + " (" + ToString(spec_.domain) +
        ") cannot embed dataset " + dataset.name() + " (" +
        ToString(dataset.spec().domain) + ")");
  }
  return Status::OK();
}

PretrainedModel::HeadParams PretrainedModel::ComputeHeadParams(
    const Dataset& dataset) const {
  // Smooth alignment curve: even an off-domain (cos ~ 0) model extracts
  // somewhat-discriminative features if it is capable; a strongly
  // misaligned one does not.
  const double align =
      std::pow(latent::AffinityFromCosine(DomainCosine(dataset)), 2.0);
  Rng rng(latent::CombineSeeds(seed_, dataset.seed()));
  const double idiosyncrasy = std::exp(kBetaIdiosyncrasy * rng.Normal());
  HeadParams params;
  params.beta = (kBetaBase + kBetaScale * capability_ * align) * idiosyncrasy;
  params.separation = kSeparationScale * capability_ * align *
                      std::exp(kSeparationIdiosyncrasy * rng.Normal());
  // Model-specific routing of target labels onto source labels. The offset
  // is a deterministic function of (model, dataset) so predictions stay
  // consistent across calls.
  params.route_offset =
      rng.Next() % static_cast<size_t>(spec_.num_source_labels);
  return params;
}

StatusOr<std::vector<Matrix>> PretrainedModel::ForwardBatch(
    const std::vector<const PretrainedModel*>& models, const Dataset& dataset,
    bool softmax) {
  for (const PretrainedModel* model : models) {
    TPS_RETURN_NOT_OK(model->CheckDomain(dataset));
  }
  // Pack the wave's dimension-major prototypes side by side: model k owns
  // panel columns [offset[k], offset[k + 1]). The stride is padded to the
  // register block with zero columns whose logits are never read.
  const size_t num_models = models.size();
  std::vector<size_t> offset(num_models + 1, 0);
  for (size_t k = 0; k < num_models; ++k) {
    offset[k + 1] = offset[k] +
                    static_cast<size_t>(models[k]->spec_.num_source_labels);
  }
  const size_t stride =
      (offset.back() + kBlockCols - 1) / kBlockCols * kBlockCols;
  std::vector<double> panel(latent::kDims * stride, 0.0);
  for (size_t k = 0; k < num_models; ++k) {
    const size_t z_count = offset[k + 1] - offset[k];
    const double* soa = models[k]->proto_soa_.data();
    for (size_t d = 0; d < latent::kDims; ++d) {
      std::copy(soa + d * z_count, soa + (d + 1) * z_count,
                panel.data() + d * stride + offset[k]);
    }
  }
  std::vector<HeadParams> params(num_models);
  std::vector<Matrix> out;
  out.reserve(num_models);
  for (size_t k = 0; k < num_models; ++k) {
    params[k] = models[k]->ComputeHeadParams(dataset);
    out.emplace_back(dataset.size(), offset[k + 1] - offset[k]);
  }

  // Row block by row block: the register-blocked product fills `scratch`
  // (kBlockRows x stride), then each model's head epilogue — the same
  // expression as the reference — and the optional in-place softmax write
  // its rows of the output.
  const std::vector<Example>& examples = dataset.examples();
  std::vector<double> scratch(kBlockRows * stride);
  for (size_t row0 = 0; row0 < examples.size(); row0 += kBlockRows) {
    const size_t rows = std::min(kBlockRows, examples.size() - row0);
    const double* features[kBlockRows];
    for (size_t r = 0; r < rows; ++r) {
      features[r] = examples[row0 + r].features.data();
    }
    for (size_t col = 0; col < stride; col += kBlockCols) {
      const double* panel_cols = panel.data() + col;
      double* out_cols = scratch.data() + col;
      switch (rows) {
        case 3:
          LogitBlock<3>(features, panel_cols, stride, out_cols);
          break;
        case 2:
          LogitBlock<2>(features, panel_cols, stride, out_cols);
          break;
        default:
          LogitBlock<1>(features, panel_cols, stride, out_cols);
          break;
      }
    }
    for (size_t k = 0; k < num_models; ++k) {
      const size_t z_count = offset[k + 1] - offset[k];
      const HeadParams& head = params[k];
      for (size_t r = 0; r < rows; ++r) {
        const size_t routed =
            (static_cast<size_t>(examples[row0 + r].label) +
             head.route_offset) %
            z_count;
        const double* raw = scratch.data() + r * stride + offset[k];
        double* row = out[k].data().data() + (row0 + r) * z_count;
        for (size_t z = 0; z < z_count; ++z) {
          row[z] = head.beta * raw[z] + (z == routed ? head.separation : 0.0);
        }
        // Same max-subtraction/exp/normalize order as vec::Softmax.
        if (softmax) vec::SoftmaxInPlace(row, z_count);
      }
    }
  }
  return out;
}

StatusOr<std::vector<Matrix>> PretrainedModel::ExtractFeaturesBatch(
    const std::vector<const PretrainedModel*>& models,
    const Dataset& dataset) {
  return ForwardBatch(models, dataset, /*softmax=*/false);
}

StatusOr<std::vector<Matrix>> PretrainedModel::PredictDistributionsBatch(
    const std::vector<const PretrainedModel*>& models,
    const Dataset& dataset) {
  return ForwardBatch(models, dataset, /*softmax=*/true);
}

StatusOr<Matrix> PretrainedModel::ExtractFeatures(
    const Dataset& dataset) const {
  TPS_ASSIGN_OR_RETURN(std::vector<Matrix> features,
                       ExtractFeaturesBatch({this}, dataset));
  return std::move(features[0]);
}

StatusOr<Matrix> PretrainedModel::PredictDistributions(
    const Dataset& dataset) const {
  TPS_ASSIGN_OR_RETURN(std::vector<Matrix> predictions,
                       PredictDistributionsBatch({this}, dataset));
  return std::move(predictions[0]);
}

}  // namespace tps
