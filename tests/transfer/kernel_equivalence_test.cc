// Differential kernel harness: every vectorized (SoA / batched) kernel on
// the proxy-scoring hot path, and the stacked forward pass, is pitted
// against the scalar test oracle it was derived from (tests/oracles/) over
// randomized shapes, adversarial edge cases and every model of both paper
// zoos, and the results must be BIT-IDENTICAL (EXPECT_EQ on doubles, not
// NEAR). This is the contract that lets the batched kernels be the only
// ones in the library without touching a single golden snapshot. Runs the
// comparisons serially and under a ThreadPool (the `kernels` label joins
// the sanitizer matrix, so TSan sweeps the concurrent section).

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clustering/distance.h"
#include "data/dataset.h"
#include "data/registry.h"
#include "matrix/matrix.h"
#include "matrix/vector_ops.h"
#include "model/paper_zoo.h"
#include "model/pretrained_model.h"
#include "model/zoo.h"
#include "tests/oracles/reference_forward.h"
#include "tests/oracles/reference_kernels.h"
#include "transfer/knn_proxy.h"
#include "transfer/leep.h"
#include "transfer/logme.h"
#include "transfer/nce.h"
#include "transfer/proxy_scorer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tps {
namespace {

// --- Shared randomized-input generator -------------------------------------

struct ProxyInputs {
  Matrix predictions;       // Row-stochastic n x Z.
  Matrix features;          // The pre-softmax logits, n x Z.
  std::vector<int> labels;  // In [0, num_target).
  int num_target = 2;
};

/// Randomized proxy inputs. `logit_scale` stretches the logits before the
/// softmax: at ~40 the off-max probabilities land many orders of magnitude
/// below 1 (denormal-adjacent), stressing the accumulation-order proofs
/// exactly where floating point is least forgiving. Degenerate shapes
/// (n == 0, Z == 1, num_target == 1) are legal inputs here; the wrappers
/// decide what is an error, and the oracle runs on what they accept.
ProxyInputs MakeInputs(Rng& rng, size_t n, size_t z, int num_target,
                       double logit_scale) {
  ProxyInputs inputs;
  inputs.num_target = num_target;
  inputs.predictions = Matrix(n, z);
  inputs.features = Matrix(n, z);
  inputs.labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> logits(z);
    for (size_t j = 0; j < z; ++j) {
      logits[j] = logit_scale * rng.Normal();
      inputs.features.At(i, j) = logits[j];
    }
    const std::vector<double> probs = vec::Softmax(logits);
    for (size_t j = 0; j < z; ++j) inputs.predictions.At(i, j) = probs[j];
    inputs.labels[i] =
        num_target > 0 ? static_cast<int>(rng.UniformInt(
                             static_cast<uint64_t>(num_target)))
                       : 0;
  }
  return inputs;
}

/// The shape sweep every differential case runs: small primes, powers of
/// two, single example, single source class, and a shape where
/// num_target > n so some target labels never occur.
struct Shape {
  size_t n;
  size_t z;
  int num_target;
};

const std::vector<Shape>& Shapes() {
  static const std::vector<Shape>* shapes = new std::vector<Shape>{
      {1, 1, 2},  {1, 4, 2},  {2, 2, 2},   {3, 5, 2},   {7, 3, 4},
      {16, 8, 3}, {17, 1, 2}, {31, 16, 7}, {64, 12, 5}, {5, 6, 11},
  };
  return *shapes;
}

/// Production against oracle. The validating wrapper (`production`) is
/// the only validation path, so the oracle kernel runs on exactly the
/// inputs the wrapper accepts, and must then give the same ok-bit, the
/// same status code on error, and bit-identical values on success. A
/// rejection is a wrapper error, and every wrapper error message starts
/// with the proxy's name ("LogME needs ..."). Any other error came from
/// the kernel itself (only LogME's Gram eigendecomposition can fail), so
/// for LogME the kernel-level Status is compared too.
template <typename Oracle>
void ExpectMatchesOracle(const std::string& proxy,
                         const StatusOr<double>& production, Oracle&& oracle,
                         const std::string& what) {
  if (!production.ok() &&
      production.status().message().rfind(proxy + " ", 0) == 0) {
    return;  // Rejected by the wrapper: nothing for the oracle to compute.
  }
  const StatusOr<double> expected = oracle();
  ASSERT_EQ(production.ok(), expected.ok()) << what;
  if (production.ok()) {
    EXPECT_EQ(*production, *expected) << what;
  } else {
    EXPECT_EQ(production.status().code(), expected.status().code()) << what;
  }
}

// The oracle side of each wrapper: the reference kernel on the arguments
// the wrapper hands its production kernel.

StatusOr<double> LeepOracle(const Matrix& predictions,
                            const std::vector<int>& labels, int num_target) {
  return kernels::LeepReference(predictions, labels,
                                static_cast<size_t>(num_target));
}

StatusOr<double> NceOracle(const Matrix& predictions,
                           const std::vector<int>& labels, int num_target) {
  return kernels::NceReference(predictions, labels,
                               static_cast<size_t>(num_target));
}

StatusOr<double> LogMeOracle(const Matrix& features,
                             const std::vector<int>& labels, int num_target) {
  return kernels::LogMeReference(features, labels,
                                 static_cast<size_t>(num_target));
}

/// `k` clamped to [1, n - 1] as KnnLeaveOneOutAccuracy does.
StatusOr<double> KnnOracle(const Matrix& features,
                           const std::vector<int>& labels, int k) {
  return kernels::KnnReference(
      features, labels,
      std::min<size_t>(static_cast<size_t>(k), features.rows() - 1));
}

void ExpectLeepMatchesOracle(const Matrix& predictions,
                             const std::vector<int>& labels, int num_target,
                             const std::string& what) {
  ExpectMatchesOracle(
      "LEEP", LeepFromPredictions(predictions, labels, num_target),
      [&] { return LeepOracle(predictions, labels, num_target); }, what);
}

void ExpectNceMatchesOracle(const Matrix& predictions,
                            const std::vector<int>& labels, int num_target,
                            const std::string& what) {
  ExpectMatchesOracle(
      "NCE", NceFromPredictions(predictions, labels, num_target),
      [&] { return NceOracle(predictions, labels, num_target); }, what);
}

void ExpectLogMeMatchesOracle(const Matrix& features,
                              const std::vector<int>& labels, int num_target,
                              const std::string& what) {
  ExpectMatchesOracle(
      "LogME", LogMeFromFeatures(features, labels, num_target),
      [&] { return LogMeOracle(features, labels, num_target); }, what);
}

void ExpectKnnMatchesOracle(const Matrix& features,
                            const std::vector<int>& labels, int k,
                            const std::string& what) {
  ExpectMatchesOracle(
      "kNN", KnnLeaveOneOutAccuracy(features, labels, k),
      [&] { return KnnOracle(features, labels, k); }, what);
}

std::string ShapeName(const Shape& shape, double scale, uint64_t seed) {
  return "n=" + std::to_string(shape.n) + " z=" + std::to_string(shape.z) +
         " L=" + std::to_string(shape.num_target) +
         " scale=" + std::to_string(scale) + " seed=" + std::to_string(seed);
}

// --- Proxy-score kernels ----------------------------------------------------

class KernelEquivalenceTest : public ::testing::TestWithParam<double> {};

TEST_P(KernelEquivalenceTest, LeepBatchedIsBitIdentical) {
  const double scale = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (const Shape& shape : Shapes()) {
      Rng rng(seed * 7919 + shape.n);
      const ProxyInputs in =
          MakeInputs(rng, shape.n, shape.z, shape.num_target, scale);
      ExpectLeepMatchesOracle(in.predictions, in.labels, in.num_target,
                              "LEEP " + ShapeName(shape, scale, seed));
    }
  }
}

TEST_P(KernelEquivalenceTest, NceBatchedIsBitIdentical) {
  const double scale = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (const Shape& shape : Shapes()) {
      Rng rng(seed * 104729 + shape.z);
      const ProxyInputs in =
          MakeInputs(rng, shape.n, shape.z, shape.num_target, scale);
      ExpectNceMatchesOracle(in.predictions, in.labels, in.num_target,
                             "NCE " + ShapeName(shape, scale, seed));
    }
  }
}

TEST_P(KernelEquivalenceTest, LogMeBatchedIsBitIdentical) {
  const double scale = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (const Shape& shape : Shapes()) {
      Rng rng(seed * 1299709 + shape.n * 31 + shape.z);
      const ProxyInputs in =
          MakeInputs(rng, shape.n, shape.z, shape.num_target, scale);
      ExpectLogMeMatchesOracle(in.features, in.labels, in.num_target,
                               "LogME " + ShapeName(shape, scale, seed));
    }
  }
}

TEST_P(KernelEquivalenceTest, KnnBatchedIsBitIdentical) {
  const double scale = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (const Shape& shape : Shapes()) {
      for (int k : {1, 3, 5, 100}) {  // 100 > n exercises the clamp.
        Rng rng(seed * 15485863 + shape.n + static_cast<uint64_t>(k));
        const ProxyInputs in =
            MakeInputs(rng, shape.n, shape.z, shape.num_target, scale);
        ExpectKnnMatchesOracle(in.features, in.labels, k,
                               "kNN k=" + std::to_string(k) + " " +
                                   ShapeName(shape, scale, seed));
      }
    }
  }
}

// Moderate logits, and extreme logits whose softmax probabilities are
// denormal-adjacent.
INSTANTIATE_TEST_SUITE_P(LogitScales, KernelEquivalenceTest,
                         ::testing::Values(2.0, 40.0));

// --- Error-path equivalence -------------------------------------------------

TEST(KernelEquivalenceEdgeTest, DegenerateInputsFailIdenticallyInBothModes) {
  Rng rng(42);
  // Empty batch.
  const ProxyInputs empty = MakeInputs(rng, 0, 3, 2, 2.0);
  // Target class count of 1 (LEEP/NCE/LogME reject; kNN accepts and the
  // oracle must agree).
  const ProxyInputs one_class = MakeInputs(rng, 8, 3, 1, 2.0);
  // Single example (kNN needs a neighbour).
  const ProxyInputs lonely = MakeInputs(rng, 1, 3, 2, 2.0);
  // Mismatched label vector.
  const ProxyInputs ragged = [&] {
    ProxyInputs in = MakeInputs(rng, 6, 3, 2, 2.0);
    in.labels.pop_back();
    return in;
  }();

  for (const ProxyInputs* in : {&empty, &one_class, &lonely, &ragged}) {
    ExpectLeepMatchesOracle(in->predictions, in->labels, in->num_target,
                            "LEEP edge");
    ExpectNceMatchesOracle(in->predictions, in->labels, in->num_target,
                           "NCE edge");
    ExpectLogMeMatchesOracle(in->features, in->labels, in->num_target,
                             "LogME edge");
    ExpectKnnMatchesOracle(in->features, in->labels, 3, "kNN edge");
  }
}

TEST(KernelEquivalenceEdgeTest, TiedAndDuplicateRowsAgree) {
  // Exact duplicates and perfect argmax ties are where an accidental
  // reordering of comparisons would first change a result (NCE's first-max
  // rule, kNN's distance-then-index tie break).
  auto predictions = *Matrix::FromRows({{0.25, 0.25, 0.25, 0.25},
                                        {0.25, 0.25, 0.25, 0.25},
                                        {0.4, 0.4, 0.1, 0.1},
                                        {0.4, 0.4, 0.1, 0.1},
                                        {0.1, 0.4, 0.4, 0.1}});
  const std::vector<int> labels = {0, 1, 0, 1, 1};
  ExpectNceMatchesOracle(predictions, labels, 2, "NCE ties");
  ExpectLeepMatchesOracle(predictions, labels, 2, "LEEP ties");
  ExpectKnnMatchesOracle(predictions, labels, 2, "kNN duplicate rows");
}

// --- Forward-pass (SoA) and vector-helper pairs -----------------------------

StatusOr<Dataset> MakeTarget(int num_labels, int num_examples) {
  DatasetSpec spec;
  spec.name = "kernel-diff-target";
  spec.num_labels = num_labels;
  spec.num_examples = num_examples;
  spec.tags = {"news", "reviews"};
  return Dataset::Create(spec);
}

StatusOr<PretrainedModel> MakeModel(int num_source_labels) {
  ModelSpec spec;
  spec.name = "kernel-diff-model";
  spec.capability = 0.7;
  spec.num_source_labels = num_source_labels;
  spec.pretrain_tags = {"english", "news"};
  return PretrainedModel::Create(spec);
}

void ExpectMatricesBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a.At(i, j), b.At(i, j)) << "(" << i << ", " << j << ")";
    }
  }
}

TEST(ForwardPassEquivalenceTest, SoAForwardPassMatchesReference) {
  for (int num_labels : {2, 3, 7}) {
    for (int source_labels : {2, 5, 16}) {
      auto target = MakeTarget(num_labels, 64);
      ASSERT_TRUE(target.ok());
      auto model = MakeModel(source_labels);
      ASSERT_TRUE(model.ok());

      auto features = model->ExtractFeatures(*target);
      auto features_ref =
          PretrainedModelTestPeer::ExtractFeaturesReference(*model, *target);
      ASSERT_TRUE(features.ok());
      ASSERT_TRUE(features_ref.ok());
      ExpectMatricesBitIdentical(*features, *features_ref);

      auto predictions = model->PredictDistributions(*target);
      auto predictions_ref =
          PretrainedModelTestPeer::PredictDistributionsReference(*model,
                                                                 *target);
      ASSERT_TRUE(predictions.ok());
      ASSERT_TRUE(predictions_ref.ok());
      ExpectMatricesBitIdentical(*predictions, *predictions_ref);
    }
  }
}

// --- Stacked forward pass vs the per-model reference -----------------------

// A probe wave mixing source-label counts, so panel columns of different
// models share register blocks and the padded tail is exercised.
const std::vector<int>& WaveLabelCounts() {
  static const std::vector<int> counts = {2, 3, 7, 16, 31};
  return counts;
}

StatusOr<PretrainedModel> MakeWaveModel(int index, int num_source_labels,
                                        TaskDomain domain) {
  ModelSpec spec;
  spec.name = "stacked-wave-model-" + std::to_string(index);
  spec.domain = domain;
  spec.capability = 0.4 + 0.1 * static_cast<double>(index % 5);
  spec.num_source_labels = num_source_labels;
  spec.pretrain_tags = {"english", index % 2 == 0 ? "news" : "reviews"};
  return PretrainedModel::Create(spec);
}

std::vector<PretrainedModel> MakeWave(TaskDomain domain) {
  std::vector<PretrainedModel> models;
  for (size_t i = 0; i < WaveLabelCounts().size(); ++i) {
    auto model = MakeWaveModel(static_cast<int>(i), WaveLabelCounts()[i],
                               domain);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    if (model.ok()) models.push_back(std::move(*model));
  }
  return models;
}

std::vector<const PretrainedModel*> Pointers(
    const std::vector<PretrainedModel>& models) {
  std::vector<const PretrainedModel*> pointers;
  for (const PretrainedModel& model : models) pointers.push_back(&model);
  return pointers;
}

// Every example count a 3-row register block can leave as a remainder,
// around the 256 the paper inventory uses.
const std::vector<int>& WaveExampleCounts() {
  static const std::vector<int> counts = {1, 2, 3, 255, 256, 257};
  return counts;
}

TEST(StackedForwardPassTest, MatchesPerModelReferenceOverMixedWave) {
  const std::vector<PretrainedModel> models = MakeWave(TaskDomain::kNLP);
  ASSERT_EQ(models.size(), WaveLabelCounts().size());
  const std::vector<const PretrainedModel*> wave = Pointers(models);
  for (int n : WaveExampleCounts()) {
    auto target = MakeTarget(3, n);
    ASSERT_TRUE(target.ok());
    auto features = PretrainedModel::ExtractFeaturesBatch(wave, *target);
    auto predictions =
        PretrainedModel::PredictDistributionsBatch(wave, *target);
    ASSERT_TRUE(features.ok()) << features.status().ToString();
    ASSERT_TRUE(predictions.ok()) << predictions.status().ToString();
    EXPECT_EQ(features->size(), wave.size());
    EXPECT_EQ(predictions->size(), wave.size());
    for (size_t k = 0; k < wave.size() && k < features->size() &&
                       k < predictions->size();
         ++k) {
      SCOPED_TRACE("n=" + std::to_string(n) + " model " + std::to_string(k));
      auto features_ref =
          PretrainedModelTestPeer::ExtractFeaturesReference(*wave[k], *target);
      auto predictions_ref =
          PretrainedModelTestPeer::PredictDistributionsReference(*wave[k],
                                                                 *target);
      ASSERT_TRUE(features_ref.ok());
      ASSERT_TRUE(predictions_ref.ok());
      ExpectMatricesBitIdentical((*features)[k], *features_ref);
      ExpectMatricesBitIdentical((*predictions)[k], *predictions_ref);
    }
  }
}

TEST(StackedForwardPassTest, OneModelAndEmptyWaves) {
  const std::vector<PretrainedModel> models = MakeWave(TaskDomain::kNLP);
  ASSERT_FALSE(models.empty());
  auto target = MakeTarget(4, 257);
  ASSERT_TRUE(target.ok());
  for (const PretrainedModel& model : models) {
    auto stacked =
        PretrainedModel::PredictDistributionsBatch({&model}, *target);
    auto reference =
        PretrainedModelTestPeer::PredictDistributionsReference(model, *target);
    ASSERT_TRUE(stacked.ok());
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(stacked->size(), 1u);
    if (stacked->size() == 1) {
      ExpectMatricesBitIdentical((*stacked)[0], *reference);
    }
    // The single-model entry points are a batch of one.
    auto single = model.PredictDistributions(*target);
    ASSERT_TRUE(single.ok());
    ExpectMatricesBitIdentical(*single, *reference);
  }
  auto empty_features = PretrainedModel::ExtractFeaturesBatch({}, *target);
  auto empty_predictions =
      PretrainedModel::PredictDistributionsBatch({}, *target);
  ASSERT_TRUE(empty_features.ok());
  ASSERT_TRUE(empty_predictions.ok());
  EXPECT_EQ(empty_features->size(), 0u);
  EXPECT_EQ(empty_predictions->size(), 0u);
}

TEST(StackedForwardPassTest, WrongDomainModelFailsLikeThePerModelCall) {
  std::vector<PretrainedModel> models = MakeWave(TaskDomain::kNLP);
  auto cv_model = MakeWaveModel(99, 5, TaskDomain::kCV);
  ASSERT_TRUE(cv_model.ok());
  // The CV model sits mid-wave: the wave fails with its error, exactly.
  models.insert(models.begin() + 2, std::move(*cv_model));
  const std::vector<const PretrainedModel*> wave = Pointers(models);
  auto target = MakeTarget(3, 64);
  ASSERT_TRUE(target.ok());
  const Status expected = wave[2]->ExtractFeatures(*target).status();
  EXPECT_EQ(expected.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(PretrainedModelTestPeer::PredictDistributionsReference(*wave[2],
                                                                   *target)
                .status()
                .code(),
            expected.code());
  for (bool softmax : {false, true}) {
    auto stacked =
        softmax ? PretrainedModel::PredictDistributionsBatch(wave, *target)
                : PretrainedModel::ExtractFeaturesBatch(wave, *target);
    ASSERT_FALSE(stacked.ok());
    EXPECT_EQ(stacked.status().code(), expected.code());
    EXPECT_EQ(stacked.status().message(), expected.message());
  }
}

TEST(StackedForwardPassTest, EveryScorerBatchMatchesItsScoreLoop) {
  const std::vector<PretrainedModel> models = MakeWave(TaskDomain::kNLP);
  const std::vector<const PretrainedModel*> wave = Pointers(models);
  auto cv_model = MakeWaveModel(99, 5, TaskDomain::kCV);
  ASSERT_TRUE(cv_model.ok());
  const std::vector<const PretrainedModel*> mixed = [&] {
    std::vector<const PretrainedModel*> out = wave;
    out.insert(out.begin() + 3, &*cv_model);
    return out;
  }();
  for (int n : {3, 257}) {
    auto target = MakeTarget(3, n);
    ASSERT_TRUE(target.ok());
    for (const char* name : {"leep", "nce", "logme", "knn"}) {
      SCOPED_TRACE(std::string(name) + " n=" + std::to_string(n));
      auto scorer = MakeProxyScorer(name);
      ASSERT_TRUE(scorer.ok());
      // ScoreBatch is defined as the Score loop, stopping at the first
      // failing model: same scores, or the same error.
      for (const std::vector<const PretrainedModel*>* models :
           {&wave, &mixed}) {
        std::vector<double> loop;
        Status loop_error;
        for (const PretrainedModel* model : *models) {
          auto single = (*scorer)->Score(*model, *target);
          if (!single.ok()) {
            loop_error = single.status();
            break;
          }
          loop.push_back(*single);
        }
        auto batch = (*scorer)->ScoreBatch(*models, *target);
        EXPECT_EQ(batch.ok(), loop_error.ok());
        if (batch.ok()) {
          EXPECT_EQ(*batch, loop);
        } else {
          EXPECT_EQ(batch.status().code(), loop_error.code());
          EXPECT_EQ(batch.status().message(), loop_error.message());
        }
      }
      EXPECT_FALSE((*scorer)->ScoreBatch(mixed, *target).ok());
    }
  }
}

TEST(VectorHelperEquivalenceTest, InPlaceHelpersMatchAllocatingOnes) {
  Rng rng(7);
  for (size_t n : {size_t{1}, size_t{2}, size_t{5}, size_t{64}}) {
    std::vector<double> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Normal() * 3.0;
      b[i] = rng.Normal() * 3.0;
    }

    // SoftmaxInPlace vs Softmax.
    std::vector<double> in_place = a;
    vec::SoftmaxInPlace(in_place.data(), in_place.size());
    EXPECT_EQ(in_place, vec::Softmax(a));

    // MeanOfTopKInPlace vs MeanOfTopK.
    for (size_t k : {size_t{0}, size_t{1}, size_t{3}, n, n + 5}) {
      std::vector<double> scratch = a;
      EXPECT_EQ(vec::MeanOfTopKInPlace(scratch.data(), scratch.size(), k),
                vec::MeanOfTopK(a, k));
    }

    // AbsDiffInto vs AbsDiff.
    std::vector<double> out(n);
    vec::AbsDiffInto(a.data(), b.data(), n, out.data());
    EXPECT_EQ(out, vec::AbsDiff(a, b));

    // Scratch-based PerformanceSimilarity vs the vector overload.
    std::vector<double> scratch;
    for (size_t top_k : {size_t{1}, size_t{3}, n}) {
      EXPECT_EQ(
          PerformanceSimilarity(a.data(), b.data(), n, top_k, scratch),
          PerformanceSimilarity(a, b, top_k));
    }
  }
  // Empty input.
  std::vector<double> scratch;
  EXPECT_EQ(vec::MeanOfTopKInPlace(scratch.data(), 0, 3), 0.0);
  vec::SoftmaxInPlace(scratch.data(), 0);  // Must not crash.
}

// --- Scorer batching and parallel execution ---------------------------------

TEST(ScoreBatchEquivalenceTest, ScoreBatchMatchesScoreLoop) {
  auto target = MakeTarget(3, 48);
  ASSERT_TRUE(target.ok());
  std::vector<PretrainedModel> models;
  for (int s : {3, 5, 9}) {
    auto model = MakeModel(s);
    ASSERT_TRUE(model.ok());
    models.push_back(std::move(*model));
  }
  std::vector<const PretrainedModel*> pointers;
  for (const PretrainedModel& m : models) pointers.push_back(&m);

  for (const char* name : {"leep", "nce", "logme", "knn"}) {
    auto scorer = MakeProxyScorer(name);
    ASSERT_TRUE(scorer.ok());
    auto batch = (*scorer)->ScoreBatch(pointers, *target);
    ASSERT_TRUE(batch.ok()) << name;
    ASSERT_EQ(batch->size(), pointers.size());
    for (size_t i = 0; i < pointers.size(); ++i) {
      auto single = (*scorer)->Score(*pointers[i], *target);
      ASSERT_TRUE(single.ok()) << name;
      EXPECT_EQ((*batch)[i], *single) << name << " model " << i;
    }
  }
}

// --- Paper zoos: every score recall can consume ----------------------------

/// The oracle scores of one model on one target, in the order of
/// `proxies`: the reference forward pass, then each reference kernel.
/// Paper-zoo inputs pass every wrapper's validation, so the oracle needs
/// none.
StatusOr<std::vector<double>> OracleScores(
    const std::vector<std::string>& proxies, const PretrainedModel& model,
    const Dataset& target) {
  const std::vector<int> labels = TargetLabels(target);
  const int num_target = target.spec().num_labels;
  TPS_ASSIGN_OR_RETURN(
      Matrix features,
      PretrainedModelTestPeer::ExtractFeaturesReference(model, target));
  TPS_ASSIGN_OR_RETURN(
      Matrix predictions,
      PretrainedModelTestPeer::PredictDistributionsReference(model, target));
  std::vector<double> scores;
  for (const std::string& proxy : proxies) {
    StatusOr<double> score =
        proxy == "leep"    ? LeepOracle(predictions, labels, num_target)
        : proxy == "nce"   ? NceOracle(predictions, labels, num_target)
        : proxy == "logme" ? LogMeOracle(features, labels, num_target)
                           : KnnOracle(features, labels, /*k=*/5);
    TPS_RETURN_NOT_OK(score.status());
    scores.push_back(*score);
  }
  return scores;
}

TEST(PaperZooOracleTest, ScoreBatchOverWholeZooMatchesOracleScores) {
  // Both paper zoos x every target x the four proxies: the production
  // ScoreBatch over the whole zoo (one stacked forward pass, batched
  // kernels) == each model's oracle score (reference forward pass,
  // reference kernel). That covers every score recall can consume on
  // these zoos, representatives or not.
  const std::vector<std::string> proxies = {"leep", "nce", "logme", "knn"};
  auto registry = DatasetRegistry::CreatePaperInventory();
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  for (TaskDomain domain : {TaskDomain::kNLP, TaskDomain::kCV}) {
    auto zoo = ModelZoo::Create(domain == TaskDomain::kNLP
                                    ? NlpPaperZooSpecs()
                                    : CvPaperZooSpecs());
    ASSERT_TRUE(zoo.ok()) << zoo.status().ToString();
    std::vector<const PretrainedModel*> models;
    for (const PretrainedModel& model : zoo->models()) {
      models.push_back(&model);
    }
    for (const Dataset* target : registry->Targets(domain)) {
      std::vector<std::vector<double>> batches;
      for (const std::string& proxy : proxies) {
        auto scorer = MakeProxyScorer(proxy);
        ASSERT_TRUE(scorer.ok());
        auto batch = (*scorer)->ScoreBatch(models, *target);
        ASSERT_TRUE(batch.ok()) << proxy << " " << target->name() << ": "
                                << batch.status().ToString();
        ASSERT_EQ(batch->size(), models.size());
        batches.push_back(std::move(*batch));
      }
      for (size_t m = 0; m < models.size(); ++m) {
        auto oracle = OracleScores(proxies, *models[m], *target);
        ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
        for (size_t p = 0; p < proxies.size(); ++p) {
          EXPECT_EQ(batches[p][m], (*oracle)[p])
              << proxies[p] << " " << target->name() << " "
              << models[m]->name();
        }
      }
    }
  }
}

TEST(ParallelKernelEquivalenceTest, ConcurrentBatchedRunsStayBitIdentical) {
  // The batched kernels keep no shared mutable state; N threads computing
  // the same scores must agree bit-for-bit with the serial answer (and
  // TSan must stay quiet — this test rides the sanitizer matrix).
  Rng rng(1234);
  const ProxyInputs in = MakeInputs(rng, 48, 9, 4, 2.0);

  const StatusOr<double> leep_serial =
      LeepFromPredictions(in.predictions, in.labels, in.num_target);
  const StatusOr<double> nce_serial =
      NceFromPredictions(in.predictions, in.labels, in.num_target);
  const StatusOr<double> logme_serial =
      LogMeFromFeatures(in.features, in.labels, in.num_target);
  const StatusOr<double> knn_serial =
      KnnLeaveOneOutAccuracy(in.features, in.labels, 5);
  ASSERT_TRUE(leep_serial.ok() && nce_serial.ok() && logme_serial.ok() &&
              knn_serial.ok());

  constexpr size_t kTrials = 32;
  std::vector<double> leep(kTrials), nce(kTrials), logme(kTrials),
      knn(kTrials);
  ThreadPool pool(4);
  pool.ParallelFor(kTrials, [&](size_t t) {
    leep[t] = *LeepFromPredictions(in.predictions, in.labels, in.num_target);
    nce[t] = *NceFromPredictions(in.predictions, in.labels, in.num_target);
    logme[t] = *LogMeFromFeatures(in.features, in.labels, in.num_target);
    knn[t] = *KnnLeaveOneOutAccuracy(in.features, in.labels, 5);
  });
  for (size_t t = 0; t < kTrials; ++t) {
    EXPECT_EQ(leep[t], *leep_serial);
    EXPECT_EQ(nce[t], *nce_serial);
    EXPECT_EQ(logme[t], *logme_serial);
    EXPECT_EQ(knn[t], *knn_serial);
  }
}

}  // namespace
}  // namespace tps
