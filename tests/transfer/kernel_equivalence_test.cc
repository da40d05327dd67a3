// Differential kernel harness: every vectorized (SoA / batched) kernel on
// the proxy-scoring hot path is pitted against the retained reference
// implementation over randomized shapes and adversarial edge cases, and
// the results must be BIT-IDENTICAL (EXPECT_EQ on doubles, not NEAR).
// This is the contract that lets the batched kernels ship as the default
// without touching a single golden snapshot. Runs the comparisons serially
// and under a ThreadPool (the `kernels` label joins the sanitizer matrix,
// so TSan sweeps the concurrent section).

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clustering/distance.h"
#include "data/dataset.h"
#include "matrix/matrix.h"
#include "matrix/vector_ops.h"
#include "model/pretrained_model.h"
#include "transfer/kernels.h"
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
/// decide what is an error, and the harness asserts BOTH kernel modes
/// agree on that too.
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

/// Both kernel modes must produce the same ok-bit, the same status code on
/// error, and bit-identical values on success.
template <typename Fn>
void ExpectModesAgree(Fn&& run, const std::string& what) {
  const StatusOr<double> reference = run(kernels::KernelMode::kReference);
  const StatusOr<double> batched = run(kernels::KernelMode::kBatched);
  ASSERT_EQ(reference.ok(), batched.ok()) << what;
  if (reference.ok()) {
    EXPECT_EQ(*reference, *batched) << what;
  } else {
    EXPECT_EQ(reference.status().code(), batched.status().code()) << what;
  }
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
      ExpectModesAgree(
          [&](kernels::KernelMode mode) {
            return LeepFromPredictions(in.predictions, in.labels,
                                       in.num_target, mode);
          },
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
      ExpectModesAgree(
          [&](kernels::KernelMode mode) {
            return NceFromPredictions(in.predictions, in.labels,
                                      in.num_target, mode);
          },
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
      ExpectModesAgree(
          [&](kernels::KernelMode mode) {
            return LogMeFromFeatures(in.features, in.labels, in.num_target,
                                     mode);
          },
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
        ExpectModesAgree(
            [&](kernels::KernelMode mode) {
              return KnnLeaveOneOutAccuracy(in.features, in.labels, k, mode);
            },
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
  // Target class count of 1 (LEEP/NCE reject; the harness only demands
  // both modes agree).
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
    ExpectModesAgree(
        [&](kernels::KernelMode mode) {
          return LeepFromPredictions(in->predictions, in->labels,
                                     in->num_target, mode);
        },
        "LEEP edge");
    ExpectModesAgree(
        [&](kernels::KernelMode mode) {
          return NceFromPredictions(in->predictions, in->labels,
                                    in->num_target, mode);
        },
        "NCE edge");
    ExpectModesAgree(
        [&](kernels::KernelMode mode) {
          return LogMeFromFeatures(in->features, in->labels, in->num_target,
                                   mode);
        },
        "LogME edge");
    ExpectModesAgree(
        [&](kernels::KernelMode mode) {
          return KnnLeaveOneOutAccuracy(in->features, in->labels, 3, mode);
        },
        "kNN edge");
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
  ExpectModesAgree(
      [&](kernels::KernelMode mode) {
        return NceFromPredictions(predictions, labels, 2, mode);
      },
      "NCE ties");
  ExpectModesAgree(
      [&](kernels::KernelMode mode) {
        return LeepFromPredictions(predictions, labels, 2, mode);
      },
      "LEEP ties");
  ExpectModesAgree(
      [&](kernels::KernelMode mode) {
        return KnnLeaveOneOutAccuracy(predictions, labels, 2, mode);
      },
      "kNN duplicate rows");
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
      auto features_ref = model->ExtractFeaturesReference(*target);
      ASSERT_TRUE(features.ok());
      ASSERT_TRUE(features_ref.ok());
      ExpectMatricesBitIdentical(*features, *features_ref);

      auto predictions = model->PredictDistributions(*target);
      auto predictions_ref = model->PredictDistributionsReference(*target);
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
      auto features_ref = wave[k]->ExtractFeaturesReference(*target);
      auto predictions_ref = wave[k]->PredictDistributionsReference(*target);
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
    auto reference = model.PredictDistributionsReference(*target);
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
  EXPECT_EQ(wave[2]->PredictDistributionsReference(*target).status().code(),
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
      for (kernels::KernelMode mode : {kernels::KernelMode::kReference,
                                       kernels::KernelMode::kBatched}) {
        SCOPED_TRACE(std::string(name) + " n=" + std::to_string(n) +
                     " mode " + kernels::ToString(mode));
        auto scorer = MakeProxyScorer(name, mode);
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
    for (kernels::KernelMode mode :
         {kernels::KernelMode::kReference, kernels::KernelMode::kBatched}) {
      auto scorer = MakeProxyScorer(name, mode);
      ASSERT_TRUE(scorer.ok());
      auto batch = (*scorer)->ScoreBatch(pointers, *target);
      ASSERT_TRUE(batch.ok()) << name;
      ASSERT_EQ(batch->size(), pointers.size());
      for (size_t i = 0; i < pointers.size(); ++i) {
        auto single = (*scorer)->Score(*pointers[i], *target);
        ASSERT_TRUE(single.ok()) << name;
        EXPECT_EQ((*batch)[i], *single)
            << name << " model " << i << " mode "
            << kernels::ToString(mode);
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
      LeepFromPredictions(in.predictions, in.labels, in.num_target,
                          kernels::KernelMode::kBatched);
  const StatusOr<double> nce_serial =
      NceFromPredictions(in.predictions, in.labels, in.num_target,
                         kernels::KernelMode::kBatched);
  const StatusOr<double> logme_serial =
      LogMeFromFeatures(in.features, in.labels, in.num_target,
                        kernels::KernelMode::kBatched);
  const StatusOr<double> knn_serial =
      KnnLeaveOneOutAccuracy(in.features, in.labels, 5,
                             kernels::KernelMode::kBatched);
  ASSERT_TRUE(leep_serial.ok() && nce_serial.ok() && logme_serial.ok() &&
              knn_serial.ok());

  constexpr size_t kTrials = 32;
  std::vector<double> leep(kTrials), nce(kTrials), logme(kTrials),
      knn(kTrials);
  ThreadPool pool(4);
  pool.ParallelFor(kTrials, [&](size_t t) {
    leep[t] = *LeepFromPredictions(in.predictions, in.labels, in.num_target,
                                   kernels::KernelMode::kBatched);
    nce[t] = *NceFromPredictions(in.predictions, in.labels, in.num_target,
                                 kernels::KernelMode::kBatched);
    logme[t] = *LogMeFromFeatures(in.features, in.labels, in.num_target,
                                  kernels::KernelMode::kBatched);
    knn[t] = *KnnLeaveOneOutAccuracy(in.features, in.labels, 5,
                                     kernels::KernelMode::kBatched);
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
