// Microbenchmarks (google-benchmark) for the library's computational
// kernels: LEEP / NCE / LogME / kNN proxy scoring, pairwise Eq. 1
// distances, k-means, hierarchical clustering, and the fine-tune
// simulator. These are the per-call costs the online phase pays.
//
// The forward pass runs as a pair over one 24-model probe wave from the
// 5k generated zoo: one PredictDistributions call per model against one
// stacked PredictDistributionsBatch call for the wave.
//
// Each proxy score runs twice on the same production forward pass — once
// feeding the scalar reference kernel from the test-oracle library
// (tests/oracles/), once through the production scorer and its batched SoA
// kernel — so a run reports the vectorization speedup directly. A custom
// main mirrors every measured time into the BENCH_micro_kernels.json
// sidecar (see bench/telemetry.h) alongside the per-kernel speedups.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/telemetry.h"
#include "clustering/distance.h"
#include "clustering/hierarchical.h"
#include "clustering/kmeans.h"
#include "data/registry.h"
#include "model/paper_zoo.h"
#include "model/zoo_gen.h"
#include "model/zoo.h"
#include "sim/finetune_simulator.h"
#include "tests/oracles/reference_kernels.h"
#include "transfer/proxy_scorer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tps {
namespace {

const Dataset& TargetDataset() {
  static const Dataset* dataset = [] {
    auto registry = DatasetRegistry::CreatePaperInventory();
    TPS_CHECK_OK(registry.status());
    static DatasetRegistry owned = std::move(registry).value();
    auto found = owned.Find("mnli");
    TPS_CHECK_OK(found.status());
    return *found;
  }();
  return *dataset;
}

const PretrainedModel& Model() {
  static const PretrainedModel* model = [] {
    auto zoo = ModelZoo::Create(NlpPaperZooSpecs());
    TPS_CHECK_OK(zoo.status());
    static ModelZoo owned = std::move(zoo).value();
    auto found = owned.Find("bert-base-uncased");
    TPS_CHECK_OK(found.status());
    return *found;
  }();
  return *model;
}

// A 24-model probe wave from the 5k generated zoo that serves cold
// traffic (seed 17, as in perfbench): every 208th model, so the wave mixes
// lineages and source-label counts the way probed IVF representatives do.
const std::vector<const PretrainedModel*>& Wave() {
  static const std::vector<const PretrainedModel*>* wave = [] {
    constexpr size_t kZooSize = 5000;
    constexpr size_t kWaveSize = 24;
    ZooGenSpec gen;
    gen.num_models = kZooSize;
    gen.seed = 17;
    auto specs = GenerateZooSpecs(gen);
    TPS_CHECK_OK(specs.status());
    static std::vector<PretrainedModel> models;
    for (size_t i = 0; i < kWaveSize; ++i) {
      auto model =
          PretrainedModel::Create((*specs)[i * (kZooSize / kWaveSize)]);
      TPS_CHECK_OK(model.status());
      models.push_back(std::move(*model));
    }
    auto* pointers = new std::vector<const PretrainedModel*>();
    for (const PretrainedModel& model : models) pointers->push_back(&model);
    return pointers;
  }();
  return *wave;
}

void BM_ForwardWave(benchmark::State& state, bool stacked) {
  for (auto _ : state) {
    if (stacked) {
      auto predictions =
          PretrainedModel::PredictDistributionsBatch(Wave(), TargetDataset());
      TPS_CHECK_OK(predictions.status());
      benchmark::DoNotOptimize(predictions->data());
    } else {
      for (const PretrainedModel* model : Wave()) {
        auto predictions = model->PredictDistributions(TargetDataset());
        TPS_CHECK_OK(predictions.status());
        benchmark::DoNotOptimize(predictions->data().data());
      }
    }
  }
}
// The pair is the speed claim of the stacked pass, so it reports the
// median of repeated runs rather than one run on a possibly busy host.
BENCHMARK_CAPTURE(BM_ForwardWave, PerModel, false)
    ->Repetitions(9)
    ->ReportAggregatesOnly(true);
BENCHMARK_CAPTURE(BM_ForwardWave, Stacked, true)
    ->Repetitions(9)
    ->ReportAggregatesOnly(true);

// The Reference side of each pair: the production forward pass feeding
// the oracle kernel the arguments the scorer's validating wrapper hands its
// batched kernel, so the two sides differ in the kernel alone.
StatusOr<double> ReferenceScore(const std::string& proxy) {
  const Dataset& target = TargetDataset();
  const std::vector<int> labels = TargetLabels(target);
  const size_t num_target = static_cast<size_t>(target.spec().num_labels);
  if (proxy == "leep" || proxy == "nce") {
    TPS_ASSIGN_OR_RETURN(Matrix predictions,
                         Model().PredictDistributions(target));
    return proxy == "leep"
               ? kernels::LeepReference(predictions, labels, num_target)
               : kernels::NceReference(predictions, labels, num_target);
  }
  TPS_ASSIGN_OR_RETURN(Matrix features, Model().ExtractFeatures(target));
  if (proxy == "logme") {
    return kernels::LogMeReference(features, labels, num_target);
  }
  return kernels::KnnReference(
      features, labels, std::min<size_t>(/*k=*/5, features.rows() - 1));
}

void ProxyScoreLoop(benchmark::State& state, const std::string& proxy,
                    bool reference) {
  auto scorer = MakeProxyScorer(proxy);
  TPS_CHECK_OK(scorer.status());
  for (auto _ : state) {
    auto score = reference ? ReferenceScore(proxy)
                           : (*scorer)->Score(Model(), TargetDataset());
    TPS_CHECK_OK(score.status());
    benchmark::DoNotOptimize(*score);
  }
}

void BM_LeepScore(benchmark::State& state, bool reference) {
  ProxyScoreLoop(state, "leep", reference);
}
BENCHMARK_CAPTURE(BM_LeepScore, Reference, true);
BENCHMARK_CAPTURE(BM_LeepScore, Batched, false);

void BM_NceScore(benchmark::State& state, bool reference) {
  ProxyScoreLoop(state, "nce", reference);
}
BENCHMARK_CAPTURE(BM_NceScore, Reference, true);
BENCHMARK_CAPTURE(BM_NceScore, Batched, false);

void BM_LogMeScore(benchmark::State& state, bool reference) {
  ProxyScoreLoop(state, "logme", reference);
}
BENCHMARK_CAPTURE(BM_LogMeScore, Reference, true);
BENCHMARK_CAPTURE(BM_LogMeScore, Batched, false);

void BM_KnnScore(benchmark::State& state, bool reference) {
  ProxyScoreLoop(state, "knn", reference);
}
BENCHMARK_CAPTURE(BM_KnnScore, Reference, true);
BENCHMARK_CAPTURE(BM_KnnScore, Batched, false);

void BM_FineTuneRun(benchmark::State& state) {
  FineTuneSimulator simulator;
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  for (auto _ : state) {
    auto run = simulator.Run(Model(), TargetDataset(), hp);
    TPS_CHECK_OK(run.status());
    benchmark::DoNotOptimize(run->final_test());
  }
}
BENCHMARK(BM_FineTuneRun);

Matrix RandomVectors(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, dims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dims; ++j) m.At(i, j) = rng.Uniform();
  }
  return m;
}

void BM_PairwiseTopKDistances(benchmark::State& state) {
  const Matrix vectors =
      RandomVectors(static_cast<size_t>(state.range(0)), 24, 7);
  for (auto _ : state) {
    auto distances =
        PairwiseDistances(vectors, DistanceMetric::kTopKAbsDiff, 5);
    TPS_CHECK_OK(distances.status());
    benchmark::DoNotOptimize(distances->At(0, 0));
  }
}
BENCHMARK(BM_PairwiseTopKDistances)->Arg(40)->Arg(200)->Arg(1000);

void BM_KMeans(benchmark::State& state) {
  const Matrix points =
      RandomVectors(static_cast<size_t>(state.range(0)), 24, 11);
  KMeansOptions options;
  options.num_clusters = 8;
  for (auto _ : state) {
    auto result = KMeans(points, options);
    TPS_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->inertia);
  }
}
BENCHMARK(BM_KMeans)->Arg(40)->Arg(200)->Arg(1000);

void BM_HierarchicalCluster(benchmark::State& state) {
  const Matrix vectors =
      RandomVectors(static_cast<size_t>(state.range(0)), 24, 13);
  auto distances =
      PairwiseDistances(vectors, DistanceMetric::kEuclidean, 5);
  TPS_CHECK_OK(distances.status());
  HierarchicalOptions options;
  options.num_clusters = 8;
  for (auto _ : state) {
    auto result = HierarchicalCluster(*distances, options);
    TPS_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->clustering.num_clusters);
  }
}
BENCHMARK(BM_HierarchicalCluster)->Arg(40)->Arg(200);

// Console output plus a record of every measured run, so main() can mirror
// the numbers into the telemetry sidecar without re-running anything.
class TelemetryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      // Of a repeated benchmark's aggregates only the median is a time.
      if (run.run_type == Run::RT_Aggregate &&
          run.aggregate_name != "median") {
        continue;
      }
      times_.emplace_back(run.benchmark_name(), run.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<std::pair<std::string, double>>& times() const {
    return times_;
  }

 private:
  std::vector<std::pair<std::string, double>> times_;
};

// "BM_KMeans/40" -> "BM_KMeans_40": keeps the sidecar's
// "<domain>/<name>/<metric>" key convention unambiguous.
std::string SanitizedName(std::string name) {
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return name;
}

void WriteTelemetry(const TelemetryReporter& reporter) {
  bench::BenchTelemetry telemetry("micro_kernels");
  const auto find = [&](const std::string& name) -> const double* {
    for (const auto& [run_name, ns] : reporter.times()) {
      if (run_name == name) return &ns;
    }
    return nullptr;
  };
  for (const auto& [name, ns] : reporter.times()) {
    telemetry.RecordValue("kernel/" + SanitizedName(name) + "/ns", ns);
  }
  for (const char* base :
       {"BM_LeepScore", "BM_NceScore", "BM_LogMeScore", "BM_KnnScore"}) {
    const double* reference = find(std::string(base) + "/Reference");
    const double* batched = find(std::string(base) + "/Batched");
    if (reference == nullptr || batched == nullptr || *batched <= 0.0) {
      continue;  // Filtered out via --benchmark_filter; skip the ratio.
    }
    telemetry.RecordValue(
        std::string("kernel/") + base + "/reference_over_batched",
        *reference / *batched);
  }
  const double* per_model = find("BM_ForwardWave/PerModel/repeats:9_median");
  const double* stacked = find("BM_ForwardWave/Stacked/repeats:9_median");
  if (per_model != nullptr && stacked != nullptr && *stacked > 0.0) {
    telemetry.RecordValue("forward/BM_ForwardWave/per_model_over_stacked",
                          *per_model / *stacked);
  }
  telemetry.RecordValue(
      "host/cores", static_cast<double>(std::thread::hardware_concurrency()));
  telemetry.WriteFileOrWarn();
}

}  // namespace
}  // namespace tps

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  tps::TelemetryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  tps::WriteTelemetry(reporter);
  return 0;
}
