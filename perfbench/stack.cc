#include "perfbench/stack.h"

#include <cstdio>
#include <thread>
#include <utility>

#include "core/model_clusterer.h"
#include "core/performance_matrix.h"
#include "data/registry.h"
#include "index/ivf_index.h"
#include "model/paper_zoo.h"
#include "model/zoo_gen.h"
#include "serve/protocol.h"
#include "sim/finetune_simulator.h"
#include "sim/hyperparams.h"
#include "store/model_store.h"
#include "util/socket.h"
#include "util/timer.h"

namespace tps {
namespace perfbench {
namespace {

// The generated zoo is fixed: --seed varies the traffic, not the zoo, so
// set-up does the same work on every run.
constexpr size_t kGeneratedZooSize = 5000;
constexpr uint64_t kGeneratedZooSeed = 17;
constexpr const char* kArtifactId = "nlp";

std::vector<double> FineLatencyBounds() {
  std::vector<double> bounds;
  for (double b = 0.5; b < 1e8; b *= 1.05) bounds.push_back(b);
  return bounds;
}

// Removes a leftover file so a store is written from empty.
void RemoveFile(const std::string& path) { std::remove(path.c_str()); }

Status WriteStore(const std::string& path,
                  const serve::ServiceArtifacts& artifacts) {
  RemoveFile(path);
  TPS_ASSIGN_OR_RETURN(ModelStore store, ModelStore::Open(path));
  for (const PretrainedModel& model : artifacts.zoo.models()) {
    TPS_RETURN_NOT_OK(store.PutModelSpec(model.spec()));
  }
  for (const Dataset& dataset : artifacts.registry.datasets()) {
    if (dataset.spec().role != DatasetRole::kBenchmark) continue;
    TPS_RETURN_NOT_OK(store.PutDatasetSpec(dataset.spec()));
  }
  TPS_RETURN_NOT_OK(store.PutPerformanceMatrix(kArtifactId, artifacts.matrix));
  TPS_RETURN_NOT_OK(store.PutClustering(kArtifactId, artifacts.clustering));
  if (artifacts.index != nullptr) {
    TPS_RETURN_NOT_OK(store.PutRecallIndex(kArtifactId, *artifacts.index));
  }
  return Status::OK();
}

}  // namespace

StatusOr<serve::ServiceArtifacts> BuildArtifacts(const WorkloadSpec& spec,
                                                 const WorkloadInputs& inputs,
                                                 SetupTimes* times) {
  WallTimer step;
  std::vector<DatasetSpec> specs = NlpBenchmarkSpecs();
  for (const DatasetSpec& target : NlpTargetSpecs()) specs.push_back(target);
  specs.insert(specs.end(), inputs.novel_targets.begin(),
               inputs.novel_targets.end());
  TPS_ASSIGN_OR_RETURN(DatasetRegistry registry,
                       DatasetRegistry::Create(specs));
  times->registry_ms = step.ElapsedMillis();

  step.Restart();
  std::vector<ModelSpec> model_specs;
  if (spec.zoo == ZooKind::kGenerated) {
    ZooGenSpec gen;
    gen.domain = TaskDomain::kNLP;
    gen.num_models = kGeneratedZooSize;
    gen.seed = kGeneratedZooSeed;
    TPS_ASSIGN_OR_RETURN(model_specs, GenerateZooSpecs(gen));
  } else {
    model_specs = NlpPaperZooSpecs();
  }
  TPS_ASSIGN_OR_RETURN(ModelZoo zoo, ModelZoo::Create(model_specs));
  times->zoo_ms = step.ElapsedMillis();

  step.Restart();
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  FineTuneSimulator simulator;
  TPS_ASSIGN_OR_RETURN(
      PerformanceMatrix matrix,
      PerformanceMatrix::BuildParallel(
          zoo, registry.Benchmarks(TaskDomain::kNLP), simulator,
          Hyperparams::DefaultsFor(TaskDomain::kNLP), threads));
  times->matrix_ms = step.ElapsedMillis();

  std::shared_ptr<const IvfIndex> index;
  ModelClustering clustering;
  if (spec.zoo == ZooKind::kGenerated) {
    step.Restart();
    TPS_ASSIGN_OR_RETURN(IvfIndex built,
                         IvfIndex::Build(matrix.ModelVectors(),
                                         matrix.ModelAverageAccuracies(),
                                         IvfIndexOptions()));
    index = std::make_shared<const IvfIndex>(std::move(built));
    times->index_ms = step.ElapsedMillis();
    step.Restart();
    TPS_ASSIGN_OR_RETURN(clustering,
                         ClusteringFromIndexStructure(index->structure()));
  } else {
    step.Restart();
    TPS_ASSIGN_OR_RETURN(clustering, ClusterModels(matrix, zoo,
                                                   ModelClusteringOptions()));
  }
  times->clustering_ms = step.ElapsedMillis();

  serve::ServiceArtifacts artifacts{std::move(registry), std::move(zoo),
                                    std::move(matrix), std::move(clustering),
                                    TaskDomain::kNLP, std::move(index),
                                    nullptr, nullptr};
  TPS_RETURN_NOT_OK(artifacts.Validate());
  return artifacts;
}

size_t ProxiesPerRequest(const serve::ServiceArtifacts& artifacts) {
  if (artifacts.index != nullptr) return artifacts.index->default_nprobe();
  return artifacts.clustering.NonSingletonClusters().size();
}

namespace {

Status Ping(const std::string& socket_path) {
  TPS_ASSIGN_OR_RETURN(Socket socket, ConnectUnix(socket_path));
  TPS_RETURN_NOT_OK(socket.SendAll("{\"cmd\":\"ping\"}\n"));
  std::string buffer;
  TPS_ASSIGN_OR_RETURN(std::string line, socket.RecvLine(&buffer));
  if (line != serve::PongLine()) {
    return Status::Internal("unexpected ping reply: " + line);
  }
  return Status::OK();
}

}  // namespace

Stack::~Stack() {
  if (server != nullptr) server->Shutdown();
  server.reset();
  service.reset();
  if (!socket_path.empty()) RemoveFile(socket_path);
}

StatusOr<std::unique_ptr<Stack>> SetUp(const WorkloadSpec& spec,
                                       const WorkloadInputs& inputs,
                                       const std::string& work_dir,
                                       const std::string& name,
                                       bool fine_histograms,
                                       SetupTimes* times) {
  *times = SetupTimes();
  WallTimer total;
  auto stack = std::make_unique<Stack>();
  TPS_ASSIGN_OR_RETURN(serve::ServiceArtifacts artifacts,
                       BuildArtifacts(spec, inputs, times));

  stack->metrics = std::make_unique<MetricsRegistry>();
  if (fine_histograms) {
    for (const char* h : {"serve.queue_wait_us", "recall.wall_us",
                          "fine.wall_us"}) {
      stack->metrics->histogram(h, FineLatencyBounds());
    }
  }
  serve::ServiceOptions options;
  options.metrics = stack->metrics.get();
  TPS_ASSIGN_OR_RETURN(
      stack->service,
      serve::SelectionService::Create(std::move(artifacts), options));

  serve::ServerOptions server_options;
  server_options.unix_path = work_dir + "/" + name + ".sock";
  stack->socket_path = server_options.unix_path;
  TPS_ASSIGN_OR_RETURN(stack->server,
                       serve::SelectionServer::Start(stack->service.get(),
                                                     server_options));
  TPS_RETURN_NOT_OK(Ping(stack->socket_path));
  times->total_s = total.ElapsedSeconds();
  return stack;
}

StatusOr<double> WriteReloadSource(Stack* stack, const std::string& work_dir) {
  const std::shared_ptr<const serve::ArtifactSnapshot> snapshot =
      stack->service->snapshot();
  const serve::ServiceArtifacts& artifacts = snapshot->artifacts;
  serve::ArtifactPaths paths;
  paths.domain = TaskDomain::kNLP;
  WallTimer timer;
  if (artifacts.index != nullptr) {
    paths.store = work_dir + "/reload.store";
    paths.id = kArtifactId;
    TPS_RETURN_NOT_OK(WriteStore(paths.store, artifacts));
  } else {
    paths.matrix = work_dir + "/reload.matrix";
    paths.clustering = work_dir + "/reload.clustering";
    TPS_RETURN_NOT_OK(artifacts.matrix.SaveToFile(paths.matrix));
    TPS_RETURN_NOT_OK(SaveClustering(artifacts.clustering, paths.clustering));
  }
  const double ms = timer.ElapsedMillis();
  stack->reload_source = paths;
  return ms;
}

std::vector<uint64_t> BucketCounts(const Histogram& histogram) {
  std::vector<uint64_t> counts(histogram.bucket_bounds().size() + 1);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = histogram.bucket_count(i);
  }
  return counts;
}

double HistogramPercentile(const Histogram& histogram,
                           const std::vector<uint64_t>& before, double p) {
  const std::vector<double>& bounds = histogram.bucket_bounds();
  const std::vector<uint64_t> after = BucketCounts(histogram);
  std::vector<uint64_t> delta(after.size());
  uint64_t total = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    delta[i] = after[i] - (i < before.size() ? before[i] : 0);
    total += delta[i];
  }
  if (total == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(total);
  double seen = 0.0;
  for (size_t i = 0; i < delta.size(); ++i) {
    if (delta[i] == 0) continue;
    const double next = seen + static_cast<double>(delta[i]);
    if (next >= rank) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : bounds.back();
      return lo + (hi - lo) * (rank - seen) / static_cast<double>(delta[i]);
    }
    seen = next;
  }
  return bounds.back();
}

}  // namespace perfbench
}  // namespace tps
