#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "clustering/distance.h"
#include "core/coarse_recall.h"
#include "core/model_clusterer.h"
#include "core/performance_matrix.h"
#include "data/registry.h"
#include "index/ivf_index.h"
#include "index/recall_index.h"
#include "model/paper_zoo.h"
#include "model/zoo.h"
#include "model/zoo_gen.h"
#include "sim/epoch_budget.h"
#include "sim/finetune_simulator.h"
#include "transfer/proxy_scorer.h"
#include "util/thread_pool.h"

namespace tps {
namespace {

// The equivalence theorems pinned here (DESIGN.md "Sub-linear recall
// index"), against ReferenceSweep below — the paper's Eqs. 2-4 written
// directly over a clustering:
//  A. An IvfIndex built with exact propagation (propagation_neighbors = 0)
//     and probed in full reproduces the reference sweep over its own
//     partitioning bit for bit — scores, recalled set, tie order and the
//     epoch ledger.
//  B. CoarseRecall over a real ModelClustering — index-less (the
//     clustering's own brute-force index) or through an explicit
//     IndexFromClustering — reproduces the reference sweep bit for bit,
//     on generated zoos and on both paper zoos for every target and proxy.
//  C. Incremental Insert against a frozen quantizer equals the
//     from-scratch BuildWithCentroids rebuild over the grown inputs.
// Each theorem is fuzzed over zoo sizes and seeds and run serial and on a
// pool (the parallel label routes this file through the TSan sweep).

struct World {
  std::unique_ptr<ModelZoo> zoo;
  std::unique_ptr<DatasetRegistry> registry;
  std::unique_ptr<FineTuneSimulator> simulator;
  std::unique_ptr<PerformanceMatrix> matrix;
  const Dataset* target = nullptr;
};

World MakeWorld(size_t num_models, uint64_t seed) {
  World world;
  ZooGenSpec spec;
  spec.domain = TaskDomain::kNLP;
  spec.num_models = num_models;
  spec.seed = seed;
  auto specs = GenerateZooSpecs(spec);
  EXPECT_TRUE(specs.ok()) << specs.status().message();
  auto zoo = ModelZoo::Create(*specs);
  EXPECT_TRUE(zoo.ok()) << zoo.status().message();
  world.zoo = std::make_unique<ModelZoo>(*std::move(zoo));
  world.registry = std::make_unique<DatasetRegistry>(
      *DatasetRegistry::CreatePaperInventory());
  world.simulator = std::make_unique<FineTuneSimulator>();
  auto matrix = PerformanceMatrix::Build(
      *world.zoo, world.registry->Benchmarks(TaskDomain::kNLP),
      *world.simulator, Hyperparams::DefaultsFor(TaskDomain::kNLP));
  EXPECT_TRUE(matrix.ok()) << matrix.status().message();
  world.matrix = std::make_unique<PerformanceMatrix>(*std::move(matrix));
  world.target = *world.registry->Find("mnli");
  return world;
}

// The paper's coarse recall as a direct sweep over a clustering: score the
// non-singleton cluster representatives (every representative when all
// clusters are singletons) with each proxy's per-model Score, min-max
// normalize each proxy across them and average (Eq. 2); each member of a
// scored cluster inherits its representative's value (Eq. 3), every other
// model takes the Eq. 1 similarity-weighted mean over all scored
// representatives (Eq. 4); the prior multiplies in, and a stable sort
// ranks. Charges 0.5 epochs per scored representative to `budget`.
RecallResult ReferenceSweep(const ModelZoo& zoo,
                            const PerformanceMatrix& matrix,
                            const ModelClustering& clustering,
                            const Dataset& target,
                            const std::vector<std::string>& proxies,
                            EpochBudget* budget) {
  std::vector<size_t> scored;
  for (int c : clustering.NonSingletonClusters()) {
    scored.push_back(clustering.representatives[static_cast<size_t>(c)]);
  }
  if (scored.empty()) scored = clustering.representatives;
  std::vector<double> norm(scored.size(), 0.0);
  for (const std::string& name : proxies) {
    const std::unique_ptr<ProxyScorer> scorer = MakeProxyScorer(name).value();
    std::vector<double> raw;
    for (size_t m : scored) raw.push_back(*scorer->Score(zoo.model(m), target));
    const std::vector<double> normalized = MinMaxNormalize(raw);
    for (size_t i = 0; i < scored.size(); ++i) {
      norm[i] += normalized[i] / static_cast<double>(proxies.size());
    }
  }
  for (size_t i = 0; i < scored.size(); ++i) budget->ChargeProxyInference();

  RecallResult result;
  result.proxies_computed = scored.size();
  for (size_t m = 0; m < zoo.size(); ++m) {
    RecallEntry entry;
    entry.model_index = m;
    entry.prior_accuracy = matrix.ModelAverageAccuracy(m);
    const size_t rep = clustering.representatives[static_cast<size_t>(
        clustering.ClusterOf(m))];
    const auto own = std::find(scored.begin(), scored.end(), rep);
    if (own != scored.end()) {
      entry.proxy_component = norm[static_cast<size_t>(own - scored.begin())];
    } else {
      entry.via_propagation = true;
      double accum = 0.0;
      for (size_t i = 0; i < scored.size(); ++i) {
        accum += PerformanceSimilarity(matrix.ModelVector(m),
                                       matrix.ModelVector(scored[i]),
                                       clustering.options.top_k) *
                 norm[i];
      }
      entry.proxy_component = accum / static_cast<double>(scored.size());
    }
    entry.recall_score = entry.prior_accuracy * entry.proxy_component;
    result.ranked.push_back(entry);
  }
  std::stable_sort(result.ranked.begin(), result.ranked.end(),
                   [](const RecallEntry& a, const RecallEntry& b) {
                     return a.recall_score > b.recall_score;
                   });
  return result;
}

// Bit-for-bit: EXPECT_EQ on doubles is exact equality, which is the
// contract — recall must run the same arithmetic in the same order as the
// reference, not merely land close.
void ExpectIdentical(const RecallResult& a, const RecallResult& b) {
  EXPECT_EQ(a.proxies_computed, b.proxies_computed);
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].model_index, b.ranked[i].model_index) << i;
    EXPECT_EQ(a.ranked[i].recall_score, b.ranked[i].recall_score) << i;
    EXPECT_EQ(a.ranked[i].prior_accuracy, b.ranked[i].prior_accuracy) << i;
    EXPECT_EQ(a.ranked[i].proxy_component, b.ranked[i].proxy_component) << i;
    EXPECT_EQ(a.ranked[i].via_propagation, b.ranked[i].via_propagation) << i;
  }
}

// Recall through `recall` (serial and on a 4-thread pool) equals the
// reference sweep over `clustering`, ledger included.
void ExpectRecallEqualsReference(const CoarseRecall& recall,
                                 const ModelZoo& zoo,
                                 const PerformanceMatrix& matrix,
                                 const ModelClustering& clustering,
                                 const Dataset& target,
                                 const RecallOptions& options) {
  const std::vector<std::string> proxies =
      options.proxies.empty() ? std::vector<std::string>{options.proxy}
                              : options.proxies;
  EpochBudget reference_budget;
  const RecallResult reference = ReferenceSweep(
      zoo, matrix, clustering, target, proxies, &reference_budget);
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "serial" : "pool");
    EpochBudget budget;
    auto result = recall.Recall(target, options, &budget, p);
    ASSERT_TRUE(result.ok()) << result.status().message();
    ExpectIdentical(reference, *result);
    EXPECT_EQ(budget.inference_epochs(), reference_budget.inference_epochs());
    EXPECT_EQ(budget.training_epochs(), reference_budget.training_epochs());
  }
}

TEST(IndexEquivalenceTest, FullProbeIvfEqualsLegacySweep) {
  for (const auto& [num_models, seed] :
       std::vector<std::pair<size_t, uint64_t>>{{60, 3}, {150, 11}}) {
    SCOPED_TRACE("zoo " + std::to_string(num_models) + " seed " +
                 std::to_string(seed));
    const World world = MakeWorld(num_models, seed);

    IvfIndexOptions options;
    options.propagation_neighbors = 0;  // Exact propagation.
    auto index = IvfIndex::Build(world.matrix->ModelVectors(),
                                 world.matrix->ModelAverageAccuracies(),
                                 options);
    ASSERT_TRUE(index.ok()) << index.status().message();
    auto clustering = ClusteringFromIndexStructure(index->structure());
    ASSERT_TRUE(clustering.ok()) << clustering.status().message();
    CoarseRecall recall(world.zoo.get(), world.matrix.get(),
                        &*clustering);

    RecallOptions indexed_options;
    indexed_options.index = &*index;
    indexed_options.nprobe = index->num_partitions();  // Full probe.
    ExpectRecallEqualsReference(recall, *world.zoo, *world.matrix,
                                *clustering, *world.target, indexed_options);
    ExpectRecallEqualsReference(recall, *world.zoo, *world.matrix,
                                *clustering, *world.target, RecallOptions());
  }
}

TEST(IndexEquivalenceTest, BruteForceFromClusteringEqualsLegacySweep) {
  for (uint64_t seed : {5u, 23u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const World world = MakeWorld(80, seed);
    auto clustering = ClusterModels(*world.matrix, *world.zoo,
                                    ModelClusteringOptions());
    ASSERT_TRUE(clustering.ok()) << clustering.status().message();
    auto index = IndexFromClustering(*world.matrix, *clustering);
    ASSERT_TRUE(index.ok()) << index.status().message();
    CoarseRecall recall(world.zoo.get(), world.matrix.get(), &*clustering);

    // Index-less: CoarseRecall builds the same brute-force index itself.
    ExpectRecallEqualsReference(recall, *world.zoo, *world.matrix,
                                *clustering, *world.target, RecallOptions());
    RecallOptions indexed_options;
    indexed_options.index = &*index;
    ExpectRecallEqualsReference(recall, *world.zoo, *world.matrix,
                                *clustering, *world.target, indexed_options);
  }

  // The paper zoos, index-less: every paper target x each proxy alone and
  // all four combined.
  std::vector<RecallOptions> proxy_configs(5);
  const char* const kProxies[] = {"leep", "nce", "logme", "knn"};
  for (size_t i = 0; i < 4; ++i) {
    proxy_configs[i].proxy = kProxies[i];
    proxy_configs[4].proxies.push_back(kProxies[i]);
  }
  const DatasetRegistry registry = *DatasetRegistry::CreatePaperInventory();
  const FineTuneSimulator simulator;
  for (TaskDomain domain : {TaskDomain::kNLP, TaskDomain::kCV}) {
    const ModelZoo zoo = *ModelZoo::Create(
        domain == TaskDomain::kNLP ? NlpPaperZooSpecs() : CvPaperZooSpecs());
    const PerformanceMatrix matrix = *PerformanceMatrix::Build(
        zoo, registry.Benchmarks(domain), simulator,
        Hyperparams::DefaultsFor(domain));
    const ModelClustering clustering =
        *ClusterModels(matrix, zoo, ModelClusteringOptions());
    const CoarseRecall recall(&zoo, &matrix, &clustering);
    for (const Dataset* target : registry.Targets(domain)) {
      for (const RecallOptions& options : proxy_configs) {
        SCOPED_TRACE(target->name() + " / " +
                     (options.proxies.empty() ? options.proxy : "combined"));
        ExpectRecallEqualsReference(recall, zoo, matrix, clustering, *target,
                                    options);
      }
    }
  }
}

TEST(IndexEquivalenceTest, InsertEqualsRebuildWithFrozenQuantizer) {
  for (const auto& [num_models, seed] :
       std::vector<std::pair<size_t, uint64_t>>{{60, 7}, {120, 31}}) {
    SCOPED_TRACE("zoo " + std::to_string(num_models) + " seed " +
                 std::to_string(seed));
    const World world = MakeWorld(num_models, seed);
    const std::vector<std::vector<double>> vectors =
        world.matrix->ModelVectors();
    const std::vector<double> prior =
        world.matrix->ModelAverageAccuracies();
    const size_t held_out = 5;
    const size_t base_count = vectors.size() - held_out;

    IvfIndexOptions options;
    options.propagation_neighbors = 4;
    std::vector<std::vector<double>> base_vectors(
        vectors.begin(), vectors.begin() + static_cast<long>(base_count));
    std::vector<double> base_prior(
        prior.begin(), prior.begin() + static_cast<long>(base_count));
    auto grown = IvfIndex::Build(base_vectors, base_prior, options);
    ASSERT_TRUE(grown.ok()) << grown.status().message();

    for (size_t m = base_count; m < vectors.size(); ++m) {
      ASSERT_TRUE(grown->Insert(vectors[m], prior[m]).ok());
    }
    auto rebuilt = IvfIndex::BuildWithCentroids(grown->centroids(), vectors,
                                                prior, options);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().message();

    // Serialize covers every primary field (options, priors, assignments,
    // centroids, vectors); the derived fields are compared directly.
    EXPECT_EQ(grown->Serialize(), rebuilt->Serialize());
    const IndexStructure& a = grown->structure();
    const IndexStructure& b = rebuilt->structure();
    EXPECT_EQ(a.members, b.members);
    EXPECT_EQ(a.representatives, b.representatives);
    EXPECT_EQ(a.scored_partitions, b.scored_partitions);
    EXPECT_EQ(a.slot_of_partition, b.slot_of_partition);
    EXPECT_EQ(a.neighbors, b.neighbors);
    EXPECT_EQ(a.probe_priority, b.probe_priority);
    EXPECT_EQ(a.pilot_order, b.pilot_order);
  }
}

TEST(IndexEquivalenceTest, PartialProbeChargesExactlyNprobe) {
  const World world = MakeWorld(120, 13);
  auto index = IvfIndex::Build(world.matrix->ModelVectors(),
                               world.matrix->ModelAverageAccuracies(),
                               IvfIndexOptions());
  ASSERT_TRUE(index.ok()) << index.status().message();
  auto clustering = ClusteringFromIndexStructure(index->structure());
  ASSERT_TRUE(clustering.ok()) << clustering.status().message();
  CoarseRecall recall(world.zoo.get(), world.matrix.get(), &*clustering);
  const size_t scored = index->structure().scored_partitions.size();
  ASSERT_GE(scored, 6u);

  const size_t nprobe = scored / 2;
  RecallOptions options;
  options.index = &*index;
  options.nprobe = nprobe;
  EpochBudget budget;
  auto result = recall.Recall(*world.target, options, &budget);
  ASSERT_TRUE(result.ok()) << result.status().message();
  // The adaptive pilot-and-route probe splits the budget into two waves
  // but never exceeds it: exactly nprobe representatives are scored and
  // charged.
  EXPECT_EQ(result->proxies_computed, nprobe);
  EXPECT_EQ(budget.inference_epochs(), 0.5 * static_cast<double>(nprobe));
  for (size_t i = 1; i < result->ranked.size(); ++i) {
    EXPECT_GE(result->ranked[i - 1].recall_score,
              result->ranked[i].recall_score);
  }

  // The two-wave schedule is deterministic: serial and pooled runs agree
  // bit for bit.
  ThreadPool pool(4);
  auto pooled = recall.Recall(*world.target, options, nullptr, &pool);
  ASSERT_TRUE(pooled.ok()) << pooled.status().message();
  ExpectIdentical(*result, *pooled);
}

}  // namespace
}  // namespace tps
