#include "recall/recall_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/two_phase.h"
#include "data/registry.h"
#include "index/ivf_index.h"
#include "model/paper_zoo.h"
#include "recall/embed_trainer.h"
#include "util/thread_pool.h"

namespace tps {
namespace recall {
namespace {

// The interchangeability contracts of the pluggable recall backends:
// routing a TwoPhaseSelector through a CoarseRecall other than its own
// changes nothing (ranking, ledger, selection), "embedding" ranks with dot
// products only (zero proxies, zero budget), "hybrid" charges exactly what
// its representative leg charged, and the set resolves names to exactly
// the backends the artifacts can serve.

void ExpectSameRanking(const RecallResult& a, const RecallResult& b) {
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].model_index, b.ranked[i].model_index) << "rank " << i;
    EXPECT_EQ(a.ranked[i].recall_score, b.ranked[i].recall_score) << "rank " << i;
    EXPECT_EQ(a.ranked[i].prior_accuracy, b.ranked[i].prior_accuracy)
        << "rank " << i;
    EXPECT_EQ(a.ranked[i].proxy_component, b.ranked[i].proxy_component)
        << "rank " << i;
    EXPECT_EQ(a.ranked[i].via_propagation, b.ranked[i].via_propagation)
        << "rank " << i;
  }
  EXPECT_EQ(a.proxies_computed, b.proxies_computed);
}

void ExpectSameLedger(const EpochBudget& a, const EpochBudget& b) {
  EXPECT_EQ(a.training_epochs(), b.training_epochs());
  EXPECT_EQ(a.inference_epochs(), b.inference_epochs());
}

class BackendEquivalenceTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new ModelZoo(*ModelZoo::Create(NlpPaperZooSpecs()));
    registry_ =
        new DatasetRegistry(*DatasetRegistry::CreatePaperInventory());
    simulator_ = new FineTuneSimulator();
    matrix_ = new PerformanceMatrix(*PerformanceMatrix::Build(
        *zoo_, registry_->Benchmarks(TaskDomain::kNLP), *simulator_,
        Hyperparams::DefaultsFor(TaskDomain::kNLP)));
    clustering_ = new ModelClustering(
        *ClusterModels(*matrix_, *zoo_, ModelClusteringOptions()));
    EmbeddingConfig config;
    config.epochs = 60;  // Rankings just need a trained artifact, not the
                         // full 300-epoch production curve.
    embeddings_ = new RecallEmbeddings(
        std::move(TrainRecallEmbeddings(*matrix_,
                                        registry_->Benchmarks(TaskDomain::kNLP),
                                        config)
                      ->embeddings));
    embedding_index_ = new IvfIndex(*IvfIndex::Build(
        embeddings_->model_embeddings(), embeddings_->prior(),
        IvfIndexOptions()));
    target_ = *registry_->Find("mnli");
    representative_ = new CoarseRecall(zoo_, matrix_, clustering_);
  }

  static RecallBackendContext FullContext() {
    RecallBackendContext context;
    context.representative = representative_;
    context.embeddings = embeddings_;
    context.embedding_index = embedding_index_;
    return context;
  }

  static const RecallBackend* Backend(const RecallBackendSet& set,
                                      const std::string& name) {
    auto backend = set.Find(name);
    EXPECT_TRUE(backend.ok()) << backend.status().message();
    return backend.ok() ? *backend : nullptr;
  }

  static ModelZoo* zoo_;
  static DatasetRegistry* registry_;
  static FineTuneSimulator* simulator_;
  static PerformanceMatrix* matrix_;
  static ModelClustering* clustering_;
  static RecallEmbeddings* embeddings_;
  static IvfIndex* embedding_index_;
  static const Dataset* target_;
  static CoarseRecall* representative_;
};

ModelZoo* BackendEquivalenceTest::zoo_ = nullptr;
DatasetRegistry* BackendEquivalenceTest::registry_ = nullptr;
FineTuneSimulator* BackendEquivalenceTest::simulator_ = nullptr;
PerformanceMatrix* BackendEquivalenceTest::matrix_ = nullptr;
ModelClustering* BackendEquivalenceTest::clustering_ = nullptr;
RecallEmbeddings* BackendEquivalenceTest::embeddings_ = nullptr;
IvfIndex* BackendEquivalenceTest::embedding_index_ = nullptr;
const Dataset* BackendEquivalenceTest::target_ = nullptr;
CoarseRecall* BackendEquivalenceTest::representative_ = nullptr;

TEST_F(BackendEquivalenceTest, RoutedSelectorMatchesUnroutedBitForBit) {
  // The set's "representative" is the fixture's CoarseRecall, not the
  // selector's own: routing through it must change nothing, serial or
  // pooled.
  const RecallBackendSet set(FullContext());
  const RecallBackend* backend = Backend(set, "representative");
  ASSERT_EQ(backend, representative_);
  TwoPhaseSelector selector(zoo_, matrix_, clustering_, simulator_);
  ASSERT_NE(backend, &selector.recall());
  for (int threads : {1, 4}) {
    TwoPhaseOptions unrouted;
    unrouted.num_threads = threads;
    TwoPhaseOptions routed = unrouted;
    routed.recall.backend = backend;
    auto want = selector.Select(*target_, unrouted);
    auto got = selector.Select(*target_, routed);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok()) << got.status().message();
    ExpectSameRanking(want->recall, got->recall);
    ExpectSameLedger(want->budget, got->budget);
    EXPECT_EQ(want->selection.selected_model, got->selection.selected_model);
    EXPECT_EQ(want->selection.selected_accuracy,
              got->selection.selected_accuracy);
    EXPECT_EQ(want->selection.training_epochs,
              got->selection.training_epochs);
    EXPECT_EQ(want->selection.survivors_per_stage,
              got->selection.survivors_per_stage);
  }
}

TEST_F(BackendEquivalenceTest, EmbeddingRanksWithoutChargingTheBudget) {
  const RecallBackendSet set(FullContext());
  const RecallBackend* backend = Backend(set, "embedding");
  ASSERT_NE(backend, nullptr);
  EpochBudget budget;
  auto result = backend->Recall(*target_, RecallOptions(), &budget);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->proxies_computed, 0u);
  EXPECT_EQ(budget.training_epochs(), 0.0);
  EXPECT_EQ(budget.inference_epochs(), 0.0);
  EXPECT_FALSE(result->ranked.empty());
  for (size_t i = 1; i < result->ranked.size(); ++i) {
    EXPECT_GE(result->ranked[i - 1].recall_score,
              result->ranked[i].recall_score);
  }
  // Deterministic: a second run is bit-identical.
  auto again = backend->Recall(*target_, RecallOptions(), nullptr);
  ASSERT_TRUE(again.ok());
  ExpectSameRanking(*result, *again);
}

TEST_F(BackendEquivalenceTest, EmbeddingWithoutIndexRanksTheWholeZoo) {
  auto backend = EmbeddingBackend::Create(embeddings_, nullptr);
  ASSERT_TRUE(backend.ok());
  auto result = backend->Recall(*target_, RecallOptions(), nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ranked.size(), zoo_->size());
}

TEST_F(BackendEquivalenceTest, EmbeddingIndexNprobeBoundsTheCandidates) {
  auto backend = EmbeddingBackend::Create(embeddings_, embedding_index_);
  ASSERT_TRUE(backend.ok());
  RecallOptions narrow;
  narrow.nprobe = 1;
  auto narrowed = backend->Recall(*target_, narrow, nullptr);
  ASSERT_TRUE(narrowed.ok());
  // One probed partition -> exactly that posting list, a strict subset of
  // the zoo, and every candidate really lives in the probed partition.
  auto query = embeddings_->EmbedDataset(*target_);
  ASSERT_TRUE(query.ok());
  const std::vector<size_t> probed =
      embedding_index_->ProbePartitionsNearQuery(*query, 1);
  ASSERT_EQ(probed.size(), 1u);
  const std::vector<size_t>& members =
      embedding_index_->structure().members[probed[0]];
  EXPECT_EQ(narrowed->ranked.size(), members.size());
  EXPECT_LT(narrowed->ranked.size(), zoo_->size());
  for (const RecallEntry& entry : narrowed->ranked) {
    EXPECT_NE(std::find(members.begin(), members.end(), entry.model_index),
              members.end())
        << "model " << entry.model_index << " is not in probed partition";
  }
}

TEST_F(BackendEquivalenceTest, HybridChargesOnlyTheRepresentativeLeg) {
  const RecallBackendSet set(FullContext());
  const RecallBackend* hybrid = Backend(set, "hybrid");
  ASSERT_NE(hybrid, nullptr);
  EpochBudget hybrid_budget;
  EpochBudget representative_budget;
  auto fused = hybrid->Recall(*target_, RecallOptions(), &hybrid_budget);
  auto rep = representative_->Recall(*target_, RecallOptions(),
                                     &representative_budget);
  ASSERT_TRUE(fused.ok()) << fused.status().message();
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(fused->proxies_computed, rep->proxies_computed);
  ExpectSameLedger(hybrid_budget, representative_budget);
  // Union of the two candidate sets, sorted by fused score.
  EXPECT_GE(fused->ranked.size(), rep->ranked.size());
  for (size_t i = 1; i < fused->ranked.size(); ++i) {
    EXPECT_GE(fused->ranked[i - 1].recall_score,
              fused->ranked[i].recall_score);
  }
  // Deterministic: a second run is bit-identical.
  auto again = hybrid->Recall(*target_, RecallOptions(), nullptr);
  ASSERT_TRUE(again.ok());
  ExpectSameRanking(*fused, *again);
}

TEST_F(BackendEquivalenceTest, RegistryResolvesAndRejects) {
  // Without trained embeddings, only the representative backend serves.
  RecallBackendContext bare = FullContext();
  bare.embeddings = nullptr;
  bare.embedding_index = nullptr;
  EXPECT_TRUE(EmbeddingBackend::Create(nullptr, nullptr)
                  .status()
                  .IsFailedPrecondition());
  const RecallBackendSet set(bare);
  EXPECT_EQ(set.available(), std::vector<std::string>{"representative"});
  EXPECT_TRUE(set.Find("embedding").status().IsFailedPrecondition());
  EXPECT_TRUE(set.Find("hybrid").status().IsFailedPrecondition());
  EXPECT_TRUE(set.Find("no-such-backend").status().IsNotFound());
  EXPECT_TRUE(set.Find("").status().IsNotFound());
  const RecallBackend* representative = Backend(set, "representative");
  EXPECT_EQ(representative, representative_);
  EXPECT_EQ(representative->name(), "representative");

  // With embeddings, all three serve, and the hybrid's representative leg
  // is the context's own CoarseRecall rather than a copy.
  const RecallBackendSet full(FullContext());
  EXPECT_EQ(full.available(),
            (std::vector<std::string>{"embedding", "hybrid",
                                      "representative"}));
  for (const std::string& name : full.available()) {
    EXPECT_EQ(Backend(full, name)->name(), name);
  }
  const auto* hybrid =
      dynamic_cast<const HybridBackend*>(Backend(full, "hybrid"));
  ASSERT_NE(hybrid, nullptr);
  EXPECT_EQ(&hybrid->representative(), representative_);

  // An embedding index that does not cover the embeddings is refused,
  // and the set then serves the representative backend alone.
  const size_t half = embeddings_->num_models() / 2;
  auto short_index = IvfIndex::Build(
      {embeddings_->model_embeddings().begin(),
       embeddings_->model_embeddings().begin() + half},
      {embeddings_->prior().begin(), embeddings_->prior().begin() + half},
      IvfIndexOptions());
  ASSERT_TRUE(short_index.ok()) << short_index.status().message();
  EXPECT_TRUE(EmbeddingBackend::Create(embeddings_, &*short_index)
                  .status()
                  .IsInvalidArgument());
  RecallBackendContext mismatched = FullContext();
  mismatched.embedding_index = &*short_index;
  EXPECT_EQ(RecallBackendSet(mismatched).available(),
            std::vector<std::string>{"representative"});
}

}  // namespace
}  // namespace recall
}  // namespace tps
