// Zero-downtime artifact hot swap: Reload() publishes a new version
// RCU-style while requests are in flight. The acceptance bar here is the
// ISSUE's: under >= 8 concurrent clients with reloads landing mid-flight,
// zero requests fail or drop, and every single response is bit-identical —
// selected model, accuracy, and the full epoch ledger — to an oracle
// service pinned at the version the request was admitted against. A
// request admitted at version V never observes state (proxy scores
// included) from version V+1.

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_clusterer.h"
#include "serve/artifact_slot.h"
#include "serve/service.h"
#include "util/metrics.h"

namespace tps {
namespace serve {
namespace {

class HotSwapTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_ = new ServiceArtifacts(
        *ServiceArtifacts::Build(TaskDomain::kNLP));
    // The reload payload must be observably different from the base so a
    // version-mixing bug cannot pass by accident: recluster the same zoo
    // into exactly three clusters (the base uses the threshold cut, which
    // yields a different representative set and hence different recall).
    ServiceArtifacts variant = *base_;
    ModelClusteringOptions coarse;
    coarse.num_clusters = 3;
    auto clustering = ClusterModels(variant.matrix, variant.zoo, coarse);
    ASSERT_TRUE(clustering.ok()) << clustering.status().ToString();
    variant.clustering = std::move(*clustering);
    variant_ = new ServiceArtifacts(std::move(variant));
    ASSERT_NE(base_->clustering.clusters.num_clusters,
              variant_->clustering.clusters.num_clusters)
        << "variant must differ from base or the mixing checks are vacuous";

    base_oracle_ = new std::map<std::string, SelectionResponse>(
        OracleAnswers(*base_));
    variant_oracle_ = new std::map<std::string, SelectionResponse>(
        OracleAnswers(*variant_));
  }

  /// Fresh copies — SelectionService::Create and Reload take ownership.
  static ServiceArtifacts Base() { return *base_; }
  static ServiceArtifacts Variant() { return *variant_; }

  static std::vector<std::string> TargetNames() {
    std::vector<std::string> names;
    for (const Dataset* target : base_->registry.Targets(TaskDomain::kNLP)) {
      names.push_back(target->name());
    }
    return names;
  }

  /// The ground truth for one artifact set: a single-threaded service
  /// answers every target once. Whatever the swapping service returns must
  /// match one of these maps exactly, keyed by the response's
  /// artifact_version.
  static std::map<std::string, SelectionResponse> OracleAnswers(
      const ServiceArtifacts& artifacts) {
    MetricsRegistry metrics;
    ServiceOptions options;
    options.worker_threads = 0;
    options.metrics = &metrics;
    auto service_or = SelectionService::Create(
        ServiceArtifacts(artifacts), options);
    EXPECT_TRUE(service_or.ok()) << service_or.status().ToString();
    std::map<std::string, SelectionResponse> answers;
    for (const Dataset* target :
         artifacts.registry.Targets(artifacts.domain)) {
      SelectionRequest request;
      request.target = target->name();
      answers[request.target] = (*service_or)->Handle(request);
      EXPECT_TRUE(answers[request.target].status.ok());
    }
    return answers;
  }

  static SelectionRequest Request(const std::string& target) {
    SelectionRequest request;
    request.target = target;
    return request;
  }

  /// Bit-identical answer check: model, accuracy, and the whole epoch
  /// ledger (training/inference/total) plus the per-stage survivor counts.
  /// EXPECT_EQ on the doubles deliberately — interpolating or re-deriving
  /// any of these from the wrong version must fail, not "be close".
  static void ExpectSameAnswer(const SelectionResponse& got,
                               const SelectionResponse& want) {
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    EXPECT_EQ(got.selected_model, want.selected_model);
    EXPECT_EQ(got.selected_accuracy, want.selected_accuracy);
    EXPECT_EQ(got.training_epochs, want.training_epochs);
    EXPECT_EQ(got.inference_epochs, want.inference_epochs);
    EXPECT_EQ(got.total_epochs, want.total_epochs);
    EXPECT_EQ(got.survivors_per_stage, want.survivors_per_stage);
  }

  static const std::map<std::string, SelectionResponse>& OracleFor(
      uint64_t version) {
    // Versions 1 and 3 serve the base artifacts in these tests; version 2
    // serves the variant.
    return version == 2 ? *variant_oracle_ : *base_oracle_;
  }

  static ServiceArtifacts* base_;
  static ServiceArtifacts* variant_;
  static std::map<std::string, SelectionResponse>* base_oracle_;
  static std::map<std::string, SelectionResponse>* variant_oracle_;
};

ServiceArtifacts* HotSwapTest::base_ = nullptr;
ServiceArtifacts* HotSwapTest::variant_ = nullptr;
std::map<std::string, SelectionResponse>* HotSwapTest::base_oracle_ = nullptr;
std::map<std::string, SelectionResponse>* HotSwapTest::variant_oracle_ =
    nullptr;

TEST_F(HotSwapTest, SlotRetiresOldVersionOnlyAfterLastReaderDrops) {
  ArtifactSlot slot(std::make_shared<const ArtifactSnapshot>(Base(), 1));
  auto pinned = slot.Acquire();  // An "in-flight request" at version 1.
  EXPECT_EQ(pinned->version, 1u);
  EXPECT_EQ(slot.version(), 1u);

  auto retired =
      slot.Publish(std::make_shared<const ArtifactSnapshot>(Variant(), 2));
  EXPECT_EQ(slot.version(), 2u);
  EXPECT_EQ(slot.Acquire()->version, 2u);
  // Publish hands back exactly the snapshot it displaced...
  ASSERT_NE(retired, nullptr);
  EXPECT_EQ(retired.get(), pinned.get());
  retired.reset();
  // ...and dropping it does NOT destroy version 1: the reader still pins
  // it. Under ASan a use-after-free here fails loudly.
  EXPECT_EQ(pinned->version, 1u);
  EXPECT_EQ(pinned->artifacts.zoo.size(), base_->zoo.size());
}

TEST_F(HotSwapTest, ReloadSwapsAnswersAndBumpsVersion) {
  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = 0;
  options.metrics = &metrics;
  auto service_or = SelectionService::Create(Base(), options);
  ASSERT_TRUE(service_or.ok());
  SelectionService& service = **service_or;

  const std::vector<std::string> targets = TargetNames();
  ASSERT_FALSE(targets.empty());
  for (const std::string& target : targets) {
    const SelectionResponse response = service.Handle(Request(target));
    EXPECT_EQ(response.artifact_version, 1u);
    ExpectSameAnswer(response, base_oracle_->at(target));
  }

  ASSERT_TRUE(service.Reload(Variant()).ok());
  EXPECT_EQ(service.artifact_version(), 2u);
  EXPECT_EQ(service.Stats().artifact_version, 2u);
  EXPECT_EQ(service.Stats().reloads, 1u);

  bool any_answer_changed = false;
  for (const std::string& target : targets) {
    const SelectionResponse response = service.Handle(Request(target));
    EXPECT_EQ(response.artifact_version, 2u);
    ExpectSameAnswer(response, variant_oracle_->at(target));
    const SelectionResponse& before = base_oracle_->at(target);
    const SelectionResponse& after = variant_oracle_->at(target);
    any_answer_changed |=
        before.selected_model != after.selected_model ||
        before.selected_accuracy != after.selected_accuracy ||
        before.survivors_per_stage != after.survivors_per_stage ||
        before.total_epochs != after.total_epochs;
  }
  // The swap must be observable end to end, otherwise the oracle
  // comparisons above prove nothing about version attribution.
  EXPECT_TRUE(any_answer_changed);
}

TEST_F(HotSwapTest, ReloadValidatesBeforePublishing) {
  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = 0;
  options.metrics = &metrics;
  auto service_or = SelectionService::Create(Base(), options);
  ASSERT_TRUE(service_or.ok());
  SelectionService& service = **service_or;

  // Corrupt artifacts: one representative short of the cluster count.
  ServiceArtifacts bad = Base();
  ASSERT_FALSE(bad.clustering.representatives.empty());
  bad.clustering.representatives.pop_back();
  const Status status = service.Reload(std::move(bad));
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();

  // Wrong representative: one cluster's representative swapped for a
  // lower-accuracy member of the same cluster. Recall would re-derive the
  // rule's pick, so the stored one must be refused, not served silently.
  ServiceArtifacts demoted = Base();
  bool swapped = false;
  for (size_t c = 0; c < demoted.clustering.representatives.size() && !swapped;
       ++c) {
    const size_t rep = demoted.clustering.representatives[c];
    for (size_t m : demoted.clustering.clusters.Members(static_cast<int>(c))) {
      if (demoted.matrix.ModelAverageAccuracy(m) <
          demoted.matrix.ModelAverageAccuracy(rep)) {
        demoted.clustering.representatives[c] = m;
        swapped = true;
        break;
      }
    }
  }
  ASSERT_TRUE(swapped) << "base clustering has no multi-accuracy cluster";
  const Status demoted_status = service.Reload(std::move(demoted));
  EXPECT_TRUE(demoted_status.IsFailedPrecondition())
      << demoted_status.ToString();

  // Nothing was published: still version 1, still serving base answers.
  EXPECT_EQ(service.artifact_version(), 1u);
  EXPECT_EQ(service.Stats().reloads, 0u);
  const SelectionResponse response = service.Handle(Request("mnli"));
  EXPECT_EQ(response.artifact_version, 1u);
  ExpectSameAnswer(response, base_oracle_->at("mnli"));
}

// A request admitted at version V runs entirely against V even when the
// reload lands while it sits dequeued-but-unstarted — and the proxy cache
// it fills under epoch V is invisible to the version-V+1 request that runs
// right after it on the same target (satellite e: the epoch tag in
// ProxyCacheKey, not wall-clock luck, is what keeps versions apart).
TEST_F(HotSwapTest, StragglerKeepsAdmissionVersionAndEpochsNeverMix) {
  std::promise<void> picked_up;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::atomic<bool> armed{true};

  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = 1;
  options.metrics = &metrics;
  options.pre_handle_hook = [&] {
    if (armed.exchange(false)) {
      picked_up.set_value();
      release_future.wait();
    }
  };
  auto service_or = SelectionService::Create(Base(), options);
  ASSERT_TRUE(service_or.ok());
  SelectionService& service = **service_or;

  // The straggler: admitted (snapshot acquired) at version 1, then held by
  // the hook before its pipeline starts.
  std::future<SelectionResponse> straggler = service.Submit(Request("mnli"));
  picked_up.get_future().wait();

  // Reload lands while the straggler is parked: version 2 published.
  ASSERT_TRUE(service.Reload(Variant()).ok());
  ASSERT_EQ(service.artifact_version(), 2u);

  // Same target, admitted AFTER the reload — queued behind the straggler
  // on the single worker, so it runs after version-1 scores were cached.
  std::future<SelectionResponse> fresh = service.Submit(Request("mnli"));
  release.set_value();

  const SelectionResponse straggler_response = straggler.get();
  EXPECT_EQ(straggler_response.artifact_version, 1u);
  ExpectSameAnswer(straggler_response, base_oracle_->at("mnli"));

  const SelectionResponse fresh_response = fresh.get();
  EXPECT_EQ(fresh_response.artifact_version, 2u);
  ExpectSameAnswer(fresh_response, variant_oracle_->at("mnli"));
  // The cache now holds the straggler's epoch-1 entries for this exact
  // target. The epoch tag must make them invisible: everything the
  // version-2 request scored was a miss.
  EXPECT_EQ(fresh_response.cache_hits, 0u);
  EXPECT_GT(fresh_response.cache_misses, 0u);
}

// The ISSUE's acceptance test: >= 8 concurrent clients in a closed Submit
// loop, two Reloads landing mid-flight (base -> variant -> base). Zero
// requests fail, zero are dropped (every future resolves), and every
// response matches the oracle for its own artifact_version bit for bit.
TEST_F(HotSwapTest, SwapUnderLoadNeverDropsOrMixesVersions) {
  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = 4;
  options.metrics = &metrics;
  auto service_or = SelectionService::Create(Base(), options);
  ASSERT_TRUE(service_or.ok());
  SelectionService& service = **service_or;

  const std::vector<std::string> targets = TargetNames();
  ASSERT_FALSE(targets.empty());

  constexpr int kClients = 8;
  std::atomic<bool> stop{false};
  std::atomic<int> warmed{0};
  std::vector<std::vector<SelectionResponse>> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      int i = 0;
      while (true) {
        SelectionRequest request =
            Request(targets[(c + i) % targets.size()]);
        responses[c].push_back(service.Submit(std::move(request)).get());
        if (++i == 1) warmed.fetch_add(1);
        // Check AFTER completing a request so every client has at least
        // one answer admitted after the final reload was requested.
        if (stop.load()) break;
      }
    });
  }

  // Both reloads land while all eight clients are provably mid-loop:
  // wait until each has completed a request, and stop them only after.
  while (warmed.load() < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(service.Reload(Variant()).ok());  // -> version 2
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  ASSERT_TRUE(service.Reload(Base()).ok());  // -> version 3 (base again)
  stop.store(true);
  for (std::thread& client : clients) client.join();

  // Deterministic post-swap probe so "saw >= 2 versions" cannot depend on
  // scheduler timing.
  const SelectionResponse probe = service.Handle(Request(targets[0]));
  EXPECT_EQ(probe.artifact_version, 3u);
  ExpectSameAnswer(probe, base_oracle_->at(targets[0]));

  size_t total = 0;
  std::set<uint64_t> versions_seen = {probe.artifact_version};
  for (const auto& client_responses : responses) {
    for (const SelectionResponse& response : client_responses) {
      ++total;
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      ASSERT_GE(response.artifact_version, 1u);
      ASSERT_LE(response.artifact_version, 3u);
      versions_seen.insert(response.artifact_version);
      // The one check everything hangs on: the answer is EXACTLY the
      // oracle's for the version this request was admitted against.
      ExpectSameAnswer(response,
                       OracleFor(response.artifact_version).at(response.target));
    }
  }
  // Every client completed at least one request before the first reload
  // and one after stop was set.
  EXPECT_GE(total, static_cast<size_t>(kClients) * 2);
  // Version 1 (pre-reload warmup) and version 3 (the probe) are both
  // guaranteed observed.
  EXPECT_GE(versions_seen.size(), 2u);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.reloads, 2u);
  EXPECT_EQ(stats.artifact_version, 3u);
  EXPECT_EQ(stats.rejected, 0u);  // <= 8 outstanding vs. queue of 64.
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
}

}  // namespace
}  // namespace serve
}  // namespace tps
