#include "perfbench/layers.h"

#include <algorithm>
#include <chrono>

#include "core/coarse_recall.h"
#include "core/convergence_trend.h"
#include "core/fine_selection.h"
#include "serve/protocol.h"
#include "sim/hyperparams.h"
#include "transfer/proxy_scorer.h"
#include "util/stats.h"
#include "util/timer.h"

namespace tps {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Transfer costs are timed over this many traced targets' probe sets.
constexpr size_t kTransferSamples = 8;

double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// The models a recall of `artifacts` proxy-scores for a novel target:
// representatives of the index's probe set, or of the non-singleton
// clusters on the legacy sweep.
std::vector<size_t> ScoredModels(const serve::ServiceArtifacts& artifacts) {
  std::vector<size_t> models;
  if (artifacts.index != nullptr) {
    const IndexStructure& s = artifacts.index->structure();
    for (size_t p : artifacts.index->ProbePartitions(0)) {
      models.push_back(s.representatives[p]);
    }
  } else {
    for (int c : artifacts.clustering.NonSingletonClusters()) {
      models.push_back(
          artifacts.clustering.representatives[static_cast<size_t>(c)]);
    }
  }
  return models;
}

// One request through the service's pipeline as direct module calls, the
// way SelectionService::Run makes them, with a span around each call.
StatusOr<TracedRequest> TraceOne(Stack* stack, const std::string& name,
                                 MetricsRegistry* metrics) {
  TracedRequest out;
  out.target = name;
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);

  // Each span brackets one module call; the glue between calls (option
  // and response assembly) is left uncovered on purpose, and shows up as
  // the unattributed share.
  const Clock::time_point begin = Clock::now();
  Clock::time_point a = begin;
  const std::shared_ptr<const serve::ArtifactSnapshot> snapshot =
      stack->service->snapshot();
  out.acquire_us = Micros(a, Clock::now());

  serve::SelectionRequest request;
  request.target = name;
  a = Clock::now();
  TPS_ASSIGN_OR_RETURN(serve::WireRequest parsed,
                       serve::ParseRequestLine(serve::RequestToLine(request)));
  out.codec_us = Micros(a, Clock::now());

  const serve::ServiceArtifacts& artifacts = snapshot->artifacts;
  a = Clock::now();
  TPS_ASSIGN_OR_RETURN(const Dataset* target,
                       artifacts.registry.Find(parsed.select.target));
  out.find_us = Micros(a, Clock::now());

  RecallOptions options;
  options.top_k_models = parsed.select.top_k;
  options.proxy = parsed.select.proxy;
  options.score_cache = stack->service->cache();
  options.flight_group = stack->service->flight_group();
  options.artifact_epoch = snapshot->version;
  options.index = artifacts.index.get();
  CoarseRecall recall(&artifacts.zoo, &artifacts.matrix,
                      &artifacts.clustering);
  EpochBudget budget;
  a = Clock::now();
  TPS_ASSIGN_OR_RETURN(RecallResult recalled,
                       recall.Recall(*target, options, &budget, nullptr,
                                     metrics));
  out.recall_ms = Micros(a, Clock::now()) / 1e3;

  const uint64_t prunes_before = metrics->counter("fine.trend_prunes").value();
  FineSelectionOptions fine_options;
  fine_options.threshold = parsed.select.threshold;
  const std::vector<size_t> candidates =
      recalled.TopModels(options.top_k_models);
  a = Clock::now();
  ConvergenceTrendMiner miner(&artifacts.matrix, TrendMinerOptions());
  FineSelectionSelector fine(&artifacts.zoo, &snapshot->simulator, &miner,
                             fine_options);
  TPS_ASSIGN_OR_RETURN(SelectionOutcome outcome,
                       fine.Select(candidates, *target, hp, &budget, nullptr,
                                   metrics));
  out.fine_ms = Micros(a, Clock::now()) / 1e3;

  serve::SelectionResponse response;
  response.target = name;
  response.selected_model = artifacts.zoo.model(outcome.selected_model).name();
  response.selected_accuracy = outcome.selected_accuracy;
  response.training_epochs = budget.training_epochs();
  response.inference_epochs = budget.inference_epochs();
  response.total_epochs = budget.total_epochs();
  response.survivors_per_stage = outcome.survivors_per_stage;
  response.artifact_version = snapshot->version;
  a = Clock::now();
  TPS_ASSIGN_OR_RETURN(
      serve::SelectionResponse decoded,
      serve::ParseResponseLine(serve::ResponseToLine(response)));
  const Clock::time_point end = Clock::now();
  out.codec_us += Micros(a, end);

  out.selected_model = decoded.selected_model;
  out.total_epochs = decoded.total_epochs;
  out.training_epochs = outcome.training_epochs;
  out.trend_prunes = static_cast<double>(
      metrics->counter("fine.trend_prunes").value() - prunes_before);
  out.proxies = recalled.proxies_computed;
  out.candidates = recalled.ranked.size();
  out.total_ms = Micros(begin, end) / 1e3;
  const double covered_us = out.acquire_us + out.codec_us + out.find_us +
                            (out.recall_ms + out.fine_ms) * 1e3;
  out.unattributed_frac = 1.0 - covered_us / Micros(begin, end);

  // Outside the request: the ranking cost alone (every proxy is now
  // cached) and the index probe.
  WallTimer rank_timer;
  TPS_RETURN_NOT_OK(
      recall.Recall(*target, options, nullptr, nullptr, metrics).status());
  out.rank_ms = rank_timer.ElapsedMillis();
  if (artifacts.index != nullptr) {
    const Clock::time_point p0 = Clock::now();
    const std::vector<size_t> probed = artifacts.index->ProbePartitions(0);
    out.probe_us = Micros(p0, Clock::now());
    out.partitions_probed = probed.size();
  }
  return out;
}

// Forward pass and kernel cost per proxy over `targets`' probe sets.
Status MeasureTransfer(Stack* stack, const std::vector<std::string>& targets,
                       LayerPass* pass) {
  const std::shared_ptr<const serve::ArtifactSnapshot> snapshot =
      stack->service->snapshot();
  const serve::ServiceArtifacts& artifacts = snapshot->artifacts;
  std::vector<const PretrainedModel*> models;
  for (size_t m : ScoredModels(artifacts)) {
    models.push_back(&artifacts.zoo.model(m));
  }
  TPS_ASSIGN_OR_RETURN(std::unique_ptr<ProxyScorer> scorer,
                       MakeProxyScorer("leep"));
  double forward_ms = 0.0;
  double batch_ms = 0.0;
  size_t proxies = 0;
  for (size_t i = 0; i < std::min(kTransferSamples, targets.size()); ++i) {
    TPS_ASSIGN_OR_RETURN(const Dataset* target,
                         artifacts.registry.Find(targets[i]));
    for (const PretrainedModel* model : models) {
      WallTimer timer;
      TPS_RETURN_NOT_OK(model->PredictDistributions(*target).status());
      forward_ms += timer.ElapsedMillis();
    }
    WallTimer timer;
    TPS_RETURN_NOT_OK(scorer->ScoreBatch(models, *target).status());
    batch_ms += timer.ElapsedMillis();
    proxies += models.size();
  }
  if (proxies > 0) {
    pass->forward_ms_per_proxy = forward_ms / static_cast<double>(proxies);
    pass->kernel_ms_per_proxy =
        (batch_ms - forward_ms) / static_cast<double>(proxies);
  }
  return Status::OK();
}

}  // namespace

StatusOr<LayerPass> RunLayerPass(Stack* stack, const WorkloadInputs& inputs) {
  LayerPass pass;
  MetricsRegistry metrics;
  const size_t n =
      std::min(inputs.traced_targets.size(), inputs.untraced_targets.size());
  for (size_t i = 0; i < n; ++i) {
    auto untraced = [&]() -> Status {
      // The same work as a traced request, codec included, with no span.
      serve::SelectionRequest request;
      request.target = inputs.untraced_targets[i];
      WallTimer timer;
      TPS_ASSIGN_OR_RETURN(
          serve::WireRequest parsed,
          serve::ParseRequestLine(serve::RequestToLine(request)));
      const serve::SelectionResponse response =
          stack->service->Handle(parsed.select);
      TPS_RETURN_NOT_OK(
          serve::ParseResponseLine(serve::ResponseToLine(response)).status());
      pass.untraced_ms.push_back(timer.ElapsedMillis());
      return Status::OK();
    };
    auto traced = [&]() -> Status {
      TPS_ASSIGN_OR_RETURN(TracedRequest one,
                           TraceOne(stack, inputs.traced_targets[i], &metrics));
      pass.traced.push_back(std::move(one));
      return Status::OK();
    };
    // Alternate which side goes first, so drift in host speed falls on
    // both equally.
    if (i % 2 == 0) {
      TPS_RETURN_NOT_OK(untraced());
      TPS_RETURN_NOT_OK(traced());
    } else {
      TPS_RETURN_NOT_OK(traced());
      TPS_RETURN_NOT_OK(untraced());
    }
  }
  TPS_RETURN_NOT_OK(MeasureTransfer(stack, inputs.traced_targets, &pass));
  return pass;
}

StatusOr<double> MeasurePublishMs(Stack* stack, int repeats) {
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    serve::ServiceArtifacts copy = stack->service->snapshot()->artifacts;
    WallTimer timer;
    TPS_RETURN_NOT_OK(stack->service->Reload(std::move(copy)));
    times.push_back(timer.ElapsedMillis());
  }
  return stats::Median(times);
}

}  // namespace perfbench
}  // namespace tps
