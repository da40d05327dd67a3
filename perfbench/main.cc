// Serving benchmark: one workload against the shipped stack
// (SelectionServer on a Unix socket in front of SelectionService with its
// default options), driven over the wire.
//
//   perfbench --workload cold-5k|hot-wire --seed N --seconds S
//             --trace 0|1 [--work-dir DIR]
//
// --trace 0 sets the stack up several times (setup_s is the median), runs
// five rounds of open loop and capacity, then hot-wire's swap phase,
// checks the answers, and prints every end-to-end metric. --trace 1 sets
// up once with each step timed, runs the open loop and swap phase again,
// then the traced per-layer pass (layers.h), and prints every per-layer
// metric. Either
// way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when any answer was wrong or any
// operation failed. README.md in this directory explains the workloads
// and what each metric should move.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/coarse_recall.h"
#include "core/two_phase.h"
#include "perfbench/layers.h"
#include "perfbench/stack.h"
#include "perfbench/wire.h"
#include "perfbench/workload.h"
#include "serve/protocol.h"
#include "sim/hyperparams.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/timer.h"

namespace tps {
namespace perfbench {
namespace {

constexpr int kPublishRepeats = 3;
constexpr size_t kIdleReloads = 3;
constexpr size_t kTopK = 10;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir;
};

StatusOr<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Status::InvalidArgument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        return Status::InvalidArgument("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Status::InvalidArgument("bad value '" + value + "' for " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || !(args.seconds > 0.0) ||
      (args.trace != 0 && args.trace != 1)) {
    return Status::InvalidArgument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--work-dir DIR]");
  }
  if (args.work_dir.empty()) {
    args.work_dir = ".bench_build/run-" + std::to_string(::getpid());
  }
  return args;
}

// Fewest open-loop samples a round needs for its own p99 (ten beyond it).
constexpr size_t kTailWindow = 1000;

// p99 of `latency` (open-loop replies in schedule order, kRounds equal
// shares). When every round has kTailWindow samples, the median of the
// rounds' p99s, so a host stall that lands in one round does not set the
// tail of the whole run; otherwise the p99 of all samples.
double RoundsP99(const std::vector<double>& latency) {
  const size_t n = latency.size();
  if (n / kRounds < kTailWindow) return stats::Percentile(latency, 99.0);
  std::vector<double> p99s;
  std::cout << "open-loop p99 per round:";
  for (size_t r = 0; r < kRounds; ++r) {
    p99s.push_back(stats::Percentile(
        std::vector<double>(
            latency.begin() + static_cast<std::ptrdiff_t>(RoundBegin(r, n)),
            latency.begin() +
                static_cast<std::ptrdiff_t>(RoundBegin(r + 1, n))),
        99.0));
    std::cout << " " << p99s.back();
  }
  std::cout << " ms\n";
  return stats::Median(p99s);
}

// The highest percentile with at least ten samples beyond it, capped at 99.
double TailPercentile(size_t n) {
  if (n <= 10) return 0.0;
  return std::min(99.0, 100.0 * (1.0 - 10.0 / static_cast<double>(n)));
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    correct_ = false;
    std::cout << "CHECK FAILED: " << why << "\n";
  }
  void Count(size_t attempted, size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool ok() const { return correct_ && failed_ == 0; }

  std::string Json() const {
    json::Value metrics = json::Value::Object();
    for (const Metric& m : metrics_) {
      json::Value metric = json::Value::Object();
      metric.Set("value", json::Value::Number(m.value));
      metric.Set("unit", json::Value::String(m.unit));
      metrics.Set(m.name, std::move(metric));
    }
    json::Value doc = json::Value::Object();
    doc.Set("correct", json::Value::Bool(correct_));
    doc.Set("attempted", json::Value::Int(static_cast<int64_t>(attempted_)));
    doc.Set("failed", json::Value::Int(static_cast<int64_t>(failed_)));
    doc.Set("metrics", std::move(metrics));
    return doc.Dump(-1);
  }

  bool AllFinite() const {
    for (const Metric& m : metrics_) {
      if (!std::isfinite(m.value)) return false;
    }
    return true;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

// The serial, uncached answer for one target, and the quality figures
// measured against it.
struct Oracle {
  std::string selected;
  double training_epochs = 0.0;
  double total_epochs = 0.0;
  double accuracy_vs_best = 0.0;
  double recall_at_10 = 0.0;
};

StatusOr<Oracle> ComputeOracle(const serve::ArtifactSnapshot& snapshot,
                               const std::string& name) {
  const serve::ServiceArtifacts& a = snapshot.artifacts;
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  TPS_ASSIGN_OR_RETURN(const Dataset* target, a.registry.Find(name));
  MetricsRegistry quiet(/*enabled=*/false);
  FineTuneSimulator simulator;
  TwoPhaseSelector selector(&a.zoo, &a.matrix, &a.clustering, &simulator);
  TwoPhaseOptions options;
  options.recall.top_k_models = kTopK;
  options.recall.index = a.index.get();
  options.metrics = &quiet;
  TPS_ASSIGN_OR_RETURN(TwoPhaseReport report,
                       selector.Select(*target, options, hp, nullptr));
  Oracle out;
  out.selected = a.zoo.model(report.selection.selected_model).name();
  out.training_epochs = report.budget.training_epochs();
  out.total_epochs = report.budget.total_epochs();

  // Exhaustive recall: the same index probed in full.
  std::vector<size_t> exhaustive = report.recall.TopModels(kTopK);
  if (a.index != nullptr) {
    RecallOptions full = options.recall;
    full.nprobe = a.index->structure().scored_partitions.size();
    CoarseRecall recall(&a.zoo, &a.matrix, &a.clustering);
    TPS_ASSIGN_OR_RETURN(RecallResult all,
                         recall.Recall(*target, full, nullptr, nullptr,
                                       &quiet));
    exhaustive = all.TopModels(kTopK);
  }
  const std::vector<size_t> served = report.recall.TopModels(kTopK);
  const std::set<size_t> served_set(served.begin(), served.end());
  size_t hits = 0;
  for (size_t m : exhaustive) hits += served_set.count(m);
  out.recall_at_10 =
      static_cast<double>(hits) / static_cast<double>(exhaustive.size());

  double best = 0.0;
  for (const PretrainedModel& model : a.zoo.models()) {
    TPS_ASSIGN_OR_RETURN(TrainingRun run, simulator.Run(model, *target, hp));
    best = std::max(best, run.final_test());
  }
  out.accuracy_vs_best = report.selection.selected_accuracy / best;
  return out;
}

// Oracles for every target in `names`, computed on all cores (untimed).
StatusOr<std::map<std::string, Oracle>> ComputeOracles(
    const serve::ArtifactSnapshot& snapshot,
    const std::vector<std::string>& names) {
  std::vector<StatusOr<Oracle>> results(names.size(),
                                        Status::Internal("not computed"));
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < names.size();) {
        results[i] = ComputeOracle(snapshot, names[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::map<std::string, Oracle> out;
  for (size_t i = 0; i < names.size(); ++i) {
    TPS_RETURN_NOT_OK(results[i].status());
    out[names[i]] = std::move(results[i]).value();
  }
  return out;
}

// Decoded replies of one phase, with every failure and wrong answer
// counted.
struct Checked {
  std::vector<serve::SelectionResponse> responses;  // Parallel to replies.
  std::vector<bool> good;  // OK, and equal to the oracle where checked.
  size_t ok = 0;
  size_t failed = 0;
};

Checked CheckPhase(const std::string& phase, const PhaseResult& result,
                   const std::map<std::string, Oracle>& oracles,
                   const std::set<size_t>& checked_indices, bool check_all,
                   const std::set<uint64_t>& published, Report* report) {
  Checked out;
  out.responses.resize(result.replies.size());
  out.good.assign(result.replies.size(), false);
  for (size_t i = 0; i < result.replies.size(); ++i) {
    const WireReply& reply = result.replies[i];
    StatusOr<serve::SelectionResponse> parsed =
        serve::ParseResponseLine(reply.line);
    if (!parsed.ok()) {
      ++out.failed;
      report->Fail(phase + " request " + std::to_string(i) + " (" +
                   reply.target + "): " + parsed.status().ToString());
      continue;
    }
    serve::SelectionResponse& response = out.responses[i];
    response = std::move(parsed).value();
    if (published.count(response.artifact_version) == 0) {
      ++out.failed;
      report->Fail(phase + " reply tagged with unpublished version " +
                   std::to_string(response.artifact_version));
      continue;
    }
    if (check_all || checked_indices.count(i) > 0) {
      const Oracle& want = oracles.at(reply.target);
      if (response.selected_model != want.selected ||
          response.training_epochs != want.training_epochs ||
          response.total_epochs != want.total_epochs) {
        ++out.failed;
        report->Fail(phase + " answer for " + reply.target + ": got " +
                     response.selected_model + " / " +
                     std::to_string(response.total_epochs) +
                     " epochs, serial uncached selector says " +
                     want.selected + " / " +
                     std::to_string(want.total_epochs));
        continue;
      }
    }
    out.good[i] = true;
    ++out.ok;
  }
  return out;
}

std::vector<double> Field(const std::vector<WireReply>& replies,
                          const std::vector<bool>& good,
                          double WireReply::*field) {
  std::vector<double> out;
  for (size_t i = 0; i < replies.size(); ++i) {
    if (good[i]) out.push_back(replies[i].*field);
  }
  return out;
}

void PrintPhase(const std::string& name, const PhaseResult& result,
                const Checked& checked) {
  std::vector<double> lag;
  for (const WireReply& r : result.replies) lag.push_back(r.send_lag_ms);
  std::cout << "phase " << name << ": sent " << result.replies.size()
            << ", ok " << checked.ok << ", failed " << checked.failed
            << ", elapsed " << result.elapsed_s << " s";
  if (!lag.empty()) {
    std::cout << ", send lag p50 " << stats::Percentile(lag, 50.0)
              << " ms, p99 " << stats::Percentile(lag, 99.0) << " ms, max "
              << *std::max_element(lag.begin(), lag.end()) << " ms";
  }
  std::cout << "\n";
}

// The run's connections: kLoadConnections for selects, one for reloads.
struct Client {
  std::vector<Connection> load;
  Connection control;
};

StatusOr<Client> OpenClient(const Stack& stack) {
  Client client;
  TPS_ASSIGN_OR_RETURN(client.load,
                       Connect(stack.socket_path, kLoadConnections));
  TPS_ASSIGN_OR_RETURN(std::vector<Connection> control,
                       Connect(stack.socket_path, 1));
  client.control = std::move(control.front());
  return client;
}

Status Warmup(const WorkloadInputs& inputs, Client* client) {
  const PhaseResult warm = RunClosedLoop(client->load, inputs.warmup_targets);
  for (const WireReply& reply : warm.replies) {
    TPS_RETURN_NOT_OK(serve::ParseResponseLine(reply.line).status());
  }
  return Status::OK();
}

// Everything the measured rounds sent, merged across rounds in order.
struct Rounds {
  PhaseResult open;
  PhaseResult capacity;
  PhaseResult swap;
  std::vector<double> capacity_qps;  // One per round.
  std::vector<double> reload_ms;
  std::set<uint64_t> published = {1};  // Versions any reply may carry.
};

// Moves `from`'s replies and reloads into `to` and `rounds`.
void Append(PhaseResult&& from, PhaseResult* to, Rounds* rounds) {
  to->elapsed_s += from.elapsed_s;
  for (WireReply& reply : from.replies) to->replies.push_back(std::move(reply));
  rounds->reload_ms.insert(rounds->reload_ms.end(), from.reload_ms.begin(),
                           from.reload_ms.end());
  rounds->published.insert(from.reload_versions.begin(),
                           from.reload_versions.end());
}

// Sends requests [b, e) of an open-loop schedule as one segment, re-based
// to start now, with the reloads whose times fall inside it.
StatusOr<PhaseResult> RunSegment(const std::vector<double>& arrival_s,
                                 const std::vector<std::string>& targets,
                                 const std::vector<double>& reload_at_s,
                                 size_t b, size_t e, Stack* stack,
                                 Client* client) {
  const double base = b == 0 ? 0.0 : arrival_s[b - 1];
  std::vector<double> arrivals, reloads;
  for (size_t i = b; i < e; ++i) arrivals.push_back(arrival_s[i] - base);
  for (double t : reload_at_s) {
    if (t > base && t <= arrival_s[e - 1]) reloads.push_back(t - base);
  }
  const std::vector<std::string> segment(
      targets.begin() + static_cast<std::ptrdiff_t>(b),
      targets.begin() + static_cast<std::ptrdiff_t>(e));
  return RunOpenLoop(client->load, arrivals, segment, reloads,
                     stack->reload_source, &client->control);
}

// The measured phases, in kRounds rounds: round r sends the r-th share of
// the open-loop schedule, then, when `with_capacity`, the r-th share of
// the capacity requests.
StatusOr<Rounds> RunRounds(const WorkloadInputs& in, Stack* stack,
                           Client* client, bool with_capacity) {
  Rounds out;
  const size_t n = in.arrival_s.size();
  const size_t m = in.capacity_targets.size();
  for (size_t r = 0; r < kRounds; ++r) {
    TPS_ASSIGN_OR_RETURN(
        PhaseResult open,
        RunSegment(in.arrival_s, in.open_loop_targets, {}, RoundBegin(r, n),
                   RoundBegin(r + 1, n), stack, client));
    Append(std::move(open), &out.open, &out);
    if (!with_capacity) continue;

    const std::vector<std::string> slice(
        in.capacity_targets.begin() +
            static_cast<std::ptrdiff_t>(RoundBegin(r, m)),
        in.capacity_targets.begin() +
            static_cast<std::ptrdiff_t>(RoundBegin(r + 1, m)));
    PhaseResult capacity = RunClosedLoop(client->load, slice);
    out.capacity_qps.push_back(static_cast<double>(capacity.replies.size()) /
                               capacity.elapsed_s);
    Append(std::move(capacity), &out.capacity, &out);
  }
  return out;
}

// The swap phase: one open-loop segment per reload, the reload sent on the
// control connection while the segment sends. Replies go to `out->swap`.
Status RunSwapPhase(const WorkloadInputs& in, Stack* stack, Client* client,
                    Rounds* out) {
  for (size_t k = 0; k < in.reload_at_s.size(); ++k) {
    TPS_ASSIGN_OR_RETURN(
        PhaseResult segment,
        RunSegment(in.swap_arrival_s, in.swap_targets, in.reload_at_s,
                   k * kSwapSegmentRequests, (k + 1) * kSwapSegmentRequests,
                   stack, client));
    Append(std::move(segment), &out->swap, out);
  }
  return Status::OK();
}

// Oracle targets and the open-loop indices checked against them.
struct CheckPlan {
  std::vector<std::string> targets;
  std::set<size_t> open_loop_indices;
  bool check_all = false;
};

CheckPlan PlanChecks(const WorkloadSpec& spec, const WorkloadInputs& in,
                     bool include_traced) {
  CheckPlan plan;
  std::set<std::string> names;
  if (spec.novel_targets) {
    const size_t n = in.open_loop_targets.size();
    const size_t stride = std::max<size_t>(1, n / spec.checked_targets);
    for (size_t i = 0; i < n && plan.open_loop_indices.size() <
                                     spec.checked_targets;
         i += stride) {
      plan.open_loop_indices.insert(i);
      names.insert(in.open_loop_targets[i]);
    }
    if (include_traced) {
      names.insert(in.traced_targets.begin(), in.traced_targets.end());
    }
  } else {
    plan.check_all = true;
    for (const auto* list : {&in.open_loop_targets, &in.capacity_targets,
                             &in.traced_targets}) {
      names.insert(list->begin(), list->end());
    }
  }
  plan.targets.assign(names.begin(), names.end());
  return plan;
}

Status CheckGuards(const WorkloadSpec& spec, const WorkloadInputs& inputs,
                   const Stack& stack) {
  if (spec.novel_targets) return CheckNoTargetReuse(inputs);
  return CheckTargetsFitCache(
      inputs, ProxiesPerRequest(stack.service->snapshot()->artifacts),
      kCacheCapacity);
}

void PrintContext(const Args& args, const WorkloadSpec& spec,
                  const WorkloadInputs& inputs) {
  std::cout << "perfbench workload=" << spec.name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << "\n  nproc=" << std::thread::hardware_concurrency()
            << " build_type=" << PERFBENCH_BUILD_TYPE
            << " load_connections=" << kLoadConnections
            << " service=default options (2 workers, serial pipeline, "
            << kCacheCapacity << "-entry cache, coalescing on)"
            << "\n  offered_qps=" << spec.offered_qps
            << " open_loop_requests=" << inputs.arrival_s.size()
            << " capacity_requests=" << inputs.capacity_targets.size()
            << " slo_ms=" << spec.slo_ms
            << " swap_reloads=" << inputs.reload_at_s.size()
            << " rounds=" << kRounds << "\n";
}

// --trace 0: every end-to-end metric.
Status RunEndToEnd(const Args& args, const WorkloadSpec& spec,
                   const WorkloadInputs& inputs, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (size_t r = 0; r < spec.setup_repeats; ++r) {
    stack.reset();  // Tear the previous stack down before timing the next.
    SetupTimes times;
    TPS_ASSIGN_OR_RETURN(stack, SetUp(spec, inputs, args.work_dir,
                                      "serve" + std::to_string(r),
                                      /*fine_histograms=*/false, &times));
    setup_s.push_back(times.total_s);
  }
  std::cout << "setup_s runs:";
  for (double s : setup_s) std::cout << " " << s;
  std::cout << "\n";
  TPS_RETURN_NOT_OK(CheckGuards(spec, inputs, *stack));
  if (spec.swap_reloads > 0) {
    TPS_RETURN_NOT_OK(WriteReloadSource(stack.get(), args.work_dir).status());
  }
  TPS_ASSIGN_OR_RETURN(Client client, OpenClient(*stack));
  TPS_RETURN_NOT_OK(Warmup(inputs, &client));

  TPS_ASSIGN_OR_RETURN(Rounds rounds,
                       RunRounds(inputs, stack.get(), &client,
                                 /*with_capacity=*/true));
  TPS_RETURN_NOT_OK(RunSwapPhase(inputs, stack.get(), &client, &rounds));
  const PhaseResult& open = rounds.open;
  const PhaseResult& capacity = rounds.capacity;
  const PhaseResult& swap = rounds.swap;
  const std::vector<double>& reload_ms = rounds.reload_ms;
  const std::set<uint64_t>& published = rounds.published;

  const CheckPlan plan = PlanChecks(spec, inputs, /*include_traced=*/false);
  TPS_ASSIGN_OR_RETURN(
      const auto oracles,
      ComputeOracles(*stack->service->snapshot(), plan.targets));
  const Checked open_checked =
      CheckPhase("open-loop", open, oracles, plan.open_loop_indices,
                 plan.check_all, published, report);
  const Checked capacity_checked =
      CheckPhase("capacity", capacity, oracles, {}, plan.check_all,
                 published, report);
  const Checked swap_checked = CheckPhase(
      "swap", swap, oracles, {}, plan.check_all, published, report);
  PrintPhase("open-loop", open, open_checked);
  PrintPhase("capacity", capacity, capacity_checked);
  if (!swap.replies.empty()) PrintPhase("swap", swap, swap_checked);
  std::cout << "capacity rounds qps:";
  for (double q : rounds.capacity_qps) std::cout << " " << q;
  std::cout << "\n";
  if (!reload_ms.empty()) {
    std::cout << "phase swap reloads: sent " << reload_ms.size() << ", ok "
              << reload_ms.size() << ", failed 0, ms:";
    for (double ms : reload_ms) std::cout << " " << ms;
    std::cout << "\n";
  }
  report->Count(open.replies.size() + capacity.replies.size() +
                    swap.replies.size() + reload_ms.size(),
                open_checked.failed + capacity_checked.failed +
                    swap_checked.failed);

  const std::vector<double> latency =
      Field(open.replies, open_checked.good, &WireReply::latency_ms);
  const double tail = TailPercentile(latency.size());
  double accuracy = 0.0, recall = 0.0, recall_min = 1.0;
  for (const auto& [name, oracle] : oracles) {
    accuracy += oracle.accuracy_vs_best;
    recall += oracle.recall_at_10;
    recall_min = std::min(recall_min, oracle.recall_at_10);
  }
  std::cout << "quality over " << oracles.size()
            << " checked targets: recall_at_10_min " << recall_min << "\n";
  std::cout << "open-loop latency: " << latency.size()
            << " ok samples, tail percentile supported p" << tail
            << ", p99 " << RoundsP99(latency) << " ms (per layer as "
            << "tail.p99_ms)\n";
  if (tail < 99.0) {
    return Status::FailedPrecondition(
        "too few open-loop samples for p99; raise --seconds");
  }
  size_t within = 0;
  for (double ms : latency) within += ms <= spec.slo_ms ? 1 : 0;
  double epochs = 0.0;
  size_t answered = 0;
  for (const Checked* c : {&open_checked, &capacity_checked, &swap_checked}) {
    for (size_t i = 0; i < c->responses.size(); ++i) {
      if (!c->good[i]) continue;
      epochs += c->responses[i].total_epochs;
      ++answered;
    }
  }
  const double checked = static_cast<double>(oracles.size());
  const double offered = static_cast<double>(
      open.replies.size() + capacity.replies.size() + swap.replies.size());

  report->Add("setup_s", stats::Median(setup_s), "s");
  report->Add("p50_ms", stats::Percentile(latency, 50.0), "ms");
  report->Add("slo_attainment",
              static_cast<double>(within) /
                  static_cast<double>(open.replies.size()),
              "ratio");
  report->Add("capacity_qps", stats::Median(rounds.capacity_qps), "1/s");
  report->Add("ok_frac",
              static_cast<double>(open_checked.ok + capacity_checked.ok +
                                  swap_checked.ok) /
                  offered,
              "ratio");
  report->Add("epochs_per_request",
              answered == 0 ? 0.0 : epochs / static_cast<double>(answered),
              "epochs");
  report->Add("accuracy_vs_oracle", accuracy / checked, "ratio");
  report->Add("recall_at_10", recall / checked, "ratio");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  return Status::OK();
}

// --trace 1: every per-layer metric.
Status RunTraced(const Args& args, const WorkloadSpec& spec,
                 const WorkloadInputs& inputs, Report* report) {
  SetupTimes times;
  TPS_ASSIGN_OR_RETURN(std::unique_ptr<Stack> stack,
                       SetUp(spec, inputs, args.work_dir, "traced",
                             /*fine_histograms=*/true, &times));
  TPS_RETURN_NOT_OK(CheckGuards(spec, inputs, *stack));
  TPS_ASSIGN_OR_RETURN(const double store_write_ms,
                       WriteReloadSource(stack.get(), args.work_dir));
  TPS_ASSIGN_OR_RETURN(Client client, OpenClient(*stack));
  TPS_RETURN_NOT_OK(Warmup(inputs, &client));

  serve::SelectionService& service = *stack->service;
  MetricsRegistry& m = *stack->metrics;
  const uint64_t hits0 = service.cache()->hits();
  const uint64_t misses0 = service.cache()->misses();
  const uint64_t leaders0 = service.flight_group()->leaders();
  const uint64_t waiters0 = service.flight_group()->waiters();
  const auto queue0 = BucketCounts(m.histogram("serve.queue_wait_us"));
  const auto recall0 = BucketCounts(m.histogram("recall.wall_us"));
  const auto fine0 = BucketCounts(m.histogram("fine.wall_us"));

  TPS_ASSIGN_OR_RETURN(Rounds rounds,
                       RunRounds(inputs, stack.get(), &client,
                                 /*with_capacity=*/false));
  const PhaseResult& open = rounds.open;
  const PhaseResult& swap = rounds.swap;
  // Latency histograms cover the rounds; the cache and flight counters
  // below also cover the swap phase, where the misses happen.
  const double queue_p50 =
      HistogramPercentile(m.histogram("serve.queue_wait_us"), queue0, 50.0) /
      1e3;
  const double queue_p99 =
      HistogramPercentile(m.histogram("serve.queue_wait_us"), queue0, 99.0) /
      1e3;
  const double recall_p50 =
      HistogramPercentile(m.histogram("recall.wall_us"), recall0, 50.0) / 1e3;
  const double recall_p99 =
      HistogramPercentile(m.histogram("recall.wall_us"), recall0, 99.0) / 1e3;
  const double fine_p50 =
      HistogramPercentile(m.histogram("fine.wall_us"), fine0, 50.0) / 1e3;

  TPS_RETURN_NOT_OK(RunSwapPhase(inputs, stack.get(), &client, &rounds));
  const uint64_t hits = service.cache()->hits() - hits0;
  const uint64_t misses = service.cache()->misses() - misses0;
  const uint64_t leaders = service.flight_group()->leaders() - leaders0;
  const uint64_t waiters = service.flight_group()->waiters() - waiters0;

  TPS_ASSIGN_OR_RETURN(LayerPass pass, RunLayerPass(stack.get(), inputs));

  const std::set<uint64_t>& published = rounds.published;
  const CheckPlan plan = PlanChecks(spec, inputs, /*include_traced=*/true);
  TPS_ASSIGN_OR_RETURN(const auto oracles,
                       ComputeOracles(*service.snapshot(), plan.targets));
  const Checked checked =
      CheckPhase("open-loop", open, oracles, plan.open_loop_indices,
                 plan.check_all, published, report);
  const Checked swap_checked = CheckPhase(
      "swap", swap, oracles, {}, plan.check_all, published, report);
  PrintPhase("open-loop", open, checked);
  if (!swap.replies.empty()) PrintPhase("swap", swap, swap_checked);
  size_t traced_failed = 0;
  for (const TracedRequest& t : pass.traced) {
    const Oracle& want = oracles.at(t.target);
    if (t.selected_model != want.selected ||
        t.total_epochs != want.total_epochs) {
      ++traced_failed;
      report->Fail("traced answer for " + t.target + ": got " +
                   t.selected_model + ", serial uncached selector says " +
                   want.selected);
    }
  }
  report->Count(open.replies.size() + swap.replies.size() +
                    pass.traced.size() + pass.untraced_ms.size(),
                checked.failed + swap_checked.failed + traced_failed);

  double store_load_ms = 0.0;
  {
    WallTimer timer;
    TPS_RETURN_NOT_OK(
        serve::ServiceArtifacts::Load(stack->reload_source).status());
    store_load_ms = timer.ElapsedMillis();
  }
  TPS_ASSIGN_OR_RETURN(const double publish_ms,
                       MeasurePublishMs(stack.get(), kPublishRepeats));
  // Reload latency over the wire: the swap phase's reloads on hot-wire,
  // idle reloads here on cold-5k (after the checks: a reloaded registry no
  // longer holds the generated targets).
  std::vector<double> reload_ms = rounds.reload_ms;
  if (reload_ms.empty()) {
    TPS_ASSIGN_OR_RETURN(PhaseResult idle,
                         RunIdleReloads(&client.control, stack->reload_source,
                                        kIdleReloads));
    reload_ms = idle.reload_ms;
  }
  report->Count(reload_ms.size(), 0);

  std::vector<double> pipeline, overhead, lag;
  double arrivals = 0.0;
  for (size_t i = 0; i < open.replies.size(); ++i) {
    lag.push_back(open.replies[i].send_lag_ms);
    if (!checked.good[i]) continue;
    const serve::SelectionResponse& r = checked.responses[i];
    pipeline.push_back(r.wall_ms);
    overhead.push_back(open.replies[i].round_trip_ms - r.wall_ms);
    arrivals += 2.0 * r.inference_epochs;  // 0.5 epochs per proxy.
  }
  for (size_t i = 0; i < swap.replies.size(); ++i) {
    if (swap_checked.good[i]) {
      arrivals += 2.0 * swap_checked.responses[i].inference_epochs;
    }
  }
  auto collect = [&](auto field) {
    std::vector<double> v;
    for (const TracedRequest& t : pass.traced) v.push_back(field(t));
    return v;
  };
  auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : stats::Mean(v);
  };
  const double traced_p50 = stats::Median(
      collect([](const TracedRequest& t) { return t.total_ms; }));
  const double untraced_p50 = stats::Median(pass.untraced_ms);

  report->Add("tail.p99_ms",
              RoundsP99(Field(open.replies, checked.good,
                              &WireReply::latency_ms)),
              "ms");
  report->Add("serve.queue_wait_ms.p50", queue_p50, "ms");
  report->Add("serve.queue_wait_ms.p99", queue_p99, "ms");
  report->Add("serve.pipeline_ms.p50", stats::Percentile(pipeline, 50.0),
              "ms");
  report->Add("serve.pipeline_ms.p99", stats::Percentile(pipeline, 99.0),
              "ms");
  report->Add("serve.acquire_us.p50",
              stats::Median(collect(
                  [](const TracedRequest& t) { return t.acquire_us; })),
              "us");
  report->Add("serve.publish_ms", publish_ms, "ms");
  report->Add("serve.reload_ms", stats::Median(reload_ms), "ms");
  report->Add("wire.overhead_ms.p50",
              stats::Percentile(overhead, 50.0) - queue_p50, "ms");
  report->Add("wire.codec_us.p50",
              stats::Median(
                  collect([](const TracedRequest& t) { return t.codec_us; })),
              "us");
  report->Add("wire.send_lag_ms.p50", stats::Percentile(lag, 50.0), "ms");
  report->Add("wire.send_lag_ms.p99", stats::Percentile(lag, 99.0), "ms");
  report->Add("store.load_ms", store_load_ms, "ms");
  report->Add("setup.store_write_ms", store_write_ms, "ms");
  report->Add("setup.registry_ms", times.registry_ms, "ms");
  report->Add("setup.zoo_ms", times.zoo_ms, "ms");
  report->Add("setup.matrix_ms", times.matrix_ms, "ms");
  report->Add("setup.index_ms", times.index_ms, "ms");
  report->Add("setup.clustering_ms", times.clustering_ms, "ms");
  report->Add("index.probe_us.p50",
              stats::Median(
                  collect([](const TracedRequest& t) { return t.probe_us; })),
              "us");
  report->Add("index.partitions_probed",
              mean(collect([](const TracedRequest& t) {
                return static_cast<double>(t.partitions_probed);
              })),
              "count");
  report->Add("recall.ms.p50", recall_p50, "ms");
  report->Add("recall.ms.p99", recall_p99, "ms");
  report->Add("recall.rank_ms.p50",
              stats::Median(
                  collect([](const TracedRequest& t) { return t.rank_ms; })),
              "ms");
  report->Add("recall.proxies_per_request",
              mean(collect([](const TracedRequest& t) {
                return static_cast<double>(t.proxies);
              })),
              "count");
  report->Add("recall.candidates_per_request",
              mean(collect([](const TracedRequest& t) {
                return static_cast<double>(t.candidates);
              })),
              "count");
  report->Add("transfer.forward_ms_per_proxy", pass.forward_ms_per_proxy,
              "ms");
  report->Add("transfer.kernel_ms_per_proxy", pass.kernel_ms_per_proxy,
              "ms");
  report->Add("transfer.cache_hit_ratio",
              hits + misses == 0
                  ? 0.0
                  : static_cast<double>(hits) /
                        static_cast<double>(hits + misses),
              "ratio");
  report->Add("transfer.flight_waiter_share",
              leaders + waiters == 0
                  ? 0.0
                  : static_cast<double>(waiters) /
                        static_cast<double>(leaders + waiters),
              "ratio");
  report->Add("transfer.flight_conservation_gap",
              static_cast<double>(leaders + waiters + hits) - arrivals,
              "count");
  report->Add("fine.ms.p50", fine_p50, "ms");
  report->Add("fine.training_epochs_per_request",
              mean(collect(
                  [](const TracedRequest& t) { return t.training_epochs; })),
              "epochs");
  report->Add("fine.trend_prunes_per_request",
              mean(collect(
                  [](const TracedRequest& t) { return t.trend_prunes; })),
              "count");
  double recall_min = 1.0;
  for (const auto& [name, oracle] : oracles) {
    recall_min = std::min(recall_min, oracle.recall_at_10);
  }
  report->Add("quality.recall_at_10_min", recall_min, "ratio");
  report->Add("trace.unattributed_frac",
              stats::Median(collect([](const TracedRequest& t) {
                return t.unattributed_frac;
              })),
              "ratio");
  report->Add("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0,
              "ratio");
  std::cout << "traced pass: " << pass.traced.size()
            << " traced requests, p50 " << traced_p50 << " ms; "
            << pass.untraced_ms.size() << " untraced, p50 " << untraced_p50
            << " ms\n";
  return Status::OK();
}

int Main(int argc, char** argv) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::cerr << "perfbench refuses sanitizer builds: timings would be "
               "meaningless\n";
  return 2;
#endif
  if (std::string(PERFBENCH_SANITIZE).size() > 0) {
    std::cerr << "perfbench refuses sanitizer builds (TPS_SANITIZE="
              << PERFBENCH_SANITIZE << ")\n";
    return 2;
  }
  StatusOr<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status().ToString() << "\n";
    return 2;
  }
  StatusOr<WorkloadSpec> spec = FindWorkload(args->workload);
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n";
    return 2;
  }
  StatusOr<WorkloadInputs> inputs =
      MakeInputs(*spec, args->seed, args->seconds);
  if (!inputs.ok()) {
    std::cerr << inputs.status().ToString() << "\n";
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args->work_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << args->work_dir << ": " << ec.message()
              << "\n";
    return 2;
  }
  PrintContext(*args, *spec, *inputs);

  Report report;
  const Status status = args->trace == 0
                            ? RunEndToEnd(*args, *spec, *inputs, &report)
                            : RunTraced(*args, *spec, *inputs, &report);
  std::filesystem::remove_all(args->work_dir, ec);
  if (!status.ok()) {
    std::cerr << "perfbench: " << status.ToString() << "\n";
    return 1;
  }
  if (!report.AllFinite()) {
    std::cerr << "perfbench: a metric is not a finite number\n";
    return 1;
  }
  std::cout << report.Json() << std::endl;
  return report.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace tps

int main(int argc, char** argv) { return tps::perfbench::Main(argc, argv); }
