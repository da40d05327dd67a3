// Scaling ablation (Section V.C.3, "scaling to more models"), two parts.
//
// Part 1 — the paper's table: how selection cost grows with repository
// size for brute force, successive halving and the full two-phase
// pipeline, on synthetic zoos of 50-400 models. The paper's argument:
// two-phase cost is dominated by the recalled-set size, so it flattens
// while BF/SH grow linearly.
//
// Part 2 — the recall-latency-vs-zoo-size curve the sub-linear index was
// built for: generated zoos of 1k-10k models (tps_cli zoo-gen lineage
// structure), recall through the clustering's brute-force index (the
// oracle) vs the IVF index at its default nprobe, plus a recall@K-vs-
// nprobe sweep and a full-probe bit-identity check against the oracle.
//
// Both parts record machine-readable results into the
// BENCH_scaling_zoo_size.json telemetry sidecar.

#include <algorithm>
#include <iostream>
#include <set>
#include <vector>

#include "bench/harness.h"
#include "bench/telemetry.h"
#include "core/baselines.h"
#include "core/coarse_recall.h"
#include "core/model_clusterer.h"
#include "core/two_phase.h"
#include "data/registry.h"
#include "index/ivf_index.h"
#include "model/paper_zoo.h"
#include "model/zoo_gen.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace tps {
namespace bench {
namespace {

void ReportPaperTable(BenchTelemetry* telemetry) {
  DatasetRegistry registry = ExitIfError(
      DatasetRegistry::CreatePaperInventory(), "registry");
  const Dataset* target = ExitIfError(registry.Find("mnli"), "target");
  const auto benchmarks = registry.Benchmarks(TaskDomain::kNLP);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  FineTuneSimulator simulator;

  std::cout << "=== Scaling: selection cost vs zoo size (synthetic NLP "
               "zoos, target mnli) ===\n";
  TablePrinter table({"zoo size", "BF epochs", "SH epochs", "2PH epochs",
                      "2PH speedup vs SH", "acc BF", "acc 2PH"});
  for (size_t zoo_size : {50, 100, 200, 400}) {
    WallTimer phase_timer;
    ModelZoo zoo = ExitIfError(
        ModelZoo::Create(SyntheticZooSpecs(TaskDomain::kNLP, zoo_size, 17)),
        "zoo");
    PerformanceMatrix matrix = ExitIfError(
        PerformanceMatrix::Build(zoo, benchmarks, simulator, hp), "matrix");
    ModelClustering clustering = ExitIfError(
        ClusterModels(matrix, zoo, ModelClusteringOptions()), "clustering");

    std::vector<size_t> all_models(zoo.size());
    for (size_t i = 0; i < all_models.size(); ++i) all_models[i] = i;

    BruteForceSelector bf(&zoo, &simulator);
    EpochBudget bf_budget;
    const SelectionOutcome bf_out = ExitIfError(
        bf.Select(all_models, *target, hp, &bf_budget), "bf");

    SuccessiveHalvingSelector sh(&zoo, &simulator);
    EpochBudget sh_budget;
    ExitIfError(sh.Select(all_models, *target, hp, &sh_budget), "sh");

    TwoPhaseSelector two_phase(&zoo, &matrix, &clustering, &simulator);
    TwoPhaseReport report = ExitIfError(
        two_phase.Select(*target, TwoPhaseOptions(), hp), "2ph");

    table.AddRow(
        {std::to_string(zoo_size),
         strings::FormatDouble(bf_budget.total_epochs(), 0),
         strings::FormatDouble(sh_budget.total_epochs(), 0),
         strings::FormatDouble(report.budget.total_epochs(), 1),
         strings::Format("%.2fx", sh_budget.total_epochs() /
                                      report.budget.total_epochs()),
         strings::FormatDouble(bf_out.selected_accuracy, 3),
         strings::FormatDouble(report.selection.selected_accuracy, 3)});

    const std::string prefix =
        std::string("NLP/zoo") + std::to_string(zoo_size) + "/";
    telemetry->RecordPhase(std::string("NLP/zoo") + std::to_string(zoo_size),
                           phase_timer.ElapsedMillis(),
                           bf_budget.training_epochs() +
                               sh_budget.training_epochs() +
                               report.budget.training_epochs(),
                           bf_budget.inference_epochs() +
                               sh_budget.inference_epochs() +
                               report.budget.inference_epochs());
    telemetry->RecordValue(prefix + "bf_epochs", bf_budget.total_epochs());
    telemetry->RecordValue(prefix + "sh_epochs", sh_budget.total_epochs());
    telemetry->RecordValue(prefix + "two_phase_epochs",
                           report.budget.total_epochs());
    telemetry->RecordValue(
        prefix + "two_phase_speedup_vs_sh",
        sh_budget.total_epochs() / report.budget.total_epochs());
    telemetry->RecordValue(prefix + "bf_accuracy",
                           bf_out.selected_accuracy);
    telemetry->RecordValue(prefix + "two_phase_accuracy",
                           report.selection.selected_accuracy);
  }
  table.Print(std::cout);
}

/// Median wall time of `repeats` runs of `fn` in milliseconds.
template <typename Fn>
double MedianMillis(int repeats, const Fn& fn) {
  std::vector<double> times;
  times.reserve(static_cast<size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    WallTimer timer;
    fn();
    times.push_back(timer.ElapsedMillis());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Fraction of the oracle's top-k models the indexed ranking recovered.
double RecallAtK(const RecallResult& oracle, const RecallResult& indexed,
                 size_t k) {
  const std::vector<size_t> want = oracle.TopModels(k);
  const std::vector<size_t> got = indexed.TopModels(k);
  const std::set<size_t> got_set(got.begin(), got.end());
  size_t hit = 0;
  for (size_t m : want) hit += got_set.count(m);
  return want.empty() ? 1.0
                      : static_cast<double>(hit) /
                            static_cast<double>(want.size());
}

bool SameRanking(const RecallResult& a, const RecallResult& b) {
  if (a.proxies_computed != b.proxies_computed) return false;
  if (a.ranked.size() != b.ranked.size()) return false;
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    const RecallEntry& x = a.ranked[i];
    const RecallEntry& y = b.ranked[i];
    if (x.model_index != y.model_index ||
        x.recall_score != y.recall_score ||
        x.prior_accuracy != y.prior_accuracy ||
        x.proxy_component != y.proxy_component ||
        x.via_propagation != y.via_propagation) {
      return false;
    }
  }
  return true;
}

void ReportIndexedRecall(BenchTelemetry* telemetry) {
  DatasetRegistry registry = ExitIfError(
      DatasetRegistry::CreatePaperInventory(), "registry");
  const Dataset* target = ExitIfError(registry.Find("mnli"), "target");
  const auto benchmarks = registry.Benchmarks(TaskDomain::kNLP);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  FineTuneSimulator simulator;
  constexpr size_t kTopK = 10;
  constexpr int kRepeats = 5;

  std::cout << "\n=== Scaling: recall latency vs zoo size (generated NLP "
               "zoos, brute-force oracle vs IVF index, target mnli) ===\n";
  TablePrinter table({"zoo size", "partitions", "nprobe", "oracle p50 ms",
                      "ivf p50 ms", "speedup", "recall@10",
                      "full probe == oracle"});
  bool accept_latency = false, accept_recall = false, accept_exact = false;
  for (size_t zoo_size : {1000, 2500, 5000, 10000}) {
    ZooGenSpec spec;
    spec.domain = TaskDomain::kNLP;
    spec.num_models = zoo_size;
    ModelZoo zoo = ExitIfError(
        ModelZoo::Create(ExitIfError(GenerateZooSpecs(spec), "specs")),
        "zoo");

    WallTimer matrix_timer;
    PerformanceMatrix matrix = ExitIfError(
        PerformanceMatrix::Build(zoo, benchmarks, simulator, hp), "matrix");
    telemetry->RecordPhase(
        std::string("NLP/gen") + std::to_string(zoo_size) + "/matrix_build",
        matrix_timer.ElapsedMillis(), 0.0, 0.0);

    WallTimer index_timer;
    IvfIndex index = ExitIfError(
        IvfIndex::Build(matrix.ModelVectors(),
                        matrix.ModelAverageAccuracies(), IvfIndexOptions()),
        "index");
    telemetry->RecordPhase(
        std::string("NLP/gen") + std::to_string(zoo_size) + "/index_build",
        index_timer.ElapsedMillis(), 0.0, 0.0);

    // The oracle serves the index's own partitioning through a
    // brute-force index, so the two runs differ only in what they probe.
    ModelClustering clustering = ExitIfError(
        ClusteringFromIndexStructure(index.structure()), "clustering");
    CoarseRecall recall(&zoo, &matrix, &clustering);

    RecallOptions oracle_options;
    oracle_options.top_k_models = kTopK;
    RecallResult oracle;
    const double oracle_ms = MedianMillis(kRepeats, [&]() {
      oracle = ExitIfError(recall.Recall(*target, oracle_options, nullptr),
                           "oracle recall");
    });

    RecallOptions indexed_options = oracle_options;
    indexed_options.index = &index;
    RecallResult indexed;
    const double indexed_ms = MedianMillis(kRepeats, [&]() {
      indexed = ExitIfError(
          recall.Recall(*target, indexed_options, nullptr),
          "indexed recall");
    });
    const double speedup = oracle_ms / indexed_ms;
    const double recall_at_k = RecallAtK(oracle, indexed, kTopK);

    // Full probe with exact (unrestricted) propagation must reproduce the
    // oracle bit-for-bit — the serving-path mirror of theorem A in
    // tests/index/index_equivalence_test.cc.
    IvfIndexOptions exact_options;
    exact_options.propagation_neighbors = 0;
    IvfIndex exact_index = ExitIfError(
        IvfIndex::BuildWithCentroids(index.centroids(),
                                     matrix.ModelVectors(),
                                     matrix.ModelAverageAccuracies(),
                                     exact_options),
        "exact index");
    RecallOptions full_options = oracle_options;
    full_options.index = &exact_index;
    full_options.nprobe = exact_index.num_partitions();
    const RecallResult full = ExitIfError(
        recall.Recall(*target, full_options, nullptr), "full probe");
    const bool identical = SameRanking(oracle, full);

    table.AddRow({std::to_string(zoo_size),
                  std::to_string(index.num_partitions()),
                  std::to_string(index.default_nprobe()),
                  strings::FormatDouble(oracle_ms, 2),
                  strings::FormatDouble(indexed_ms, 2),
                  strings::Format("%.1fx", speedup),
                  strings::FormatDouble(recall_at_k, 2),
                  identical ? "yes" : "NO"});

    const std::string prefix = std::string("NLP/gen") + std::to_string(zoo_size) + "/";
    telemetry->RecordValue(prefix + "bf_recall_p50_ms", oracle_ms);
    telemetry->RecordValue(prefix + "ivf_recall_p50_ms", indexed_ms);
    telemetry->RecordValue(prefix + "speedup", speedup);
    telemetry->RecordValue(prefix + "recall_at_10", recall_at_k);
    telemetry->RecordValue(prefix + "num_partitions",
                           static_cast<double>(index.num_partitions()));
    telemetry->RecordValue(prefix + "default_nprobe",
                           static_cast<double>(index.default_nprobe()));
    telemetry->RecordValue(prefix + "full_probe_identical",
                           identical ? 1.0 : 0.0);

    // Recall-vs-nprobe sweep (the latency/quality dial): doubling nprobe
    // from 1 until every scored partition is probed.
    const size_t scored =
        index.structure().scored_partitions.size();
    for (size_t nprobe = 1; nprobe < 2 * scored; nprobe *= 2) {
      const size_t effective = std::min(nprobe, scored);
      RecallOptions sweep_options = indexed_options;
      sweep_options.nprobe = effective;
      RecallResult sweep;
      const double sweep_ms = MedianMillis(3, [&]() {
        sweep = ExitIfError(
            recall.Recall(*target, sweep_options, nullptr),
            "nprobe sweep");
      });
      const std::string key =
          prefix + std::string("nprobe") + std::to_string(effective) + "_";
      telemetry->RecordValue(key + "recall_at_10",
                             RecallAtK(oracle, sweep, kTopK));
      telemetry->RecordValue(key + "p50_ms", sweep_ms);
      if (effective == scored) break;
    }

    if (zoo_size == 10000) {
      accept_latency = indexed_ms <= 0.2 * oracle_ms;
      accept_recall = recall_at_k >= 0.95;
      accept_exact = identical;
    }
  }
  table.Print(std::cout);
  std::cout << "acceptance (10k zoo): ivf p50 <= 0.2x oracle: "
            << (accept_latency ? "PASS" : "FAIL")
            << ", recall@10 >= 0.95: "
            << (accept_recall ? "PASS" : "FAIL")
            << ", full probe bit-identical: "
            << (accept_exact ? "PASS" : "FAIL") << "\n";
}

}  // namespace
}  // namespace bench
}  // namespace tps

int main() {
  tps::bench::BenchTelemetry telemetry("scaling_zoo_size");
  tps::bench::ReportPaperTable(&telemetry);
  tps::bench::ReportIndexedRecall(&telemetry);
  telemetry.WriteFileOrWarn();
  return 0;
}
