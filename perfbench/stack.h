#ifndef TPS_PERFBENCH_STACK_H_
#define TPS_PERFBENCH_STACK_H_

#include <memory>
#include <string>

#include "perfbench/workload.h"
#include "serve/artifacts.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/metrics.h"
#include "util/statusor.h"

namespace tps {
namespace perfbench {

/// Wall time of each set-up step, in milliseconds. Steps a workload does
/// not take stay 0.
struct SetupTimes {
  double registry_ms = 0.0;
  double zoo_ms = 0.0;
  double matrix_ms = 0.0;
  double index_ms = 0.0;
  double clustering_ms = 0.0;
  /// From the first step until the server answered a ping.
  double total_s = 0.0;
};

/// The shipped serving stack: SelectionServer on a Unix socket in front of
/// SelectionService with its default options, reporting to a private
/// metrics registry.
struct Stack {
  ~Stack();

  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<serve::SelectionService> service;
  std::unique_ptr<serve::SelectionServer> server;
  std::string socket_path;
  /// Where the `reload` command loads artifacts from (set by
  /// WriteReloadSource).
  serve::ArtifactPaths reload_source;
};

/// Builds the workload's serving artifacts in process, timing each step
/// into `times`: the NLP registry (with the generated targets), the zoo,
/// the performance matrix, the IVF index on the generated zoo, and the
/// clustering.
StatusOr<serve::ServiceArtifacts> BuildArtifacts(const WorkloadSpec& spec,
                                                 const WorkloadInputs& inputs,
                                                 SetupTimes* times);

/// Proxies one request for a novel or repeated target computes on
/// `artifacts`: the index's default probe width, or the non-singleton
/// clusters of the legacy sweep.
size_t ProxiesPerRequest(const serve::ServiceArtifacts& artifacts);

/// Builds the workload's artifacts, starts the service and the server on
/// `work_dir`/`name`.sock, and waits for a ping reply.
/// `fine_histograms` pre-registers the service's latency histograms with
/// 5% buckets so the traced run can read percentiles from them.
StatusOr<std::unique_ptr<Stack>> SetUp(const WorkloadSpec& spec,
                                       const WorkloadInputs& inputs,
                                       const std::string& work_dir,
                                       const std::string& name,
                                       bool fine_histograms,
                                       SetupTimes* times);

/// Persists the serving artifacts where a `reload` can load them from: a
/// ModelStore for generated zoos, matrix and clustering files for the
/// paper zoo. Returns the write time in milliseconds.
StatusOr<double> WriteReloadSource(Stack* stack, const std::string& work_dir);

/// Percentile `p` (0-100) of the samples a histogram gained since
/// `before` (a copy of its bucket counts), interpolated within a bucket.
double HistogramPercentile(const Histogram& histogram,
                           const std::vector<uint64_t>& before, double p);
std::vector<uint64_t> BucketCounts(const Histogram& histogram);

}  // namespace perfbench
}  // namespace tps

#endif  // TPS_PERFBENCH_STACK_H_
