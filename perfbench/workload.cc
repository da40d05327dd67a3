#include "perfbench/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include "data/registry.h"
#include "util/rng.h"

namespace tps {
namespace perfbench {
namespace {

// Seed streams, so that changing one input's generator never shifts the
// others.
constexpr uint64_t kTargetStream = 0x7a12;
constexpr uint64_t kArrivalStream = 0xa77;
constexpr uint64_t kMixStream = 0x3e1;
constexpr uint64_t kSwapStream = 0x5e1d;

// The paper's four NLP targets: the repeated-target traffic.
const std::vector<std::string>& PaperTargets() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const DatasetSpec& spec : NlpTargetSpecs()) out.push_back(spec.name);
    return out;
  }();
  return names;
}

// Tags of the NLP inventory, so generated targets live in the same latent
// space as the benchmarks the matrix was built on.
std::vector<std::string> NlpTagVocabulary() {
  std::set<std::string> tags;
  for (const auto& list : {NlpBenchmarkSpecs(), NlpTargetSpecs()}) {
    for (const DatasetSpec& spec : list) {
      tags.insert(spec.tags.begin(), spec.tags.end());
    }
  }
  tags.erase("english");
  return {tags.begin(), tags.end()};
}

DatasetSpec NovelTarget(const std::string& name,
                        const std::vector<std::string>& vocabulary,
                        Rng& rng) {
  DatasetSpec spec;
  spec.name = name;
  spec.domain = TaskDomain::kNLP;
  spec.role = DatasetRole::kTarget;
  spec.num_labels = static_cast<int>(rng.UniformInt(2, 5));
  spec.difficulty = rng.Uniform(0.35, 0.70);
  spec.tags = {"english"};
  std::set<size_t> picked;
  while (picked.size() < 3) picked.insert(rng.UniformInt(vocabulary.size()));
  for (size_t i : picked) spec.tags.push_back(vocabulary[i]);
  return spec;
}

size_t Scaled(size_t count, double seconds) {
  return static_cast<size_t>(
      std::llround(static_cast<double>(count) * seconds / kReferenceSeconds));
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> out(2);
    // Every proxy is computed: forward pass, kernels, probe and ranking
    // do the work. Targets never repeat, so the cache never hits.
    out[0].name = "cold-5k";
    out[0].zoo = ZooKind::kGenerated;
    out[0].novel_targets = true;
    out[0].offered_qps = 100.0;
    out[0].open_loop_requests = 1200;
    out[0].capacity_requests = 600;
    out[0].slo_ms = 40.0;
    out[0].checked_targets = 192;
    // Every proxy is a cache hit after the first four requests: the
    // socket, protocol, queue, cache-hit path and fine selection do the
    // work. The swap phase after the rounds is write beside read: each
    // reload from files lands while an open-loop segment sends, moves the
    // cache to a new version, and the next requests miss together and
    // coalesce in the flight group. It stays out of p50_ms and p99_ms: a
    // reload in every round made the whole run's p99 vary by 0.84
    // (interquartile range over median) between runs of the same code.
    out[1].name = "hot-wire";
    out[1].zoo = ZooKind::kPaper;
    out[1].offered_qps = 800.0;
    out[1].open_loop_requests = 9600;
    out[1].capacity_requests = 12000;
    out[1].slo_ms = 5.0;
    out[1].swap_reloads = kRounds;
    out[1].setup_repeats = 41;  // A set-up takes ~20 ms; more samples.
    return out;
  }();
  return specs;
}

StatusOr<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return spec;
  }
  return Status::InvalidArgument("unknown workload '" + name +
                                 "' (cold-5k, hot-wire)");
}

size_t RoundBegin(size_t r, size_t n) { return r * n / kRounds; }

StatusOr<WorkloadInputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                                    double seconds) {
  if (!(seconds > 0.0)) {
    return Status::InvalidArgument("seconds must be positive");
  }
  WorkloadInputs in;
  const size_t open =
      std::max(kRounds, Scaled(spec.open_loop_requests, seconds));
  const size_t capacity =
      std::max(kRounds, Scaled(spec.capacity_requests, seconds));

  // Poisson arrivals: exponential gaps by inverse CDF.
  Rng arrivals(seed ^ kArrivalStream);
  double t = 0.0;
  for (size_t i = 0; i < open; ++i) {
    t += -std::log(1.0 - arrivals.Uniform()) / spec.offered_qps;
    in.arrival_s.push_back(t);
  }

  if (spec.novel_targets) {
    const std::vector<std::string> vocabulary = NlpTagVocabulary();
    Rng rng(seed ^ kTargetStream);
    const size_t total =
        kWarmupRequests + open + capacity + 2 * kTracedRequests;
    for (size_t i = 0; i < total; ++i) {
      in.novel_targets.push_back(NovelTarget(
          "novel-" + std::to_string(seed) + "-" + std::to_string(i),
          vocabulary, rng));
    }
    size_t next = 0;
    auto take = [&](size_t count, std::vector<std::string>* out) {
      for (size_t i = 0; i < count; ++i) {
        out->push_back(in.novel_targets[next++].name);
      }
    };
    take(kWarmupRequests, &in.warmup_targets);
    take(open, &in.open_loop_targets);
    take(capacity, &in.capacity_targets);
    take(kTracedRequests, &in.traced_targets);
    take(kTracedRequests, &in.untraced_targets);
  } else {
    const std::vector<std::string>& paper = PaperTargets();
    Rng mix(seed ^ kMixStream);
    auto draw = [&](size_t count, std::vector<std::string>* out) {
      for (size_t i = 0; i < count; ++i) {
        out->push_back(paper[mix.UniformInt(paper.size())]);
      }
    };
    for (size_t i = 0; i < kWarmupRequests; ++i) {
      in.warmup_targets.push_back(paper[i % paper.size()]);
    }
    draw(open, &in.open_loop_targets);
    draw(capacity, &in.capacity_targets);
    for (size_t i = 0; i < kTracedRequests; ++i) {
      in.traced_targets.push_back(paper[i % paper.size()]);
      in.untraced_targets.push_back(paper[i % paper.size()]);
    }
  }

  // Swap phase: the arrival process continues on a clock of its own; each
  // segment's reload lands at a seeded point in the first fifth of the
  // segment, so it is published while the segment is still sending.
  if (spec.swap_reloads > 0) {
    const std::vector<std::string>& paper = PaperTargets();
    Rng mix(seed ^ kSwapStream);
    t = 0.0;  // The swap phase has a clock of its own.
    for (size_t k = 0; k < spec.swap_reloads; ++k) {
      const double from = t;
      for (size_t i = 0; i < kSwapSegmentRequests; ++i) {
        t += -std::log(1.0 - arrivals.Uniform()) / spec.offered_qps;
        in.swap_arrival_s.push_back(t);
        in.swap_targets.push_back(paper[mix.UniformInt(paper.size())]);
      }
      in.reload_at_s.push_back(from + (0.02 + 0.18 * mix.Uniform()) *
                                          (t - from));
    }
  }
  return in;
}

std::string DescribeInputs(const WorkloadInputs& in) {
  std::ostringstream out;
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  for (const DatasetSpec& s : in.novel_targets) {
    out << "target " << s.name << " " << s.num_labels << " "
        << num(s.difficulty);
    for (const std::string& tag : s.tags) out << " " << tag;
    out << "\n";
  }
  for (const std::string& name : in.warmup_targets) {
    out << "warmup " << name << "\n";
  }
  for (size_t i = 0; i < in.arrival_s.size(); ++i) {
    out << "arrive " << num(in.arrival_s[i]) << " "
        << in.open_loop_targets[i] << "\n";
  }
  for (const std::string& name : in.capacity_targets) {
    out << "capacity " << name << "\n";
  }
  for (const std::string& name : in.traced_targets) {
    out << "traced " << name << "\n";
  }
  for (const std::string& name : in.untraced_targets) {
    out << "untraced " << name << "\n";
  }
  for (size_t i = 0; i < in.swap_arrival_s.size(); ++i) {
    out << "swap " << num(in.swap_arrival_s[i]) << " " << in.swap_targets[i]
        << "\n";
  }
  for (double t : in.reload_at_s) out << "reload " << num(t) << "\n";
  return out.str();
}

Status CheckNoTargetReuse(const WorkloadInputs& in) {
  std::set<std::string> seen;
  for (const DatasetSpec& spec : NlpBenchmarkSpecs()) seen.insert(spec.name);
  for (const std::string& name : PaperTargets()) seen.insert(name);
  for (const auto* list : {&in.warmup_targets, &in.open_loop_targets,
                           &in.capacity_targets, &in.traced_targets,
                           &in.untraced_targets}) {
    for (const std::string& name : *list) {
      if (!seen.insert(name).second) {
        return Status::FailedPrecondition("target '" + name +
                                          "' is named twice");
      }
    }
  }
  return Status::OK();
}

Status CheckTargetsFitCache(const WorkloadInputs& in,
                            size_t proxies_per_request,
                            size_t cache_capacity) {
  std::set<std::string> distinct;
  for (const auto* list : {&in.warmup_targets, &in.open_loop_targets,
                           &in.capacity_targets, &in.traced_targets,
                           &in.untraced_targets, &in.swap_targets}) {
    distinct.insert(list->begin(), list->end());
  }
  const size_t needed = distinct.size() * proxies_per_request;
  if (needed > cache_capacity) {
    return Status::FailedPrecondition(
        std::to_string(distinct.size()) + " targets x " +
        std::to_string(proxies_per_request) + " proxies = " +
        std::to_string(needed) + " cache entries > capacity " +
        std::to_string(cache_capacity));
  }
  return Status::OK();
}

}  // namespace perfbench
}  // namespace tps
