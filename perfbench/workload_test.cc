// Guards on the benchmark's generated inputs: the seed alone fixes them,
// cold-5k never names a target twice, and hot-wire's targets fit the proxy
// cache (so its hit ratio does not depend on eviction order).
//
//   python3 perfbench/run.py --self-test

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "data/registry.h"
#include "perfbench/stack.h"
#include "perfbench/workload.h"
#include "transfer/score_cache.h"

namespace tps {
namespace perfbench {
namespace {

WorkloadInputs Inputs(const std::string& workload, uint64_t seed) {
  StatusOr<WorkloadSpec> spec = FindWorkload(workload);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  StatusOr<WorkloadInputs> inputs =
      MakeInputs(*spec, seed, kReferenceSeconds);
  EXPECT_TRUE(inputs.ok()) << inputs.status().ToString();
  return *inputs;
}

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryWorkload, SameSeedGivesByteIdenticalInputs) {
  EXPECT_EQ(DescribeInputs(Inputs(GetParam(), 7)),
            DescribeInputs(Inputs(GetParam(), 7)));
}

TEST_P(EveryWorkload, AnotherSeedGivesOtherInputs) {
  const WorkloadInputs a = Inputs(GetParam(), 7);
  const WorkloadInputs b = Inputs(GetParam(), 8);
  EXPECT_NE(a.arrival_s, b.arrival_s);
  EXPECT_NE(a.open_loop_targets, b.open_loop_targets);
  if (!a.novel_targets.empty()) {
    EXPECT_NE(DescribeInputs(a), DescribeInputs(b));
  }
  if (!a.reload_at_s.empty()) EXPECT_NE(a.reload_at_s, b.reload_at_s);
}

TEST_P(EveryWorkload, ScheduleIsAscendingPoissonAtTheOfferedRate) {
  const WorkloadSpec spec = *FindWorkload(GetParam());
  const WorkloadInputs in = Inputs(GetParam(), 3);
  ASSERT_EQ(in.arrival_s.size(), spec.open_loop_requests);
  for (size_t i = 1; i < in.arrival_s.size(); ++i) {
    EXPECT_LT(in.arrival_s[i - 1], in.arrival_s[i]);
  }
  const double rate = static_cast<double>(in.arrival_s.size()) /
                      in.arrival_s.back();
  EXPECT_NEAR(rate, spec.offered_qps, 0.1 * spec.offered_qps);
  ASSERT_EQ(in.reload_at_s.size(), spec.swap_reloads);
  ASSERT_EQ(in.swap_arrival_s.size(),
            spec.swap_reloads * kSwapSegmentRequests);
  for (size_t k = 0; k < in.reload_at_s.size(); ++k) {
    // The segment starts where the previous arrival left off.
    const double from =
        k == 0 ? 0.0 : in.swap_arrival_s[k * kSwapSegmentRequests - 1];
    const double to = in.swap_arrival_s[(k + 1) * kSwapSegmentRequests - 1];
    EXPECT_GT(in.reload_at_s[k], from);
    EXPECT_LT(in.reload_at_s[k], to);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, EveryWorkload,
                         ::testing::Values("cold-5k", "hot-wire"));

TEST(ColdWorkload, NeverReusesATarget) {
  const WorkloadInputs in = Inputs("cold-5k", 11);
  EXPECT_TRUE(CheckNoTargetReuse(in).ok());

  // Distinct names must also mean distinct data: the cache keys on the
  // dataset fingerprint, not the name.
  std::vector<DatasetSpec> sample(in.novel_targets.begin(),
                                  in.novel_targets.begin() + 200);
  StatusOr<DatasetRegistry> registry = DatasetRegistry::Create(sample);
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  std::set<uint64_t> fingerprints;
  for (const Dataset& dataset : registry->datasets()) {
    EXPECT_TRUE(fingerprints.insert(DatasetFingerprint(dataset)).second)
        << dataset.name();
  }
}

TEST(ColdWorkload, ReuseGuardCatchesARepeat) {
  WorkloadInputs in = Inputs("cold-5k", 11);
  in.capacity_targets.push_back(in.open_loop_targets.front());
  EXPECT_FALSE(CheckNoTargetReuse(in).ok());
  in = Inputs("cold-5k", 11);
  in.open_loop_targets.push_back("mnli");
  EXPECT_FALSE(CheckNoTargetReuse(in).ok());
}

class RepeatedTargets : public ::testing::TestWithParam<std::string> {};

TEST_P(RepeatedTargets, TargetSetFitsTheCache) {
  const WorkloadSpec spec = *FindWorkload(GetParam());
  const WorkloadInputs in = Inputs(GetParam(), 5);
  SetupTimes times;
  StatusOr<serve::ServiceArtifacts> artifacts =
      BuildArtifacts(spec, in, &times);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  const size_t proxies = ProxiesPerRequest(*artifacts);
  EXPECT_GT(proxies, 0u);
  EXPECT_TRUE(CheckTargetsFitCache(in, proxies, kCacheCapacity).ok());
  // The guard is live: a cache smaller than the working set fails it.
  EXPECT_FALSE(CheckTargetsFitCache(in, proxies, proxies).ok());
}

INSTANTIATE_TEST_SUITE_P(Workloads, RepeatedTargets,
                         ::testing::Values("hot-wire"));

}  // namespace
}  // namespace perfbench
}  // namespace tps
