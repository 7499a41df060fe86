// Differential harness for the answer modes (DESIGN.md "Answer modes"):
// kCount and kExists run inside the two §III folds, at their final level,
// and must agree exactly with enumerating in kPaths and reducing after.
//
//   kCount  — (count, truncated, limit, stats minus elapsed) equal the
//             kPaths run's (|paths|, truncated, limit, stats), truncated
//             partial counts and the hard max_paths error included.
//   kExists — when enumeration reaches a full-length path, the exists run
//             answers count 1, untruncated, limit OK, having charged one
//             path and no more steps or bytes than enumeration. When it
//             reaches none, the exists run trips at the same point: count
//             0 with enumeration's truncated, limit and stats. The hard
//             max_paths cap fires only before the first path: at an
//             intermediate level (the chain minus its final level overflows
//             too) or on a zero cap.
//
// The sweep covers randomized graphs and chains, both directions, forced
// sparse / forced dense / auto levels, step / path / byte budgets, the hard
// cap, and faults armed at the budget-check and alloc probe sites. A
// service-level test checks that a count query never materializes a path.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/edge_pattern.h"
#include "core/path_set.h"
#include "engine/chain_planner.h"
#include "frontier/policy.h"
#include "generators/generators.h"
#include "graph/multi_graph.h"
#include "gtest/gtest.h"
#include "obs/obs.h"
#include "service/query_service.h"
#include "service/snapshot_registry.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"
#include "util/exec_context.h"
#include "util/fault_injector.h"
#include "util/random.h"
#include "util/status.h"

namespace mrpa {
namespace {

EdgePattern RandomPattern(Rng& rng, uint32_t num_vertices, uint32_t num_labels,
                          bool end_step) {
  switch (end_step ? rng.Below(3) : rng.Below(5)) {
    case 0:
      return EdgePattern::Any();
    case 1:
      return EdgePattern::Labeled(static_cast<LabelId>(rng.Below(num_labels)));
    case 2: {
      std::vector<VertexId> ids;
      const size_t n = 1 + rng.Below(3);
      for (size_t i = 0; i < n; ++i) {
        ids.push_back(static_cast<VertexId>(rng.Below(num_vertices)));
      }
      return EdgePattern::IntoAnyOf(std::move(ids), /*negated=*/true);
    }
    case 3:
      return EdgePattern::From(static_cast<VertexId>(rng.Below(num_vertices)));
    default:
      return EdgePattern::Into(static_cast<VertexId>(rng.Below(num_vertices)));
  }
}

std::vector<EdgePattern> RandomSteps(Rng& rng, uint32_t num_vertices,
                                     uint32_t num_labels) {
  size_t length = 2 + rng.Below(3);
  if (rng.Chance(0.15)) length = 1;
  std::vector<EdgePattern> steps;
  for (size_t k = 0; k < length; ++k) {
    steps.push_back(RandomPattern(rng, num_vertices, num_labels,
                                  k == 0 || k + 1 == length));
  }
  return steps;
}

MultiRelationalGraph RandomGraph(Rng& rng, uint64_t seed) {
  switch (rng.Below(3)) {
    case 0: {
      ErdosRenyiParams params;
      params.num_vertices = 24;
      params.num_labels = 3;
      params.num_edges = 110;
      params.seed = seed;
      return GenerateErdosRenyi(params).value();
    }
    case 1: {
      BarabasiAlbertParams params;
      params.num_vertices = 30;
      params.num_labels = 3;
      params.edges_per_vertex = 2;
      params.seed = seed;
      return GenerateBarabasiAlbert(params).value();
    }
    default: {
      WattsStrogatzParams params;
      params.num_vertices = 28;
      params.num_labels = 2;
      params.neighbors_each_side = 2;
      params.rewire_prob = 0.2;
      params.seed = seed;
      return GenerateWattsStrogatz(params).value();
    }
  }
}

// One governed setting: budgets, the hard cap, and an optional fault.
struct Regime {
  std::string name;
  ExecLimits limits;
  PathSetLimits hard;
  std::optional<std::string_view> fault_site;
  uint64_t fault_nth = 0;
};

struct Outcome {
  Status hard;
  PathSet paths;
  uint64_t count = 0;
  bool truncated = false;
  Status limit;
  ExecStats stats;
};

Outcome RunMode(const EdgeUniverse& universe,
                const std::vector<EdgePattern>& steps,
                ChainDirection direction, frontier::DensityMode density,
                const Regime& regime, AnswerMode mode) {
  std::optional<ScopedFault> fault;
  if (regime.fault_site.has_value()) {
    fault.emplace(*regime.fault_site, regime.fault_nth,
                  Status::IOError("injected"));
  }
  ExecContext ctx(regime.limits);
  frontier::DensityPolicy policy;
  policy.mode = density;
  Result<GovernedPathSet> result = EvaluateChainGoverned(
      universe, steps, direction, ctx, regime.hard, policy, mode);
  Outcome out;
  if (!result.ok()) {
    out.hard = result.status();
    return out;
  }
  EXPECT_EQ(result->mode, mode);
  out.paths = std::move(result->paths);
  out.count = result->count;
  out.truncated = result->truncated;
  out.limit = result->limit;
  out.stats = result->stats;
  return out;
}

void ExpectSameStats(const ExecStats& want, const ExecStats& got) {
  EXPECT_EQ(want.paths_yielded, got.paths_yielded);
  EXPECT_EQ(want.steps_expanded, got.steps_expanded);
  EXPECT_EQ(want.bytes_charged, got.bytes_charged);
  EXPECT_EQ(want.truncated, got.truncated);
}

// kCount is enumerate-then-reduce, exactly.
void ExpectCountMatches(const Outcome& paths, const Outcome& count) {
  ASSERT_EQ(paths.hard, count.hard);
  if (!paths.hard.ok()) return;
  EXPECT_TRUE(count.paths.empty());
  EXPECT_EQ(count.count, paths.paths.size());
  EXPECT_EQ(count.truncated, paths.truncated);
  EXPECT_EQ(count.limit, paths.limit);
  ExpectSameStats(paths.stats, count.stats);
}

// The exists rule. `overflow_before_first` says whether enumeration's hard
// max_paths error (if any) fires before its first full-length path.
void ExpectExistsMatches(const Outcome& paths, const Outcome& exists,
                         bool overflow_before_first) {
  EXPECT_TRUE(exists.paths.empty());
  if (!paths.hard.ok() && overflow_before_first) {
    EXPECT_EQ(exists.hard, paths.hard);
    return;
  }
  ASSERT_TRUE(exists.hard.ok()) << exists.hard;
  if (!paths.hard.ok() || !paths.paths.empty()) {
    EXPECT_EQ(exists.count, 1u);
    EXPECT_FALSE(exists.truncated);
    EXPECT_TRUE(exists.limit.ok()) << exists.limit;
    EXPECT_FALSE(exists.stats.truncated);
    EXPECT_EQ(exists.stats.paths_yielded, 1u);
    if (paths.hard.ok()) {
      EXPECT_LE(exists.stats.steps_expanded, paths.stats.steps_expanded);
      EXPECT_LE(exists.stats.bytes_charged, paths.stats.bytes_charged);
    }
    return;
  }
  EXPECT_EQ(exists.count, 0u);
  EXPECT_EQ(exists.truncated, paths.truncated);
  EXPECT_EQ(exists.limit, paths.limit);
  ExpectSameStats(paths.stats, exists.stats);
}

// The chain without its final level in `direction`: the levels before it
// run the same guard calls, so its hard-cap error marks an intermediate
// overflow. Its own last level charges paths, so the path budget goes.
bool PrefixOverflows(const EdgeUniverse& universe,
                     const std::vector<EdgePattern>& steps,
                     ChainDirection direction, frontier::DensityMode density,
                     Regime regime) {
  if (steps.size() < 2) return false;
  std::vector<EdgePattern> prefix = steps;
  if (direction == ChainDirection::kForward) {
    prefix.pop_back();
  } else {
    prefix.erase(prefix.begin());
  }
  regime.limits.max_paths.reset();
  return !RunMode(universe, prefix, direction, density, regime,
                  AnswerMode::kPaths)
              .hard.ok();
}

// Randomized budgets calibrated on an unlimited enumeration (`probe`), plus
// budgets one below and at what an unlimited exists run spends (`first`):
// the edge where enumeration trips just before its first path.
std::vector<Regime> Regimes(Rng& rng, const Outcome& probe,
                            const Outcome& first) {
  const size_t steps = std::max<size_t>(1, probe.stats.steps_expanded);
  const size_t paths = probe.stats.paths_yielded;
  const size_t bytes = std::max<size_t>(1, probe.stats.bytes_charged);
  std::vector<Regime> regimes;
  regimes.push_back({"unlimited", {}, {}, std::nullopt, 0});
  for (int i = 0; i < 3; ++i) {
    Regime r{"steps", {}, {}, std::nullopt, 0};
    r.limits.max_steps = rng.Below(steps + 1);
    regimes.push_back(r);
    r = {"paths", {}, {}, std::nullopt, 0};
    r.limits.max_paths = rng.Below(paths + 2);
    regimes.push_back(r);
    r = {"bytes", {}, {}, std::nullopt, 0};
    r.limits.max_bytes = rng.Below(bytes + 1);
    regimes.push_back(r);
    r = {"hard_cap", {}, {}, std::nullopt, 0};
    r.hard.max_paths = rng.Below(paths + 2);
    if (rng.Chance(0.5)) r.limits.max_steps = rng.Below(steps + 1);
    regimes.push_back(r);
    r = {"fault_budget_check", {}, {}, kFaultSiteBudgetCheck,
         1 + rng.Below(steps)};
    regimes.push_back(r);
    r = {"fault_alloc", {}, {}, kFaultSiteAlloc, 1 + rng.Below(8)};
    regimes.push_back(r);
  }
  Regime zero{"hard_cap_zero", {}, {}, std::nullopt, 0};
  zero.hard.max_paths = 0;
  regimes.push_back(zero);
  if (first.count == 0) return regimes;
  for (size_t slack : {0, 1}) {
    Regime r{"first_path_steps", {}, {}, std::nullopt, 0};
    r.limits.max_steps = first.stats.steps_expanded - 1 + slack;
    regimes.push_back(r);
    r = {"first_path_bytes", {}, {}, std::nullopt, 0};
    r.limits.max_bytes = first.stats.bytes_charged - 1 + slack;
    regimes.push_back(r);
  }
  return regimes;
}

class AnswerModeDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(AnswerModeDifferentialTest, SummaryModesMatchEnumeration) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 577);
  size_t found = 0;
  size_t truncated_counts = 0;
  size_t hard_errors = 0;
  for (int c = 0; c < 4; ++c) {
    MultiRelationalGraph graph = RandomGraph(rng, GetParam() * 173 + c + 1);
    const std::vector<EdgePattern> steps =
        RandomSteps(rng, graph.num_vertices(), graph.num_labels());
    for (ChainDirection direction :
         {ChainDirection::kForward, ChainDirection::kBackward}) {
      const Regime unlimited{"probe", {}, {}, std::nullopt, 0};
      auto probe_run = [&](AnswerMode mode) {
        return RunMode(graph, steps, direction,
                       frontier::DensityMode::kForceSparse, unlimited, mode);
      };
      const Outcome probe = probe_run(AnswerMode::kPaths);
      ASSERT_TRUE(probe.hard.ok());
      const Outcome first = probe_run(AnswerMode::kExists);
      for (const Regime& regime : Regimes(rng, probe, first)) {
        for (frontier::DensityMode density :
             {frontier::DensityMode::kForceSparse,
              frontier::DensityMode::kForceDense,
              frontier::DensityMode::kAuto}) {
          SCOPED_TRACE("case " + std::to_string(c) + " " + regime.name +
                       (direction == ChainDirection::kForward ? " fwd"
                                                              : " bwd") +
                       " density " +
                       std::to_string(static_cast<int>(density)));
          auto run = [&](AnswerMode mode) {
            return RunMode(graph, steps, direction, density, regime, mode);
          };
          const Outcome paths = run(AnswerMode::kPaths);
          const Outcome count = run(AnswerMode::kCount);
          const Outcome exists = run(AnswerMode::kExists);
          ExpectCountMatches(paths, count);
          bool overflow_before_first = false;
          if (!paths.hard.ok()) {
            ++hard_errors;
            overflow_before_first =
                regime.hard.max_paths == 0 ||
                PrefixOverflows(graph, steps, direction, density, regime);
          }
          ExpectExistsMatches(paths, exists, overflow_before_first);
          if (exists.count == 1) ++found;
          if (count.truncated && count.count > 0) ++truncated_counts;
        }
      }
    }
  }
  // The sweep must exercise every branch of both rules.
  EXPECT_GT(found, 0u);
  EXPECT_GT(truncated_counts, 0u);
  EXPECT_GT(hard_errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnswerModeDifferentialTest,
                         ::testing::Range<uint64_t>(1, 9));

// ε, the 0-step chain, in both summary modes and under a zero path budget.
TEST(AnswerModeTest, EmptyChainCountsEpsilon) {
  Rng rng(3);
  MultiRelationalGraph graph = RandomGraph(rng, 3);
  for (ChainDirection direction :
       {ChainDirection::kForward, ChainDirection::kBackward}) {
    for (AnswerMode mode : {AnswerMode::kCount, AnswerMode::kExists}) {
      ExecContext ctx;
      auto run = EvaluateChainGoverned(graph, {}, direction, ctx, {}, {}, mode);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(run->count, 1u);
      EXPECT_TRUE(run->paths.empty());
      ExecContext starved = ExecContext::WithPathBudget(0);
      run = EvaluateChainGoverned(graph, {}, direction, starved, {}, {}, mode);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(run->count, 0u);
      EXPECT_TRUE(run->truncated);
    }
  }
}

// The service runs the mode inside the fold: a count over the whole-label
// chain [_,knows,_]·[_,created,_] materializes no path, and answers what
// the paths query enumerates.
TEST(AnswerModeServiceTest, CountQueryMaterializesNothing) {
  SocialNetworkParams params;
  params.num_people = 2000;
  params.num_items = 500;
  params.num_likes = 8000;
  params.seed = 7;
  auto bytes = storage::SnapshotWriter().Serialize(
      GenerateSocialNetwork(params).value());
  ASSERT_TRUE(bytes.ok()) << bytes.status();

  auto serve = [&](AnswerMode mode, obs::ObsRegistry& obs) {
    service::SnapshotRegistry registry;
    auto universe = storage::SnapshotReader().FromBuffer(*bytes);
    EXPECT_TRUE(universe.ok()) << universe.status();
    EXPECT_TRUE(registry.HotSwap(std::move(*universe)).ok());
    service::QueryService::Options options;
    options.obs = &obs;
    service::QueryService service(registry, options);
    EXPECT_TRUE(service.RegisterTenant("t", service::TenantQuota{}).ok());
    service::QueryRequest request;
    request.mode = mode;
    request.steps = {EdgePattern::Labeled(kSocialKnows),
                     EdgePattern::Labeled(kSocialCreated)};
    auto response = service.Execute("t", request);
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? std::move(response->result) : GovernedPathSet{};
  };

  obs::ObsRegistry paths_obs;
  obs::ObsRegistry count_obs;
  obs::ObsRegistry exists_obs;
  const GovernedPathSet paths = serve(AnswerMode::kPaths, paths_obs);
  const GovernedPathSet count = serve(AnswerMode::kCount, count_obs);
  const GovernedPathSet exists = serve(AnswerMode::kExists, exists_obs);

  ASSERT_FALSE(paths.truncated);
  ASSERT_GT(paths.paths.size(), 100u);
  EXPECT_GT(paths_obs.Value(obs::Metric::kArenaMaterializations), 0u);

  EXPECT_EQ(count_obs.Value(obs::Metric::kArenaMaterializations), 0u);
  EXPECT_EQ(count.count, paths.paths.size());
  EXPECT_TRUE(count.paths.empty());
  EXPECT_FALSE(count.truncated);
  EXPECT_EQ(count.stats.steps_expanded, paths.stats.steps_expanded);
  EXPECT_EQ(count.stats.bytes_charged, paths.stats.bytes_charged);
  // The final level's nodes are charged but never allocated.
  EXPECT_EQ(count_obs.Value(obs::Metric::kArenaNodesAllocated) +
                paths.paths.size(),
            paths_obs.Value(obs::Metric::kArenaNodesAllocated));
  EXPECT_EQ(count_obs.Value(obs::Metric::kTraversalPathsEmitted),
            paths.paths.size());

  EXPECT_EQ(exists_obs.Value(obs::Metric::kArenaMaterializations), 0u);
  EXPECT_EQ(exists.count, 1u);
  EXPECT_LT(exists.stats.steps_expanded, paths.stats.steps_expanded);
}

}  // namespace
}  // namespace mrpa
