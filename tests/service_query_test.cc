// QueryService contract tests: the uniform degraded-response shape (sheds,
// cancellation, budget trips all come back OK + truncated), quota ceilings
// clamping request limits, retry of injected transient execution faults,
// snapshot-version pinning across hot swaps, and the differential identity
// — a served query's output is byte-identical to a direct governed run in
// the planned direction with the same effective limits against the same
// image version.

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/edge_pattern.h"
#include "core/path_set.h"
#include "engine/chain_planner.h"
#include "generators/generators.h"
#include "graph/multi_graph.h"
#include "gtest/gtest.h"
#include "obs/obs.h"
#include "service/query_service.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_universe.h"
#include "storage/snapshot_writer.h"
#include "util/exec_context.h"
#include "util/fault_injector.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mrpa::service {
namespace {

using storage::SnapshotReader;
using storage::SnapshotUniverse;
using storage::SnapshotWriter;

MultiRelationalGraph MakeGraph(size_t num_edges, uint64_t seed) {
  ErdosRenyiParams params;
  params.num_vertices = 20;
  params.num_labels = 3;
  params.num_edges = num_edges;
  params.seed = seed;
  return GenerateErdosRenyi(params).value();
}

// Serialization is byte-deterministic, so loading the same graph twice
// yields two independent universes with identical governed output — one for
// the service, one for the differential oracle.
SnapshotUniverse Load(const MultiRelationalGraph& graph) {
  auto bytes = SnapshotWriter().Serialize(graph);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  auto universe = SnapshotReader().FromBuffer(std::move(*bytes));
  EXPECT_TRUE(universe.ok()) << universe.status();
  return std::move(*universe);
}

std::vector<EdgePattern> TwoHops() {
  return {EdgePattern::Any(), EdgePattern::Any()};
}

class QueryServiceTest : public ::testing::Test {
 protected:
  QueryServiceTest()
      : graph_(MakeGraph(80, 11)),
        oracle_(Load(graph_)),
        service_(registry_, MakeOptions()) {}

  QueryService::Options MakeOptions() {
    QueryService::Options options;
    options.obs = &obs_;
    options.retry.initial_backoff = std::chrono::microseconds(100);
    options.retry.max_backoff = std::chrono::milliseconds(1);
    return options;
  }

  void Publish() { ASSERT_TRUE(registry_.HotSwap(Load(graph_)).ok()); }

  // A direct governed run in `direction` against the oracle copy.
  GovernedPathSet DirectRun(const std::vector<EdgePattern>& steps,
                            const ExecLimits& limits,
                            ChainDirection direction) {
    ExecContext ctx(limits);
    auto run = EvaluateChainGoverned(oracle_, steps, direction, ctx);
    EXPECT_TRUE(run.ok()) << run.status();
    return std::move(*run);
  }

  // The run the service makes for a kTraversal request: one
  // EvaluateChainGoverned in the direction PlanChain picks.
  GovernedPathSet DirectRun(const std::vector<EdgePattern>& steps,
                            const ExecLimits& limits) {
    return DirectRun(steps, limits, PlanChain(oracle_, steps).direction);
  }

  obs::ObsRegistry obs_;
  MultiRelationalGraph graph_;
  SnapshotUniverse oracle_;
  SnapshotRegistry registry_;
  QueryService service_;
};

TEST_F(QueryServiceTest, NoPublishedSnapshotIsAnError) {
  ASSERT_TRUE(service_.RegisterTenant("t", TenantQuota{}).ok());
  QueryRequest request;
  request.steps = TwoHops();
  auto response = service_.Execute("t", request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsNotFound());
}

TEST_F(QueryServiceTest, UnknownTenantIsAnError) {
  Publish();
  QueryRequest request;
  request.steps = TwoHops();
  EXPECT_TRUE(service_.Execute("ghost", request).status().IsNotFound());
}

TEST_F(QueryServiceTest, CompleteQueryMatchesDirectGovernedRun) {
  Publish();
  ASSERT_TRUE(service_.RegisterTenant("t", TenantQuota{}).ok());
  QueryRequest request;
  request.steps = TwoHops();

  auto response = service_.Execute("t", request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_FALSE(response->result.truncated);
  EXPECT_TRUE(response->result.limit.ok());
  EXPECT_EQ(response->snapshot_version, 1u);
  EXPECT_EQ(response->attempts, 1u);

  GovernedPathSet direct = DirectRun(request.steps, ExecLimits::Unlimited());
  EXPECT_EQ(response->result.paths, direct.paths);
  EXPECT_EQ(obs_.Value(obs::Metric::kServiceQueriesExecuted), 1u);
  EXPECT_EQ(obs_.Value(obs::Metric::kServiceAdmitted), 1u);
}

TEST_F(QueryServiceTest, QuotaCeilingsClampRequestLimits) {
  Publish();
  TenantQuota quota;
  quota.query_limits.max_paths = 3;
  ASSERT_TRUE(service_.RegisterTenant("t", quota).ok());

  QueryRequest request;
  request.steps = TwoHops();
  request.limits.max_paths = 1000;  // The quota's 3 wins.

  auto effective = service_.EffectiveLimits("t", request);
  ASSERT_TRUE(effective.ok());
  EXPECT_EQ(effective->max_paths, 3u);

  auto response = service_.Execute("t", request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->result.truncated);
  EXPECT_TRUE(response->result.limit.IsResourceExhausted());
  EXPECT_EQ(response->result.paths.size(), 3u);
  EXPECT_EQ(response->attempts, 1u);  // Budget trips never retry.

  // Byte-identical to the direct governed run under the effective limits.
  GovernedPathSet direct = DirectRun(request.steps, *effective);
  EXPECT_EQ(response->result.paths, direct.paths);
  EXPECT_EQ(response->result.limit, direct.limit);
}

// A pool only sizes the service's default in-flight cap; evaluation stays
// sequential and identical to the direct governed run.
TEST_F(QueryServiceTest, ParallelEvaluationMatchesSequentialOracle) {
  ThreadPool pool(4);
  QueryService::Options options = MakeOptions();
  options.pool = &pool;
  QueryService service(registry_, options);
  Publish();
  TenantQuota quota;
  quota.query_limits.max_steps = 40;
  ASSERT_TRUE(service.RegisterTenant("t", quota).ok());

  QueryRequest request;
  request.steps = TwoHops();
  auto response = service.Execute("t", request);
  ASSERT_TRUE(response.ok()) << response.status();

  GovernedPathSet direct =
      DirectRun(request.steps, service.EffectiveLimits("t", request).value());
  EXPECT_EQ(response->result.paths, direct.paths);
  EXPECT_EQ(response->result.truncated, direct.truncated);
  EXPECT_EQ(response->result.limit, direct.limit);
}

TEST_F(QueryServiceTest, ChainKindsAgreeWithTheTraversalFold) {
  Publish();
  ASSERT_TRUE(service_.RegisterTenant("t", TenantQuota{}).ok());

  QueryRequest request;
  request.steps = {EdgePattern::Any(), EdgePattern::Into(3)};

  request.kind = QueryKind::kTraversal;
  auto traversal = service_.Execute("t", request);
  ASSERT_TRUE(traversal.ok()) << traversal.status();

  request.kind = QueryKind::kChainForward;
  auto forward = service_.Execute("t", request);
  ASSERT_TRUE(forward.ok()) << forward.status();

  request.kind = QueryKind::kChainBackward;
  auto backward = service_.Execute("t", request);
  ASSERT_TRUE(backward.ok()) << backward.status();

  // ⋈◦ associativity: both chain directions denote the same set.
  EXPECT_EQ(forward->result.paths, traversal->result.paths);
  EXPECT_EQ(backward->result.paths, traversal->result.paths);

  // The service plans: the destination-anchored chain is served from the
  // selective end, doing exactly the backward fold's work and less than
  // the forward fold's, while answering the forward set.
  const GovernedPathSet want_forward = DirectRun(
      request.steps, ExecLimits::Unlimited(), ChainDirection::kForward);
  const GovernedPathSet want_backward = DirectRun(
      request.steps, ExecLimits::Unlimited(), ChainDirection::kBackward);
  ASSERT_FALSE(want_forward.paths.empty());
  EXPECT_EQ(traversal->result.stats.steps_expanded,
            want_backward.stats.steps_expanded);
  EXPECT_LT(traversal->result.stats.steps_expanded,
            want_forward.stats.steps_expanded);
  EXPECT_EQ(traversal->result.paths, want_forward.paths);
  // Only the planned kind records a planner decision.
  EXPECT_EQ(obs_.Value(obs::Metric::kPlannerPlansBackward), 1u);
  EXPECT_EQ(obs_.Value(obs::Metric::kPlannerPlansForward), 0u);
}

// Under truncating budgets the planned answer is exactly the governed run
// in the planned direction: paths, truncation, limit Status, and stats
// (elapsed aside) — for a backward-planned and a forward-planned chain.
TEST_F(QueryServiceTest, TruncatedTraversalMatchesThePlannedGovernedRun) {
  Publish();
  ASSERT_TRUE(service_.RegisterTenant("t", TenantQuota{}).ok());

  struct Case {
    std::vector<EdgePattern> steps;
    ChainDirection planned;
  };
  const Case cases[] = {
      {{EdgePattern::Any(), EdgePattern::Into(3)}, ChainDirection::kBackward},
      {{EdgePattern::From(2), EdgePattern::Any()}, ChainDirection::kForward},
  };
  uint64_t backward_plans = 0, forward_plans = 0;
  for (const Case& c : cases) {
    ASSERT_EQ(PlanChain(oracle_, c.steps).direction, c.planned);
    const GovernedPathSet full =
        DirectRun(c.steps, ExecLimits::Unlimited(), c.planned);
    ASSERT_GT(full.paths.size(), 1u);

    ExecLimits by_steps, by_paths, by_bytes;
    by_steps.max_steps = full.stats.steps_expanded / 2;
    by_paths.max_paths = full.paths.size() / 2;
    by_bytes.max_bytes = full.stats.bytes_charged / 2;
    for (const ExecLimits& limits : {by_steps, by_paths, by_bytes}) {
      QueryRequest request;
      request.steps = c.steps;
      request.limits = limits;
      auto response = service_.Execute("t", request);
      ASSERT_TRUE(response.ok()) << response.status();
      if (c.planned == ChainDirection::kBackward) {
        ++backward_plans;
      } else {
        ++forward_plans;
      }

      const GovernedPathSet want = DirectRun(
          c.steps, service_.EffectiveLimits("t", request).value(), c.planned);
      const GovernedPathSet& got = response->result;
      ASSERT_TRUE(want.truncated);
      EXPECT_EQ(got.paths, want.paths);
      EXPECT_EQ(got.truncated, want.truncated);
      EXPECT_EQ(got.limit, want.limit)
          << "got " << got.limit << " want " << want.limit;
      EXPECT_EQ(got.stats.paths_yielded, want.stats.paths_yielded);
      EXPECT_EQ(got.stats.steps_expanded, want.stats.steps_expanded);
      EXPECT_EQ(got.stats.bytes_charged, want.stats.bytes_charged);
      EXPECT_EQ(got.stats.truncated, want.stats.truncated);
    }
  }
  EXPECT_EQ(obs_.Value(obs::Metric::kPlannerPlansBackward), backward_plans);
  EXPECT_EQ(obs_.Value(obs::Metric::kPlannerPlansForward), forward_plans);
}

TEST_F(QueryServiceTest, TransientExecuteFaultIsRetriedToSuccess) {
  Publish();
  ASSERT_TRUE(service_.RegisterTenant("t", TenantQuota{}).ok());

  ScopedFault fault(kFaultSiteServiceExecute, /*nth=*/1,
                    Status::IOError("transient flake"));
  QueryRequest request;
  request.steps = TwoHops();
  auto response = service_.Execute("t", request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->attempts, 2u);
  EXPECT_FALSE(response->result.truncated);
  EXPECT_EQ(obs_.Value(obs::Metric::kServiceRetries), 1u);
}

TEST_F(QueryServiceTest, ExhaustedRetryBudgetSurfacesTheFault) {
  Publish();
  ASSERT_TRUE(service_.RegisterTenant("t", TenantQuota{}).ok());

  QueryService::Options options = MakeOptions();
  options.retry.max_attempts = 1;  // No second chance.
  QueryService service(registry_, options);
  ASSERT_TRUE(service.RegisterTenant("u", TenantQuota{}).ok());

  ScopedFault fault(kFaultSiteServiceExecute, /*nth=*/1,
                    Status::IOError("still down"));
  QueryRequest request;
  request.steps = TwoHops();
  auto response = service.Execute("u", request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsIOError());
}

TEST_F(QueryServiceTest, ShedDegradesIntoTruncatedEmptyResult) {
  Publish();
  TenantQuota starved;
  starved.max_in_flight = 0;  // Never grants...
  starved.max_queued = 0;     // ...and never queues: every admit sheds.
  ASSERT_TRUE(service_.RegisterTenant("t", starved).ok());

  QueryRequest request;
  request.steps = TwoHops();
  auto response = service_.Execute("t", request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->result.truncated);
  EXPECT_TRUE(response->result.limit.IsResourceExhausted());
  EXPECT_EQ(response->result.paths.size(), 0u);
  EXPECT_EQ(response->snapshot_version, 0u);  // Never reached a snapshot.
  EXPECT_EQ(response->attempts, 3u);          // The full retry budget.
  EXPECT_GE(obs_.Value(obs::Metric::kServiceShed), 3u);
}

TEST_F(QueryServiceTest, CancelledQueryDegradesWithItsPartialResult) {
  Publish();
  ASSERT_TRUE(service_.RegisterTenant("t", TenantQuota{}).ok());

  QueryRequest request;
  request.steps = TwoHops();
  request.token.RequestCancel();  // Cancelled before it starts.
  auto response = service_.Execute("t", request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->result.truncated);
  EXPECT_TRUE(response->result.limit.IsCancelled());
  EXPECT_EQ(response->attempts, 1u);  // Cancellation never retries.
}

TEST_F(QueryServiceTest, SnapshotVersionTracksHotSwaps) {
  Publish();
  ASSERT_TRUE(service_.RegisterTenant("t", TenantQuota{}).ok());
  QueryRequest request;
  request.steps = TwoHops();

  auto before = service_.Execute("t", request);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->snapshot_version, 1u);

  ASSERT_TRUE(registry_.HotSwap(Load(MakeGraph(60, 12))).ok());
  auto after = service_.Execute("t", request);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->snapshot_version, 2u);
  EXPECT_EQ(registry_.retired_count(), 0u);  // v1 reclaimed at quiescence.
}

TEST_F(QueryServiceTest, InfeasibleDeadlineDegradesBeforeExecuting) {
  Publish();
  ASSERT_TRUE(service_.RegisterTenant("t", TenantQuota{}).ok());
  // Seed the cost estimate high so admission's feasibility check trips.
  obs_.Record(obs::Hist::kServiceExecNanos,
              std::chrono::nanoseconds(std::chrono::seconds(10)).count());

  QueryRequest request;
  request.steps = TwoHops();
  request.deadline = std::chrono::milliseconds(1);
  auto response = service_.Execute("t", request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->result.truncated);
  EXPECT_TRUE(response->result.limit.IsDeadlineExceeded());
  EXPECT_EQ(obs_.Value(obs::Metric::kServiceQueriesExecuted), 0u);
}

}  // namespace
}  // namespace mrpa::service
