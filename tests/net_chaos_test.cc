// The network tier's correctness centerpiece: the service chaos soak, but
// through real sockets. Four QueryClient workers fire randomized governed
// queries (all three kinds × all three answer modes × randomized budgets
// and deadlines) at a QueryServer while a controller hot-swaps snapshots
// and arms injected faults at service.admit / service.execute /
// service.swap. The invariant is the same one QueryService proved in
// process, now end-to-end: every deterministic response that crosses the
// wire is byte-identical to a direct evaluation, in the direction the
// service evaluates it, against the immutable reference copy of the SAME
// admitted snapshot version — the wire protocol, the event loop, the
// dispatch queue, and the client's retry loop must be invisible in the
// answers — and every untruncated one also matches the forward §III fold.
//
// Outcome classification mirrors service_chaos_test: wall-clock outcomes
// (deadline/cancel) and shed exhaustion check SHAPE (the degradation
// contract); everything else checks CONTENT against the oracle; the only
// legal hard error is an injected kIOError that outlived the retry budget.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/edge_pattern.h"
#include "core/path_set.h"
#include "core/traversal.h"
#include "engine/chain_planner.h"
#include "generators/generators.h"
#include "graph/multi_graph.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/obs.h"
#include "service/admission.h"
#include "service/query_service.h"
#include "service/snapshot_registry.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_universe.h"
#include "storage/snapshot_writer.h"
#include "util/exec_context.h"
#include "util/fault_injector.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mrpa::net {
namespace {

using service::IntersectLimits;
using service::QueryKind;
using service::QueryService;
using service::SnapshotRegistry;
using service::TenantQuota;
using storage::SnapshotReader;
using storage::SnapshotUniverse;
using storage::SnapshotWriter;

constexpr size_t kContents = 3;
constexpr size_t kWorkers = 4;

std::chrono::milliseconds SoakDuration() {
  if (const char* ms = std::getenv("MRPA_CHAOS_SOAK_MS")) {
    return std::chrono::milliseconds(std::max(1L, std::atol(ms)));
  }
  return std::chrono::milliseconds(1500);
}

MultiRelationalGraph MakeContent(size_t content) {
  ErdosRenyiParams params;
  params.num_vertices = 22;
  params.num_labels = 3;
  params.num_edges = 90 + 10 * content;
  params.seed = 1000 + content;
  return GenerateErdosRenyi(params).value();
}

SnapshotUniverse Load(const std::vector<uint8_t>& bytes) {
  auto universe = SnapshotReader().FromBuffer(bytes);
  EXPECT_TRUE(universe.ok()) << universe.status();
  return std::move(*universe);
}

std::vector<std::vector<EdgePattern>> WorkloadSteps() {
  return {
      {EdgePattern::Any(), EdgePattern::Any()},
      {EdgePattern::Any(), EdgePattern::Labeled(0)},
      {EdgePattern::Labeled(1), EdgePattern::Any()},
      {EdgePattern::Any(), EdgePattern::Into(3)},
      {EdgePattern::From(2), EdgePattern::Any(), EdgePattern::Any()},
  };
}

// version -> content index; see service_chaos_test for the spin rationale.
class VersionLedger {
 public:
  void Record(uint64_t version, size_t content) {
    std::lock_guard<std::mutex> lock(mu_);
    content_[version] = content;
  }
  size_t Lookup(uint64_t version) {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = content_.find(version);
        if (it != content_.end()) return it->second;
      }
      std::this_thread::yield();
    }
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, size_t> content_;
};

// The direct evaluation the served-and-shipped answer must equal: mirrors
// QueryService::ExecuteOnce's dispatch (kTraversal in the direction
// PlanChain picks, the chain kinds pinned). Runs under a ShardContext so
// armed faults cannot leak into the reference.
GovernedPathSet Oracle(const SnapshotUniverse& universe,
                       QueryKind kind,
                       const std::vector<EdgePattern>& steps,
                       const ExecLimits& effective) {
  ExecContext quiet;
  ExecContext ctx = ExecContext::ShardContext(quiet, effective);
  ChainDirection direction = ChainDirection::kForward;
  switch (kind) {
    case QueryKind::kTraversal:
      direction = PlanChain(universe, steps).direction;
      break;
    case QueryKind::kChainForward:
      break;
    case QueryKind::kChainBackward:
      direction = ChainDirection::kBackward;
      break;
  }
  Result<GovernedPathSet> run =
      EvaluateChainGoverned(universe, steps, direction, ctx);
  EXPECT_TRUE(run.ok()) << run.status();
  return run.ok() ? std::move(*run) : GovernedPathSet{};
}

// The forward §III fold, unbudgeted and fault-free: every untruncated
// answer, whatever direction produced it, must be exactly this set.
PathSet ForwardFold(const SnapshotUniverse& universe,
                    const std::vector<EdgePattern>& steps) {
  ExecContext quiet;
  ExecContext ctx = ExecContext::ShardContext(quiet, ExecLimits::Unlimited());
  TraversalSpec spec;
  spec.steps = steps;
  Result<GovernedPathSet> run = TraverseGoverned(universe, spec, ctx);
  EXPECT_TRUE(run.ok()) << run.status();
  return run.ok() ? std::move(run->paths) : PathSet{};
}

struct SoakCounters {
  std::atomic<uint64_t> complete{0};
  std::atomic<uint64_t> truncated{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> wallclock{0};
  std::atomic<uint64_t> io_errors{0};
  std::atomic<uint64_t> checked{0};
};

TEST(NetChaosTest, SocketSoakHoldsTheDifferentialInvariant) {
  std::vector<std::vector<uint8_t>> blobs;
  std::vector<SnapshotUniverse> references;
  for (size_t c = 0; c < kContents; ++c) {
    auto bytes = SnapshotWriter().Serialize(MakeContent(c));
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    blobs.push_back(std::move(*bytes));
    references.push_back(Load(blobs.back()));
  }

  obs::ObsRegistry obs;
  ThreadPool pool(4);
  SnapshotRegistry registry(&obs);
  QueryService::Options service_options;
  service_options.obs = &obs;
  service_options.pool = &pool;
  service_options.retry.max_attempts = 3;
  service_options.retry.initial_backoff = std::chrono::microseconds(50);
  service_options.retry.max_backoff = std::chrono::microseconds(500);
  QueryService service(registry, service_options);

  TenantQuota gold;
  gold.priority = 2;
  gold.max_in_flight = 4;
  gold.query_limits.max_steps = 400;
  TenantQuota bronze;
  bronze.priority = 0;
  bronze.max_in_flight = 2;
  bronze.max_queued = 4;
  bronze.query_limits.max_paths = 40;
  TenantQuota free_tier;
  free_tier.priority = 0;
  free_tier.qps = 200;
  free_tier.burst = 20;
  free_tier.max_in_flight = 1;
  free_tier.max_queued = 2;
  free_tier.query_limits.max_paths = 10;
  free_tier.query_limits.max_steps = 60;
  ASSERT_TRUE(service.RegisterTenant("gold", gold).ok());
  ASSERT_TRUE(service.RegisterTenant("bronze", bronze).ok());
  ASSERT_TRUE(service.RegisterTenant("free", free_tier).ok());
  const std::vector<std::pair<std::string, TenantQuota>> tenants = {
      {"gold", gold}, {"bronze", bronze}, {"free", free_tier}};

  VersionLedger ledger;
  auto v1 = registry.HotSwap(Load(blobs[0]));
  ASSERT_TRUE(v1.ok()) << v1.status();
  ledger.Record(*v1, 0);

  QueryServer::Options server_options;
  server_options.obs = &obs;
  server_options.dispatch_threads = 3;
  QueryServer server(service, server_options);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  const auto specs = WorkloadSteps();
  const auto deadline = std::chrono::steady_clock::now() + SoakDuration();
  std::atomic<bool> stop{false};
  SoakCounters counters;

  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(0x50cce7 + w * 7919);
      QueryClient::Options client_options;
      client_options.retry.max_attempts = 3;
      client_options.retry.initial_backoff = std::chrono::microseconds(200);
      client_options.retry.max_backoff = std::chrono::milliseconds(2);
      client_options.retry_seed = 0x9e3779b9 + w;
      QueryClient client("127.0.0.1", port, client_options);

      while (!stop.load(std::memory_order_relaxed)) {
        const auto& [tenant, quota] = tenants[rng.Below(tenants.size())];
        WireRequest request;
        request.tenant = tenant;
        request.kind = static_cast<QueryKind>(rng.Below(3));
        request.mode = static_cast<AnswerMode>(rng.Below(3));
        request.steps = specs[rng.Below(specs.size())];
        switch (rng.Below(4)) {
          case 0:
            request.limits.max_paths = 1 + rng.Below(30);
            break;
          case 1:
            request.limits.max_steps = 1 + rng.Below(120);
            break;
          case 2:
            request.limits.max_bytes = 64 + rng.Below(4096);
            break;
          default:
            break;
        }
        if (rng.Chance(0.15)) {
          request.deadline_micros = 1000 + rng.Below(19000);  // 1–20 ms.
        }

        auto response = client.Execute(request);
        if (!response.ok()) {
          // Transport exhausted its retries. Under this chaos mix the
          // server never closes a well-behaved connection, so the only
          // legal path here is kIOError (e.g. drain racing the soak end).
          ASSERT_TRUE(response.status().IsIOError()) << response.status();
          counters.io_errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!response->outcome.ok()) {
          // An error outcome carried over the wire: an injected execute
          // fault that outlived the SERVICE retry budget.
          ASSERT_TRUE(response->outcome.IsIOError()) << response->outcome;
          counters.io_errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (response->limit.IsDeadlineExceeded() ||
            response->limit.IsCancelled()) {
          EXPECT_TRUE(response->truncated);
          counters.wallclock.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (response->snapshot_version == 0) {
          EXPECT_TRUE(response->truncated);
          EXPECT_TRUE(response->limit.IsResourceExhausted())
              << response->limit;
          EXPECT_TRUE(response->paths.empty());
          EXPECT_EQ(response->count, 0u);
          counters.shed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }

        // Deterministic outcome: compare against the oracle for the SAME
        // admitted version, projected through the SAME answer mode.
        ASSERT_TRUE(response->limit.ok() ||
                    response->limit.IsResourceExhausted())
            << response->limit;
        const size_t content = ledger.Lookup(response->snapshot_version);
        const ExecLimits effective =
            IntersectLimits(request.limits, quota.query_limits);
        const GovernedPathSet want = Oracle(
            references[content], request.kind, request.steps, effective);
        // The exists rule (DESIGN.md "Answer modes"): a path enumeration
        // reaches before any trip answers the question, so the exists
        // answer is untruncated with an OK limit and no more steps than
        // enumeration; with no such path, enumeration's outcome stands.
        const bool exists_answered =
            request.mode == AnswerMode::kExists && !want.paths.empty();
        if (exists_answered) {
          ASSERT_FALSE(response->truncated);
          ASSERT_TRUE(response->limit.ok()) << response->limit;
        } else {
          ASSERT_EQ(response->truncated, want.truncated)
              << "tenant " << tenant << " version "
              << response->snapshot_version;
          ASSERT_EQ(response->limit, want.limit);
        }
        const PathSet forward = response->truncated
                                    ? PathSet{}
                                    : ForwardFold(references[content],
                                                  request.steps);
        switch (request.mode) {
          case AnswerMode::kPaths:
            ASSERT_EQ(response->paths, want.paths)
                << "tenant " << tenant << " version "
                << response->snapshot_version << " content " << content;
            ASSERT_EQ(response->count, want.paths.size());
            if (!response->truncated) ASSERT_EQ(response->paths, forward);
            break;
          case AnswerMode::kCount:
            ASSERT_EQ(response->count, want.paths.size());
            ASSERT_TRUE(response->paths.empty());
            if (!response->truncated) ASSERT_EQ(response->count, forward.size());
            break;
          case AnswerMode::kExists:
            ASSERT_EQ(response->exists, !want.paths.empty());
            ASSERT_TRUE(response->paths.empty());
            if (!response->truncated) {
              ASSERT_EQ(response->exists, !forward.empty());
            }
            if (exists_answered) {
              ASSERT_LE(response->stats.steps_expanded,
                        want.stats.steps_expanded);
            } else {
              ASSERT_EQ(response->stats.paths_yielded,
                        want.stats.paths_yielded);
              ASSERT_EQ(response->stats.steps_expanded,
                        want.stats.steps_expanded);
              ASSERT_EQ(response->stats.bytes_charged,
                        want.stats.bytes_charged);
            }
            break;
        }
        counters.checked.fetch_add(1, std::memory_order_relaxed);
        if (response->truncated) {
          counters.truncated.fetch_add(1, std::memory_order_relaxed);
        } else {
          counters.complete.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // The controller: hot-swaps and fault arming at all three service sites.
  std::thread controller([&] {
    Rng rng(0xbadcab);
    size_t next_content = 1;
    uint64_t swaps = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      switch (rng.Below(5)) {
        case 0: {  // Hot swap (occasionally through an injected failure).
          const bool sabotage = rng.Chance(0.2);
          if (sabotage) {
            FaultInjector::Global().Arm(service::kFaultSiteServiceSwap, 1,
                                        Status::IOError("torn swap"));
          }
          const uint64_t before = registry.current_version();
          auto swapped = registry.HotSwap(Load(blobs[next_content]));
          if (swapped.ok()) {
            ledger.Record(*swapped, next_content);
            next_content = (next_content + 1) % kContents;
            ++swaps;
          } else {
            EXPECT_TRUE(swapped.status().IsIOError()) << swapped.status();
            EXPECT_EQ(registry.current_version(), before);
          }
          FaultInjector::Global().Disarm(service::kFaultSiteServiceSwap);
          break;
        }
        case 1: {  // Transient execute faults, kIOError ONLY.
          FaultInjector::Global().Arm(service::kFaultSiteServiceExecute,
                                      1 + rng.Below(4),
                                      Status::IOError("execute flake"));
          break;
        }
        case 2: {  // Admission faults: the shed path, end to end.
          FaultInjector::Global().Arm(
              service::kFaultSiteServiceAdmit, 1 + rng.Below(3),
              Status::ResourceExhausted("injected shed"));
          break;
        }
        case 3: {  // Clear the fault sites.
          FaultInjector::Global().Disarm(service::kFaultSiteServiceExecute);
          FaultInjector::Global().Disarm(service::kFaultSiteServiceAdmit);
          break;
        }
        default: {  // Flip rate/concurrency quotas (never query_limits).
          const auto& [tenant, quota] = tenants[rng.Below(tenants.size())];
          TenantQuota flipped = quota;
          flipped.max_in_flight = 1 + rng.Below(4);
          flipped.max_queued = rng.Below(6);
          if (quota.qps > 0) {
            flipped.qps = 50 + rng.Below(400);
            flipped.burst = 5 + rng.Below(30);
          }
          EXPECT_TRUE(service.UpdateQuota(tenant, flipped).ok());
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    stop.store(true, std::memory_order_relaxed);
    EXPECT_GT(swaps, 0u);
  });

  controller.join();
  for (std::thread& worker : workers) worker.join();
  FaultInjector::Global().Disarm();

  server.Shutdown();
  EXPECT_EQ(server.active_connections(), 0u);

  registry.ReclaimNow();
  EXPECT_EQ(registry.retired_count(), 0u);

  EXPECT_GT(counters.checked.load(), 0u);
  EXPECT_GT(counters.complete.load() + counters.truncated.load(), 0u);
}

}  // namespace
}  // namespace mrpa::net
