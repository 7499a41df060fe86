// The chaos soak for the resilient serving substrate.
//
// N worker threads issue governed queries for three tenants through a
// QueryService while a controller thread, concurrently and continuously:
//   * hot-swaps the snapshot registry across three graph contents,
//   * arms transient kIOError faults at service.execute / service.admit /
//     service.swap / exec.budget_check (multi-site, concurrently),
//   * cancels random in-flight workers' tokens,
//   * flips tenant rate/concurrency quotas at runtime.
//
// The invariant under all of it — THE differential contract of this PR:
// every response the service returns with a deterministic outcome (limit
// Status OK or kResourceExhausted) is byte-identical to a direct governed
// run of the same workload, in the direction the service evaluates it
// (planned for kTraversal, pinned for the chain kinds), with the same
// effective limits, against a reference copy of the image version the
// query was admitted under; every untruncated one also equals the forward
// §III fold.
// Deadline and cancellation outcomes are wall-clock dependent and are
// checked for shape only; sheds must come back as the well-formed
// truncated-empty kResourceExhausted degradation. Injected kIOError faults
// can never masquerade as answers: the retry loop either clears them or
// surfaces kIOError, so every returned result is fault-free output.
//
// A second soak (LiveCompactionSoak…) swaps the static three-content
// rotation for a LIVE pipeline: a single mutator thread churns a
// DeltaOverlay against the currently-served base, seals generations, and
// periodically compacts — rewriting base+delta through the Compactor into
// a fresh image hot-swapped into the same registry the tenants are served
// from (occasionally through injected delta.compact/delta.swap failures,
// which must leave the registry untouched). The differential invariant is
// unchanged: every deterministic response is byte-identical to a direct
// governed run against a reference universe loaded from the exact bytes
// its admitted version was compacted to.
//
// Run time defaults to ~1.5s; MRPA_CHAOS_SOAK_MS overrides (ci_chaos.sh
// runs a 30s soak under ASan and TSan).

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/edge_pattern.h"
#include "core/path_set.h"
#include "core/traversal.h"
#include "delta/compactor.h"
#include "delta/delta_overlay.h"
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
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mrpa::service {
namespace {

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

// The workload pool workers draw from. Small fixed set so the oracle runs
// stay cheap; budgets and kinds are randomized per request.
std::vector<std::vector<EdgePattern>> WorkloadSteps() {
  return {
      {EdgePattern::Any(), EdgePattern::Any()},
      {EdgePattern::Any(), EdgePattern::Labeled(0)},
      {EdgePattern::Labeled(1), EdgePattern::Any()},
      {EdgePattern::Any(), EdgePattern::Into(3)},
      {EdgePattern::From(2), EdgePattern::Any(), EdgePattern::Any()},
  };
}

// version -> content index, filled by the controller right after each
// successful HotSwap. A worker holding a response for a version the map
// does not know yet spins briefly (the controller publishes within
// microseconds of the swap returning).
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

// Mirrors QueryService::ExecuteOnce's dispatch, sequentially, fault-free:
// the oracle the served output must match byte-for-byte. kTraversal runs in
// the direction PlanChain picks; the chain kinds pin it. The oracle runs
// under a ShardContext (fault probes disabled) so the controller's armed
// exec.budget_check faults cannot leak into the reference run.
GovernedPathSet Oracle(const SnapshotUniverse& universe,
                       const QueryRequest& request,
                       const ExecLimits& effective) {
  ExecContext quiet;
  ExecContext ctx = ExecContext::ShardContext(quiet, effective);
  ChainDirection direction = ChainDirection::kForward;
  switch (request.kind) {
    case QueryKind::kTraversal:
      direction = PlanChain(universe, request.steps).direction;
      break;
    case QueryKind::kChainForward:
      break;
    case QueryKind::kChainBackward:
      direction = ChainDirection::kBackward;
      break;
  }
  Result<GovernedPathSet> run =
      EvaluateChainGoverned(universe, request.steps, direction, ctx);
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

// A summary-mode answer against the enumeration the oracle ran, and against
// the full forward answer when untruncated (DESIGN.md "Answer modes").
// kCount is enumerate-then-reduce exactly. kExists: a path enumeration
// reaches before any trip answers it — count 1, untruncated, limit OK, no
// more steps; with none, enumeration's outcome and stats stand.
void ExpectSummaryMatches(const GovernedPathSet& got,
                          const GovernedPathSet& want, AnswerMode mode,
                          const SnapshotUniverse& reference,
                          const std::vector<EdgePattern>& steps) {
  ASSERT_EQ(got.mode, mode);
  ASSERT_TRUE(got.paths.empty());
  if (mode == AnswerMode::kExists && !want.paths.empty()) {
    ASSERT_EQ(got.count, 1u);
    ASSERT_FALSE(got.truncated);
    ASSERT_TRUE(got.limit.ok()) << got.limit;
    ASSERT_LE(got.stats.steps_expanded, want.stats.steps_expanded);
  } else {
    ASSERT_EQ(got.count, mode == AnswerMode::kCount ? want.paths.size()
                                                    : uint64_t{0});
    ASSERT_EQ(got.truncated, want.truncated);
    ASSERT_EQ(got.limit, want.limit)
        << "got " << got.limit << " want " << want.limit;
    ASSERT_EQ(got.stats.paths_yielded, want.stats.paths_yielded);
    ASSERT_EQ(got.stats.steps_expanded, want.stats.steps_expanded);
    ASSERT_EQ(got.stats.bytes_charged, want.stats.bytes_charged);
  }
  if (!got.truncated) {
    const PathSet forward = ForwardFold(reference, steps);
    const uint64_t full =
        mode == AnswerMode::kCount ? forward.size() : !forward.empty();
    ASSERT_EQ(got.count, full);
  }
}

struct SoakCounters {
  std::atomic<uint64_t> complete{0};
  std::atomic<uint64_t> truncated{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> wallclock{0};  // Deadline/cancel outcomes.
  std::atomic<uint64_t> io_errors{0};  // Retry budget exhausted.
  std::atomic<uint64_t> checked{0};    // Differential comparisons run.
};

TEST(ServiceChaosTest, SoakHoldsTheDifferentialInvariant) {
  // Reference (oracle) universes: one immutable copy per content, never
  // touched by the service. Byte-deterministic serialization makes them
  // governance-identical to the images the service swaps in.
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
  QueryService::Options options;
  options.obs = &obs;
  options.pool = &pool;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = std::chrono::microseconds(50);
  options.retry.max_backoff = std::chrono::microseconds(500);
  QueryService service(registry, options);

  // Quotas: the controller flips rate/concurrency knobs at runtime but
  // keeps query_limits FIXED — the differential oracle reads effective
  // limits after the fact, so the budget ceilings must be stable.
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

  const auto specs = WorkloadSteps();
  const auto deadline = std::chrono::steady_clock::now() + SoakDuration();
  std::atomic<bool> stop{false};
  SoakCounters counters;

  // Cancellation rack: each worker parks its current token here; the
  // controller cancels random slots mid-flight.
  std::mutex token_mu;
  std::vector<CancelToken> tokens(kWorkers);

  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(0xc0ffee + w * 7919);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& [tenant, quota] = tenants[rng.Below(tenants.size())];
        QueryRequest request;
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
            break;  // Unlimited; the tenant ceilings still apply.
        }
        if (rng.Chance(0.15)) {
          request.deadline = std::chrono::milliseconds(rng.Between(1, 20));
        }
        {
          std::lock_guard<std::mutex> lock(token_mu);
          request.token = CancelToken();
          tokens[w] = request.token;
        }

        auto response = service.Execute(tenant, request);
        if (!response.ok()) {
          // The only legal error under this chaos mix: an injected
          // transient fault that outlived the retry budget.
          ASSERT_TRUE(response.status().IsIOError()) << response.status();
          counters.io_errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }

        const GovernedPathSet& got = response->result;
        if (got.limit.IsDeadlineExceeded() || got.limit.IsCancelled()) {
          // Wall-clock outcomes: shape check only (still a well-formed
          // truncation contract).
          EXPECT_TRUE(got.truncated);
          counters.wallclock.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (response->snapshot_version == 0) {
          // A shed that exhausted its retries: the degradation contract.
          EXPECT_TRUE(got.truncated);
          EXPECT_TRUE(got.limit.IsResourceExhausted()) << got.limit;
          EXPECT_EQ(got.paths.size(), 0u);
          counters.shed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }

        // Deterministic outcome: the differential invariant.
        ASSERT_TRUE(got.limit.ok() || got.limit.IsResourceExhausted())
            << got.limit;
        const size_t content = ledger.Lookup(response->snapshot_version);
        const ExecLimits effective =
            IntersectLimits(request.limits, quota.query_limits);
        const GovernedPathSet want =
            Oracle(references[content], request, effective);
        if (request.mode != AnswerMode::kPaths) {
          ExpectSummaryMatches(got, want, request.mode, references[content],
                               request.steps);
        } else {
          ASSERT_EQ(got.paths, want.paths)
              << "tenant " << tenant << " version "
              << response->snapshot_version << " content " << content;
          ASSERT_EQ(got.truncated, want.truncated);
          ASSERT_EQ(got.limit, want.limit)
              << "got " << got.limit << " want " << want.limit;
          if (!got.truncated) {
            ASSERT_EQ(got.paths,
                      ForwardFold(references[content], request.steps));
          }
        }
        counters.checked.fetch_add(1, std::memory_order_relaxed);
        if (got.truncated) {
          counters.truncated.fetch_add(1, std::memory_order_relaxed);
        } else {
          counters.complete.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // The controller: hot-swaps, faults, cancellations, quota flips.
  std::thread controller([&] {
    Rng rng(0xbadcab);
    size_t next_content = 1;
    uint64_t swaps = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      switch (rng.Below(5)) {
        case 0: {  // Hot swap (occasionally through an injected failure).
          const bool sabotage = rng.Chance(0.2);
          if (sabotage) {
            FaultInjector::Global().Arm(kFaultSiteServiceSwap, 1,
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
          FaultInjector::Global().Disarm(kFaultSiteServiceSwap);
          break;
        }
        case 1: {  // Transient faults, multi-site, kIOError ONLY (so an
                   // injected failure can never pose as a genuine result).
          FaultInjector::Global().Arm(kFaultSiteServiceExecute,
                                      1 + rng.Below(4),
                                      Status::IOError("execute flake"));
          if (rng.Chance(0.5)) {
            FaultInjector::Global().Arm(kFaultSiteBudgetCheck,
                                        1 + rng.Below(200),
                                        Status::IOError("mid-run flake"));
          }
          break;
        }
        case 2: {  // Clear the fault sites.
          FaultInjector::Global().Disarm(kFaultSiteServiceExecute);
          FaultInjector::Global().Disarm(kFaultSiteBudgetCheck);
          break;
        }
        case 3: {  // Cancel a random worker's in-flight token.
          std::lock_guard<std::mutex> lock(token_mu);
          tokens[rng.Below(kWorkers)].RequestCancel();
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

  // Quiescence: with every guard released, all retired images reclaim.
  registry.ReclaimNow();
  EXPECT_EQ(registry.retired_count(), 0u);

  // The soak must actually have exercised the differential path.
  EXPECT_GT(counters.checked.load(), 0u);
  EXPECT_GT(counters.complete.load() + counters.truncated.load(), 0u);
  RecordProperty("complete", static_cast<int>(counters.complete.load()));
  RecordProperty("truncated", static_cast<int>(counters.truncated.load()));
  RecordProperty("shed", static_cast<int>(counters.shed.load()));
  RecordProperty("wallclock", static_cast<int>(counters.wallclock.load()));
  RecordProperty("io_errors", static_cast<int>(counters.io_errors.load()));
  RecordProperty("checked", static_cast<int>(counters.checked.load()));
}

// The live-graph soak: the same serving substrate and differential
// invariant, but the image rotation is driven by REAL compactions of a
// churning delta overlay instead of a static content carousel.
TEST(ServiceChaosTest, LiveCompactionSoakHoldsTheDifferentialInvariant) {
  obs::ObsRegistry obs;
  ThreadPool pool(4);
  SnapshotRegistry registry(&obs);
  QueryService::Options options;
  options.obs = &obs;
  options.pool = &pool;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = std::chrono::microseconds(50);
  options.retry.max_backoff = std::chrono::microseconds(500);
  QueryService service(registry, options);

  TenantQuota gold;
  gold.priority = 2;
  gold.max_in_flight = 4;
  gold.query_limits.max_steps = 400;
  TenantQuota bronze;
  bronze.priority = 0;
  bronze.max_in_flight = 2;
  bronze.max_queued = 4;
  bronze.query_limits.max_paths = 40;
  ASSERT_TRUE(service.RegisterTenant("gold", gold).ok());
  ASSERT_TRUE(service.RegisterTenant("bronze", bronze).ok());
  const std::vector<std::pair<std::string, TenantQuota>> tenants = {
      {"gold", gold}, {"bronze", bronze}};

  // The reference rack: version -> an immutable oracle universe loaded
  // from the EXACT bytes that version was compacted (or seeded) from.
  // Entries are published right after each successful swap and never
  // removed, so Lookup can hand out stable references.
  std::mutex rack_mu;
  std::map<uint64_t, std::unique_ptr<SnapshotUniverse>> rack;
  auto publish = [&](uint64_t version, const std::vector<uint8_t>& bytes) {
    auto universe = SnapshotReader().FromBuffer(bytes);
    ASSERT_TRUE(universe.ok()) << universe.status();
    std::lock_guard<std::mutex> lock(rack_mu);
    rack[version] =
        std::make_unique<SnapshotUniverse>(std::move(*universe));
  };
  auto lookup = [&](uint64_t version) -> const SnapshotUniverse& {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(rack_mu);
        auto it = rack.find(version);
        if (it != rack.end()) return *it->second;
      }
      std::this_thread::yield();
    }
  };

  // Genesis image: the base content every later version descends from.
  MultiRelationalGraph genesis = MakeContent(0);
  auto genesis_bytes = SnapshotWriter().Serialize(genesis);
  ASSERT_TRUE(genesis_bytes.ok()) << genesis_bytes.status();
  auto v1 = registry.HotSwap(Load(*genesis_bytes));
  ASSERT_TRUE(v1.ok()) << v1.status();
  publish(*v1, *genesis_bytes);

  const auto specs = WorkloadSteps();
  const auto deadline = std::chrono::steady_clock::now() + SoakDuration();
  std::atomic<bool> stop{false};
  SoakCounters counters;

  std::mutex token_mu;
  std::vector<CancelToken> tokens(kWorkers);

  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(0xf00d + w * 6151);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& [tenant, quota] = tenants[rng.Below(tenants.size())];
        QueryRequest request;
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
        if (rng.Chance(0.1)) {
          request.deadline = std::chrono::milliseconds(rng.Between(1, 20));
        }
        {
          std::lock_guard<std::mutex> lock(token_mu);
          request.token = CancelToken();
          tokens[w] = request.token;
        }

        auto response = service.Execute(tenant, request);
        if (!response.ok()) {
          ASSERT_TRUE(response.status().IsIOError()) << response.status();
          counters.io_errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const GovernedPathSet& got = response->result;
        if (got.limit.IsDeadlineExceeded() || got.limit.IsCancelled()) {
          EXPECT_TRUE(got.truncated);
          counters.wallclock.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (response->snapshot_version == 0) {
          EXPECT_TRUE(got.truncated);
          EXPECT_TRUE(got.limit.IsResourceExhausted()) << got.limit;
          EXPECT_EQ(got.paths.size(), 0u);
          counters.shed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }

        // The invariant: byte-identical to a direct governed run against
        // the reference for the admitted (compacted) version.
        ASSERT_TRUE(got.limit.ok() || got.limit.IsResourceExhausted())
            << got.limit;
        const SnapshotUniverse& reference =
            lookup(response->snapshot_version);
        const ExecLimits effective =
            IntersectLimits(request.limits, quota.query_limits);
        const GovernedPathSet want = Oracle(reference, request, effective);
        if (request.mode != AnswerMode::kPaths) {
          ExpectSummaryMatches(got, want, request.mode, reference,
                               request.steps);
        } else {
          ASSERT_EQ(got.paths, want.paths)
              << "tenant " << tenant << " version "
              << response->snapshot_version;
          ASSERT_EQ(got.truncated, want.truncated);
          ASSERT_EQ(got.limit, want.limit)
              << "got " << got.limit << " want " << want.limit;
          if (!got.truncated) {
            ASSERT_EQ(got.paths, ForwardFold(reference, request.steps));
          }
        }
        counters.checked.fetch_add(1, std::memory_order_relaxed);
        if (got.truncated) {
          counters.truncated.fetch_add(1, std::memory_order_relaxed);
        } else {
          counters.complete.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // The mutator: single-writer churn on a delta overlay over whatever
  // image is currently served, with periodic seal + compact + hot-swap —
  // sometimes through an injected compaction failure, which must leave
  // the registry (and the overlay's sealed generations) untouched.
  std::thread mutator([&] {
    Rng rng(0x5eed);
    delta::DeltaOverlay overlay(&obs);
    SnapshotRegistry::Guard guard;  // Pins the base after first compact.
    auto base = [&]() -> const EdgeUniverse& {
      if (guard) return guard.universe();
      return genesis;
    };
    // One compactor for the soak: it carries the deferred-drop state, so
    // generations folded while tenants still pin older images get dropped
    // on a later compaction once those readers drain.
    delta::CompactorOptions copts;
    copts.keep_image = true;
    copts.obs = &obs;
    delta::Compactor compactor(&registry, copts);
    uint64_t compactions = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      for (int i = 0; i < 8; ++i) {
        Edge e(static_cast<VertexId>(rng.Below(24)),
               static_cast<LabelId>(rng.Below(3)),
               static_cast<VertexId>(rng.Below(24)));
        if (rng.Chance(0.6)) {
          (void)overlay.AddEdge(base(), e);
        } else {
          (void)overlay.RemoveEdge(base(), e);
        }
      }
      if (rng.Chance(0.25)) overlay.Seal();
      if (rng.Chance(0.12)) {
        std::optional<ScopedFault> fault;
        if (rng.Chance(0.15)) {
          fault.emplace(rng.Chance(0.5) ? delta::kFaultSiteDeltaCompact
                                        : delta::kFaultSiteDeltaSwap,
                        1, Status::IOError("torn compaction"));
        }
        const uint64_t before = registry.current_version();
        auto result = compactor.Compact(base(), overlay);
        fault.reset();
        if (result.ok()) {
          publish(result->version, result->image);
          guard = registry.Acquire();
          EXPECT_EQ(guard.version(), result->version);
          ++compactions;
        } else {
          EXPECT_TRUE(result.status().IsIOError()) << result.status();
          EXPECT_EQ(registry.current_version(), before);
        }
      }
      // Light chaos alongside the churn: transient execute faults and
      // random in-flight cancellations.
      if (rng.Chance(0.08)) {
        FaultInjector::Global().Arm(kFaultSiteServiceExecute,
                                    1 + rng.Below(4),
                                    Status::IOError("execute flake"));
      }
      if (rng.Chance(0.16)) {
        FaultInjector::Global().Disarm(kFaultSiteServiceExecute);
      }
      if (rng.Chance(0.08)) {
        std::lock_guard<std::mutex> lock(token_mu);
        tokens[rng.Below(kWorkers)].RequestCancel();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    stop.store(true, std::memory_order_relaxed);
    EXPECT_GT(compactions, 0u);
  });

  mutator.join();
  for (std::thread& worker : workers) worker.join();
  FaultInjector::Global().Disarm();

  registry.ReclaimNow();
  EXPECT_EQ(registry.retired_count(), 0u);

  EXPECT_GT(counters.checked.load(), 0u);
  RecordProperty("complete", static_cast<int>(counters.complete.load()));
  RecordProperty("truncated", static_cast<int>(counters.truncated.load()));
  RecordProperty("shed", static_cast<int>(counters.shed.load()));
  RecordProperty("wallclock", static_cast<int>(counters.wallclock.load()));
  RecordProperty("io_errors", static_cast<int>(counters.io_errors.load()));
  RecordProperty("checked", static_cast<int>(counters.checked.load()));
  RecordProperty("versions",
                 static_cast<int>(registry.current_version()));
}

}  // namespace
}  // namespace mrpa::service
