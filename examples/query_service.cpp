// The resilient serving substrate: a multi-tenant QueryService over a
// hot-swappable snapshot registry.
//
// The service composes the library's governance pieces into a front door:
// per-tenant admission control (token buckets, in-flight caps, bounded
// queues, priority shedding), RCU-style snapshot hot-swap (readers pin the
// image they were admitted under; retired images are reclaimed at epoch
// quiescence), retry with jittered backoff around transient faults, and a
// uniform degraded-response contract — sheds, budget trips, deadline and
// cancellation outcomes all come back OK as truncated partial results.
// The chaos soak (tests/service_chaos_test.cc) proves every admitted
// query's output byte-identical to a direct governed run against its
// admitted snapshot version. Build and run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/query_service

#include <chrono>
#include <iostream>

#include "core/edge_pattern.h"
#include "graph/multi_graph.h"
#include "service/admission.h"
#include "service/query_service.h"
#include "service/snapshot_registry.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"

using namespace mrpa;  // NOLINT — example brevity.

namespace {

// Publishes `g` into the registry as the next snapshot version.
Status Publish(service::SnapshotRegistry& registry,
               const MultiRelationalGraph& g) {
  auto bytes = storage::SnapshotWriter().Serialize(g);
  if (!bytes.ok()) return bytes.status();
  auto universe = storage::SnapshotReader().FromBuffer(*std::move(bytes));
  if (!universe.ok()) return universe.status();
  auto version = registry.HotSwap(std::move(*universe));
  if (!version.ok()) return version.status();
  std::cout << "published snapshot v" << *version << " (|E| = "
            << g.num_edges() << ")\n";
  return Status::OK();
}

void Describe(const char* who, const Result<service::QueryResponse>& r) {
  if (!r.ok()) {
    std::cout << who << ": error — " << r.status() << "\n";
    return;
  }
  std::cout << who << ": " << r->result.paths.size() << " paths from v"
            << r->snapshot_version << " in " << r->attempts << " attempt(s)"
            << (r->result.truncated
                    ? std::string(", truncated: ") + r->result.limit.message()
                    : std::string(", complete"))
            << "\n";
}

}  // namespace

int main() {
  // --- 1. The serving side: registry + pool + service ---------------------
  MultiGraphBuilder builder;
  builder.AddEdge("marko", "knows", "peter");
  builder.AddEdge("marko", "knows", "josh");
  builder.AddEdge("josh", "knows", "peter");
  builder.AddEdge("marko", "created", "mrpa");
  builder.AddEdge("josh", "created", "mrpa");
  MultiRelationalGraph g1 = builder.Build();

  service::SnapshotRegistry registry;
  if (Status s = Publish(registry, g1); !s.ok()) {
    std::cerr << "publish failed: " << s << "\n";
    return 1;
  }

  // Queries run sequentially on the calling thread; the pool only sizes
  // the service's default global in-flight cap.
  ThreadPool pool(2);
  service::QueryService::Options options;
  options.pool = &pool;
  options.retry.initial_backoff = std::chrono::milliseconds(1);
  service::QueryService svc(registry, options);

  // --- 2. Tenants: quotas are the per-tenant resource contract ------------
  // `analytics` may burn real budgets; `free` is clamped hard — its query
  // ceilings intersect every request's own limits (tighter bound wins).
  service::TenantQuota analytics;
  analytics.max_in_flight = 2;
  analytics.priority = 1;
  service::TenantQuota free_tier;
  free_tier.qps = 50;
  free_tier.max_in_flight = 1;
  free_tier.query_limits.max_paths = 1;
  (void)svc.RegisterTenant("analytics", analytics);
  (void)svc.RegisterTenant("free", free_tier);

  // --- 3. Execute: every governance outcome is a first-class result -------
  service::QueryRequest two_hops;
  two_hops.steps = {EdgePattern::Any(), EdgePattern::Any()};

  Describe("analytics, two hops   ", svc.Execute("analytics", two_hops));
  // The free tier runs the same query but its quota ceiling truncates the
  // answer — OK + truncated, not an error.
  Describe("free, clamped to 1    ", svc.Execute("free", two_hops));

  // --- 4. Hot swap: in-flight queries keep their admitted image -----------
  // A new version published mid-serve never tears an answer: queries
  // admitted before the swap run to completion on the old image (pinned by
  // an epoch guard), new admissions see the new version, and the old image
  // is reclaimed once its last reader drops.
  builder.AddEdge("peter", "likes", "gremlin");
  builder.AddEdge("josh", "created", "gremlin");
  if (Status s = Publish(registry, builder.Build()); !s.ok()) {
    std::cerr << "swap failed: " << s << "\n";
    return 1;
  }
  Describe("analytics, after swap ", svc.Execute("analytics", two_hops));
  registry.ReclaimNow();
  std::cout << "retired images awaiting readers: " << registry.retired_count()
            << "\n";

  // --- 5. Degradation: budget trips return their partial result -----------
  // A request-side budget works the same way as a quota ceiling: the fold
  // stops at the limit and the truncated prefix IS the answer (the limit
  // Status says which budget tripped). Sheds, deadline and cancellation
  // outcomes wear the identical shape, so a client handles one contract.
  service::QueryRequest capped = two_hops;
  capped.limits.max_paths = 2;
  Describe("analytics, capped at 2", svc.Execute("analytics", capped));

  return 0;
}
