// Experiment E20: the serving substrate under open-loop load
// (src/service/).
//
// An open-loop generator offers queries to a QueryService at a fixed
// arrival rate — arrivals are scheduled on a clock, independent of
// completions, so overload cannot throttle itself the way a closed loop
// does — and measures the latency of admitted queries from their
// *scheduled arrival* (queueing delay included) plus the shed rate. Two
// configurations face the same offered load:
//
//   * admission=1 — the tenant runs under a fail-fast quota (in-flight cap
//     sized to the pool, no wait queue): overload is shed at the front
//     door as well-formed truncated-empty degradations, and the p99 of
//     what IS admitted stays near the uncontended p99;
//   * admission=0 — every cap is set beyond the batch size, so nothing is
//     ever refused: overload piles onto the cores and the latency of every
//     query grows with the backlog.
//
// The load axis is load_x10 (offered rate as tenths of the measured
// uncontended capacity): 5 = half load, 10 = saturation, 20 = 2x
// overload. Acceptance (EXPERIMENTS.md E20): at load_x10=20 with
// admission on, p99_us stays within 3x of uncontended_p99_us and every
// rejected request came back as the truncated-partial-result shape —
// while the admission=0 row shows the queueing collapse the controller
// exists to prevent.
//
// BM_AnswerMode (E26) times one server-side request — QueryService::Execute
// plus the wire projection and response encode — of the whole-label chain
// [_,knows,_]·[_,created,_] on social graphs of 12.5k/50k/200k people, in
// each answer mode: how paths, count and exists scale with the answer size.
//
// Run: build/bench/bench_service --benchmark_min_time=0.5 [--json=FILE]
// Results are recorded in EXPERIMENTS.md (E20, E26).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/edge_pattern.h"
#include "generators/generators.h"
#include "graph/multi_graph.h"
#include "net/wire.h"
#include "service/admission.h"
#include "service/query_service.h"
#include "service/snapshot_registry.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_universe.h"
#include "storage/snapshot_writer.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"

namespace mrpa {
namespace {

using service::QueryRequest;
using service::QueryService;
using service::SnapshotRegistry;
using service::TenantQuota;

// Size the serving side to the machine: a pool as wide as the hardware
// (the service's default global in-flight cap; queries evaluate
// sequentially on the issuing thread), and a tenant in-flight cap of half
// that. The issuer pool only needs enough threads to keep the arrival
// schedule honest — issuers spend their lives asleep or blocked in
// Execute.
inline size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}
const size_t kPoolThreads = HardwareThreads();
const size_t kInFlightCap = std::max<size_t>(1, kPoolThreads / 2);
const size_t kIssuers = std::max<size_t>(8, 2 * kPoolThreads);
constexpr size_t kBatch = 600;

storage::SnapshotUniverse LoadSnapshot(const MultiRelationalGraph& graph) {
  auto bytes = storage::SnapshotWriter().Serialize(graph);
  auto universe = storage::SnapshotReader().FromBuffer(std::move(*bytes));
  return std::move(*universe);
}

// The per-query workload: a governed two-hop fold with a step budget, so
// one query costs tens of microseconds — large enough to measure, small
// enough that a batch saturates via rate, not via one giant query.
QueryRequest MakeRequest() {
  QueryRequest request;
  request.steps = {EdgePattern::Any(), EdgePattern::Any()};
  request.limits.max_steps = 4000;
  request.limits.max_paths = 512;
  return request;
}

struct LoadOutcome {
  std::vector<double> admitted_us;  // latency from scheduled arrival
  size_t shed = 0;
  size_t errors = 0;
  double elapsed_seconds = 0;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(
      std::min<double>(values.size() - 1,
                       std::ceil(p * values.size()) - 1));
  return values[idx];
}

// Offers `n` queries at `offered_qps` from an issuer pool large enough
// that lateness only sets in when the *service* falls behind; latency is
// measured from the scheduled arrival, so a backlog shows up as queueing
// delay exactly like a real client's timeout clock.
LoadOutcome RunOpenLoop(QueryService& service, double offered_qps,
                        size_t n) {
  using Clock = std::chrono::steady_clock;
  const auto interval = std::chrono::duration<double>(1.0 / offered_qps);
  const QueryRequest prototype = MakeRequest();

  std::atomic<size_t> next{0};
  std::vector<double> latency_us(n, 0);
  std::vector<uint8_t> kind(n, 0);  // 0 = admitted, 1 = shed, 2 = error
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);

  auto issuer = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      const Clock::time_point arrival =
          start + std::chrono::duration_cast<Clock::duration>(interval * i);
      std::this_thread::sleep_until(arrival);
      QueryRequest request = prototype;
      auto response = service.Execute("load", request);
      const Clock::time_point done = Clock::now();
      if (!response.ok()) {
        kind[i] = 2;
      } else if (response->snapshot_version == 0) {
        kind[i] = 1;  // shed at the front door: truncated-empty degradation
      } else {
        latency_us[i] =
            std::chrono::duration<double, std::micro>(done - arrival)
                .count();
      }
    }
  };

  std::vector<std::thread> issuers;
  issuers.reserve(kIssuers);
  for (size_t t = 0; t < kIssuers; ++t) issuers.emplace_back(issuer);
  for (std::thread& t : issuers) t.join();

  LoadOutcome outcome;
  outcome.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (size_t i = 0; i < n; ++i) {
    if (kind[i] == 0) {
      outcome.admitted_us.push_back(latency_us[i]);
    } else if (kind[i] == 1) {
      ++outcome.shed;
    } else {
      ++outcome.errors;
    }
  }
  return outcome;
}

// Args: {admission on/off, offered load in tenths of capacity}.
void BM_ServiceOpenLoop(benchmark::State& state) {
  const bool admission = state.range(0) != 0;
  const double load = static_cast<double>(state.range(1)) / 10.0;

  const MultiRelationalGraph& graph =
      [] () -> const MultiRelationalGraph& {
        static MultiRelationalGraph g = bench::MakeErGraph(256, 3, 4.0, 19);
        return g;
      }();

  SnapshotRegistry registry;
  if (!registry.HotSwap(LoadSnapshot(graph)).ok()) {
    state.SkipWithError("snapshot publish failed");
    return;
  }
  ThreadPool pool(kPoolThreads);

  QueryService::Options options;
  options.pool = &pool;
  options.obs = bench::TraceRegistry();
  // Sheds must come back instantly as degradations — retry backoff would
  // turn the shed path into a sleep and poison the latency axis.
  options.retry.max_attempts = 1;
  TenantQuota quota;
  if (admission) {
    quota.max_in_flight = kInFlightCap;
    quota.max_queued = 0;  // fail fast: shed rather than queue
  } else {
    quota.max_in_flight = kBatch;
    quota.max_queued = kBatch;
    options.admission.global_max_in_flight = kBatch;
    options.admission.global_max_queued = kBatch;
  }
  QueryService service(registry, options);
  if (!service.RegisterTenant("load", quota).ok()) {
    state.SkipWithError("tenant registration failed");
    return;
  }

  // Uncontended reference: sequential queries, no competing load. The mean
  // sets the capacity scale; the p99 is the acceptance baseline.
  std::vector<double> solo_us;
  for (int i = 0; i < 64; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto response = service.Execute("load", MakeRequest());
    const auto t1 = std::chrono::steady_clock::now();
    if (!response.ok()) {
      state.SkipWithError("uncontended query failed");
      return;
    }
    solo_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  const double solo_mean_us =
      std::accumulate(solo_us.begin(), solo_us.end(), 0.0) / solo_us.size();
  const double capacity_qps = 1e6 / std::max(1.0, solo_mean_us);
  const double offered_qps = load * capacity_qps;

  LoadOutcome outcome;
  for (auto _ : state) {
    outcome = RunOpenLoop(service, offered_qps, kBatch);
  }

  const size_t n = kBatch;
  state.counters["offered_qps"] = offered_qps;
  state.counters["admitted"] =
      static_cast<double>(outcome.admitted_us.size());
  state.counters["shed_pct"] = 100.0 * static_cast<double>(outcome.shed) /
                               static_cast<double>(n);
  state.counters["errors"] = static_cast<double>(outcome.errors);
  state.counters["p50_us"] = Percentile(outcome.admitted_us, 0.50);
  state.counters["p99_us"] = Percentile(outcome.admitted_us, 0.99);
  state.counters["uncontended_p99_us"] = Percentile(solo_us, 0.99);
}

BENCHMARK(BM_ServiceOpenLoop)
    ->ArgNames({"admission", "load_x10"})
    ->Args({1, 5})
    ->Args({1, 10})
    ->Args({1, 20})
    ->Args({0, 5})
    ->Args({0, 10})
    ->Args({0, 20})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// Arg: people. The social graph has people/4 items, three knows edges per
// person and 4·people likes, as in servebench's graphs.
void BM_AnswerMode(benchmark::State& state, AnswerMode mode) {
  SocialNetworkParams params;
  params.num_people = static_cast<uint32_t>(state.range(0));
  params.num_items = params.num_people / 4;
  params.knows_per_person = 3;
  params.num_likes = size_t{4} * params.num_people;
  params.seed = 1;
  SnapshotRegistry registry;
  if (!registry.HotSwap(LoadSnapshot(GenerateSocialNetwork(params).value()))
           .ok()) {
    state.SkipWithError("snapshot publish failed");
    return;
  }
  QueryService::Options options;
  options.obs = bench::TraceRegistry();
  QueryService service(registry, options);
  if (!service.RegisterTenant("bench", TenantQuota{}).ok()) {
    state.SkipWithError("tenant registration failed");
    return;
  }
  QueryRequest request;
  request.mode = mode;
  request.steps = {EdgePattern::Labeled(kSocialKnows),
                   EdgePattern::Labeled(kSocialCreated)};

  uint64_t answer = 0;
  size_t frame_bytes = 0;
  for (auto _ : state) {
    auto response = service.Execute("bench", request);
    if (!response.ok() || response->result.truncated) {
      state.SkipWithError("whole-label query failed");
      return;
    }
    answer = response->result.AnswerCount();
    auto frame = net::EncodeResponseFrame(
        net::MakeWireResponse(std::move(*response), mode));
    if (!frame.ok()) {
      state.SkipWithError("response encode failed");
      return;
    }
    frame_bytes = frame->size();
    benchmark::DoNotOptimize(frame->data());
    benchmark::ClobberMemory();
  }
  state.counters["answer"] = static_cast<double>(answer);
  state.counters["frame_bytes"] = static_cast<double>(frame_bytes);
}

// Registered as BM_AnswerMode/{paths,count,exists}/<people>.
const bool kAnswerModeRegistered = [] {
  for (const auto& [name, mode] :
       {std::pair{"paths", AnswerMode::kPaths},
        std::pair{"count", AnswerMode::kCount},
        std::pair{"exists", AnswerMode::kExists}}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_AnswerMode/") + name).c_str(), BM_AnswerMode, mode)
        ->Arg(12500)
        ->Arg(50000)
        ->Arg(200000)
        ->Unit(benchmark::kMillisecond);
  }
  return true;
}();

}  // namespace
}  // namespace mrpa

MRPA_BENCH_MAIN();
