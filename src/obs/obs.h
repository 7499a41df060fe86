// Traversal observability: counters, histograms, and trace spans.
//
// PRs 1–3 gave the engine governance, a parallel fold, and a prefix-sharing
// arena, but left the stack a black box: ExecStats is a flat struct with no
// per-level, per-shard, or per-operator breakdown, and no machine-readable
// export. ObsRegistry is the one sink all engines report into:
//
//   * Counters — monotone u64 metrics from a fixed, compile-time enum
//     (Metric). Storage is a cache-line-padded slab of relaxed atomics per
//     shard slot, so concurrent shard workers never contend on a line; a
//     counter's value is the sum over slots, and the per-slot values are
//     the per-shard breakdown (the conservation tests assert
//     total == Σ slots and paths_emitted == |result|).
//
//   * Histograms — log2-bucketed u64 distributions (Hist enum), same
//     per-slot slab design, plus count/sum/min/max.
//
//   * Trace spans — a tree per evaluation: RAII TraceSpan records
//     (name, parent, level, shard, start_ns, end_ns, note). Engines open a
//     root span per operator (traverse, traverse.parallel, chain.backward,
//     recognizer.batch, generator.generate) and child spans per level and
//     per shard, so a deadline or byte-budget trip is attributable to the
//     exact level/shard/operator that burned it (ExecContext annotates the
//     innermost open span on every trip). Span storage is bounded
//     (kMaxSpans); overflow drops spans, never blocks, and is counted.
//
// Cost contract: every hook in the engines is gated on the registry
// pointer threaded through ExecContext — a traversal without a registry
// attached executes the hot loops unchanged (the hooks sit at level and
// operator boundaries, never inside the per-edge loops), so disabled-mode
// overhead is below the E15 noise floor (EXPERIMENTS.md E18). Enabled mode
// costs bulk counter adds at operator exit plus one span per
// level/shard/operator.
//
// The registry is zero-dependency (stdlib only). Thread safety: Add/Record
// are lock-free relaxed atomics, safe from any thread; Begin/End/Annotate
// span take a mutex (span rate is per-level, not per-edge); Value/Snapshot/
// ToJson are safe concurrently with writers but see a torn-in-time view —
// quiesce writers for exact readings (every test does).

#ifndef MRPA_OBS_OBS_H_
#define MRPA_OBS_OBS_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mrpa::obs {

// The well-known counters. Fixed at compile time so hot hooks are an array
// index, not a name lookup; names (MetricName) drive the JSON export.
enum class Metric : uint32_t {
  // Mirrors of the ExecContext accounting, added as deltas at operator
  // exit (AddExecStatsDelta in util/exec_context.h). Identical between
  // TraverseGoverned and TraverseParallelGoverned by the replay guarantee.
  kExecStepsExpanded = 0,
  kExecPathsYielded,
  kExecBytesCharged,
  // Where governance trips landed, by kind. Incremented once per context
  // trip (the sticky first trip only), from the cold paths.
  kExecTripsStepBudget,
  kExecTripsPathBudget,
  kExecTripsByteBudget,
  kExecTripsDeadline,
  kExecTripsCancelled,
  kExecTripsFault,
  // The §III fold (sequential and parallel replay — equal by design).
  kTraversalRuns,
  kTraversalSeedEdges,
  kTraversalLevels,
  kTraversalPathsEmitted,
  // Parallel-engine speculation, attributed per shard slot. NOT mirrored by
  // the sequential fold (speculation has no sequential counterpart) and
  // excluded from the sequential≡parallel counter identity.
  kParallelShards,
  kParallelSpeculativeNodes,
  // PathArena churn. nodes_allocated counts the nodes the governed
  // evaluation paid for (bytes_charged / PathArena::kNodeBytes — the
  // conservation law); materializations counts boundary path copies.
  kArenaNodesAllocated,
  kArenaMaterializations,
  kArenaTruncatedNodes,
  // The DFS iterator.
  kIteratorPathsYielded,
  kIteratorFramesFilled,
  // The chain planner's decisions.
  kPlannerPlansForward,
  kPlannerPlansBackward,
  kPlannerFallbacks,
  // Governed batch recognition.
  kRecognizerBatchCandidates,
  kRecognizerBatchAccepted,
  // Regular path generation.
  kGeneratorRounds,
  kGeneratorPathsEmitted,
  // Snapshot storage (src/storage/): loads that completed validation,
  // bytes made addressable (owned buffer or mmap), sections whose checksum
  // passed, checksum mismatches caught (counted even when the load fails),
  // and total validation wall time.
  kStorageSnapshotsLoaded,
  kStorageBytesMapped,
  kStorageSectionsValidated,
  kStorageChecksumFailures,
  kStorageLoadNanos,
  // The serving substrate (src/service/): admission outcomes (admitted =
  // granted a slot; rejected = terminal refusals — unknown tenant or a
  // deadline that cannot fit the estimated cost; shed = overload refusals —
  // token bucket, queue bounds, or priority eviction), retry attempts
  // beyond each call's first try, snapshot hot-swaps published, retired
  // images reclaimed at epoch quiescence, and queries that ran to a result
  // (truncated included).
  kServiceAdmitted,
  kServiceRejected,
  kServiceShed,
  kServiceRetries,
  kServiceHotSwaps,
  kServiceSnapshotsReclaimed,
  kServiceQueriesExecuted,
  // The query compiler (src/compiler/): queries compiled, optimizer pass
  // executions, IR nodes rewritten by any pass, and the per-pass rewrite
  // breakdown — union/join branches proven dead (zero-cardinality atoms or
  // DFA-empty subtrees), σ-filters pushed into adjacent atom scans at join
  // seams, common join prefixes factored out of unions, and join chains
  // re-associated / direction-chosen by the cost model.
  kCompilerQueriesCompiled,
  kCompilerPassRuns,
  kCompilerRewrites,
  kCompilerDeadBranches,
  kCompilerFiltersPushed,
  kCompilerPrefixesFactored,
  kCompilerJoinsReordered,
  // Dense-frontier strategy telemetry (DESIGN.md "Dense-frontier
  // execution"): expansion levels run dense vs. sparse, and uint64 bitmap
  // words the dense machinery built or scanned. Strategy-dependent — a
  // parallel run's per-shard decisions legitimately differ from the
  // sequential run's — so these sit outside the sequential counter-identity
  // set, like parallel.*.
  kFrontierDenseLevels,
  kFrontierSparseLevels,
  kFrontierWordsScanned,
  // The live-graph delta layer (src/delta/): insertion and tombstone
  // verdicts applied to the overlay, active runs sealed into immutable
  // generations, merge views materialized (passthrough views included),
  // edges emitted by view merges, and base+delta compactions that published
  // (or, registry-less, validated) a fresh image.
  kDeltaInserts,
  kDeltaTombstones,
  kDeltaGenerationsSealed,
  kDeltaViewsBuilt,
  kDeltaEdgesMerged,
  kDeltaCompactions,
  // The network front door (src/net/): connections the listener accepted
  // vs refused (draining, or at the connection cap), frames decoded off /
  // written onto sockets, hostile or malformed byte streams that closed a
  // connection fail-closed, requests dispatched through QueryService, and
  // read-side pauses where per-connection backpressure stopped the parser
  // until the client drained its responses.
  kNetConnectionsAccepted,
  kNetConnectionsRefused,
  kNetFramesRead,
  kNetFramesWritten,
  kNetProtocolErrors,
  kNetRequestsDispatched,
  kNetBackpressurePauses,
  kCount
};

enum class Hist : uint32_t {
  // Input frontier width per expansion level of the §III fold.
  kTraversalLevelWidth = 0,
  // Peak node count of each arena flushed (per evaluation / per shard).
  kArenaPeakNodes,
  // Edge length of each candidate judged by governed batch recognition.
  kRecognizerPathLength,
  // Accepted-path count per generator round.
  kGeneratorRoundWidth,
  // Serving substrate: end-to-end latency of each executed query (admission
  // wait + evaluation, nanoseconds) — the admission controller reads this
  // back as its cost estimate; tenant queue depth sampled at each enqueue;
  // retired-but-unreclaimed image count sampled at each hot-swap (epoch
  // lag); nanoseconds a request waited for an in-flight slot.
  kServiceExecNanos,
  kServiceQueueDepth,
  kServiceEpochLag,
  kServiceAdmitWaitNanos,
  // Wall time of each optimizer pass execution (nanoseconds).
  kCompilerPassNanos,
  // Wall time of each dense-level decision probe + allow-set build
  // (nanoseconds): the bitmap/popcount/filter kernel work that sits OFF the
  // guarded expansion loop. Sequential fold only — shard workers keep their
  // observability thin.
  kFrontierKernelNanos,
  // Wall time of each delta merge-view materialization and of each full
  // compaction (seal + merge + serialize + validate + swap), nanoseconds.
  kDeltaViewBuildNanos,
  kDeltaCompactNanos,
  // Network front door: size of every frame moved across a socket (read and
  // written both recorded), and server-side latency of each dispatched
  // request (frame decoded → response frame queued, nanoseconds).
  kNetFrameBytes,
  kNetRequestNanos,
  kCount
};

// Stable metric names for export, in enum order ("exec.steps_expanded", …).
std::string_view MetricName(Metric m);
std::string_view HistName(Hist h);

using SpanId = uint32_t;
inline constexpr SpanId kNoSpan = std::numeric_limits<SpanId>::max();

struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::string name;
  int64_t level = -1;  // -1 = not applicable.
  int64_t shard = -1;  // -1 = not applicable.
  // Nanoseconds since the registry epoch. end_ns is -1 while the span is
  // open; closed spans satisfy start_ns <= end_ns, and children nest
  // inside their parent (the invariant suite asserts both).
  int64_t start_ns = 0;
  int64_t end_ns = -1;
  // Free-form annotation, e.g. the Status of a governance trip that fired
  // inside the span.
  std::string note;
};

struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  // 0 when count == 0.
  uint64_t max = 0;
  // buckets[i] counts recorded values v with BucketIndex(v) == i, i.e.
  // v == 0 for bucket 0 and 2^(i-1) <= v < 2^i for bucket i >= 1. The
  // inclusive upper bound of bucket i is BucketUpperBound(i).
  std::array<uint64_t, 40> buckets{};
};

class ObsRegistry {
 public:
  // Shard attribution slots. Shard indices hash in with `shard % kSlots`,
  // so sums over slots stay exact for any shard count; 16 slots cover the
  // widest pool the suites run (8 threads × contiguous shard ids) without
  // aliasing in practice.
  static constexpr size_t kShardSlots = 16;
  static constexpr size_t kNumBuckets = 40;
  // Hard bound on retained spans: overflow increments spans_dropped() and
  // returns kNoSpan rather than growing without limit (a benchmark loop
  // attaches one registry across thousands of iterations).
  static constexpr size_t kMaxSpans = 1u << 16;

  ObsRegistry();

  // One sink per evaluation scope; the atomics make it immovable.
  ObsRegistry(const ObsRegistry&) = delete;
  ObsRegistry& operator=(const ObsRegistry&) = delete;

  static constexpr size_t BucketIndex(uint64_t v) {
    return v == 0 ? 0
                  : std::min<size_t>(kNumBuckets - 1,
                                     static_cast<size_t>(std::bit_width(v)));
  }
  static constexpr uint64_t BucketUpperBound(size_t i) {
    return i == 0 ? 0
           : i >= kNumBuckets - 1
               ? std::numeric_limits<uint64_t>::max()
               : (uint64_t{1} << i) - 1;
  }

  // Lock-free; safe from any thread. `shard` selects the attribution slot.
  void Add(Metric m, uint64_t n, size_t shard = 0) {
    counters_[shard % kShardSlots]
        .v[static_cast<size_t>(m)]
        .fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value(Metric m) const;
  uint64_t ValueForSlot(Metric m, size_t slot) const;

  void Record(Hist h, uint64_t value, size_t shard = 0);
  HistogramSnapshot SnapshotHistogram(Hist h) const;

  // Span lifecycle. BeginSpan returns kNoSpan when the budget is exhausted;
  // EndSpan/AnnotateSpan ignore kNoSpan, so callers never branch.
  SpanId BeginSpan(std::string_view name, SpanId parent = kNoSpan,
                   int64_t level = -1, int64_t shard = -1);
  void EndSpan(SpanId id);
  void AnnotateSpan(SpanId id, std::string_view note);

  std::vector<SpanRecord> Spans() const;
  uint64_t spans_dropped() const {
    return spans_dropped_.load(std::memory_order_relaxed);
  }

  // The machine-readable export. Schema (locked by tests/obs_json_test.cc):
  //   { "counters":   [ {"name": str, "total": int, "shards": [int × 16]} ],
  //     "histograms": [ {"name": str, "count": int, "sum": int, "min": int,
  //                      "max": int,
  //                      "buckets": [ {"le": int, "count": int} ]} ],
  //     "spans":      [ {"id": int, "parent": int, "name": str,
  //                      "level": int, "shard": int, "start_ns": int,
  //                      "end_ns": int, "note": str} ],
  //     "spans_dropped": int }
  // Every Metric/Hist appears (zeros included) in enum-name-sorted order;
  // histogram buckets list only non-empty buckets; all strings are escaped
  // through obs/json_writer.h.
  std::string ToJson() const;

  // Zeroes every counter and histogram and clears the span log. Callers
  // must quiesce writers first.
  void Reset();

 private:
  static constexpr size_t kNumMetrics = static_cast<size_t>(Metric::kCount);
  static constexpr size_t kNumHists = static_cast<size_t>(Hist::kCount);

  // One slab per shard slot, aligned to its own cache line(s): workers for
  // different shards write disjoint slabs, so the hot fetch_add never
  // false-shares with another thread's slab.
  struct alignas(64) CounterSlab {
    std::array<std::atomic<uint64_t>, kNumMetrics> v{};
  };
  struct HistCell {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{std::numeric_limits<uint64_t>::max()};
    std::atomic<uint64_t> max{0};
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
  };
  struct alignas(64) HistSlab {
    std::array<HistCell, kNumHists> h;
  };

  std::array<CounterSlab, kShardSlots> counters_;
  std::array<HistSlab, kShardSlots> hists_;

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex span_mu_;
  std::vector<SpanRecord> spans_;
  std::atomic<uint64_t> spans_dropped_{0};
};

// RAII span: begins on construction (inert when `registry` is null — the
// universal disabled-mode gate), ends on destruction or explicit End().
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(ObsRegistry* registry, std::string_view name,
            SpanId parent = kNoSpan, int64_t level = -1, int64_t shard = -1)
      : registry_(registry),
        id_(registry != nullptr ? registry->BeginSpan(name, parent, level,
                                                      shard)
                                : kNoSpan) {}
  ~TraceSpan() { End(); }

  TraceSpan(TraceSpan&& other) noexcept
      : registry_(other.registry_), id_(other.id_) {
    other.registry_ = nullptr;
    other.id_ = kNoSpan;
  }
  TraceSpan& operator=(TraceSpan&& other) noexcept {
    if (this != &other) {
      End();
      registry_ = other.registry_;
      id_ = other.id_;
      other.registry_ = nullptr;
      other.id_ = kNoSpan;
    }
    return *this;
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  SpanId id() const { return id_; }
  explicit operator bool() const { return registry_ != nullptr; }

  void End() {
    if (registry_ != nullptr) {
      registry_->EndSpan(id_);
      registry_ = nullptr;
      id_ = kNoSpan;
    }
  }

 private:
  ObsRegistry* registry_ = nullptr;
  SpanId id_ = kNoSpan;
};

}  // namespace mrpa::obs

#endif  // MRPA_OBS_OBS_H_
