// PathArena: a prefix-sharing, append-only store for the paths a traversal
// builds level by level.
//
// The §III fold and the §IV recognizer/generator loops extend every frontier
// path by one edge per level. Materialized as std::vector<Edge> strings
// (core/path.h), each extension copies the whole prefix, so a k-step
// traversal yielding P paths performs O(P·k²) edge copies and P·k
// allocations. The arena replaces the copy with a single node push: a path
// is a chain of (parent, edge) nodes, extensions share their prefix
// physically, and the full string is materialized only at the API boundary
// (or streamed through PathView without materializing at all).
//
// Node ids are assigned in append order, which the traversal engines align
// with canonical path order (see the invariant below), so a frontier of
// PathNodeIds IS a sorted PathSet prefix and the boundary materialization
// can adopt its output via PathSet::FromSortedUnique with no sort.
//
// Canonical-id invariant (maintained by the engines, exploited by the
// merge): within one arena, if two nodes chain paths of equal length, the
// node appended later holds the lexicographically later path. The engines
// get this for free — frontiers are iterated in canonical order and
// ForEachMatchingOutEdge visits out-runs in (label, head) order — and the
// debug-only CheckCanonicalLevel hook asserts it.
//
// Two chaining conventions share the same node layout; the *materializer*
// picks the interpretation:
//   * prefix chains — node.edge is the LAST edge of its path; extending at
//     the head (the forward fold) appends a node whose parent is the
//     prefix. MaterializePrefixInto walks leaf→root filling backward.
//   * suffix chains — node.edge is the FIRST edge; extending at the tail
//     (the backward chain evaluator) appends a node whose parent is the
//     suffix. MaterializeSuffixInto walks leaf→root filling forward.
//
// Byte accounting: governed loops charge ExecContext exactly
// PathArena::kNodeBytes per node pushed — an exact figure, unlike the
// legacy ApproxBytes estimate (see path_set.h), because nodes are the only
// per-path storage the arena-native loops allocate.
//
// Threading contract: an arena is single-writer, shard-local state — the
// parallel fold gives every shard its own arena and merges by materializing
// shard outputs in canonical slice order. Concurrent reads of a quiescent
// arena are safe; concurrent writes are not.

#ifndef MRPA_CORE_PATH_ARENA_H_
#define MRPA_CORE_PATH_ARENA_H_

#include <cassert>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/edge.h"
#include "core/ids.h"
#include "core/path.h"
#include "core/path_set.h"

namespace mrpa::obs {
class ObsRegistry;
}  // namespace mrpa::obs

namespace mrpa {

// Index of a node within one PathArena. 32 bits bounds one arena at ~4.29G
// nodes (~64 GiB); arenas are per-evaluation (and per-shard), so a frontier
// that large has long since tripped any sane byte budget.
using PathNodeId = uint32_t;

// Sentinel parent for a chain root (a path of length 1).
inline constexpr PathNodeId kNullPathNode =
    std::numeric_limits<PathNodeId>::max();

struct PathArenaNode {
  PathNodeId parent = kNullPathNode;
  Edge edge;
};
static_assert(sizeof(PathArenaNode) == 16,
              "governed byte accounting assumes the packed 16-byte node");

class PathArena {
 public:
  // The exact governed cost of one path extension; what arena-native loops
  // ChargeBytes with.
  static constexpr size_t kNodeBytes = sizeof(PathArenaNode);

  // Lifetime churn counters, maintained unconditionally (four integer
  // bumps on paths that already push into a vector — not measurable, see
  // EXPERIMENTS.md E18) and exported to an ObsRegistry by FlushArenaStats.
  // nodes_allocated only grows, so for a governed arena-native loop
  //     bytes_charged == nodes_allocated * kNodeBytes
  // is the conservation law tests/obs_invariants_test.cc asserts.
  struct Telemetry {
    // Total nodes ever pushed (survives TruncateTo/Clear).
    uint64_t nodes_allocated = 0;
    // High-water mark of size().
    uint64_t peak_nodes = 0;
    // Nodes discarded by TruncateTo/Clear — DFS backtracking churn.
    uint64_t truncated_nodes = 0;
    // Boundary path copies (Materialize*Into). Mutable state: counting a
    // const read-out is telemetry, not mutation of the store.
    mutable uint64_t materializations = 0;
  };
  const Telemetry& telemetry() const { return telemetry_; }

  PathArena() = default;

  // Arenas are bulky evaluation-local state; move, don't copy.
  PathArena(const PathArena&) = delete;
  PathArena& operator=(const PathArena&) = delete;
  PathArena(PathArena&&) noexcept = default;
  PathArena& operator=(PathArena&&) noexcept = default;

  // Starts a new chain with a single edge. O(1) amortized.
  PathNodeId AddRoot(const Edge& e) { return Push(kNullPathNode, e); }

  // Extends the chain ending at `parent` by one edge — the O(1) replacement
  // for the materialized fold's prefix copy.
  PathNodeId Extend(PathNodeId parent, const Edge& e) {
    assert(parent < nodes_.size());
    return Push(parent, e);
  }

  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  void Reserve(size_t n) { nodes_.reserve(n); }
  void Clear() {
    telemetry_.truncated_nodes += nodes_.size();
    nodes_.clear();
  }

  // Drops every node with id >= n. DFS engines (StepPathIterator) use this
  // to keep the arena exactly as deep as the live spine: ids are appended
  // in descent order, so backtracking is a truncation.
  void TruncateTo(size_t n) {
    assert(n <= nodes_.size());
    telemetry_.truncated_nodes += nodes_.size() - n;
    nodes_.resize(n);
  }

  const PathArenaNode& node(PathNodeId id) const {
    assert(id < nodes_.size());
    return nodes_[id];
  }

  // O(1) endpoint projections. For a prefix chain, node.edge is the last
  // edge, so γ+ is one load; for a suffix chain, node.edge is the first
  // edge, so γ− is one load. The opposite endpoint requires the O(k) walk.
  VertexId HeadOf(PathNodeId id) const { return node(id).edge.head; }
  VertexId TailOf(PathNodeId id) const { return node(id).edge.tail; }

  // Chain length, by walking to the root. O(k); hot loops should carry the
  // level depth instead of calling this.
  size_t DepthOf(PathNodeId id) const;

  // Materializes a prefix chain (node.edge = last edge) into `out`,
  // root-first. `length` must equal DepthOf(id); passing it avoids the
  // counting walk. Reuses out's capacity — the boundary loop that drains a
  // frontier into a PathSet allocates once per path at most, and a reused
  // scratch Path not at all.
  void MaterializePrefixInto(PathNodeId id, size_t length, Path& out) const;
  Path MaterializePrefix(PathNodeId id) const;

  // Materializes a suffix chain (node.edge = first edge) into `out` in
  // forward order.
  void MaterializeSuffixInto(PathNodeId id, size_t length, Path& out) const;
  Path MaterializeSuffix(PathNodeId id) const;

  // Lexicographic comparison of two equal-length chains, without
  // materializing either.
  //   * ComparePrefix: prefix chains; recurses to the roots so edges are
  //     compared front-first. O(k) stack and time.
  //   * CompareSuffix: suffix chains; the leaf-to-root walk IS front-first,
  //     so this one early-exits at the first differing edge.
  // Requires DepthOf(a) == DepthOf(b) — the engines only ever sort
  // same-level frontiers, where the invariant holds by construction.
  std::strong_ordering ComparePrefix(PathNodeId a, PathNodeId b) const;
  std::strong_ordering CompareSuffix(PathNodeId a, PathNodeId b) const;

#ifndef NDEBUG
  // Debug hook: asserts that `ids` chain strictly increasing prefix paths
  // of length `length` — the canonical-id invariant the zero-sort
  // materialization relies on.
  void CheckCanonicalLevel(const std::vector<PathNodeId>& ids,
                           size_t length) const;
#endif

 private:
  PathNodeId Push(PathNodeId parent, const Edge& e) {
    const PathNodeId id = static_cast<PathNodeId>(nodes_.size());
    nodes_.push_back(PathArenaNode{parent, e});
    ++telemetry_.nodes_allocated;
    if (nodes_.size() > telemetry_.peak_nodes) {
      telemetry_.peak_nodes = nodes_.size();
    }
    return id;
  }

  std::vector<PathArenaNode> nodes_;
  Telemetry telemetry_;
};

// Adds the arena's telemetry into `registry` (arena.* counters plus the
// arena.peak_nodes histogram), attributed to `shard`'s slot. Engines call
// this once per evaluation (the parallel fold: once per shard arena) at
// operator exit; null registry no-ops. NOTE: arena.nodes_allocated from the
// sequential engines comes through here, but the parallel fold counts its
// replayed node total instead — shard arenas over-allocate speculatively,
// and the replay total is what matches the sequential engine and the byte
// accounting.
void FlushArenaStats(const PathArena& arena, obs::ObsRegistry* registry,
                     size_t shard = 0);

// What one level of an arena fold does with the paths it emits, given the
// answer mode (DESIGN.md "Answer modes"). Every level but the last stages
// arena nodes for the next. The last stages them only in kPaths: kCount's
// last level just counts, and kExists's ends at its first path. A level
// that ends at its first path also runs sparse, whatever the density
// policy: a dense cache is built for the whole level, and such a level
// would never pay it back. Density is pure strategy, so this changes no
// governed output.
struct LevelSink {
  LevelSink(AnswerMode mode, bool final_level)
      : stage(!final_level || mode == AnswerMode::kPaths),
        stop_at_first(final_level && mode == AnswerMode::kExists) {}
  bool stage;
  bool stop_at_first;
};

// A zero-copy view of one arena path: the streaming alternative to
// materialization at the API boundary. The arena must outlive the view and
// must not be truncated below the viewed chain while the view is live.
class PathView {
 public:
  PathView(const PathArena& arena, PathNodeId id, size_t length)
      : arena_(&arena), id_(id), length_(length) {}

  size_t length() const { return length_; }
  PathNodeId id() const { return id_; }

  // γ+ for a prefix chain (one load). γ− requires the walk; use
  // MaterializeInto when both endpoints and forward iteration are needed.
  VertexId Head() const { return arena_->HeadOf(id_); }

  // Visits the edges leaf→root — REVERSE path order for a prefix chain.
  // Recognizers that can consume a path back-to-front stream here with no
  // buffer at all.
  template <typename Fn>
  void ForEachEdgeReverse(Fn&& fn) const {
    PathNodeId cursor = id_;
    for (size_t i = 0; i < length_; ++i) {
      const PathArenaNode& n = arena_->node(cursor);
      fn(n.edge);
      cursor = n.parent;
    }
  }

  // Forward-order materialization into a reusable buffer (prefix chains).
  void MaterializeInto(Path& out) const {
    arena_->MaterializePrefixInto(id_, length_, out);
  }
  Path Materialize() const { return arena_->MaterializePrefix(id_); }

 private:
  const PathArena* arena_;
  PathNodeId id_;
  size_t length_;
};

}  // namespace mrpa

#endif  // MRPA_CORE_PATH_ARENA_H_
