// PathSet: an element of P(E*), a finite set of paths.
//
// The three set-level operations of the paper (§II):
//   A ∪ B    Union(A, B)                 — standard set union
//   A ⋈◦ B   ConcatenativeJoin(A, B)     — { a ◦ b | a∈A ∧ b∈B ∧
//                                            (a=ε ∨ b=ε ∨ γ+(a)=γ−(b)) }
//   A ×◦ B   ConcatenativeProduct(A, B)  — { a ◦ b | a∈A ∧ b∈B }
//
// Storage is a canonically sorted, deduplicated vector of paths, so
// iteration order is deterministic across platforms — tests and benchmark
// series depend on this. The join is a hash equi-join on γ+(a) = γ−(b)
// (the paper's footnote 4 identifies ⋈◦ as the θ-join of Codd's relational
// algebra in equijoin form).

#ifndef MRPA_CORE_PATH_SET_H_
#define MRPA_CORE_PATH_SET_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "core/path.h"
#include "util/exec_context.h"
#include "util/status.h"

namespace mrpa {

// Estimated heap footprint of a materialized path / path set — the LEGACY
// unit for ExecContext memory budgets, kept only for the call sites that
// still materialize full paths per extension (the fluent traversal builder,
// the bottom-up expression evaluator, the §IV-B stack machine). The
// arena-native loops (Traverse/FoldJoin, the parallel shards, the backward
// chain evaluator, the product-graph generator) charge the exact
// PathArena::kNodeBytes per extension instead — see core/path_arena.h.
//
// The estimate counts the vector's allocated CAPACITY (growth slack is real
// memory) plus the LabelId vector a PathLabel() materialization would
// allocate — both were previously omitted, undercounting the footprint the
// budget exists to bound.
inline size_t ApproxBytes(const Path& p) {
  return sizeof(Path) + p.capacity() * sizeof(Edge) +
         p.length() * sizeof(LabelId);
}


// Resource bounds for set-producing operations. Join/product output is
// quadratic in the worst case; operations that would exceed `max_paths`
// return ResourceExhausted instead of exhausting memory. A nullopt bound
// means unlimited.
struct PathSetLimits {
  std::optional<size_t> max_paths;

  static PathSetLimits Unlimited() { return PathSetLimits{}; }
  static PathSetLimits AtMost(size_t n) { return PathSetLimits{n}; }
};

class PathSet {
 public:
  using const_iterator = std::vector<Path>::const_iterator;

  // ∅, the empty path set.
  PathSet() = default;

  // Builds a set from arbitrary (possibly duplicated, unsorted) paths.
  explicit PathSet(std::vector<Path> paths);
  PathSet(std::initializer_list<Path> paths);

  PathSet(const PathSet&) = default;
  PathSet& operator=(const PathSet&) = default;
  PathSet(PathSet&&) noexcept = default;
  PathSet& operator=(PathSet&&) noexcept = default;

  // {ε}: the singleton of the empty path — the identity of ⋈◦ and ×◦ and
  // the initial stack element of the §IV-B generator automaton.
  static PathSet EpsilonSet() { return PathSet({Path()}); }

  // Lifts a set of edges into P(E*) as length-1 paths (E ⊂ E*).
  static PathSet FromEdges(const std::vector<Edge>& edges);

  // Adopts a vector the caller guarantees is already sorted ascending with
  // no duplicates — O(1), no copy. The parallel traversal merge uses this:
  // its shard concatenation is canonical by construction, and re-sorting
  // would serialize the win. The invariant is assert-checked in debug
  // builds and trusted in release.
  static PathSet FromSortedUnique(std::vector<Path> paths);

  size_t size() const { return paths_.size(); }
  bool empty() const { return paths_.empty(); }
  bool Contains(const Path& p) const;
  bool ContainsEpsilon() const {
    return !paths_.empty() && paths_.front().empty();
  }

  // Inserts a path, preserving canonical order. O(n) worst case; prefer the
  // bulk constructor or Builder for many insertions.
  void Insert(const Path& p);

  const std::vector<Path>& paths() const { return paths_; }
  const_iterator begin() const { return paths_.begin(); }
  const_iterator end() const { return paths_.end(); }
  const Path& operator[](size_t i) const { return paths_[i]; }

  // True iff every path in the set is joint (Definition 3).
  bool AllJoint() const;

  // True iff this ⊆ other. Linear merge over the canonical orders.
  bool IsSubsetOf(const PathSet& other) const;

  // Filters by arbitrary predicates; each returns a new set.
  PathSet FilterByTail(VertexId tail) const;
  PathSet FilterByHead(VertexId head) const;
  PathSet FilterByLength(size_t length) const;

  // Multiset-free equality (canonical representation makes this O(n)).
  friend bool operator==(const PathSet&, const PathSet&) = default;

  // "{ε, (0,1,2)}"-style rendering for diagnostics.
  std::string ToString() const;

 private:
  friend class PathSetBuilder;

  // Invariant: sorted ascending, no duplicates.
  std::vector<Path> paths_;
};

// Estimated heap footprint of a whole set, summed over its paths.
size_t ApproxBytes(const PathSet& set);

// How a governed fold delivers its answer (DESIGN.md "Answer modes"). The
// fold consults it only where it emits full-length paths: kPaths stages and
// materializes them; kCount counts them without allocating, sorting or
// materializing; kExists stops at the first one.
enum class AnswerMode : uint8_t {
  kPaths = 0,
  kCount = 1,
  kExists = 2,
};

// A PathSet plus the truncation contract of DESIGN.md's "Execution
// governance" section: when an ExecContext limit trips mid-evaluation, the
// evaluator returns what it computed with `truncated = true`, the tripping
// Status in `limit`, and the governance counters in `stats` — callers can
// use the partial answer, retry with a larger budget, or surface `limit`.
struct GovernedPathSet {
  // The answer in kPaths mode; empty in the summary modes.
  PathSet paths;
  // True iff a limit stopped evaluation early; `paths` is then a subset of
  // the full answer.
  bool truncated = false;
  // OK when complete; kResourceExhausted / kDeadlineExceeded / kCancelled
  // (or an injected fault) when truncated.
  Status limit;
  ExecStats stats;
  // The mode the fold ran in and, in the summary modes, the answer: kCount
  // the number of full-length paths, kExists 1 iff one was reached.
  AnswerMode mode = AnswerMode::kPaths;
  uint64_t count = 0;

  // The answer's size in any mode.
  uint64_t AnswerCount() const {
    return mode == AnswerMode::kPaths ? paths.size() : count;
  }
};

// ∪: set union of two path sets (linear merge).
PathSet Union(const PathSet& a, const PathSet& b);

// ∩ and \: P(E*) is a boolean set algebra besides its concatenative
// structure; intersection and difference round out the toolkit (e.g.
// "paths matching R but not Q" via Difference of two evaluations).
PathSet Intersection(const PathSet& a, const PathSet& b);
PathSet Difference(const PathSet& a, const PathSet& b);

// ⋈◦: the concatenative join. Only adjacent pairs concatenate, except that
// ε joins with everything (the paper's explicit a=ε ∨ b=ε disjunct).
// Associative, not commutative. Fails with ResourceExhausted if the output
// would exceed limits.max_paths.
Result<PathSet> ConcatenativeJoin(const PathSet& a, const PathSet& b,
                                  const PathSetLimits& limits = {});

// ×◦: the concatenative (Cartesian) product; concatenates all pairs,
// adjacent or not. The join is always a subset of the product
// (footnote 7: R ⋈◦ Q ⊆ R ×◦ Q).
Result<PathSet> ConcatenativeProduct(const PathSet& a, const PathSet& b,
                                     const PathSetLimits& limits = {});

// A ⋈◦ A ⋈◦ ... (n factors). JoinPower(A, 0) = {ε}; JoinPower(A, 1) = A.
Result<PathSet> JoinPower(const PathSet& a, size_t n,
                          const PathSetLimits& limits = {});

// Incremental, unordered accumulator; call Build() once to get the
// canonical PathSet. Used by join/product/generator inner loops.
class PathSetBuilder {
 public:
  PathSetBuilder() = default;

  void Add(Path p) { staged_.push_back(std::move(p)); }
  void AddAll(const PathSet& set);
  size_t staged_size() const { return staged_.size(); }

  // Pre-sizes the staging vector for a known output bound (join/product
  // output is ≤ |A|·|B|), avoiding the doubling reallocations — and the
  // path copies they move — on the way up.
  void Reserve(size_t n) { staged_.reserve(n); }

  // Sorts (moving paths, never copying them — Path's move ctor is noexcept,
  // so std::sort swaps vectors by pointer), dedups, and returns the set;
  // the builder is left empty.
  PathSet Build();

 private:
  std::vector<Path> staged_;
};

std::ostream& operator<<(std::ostream& os, const PathSet& set);

}  // namespace mrpa

#endif  // MRPA_CORE_PATH_SET_H_
