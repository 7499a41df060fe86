#include "core/traversal.h"

#include <chrono>
#include <limits>
#include <optional>
#include <utility>

#include "core/dense_level.h"
#include "core/path_arena.h"
#include "frontier/bitmap.h"
#include "obs/obs.h"

namespace mrpa {

namespace {

// Left-to-right fold of ⋈◦ over per-step edge sets, threaded through the
// execution guard and run ARENA-NATIVE: the frontier is a vector of
// PathNodeIds into a prefix-sharing PathArena (core/path_arena.h), so each
// extension is one 16-byte node push instead of a full prefix copy, and the
// result set is materialized once at the end. Iterating with an
// adjacency-aware extension (rather than repeatedly calling the generic
// join) keeps this O(paths · out-degree) — and the arena makes the work per
// extension O(1) instead of O(level).
//
// Frontier node ids are appended in canonical order: the previous level is
// iterated in canonical order and ForEachMatchingOutEdge visits out-runs in
// (label, head) order, so same-length extensions preserve prefix order.
// Distinct parents and distinct edges also make every staged path unique.
// The final materialization is therefore adopted via
// PathSet::FromSortedUnique — no sort, no dedup.
//
// Two failure regimes coexist:
//   * limits.max_paths (the pre-governance API) stays a hard error — the
//     whole evaluation returns ResourceExhausted with no partial result.
//   * ctx budgets trip gracefully — the fold stops and reports whatever
//     full-length paths it already yielded, flagged `truncated`.
// The path budget is charged only for full-length (final level) paths, so a
// budget of k yields the k first full-length paths in canonical order —
// the same prefix StepPathIterator yields under the same budget. The byte
// budget is charged the exact arena cost: PathArena::kNodeBytes per staged
// extension (batched per source path, like the step charge).
// Each level additionally picks an execution strategy — the PR 3 sparse
// walk or the dense bitmap-memoized replay (core/dense_level.h) — via the
// DensityPolicy. The choice cannot affect governed output: the dense path
// feeds the exact edge sequence ForEachMatchingOutEdge would yield through
// the same guard lambda, so every guard call (count, order, arguments) is
// preserved, and the differential suite proves byte-identity across
// forced-sparse / forced-dense / auto on every dispatch tier.
// The answer mode only changes the final level's sink (DESIGN.md "Answer
// modes"): kPaths stages arena nodes and materializes them, kCount only
// counts, kExists stops at the first full-length path. The guard calls up
// to that point are the same in every mode.
Result<GovernedPathSet> FoldJoin(const EdgeUniverse& universe,
                                 const std::vector<EdgePattern>& steps,
                                 const PathSetLimits& limits,
                                 const frontier::DensityPolicy& base_policy,
                                 ExecContext& ctx, AnswerMode mode) {
  GovernedPathSet out;
  out.mode = mode;
  // Observability is boundary-only: snapshot the guard on entry, flush the
  // deltas (and the run's breakdown) once on every graceful exit. With no
  // registry attached, the fold below runs its PR 3 hot loops unchanged.
  obs::ObsRegistry* const reg = ctx.observer();
  ExecStats obs_before;
  if (reg != nullptr) obs_before = ctx.Snapshot();

  if (steps.empty()) {
    // The 0-step traversal denotes {ε}; ε still counts against the budget.
    if (Status trip = ctx.ChargePaths(); !trip.ok()) {
      out.truncated = true;
      out.limit = std::move(trip);
    } else if (mode == AnswerMode::kPaths) {
      out.paths = PathSet::EpsilonSet();
    } else {
      out.count = 1;
    }
    if (reg != nullptr) {
      reg->Add(obs::Metric::kTraversalRuns, 1);
      reg->Add(obs::Metric::kTraversalPathsEmitted, out.AnswerCount());
      AddExecStatsDelta(*reg, obs_before, ctx.Snapshot());
    }
    out.stats = ctx.Snapshot();
    return out;
  }

  const size_t hard_limit =
      limits.max_paths.value_or(std::numeric_limits<size_t>::max());
  const size_t last_level = steps.size() - 1;
  Status trip;

  PathArena arena;
  std::vector<PathNodeId> frontier;
  std::vector<PathNodeId> next;

  // Adaptive strategy state. With traversal history in the registry, the
  // auto thresholds are re-anchored on the observed level widths (the PR 7
  // calibration loop); the head-frontier bitmap is reused level-to-level so
  // the decision probe allocates once per run.
  frontier::DensityPolicy policy = base_policy;
  if (reg != nullptr && policy.mode == frontier::DensityMode::kAuto) {
    policy = frontier::CalibrateDensityPolicy(
        policy, reg, universe.num_vertices(), universe.num_edges());
  }
  frontier::BitmapFrontier head_seen;
  size_t dense_levels = 0;
  size_t sparse_levels = 0;
  uint64_t frontier_words = 0;

  ExecSpan run_span(ctx, "traverse");
  size_t seed_edges = 0;
  size_t levels_run = 0;
  // Full-length paths the final level emitted: the summary modes' answer.
  size_t final_paths = 0;
  // The one-per-run flush. Every graceful return passes through here; the
  // hard max_paths overflow (a legacy error, not a governed result) does
  // not — it reports nothing, matching its no-partial-result contract.
  auto flush_obs = [&]() {
    if (reg == nullptr) return;
    reg->Add(obs::Metric::kTraversalRuns, 1);
    reg->Add(obs::Metric::kTraversalSeedEdges, seed_edges);
    reg->Add(obs::Metric::kTraversalLevels, levels_run);
    reg->Add(obs::Metric::kTraversalPathsEmitted, out.AnswerCount());
    reg->Add(obs::Metric::kFrontierDenseLevels, dense_levels);
    reg->Add(obs::Metric::kFrontierSparseLevels, sparse_levels);
    reg->Add(obs::Metric::kFrontierWordsScanned, frontier_words);
    AddExecStatsDelta(*reg, obs_before, ctx.Snapshot());
    FlushArenaStats(arena, reg);
  };

  // Materializes a frontier of `length`-edge chains into the canonical
  // PathSet — the single API-boundary copy the arena representation defers
  // everything to.
  auto materialize = [&](const std::vector<PathNodeId>& ids, size_t length) {
#ifndef NDEBUG
    arena.CheckCanonicalLevel(ids, length);
#endif
    std::vector<Path> paths;
    paths.reserve(ids.size());
    for (PathNodeId id : ids) {
      Path p;
      arena.MaterializePrefixInto(id, length, p);
      paths.push_back(std::move(p));
    }
    return PathSet::FromSortedUnique(std::move(paths));
  };
  // The final level's answer: the staged nodes, or the summary count.
  auto answer = [&](const std::vector<PathNodeId>& ids, size_t length) {
    if (mode == AnswerMode::kPaths) {
      out.paths = materialize(ids, length);
    } else {
      out.count = final_paths;
    }
  };

  // Seed level: lift the matching edges into length-1 chains.
  {
    ExecSpan seed_span(ctx, "traverse.level", /*level=*/0);
    const LevelSink sink(mode, last_level == 0);
    for (const Edge& e : CollectMatchingEdges(universe, steps.front())) {
      if (!ctx.CheckStep().ok() ||
          (last_level == 0 && !ctx.ChargePaths().ok()) ||
          !ctx.ChargeBytes(PathArena::kNodeBytes).ok()) {
        trip = ctx.limit_status();
        break;
      }
      ++seed_edges;
      if (sink.stage) frontier.push_back(arena.AddRoot(e));
      if (sink.stop_at_first) break;
    }
    if (last_level == 0) final_paths = seed_edges;
  }
  if (!trip.ok()) {
    out.truncated = true;
    out.limit = std::move(trip);
    if (last_level == 0) answer(frontier, 1);
    flush_obs();
    out.stats = ctx.Snapshot();
    return out;
  }

  for (size_t k = 1; k < steps.size() && !frontier.empty(); ++k) {
    ++levels_run;
    if (reg != nullptr) {
      reg->Record(obs::Hist::kTraversalLevelWidth, frontier.size());
    }
    ExecSpan level_span(ctx, "traverse.level", static_cast<int64_t>(k));
    const EdgePattern& step = steps[k];
    const bool final_level = k == last_level;
    const LevelSink sink(mode, final_level);

    // Pick this level's execution strategy. The decision probe (head
    // bitmap + popcount) only runs once the frontier is wide enough for
    // dense to be in play, so narrow levels pay nothing beyond the two
    // branch tests. A level that stops at its first path stays sparse
    // (LevelSink).
    std::optional<ForwardLevelCache> cache;
    if (!sink.stop_at_first &&
        policy.mode != frontier::DensityMode::kForceSparse) {
      const bool benefits = StepBenefitsFromDense(step);
      if (policy.mode == frontier::DensityMode::kForceDense ||
          (benefits && frontier.size() >= policy.min_frontier_paths)) {
        std::chrono::steady_clock::time_point t0;
        if (reg != nullptr) t0 = std::chrono::steady_clock::now();
        head_seen.Reset(universe.num_vertices());
        for (PathNodeId source : frontier) head_seen.Set(arena.HeadOf(source));
        const uint64_t distinct = head_seen.Count();
        frontier_words += head_seen.num_words();
        if (frontier::ShouldGoDense(policy, frontier.size(), distinct,
                                    universe.num_vertices(), benefits)) {
          cache.emplace(universe, step);
          frontier_words += cache->build_words();
        }
        if (reg != nullptr) {
          reg->Record(obs::Hist::kFrontierKernelNanos,
                      static_cast<uint64_t>(
                          std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count()));
        }
      }
    }
    if (cache.has_value()) {
      ++dense_levels;
    } else {
      ++sparse_levels;
    }

    Status overflow;
    next.clear();
    size_t emitted = 0;  // This level's paths, staged or only counted.
    for (PathNodeId source : frontier) {
      // Extend the chain with matching out-edges of its head — an
      // index-backed equijoin on γ+(p) = γ−(e), narrowed to the label
      // sub-run when the step pins one label. The path budget is charged
      // per emitted path (so a budget of k keeps exactly the first k), but
      // steps and bytes are batched per source path to keep the guard off
      // the innermost loop — those budgets have one-out-run granularity.
      size_t expanded = 0;
      auto extend = [&](const Edge& e) {
        if (!overflow.ok() || !trip.ok()) return;
        if (sink.stop_at_first && emitted > 0) return;
        if (emitted >= hard_limit) {
          overflow = Status::ResourceExhausted(
              "traversal exceeded max_paths = " + std::to_string(hard_limit));
          return;
        }
        if (final_level && !ctx.ChargePaths().ok()) {
          trip = ctx.limit_status();
          return;
        }
        ++expanded;
        ++emitted;
        if (sink.stage) next.push_back(arena.Extend(source, e));
      };
      if (cache.has_value()) {
        // Dense: the memoized run IS the sequence ForEachMatchingOutEdge
        // yields (same order, same elements), fed through the same guard
        // lambda — strategy cannot perturb governed accounting.
        for (const Edge& e : cache->MatchedRun(arena.HeadOf(source))) {
          extend(e);
        }
      } else {
        ForEachMatchingOutEdge(universe, arena.HeadOf(source), step, extend);
      }
      if (!overflow.ok()) return overflow;
      if (sink.stop_at_first && emitted > 0) break;
      if (trip.ok() && (!ctx.CheckStep(expanded + 1).ok() ||
                        !ctx.ChargeBytes(expanded * PathArena::kNodeBytes)
                             .ok())) {
        trip = ctx.limit_status();
      }
      if (!trip.ok()) break;
    }
    if (final_level) final_paths = emitted;
    if (!trip.ok()) {
      out.truncated = true;
      out.limit = std::move(trip);
      if (final_level) answer(next, k + 1);
      flush_obs();
      out.stats = ctx.Snapshot();
      return out;
    }
    frontier.swap(next);
  }
  answer(frontier, steps.size());
  flush_obs();
  out.stats = ctx.Snapshot();
  return out;
}

// The pre-arena fold, retained verbatim as the differential oracle (the
// arena ⇄ materialized identity suites) and the E17 baseline: every
// extension copies its full prefix into a fresh Path and every level is
// canonicalized through PathSetBuilder. Byte charges use the SAME
// PathArena::kNodeBytes unit as the arena fold, so the two engines are
// byte-identical under every governed regime — they differ only in how the
// paths are stored while the fold runs.
Result<GovernedPathSet> FoldJoinMaterialized(
    const EdgeUniverse& universe, const std::vector<EdgePattern>& steps,
    const PathSetLimits& limits, ExecContext& ctx) {
  GovernedPathSet out;
  if (steps.empty()) {
    if (Status trip = ctx.ChargePaths(); !trip.ok()) {
      out.truncated = true;
      out.limit = std::move(trip);
    } else {
      out.paths = PathSet::EpsilonSet();
    }
    out.stats = ctx.Snapshot();
    return out;
  }

  const size_t hard_limit =
      limits.max_paths.value_or(std::numeric_limits<size_t>::max());
  const size_t last_level = steps.size() - 1;
  Status trip;

  PathSetBuilder builder;
  for (const Edge& e : CollectMatchingEdges(universe, steps.front())) {
    if (!ctx.CheckStep().ok() ||
        (last_level == 0 && !ctx.ChargePaths().ok()) ||
        !ctx.ChargeBytes(PathArena::kNodeBytes).ok()) {
      trip = ctx.limit_status();
      break;
    }
    builder.Add(Path(e));
  }
  if (!trip.ok()) {
    out.truncated = true;
    out.limit = std::move(trip);
    if (last_level == 0) out.paths = builder.Build();
    out.stats = ctx.Snapshot();
    return out;
  }
  PathSet acc = builder.Build();

  for (size_t k = 1; k < steps.size() && !acc.empty(); ++k) {
    const EdgePattern& step = steps[k];
    const bool final_level = k == last_level;
    Status overflow;
    for (const Path& p : acc) {
      size_t expanded = 0;
      ForEachMatchingOutEdge(universe, p.Head(), step, [&](const Edge& e) {
        if (!overflow.ok() || !trip.ok()) return;
        if (builder.staged_size() >= hard_limit) {
          overflow = Status::ResourceExhausted(
              "traversal exceeded max_paths = " + std::to_string(hard_limit));
          return;
        }
        if (final_level && !ctx.ChargePaths().ok()) {
          trip = ctx.limit_status();
          return;
        }
        ++expanded;
        Path extended = p;  // The O(level) prefix copy the arena eliminates.
        extended.Append(e);
        builder.Add(std::move(extended));
      });
      if (!overflow.ok()) return overflow;
      if (trip.ok() && (!ctx.CheckStep(expanded + 1).ok() ||
                        !ctx.ChargeBytes(expanded * PathArena::kNodeBytes)
                             .ok())) {
        trip = ctx.limit_status();
      }
      if (!trip.ok()) break;
    }
    if (!trip.ok()) {
      out.truncated = true;
      out.limit = std::move(trip);
      if (final_level) out.paths = builder.Build();
      out.stats = ctx.Snapshot();
      return out;
    }
    acc = builder.Build();
  }
  out.paths = std::move(acc);
  out.stats = ctx.Snapshot();
  return out;
}

// The ungoverned entry points run under a fresh unlimited context; the only
// way it can trip is an armed fault injector, which is surfaced as the
// error the injector prescribed.
Result<PathSet> FoldJoinStrict(const EdgeUniverse& universe,
                               const std::vector<EdgePattern>& steps,
                               const PathSetLimits& limits,
                               const frontier::DensityPolicy& policy = {}) {
  ExecContext unlimited;
  Result<GovernedPathSet> result =
      FoldJoin(universe, steps, limits, policy, unlimited, AnswerMode::kPaths);
  if (!result.ok()) return result.status();
  if (result->truncated) return result->limit;
  return std::move(result->paths);
}

std::vector<EdgePattern> UniformSteps(size_t n, const EdgePattern& pattern) {
  return std::vector<EdgePattern>(n, pattern);
}

}  // namespace

Result<PathSet> CompleteTraversal(const EdgeUniverse& universe, size_t n,
                                  const PathSetLimits& limits) {
  return FoldJoinStrict(universe, UniformSteps(n, EdgePattern::Any()), limits);
}

Result<PathSet> SourceTraversal(const EdgeUniverse& universe,
                                const std::vector<VertexId>& sources, size_t n,
                                bool complement, const PathSetLimits& limits) {
  if (n == 0) return PathSet::EpsilonSet();
  std::vector<EdgePattern> steps = UniformSteps(n, EdgePattern::Any());
  steps.front() = EdgePattern::FromAnyOf(sources, complement);
  return FoldJoinStrict(universe, steps, limits);
}

Result<PathSet> DestinationTraversal(const EdgeUniverse& universe,
                                     const std::vector<VertexId>& destinations,
                                     size_t n, bool complement,
                                     const PathSetLimits& limits) {
  if (n == 0) return PathSet::EpsilonSet();
  std::vector<EdgePattern> steps = UniformSteps(n, EdgePattern::Any());
  steps.back() = EdgePattern::IntoAnyOf(destinations, complement);
  return FoldJoinStrict(universe, steps, limits);
}

Result<PathSet> SourceDestinationTraversal(
    const EdgeUniverse& universe, const std::vector<VertexId>& sources,
    const std::vector<VertexId>& destinations, size_t n,
    const PathSetLimits& limits) {
  if (n == 0) return PathSet::EpsilonSet();
  std::vector<EdgePattern> steps = UniformSteps(n, EdgePattern::Any());
  steps.front() = EdgePattern::FromAnyOf(sources);
  if (n == 1) {
    // A single step must satisfy both restrictions at once.
    steps.front() = EdgePattern(IdConstraint(sources), IdConstraint(),
                                IdConstraint(destinations));
  } else {
    steps.back() = EdgePattern::IntoAnyOf(destinations);
  }
  return FoldJoinStrict(universe, steps, limits);
}

Result<PathSet> LabeledTraversal(
    const EdgeUniverse& universe,
    const std::vector<std::vector<LabelId>>& step_labels,
    const PathSetLimits& limits) {
  std::vector<EdgePattern> steps;
  steps.reserve(step_labels.size());
  for (const std::vector<LabelId>& labels : step_labels) {
    steps.push_back(labels.empty() ? EdgePattern::Any()
                                   : EdgePattern::LabeledAnyOf(labels));
  }
  return FoldJoinStrict(universe, steps, limits);
}

Result<PathSet> Traverse(const EdgeUniverse& universe,
                         const TraversalSpec& spec) {
  return FoldJoinStrict(universe, spec.steps, spec.limits, spec.density);
}

Result<GovernedPathSet> TraverseGoverned(const EdgeUniverse& universe,
                                         const TraversalSpec& spec,
                                         ExecContext& ctx, AnswerMode mode) {
  return FoldJoin(universe, spec.steps, spec.limits, spec.density, ctx, mode);
}

Result<GovernedPathSet> TraverseGovernedMaterialized(
    const EdgeUniverse& universe, const TraversalSpec& spec,
    ExecContext& ctx) {
  return FoldJoinMaterialized(universe, spec.steps, spec.limits, ctx);
}

}  // namespace mrpa
