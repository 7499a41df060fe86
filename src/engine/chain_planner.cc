#include "engine/chain_planner.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <utility>

#include "core/dense_level.h"
#include "core/path_arena.h"
#include "core/simplify.h"
#include "core/traversal.h"
#include "frontier/bitmap.h"
#include "obs/obs.h"

namespace mrpa {

namespace {

bool FlattenChain(const PathExpr& expr, std::vector<EdgePattern>& out) {
  switch (expr.kind()) {
    case ExprKind::kAtom:
      out.push_back(expr.pattern());
      return true;
    case ExprKind::kEpsilon:
      return true;  // Identity of ⋈◦: contributes no step.
    case ExprKind::kJoin:
      return FlattenChain(*expr.children()[0], out) &&
             FlattenChain(*expr.children()[1], out);
    case ExprKind::kPower: {
      if (expr.children()[0]->kind() != ExprKind::kAtom) return false;
      for (size_t k = 0; k < expr.power(); ++k) {
        out.push_back(expr.children()[0]->pattern());
      }
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

std::optional<std::vector<EdgePattern>> ExtractAtomChain(
    const PathExpr& expr) {
  std::vector<EdgePattern> steps;
  if (!FlattenChain(expr, steps)) return std::nullopt;
  return steps;
}

size_t EstimatePatternCardinality(const EdgeUniverse& universe,
                                  const EdgePattern& pattern) {
  size_t bound = universe.num_edges();

  // Each indexable positional constraint gives an exact count for that
  // position alone; the conjunction is at most the minimum of them.
  auto tail_count = [&](VertexId v) -> size_t {
    return v < universe.num_vertices() ? universe.OutEdges(v).size() : 0;
  };
  auto head_count = [&](VertexId v) -> size_t {
    return v < universe.num_vertices() ? universe.InEdgeIndices(v).size() : 0;
  };
  auto label_count = [&](LabelId l) -> size_t {
    return l < universe.num_labels() ? universe.LabelEdgeIndices(l).size()
                                     : 0;
  };

  const IdConstraint& tail = pattern.tail();
  if (!tail.IsUnconstrained() && !tail.negated()) {
    size_t total = 0;
    for (uint32_t v : *tail.ids()) total += tail_count(v);
    bound = std::min(bound, total);
  }
  const IdConstraint& head = pattern.head();
  if (!head.IsUnconstrained() && !head.negated()) {
    size_t total = 0;
    for (uint32_t v : *head.ids()) total += head_count(v);
    bound = std::min(bound, total);
  }
  const IdConstraint& label = pattern.label();
  if (!label.IsUnconstrained() && !label.negated()) {
    size_t total = 0;
    for (uint32_t l : *label.ids()) total += label_count(l);
    bound = std::min(bound, total);
  }
  return bound;
}

ChainPlan PlanChain(const EdgeUniverse& universe,
                    const std::vector<EdgePattern>& steps) {
  ChainPlan plan;
  if (steps.empty()) return plan;
  plan.forward_seed_estimate =
      EstimatePatternCardinality(universe, steps.front());
  plan.backward_seed_estimate =
      EstimatePatternCardinality(universe, steps.back());
  plan.direction = plan.backward_seed_estimate < plan.forward_seed_estimate
                       ? ChainDirection::kBackward
                       : ChainDirection::kForward;
  return plan;
}

ChainPlan PlanChain(const EdgeUniverse& universe,
                    const std::vector<EdgePattern>& steps,
                    const PlannerCostHints& hints) {
  ChainPlan plan = PlanChain(universe, steps);
  if (!hints.valid || steps.empty()) return plan;  // Degrade to the heuristic.
  plan.direction = hints.backward_cost < hints.forward_cost
                       ? ChainDirection::kBackward
                       : ChainDirection::kForward;
  return plan;
}

namespace {

// Backward evaluation, threaded through the execution guard. The forward
// direction is exactly the §III fold and delegates to TraverseGoverned;
// this one seeds with the last step and extends paths at their tail via
// the in-index. The path budget is charged for full-length (final level,
// k == 0) paths only, mirroring the forward accounting.
//
// Arena-native, with SUFFIX chains: a frontier node's edge is the FIRST
// edge of the suffix it chains, so extending at the tail is one node push
// and γ−(p) is the O(1) TailOf projection. Unlike the forward fold, tail
// extensions do not preserve canonical order (the new edge varies at the
// FRONT of the path) — the old code re-canonicalized through
// PathSetBuilder::Build() every level, which this version mirrors by
// sorting the frontier's node ids with CompareSuffix (front-first, without
// materializing). Suffixes are distinct by construction — distinct
// (edge, suffix) pairs prepend to distinct paths — so no dedup pass.
// Each extension level picks a strategy, like the forward fold: the sparse
// per-candidate Matches walk, or a dense replay against a
// BackwardLevelCache (core/dense_level.h) that pre-filters the whole edge
// table into a match bitmap and memoizes each tail vertex's matched
// in-index subsequence. The backward guard contract is stricter than the
// forward one — CheckStep fires per CANDIDATE, matching or not — so the
// dense replay still walks the full candidate run and merely replaces the
// per-edge Matches call with a two-pointer scan of the memoized
// subsequence; guard count, order, and arguments are preserved exactly.
// The answer mode only changes the final level's sink, as in the forward
// fold (DESIGN.md "Answer modes"): kCount pushes no final-level nodes, so
// it sorts and materializes nothing; kExists stops at the first path.
Result<GovernedPathSet> EvaluateBackwardGoverned(
    const EdgeUniverse& universe, const std::vector<EdgePattern>& steps,
    const PathSetLimits& limits, const frontier::DensityPolicy& base_policy,
    ExecContext& ctx, AnswerMode mode) {
  GovernedPathSet out;
  out.mode = mode;
  const size_t hard_limit =
      limits.max_paths.value_or(std::numeric_limits<size_t>::max());
  Status trip;

  PathArena arena;
  std::vector<PathNodeId> frontier;
  std::vector<PathNodeId> next;

  // Boundary-only observability, same shape as the forward fold's: the
  // backward evaluator is a traversal too, so it reports into the same
  // traversal.* counters (levels here count backward extension levels).
  obs::ObsRegistry* const reg = ctx.observer();
  ExecStats obs_before;
  if (reg != nullptr) obs_before = ctx.Snapshot();
  ExecSpan run_span(ctx, "chain.backward");
  size_t seed_edges = 0;
  size_t levels_run = 0;
  // Full-length paths the final level emitted: the summary modes' answer.
  size_t final_paths = 0;

  // Adaptive strategy state, mirroring the forward fold's.
  frontier::DensityPolicy policy = base_policy;
  if (reg != nullptr && policy.mode == frontier::DensityMode::kAuto) {
    policy = frontier::CalibrateDensityPolicy(
        policy, reg, universe.num_vertices(), universe.num_edges());
  }
  frontier::BitmapFrontier tail_seen;
  size_t dense_levels = 0;
  size_t sparse_levels = 0;
  uint64_t frontier_words = 0;

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

  auto sort_level = [&](std::vector<PathNodeId>& ids) {
    std::sort(ids.begin(), ids.end(), [&](PathNodeId a, PathNodeId b) {
      return arena.CompareSuffix(a, b) < 0;
    });
  };
  auto materialize = [&](const std::vector<PathNodeId>& ids, size_t length) {
    std::vector<Path> paths;
    paths.reserve(ids.size());
    for (PathNodeId id : ids) {
      Path p;
      arena.MaterializeSuffixInto(id, length, p);
      paths.push_back(std::move(p));
    }
    return PathSet::FromSortedUnique(std::move(paths));
  };
  // The final level's answer: the sorted staged nodes, or the summary count.
  auto answer = [&](const std::vector<PathNodeId>& ids, size_t length) {
    if (mode == AnswerMode::kPaths) {
      out.paths = materialize(ids, length);
    } else {
      out.count = final_paths;
    }
  };

  // Seed with the LAST step's matching edges: length-1 suffixes, already in
  // canonical order (CollectMatchingEdges is sorted).
  {
    ExecSpan seed_span(ctx, "traverse.level", /*level=*/0);
    const LevelSink sink(mode, steps.size() == 1);
    for (const Edge& e : CollectMatchingEdges(universe, steps.back())) {
      if (trip = ctx.CheckStep(); !trip.ok()) break;
      if (steps.size() == 1) {
        if (trip = ctx.ChargePaths(); !trip.ok()) break;
      }
      if (trip = ctx.ChargeBytes(PathArena::kNodeBytes); !trip.ok()) break;
      ++seed_edges;
      if (sink.stage) frontier.push_back(arena.AddRoot(e));
      if (sink.stop_at_first) break;
    }
    if (steps.size() == 1) final_paths = seed_edges;
  }
  if (!trip.ok()) {
    out.truncated = true;
    out.limit = std::move(trip);
    if (steps.size() == 1) answer(frontier, 1);
    flush_obs();
    out.stats = ctx.Snapshot();
    return out;
  }

  size_t length = 1;  // Suffix length of the current frontier.
  for (size_t k = steps.size() - 1; k-- > 0 && !frontier.empty();) {
    const bool final_level = k == 0;
    const LevelSink sink(mode, final_level);
    ++levels_run;
    if (reg != nullptr) {
      reg->Record(obs::Hist::kTraversalLevelWidth, frontier.size());
    }
    // Level ids count from the seed outward, like the forward fold — for a
    // backward evaluation they name suffix-extension rounds, not step
    // indices.
    ExecSpan level_span(ctx, "traverse.level",
                        static_cast<int64_t>(levels_run));

    // Strategy choice for this extension level, over the frontier's tail
    // vertices (the backward analogue of the forward fold's head probe).
    // A level that stops at its first path stays sparse (LevelSink).
    std::optional<BackwardLevelCache> cache;
    if (!sink.stop_at_first &&
        policy.mode != frontier::DensityMode::kForceSparse) {
      const bool benefits = StepBenefitsFromDense(steps[k]);
      if (policy.mode == frontier::DensityMode::kForceDense ||
          (benefits && frontier.size() >= policy.min_frontier_paths)) {
        std::chrono::steady_clock::time_point t0;
        if (reg != nullptr) t0 = std::chrono::steady_clock::now();
        tail_seen.Reset(universe.num_vertices());
        for (PathNodeId source : frontier) tail_seen.Set(arena.TailOf(source));
        const uint64_t distinct = tail_seen.Count();
        frontier_words += tail_seen.num_words();
        if (frontier::ShouldGoDense(policy, frontier.size(), distinct,
                                    universe.num_vertices(), benefits)) {
          cache.emplace(universe, steps[k]);
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

    next.clear();
    size_t emitted = 0;  // This level's paths, staged or only counted.
    for (PathNodeId source : frontier) {
      // Extend at the tail: edges whose head is γ−(p), via the in-index.
      // CheckStep fires once per CANDIDATE in-edge, before the match test —
      // the dense replay below preserves that by walking the full candidate
      // run and consulting the memoized matched subsequence with a
      // two-pointer scan in place of the per-edge Matches call.
      const VertexId tail = arena.TailOf(source);
      const std::span<const EdgeIndex> candidates =
          universe.InEdgeIndices(tail);
      std::span<const EdgeIndex> matched;
      size_t m = 0;
      if (cache.has_value()) matched = cache->MatchedInEdges(tail);
      for (EdgeIndex idx : candidates) {
        if (trip = ctx.CheckStep(); !trip.ok()) break;
        if (cache.has_value()) {
          if (m >= matched.size() || matched[m] != idx) continue;
          ++m;
        } else if (!steps[k].Matches(universe.EdgeAt(idx))) {
          continue;
        }
        if (emitted >= hard_limit) {
          return Status::ResourceExhausted(
              "chain evaluation exceeded max_paths = " +
              std::to_string(hard_limit));
        }
        if (final_level) {
          if (trip = ctx.ChargePaths(); !trip.ok()) break;
        }
        if (trip = ctx.ChargeBytes(PathArena::kNodeBytes); !trip.ok()) break;
        ++emitted;
        if (sink.stage) {
          next.push_back(arena.Extend(source, universe.EdgeAt(idx)));
        }
        if (sink.stop_at_first) break;
      }
      if (!trip.ok() || (sink.stop_at_first && emitted > 0)) break;
    }
    ++length;
    if (final_level) final_paths = emitted;
    if (!trip.ok()) {
      out.truncated = true;
      out.limit = std::move(trip);
      if (final_level) {
        sort_level(next);
        answer(next, length);
      }
      flush_obs();
      out.stats = ctx.Snapshot();
      return out;
    }
    sort_level(next);
    frontier.swap(next);
  }
  answer(frontier, length);
  flush_obs();
  out.stats = ctx.Snapshot();
  return out;
}

}  // namespace

Result<GovernedPathSet> EvaluateChainGoverned(
    const EdgeUniverse& universe, const std::vector<EdgePattern>& steps,
    ChainDirection direction, ExecContext& ctx, const PathSetLimits& limits,
    const frontier::DensityPolicy& density, AnswerMode mode) {
  // The empty chain denotes {ε} in either direction; the forward fold
  // handles it.
  if (direction == ChainDirection::kForward || steps.empty()) {
    return TraverseGoverned(universe, TraversalSpec{steps, limits, density},
                            ctx, mode);
  }
  return EvaluateBackwardGoverned(universe, steps, limits, density, ctx, mode);
}

Result<PathSet> EvaluateChain(const EdgeUniverse& universe,
                              const std::vector<EdgePattern>& steps,
                              ChainDirection direction,
                              const PathSetLimits& limits) {
  // Ungoverned: run under an unlimited context. The only possible trip is
  // an armed fault injector, surfaced as the injected error.
  ExecContext unlimited;
  Result<GovernedPathSet> result =
      EvaluateChainGoverned(universe, steps, direction, unlimited, limits);
  if (!result.ok()) return result.status();
  if (result->truncated) return result->limit;
  return std::move(result->paths);
}

Result<PathSet> EvaluatePlanned(const PathExpr& expr,
                                const EdgeUniverse& universe,
                                const EvalOptions& options) {
  // Simplification first: collapsing ε/∅ nodes exposes atom chains.
  PathExprPtr simplified = Simplify(expr.shared_from_this());
  std::optional<std::vector<EdgePattern>> chain =
      ExtractAtomChain(*simplified);
  if (!chain.has_value()) return simplified->Evaluate(universe, options);
  ChainPlan plan = PlanChain(universe, *chain);
  return EvaluateChain(universe, *chain, plan.direction, options.limits);
}

Result<GovernedPathSet> EvaluatePlannedGoverned(const PathExpr& expr,
                                                const EdgeUniverse& universe,
                                                ExecContext& ctx,
                                                const EvalOptions& options) {
  obs::ObsRegistry* const reg = ctx.observer();
  ExecSpan plan_span(ctx, "planner.evaluate");
  PathExprPtr simplified = Simplify(expr.shared_from_this());
  std::optional<std::vector<EdgePattern>> chain =
      ExtractAtomChain(*simplified);
  if (!chain.has_value()) {
    // Non-chain fallback: the bottom-up evaluator has no salvageable
    // prefix, so a trip degrades to an empty truncated result.
    if (reg != nullptr) reg->Add(obs::Metric::kPlannerFallbacks, 1);
    EvalOptions governed = options;
    governed.exec = &ctx;
    Result<PathSet> evaluated = simplified->Evaluate(universe, governed);
    GovernedPathSet out;
    if (evaluated.ok()) {
      out.paths = std::move(evaluated).value();
    } else if (ctx.Exceeded()) {
      out.truncated = true;
      out.limit = ctx.limit_status();
    } else {
      return evaluated.status();  // A real error, not a governance trip.
    }
    out.stats = ctx.Snapshot();
    return out;
  }
  ChainPlan plan = PlanChain(universe, *chain);
  if (reg != nullptr) {
    reg->Add(plan.direction == ChainDirection::kForward
                 ? obs::Metric::kPlannerPlansForward
                 : obs::Metric::kPlannerPlansBackward,
             1);
  }
  return EvaluateChainGoverned(universe, *chain, plan.direction, ctx,
                               options.limits);
}

}  // namespace mrpa
