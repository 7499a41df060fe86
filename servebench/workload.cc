#include "workload.h"

#include <algorithm>
#include <deque>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <utility>

#include "core/traversal.h"
#include "util/exec_context.h"
#include "util/random.h"

namespace servebench {

namespace {

using mrpa::EdgePattern;
using mrpa::IdConstraint;
using mrpa::net::AnswerMode;
using mrpa::net::WireRequest;

constexpr uint32_t kKnows = mrpa::kSocialKnows;
constexpr uint32_t kCreated = mrpa::kSocialCreated;
constexpr uint32_t kLikes = mrpa::kSocialLikes;

// Skew of the anchor draws: a few hot people and items, a long cold tail.
constexpr double kZipfS = 0.9;

EdgePattern Step(std::optional<uint32_t> tail, uint32_t label,
                 std::optional<uint32_t> head = std::nullopt) {
  return EdgePattern(tail ? IdConstraint::Exactly(*tail) : IdConstraint(),
                     IdConstraint::Exactly(label),
                     head ? IdConstraint::Exactly(*head) : IdConstraint());
}

// What a request class is anchored at.
enum class Anchor { kNone, kPerson, kItem };

struct RequestClass {
  uint32_t weight;
  AnswerMode mode;
  Anchor anchor;
  // Distinct anchors this class draws from; 0 = the whole population. A
  // small pool bounds the oracle's cost for classes whose sequential fold
  // is expensive.
  size_t pool;
  std::vector<EdgePattern> (*steps)(uint32_t anchor);
};

std::vector<EdgePattern> Knows1(uint32_t p) { return {Step(p, kKnows)}; }
std::vector<EdgePattern> Knows2(uint32_t p) {
  return {Step(p, kKnows), Step({}, kKnows)};
}
std::vector<EdgePattern> Knows3(uint32_t p) {
  return {Step(p, kKnows), Step({}, kKnows), Step({}, kKnows)};
}
std::vector<EdgePattern> KnowsCreated(uint32_t p) {
  return {Step(p, kKnows), Step({}, kCreated)};
}
std::vector<EdgePattern> Knows2Created(uint32_t p) {
  return {Step(p, kKnows), Step({}, kKnows), Step({}, kCreated)};
}
std::vector<EdgePattern> DeepKnowsCreated(uint32_t p) {
  return {Step(p, kKnows), Step({}, kKnows), Step({}, kKnows),
          Step({}, kKnows), Step({}, kCreated)};
}
std::vector<EdgePattern> KnowsLikesInto(uint32_t item) {
  return {Step({}, kKnows), Step({}, kLikes, item)};
}
std::vector<EdgePattern> WholeKnowsCreated(uint32_t) {
  return {Step({}, kKnows), Step({}, kCreated)};
}

// point_lookup and live_churn: 1–3-hop chains from one person, mostly
// paths mode with a small count/exists share. No class walks `likes`.
const std::vector<RequestClass>& LookupMix() {
  static const std::vector<RequestClass> mix = {
      {30, AnswerMode::kPaths, Anchor::kPerson, 0, Knows2},
      {25, AnswerMode::kPaths, Anchor::kPerson, 0, Knows3},
      {15, AnswerMode::kPaths, Anchor::kPerson, 0, KnowsCreated},
      {10, AnswerMode::kPaths, Anchor::kPerson, 0, Knows1},
      {10, AnswerMode::kPaths, Anchor::kPerson, 0, Knows2Created},
      {6, AnswerMode::kCount, Anchor::kPerson, 0, Knows3},
      {4, AnswerMode::kExists, Anchor::kPerson, 0, KnowsCreated},
  };
  return mix;
}

// mixed_analytic: destination-anchored chains (forward folds scan all of
// knows), deep source-anchored chains, one whole-label chain in all three
// answer modes (count and exists today enumerate first; the paths form is
// the large-frame share).
const std::vector<RequestClass>& AnalyticMix() {
  static const std::vector<RequestClass> mix = {
      {30, AnswerMode::kPaths, Anchor::kItem, 32, KnowsLikesInto},
      {40, AnswerMode::kPaths, Anchor::kPerson, 4096, DeepKnowsCreated},
      {10, AnswerMode::kCount, Anchor::kNone, 0, WholeKnowsCreated},
      {10, AnswerMode::kExists, Anchor::kNone, 0, WholeKnowsCreated},
      {5, AnswerMode::kPaths, Anchor::kNone, 0, WholeKnowsCreated},
  };
  return mix;
}

mrpa::ExecLimits LimitsFor(Workload w) {
  mrpa::ExecLimits limits;
  if (w == Workload::kMixedAnalytic) {
    limits.max_paths = size_t{1} << 20;
    limits.max_steps = size_t{1} << 25;
  } else {
    limits.max_paths = 4096;
    limits.max_steps = size_t{1} << 16;
  }
  return limits;
}

// A seeded bijection on [0, n), so Zipf rank r is a scattered id rather than
// a run of the oldest (best-connected) vertices.
class Scatter {
 public:
  Scatter(uint32_t n, mrpa::Rng& rng) : n_(n), offset_(rng.Below(n)) {
    mult_ = 0x9E3779B1ULL % n;
    while (std::gcd(mult_, static_cast<uint64_t>(n)) != 1) ++mult_;
  }
  uint32_t operator()(size_t rank) const {
    return static_cast<uint32_t>((rank * mult_ + offset_) % n_);
  }

 private:
  uint64_t n_;
  uint64_t offset_;
  uint64_t mult_ = 1;
};

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "point_lookup") return Workload::kPointLookup;
  if (name == "mixed_analytic") return Workload::kMixedAnalytic;
  if (name == "live_churn") return Workload::kLiveChurn;
  return std::nullopt;
}

std::string_view WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPointLookup:
      return "point_lookup";
    case Workload::kMixedAnalytic:
      return "mixed_analytic";
    case Workload::kLiveChurn:
      return "live_churn";
  }
  return "?";
}

mrpa::SocialNetworkParams GraphFor(Workload w, uint64_t seed) {
  mrpa::SocialNetworkParams p;
  p.num_people = w == Workload::kPointLookup ? 600'000 : 50'000;
  p.num_items = p.num_people / 4;
  p.knows_per_person = 3;
  p.num_likes = size_t{4} * p.num_people;
  p.seed = seed;
  return p;
}

RequestSet MakeRequests(Workload w, uint64_t seed, size_t count,
                        uint32_t people, uint32_t items) {
  const std::vector<RequestClass>& mix =
      w == Workload::kMixedAnalytic ? AnalyticMix() : LookupMix();
  mrpa::Rng rng(mrpa::SplitMix64(seed ^ 0x5e7eb5e7ULL).Next());
  const Scatter person_of(people, rng);
  const Scatter item_of(items, rng);
  const ZipfSampler person_zipf(people, kZipfS);
  const ZipfSampler item_zipf(items, kZipfS);
  auto draw = [&](Anchor a) -> uint32_t {
    switch (a) {
      case Anchor::kPerson:
        return person_of(person_zipf.Sample(rng));
      case Anchor::kItem:
        return people + item_of(item_zipf.Sample(rng));
      case Anchor::kNone:
        break;
    }
    return 0;
  };

  // Fixed anchor pools for the pooled classes, drawn first.
  std::vector<std::vector<uint32_t>> pools(mix.size());
  std::vector<std::optional<ZipfSampler>> pool_zipf(mix.size());
  for (size_t c = 0; c < mix.size(); ++c) {
    if (mix[c].pool == 0 || mix[c].anchor == Anchor::kNone) continue;
    const size_t population = mix[c].anchor == Anchor::kItem ? items : people;
    const size_t pool = std::min(mix[c].pool, population);
    std::map<uint32_t, bool> seen;
    while (pools[c].size() < pool) {
      const uint32_t a = draw(mix[c].anchor);
      if (seen.emplace(a, true).second) pools[c].push_back(a);
    }
    pool_zipf[c].emplace(pool, kZipfS);
  }

  // Classes come in shuffled blocks holding exactly `weight` requests of
  // each class, so any stretch of the sequence has the mix's proportions
  // (a run's cost does not swing with a lucky draw of heavy classes).
  std::vector<size_t> block;
  for (size_t c = 0; c < mix.size(); ++c) {
    block.insert(block.end(), mix[c].weight, c);
  }

  RequestSet out;
  std::map<std::pair<size_t, uint32_t>, uint32_t> index;
  out.sequence.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i % block.size() == 0) rng.Shuffle(block);
    const size_t c = block[i % block.size()];
    const RequestClass& rc = mix[c];
    uint32_t anchor = 0;
    if (pool_zipf[c].has_value()) {
      anchor = pools[c][pool_zipf[c]->Sample(rng)];
    } else {
      anchor = draw(rc.anchor);
    }
    auto [it, fresh] = index.emplace(
        std::make_pair(c, anchor), static_cast<uint32_t>(out.distinct.size()));
    if (fresh) {
      WireRequest req;
      req.tenant = "bench";
      req.mode = rc.mode;
      req.steps = rc.steps(anchor);
      req.limits = LimitsFor(w);
      out.distinct.push_back(std::move(req));
    }
    out.sequence.push_back(it->second);
  }
  return out;
}

mrpa::Result<std::vector<Digest>> ComputeOracle(
    const mrpa::EdgeUniverse& universe,
    const std::vector<WireRequest>& requests) {
  std::vector<Digest> digests;
  digests.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const WireRequest& req = requests[i];
    mrpa::TraversalSpec spec;
    spec.steps = req.steps;
    mrpa::ExecContext ctx(req.limits);
    mrpa::Result<mrpa::GovernedPathSet> r =
        mrpa::TraverseGoverned(universe, spec, ctx);
    if (!r.ok()) return r.status();
    if (r->truncated) {
      return mrpa::Status::Internal(
          "oracle: request " + std::to_string(i) +
          " trips its budget; the caps must be safety caps (" +
          r->limit.ToString() + ")");
    }
    digests.push_back(DigestOf(r->paths, req.mode));
  }
  return digests;
}

std::vector<WriteOp> MakeWriteOps(const mrpa::EdgeUniverse& base,
                                  uint64_t seed, size_t count, uint32_t people,
                                  uint32_t items, size_t probes,
                                  std::vector<mrpa::Edge>* probe) {
  mrpa::Rng rng(mrpa::SplitMix64(seed ^ 0x3417e5ULL).Next());
  std::set<mrpa::Edge> used;
  auto fresh = [&] {
    for (;;) {
      const mrpa::Edge e(static_cast<uint32_t>(rng.Below(people)), kLikes,
                         people + static_cast<uint32_t>(rng.Below(items)));
      if (!base.HasEdge(e) && used.insert(e).second) return e;
    }
  };
  const std::span<const mrpa::EdgeIndex> base_likes =
      base.LabelEdgeIndices(kLikes);
  std::set<mrpa::EdgeIndex> removed_base;
  std::deque<mrpa::Edge> own;  // Inserted by the writer, still present.

  std::vector<WriteOp> ops;
  ops.reserve(count);
  for (size_t i = 0; ops.size() < count; ++i) {
    switch (i % 4) {
      case 1:
        if (!own.empty()) {
          ops.push_back({own.front(), true});
          own.pop_front();
          break;
        }
        [[fallthrough]];
      case 0:
      case 2:
        ops.push_back({fresh(), false});
        own.push_back(ops.back().edge);
        break;
      case 3: {
        if (removed_base.size() == base_likes.size()) break;
        mrpa::EdgeIndex idx;
        do {
          idx = base_likes[rng.Below(base_likes.size())];
        } while (!removed_base.insert(idx).second);
        ops.push_back({base.AllEdges()[idx], true});
        break;
      }
    }
  }
  probe->clear();
  for (size_t i = 0; i < probes; ++i) probe->push_back(fresh());
  return ops;
}

}  // namespace servebench
