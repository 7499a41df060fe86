// Tests of the serving benchmark's own logic: the percentile rule, seeded
// inputs, the oracle digest, and the SLO ladder rule.
//
//   cmake --build .bench_build --target servebench_test
//   .bench_build/servebench_test

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/traversal.h"
#include "generators/generators.h"
#include "graph/multi_graph.h"
#include "net/wire.h"
#include "obs/obs.h"
#include "stats.h"
#include "workload.h"

namespace servebench {
namespace {

using mrpa::net::AnswerMode;

TEST(PercentileRule, TenSamplesBeyondTheReportedQuantile) {
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  EXPECT_EQ(MinSamplesFor(0.5), 20u);
  EXPECT_EQ(MinSamplesFor(0.999), 10000u);
  EXPECT_FALSE(TailSupported(999, 0.99));
  EXPECT_TRUE(TailSupported(1000, 0.99));

  // With exactly the minimum sample, exactly kMinBeyond lie beyond p99.
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const double p99 = Quantile(v, 0.99);
  size_t beyond = 0;
  for (double x : v) beyond += x > p99 ? 1 : 0;
  EXPECT_EQ(beyond, kMinBeyond);
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Quantile(v, 0.5), 50);
  EXPECT_EQ(Quantile(v, 0.99), 99);
  EXPECT_EQ(Quantile(v, 1.0), 100);
  EXPECT_EQ(Quantile(v, 0.0), 1);
  std::vector<double> empty;
  EXPECT_EQ(Quantile(empty, 0.5), 0);
}

TEST(PercentileRule, OneStalledWindowDoesNotMoveTheWindowedP99) {
  std::vector<double> lat(5000, 0.1);
  for (size_t i = 0; i < lat.size(); i += 100) lat[i] = 0.3;  // 1% tail.
  EXPECT_EQ(WindowedP99(lat), 0.1);
  for (size_t i = 1000; i < 1200; ++i) lat[i] = 30;  // One 200-request stall.
  EXPECT_EQ(WindowedP99(lat), 0.1);
  std::vector<double> all = lat;
  EXPECT_EQ(Quantile(all, 0.99), 30);  // The plain p99 would report it.
  // Below three windows the plain p99 applies.
  std::vector<double> short_run(lat.begin(), lat.begin() + 2500);
  std::vector<double> copy = short_run;
  EXPECT_EQ(WindowedP99(short_run), Quantile(copy, 0.99));
}

TEST(PercentileRule, HistogramQuantileStaysInsideItsBucket) {
  mrpa::obs::ObsRegistry obs;
  for (int i = 0; i < 99; ++i) obs.Record(mrpa::obs::Hist::kNetRequestNanos, 100);
  obs.Record(mrpa::obs::Hist::kNetRequestNanos, 5000);
  const auto h = obs.SnapshotHistogram(mrpa::obs::Hist::kNetRequestNanos);
  const double p50 = HistQuantile(h, 0.5);
  EXPECT_GE(p50, 64);  // 100 lives in the bucket [64, 127].
  EXPECT_LE(p50, 127);
  EXPECT_EQ(HistQuantile(h, 1.0), 5000);
  EXPECT_EQ(HistQuantile(mrpa::obs::HistogramSnapshot{}, 0.5), 0);
}

std::vector<std::vector<uint8_t>> Encoded(const RequestSet& r) {
  std::vector<std::vector<uint8_t>> out;
  for (const auto& req : r.distinct) {
    out.push_back(*mrpa::net::EncodeRequestFrame(req));
  }
  return out;
}

TEST(SeededInputs, SameSeedSameRequests) {
  for (Workload w : {Workload::kPointLookup, Workload::kMixedAnalytic,
                     Workload::kLiveChurn}) {
    const RequestSet a = MakeRequests(w, 7, 3000, 5000, 1250);
    const RequestSet b = MakeRequests(w, 7, 3000, 5000, 1250);
    const RequestSet c = MakeRequests(w, 8, 3000, 5000, 1250);
    EXPECT_EQ(a.sequence, b.sequence);
    EXPECT_EQ(Encoded(a), Encoded(b));
    EXPECT_NE(Encoded(a), Encoded(c));
  }
}

TEST(SeededInputs, RequestsNeverSetKindAndLookupsNeverWalkLikes) {
  const mrpa::net::WireRequest defaults;
  for (Workload w : {Workload::kPointLookup, Workload::kMixedAnalytic,
                     Workload::kLiveChurn}) {
    for (const auto& req : MakeRequests(w, 3, 2000, 5000, 1250).distinct) {
      EXPECT_EQ(req.kind, defaults.kind);
      if (w == Workload::kMixedAnalytic) continue;
      for (const auto& step : req.steps) {
        EXPECT_FALSE(step.label().Matches(mrpa::kSocialLikes));
      }
    }
  }
}

TEST(SeededInputs, ClassProportionsHoldInEveryBlock) {
  // Shuffled blocks of 100 carry the mix's weights exactly: the count-mode
  // class is 6 of every 100 lookups.
  const RequestSet r = MakeRequests(Workload::kPointLookup, 5, 1000, 5000,
                                    1250);
  for (size_t block = 0; block < 10; ++block) {
    size_t counts = 0;
    for (size_t i = block * 100; i < (block + 1) * 100; ++i) {
      counts += r.distinct[r.sequence[i]].mode == AnswerMode::kCount;
    }
    EXPECT_EQ(counts, 6u);
  }
}

mrpa::MultiRelationalGraph SmallGraph() {
  mrpa::SocialNetworkParams p;
  p.num_people = 400;
  p.num_items = 100;
  p.num_likes = 1600;
  p.seed = 11;
  return std::move(*mrpa::GenerateSocialNetwork(p));
}

TEST(Oracle, DigestCatchesAOnePathChange) {
  const auto g = SmallGraph();
  const RequestSet r = MakeRequests(Workload::kMixedAnalytic, 1, 200, 400, 100);
  auto oracle = ComputeOracle(g, r.distinct);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  // Take the whole-label paths answer and alter one edge of one path.
  mrpa::TraversalSpec spec;
  spec.steps = {mrpa::EdgePattern({}, mrpa::IdConstraint::Exactly(0), {}),
                mrpa::EdgePattern({}, mrpa::IdConstraint::Exactly(1), {})};
  auto full = mrpa::Traverse(g, spec);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->size(), 2u);
  const Digest want = DigestOf(*full, AnswerMode::kPaths);

  std::vector<mrpa::Path> paths(full->begin(), full->end());
  std::vector<mrpa::Edge> edges = {paths[1].edge(0), paths[1].edge(1)};
  edges[1].head += 1;
  paths[1] = mrpa::Path(edges);
  EXPECT_NE(DigestOf(mrpa::PathSet(paths), AnswerMode::kPaths), want);

  std::vector<mrpa::Path> fewer(full->begin(), full->end());
  fewer.pop_back();
  EXPECT_NE(DigestOf(mrpa::PathSet(fewer), AnswerMode::kPaths), want);
  EXPECT_NE(DigestOf(mrpa::PathSet(fewer), AnswerMode::kCount),
            DigestOf(*full, AnswerMode::kCount));
  EXPECT_EQ(DigestOf(mrpa::PathSet(fewer), AnswerMode::kExists),
            DigestOf(*full, AnswerMode::kExists));

  // The wire projection of the same answer carries the same digest.
  mrpa::service::QueryResponse resp;
  resp.result.paths = *full;
  resp.snapshot_version = 1;
  for (AnswerMode m :
       {AnswerMode::kPaths, AnswerMode::kCount, AnswerMode::kExists}) {
    EXPECT_EQ(DigestOf(mrpa::net::MakeWireResponse(resp, m)),
              DigestOf(*full, m));
  }
}

TEST(Oracle, RejectsABudgetThatTrips) {
  const auto g = SmallGraph();
  RequestSet r = MakeRequests(Workload::kMixedAnalytic, 1, 50, 400, 100);
  for (auto& req : r.distinct) req.limits.max_paths = 1;
  EXPECT_FALSE(ComputeOracle(g, r.distinct).ok());
}

TEST(Writes, EverySimulatedMutationSucceedsAndProbesAreFresh) {
  const auto g = SmallGraph();
  std::vector<mrpa::Edge> probe;
  const auto ops = MakeWriteOps(g, 4, 500, 400, 100, 20, &probe);
  const auto again = MakeWriteOps(g, 4, 500, 400, 100, 20, &probe);
  ASSERT_EQ(ops.size(), 500u);
  std::set<mrpa::Edge> present;
  for (const mrpa::Edge& e : g.AllEdges()) present.insert(e);
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].edge, again[i].edge);
    EXPECT_EQ(ops[i].edge.label, mrpa::kSocialLikes);
    if (ops[i].remove) {
      EXPECT_EQ(present.erase(ops[i].edge), 1u);
    } else {
      EXPECT_TRUE(present.insert(ops[i].edge).second);
    }
  }
  ASSERT_EQ(probe.size(), 20u);
  for (const mrpa::Edge& e : probe) EXPECT_TRUE(present.insert(e).second);
}

TEST(SloLadder, HighestRateThatMeetsTheLimit) {
  auto step = [](double rate, double p99, bool backlog = false,
                 uint64_t errors = 0) {
    LadderStep s;
    s.rate = rate;
    s.p99_ms = p99;
    s.backlog = backlog;
    s.errors = errors;
    s.ran = true;
    return s;
  };
  EXPECT_EQ(SelectSloRate({step(1000, 0.2), step(2000, 0.5), step(3000, 2.5)},
                          2.0),
            2000);
  EXPECT_EQ(SelectSloRate({step(1000, 0.2), step(2000, 2.0)}, 2.0), 2000);
  // A stalled low step does not hide the passing steps above it.
  EXPECT_EQ(SelectSloRate({step(1000, 3.0), step(2000, 0.5)}, 2.0), 2000);
  EXPECT_EQ(SelectSloRate({step(1000, 3.0), step(2000, 2.5)}, 2.0), 0);
  EXPECT_EQ(SelectSloRate({step(1000, 0.2), step(2000, 0.5, true)}, 2.0),
            1000);
  EXPECT_EQ(SelectSloRate({step(1000, 0.2), step(2000, 0.5, false, 1)}, 2.0),
            1000);
  LadderStep skipped;  // Above the first failure: never ran.
  skipped.rate = 4000;
  EXPECT_EQ(SelectSloRate({step(1000, 0.2), step(2000, 2.5), skipped}, 2.0),
            1000);
}

TEST(Zipf, DeterministicAndSkewed) {
  const ZipfSampler z(1000, 0.9);
  mrpa::Rng a(3), b(3);
  std::vector<size_t> hits(1000, 0);
  for (int i = 0; i < 20000; ++i) {
    const size_t r = z.Sample(a);
    ASSERT_EQ(r, z.Sample(b));
    ASSERT_LT(r, 1000u);
    ++hits[r];
  }
  EXPECT_GT(hits[0], hits[10]);
  EXPECT_GT(hits[10], hits[500]);
}

}  // namespace
}  // namespace servebench
