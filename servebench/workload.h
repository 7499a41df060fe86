// Workload inputs for the serving benchmark: the graphs, the seeded
// request streams, and the oracle that fixes each request's answer before
// the server sees it.

#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/edge.h"
#include "core/edge_universe.h"
#include "generators/generators.h"
#include "net/wire.h"
#include "stats.h"
#include "util/status.h"

namespace servebench {

enum class Workload { kPointLookup, kMixedAnalytic, kLiveChurn };

std::optional<Workload> ParseWorkload(std::string_view name);
std::string_view WorkloadName(Workload w);

// The social graph a workload serves: 600k people (an image larger than a
// 105 MiB L3) for point_lookup, 50k people (L3-resident) for the other two.
mrpa::SocialNetworkParams GraphFor(Workload w, uint64_t seed);

// The requests of one run: each distinct request once, and the order the
// run sends them in (indices into `distinct`). Requests never set
// WireRequest::kind, and their budgets are safety caps the oracle proves
// never trip.
struct RequestSet {
  std::vector<mrpa::net::WireRequest> distinct;
  std::vector<uint32_t> sequence;
};

// `count` requests of workload `w`'s mix, drawn from `seed` over a graph of
// `people` people and `items` items. point_lookup and live_churn share one
// mix, which never walks `likes` (live_churn's writer only touches likes).
RequestSet MakeRequests(Workload w, uint64_t seed, size_t count,
                        uint32_t people, uint32_t items);

// Each distinct request's digest under the sequential TraverseGoverned over
// `universe`. Fails when any request trips its budget: the caps must be
// safety caps, so that no answer depends on the evaluation strategy.
mrpa::Result<std::vector<Digest>> ComputeOracle(
    const mrpa::EdgeUniverse& universe,
    const std::vector<mrpa::net::WireRequest>& requests);

// One live_churn mutation of a `likes` edge.
struct WriteOp {
  mrpa::Edge edge;
  bool remove = false;
};

// The writer's mutations, from `seed`: inserts of fresh likes edges,
// tombstones of edges it inserted earlier, and tombstones of base likes
// edges, replayed against a simulated edge set so that every call succeeds.
// `probe` receives `probes` further fresh edges, disjoint from the writer's,
// for the freshness probe to insert.
std::vector<WriteOp> MakeWriteOps(const mrpa::EdgeUniverse& base,
                                  uint64_t seed, size_t count, uint32_t people,
                                  uint32_t items, size_t probes,
                                  std::vector<mrpa::Edge>* probe);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
