// Statistics and answer digests for the serving benchmark: the pieces of
// the harness whose rules are stated in README.md and locked by
// servebench_test.cc.

#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/path_set.h"
#include "net/wire.h"
#include "obs/obs.h"
#include "util/random.h"

namespace servebench {

// A percentile is reported only when at least this many samples lie beyond
// it (p99 therefore needs 1000 samples).
inline constexpr size_t kMinBeyond = 10;

// Smallest sample count that supports quantile q under the kMinBeyond rule.
size_t MinSamplesFor(double q);

// True when n samples put at least kMinBeyond of them beyond quantile q.
bool TailSupported(size_t n, double q);

// Nearest-rank quantile (q in [0, 1]) of `values`, which it sorts in place.
// 0 for an empty sample.
double Quantile(std::vector<double>& values, double q);

// The p99 of a phase: the median of the p99s of its consecutive windows of
// MinSamplesFor(0.99) samples when there are at least three windows, the
// plain p99 otherwise. A single host stall (a shared VM can pause the
// process for tens of ms, holding up every request due meanwhile) then
// moves one window, not the reported figure. `lat` is in send order.
double WindowedP99(const std::vector<double>& lat);

// Quantile of a log2-bucketed registry histogram: linear interpolation
// inside the bucket holding the nearest-rank sample, clamped to the
// recorded min and max (so it is exact only to the bucket's resolution).
double HistQuantile(const mrpa::obs::HistogramSnapshot& h, double q);

// What an answer must be, independent of how the server computed it:
// paths mode carries the path count and an order-sensitive hash of every
// edge of every path (the wire promises canonical order); count mode the
// count; exists mode the flag.
struct Digest {
  mrpa::net::AnswerMode mode = mrpa::net::AnswerMode::kPaths;
  uint64_t count = 0;
  uint64_t hash = 0;
  bool exists = false;
  friend bool operator==(const Digest&, const Digest&) = default;
};

// The digest the full answer `paths` has in `mode`.
Digest DigestOf(const mrpa::PathSet& paths, mrpa::net::AnswerMode mode);

// The digest a wire response carries (its own mode, its own payload).
Digest DigestOf(const mrpa::net::WireResponse& response);

// One step of an open-loop rate ladder, as the SLO rule sees it.
struct LadderStep {
  double rate = 0;       // Offered requests per second.
  double p99_ms = 0;     // From the scheduled send.
  bool backlog = false;  // The generator's lateness grew through the step.
  uint64_t errors = 0;   // Sheds, oracle mismatches, transport failures.
  bool ran = false;      // Steps above the first failure are skipped.
};

// The highest rate whose step ran with p99 <= limit_ms, no growing backlog
// and no errors; 0 when no step did. A short low step that one host stall
// fails does not hide the passing steps above it.
double SelectSloRate(const std::vector<LadderStep>& steps, double limit_ms);

// Zipf(s) over ranks [0, n): P(rank r) proportional to 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(mrpa::Rng& rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
