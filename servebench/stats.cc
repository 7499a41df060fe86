#include "stats.h"

#include <algorithm>
#include <cmath>

#include "util/hash.h"

namespace servebench {

size_t MinSamplesFor(double q) {
  return static_cast<size_t>(
      std::ceil(static_cast<double>(kMinBeyond) / (1.0 - q) - 1e-9));
}

bool TailSupported(size_t n, double q) { return n >= MinSamplesFor(q); }

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size()) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double WindowedP99(const std::vector<double>& lat) {
  const size_t w = MinSamplesFor(0.99);
  if (lat.size() < 3 * w) {
    std::vector<double> all = lat;
    return Quantile(all, 0.99);
  }
  std::vector<double> p99s;
  for (size_t start = 0; start + w <= lat.size(); start += w) {
    std::vector<double> win(lat.begin() + static_cast<ptrdiff_t>(start),
                            lat.begin() + static_cast<ptrdiff_t>(start + w));
    p99s.push_back(Quantile(win, 0.99));
  }
  return Quantile(p99s, 0.5);
}

double HistQuantile(const mrpa::obs::HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(h.count))));
  uint64_t seen = 0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] == 0 || seen + h.buckets[i] < rank) {
      seen += h.buckets[i];
      continue;
    }
    // Interpolate linearly through the bucket's range, clamped to the
    // recorded extremes.
    const double lo = i == 0 ? 0 : std::ldexp(1.0, static_cast<int>(i) - 1);
    const double hi = static_cast<double>(
        mrpa::obs::ObsRegistry::BucketUpperBound(i));
    const double frac = static_cast<double>(rank - seen) /
                        static_cast<double>(h.buckets[i]);
    return std::clamp(lo + frac * (hi - lo), static_cast<double>(h.min),
                      static_cast<double>(h.max));
  }
  return static_cast<double>(h.max);
}

Digest DigestOf(const mrpa::PathSet& paths, mrpa::net::AnswerMode mode) {
  Digest d;
  d.mode = mode;
  switch (mode) {
    case mrpa::net::AnswerMode::kPaths: {
      d.count = paths.size();
      uint64_t h = mrpa::Mix64(paths.size());
      for (const mrpa::Path& p : paths) {
        h = mrpa::HashCombine(h, p.length());
        for (size_t i = 0; i < p.length(); ++i) {
          const mrpa::Edge& e = p.edge(i);
          h = mrpa::HashCombine(h, e.tail);
          h = mrpa::HashCombine(h, e.label);
          h = mrpa::HashCombine(h, e.head);
        }
      }
      d.hash = h;
      break;
    }
    case mrpa::net::AnswerMode::kCount:
      d.count = paths.size();
      break;
    case mrpa::net::AnswerMode::kExists:
      d.exists = !paths.empty();
      break;
  }
  return d;
}

Digest DigestOf(const mrpa::net::WireResponse& response) {
  if (response.mode == mrpa::net::AnswerMode::kPaths) {
    return DigestOf(response.paths, response.mode);
  }
  Digest d;
  d.mode = response.mode;
  if (response.mode == mrpa::net::AnswerMode::kCount) {
    d.count = response.count;
  } else {
    d.exists = response.exists;
  }
  return d;
}

double SelectSloRate(const std::vector<LadderStep>& steps, double limit_ms) {
  double best = 0;
  for (const LadderStep& s : steps) {
    if (s.ran && !s.backlog && s.errors == 0 && s.p99_ms <= limit_ms) {
      best = std::max(best, s.rate);
    }
  }
  return best;
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t ZipfSampler::Sample(mrpa::Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

}  // namespace servebench
