// Metric math of the benchmark: percentiles with the sample rule, two-pass
// exact percentiles of binned integer samples, ratio bases and
// deployment-sim-second accounting. Kept free of arcadia types so
// `arcperf --selfcheck` can pin it on fixed synthetic inputs.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace arcperf {

inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// FNV-1a offset basis: the empty hash of every digest the harness keeps.
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

/// Samples a percentile must leave beyond it before it may be reported.
inline constexpr std::size_t kSamplesBeyond = 10;

/// Nearest-rank index (0-based) of the p-quantile of n sorted samples.
inline std::size_t rank_index(std::size_t n, double p) {
  const double r = std::ceil(p * static_cast<double>(n) - 1e-9);
  return static_cast<std::size_t>(std::max(1.0, r)) - 1;
}

/// True when the p-quantile of n samples has at least kSamplesBeyond
/// samples above its rank (p50 of 20, p999 of 10,000, p80 of 50).
inline bool percentile_supported(std::size_t n, double p) {
  if (n == 0) return false;
  return n - 1 - rank_index(n, p) >= kSamplesBeyond;
}

/// Nearest-rank percentile; NaN when the sample rule is not met. Takes a
/// copy because nth_element reorders.
inline double percentile(std::vector<double> v, double p) {
  if (!percentile_supported(v.size(), p)) return kNaN;
  const std::size_t k = rank_index(v.size(), p);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// Log-linear bins over non-negative integer samples: one bin per value
/// below 128, then 64 bins per power of two (relative width under 1.6%).
inline constexpr std::size_t kSampleBins = 128 + 57 * 64;

inline std::size_t sample_bin(std::uint64_t v) {
  if (v < 128) return static_cast<std::size_t>(v);
  const int e = 63 - std::countl_zero(v);  // floor(log2 v), 7..63
  const std::uint64_t sub = (v >> (e - 6)) & 63;
  return 128 + static_cast<std::size_t>(e - 7) * 64 +
         static_cast<std::size_t>(sub);
}

/// Where the nearest-rank p-quantile of a binned sample set lies: its bin,
/// and its 0-based rank among the samples of that bin.
struct BinRank {
  bool ok = false;  ///< false when the sample rule is not met
  std::size_t bin = 0;
  std::uint64_t offset = 0;
  std::uint64_t in_bin = 0;  ///< samples in that bin
};

/// Pass 1 of an exact percentile in O(bins) memory: locate the wanted rank
/// in the per-bin counts. Pass 2 over the same samples keeps only those of
/// `bin` and hands them to select_in_bin().
inline BinRank locate_rank(const std::vector<std::uint64_t>& counts,
                           double p) {
  std::uint64_t n = 0;
  for (std::uint64_t c : counts) n += c;
  BinRank r;
  if (!percentile_supported(n, p)) return r;
  const std::uint64_t k = rank_index(n, p);
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (below + counts[b] > k) {
      r.ok = true;
      r.bin = b;
      r.offset = k - below;
      r.in_bin = counts[b];
      return r;
    }
    below += counts[b];
  }
  return r;
}

/// The sample at `r` among `kept`, the samples of r.bin that pass 2 kept
/// (any order); NaN when pass 2 did not see as many as pass 1 counted.
inline double select_in_bin(std::vector<std::int64_t> kept, const BinRank& r) {
  if (!r.ok || kept.size() != r.in_bin) return kNaN;
  const auto k = static_cast<std::ptrdiff_t>(r.offset);
  std::nth_element(kept.begin(), kept.begin() + k, kept.end());
  return static_cast<double>(kept[static_cast<std::size_t>(k)]);
}

inline double median_of(std::vector<double> v) {
  if (v.empty()) return kNaN;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean_of(const std::vector<double>& v) {
  if (v.empty()) return kNaN;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// num / den, NaN on an empty base (never a silent 0 or 1).
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : kNaN;
}

/// Client-side request accounting of one pass.
struct RequestTally {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t late = 0;  ///< completed, but slower than the bound

  /// Late or never completed, over issued.
  double slo_miss_ratio() const {
    const std::uint64_t missing = issued >= completed ? issued - completed : 0;
    return ratio(static_cast<double>(late + missing),
                 static_cast<double>(issued));
  }
};

/// Deployment-sim-seconds: every tenant of a deployment counts its horizon
/// once, however often a restore re-executes part of it.
inline double deployment_sim_seconds(std::uint64_t tenants, double horizon_s) {
  return static_cast<double>(tenants) * horizon_s;
}

/// Returns the number of failed checks; prints each failure to stderr.
int selfcheck();

}  // namespace arcperf
