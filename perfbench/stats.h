#ifndef TOPKPKG_PERFBENCH_STATS_H_
#define TOPKPKG_PERFBENCH_STATS_H_

// Measurement helpers of the serving benchmark, kept free of the library so
// stats_test.cc can pin them on their own:
//
//   - Exact nearest-rank percentiles over recorded samples (no histogram
//     buckets: a bucketed quantile reads up to a bucket width high).
//   - A seeded Poisson arrival schedule for the open-loop phase.
//   - Open-loop timing: a request is charged from when it was *due*, so a
//     stall of the system or of the generator shows up in every request
//     scheduled during it, and the generator's own lateness is kept apart.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace perfbench {

// One percentile read off a sample set: the fraction asked for, the order
// statistic itself, how many samples it was taken over, and how many
// samples rank above it.
struct Percentile {
  double q = 0.0;
  double value = 0.0;
  std::size_t count = 0;
  std::size_t beyond = 0;
};

// The rank-th smallest sample (1-based, 1 <= rank <= size).
inline Percentile AtRank(std::vector<double> samples, std::size_t rank) {
  Percentile out;
  out.count = samples.size();
  out.q = static_cast<double>(rank) / static_cast<double>(samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  return out;
}

// Nearest-rank percentile: the ceil(q * n)-th smallest sample, with the
// rank clamped to [1, n]. Empty input gives all zeros. `q` is a fraction
// in [0, 1].
inline Percentile NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return {};
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return AtRank(std::move(samples), std::clamp<std::size_t>(rank, 1, n));
}

// A tail percentile the sample can support: the nearest-rank `q`, moved
// down when needed so that at least `min_beyond` samples rank above it,
// but never below the median. With 1000 samples p99 stands; with 400 it
// becomes p97.5. The q actually used is in the result.
inline Percentile TailPercentile(std::vector<double> samples, double q,
                                 std::size_t min_beyond = 10) {
  if (samples.empty()) return {};
  const std::size_t n = samples.size();
  std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  const std::size_t median = (n + 1) / 2;
  if (n - rank < min_beyond) {
    rank = n > min_beyond ? n - min_beyond : 1;
  }
  return AtRank(std::move(samples), std::max(rank, median));
}

// Poisson arrivals at `rate` per second over a window of `seconds`,
// conditioned on their count: exactly round(rate * seconds) arrivals at
// sorted uniform offsets, which is how a Poisson process places a given
// number of events. Every run then offers the same load, and only the
// timing varies with the seed.
inline std::vector<double> PoissonArrivals(double rate, double seconds,
                                           std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  std::mt19937_64 engine(seed);
  std::uniform_real_distribution<double> offset(0.0, seconds);
  std::vector<double> out(n);
  for (double& t : out) t = offset(engine);
  std::sort(out.begin(), out.end());
  return out;
}

// Timestamps of one open-loop request, in seconds on one clock.
struct OpenLoopTiming {
  double due = 0.0;    // When the schedule said to send it.
  double sent = 0.0;   // When the generator submitted it.
  double ready = 0.0;  // When its future was seen ready.

  // What the user feels: from due, not from sent, so time the request
  // spent waiting behind a stalled generator counts too.
  double latency() const { return ready - due; }
  // How late the generator sent it.
  double lag() const { return sent > due ? sent - due : 0.0; }
  // Time inside the system once submitted.
  double service() const { return ready - sent; }
};

// Collects open-loop timings and answers the questions the report asks.
class OpenLoopLedger {
 public:
  void Record(const OpenLoopTiming& t) { timings_.push_back(t); }

  std::size_t size() const { return timings_.size(); }

  std::vector<double> LatenciesMs() const {
    std::vector<double> out;
    out.reserve(timings_.size());
    for (const OpenLoopTiming& t : timings_) out.push_back(t.latency() * 1e3);
    return out;
  }

  std::vector<double> LagsMs() const {
    std::vector<double> out;
    out.reserve(timings_.size());
    for (const OpenLoopTiming& t : timings_) out.push_back(t.lag() * 1e3);
    return out;
  }

  // Requests whose latency stayed within `limit_ms`.
  std::size_t WithinMs(double limit_ms) const {
    std::size_t n = 0;
    for (const OpenLoopTiming& t : timings_) {
      if (t.latency() * 1e3 <= limit_ms) ++n;
    }
    return n;
  }

 private:
  std::vector<OpenLoopTiming> timings_;
};

}  // namespace perfbench

#endif  // TOPKPKG_PERFBENCH_STATS_H_
