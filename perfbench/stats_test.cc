// Tests of the serving benchmark's measurement helpers (stats.h): the
// nearest-rank percentile against a sorted-vector oracle, the tail
// percentile's lowering to what the sample supports, the Poisson arrivals'
// determinism, count and gaps, and open-loop lateness accounting. Exits
// non-zero if any check fails; perfbench/run.py runs it after every build.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

// The oracle: sort, then index the ceil(q*n)-th smallest (1-based).
double Oracle(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

void TestNearestRankEdgeCases() {
  const perfbench::Percentile empty = perfbench::NearestRank({}, 0.5);
  Check(empty.count == 0 && empty.beyond == 0 && empty.value == 0.0,
        "empty input gives a zero percentile over zero samples");

  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    const perfbench::Percentile one = perfbench::NearestRank({4.25}, q);
    Check(one.value == 4.25 && one.count == 1 && one.beyond == 0,
          "one sample is every percentile, with nothing beyond it");
  }

  // Ties: the rank lands inside a run of equal values.
  const std::vector<double> ties = {1.0, 2.0, 2.0, 2.0, 2.0, 3.0};
  const perfbench::Percentile p50 = perfbench::NearestRank(ties, 0.5);
  Check(p50.value == 2.0 && p50.beyond == 3, "p50 inside a tie run");
  const perfbench::Percentile p100 = perfbench::NearestRank(ties, 1.0);
  Check(p100.value == 3.0 && p100.beyond == 0, "p100 is the maximum");
  const perfbench::Percentile p0 = perfbench::NearestRank(ties, 0.0);
  Check(p0.value == 1.0 && p0.beyond == 5, "p0 clamps to the minimum");

  // 1000 samples: p99 is the 990th smallest and leaves exactly 10 beyond.
  std::vector<double> thousand(1000);
  for (std::size_t i = 0; i < thousand.size(); ++i) {
    thousand[i] = static_cast<double>(thousand.size() - i);
  }
  const perfbench::Percentile p99 = perfbench::NearestRank(thousand, 0.99);
  Check(p99.value == 990.0 && p99.beyond == 10,
        "p99 of 1000 samples is the 990th and leaves 10 beyond");
}

void TestTailPercentile() {
  std::vector<double> v(2000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const perfbench::Percentile full = perfbench::TailPercentile(v, 0.99);
  Check(full.value == 1979.0 && full.beyond == 20 && full.q == 0.99,
        "p99 stands when the sample supports it");

  v.resize(400);
  const perfbench::Percentile short_tail = perfbench::TailPercentile(v, 0.99);
  Check(short_tail.beyond == 10 && short_tail.value == 389.0 &&
            short_tail.q == 0.975,
        "a short sample moves the percentile down to 10 beyond");

  v.resize(15);
  const perfbench::Percentile tiny = perfbench::TailPercentile(v, 0.99);
  Check(tiny.value == perfbench::NearestRank(v, 0.5).value,
        "a tiny sample never reads below its median");
  Check(perfbench::TailPercentile({}, 0.99).count == 0,
        "empty input stays empty");
}

void TestNearestRankAgainstOracle() {
  std::mt19937_64 engine(12345);
  std::lognormal_distribution<double> dist(0.0, 1.5);
  for (std::size_t n : {2u, 3u, 7u, 100u, 1001u, 5000u}) {
    std::vector<double> v(n);
    for (double& x : v) x = dist(engine);
    // Quantised copies add ties on top of the continuous values.
    std::vector<double> tied = v;
    for (double& x : tied) x = std::round(x * 4.0) / 4.0;
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
      Check(perfbench::NearestRank(v, q).value == Oracle(v, q),
            "nearest rank equals the sorted oracle");
      Check(perfbench::NearestRank(tied, q).value == Oracle(tied, q),
            "nearest rank equals the sorted oracle with ties");
    }
  }
}

void TestPoissonArrivals() {
  const std::vector<double> a = perfbench::PoissonArrivals(200.0, 100.0, 7);
  Check(a == perfbench::PoissonArrivals(200.0, 100.0, 7),
        "one seed gives one schedule");
  Check(a != perfbench::PoissonArrivals(200.0, 100.0, 8),
        "another seed gives another schedule");
  Check(a.size() == 20000, "exactly rate x seconds arrivals");
  Check(std::is_sorted(a.begin(), a.end()), "arrivals are in time order");
  Check(a.front() >= 0.0 && a.back() < 100.0, "arrivals fall in the window");
  // Gaps of a Poisson process are exponential: mean 1/rate, and the
  // standard deviation equals the mean. 20000 gaps pin both within 3%.
  double sum = 0.0, sum2 = 0.0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    const double g = a[i] - a[i - 1];
    sum += g;
    sum2 += g * g;
  }
  const double n = static_cast<double>(a.size() - 1);
  const double mean = sum / n;
  const double sd = std::sqrt(sum2 / n - mean * mean);
  Check(std::fabs(mean - 0.005) < 0.005 * 0.03, "mean gap is 1/rate");
  Check(std::fabs(sd / mean - 1.0) < 0.03, "gaps are exponential");
  Check(perfbench::PoissonArrivals(10.0, 0.04, 1).empty(),
        "a window too short for one arrival has none");
}

void TestOpenLoopLateness() {
  // A request sent on time and served in 2 ms.
  const perfbench::OpenLoopTiming on_time{1.000, 1.000, 1.002};
  Check(std::fabs(on_time.latency() - 0.002) < 1e-12, "on-time latency");
  Check(on_time.lag() == 0.0, "on-time request has no lag");

  // The generator stalled: due at 1.0, sent at 1.5, served in 2 ms. The
  // user waited 502 ms, and the stall shows as lag, not as service time.
  const perfbench::OpenLoopTiming late{1.000, 1.500, 1.502};
  Check(std::fabs(late.latency() - 0.502) < 1e-12,
        "latency counts from due, not from sent");
  Check(std::fabs(late.lag() - 0.5) < 1e-12, "lag is sent minus due");
  Check(std::fabs(late.service() - 0.002) < 1e-12,
        "service is ready minus sent");

  // A system stall of 100 ms hits every request due during it: requests
  // due every 10 ms all complete together at t = 0.1.
  perfbench::OpenLoopLedger ledger;
  for (int i = 0; i < 10; ++i) {
    const double due = 0.01 * i;
    ledger.Record({due, due, 0.1});
  }
  const std::vector<double> lat = ledger.LatenciesMs();
  Check(ledger.size() == 10, "ledger keeps every request");
  Check(std::fabs(lat.front() - 100.0) < 1e-9 &&
            std::fabs(lat.back() - 10.0) < 1e-9,
        "a stall charges each request from its own due time");
  Check(ledger.WithinMs(55.0) == 5, "requests within the limit");
  const std::vector<double> lags = ledger.LagsMs();
  Check(*std::max_element(lags.begin(), lags.end()) == 0.0,
        "a system stall is not generator lag");
}

}  // namespace

int main() {
  TestNearestRankEdgeCases();
  TestNearestRankAgainstOracle();
  TestTailPercentile();
  TestPoissonArrivals();
  TestOpenLoopLateness();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_stats_test: %d check(s) failed\n",
                 failures);
    return 1;
  }
  std::printf("perfbench_stats_test: OK\n");
  return 0;
}
