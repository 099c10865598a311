// Measurement helpers of the closed-loop benchmark: clocks, percentiles,
// peak memory, failure books and the one-line JSON result.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Median of `values` (the 50th nearest-rank percentile).
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// Samples that lie strictly beyond the nearest-rank p-th percentile of n.
int64_t SamplesBeyond(size_t n, double p);

/// The highest of `candidates` that leaves at least `min_beyond` samples
/// beyond it in a run of n samples, or -1 when none does. A timing is
/// reported as its median plus this percentile, so a tail figure always
/// rests on at least ten samples.
double HighestSupportedPercentile(size_t n, const std::vector<double>& candidates,
                                  int64_t min_beyond = 10);

/// "lo hi c1 .. cN": counts of `values` in N equal bins over [lo, hi],
/// lo and hi the 1st and 99th percentiles (outliers go to the end bins).
std::string HistogramLine(const std::vector<double>& values, int bins = 24);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Operations checked against their contract, and how many broke it.
struct FailureBook {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Add(int64_t checked, int64_t broken) {
    attempted += checked;
    failed += broken;
  }
  /// failed / attempted; 0 when nothing was attempted.
  double Share() const {
    return attempted > 0
               ? static_cast<double>(failed) / static_cast<double>(attempted)
               : 0.0;
  }
};

struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}. Values
/// must be finite; they keep every digit (%.17g).
std::string ResultJson(bool correct, const FailureBook& book,
                       const std::vector<MetricValue>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
