#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

// Index of the nearest-rank p-th percentile in a sorted run of n >= 1.
size_t RankIndex(size_t n, double p) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  if (rank < 1.0) rank = 1.0;
  return std::min(n, static_cast<size_t>(rank)) - 1;
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  size_t k = RankIndex(values.size(), p);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

int64_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return static_cast<int64_t>(n - 1 - RankIndex(n, p));
}

double HighestSupportedPercentile(size_t n, const std::vector<double>& candidates,
                                  int64_t min_beyond) {
  double best = -1.0;
  for (double p : candidates) {
    if (SamplesBeyond(n, p) >= min_beyond) best = std::max(best, p);
  }
  return best;
}

std::string HistogramLine(const std::vector<double>& values, int bins) {
  const double lo = Percentile(values, 1), hi = Percentile(values, 99);
  std::vector<int64_t> counts(static_cast<size_t>(bins), 0);
  for (double v : values) {
    double pos = hi > lo ? (v - lo) / (hi - lo) * bins : 0.0;
    auto bin = static_cast<int64_t>(std::clamp(pos, 0.0, bins - 1.0));
    ++counts[static_cast<size_t>(bin)];
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g %.6g", lo, hi);
  std::string out = buf;
  for (int64_t c : counts) out += " " + std::to_string(c);
  return out;
}

double PeakRssMb() {
  rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

std::string ResultJson(bool correct, const FailureBook& book,
                       const std::vector<MetricValue>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(book.attempted);
  out += ", \"failed\": " + std::to_string(book.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
