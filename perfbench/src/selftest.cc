// Tests of the benchmark's own code: percentile choice, peak-RSS reading,
// failure-share arithmetic, the result line, the traced loop's equality
// with ShardedFleet, and split/twin book parity on a small fleet.
//
//   python3 perfbench/run.py --self-test

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "measure.h"
#include "split.h"
#include "traced_fleet.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Check(Percentile(v, 50) == 50 && Percentile(v, 90) == 90 &&
            Percentile(v, 100) == 100 && Percentile(v, 0) == 1,
        "nearest-rank percentiles of 1..100");
  Check(Percentile({}, 50) == 0 && Median({7}) == 7, "empty and single runs");
  Check(SamplesBeyond(100, 90) == 10 && SamplesBeyond(99, 90) == 9,
        "samples beyond p90");
  const std::vector<double> candidates = {50, 90, 99};
  Check(HighestSupportedPercentile(100, candidates) == 90,
        "100 samples support p90 but not p99");
  Check(HighestSupportedPercentile(99, candidates) == 50,
        "99 samples leave only 9 beyond p90");
  Check(HighestSupportedPercentile(1000, candidates) == 99,
        "1000 samples support p99");
  Check(HighestSupportedPercentile(15, candidates) == -1,
        "15 samples support no candidate");
}

void TestPeakRss() {
  const double before = PeakRssMb();
  std::vector<char> block(96u << 20);
  std::memset(block.data(), 1, block.size());
  const double after = PeakRssMb();
  Check(before > 0 && after - before >= 80 && block[block.size() / 2] == 1,
        "peak RSS rises by a touched 96 MiB block");
}

void TestFailureShare() {
  FailureBook book;
  Check(book.Share() == 0, "nothing attempted, nothing failed");
  book.Add(10, 1);
  book.Add(30, 0);
  Check(book.attempted == 40 && book.failed == 1 && book.Share() == 0.025,
        "failure share is failed / attempted");
  std::string json = ResultJson(true, book, {{"tick_ms_p50", 1.25, "ms"}});
  Check(json ==
            "{\"correct\": true, \"attempted\": 40, \"failed\": 1, \"metrics\": "
            "{\"tick_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}",
        "result line");
}

void TestTracedLoop() {
  Check(TracedLoopDiff(QuietFleet(3, 300), 80).empty(),
        "traced quiet fleet matches ShardedFleet");
  Check(TracedLoopDiff(ChattyFleet(3, 300), 80).empty(),
        "traced chatty fleet (loss, latency, recovery, queries, obs) matches");
  // The check has teeth: another seed's traced run differs.
  FleetWorkload a = ChattyFleet(3, 300), b = ChattyFleet(4, 300);
  auto fleet = BuildFleet(a, a.make_sources(a.config.seed, a.num_sources), a.obs);
  TracedFleet traced(b, b.make_sources(b.config.seed, b.num_sources), b.obs);
  kc::Status s;
  for (int t = 0; t < 20; ++t) {
    FleetTick(*fleet, &s);
    (void)traced.Step(false);
  }
  Check(!Diff(Snapshot(*fleet), Snapshot(traced)).empty(),
        "a different seed is caught");
}

void TestSplitParity() {
  SplitWorkload w = SplitLoopback(5, 20, 200);
  SplitSession session = RunSplitSession(w, 5, 10);
  Check(session.status.ok(), "split session runs");
  auto twin = BuildFleet(w.twin, w.twin.make_sources(5, 20), false);
  kc::Status s;
  for (int t = 0; t < 200; ++t) FleetTick(*twin, &s);
  kc::NetworkStats books = twin->TotalNetworkStats();
  Check(session.client.uplink.SentLine() == books.SentLine() &&
            session.server.uplink.DeliveredLine() == books.DeliveredLine(),
        "split books equal the simulated twin's");
  Check(session.tick_ms.size() == 189 && session.setup_s > 0,
        "split ticks timed from outside");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestPeakRss();
  perfbench::TestFailureShare();
  perfbench::TestTracedLoop();
  perfbench::TestSplitParity();
  std::printf("%d failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
