// Closed-loop benchmark of kalmancast.
//
//   kcbench --workload fleet_quiet|fleet_chatty|split_loopback --seed N
//           --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with nothing traced; --trace 1
// runs the traced step loop and reports per-layer metrics. Either way the
// last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See NOTES.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "measure.h"
#include "net/codec.h"
#include "split.h"
#include "traced_fleet.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;             // Set-ups per run; setup_s is their median.
constexpr int64_t kWarmupTicks = 100;  // Untimed ticks after INIT.
constexpr int64_t kBookTicks = 400;    // Window of the per-source-tick books.
constexpr int64_t kGateTicks = 60;     // Traced-equality gate of an untraced run.
constexpr int64_t kTraceTicksPerSecond = 200;  // Alternated ticks of a traced run.
constexpr size_t kSplitTicks = 4000;   // Ticks per split session.

struct Result {
  bool correct = true;
  FailureBook book;
  std::vector<MetricValue> metrics;

  void Add(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    correct = false;
    std::printf("FAIL: %s\n", why.c_str());
  }
};

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Containment of this tick's rotating eighth of the sources (ShardedFleet
// or TracedFleet).
template <typename Fleet>
void CheckContainment(const Fleet& fleet, int64_t tick, int64_t* checked,
                      int64_t* contained) {
  for (size_t i = 0; i < fleet.num_sources(); ++i) {
    auto id = static_cast<int32_t>(i);
    if (!CheckedThisTick(id, tick) || !fleet.agent(id).initialized()) continue;
    bool was_checked = false;
    bool ok = Contained(fleet.server(), id, fleet.agent(id).ContractTarget(),
                        &was_checked);
    *checked += was_checked ? 1 : 0;
    *contained += was_checked && ok ? 1 : 0;
  }
}

// Books uncontained answers as failures where the workload promises
// containment.
void GateContainment(Result* r, const FleetWorkload& w, int64_t checked,
                     int64_t contained) {
  if (!w.containment_promised) return;
  r->book.Add(checked, checked - contained);
  if (checked != contained) {
    r->Fail(std::to_string(checked - contained) + " answers outside their bound");
  }
}

// Builds the workload's fleet and runs its INIT tick. `seconds`, when
// given, gets the time from construction to the end of the INIT tick;
// input generation is not part of it.
std::unique_ptr<kc::ShardedFleet> SetUp(const FleetWorkload& w, bool obs,
                                        kc::Status* status,
                                        double* seconds = nullptr) {
  auto sources = w.make_sources(w.config.seed, w.num_sources);
  const int64_t t0 = NowNs();
  auto fleet = BuildFleet(w, std::move(sources), obs);
  FleetTick(*fleet, status);
  if (seconds != nullptr) *seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  return fleet;
}

Result FleetEndToEnd(const FleetWorkload& w, double seconds) {
  Result r;
  kc::Status status;
  // The timed fleet is the process's first, on a fresh heap; the other
  // set-ups run after it, so they cannot scatter its memory.
  std::vector<double> setup_s(kSetups, 0.0);
  auto fleet = SetUp(w, w.obs, &status, &setup_s[0]);
  if (fleet->server().num_queries() != w.queries.size()) {
    r.Fail("a continuous query was rejected");
  }
  for (int64_t t = 0; t < kWarmupTicks && status.ok(); ++t) FleetTick(*fleet, &status);

  const auto queries = static_cast<int64_t>(w.queries.size());
  std::vector<double> tick_ms;
  int64_t timed_ns = 0, checked = 0, contained = 0, query_errors = 0;
  kc::NetworkStats books;
  const auto budget_ns = static_cast<int64_t>(seconds * 1e9);
  while (status.ok() &&
         (timed_ns < budget_ns || fleet->ticks() < kBookTicks)) {
    const int64_t t0 = NowNs();
    int64_t answers = FleetTick(*fleet, &status);
    const int64_t dt = NowNs() - t0;
    timed_ns += dt;
    tick_ms.push_back(Ms(dt));
    query_errors += queries - answers;
    CheckContainment(*fleet, fleet->ticks(), &checked, &contained);
    if (fleet->ticks() == kBookTicks) books = fleet->TotalNetworkStats();
  }
  const double rss_mb = PeakRssMb();
  fleet.reset();
  for (int rep = 1; rep < kSetups && status.ok(); ++rep) {
    SetUp(w, w.obs, &status, &setup_s[static_cast<size_t>(rep)]);
  }
  if (!status.ok()) {
    r.Fail("step: " + status.ToString());
    return r;
  }
  const auto ticks = static_cast<int64_t>(tick_ms.size());
  r.book.Add(queries * ticks, query_errors);
  if (query_errors > 0) r.Fail(std::to_string(query_errors) + " query errors");
  GateContainment(&r, w, checked, contained);
  std::string diff = TracedLoopDiff(w, kGateTicks);
  if (!diff.empty()) r.Fail("traced loop differs: " + diff);
  if (HighestSupportedPercentile(tick_ms.size(), {90.0}) != 90.0) {
    r.Fail("too few ticks for a p90");
  }
  std::printf("%s: %lld timed ticks, %lld containment checks\n", w.name.c_str(),
              static_cast<long long>(ticks), static_cast<long long>(checked));
  std::printf("tick_ms histogram: %s\n", HistogramLine(tick_ms).c_str());

  const double n = w.num_sources;
  r.Add("setup_s", Median(setup_s), "s");
  r.Add("tick_ms_p50", Percentile(tick_ms, 50), "ms");
  r.Add("tick_ms_p90", Percentile(tick_ms, 90), "ms");
  r.Add("sources_per_s", n * static_cast<double>(ticks) / (timed_ns * 1e-9), "1/s");
  const double source_ticks = n * static_cast<double>(kBookTicks);
  r.Add("msgs_per_source_tick", books.messages_sent / source_ticks, "count");
  r.Add("bytes_per_source_tick", books.bytes_sent / source_ticks, "B");
  r.Add("contained_frac",
        checked > 0 ? static_cast<double>(contained) / checked : 0.0, "frac");
  r.Add("delivered_frac",
        books.messages_sent > 0
            ? 1.0 - static_cast<double>(books.messages_dropped) / books.messages_sent
            : 0.0,
        "frac");
  r.Add("rss_mb", rss_mb, "MiB");
  return r;
}

// Per-frame encode and decode time over a frame mix with the books'
// type proportions, one sample frame per type.
void TimeCodec(const std::vector<kc::Message>& samples,
               const kc::NetworkStats& books, double* encode_ns,
               double* decode_ns) {
  std::vector<kc::Message> mix;
  int64_t total = 0;
  for (const kc::Message& m : samples) {
    total += books.by_type_sent[static_cast<size_t>(m.type)];
  }
  for (const kc::Message& m : samples) {
    int64_t share = total > 0 ? books.by_type_sent[static_cast<size_t>(m.type)] *
                                    4096 / total
                              : 0;
    for (int64_t i = 0; i < std::max<int64_t>(share, 1); ++i) mix.push_back(m);
  }
  std::vector<double> enc, dec;
  std::vector<uint8_t> buf;
  buf.reserve(mix.size() * 128);
  kc::Message out;
  for (int rep = 0; rep < 9; ++rep) {
    buf.clear();
    int64_t t0 = NowNs();
    for (const kc::Message& m : mix) kc::codec::EncodeFrame(m, &buf);
    int64_t t1 = NowNs();
    size_t off = 0;
    while (off < buf.size()) {
      size_t consumed = 0;
      if (!kc::codec::DecodeFrame(buf.data() + off, buf.size() - off, &out,
                                  &consumed).ok()) {
        break;
      }
      off += consumed;
    }
    int64_t t2 = NowNs();
    enc.push_back(static_cast<double>(t1 - t0) / mix.size());
    dec.push_back(static_cast<double>(t2 - t1) / mix.size());
  }
  *encode_ns = Median(enc);
  *decode_ns = Median(dec);
}

// What a traced run of a fleet workload found.
struct Traced {
  double untraced_p50_ms = 0.0, traced_p50_ms = 0.0;
  double build_ms = 0.0, init_tick_ms = 0.0;
  LayerTotals totals;
  kc::NetworkStats uplink, control;
  std::vector<kc::Message> frames;
  int64_t pooled = 0, resyncs = 0, suppressed = 0, decisions = 0;
};

// Steps the workload's ShardedFleet and its TracedFleet alternately, one
// tick each, for `ticks` recorded ticks after INIT and warm-up, so both
// meet the same heap and host. Gates the traced loop's books, answers,
// queries and containment against the untraced run.
Traced TraceAgainst(Result* r, const FleetWorkload& w,
                    std::unique_ptr<kc::ShardedFleet>* untraced, int64_t ticks) {
  Traced out;
  kc::Status us;
  *untraced = SetUp(w, w.obs, &us);
  auto sources = w.make_sources(w.config.seed, w.num_sources);
  const int64_t t0 = NowNs();
  TracedFleet traced(w, std::move(sources), w.obs);
  const int64_t t1 = NowNs();
  kc::Status ts = traced.Step(false);
  out.build_ms = Ms(t1 - t0);
  out.init_tick_ms = Ms(NowNs() - t1);
  for (int64_t t = 0; t < kWarmupTicks && us.ok() && ts.ok(); ++t) {
    FleetTick(**untraced, &us);
    ts = traced.Step(false);
  }
  std::vector<double> untraced_ms;
  int64_t checked = 0, contained = 0;
  for (int64_t t = 0; t < ticks && us.ok() && ts.ok(); ++t) {
    const int64_t u0 = NowNs();
    FleetTick(**untraced, &us);
    untraced_ms.push_back(Ms(NowNs() - u0));
    ts = traced.Step(true);
    CheckContainment(traced, traced.server().ticks(), &checked, &contained);
  }
  if (!us.ok() || !ts.ok()) {
    r->Fail("step: " + us.ToString() + " / " + ts.ToString());
    return out;
  }
  std::string diff = Diff(Snapshot(**untraced), Snapshot(traced));
  if (!diff.empty()) r->Fail("traced loop differs: " + diff);
  GateContainment(r, w, checked, contained);
  const LayerTotals& l = traced.totals();
  r->book.Add(l.queries_due, l.queries_due - l.query_answers);
  if (l.query_answers != l.queries_due) r->Fail("traced loop: query errors");
  std::printf("%s traced: %lld alternated ticks\n", w.name.c_str(),
              static_cast<long long>(ticks));

  out.untraced_p50_ms = Percentile(untraced_ms, 50);
  out.traced_p50_ms = Percentile(l.tick_ms, 50);
  out.totals = l;
  out.uplink = traced.UplinkStats();
  out.control = traced.ControlStats();
  out.frames = traced.SampleFrames();
  out.pooled = traced.pooled_sources();
  for (size_t i = 0; i < traced.num_sources(); ++i) {
    auto id = static_cast<int32_t>(i);
    const kc::AgentStats& a = traced.agent(id).stats();
    out.suppressed += a.suppressed;
    out.decisions += a.corrections + a.full_syncs + a.suppressed;
    out.resyncs += traced.server().replica(id)->resyncs_requested();
  }
  return out;
}

// The per-layer metrics of the traced fleet loop (on split: of its
// simulated twin).
void AddFleetLayers(Result* r, const FleetWorkload& w, const Traced& t,
                    double obs_overhead_pct) {
  const LayerTotals& l = t.totals;
  const double ticks = std::max<double>(static_cast<double>(l.ticks), 1.0);
  auto per_tick_ms = [&](double ns) { return ns * 1e-6 / ticks; };
  auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  r->Add("fleet.sweep_ms", per_tick_ms(l.sweep_ns), "ms");
  r->Add("server.replica_tick_ms", per_tick_ms(l.replica_tick_ns), "ms");
  r->Add("net.advance_ms", per_tick_ms(l.advance_ns), "ms");
  r->Add("net.advance_busy_frac", frac(l.busy_advances, l.advances), "frac");
  r->Add("fleet.shard_skew", Median(l.skew), "ratio");
  r->Add("fleet.build_ms", t.build_ms, "ms");
  r->Add("fleet.init_tick_ms", t.init_tick_ms, "ms");
  r->Add("fleet.pooled_frac", frac(t.pooled, w.num_sources), "frac");
  r->Add("suppression.offer_ms", per_tick_ms(l.offer_ns), "ms");
  r->Add("suppression.suppressed_frac", frac(t.suppressed, t.decisions), "frac");
  r->Add("server.apply_ms", per_tick_ms(l.apply_ns), "ms");
  r->Add("net.send_ms", per_tick_ms(l.send_ns), "ms");
  for (kc::MessageType type :
       {kc::MessageType::kInit, kc::MessageType::kCorrection,
        kc::MessageType::kFullSync, kc::MessageType::kHeartbeat}) {
    r->Add(std::string("net.msgs_sent.") + kc::MessageTypeName(type),
           static_cast<double>(t.uplink.by_type_sent[static_cast<size_t>(type)]),
           "count");
  }
  r->Add("net.msgs_sent.RESYNC_REQUEST",
         static_cast<double>(t.control.by_type_sent[static_cast<size_t>(
             kc::MessageType::kResyncRequest)]),
         "count");
  r->Add("net.dropped", static_cast<double>(t.uplink.messages_dropped), "count");
  r->Add("server.resyncs_requested", static_cast<double>(t.resyncs), "count");
  r->Add("server.degraded_replica_ticks",
         static_cast<double>(l.degraded_replica_ticks), "count");
  r->Add("query.evaluate_ms", per_tick_ms(l.evaluate_ns), "ms");
  r->Add("query.answers", static_cast<double>(l.query_answers), "count");
  r->Add("query.degraded_frac", frac(l.query_degraded, l.query_answers), "frac");
  r->Add("query.meets_within_frac", frac(l.query_meets_within, l.query_answers),
         "frac");
  r->Add("obs.overhead_pct", obs_overhead_pct, "%");
  r->Add("streams.draw_ms", per_tick_ms(l.draw_ns), "ms");
  r->Add("trace.overhead_pct", (t.traced_p50_ms / t.untraced_p50_ms - 1.0) * 100.0,
         "%");
  double encode_ns = 0, decode_ns = 0;
  TimeCodec(t.frames, t.uplink, &encode_ns, &decode_ns);
  r->Add("net.encode_ns", encode_ns, "ns");
  r->Add("net.decode_ns", decode_ns, "ns");
  r->Add("net.datagrams_per_tick_max", static_cast<double>(l.max_sends_per_tick),
         "count");
  int64_t held = -1;
  for (const kc::Message& m : t.frames) {
    if (m.type == kc::MessageType::kInit) {
      held = RecvBufferDatagrams(kc::codec::Encode(m));
    }
  }
  r->Add("net.rcvbuf_headroom",
         held > 0 ? static_cast<double>(held) /
                        static_cast<double>(std::max<int64_t>(l.max_sends_per_tick, 1))
                  : 0.0,
         "ratio");
}

Result FleetLayers(const FleetWorkload& w, double seconds) {
  Result r;
  const int64_t ticks =
      std::max<int64_t>(1, static_cast<int64_t>(seconds * kTraceTicksPerSecond));
  std::unique_ptr<kc::ShardedFleet> untraced;
  Traced t = TraceAgainst(&r, w, &untraced, ticks);
  // Observability overhead: the same fleet against a twin with the
  // facilities flipped, alternated tick by tick.
  kc::Status us, fs;
  auto flipped = SetUp(w, !w.obs, &fs);
  for (int64_t i = 0; i < kWarmupTicks && fs.ok(); ++i) FleetTick(*flipped, &fs);
  std::vector<double> same_ms, flipped_ms;
  for (int64_t i = 0; i < ticks && us.ok() && fs.ok(); ++i) {
    int64_t t0 = NowNs();
    FleetTick(*untraced, &us);
    int64_t t1 = NowNs();
    FleetTick(*flipped, &fs);
    same_ms.push_back(Ms(t1 - t0));
    flipped_ms.push_back(Ms(NowNs() - t1));
  }
  if (!us.ok() || !fs.ok()) r.Fail("step: " + us.ToString() + " / " + fs.ToString());
  const double same = Percentile(same_ms, 50), other = Percentile(flipped_ms, 50);
  const double on = w.obs ? same : other, off = w.obs ? other : same;
  AddFleetLayers(&r, w, t, (on / off - 1.0) * 100.0);
  // The two halves of a tick: the sources' draws, offers and sends, and
  // the server's sweep, replica ticks, deliveries, applies, audit pass
  // and queries (busy time, summed over shards).
  const LayerTotals& l = t.totals;
  const double per_tick = 1e-6 / std::max<double>(static_cast<double>(l.ticks), 1.0);
  r.Add("loop.source_ms", (l.draw_ns + l.offer_ns + l.send_ns) * per_tick, "ms");
  r.Add("loop.server_ms",
        (l.sweep_ns + l.replica_tick_ns + l.advance_ns + l.apply_ns + l.audit_ns +
         l.evaluate_ns) * per_tick,
        "ms");
  double tick_sum = 0.0;
  for (double v : l.tick_ms) tick_sum += v;
  r.Add("loop.server_tick_ms", tick_sum / std::max<double>(l.tick_ms.size(), 1.0), "ms");
  r.Add("net.frames_rejected", 0.0, "count");
  return r;
}

// The split halves' books and answers against the simulated twin's.
void GateSession(Result* r, const SplitSession& s, const std::string& sent,
                 const std::string& delivered, double twin_mean) {
  r->book.Add(s.client.uplink.messages_sent,
              s.client.uplink.messages_sent - s.server.uplink.messages_delivered);
  if (s.client.uplink.SentLine() != sent) {
    r->Fail("client books differ from the twin: " + s.client.uplink.SentLine() +
            " vs " + sent);
  }
  if (s.server.uplink.DeliveredLine() != delivered) {
    r->Fail("server books differ from the twin: " +
            s.server.uplink.DeliveredLine() + " vs " + delivered);
  }
  if (s.server.frames_rejected != 0) r->Fail("server rejected frames");
  if (s.server.mean_value != twin_mean) r->Fail("server answers differ from the twin");
}

// Runs the twin for the session length; fills its books, its mean answer
// as RunSplitServer computes it, and its containment.
void RunTwin(const SplitWorkload& w, std::string* sent, std::string* delivered,
             double* mean, int64_t* checked, int64_t* contained) {
  auto fleet = BuildFleet(w.twin, w.twin.make_sources(w.twin.config.seed,
                                                       w.twin.num_sources),
                          false);
  kc::Status s;
  for (size_t t = 0; t < w.config.ticks && s.ok(); ++t) {
    FleetTick(*fleet, &s);
    CheckContainment(*fleet, fleet->ticks(), checked, contained);
  }
  kc::NetworkStats books = fleet->TotalNetworkStats();
  *sent = books.SentLine();
  *delivered = books.DeliveredLine();
  double sum = 0.0;
  int32_t valued = 0;
  for (size_t i = 0; i < fleet->num_sources(); ++i) {
    auto answer = fleet->server().SourceValue(static_cast<int32_t>(i));
    if (answer.ok() && !answer->value.empty()) {
      sum += answer->value[0];
      ++valued;
    }
  }
  *mean = valued > 0 ? sum / valued : 0.0;
}

Result SplitRun(uint64_t seed, double seconds, bool trace) {
  Result r;
  SplitWorkload w = SplitLoopback(seed, 200, kSplitTicks);
  std::string sent, delivered;
  double twin_mean = 0.0;
  int64_t checked = 0, contained = 0;
  RunTwin(w, &sent, &delivered, &twin_mean, &checked, &contained);
  r.book.Add(checked, checked - contained);
  if (checked != contained) r.Fail("twin answers outside their bound");

  std::vector<double> setup_s, tick_ms, offer_ms, ack_ms, server_ms, telemetry_ms;
  kc::NetworkStats first_books;
  int64_t sent_msgs = 0, delivered_msgs = 0, rejected = 0, sessions = 0;
  const int64_t start = NowNs();
  const auto budget_ns = static_cast<int64_t>(seconds * 1e9);
  while (sessions < 3 || NowNs() - start < budget_ns) {
    // Traced runs alternate sessions with the telemetry plane on, for the
    // observability overhead.
    const bool telemetry = trace && sessions % 2 == 1;
    SplitSession s = RunSplitSession(w, seed, kWarmupTicks, telemetry ? 32 : 0);
    ++sessions;
    if (!s.status.ok()) {
      r.Fail("split session: " + s.status.ToString());
      return r;
    }
    GateSession(&r, s, sent, delivered, twin_mean);
    if (telemetry) {
      telemetry_ms.insert(telemetry_ms.end(), s.tick_ms.begin(), s.tick_ms.end());
      continue;
    }
    if (sessions == 1) first_books = s.client.uplink;
    setup_s.push_back(s.setup_s);
    tick_ms.insert(tick_ms.end(), s.tick_ms.begin(), s.tick_ms.end());
    offer_ms.insert(offer_ms.end(), s.offer_ms.begin(), s.offer_ms.end());
    ack_ms.insert(ack_ms.end(), s.ack_wait_ms.begin(), s.ack_wait_ms.end());
    server_ms.insert(server_ms.end(), s.server_tick_ms.begin(),
                     s.server_tick_ms.end());
    sent_msgs += s.client.uplink.messages_sent;
    delivered_msgs += s.server.uplink.messages_delivered;
    rejected += s.server.frames_rejected;
  }
  std::printf("split_loopback: %lld sessions of %zu ticks, %zu timed ticks\n",
              static_cast<long long>(sessions), w.config.ticks, tick_ms.size());
  const double n = w.config.num_sources;
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  if (!trace) {
    std::printf("tick_ms histogram: %s\n", HistogramLine(tick_ms).c_str());
    if (HighestSupportedPercentile(tick_ms.size(), {90.0}) != 90.0) {
      r.Fail("too few ticks for a p90");
    }
    const double source_ticks = n * static_cast<double>(w.config.ticks);
    r.Add("setup_s", Median(setup_s), "s");
    r.Add("tick_ms_p50", Percentile(tick_ms, 50), "ms");
    r.Add("tick_ms_p90", Percentile(tick_ms, 90), "ms");
    r.Add("sources_per_s", n / (mean(tick_ms) * 1e-3), "1/s");
    r.Add("msgs_per_source_tick", first_books.messages_sent / source_ticks, "count");
    r.Add("bytes_per_source_tick", first_books.bytes_sent / source_ticks, "B");
    r.Add("contained_frac",
          checked > 0 ? static_cast<double>(contained) / checked : 0.0, "frac");
    r.Add("delivered_frac",
          sent_msgs > 0 ? static_cast<double>(delivered_msgs) / sent_msgs : 0.0,
          "frac");
    r.Add("rss_mb", PeakRssMb(), "MiB");
    return r;
  }
  // Fleet layers from the simulated twin, traced against its untraced run.
  std::unique_ptr<kc::ShardedFleet> untraced;
  Traced t = TraceAgainst(&r, w.twin, &untraced,
                          static_cast<int64_t>(w.config.ticks) - 1 - kWarmupTicks);
  AddFleetLayers(&r, w.twin, t,
                 (Percentile(telemetry_ms, 50) / Percentile(tick_ms, 50) - 1.0) *
                     100.0);
  r.Add("loop.source_ms", mean(offer_ms), "ms");
  r.Add("loop.server_ms", mean(ack_ms), "ms");
  r.Add("loop.server_tick_ms", mean(server_ms), "ms");
  r.Add("net.frames_rejected", static_cast<double>(rejected), "count");
  return r;
}

int Usage() {
  std::fprintf(stderr,
               "usage: kcbench --workload fleet_quiet|fleet_chatty|split_loopback "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return Usage();
  }
  Result r;
  if (workload == "fleet_quiet" || workload == "fleet_chatty") {
    FleetWorkload w =
        workload == "fleet_quiet" ? QuietFleet(seed) : ChattyFleet(seed);
    r = trace ? FleetLayers(w, seconds) : FleetEndToEnd(w, seconds);
  } else if (workload == "split_loopback") {
    r = SplitRun(seed, seconds, trace == 1);
  } else {
    return Usage();
  }
  for (MetricValue& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.Fail(m.name + " is not finite");
      m.value = 0.0;
    }
  }
  if (r.book.attempted < 1) r.Fail("no operation was checked");
  std::printf("%s\n", ResultJson(r.correct, r.book, r.metrics).c_str());
  return 0;
}
