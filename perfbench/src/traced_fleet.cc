#include "traced_fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "fleet/pool.h"
#include "measure.h"
#include "server/simulation.h"

namespace perfbench {

namespace {

// Opens a span on one shard's books; Close charges its self time.
struct Span {
  explicit Span(ShardSpans* s) : spans(s), start(NowNs()), outer_child(s->child_ns) {
    s->child_ns = 0;
  }
  void Close(int64_t* layer) {
    int64_t dur = NowNs() - start;
    *layer += dur - spans->child_ns;
    spans->child_ns = outer_child + dur;
  }
  ShardSpans* spans;
  int64_t start;
  int64_t outer_child;
};

}  // namespace

// The uplink as ShardedFleet builds it, with Send timed.
class TracedFleet::TimedChannel : public kc::Channel {
 public:
  TimedChannel(Config config, ShardSpans* spans)
      : kc::Channel(config), spans_(spans) {}

  kc::Status Send(const kc::Message& msg) override {
    Span span(spans_);
    kc::Status s = kc::Channel::Send(msg);
    span.Close(&spans_->send_ns);
    ++spans_->sends;
    return s;
  }

 private:
  ShardSpans* spans_;
};

TracedFleet::TracedFleet(const FleetWorkload& workload,
                         std::vector<SourceInput> sources, bool obs)
    : server_(workload.config.num_shards > 0
                  ? workload.config.num_shards
                  : std::max<size_t>(std::max<size_t>(workload.config.threads, 1), 8)),
      shards_(server_.num_shards()),
      spans_(server_.num_shards()),
      pool_(std::max<size_t>(workload.config.threads, 1)) {
  const kc::ShardedFleet::Config& config = workload.config;
  server_.SetControlSink([this](const kc::Message& msg) -> kc::Status {
    auto idx = static_cast<size_t>(msg.source_id);
    if (idx >= by_id_.size()) return kc::Status::NotFound("unknown source");
    return by_id_[idx]->control->Send(msg);
  });
  if (config.recovery.enabled) server_.SetRecovery(config.recovery);
  if (!config.simd) server_.SetSimdEnabled(false);
  if (obs) {
    server_.EnableMetrics();
    server_.EnableHealth();
    server_.EnableAudit(WorkloadAuditConfig());
  }

  for (SourceInput& in : sources) {
    auto id = static_cast<int32_t>(by_id_.size());
    size_t shard_index = server_.ShardOf(id);
    auto slot = std::make_unique<Slot>();
    slot->id = id;
    std::unique_ptr<kc::Predictor> predictor = std::move(in.predictor);
    if (config.pooling) {
      if (auto pooled = kc::MakePooledPredictor(
              *predictor, server_.shard_pools(shard_index))) {
        predictor = std::move(pooled);
        ++pooled_;
      }
    }
    slot->generator = std::move(in.generator);
    slot->generator->Reset(kc::SourceGeneratorSeed(config.seed, id));

    ShardSpans* spans = &spans_[shard_index];
    kc::Channel::Config uplink_config = config.channel;
    uplink_config.seed = kc::SourceUplinkSeed(config.seed, id);
    slot->uplink = std::make_unique<TimedChannel>(uplink_config, spans);
    kc::StreamServer* shard_server = &server_.shard(shard_index);
    Shard* shard = &shards_[shard_index];
    slot->uplink->SetReceiver([shard_server, spans, shard](const kc::Message& msg) {
      Span span(spans);
      (void)shard_server->OnMessage(msg);  // Rejections heal by re-INIT.
      span.Close(&spans->apply_ns);
      ++spans->applies;
      auto& frame = shard->frames[static_cast<size_t>(msg.type)];
      if (frame == nullptr) frame = std::make_unique<kc::Message>(msg);
    });
    kc::Status reg = server_.RegisterSource(id, predictor->Clone());
    (void)reg;  // Ids are fresh and dense.

    kc::AgentConfig agent_config = config.agent_base;
    agent_config.delta = in.delta;
    slot->agent = std::make_unique<kc::SourceAgent>(
        id, std::move(predictor), agent_config, slot->uplink.get());

    kc::Channel::Config control_config = config.control_channel;
    control_config.seed = kc::SourceControlSeed(config.seed, id);
    slot->control = std::make_unique<kc::Channel>(control_config);
    kc::SourceAgent* agent = slot->agent.get();
    slot->control->SetReceiver([agent, spans](const kc::Message& msg) {
      (void)agent->OnControl(msg);
      ++spans->control_deliveries;
    });

    if (obs) {
      kc::obs::MetricRegistry* arena = server_.shard_metrics(shard_index);
      slot->uplink->BindMetrics(arena);
      slot->control->BindMetrics(arena);
      agent->BindMetrics(arena);
      agent->BindObservability(
          nullptr, server_.shard_health(shard_index)
                       ->ForSource(id, agent->predictor().dims()));
      slot->audit = server_.shard_audit(shard_index)->ForSource(id);
    }
    by_id_.push_back(slot.get());
    shards_[shard_index].sources.push_back(std::move(slot));
  }
  for (const auto& [name, spec] : workload.queries) {
    (void)server_.AddQuery(name, spec);  // Gated on num_queries().
  }
}

TracedFleet::~TracedFleet() = default;

void TracedFleet::StepShard(size_t index) {
  ShardSpans& spans = spans_[index];
  const int64_t shard_start = NowNs();
  {
    Span span(&spans);
    server_.TickShard(index, /*run_pool_sweep=*/false);
    span.Close(&spans.replica_tick_ns);
  }
  Shard& shard = shards_[index];
  for (auto& slot : shard.sources) {
    {
      int64_t applies = spans.applies;
      int64_t controls = spans.control_deliveries;
      Span span(&spans);
      slot->uplink->AdvanceTick();
      slot->control->AdvanceTick();
      span.Close(&spans.advance_ns);
      spans.advances += 2;
      spans.busy_advances += (spans.applies != applies ? 1 : 0) +
                             (spans.control_deliveries != controls ? 1 : 0);
    }
    kc::Sample sample;
    {
      Span span(&spans);
      sample = slot->generator->Next();
      span.Close(&spans.draw_ns);
    }
    Span span(&spans);
    kc::Status s = slot->agent->Offer(sample.measured);
    span.Close(&spans.offer_ns);
    if (!s.ok() && shard.status.ok()) shard.status = s;
  }
  kc::obs::PrecisionAuditor* auditor = server_.shard_audit(index);
  if (auditor != nullptr) {
    int64_t tick = server_.shard(index).ticks();
    if (auditor->ShouldSample(tick)) {
      Span span(&spans);
      const kc::StreamServer& shard_server = server_.shard(index);
      for (auto& slot : shard.sources) {
        const kc::ServerReplica* replica = shard_server.replica(slot->id);
        if (replica == nullptr || !replica->initialized() ||
            !slot->agent->initialized()) {
          continue;
        }
        kc::Vector predicted = replica->Value();
        kc::Vector target = slot->agent->ContractTarget();
        double err = 0.0;
        size_t dims = std::min(predicted.size(), target.size());
        for (size_t d = 0; d < dims; ++d) {
          err = std::max(err, std::abs(predicted[d] - target[d]));
        }
        slot->audit->Sample(tick, err, replica->bound(),
                            replica->TicksSinceHeard(), replica->desynced());
      }
      span.Close(&spans.audit_ns);
    }
  }
  spans.shard_ns = NowNs() - shard_start;
}

kc::Status TracedFleet::Step(bool record) {
  for (ShardSpans& s : spans_) s = ShardSpans();
  const int64_t t0 = NowNs();
  server_.SweepPools(&pool_);
  const int64_t t1 = NowNs();
  pool_.ParallelFor(shards_.size(), [this](size_t s) { StepShard(s); });
  const int64_t t2 = NowNs();
  std::vector<kc::QueryResult> results = server_.EvaluateDue();
  const int64_t t3 = NowNs();
  for (const Shard& shard : shards_) {
    if (!shard.status.ok()) return shard.status;
  }
  int64_t sends = 0;
  for (const ShardSpans& s : spans_) sends += s.sends;
  totals_.max_sends_per_tick = std::max(totals_.max_sends_per_tick, sends);
  if (!record) return kc::Status::Ok();

  LayerTotals& t = totals_;
  ++t.ticks;
  t.tick_ms.push_back(static_cast<double>(t3 - t0) * 1e-6);
  t.sweep_ns += static_cast<double>(t1 - t0);
  t.evaluate_ns += static_cast<double>(t3 - t2);
  double slowest = 0.0, sum = 0.0;
  for (const ShardSpans& s : spans_) {
    t.replica_tick_ns += static_cast<double>(s.replica_tick_ns);
    t.advance_ns += static_cast<double>(s.advance_ns);
    t.draw_ns += static_cast<double>(s.draw_ns);
    t.offer_ns += static_cast<double>(s.offer_ns);
    t.send_ns += static_cast<double>(s.send_ns);
    t.apply_ns += static_cast<double>(s.apply_ns);
    t.audit_ns += static_cast<double>(s.audit_ns);
    t.advances += s.advances;
    t.busy_advances += s.busy_advances;
    slowest = std::max(slowest, static_cast<double>(s.shard_ns));
    sum += static_cast<double>(s.shard_ns);
  }
  if (sum > 0) {
    t.skew.push_back(slowest / (sum / static_cast<double>(spans_.size())));
  }
  t.queries_due += static_cast<int64_t>(server_.num_queries());
  for (const kc::QueryResult& r : results) {
    ++t.query_answers;
    t.query_degraded += r.degraded ? 1 : 0;
    t.query_meets_within += r.meets_within ? 1 : 0;
  }
  for (const Slot* slot : by_id_) {
    t.degraded_replica_ticks += server_.IsDesynced(slot->id) ? 1 : 0;
  }
  return kc::Status::Ok();
}

kc::NetworkStats TracedFleet::UplinkStats() const {
  kc::NetworkStats merged;
  for (const Slot* slot : by_id_) merged.Merge(slot->uplink->stats());
  return merged;
}

kc::NetworkStats TracedFleet::ControlStats() const {
  kc::NetworkStats merged;
  for (const Slot* slot : by_id_) merged.Merge(slot->control->stats());
  return merged;
}

std::vector<kc::Message> TracedFleet::SampleFrames() const {
  std::vector<kc::Message> out;
  for (size_t type = 0; type < kc::kNumMessageTypes; ++type) {
    for (const Shard& shard : shards_) {
      if (shard.frames[type] != nullptr) {
        out.push_back(*shard.frames[type]);
        break;
      }
    }
  }
  return out;
}

namespace {

std::vector<std::string> Answers(const kc::ShardedServer& server, size_t n) {
  std::vector<std::string> out;
  out.reserve(n);
  char buf[64];
  for (size_t id = 0; id < n; ++id) {
    auto answer = server.SourceValue(static_cast<int32_t>(id));
    if (!answer.ok()) {
      out.push_back(answer.status().ToString());
      continue;
    }
    std::string line;
    for (size_t d = 0; d < answer->value.size(); ++d) {
      std::snprintf(buf, sizeof(buf), "%a ", answer->value[d]);
      line += buf;
    }
    std::snprintf(buf, sizeof(buf), "bound=%a seq=%lld%s", answer->bound,
                  static_cast<long long>(answer->last_heard_seq),
                  answer->degraded ? " degraded" : "");
    out.push_back(line + buf);
  }
  return out;
}

std::string Books(const kc::NetworkStats& stats) {
  return stats.ToString() + "\n" + stats.SentLine() + "\n" +
         stats.DeliveredLine();
}

}  // namespace

FleetSnapshot Snapshot(const kc::ShardedFleet& fleet) {
  return {Books(fleet.TotalNetworkStats()), fleet.TotalControlMessages(),
          Answers(fleet.server(), fleet.num_sources())};
}

FleetSnapshot Snapshot(const TracedFleet& fleet) {
  return {Books(fleet.UplinkStats()), fleet.ControlStats().messages_sent,
          Answers(fleet.server(), fleet.num_sources())};
}

std::string Diff(const FleetSnapshot& a, const FleetSnapshot& b) {
  if (a.uplink != b.uplink) return "uplink books: " + a.uplink + " vs " + b.uplink;
  if (a.control_messages != b.control_messages) {
    return "control messages: " + std::to_string(a.control_messages) + " vs " +
           std::to_string(b.control_messages);
  }
  if (a.answers.size() != b.answers.size()) return "source counts differ";
  for (size_t i = 0; i < a.answers.size(); ++i) {
    if (a.answers[i] != b.answers[i]) {
      return "source " + std::to_string(i) + ": " + a.answers[i] + " vs " +
             b.answers[i];
    }
  }
  return "";
}

std::string TracedLoopDiff(const FleetWorkload& w, int64_t ticks) {
  FleetSnapshot untraced;
  {
    auto fleet = BuildFleet(w, w.make_sources(w.config.seed, w.num_sources), w.obs);
    for (int64_t t = 0; t < ticks; ++t) {
      kc::Status s;
      FleetTick(*fleet, &s);
      if (!s.ok()) return "untraced step: " + s.ToString();
    }
    untraced = Snapshot(*fleet);
  }
  TracedFleet traced(w, w.make_sources(w.config.seed, w.num_sources), w.obs);
  for (int64_t t = 0; t < ticks; ++t) {
    kc::Status s = traced.Step(false);
    if (!s.ok()) return "traced step: " + s.ToString();
  }
  return Diff(untraced, Snapshot(traced));
}

}  // namespace perfbench
