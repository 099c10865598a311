// The traced step loop: the fleet of a workload rebuilt from the program's
// public parts (ShardedServer, Channel, StreamGenerator, SourceAgent) and
// stepped in ShardedFleet::StepShard order, with a timer around every call
// into a layer. Spans are kept as per-shard sums; nothing inside the
// program is instrumented.

#ifndef PERFBENCH_TRACED_FLEET_H_
#define PERFBENCH_TRACED_FLEET_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/sharded_server.h"
#include "fleet/thread_pool.h"
#include "net/channel.h"
#include "server/query.h"
#include "suppression/agent.h"
#include "workloads.h"

namespace perfbench {

/// Self time (ns) per layer and counts one shard worker gathers. Spans
/// nest: an Offer contains its Send, a Send contains the apply it
/// delivers on a zero-latency link, and an AdvanceTick contains the
/// applies of due messages; each span's time is charged to its own layer
/// minus the time of the spans inside it.
struct alignas(64) ShardSpans {
  int64_t child_ns = 0;  ///< Time of the closed spans inside the open one.
  int64_t replica_tick_ns = 0;
  int64_t advance_ns = 0;
  int64_t draw_ns = 0;
  int64_t offer_ns = 0;
  int64_t send_ns = 0;
  int64_t apply_ns = 0;
  int64_t audit_ns = 0;
  int64_t shard_ns = 0;  ///< This tick's whole shard step (for skew).
  int64_t applies = 0;
  int64_t control_deliveries = 0;
  int64_t advances = 0;
  int64_t busy_advances = 0;  ///< Advances that delivered anything.
  int64_t sends = 0;
};

/// Whole-run totals of the traced loop, self times per layer.
struct LayerTotals {
  int64_t ticks = 0;
  double sweep_ns = 0, replica_tick_ns = 0, advance_ns = 0, draw_ns = 0,
         offer_ns = 0, send_ns = 0, apply_ns = 0, audit_ns = 0,
         evaluate_ns = 0;
  int64_t advances = 0, busy_advances = 0;
  std::vector<double> skew;  ///< Slowest / mean shard busy time, per tick.
  std::vector<double> tick_ms;
  int64_t max_sends_per_tick = 0;  ///< Over every tick, INIT included.
  int64_t queries_due = 0;  ///< Query evaluations asked for.
  int64_t query_answers = 0, query_degraded = 0, query_meets_within = 0;
  int64_t degraded_replica_ticks = 0;
};

class TracedFleet {
 public:
  /// Builds the workload's fleet: the same seeds, pooling, shard layout,
  /// recovery, queries and (when `obs`) metrics, health and audit as
  /// BuildFleet, driven by a ThreadPool of config.threads.
  TracedFleet(const FleetWorkload& workload, std::vector<SourceInput> sources,
              bool obs);

  ~TracedFleet();

  TracedFleet(const TracedFleet&) = delete;
  TracedFleet& operator=(const TracedFleet&) = delete;

  /// One tick: SweepPools, then per shard TickShard(i, false) and per
  /// source uplink/control AdvanceTick, Next, Offer (and the audit pass),
  /// then EvaluateDue. The tick's spans are added to totals() when
  /// `record` is set.
  kc::Status Step(bool record);

  const LayerTotals& totals() const { return totals_; }
  const kc::ShardedServer& server() const { return server_; }
  const kc::SourceAgent& agent(int32_t id) const { return *by_id_[id]->agent; }
  size_t num_sources() const { return by_id_.size(); }
  int64_t pooled_sources() const { return pooled_; }

  kc::NetworkStats UplinkStats() const;
  kc::NetworkStats ControlStats() const;

  /// One delivered uplink frame of each message type seen, for timing
  /// the codec over this run's frame mix.
  std::vector<kc::Message> SampleFrames() const;

 private:
  class TimedChannel;
  struct Slot {
    int32_t id = 0;
    std::unique_ptr<kc::StreamGenerator> generator;
    std::unique_ptr<TimedChannel> uplink;
    std::unique_ptr<kc::Channel> control;
    std::unique_ptr<kc::SourceAgent> agent;
    kc::obs::SourceAudit* audit = nullptr;
  };
  struct Shard {
    std::vector<std::unique_ptr<Slot>> sources;
    kc::Status status;
    std::array<std::unique_ptr<kc::Message>, kc::kNumMessageTypes> frames;
  };

  void StepShard(size_t index);

  kc::ShardedServer server_;
  std::vector<Shard> shards_;
  std::vector<ShardSpans> spans_;
  std::vector<Slot*> by_id_;
  kc::ThreadPool pool_;
  int64_t pooled_ = 0;
  LayerTotals totals_;
};

/// Books and answers of a fleet after some ticks: NetworkStats lines,
/// control traffic, and every source's answer bit for bit.
struct FleetSnapshot {
  std::string uplink;
  int64_t control_messages = 0;
  std::vector<std::string> answers;
};
FleetSnapshot Snapshot(const kc::ShardedFleet& fleet);
FleetSnapshot Snapshot(const TracedFleet& fleet);

/// Empty when equal, else the first difference.
std::string Diff(const FleetSnapshot& a, const FleetSnapshot& b);

/// Runs the workload for `ticks` ticks as a ShardedFleet and as a
/// TracedFleet and returns the first difference of their books or
/// answers (empty when identical).
std::string TracedLoopDiff(const FleetWorkload& workload, int64_t ticks);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_FLEET_H_
