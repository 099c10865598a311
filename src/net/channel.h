#ifndef KALMANCAST_NET_CHANNEL_H_
#define KALMANCAST_NET_CHANNEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "net/fault.h"
#include "net/message.h"
#include "obs/metrics.h"

namespace kc {

/// Aggregate transfer accounting for one channel.
///
/// This struct is the *per-channel* view; when a channel is bound to a
/// metric arena (Channel::BindMetrics) every event is mirrored onto the
/// arena's shared `kc.net.*` counters, which aggregate across all
/// channels bound to it. ToString/Merge stay the thin per-channel/merged
/// read surface the experiments report.
///
/// Accounting invariant: once the link is drained,
///   delivered = sent - dropped + duplicated
/// (without duplication faults this is the familiar sent = delivered +
/// dropped). burst_drops and partition_drops are subsets of
/// messages_dropped attributing the cause.
struct NetworkStats {
  int64_t messages_sent = 0;
  int64_t messages_delivered = 0;
  int64_t messages_dropped = 0;
  int64_t bytes_sent = 0;
  int64_t bytes_delivered = 0;
  /// Fault-injection events (see net/fault.h).
  int64_t messages_duplicated = 0;
  int64_t messages_reordered = 0;
  int64_t burst_drops = 0;
  int64_t partition_drops = 0;
  /// Per-type delivered counts, indexed by MessageType.
  int64_t by_type[kNumMessageTypes] = {};
  /// Per-type sent and dropped counts, indexed by MessageType. Together
  /// with `by_type` (delivered) they make loss visible per message kind.
  int64_t by_type_sent[kNumMessageTypes] = {};
  int64_t by_type_dropped[kNumMessageTypes] = {};
  /// Per-type byte totals, indexed by MessageType. Charged from the same
  /// SizeBytes() == encoded-frame-size model as the aggregate byte
  /// counters, so a simulated Channel and a SocketChannel running the
  /// same workload report identical breakdowns (the byte-parity contract
  /// in docs/PROTOCOL.md).
  int64_t by_type_bytes_sent[kNumMessageTypes] = {};
  int64_t by_type_bytes_delivered[kNumMessageTypes] = {};

  void Reset() { *this = NetworkStats(); }

  /// Accumulates another channel's counters into this one — how a sharded
  /// deployment merges shard-local stats into the fleet-wide view on read.
  void Merge(const NetworkStats& other);

  /// "sent=... delivered=... dropped=... bytes_sent=... bytes_delivered=...
  ///  by_type=[TYPE:sent/delivered/dropped ...]
  ///  bytes_by_type=[TYPE:sent/delivered ...]", followed by a
  /// " faults=[...]" section only when fault events occurred.
  std::string ToString() const;

  /// Normalized one-line send-side books:
  ///   "sent=N bytes=B by_type=[TYPE:count/bytes ...]"
  /// Identical strings from a simulated run's merged stats and a socket
  /// sender's stats mean identical books — the diffable surface the
  /// split-process CI smoke compares (scripts/ci_asan.sh).
  std::string SentLine() const;
  /// Normalized one-line delivery-side books, same shape as SentLine.
  std::string DeliveredLine() const;
};

/// Simulated source-to-server link with exact message/byte accounting —
/// the measurement instrument for every communication-overhead experiment.
///
/// Delivery is synchronous (the receiver callback runs inside Send), which
/// keeps the source and server replicas in lockstep exactly as the paper's
/// protocol requires. Loss, latency, and the FaultConfig fault model
/// (burst loss, duplication, bounded reordering, partitions) stress the
/// recovery protocol; the paper's exact precision contract holds on a
/// lossless channel, and recovery (docs/PROTOCOL.md, "Recovery & fault
/// model") restores it within a bounded window after faults.
///
/// Channel is also the transport seam: Send() and AdvanceTick() are
/// virtual, and net/transport.h's SocketChannel reimplements them over
/// real UDP/TCP sockets while reusing this class's accounting (the
/// protected Account* helpers), so NetworkStats and the mirrored kc.net.*
/// metrics mean the same thing on every backend. This simulated
/// implementation stays the deterministic test backend.
class Channel {
 public:
  using Receiver = std::function<void(const Message&)>;

  struct Config {
    double loss_prob = 0.0;
    /// Fixed delivery delay in stream ticks. 0 = synchronous delivery
    /// inside Send() (the protocol's lockstep assumption); > 0 requires
    /// the driver to call AdvanceTick() once per stream tick, and exposes
    /// the transit window during which the server's view lags the source.
    int64_t latency_ticks = 0;
    uint64_t seed = 42;
    /// Injected faults beyond i.i.d. loss (net/fault.h). Reordering and
    /// partitions queue messages, so they require the driver to call
    /// AdvanceTick() once per stream tick, like latency.
    FaultConfig faults;
  };

  Channel();
  explicit Channel(Config config);
  virtual ~Channel() = default;

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Installs the delivery callback (the server side).
  void SetReceiver(Receiver receiver) { receiver_ = std::move(receiver); }

  /// Mirrors this channel's accounting onto `registry`'s `kc.net.*`
  /// counters (shared with every other channel bound to the same arena).
  /// Call before traffic flows; the mirror starts at the current event.
  /// In a sharded fleet, each channel binds to its owning shard's arena
  /// so hot-path recording never crosses shard boundaries. Channels with
  /// faults configured additionally register `kc.net.faults.*`.
  void BindMetrics(obs::MetricRegistry* registry);

  /// Transfers one message: charges it to the stats, applies the fault
  /// model and loss, then either invokes the receiver (zero delay) or
  /// queues it for delivery `latency_ticks` (+ any reordering delay)
  /// AdvanceTick() calls later. During a partition window the message is
  /// dropped. Fails if no receiver is installed.
  virtual Status Send(const Message& msg);

  /// Advances simulated time one tick and delivers every due in-flight
  /// message (in send order; reordered messages wait for their extra
  /// delay). During a partition window nothing is delivered — held
  /// messages drain on the first tick after the window closes. No-op on
  /// zero-latency fault-free channels. Socket backends use this same
  /// call to drain their receive path, so drivers advance every Channel
  /// identically regardless of backend.
  virtual void AdvanceTick();

  /// Messages currently in flight (latency/reorder/partition-hold).
  size_t in_flight() const { return pending_.size(); }

  /// True if the link is currently inside a scheduled partition window.
  bool InPartitionNow() const { return config_.faults.InPartition(now_); }
  /// True if the Gilbert–Elliott chain is in its bursty (bad) state.
  bool in_burst() const { return injector_.in_burst(); }

  const NetworkStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 protected:
  /// Accounting seam shared with transport backends (net/transport.h):
  /// every helper charges the per-channel NetworkStats and, once
  /// BindMetrics has run, the mirrored kc.net.* arena counters — so a
  /// socket channel's books are kept by exactly the code the simulated
  /// channel uses.
  void AccountSend(const Message& msg);
  /// Charges one delivery and hands `msg` to the receiver. A backend
  /// must only call this for messages that actually arrived.
  void Deliver(const Message& msg);
  /// Charges one dropped message of `msg`'s type (e.g. a failed sendto).
  void AccountDrop(const Message& msg);
  bool has_receiver() const { return static_cast<bool>(receiver_); }

 private:
  struct Pending {
    int64_t due_tick;
    Message msg;
  };

  /// Arena counter handles, cached at bind time so the hot path performs
  /// no registry lookups.
  struct Metrics {
    obs::Counter* messages_sent = nullptr;
    obs::Counter* messages_delivered = nullptr;
    obs::Counter* messages_dropped = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* bytes_delivered = nullptr;
    obs::Counter* sent_by_type[kNumMessageTypes] = {};
    obs::Counter* delivered_by_type[kNumMessageTypes] = {};
    obs::Counter* dropped_by_type[kNumMessageTypes] = {};
    obs::Counter* bytes_sent_by_type[kNumMessageTypes] = {};
    obs::Counter* bytes_delivered_by_type[kNumMessageTypes] = {};
    /// kc.net.faults.* — registered only when faults are configured.
    obs::Counter* duplicates = nullptr;
    obs::Counter* reorders = nullptr;
    obs::Counter* burst_drops = nullptr;
    obs::Counter* partition_drops = nullptr;
  };

  void DeliverDue();
  void ChargeDrop(size_t type);

  Config config_;
  /// Loss and fault dice, built only when the config can draw (a positive
  /// loss_prob or any fault enabled; Config is fixed at construction): an
  /// mt19937_64 is ~2.5 KB, and a fleet holds two channels per source,
  /// most of them lossless. With faults off FaultInjector::OnSend draws
  /// nothing, so skipping it leaves every draw sequence unchanged.
  std::unique_ptr<Rng> rng_;
  FaultInjector injector_;
  Receiver receiver_;
  NetworkStats stats_;
  Metrics metrics_;
  bool metrics_bound_ = false;
  int64_t now_ = 0;
  /// In-flight messages in send order. A vector, not a deque: an empty
  /// libstdc++ deque already holds ~600 B of heap, on every channel.
  std::vector<Pending> pending_;
};

}  // namespace kc

#endif  // KALMANCAST_NET_CHANNEL_H_
