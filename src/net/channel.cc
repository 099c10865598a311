#include "net/channel.h"

#include <sstream>
#include <vector>

#include "common/strings.h"
#include "obs/trace.h"

namespace kc {

void NetworkStats::Merge(const NetworkStats& other) {
  messages_sent += other.messages_sent;
  messages_delivered += other.messages_delivered;
  messages_dropped += other.messages_dropped;
  bytes_sent += other.bytes_sent;
  bytes_delivered += other.bytes_delivered;
  messages_duplicated += other.messages_duplicated;
  messages_reordered += other.messages_reordered;
  burst_drops += other.burst_drops;
  partition_drops += other.partition_drops;
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    by_type[i] += other.by_type[i];
    by_type_sent[i] += other.by_type_sent[i];
    by_type_dropped[i] += other.by_type_dropped[i];
    by_type_bytes_sent[i] += other.by_type_bytes_sent[i];
    by_type_bytes_delivered[i] += other.by_type_bytes_delivered[i];
  }
}

std::string NetworkStats::ToString() const {
  std::ostringstream os;
  os << "sent=" << messages_sent << " delivered=" << messages_delivered
     << " dropped=" << messages_dropped << " bytes_sent=" << bytes_sent
     << " bytes_delivered=" << bytes_delivered << " by_type=[";
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    if (i > 0) os << " ";
    // sent/delivered/dropped per kind; sent - delivered - dropped is the
    // count still in flight on a latency channel.
    os << MessageTypeName(static_cast<MessageType>(i)) << ":"
       << by_type_sent[i] << "/" << by_type[i] << "/" << by_type_dropped[i];
  }
  os << "] bytes_by_type=[";
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    if (i > 0) os << " ";
    // sent/delivered bytes per kind, charged from the same encoded-frame
    // size model on every backend.
    os << MessageTypeName(static_cast<MessageType>(i)) << ":"
       << by_type_bytes_sent[i] << "/" << by_type_bytes_delivered[i];
  }
  os << "]";
  if (messages_duplicated > 0 || messages_reordered > 0 || burst_drops > 0 ||
      partition_drops > 0) {
    os << " faults=[dup=" << messages_duplicated
       << " reorder=" << messages_reordered << " burst_drop=" << burst_drops
       << " partition_drop=" << partition_drops << "]";
  }
  return os.str();
}

namespace {

std::string BooksLine(const char* verb, int64_t messages, int64_t bytes,
                      const int64_t counts[], const int64_t byte_counts[]) {
  std::ostringstream os;
  os << verb << "=" << messages << " bytes=" << bytes << " by_type=[";
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    if (i > 0) os << " ";
    os << MessageTypeName(static_cast<MessageType>(i)) << ":" << counts[i]
       << "/" << byte_counts[i];
  }
  os << "]";
  return os.str();
}

}  // namespace

std::string NetworkStats::SentLine() const {
  return BooksLine("sent", messages_sent, bytes_sent, by_type_sent,
                   by_type_bytes_sent);
}

std::string NetworkStats::DeliveredLine() const {
  return BooksLine("delivered", messages_delivered, bytes_delivered, by_type,
                   by_type_bytes_delivered);
}

Channel::Channel() : Channel(Config()) {}

Channel::Channel(Config config)
    : config_(config),
      rng_(config.loss_prob > 0.0 || config.faults.any_enabled()
               ? std::make_unique<Rng>(config.seed)
               : nullptr),
      injector_(config.faults) {}

void Channel::BindMetrics(obs::MetricRegistry* registry) {
  if (registry == nullptr) {
    metrics_bound_ = false;
    return;
  }
  metrics_.messages_sent = registry->GetCounter("kc.net.messages_sent");
  metrics_.messages_delivered =
      registry->GetCounter("kc.net.messages_delivered");
  metrics_.messages_dropped = registry->GetCounter("kc.net.messages_dropped");
  metrics_.bytes_sent = registry->GetCounter("kc.net.bytes_sent");
  metrics_.bytes_delivered = registry->GetCounter("kc.net.bytes_delivered");
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    const char* type = MessageTypeName(static_cast<MessageType>(i));
    metrics_.sent_by_type[i] =
        registry->GetCounter(StrFormat("kc.net.sent.%s", type));
    metrics_.delivered_by_type[i] =
        registry->GetCounter(StrFormat("kc.net.delivered.%s", type));
    metrics_.dropped_by_type[i] =
        registry->GetCounter(StrFormat("kc.net.dropped.%s", type));
    metrics_.bytes_sent_by_type[i] =
        registry->GetCounter(StrFormat("kc.net.bytes_sent.%s", type));
    metrics_.bytes_delivered_by_type[i] =
        registry->GetCounter(StrFormat("kc.net.bytes_delivered.%s", type));
  }
  if (config_.faults.any_enabled()) {
    // Registered only on channels with a fault model, so fault-free
    // deployments export exactly the pre-fault metric inventory.
    metrics_.duplicates = registry->GetCounter("kc.net.faults.duplicates");
    metrics_.reorders = registry->GetCounter("kc.net.faults.reorders");
    metrics_.burst_drops = registry->GetCounter("kc.net.faults.burst_drops");
    metrics_.partition_drops =
        registry->GetCounter("kc.net.faults.partition_drops");
  }
  metrics_bound_ = true;
}

void Channel::ChargeDrop(size_t type) {
  ++stats_.messages_dropped;
  ++stats_.by_type_dropped[type];
  if (metrics_bound_) {
    metrics_.messages_dropped->Inc();
    metrics_.dropped_by_type[type]->Inc();
  }
}

void Channel::AccountSend(const Message& msg) {
  size_t type = static_cast<size_t>(msg.type);
  int64_t bytes = static_cast<int64_t>(msg.SizeBytes());
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;
  ++stats_.by_type_sent[type];
  stats_.by_type_bytes_sent[type] += bytes;
  if (metrics_bound_) {
    metrics_.messages_sent->Inc();
    metrics_.bytes_sent->Inc(bytes);
    metrics_.sent_by_type[type]->Inc();
    metrics_.bytes_sent_by_type[type]->Inc(bytes);
  }
}

void Channel::AccountDrop(const Message& msg) {
  ChargeDrop(static_cast<size_t>(msg.type));
}

Status Channel::Send(const Message& msg) {
  KC_TRACE_SCOPE("net.send");
  if (!receiver_) {
    return Status::FailedPrecondition("channel has no receiver");
  }
  size_t type = static_cast<size_t>(msg.type);
  AccountSend(msg);
  if (config_.faults.InPartition(now_)) {
    // The link is severed: the datagram vanishes. (In-flight messages
    // queued before the window opened are held, not dropped — see
    // AdvanceTick.) No RNG draw: partitions are schedule-driven.
    ++stats_.partition_drops;
    if (metrics_.partition_drops != nullptr) metrics_.partition_drops->Inc();
    ChargeDrop(type);
    return Status::Ok();
  }
  SendFaults faults =
      rng_ != nullptr ? injector_.OnSend(*rng_) : SendFaults{};
  if (faults.burst_drop) {
    ++stats_.burst_drops;
    if (metrics_.burst_drops != nullptr) metrics_.burst_drops->Inc();
    ChargeDrop(type);
    return Status::Ok();
  }
  if (config_.loss_prob > 0.0 && rng_->Bernoulli(config_.loss_prob)) {
    ChargeDrop(type);
    return Status::Ok();  // Silently lost, as on a real datagram link.
  }
  if (faults.duplicate) {
    ++stats_.messages_duplicated;
    if (metrics_.duplicates != nullptr) metrics_.duplicates->Inc();
  }
  if (faults.extra_delay > 0) {
    ++stats_.messages_reordered;
    if (metrics_.reorders != nullptr) metrics_.reorders->Inc();
  }
  int64_t delay = config_.latency_ticks + faults.extra_delay;
  int copies = faults.duplicate ? 2 : 1;
  for (int c = 0; c < copies; ++c) {
    if (delay > 0) {
      pending_.push_back({now_ + delay, msg});
    } else {
      Deliver(msg);
    }
  }
  return Status::Ok();
}

void Channel::AdvanceTick() {
  ++now_;
  // Partition window: the receiving side is unreachable, so nothing
  // delivers; due messages stay in flight and drain on the first tick
  // after the window closes.
  if (config_.faults.InPartition(now_)) return;
  DeliverDue();
}

void Channel::DeliverDue() {
  if (pending_.empty()) return;
  // With reordering, due ticks are not monotone along the queue: collect
  // every due message in send order (stable), keep the rest. Delivery
  // happens after the scan so a receiver that triggers further sends
  // never sees a half-updated queue.
  std::vector<Message> due;
  std::vector<Pending> keep;
  for (Pending& p : pending_) {
    if (p.due_tick <= now_) {
      due.push_back(std::move(p.msg));
    } else {
      keep.push_back(std::move(p));
    }
  }
  pending_ = std::move(keep);
  for (const Message& msg : due) Deliver(msg);
}

void Channel::Deliver(const Message& msg) {
  size_t type = static_cast<size_t>(msg.type);
  int64_t bytes = static_cast<int64_t>(msg.SizeBytes());
  ++stats_.messages_delivered;
  stats_.bytes_delivered += bytes;
  ++stats_.by_type[type];
  stats_.by_type_bytes_delivered[type] += bytes;
  if (metrics_bound_) {
    metrics_.messages_delivered->Inc();
    metrics_.bytes_delivered->Inc(bytes);
    metrics_.delivered_by_type[type]->Inc();
    metrics_.bytes_delivered_by_type[type]->Inc(bytes);
  }
  if (receiver_) receiver_(msg);
}

}  // namespace kc
