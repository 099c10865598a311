// Split loopback sessions: RunSplitServer and RunSplitClient on two threads
// of this process over 127.0.0.1, timed from outside through the stream
// generators the benchmark hands the client and the server's progress
// callback.

#ifndef PERFBENCH_SPLIT_H_
#define PERFBENCH_SPLIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.h"
#include "server/split_deploy.h"
#include "workloads.h"

namespace perfbench {

struct SplitSession {
  kc::Status status;
  /// Start of the session to the client's first draw after the INIT
  /// tick's barrier acknowledgement.
  double setup_s = 0.0;
  /// Per steady tick (after `warmup_ticks`): first draw to the next
  /// tick's first draw, and its two parts — draws + offers + sends up to
  /// the last source's draw, then the rest through the barrier ack.
  std::vector<double> tick_ms, offer_ms, ack_wait_ms;
  /// Gaps between the server's progress callbacks (steady ticks).
  std::vector<double> server_tick_ms;
  kc::SplitClientReport client;
  kc::SplitServerReport server;
};

/// Runs one session of `config.ticks` ticks on a free loopback port.
/// `telemetry_every` > 0 turns the split telemetry plane on.
SplitSession RunSplitSession(const SplitWorkload& workload, uint64_t seed,
                             int64_t warmup_ticks, int64_t telemetry_every = 0);

/// How many datagrams of `frame` a fresh loopback UDP socket with the
/// default receive buffer holds before the kernel drops.
int64_t RecvBufferDatagrams(const std::vector<uint8_t>& frame);

}  // namespace perfbench

#endif  // PERFBENCH_SPLIT_H_
