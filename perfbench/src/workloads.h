// The benchmark's workloads, generated from a seed. The program under test
// receives only these inputs, through its public API.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fleet/sharded_fleet.h"
#include "server/query.h"
#include "server/split_deploy.h"
#include "streams/generator.h"
#include "suppression/predictor.h"

namespace perfbench {

/// One source as ShardedFleet and TracedFleet both receive it.
struct SourceInput {
  std::unique_ptr<kc::StreamGenerator> generator;
  std::unique_ptr<kc::Predictor> predictor;
  double delta = 1.0;
  bool scalar = true;
};

/// A simulated fleet workload: ShardedFleet configuration, sources,
/// continuous queries and the observability facilities it runs with.
struct FleetWorkload {
  std::string name;
  kc::ShardedFleet::Config config;
  int32_t num_sources = 0;
  /// Metrics, audit sampling every tick, and the health watchdog.
  bool obs = false;
  /// True when every answer must be contained (lossless, zero-latency
  /// channels): an uncontained answer is then a failed operation.
  bool containment_promised = true;
  std::vector<std::pair<std::string, kc::QuerySpec>> queries;
  /// Builds the sources; the same workload always builds the same ones.
  std::vector<SourceInput> (*make_sources)(uint64_t seed, int32_t n) = nullptr;
};

/// 2,000 pooled random-walk Kalman sources at delta 4 on 2 threads and 8
/// shards, lossless channels, no queries, observability off.
FleetWorkload QuietFleet(uint64_t seed, int32_t num_sources = 2000);

/// 400 mixed sources on 2 threads: noisy diurnal temperatures, random
/// walks and 2-D vehicles, a quarter on adaptive (unpoolable) Kalman
/// predictors, tight variance-allocated deltas, 1-tick uplink latency
/// with 2% seeded loss and recovery, 16 AVG/MAX queries over 64 members
/// each, and metrics + audit + health on.
FleetWorkload ChattyFleet(uint64_t seed, int32_t num_sources = 400);

/// The split loopback workload: 200 random-walk Kalman sources at tight
/// delta, recovery on, telemetry off.
struct SplitWorkload {
  kc::SplitConfig config;
  kc::GeneratorFactory make_generator;
  kc::PredictorFactory make_predictor;
  /// The simulated ShardedFleet running the identical workload, whose
  /// books the split halves must reproduce.
  FleetWorkload twin;
};
SplitWorkload SplitLoopback(uint64_t seed, int32_t num_sources = 200,
                            size_t ticks = 1500);

/// Builds the workload as a ShardedFleet from `sources` (made beforehand,
/// so input generation stays out of the set-up time). `obs` turns on
/// metrics, the health watchdog and audit sampling every tick.
std::unique_ptr<kc::ShardedFleet> BuildFleet(const FleetWorkload& workload,
                                             std::vector<SourceInput> sources,
                                             bool obs);

/// One closed-loop fleet tick as a user drives it: Step, then the due
/// continuous queries. Returns the number of answers.
int64_t FleetTick(kc::ShardedFleet& fleet, kc::Status* status);

/// Audit sampling of the observability facilities: every tick.
kc::obs::AuditConfig WorkloadAuditConfig();

/// Answers checked for containment after tick `tick`: a rotating eighth
/// of the sources, so every source is checked every 8 ticks.
inline bool CheckedThisTick(int32_t id, int64_t tick) {
  return (id & 7) == (tick & 7);
}

/// |SourceValue(id) - target|_inf <= in-force bound, from the server's
/// merged view. `checked` false when the source has no answer yet.
bool Contained(const kc::ShardedServer& server, int32_t id,
               const kc::Vector& target, bool* checked);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
