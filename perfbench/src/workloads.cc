#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/stats.h"
#include "query/parser.h"
#include "server/allocation.h"
#include "streams/generators.h"
#include "streams/noise.h"
#include "suppression/policies.h"

namespace perfbench {

namespace {

std::unique_ptr<kc::Predictor> RandomWalkKalman(double process_var,
                                                double obs_var) {
  kc::KalmanPredictor::Config config;
  config.model = kc::MakeRandomWalkModel(process_var, obs_var);
  return std::make_unique<kc::KalmanPredictor>(std::move(config));
}

// Stream parameters spread evenly over [lo, hi) by source index (golden-
// ratio sequence), so every seed runs the same mix of sources; the seed
// drives their noise streams, losses and query memberships.
double Spread(int32_t i, double lo, double hi) {
  double u = static_cast<double>(i) * 0.6180339887498949;
  return lo + (hi - lo) * (u - std::floor(u));
}

std::vector<SourceInput> QuietSources(uint64_t /*seed*/, int32_t n) {
  std::vector<SourceInput> out;
  out.reserve(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    kc::RandomWalkGenerator::Config walk;
    walk.start = Spread(i, -50.0, 50.0);
    walk.step_sigma = Spread(i, 0.2, 0.4);
    out.push_back({std::make_unique<kc::RandomWalkGenerator>(walk),
                   RandomWalkKalman(0.09, 0.01), 4.0, true});
  }
  return out;
}

// Like the sensor_network example's thermistors: a diurnal cycle with a
// drifting weather front, read through Gaussian noise.
// Day lengths are spread too, so the sources' daily cycles (and with them
// the fleet's send rate) drift apart instead of peaking together.
std::unique_ptr<kc::StreamGenerator> Thermistor(int32_t i) {
  kc::DiurnalTemperatureGenerator::Config config;
  config.mean = Spread(i, 14.0, 24.0);
  config.daily_amplitude = Spread(i, 3.0, 8.0);
  config.day_length = Spread(i, 216.0, 360.0);
  config.weather_sigma = Spread(i, 0.01, 0.08);
  kc::NoiseConfig noise;
  noise.gaussian_sigma = 0.3;
  return std::make_unique<kc::NoisyStream>(
      std::make_unique<kc::DiurnalTemperatureGenerator>(config), noise);
}

// Per-tick volatility of a stream: the largest per-axis standard deviation
// of its one-step change over one probe day.
double Volatility(const kc::StreamGenerator& generator, uint64_t probe_seed) {
  auto probe = generator.Clone();
  probe->Reset(probe_seed);
  kc::Vector prev = probe->Next().measured.value;
  std::vector<kc::RunningStats> axes(prev.size());
  for (int t = 1; t < 288; ++t) {
    kc::Vector v = probe->Next().measured.value;
    for (size_t d = 0; d < v.size(); ++d) axes[d].Add(v[d] - prev[d]);
    prev = v;
  }
  double vol = 0.0;
  for (const kc::RunningStats& s : axes) vol = std::max(vol, s.stddev());
  return vol;
}

// Share of the summed volatility handed out as precision: tight enough
// that about a fifth of all source-ticks send.
constexpr double kChattyTightness = 0.95;

std::vector<SourceInput> ChattySources(uint64_t seed, int32_t n) {
  std::vector<SourceInput> out;
  out.reserve(static_cast<size_t>(n));
  std::vector<double> volatilities;
  for (int32_t i = 0; i < n; ++i) {
    SourceInput in;
    switch (i % 4) {
      case 0:  // Adaptive noise estimation: stays on the per-object path.
        in.generator = Thermistor(i);
        in.predictor = kc::MakeDefaultKalmanPredictor(0.01, 0.09);
        break;
      case 1:
        in.generator = Thermistor(i);
        in.predictor = RandomWalkKalman(0.01, 0.09);
        break;
      case 2: {
        kc::RandomWalkGenerator::Config walk;
        walk.start = Spread(i, -20.0, 20.0);
        walk.step_sigma = Spread(i, 0.2, 0.5);
        kc::NoiseConfig noise;
        noise.gaussian_sigma = 0.2;
        in.generator = std::make_unique<kc::NoisyStream>(
            std::make_unique<kc::RandomWalkGenerator>(walk), noise);
        in.predictor = RandomWalkKalman(0.09, 0.04);
        break;
      }
      default: {
        kc::Vehicle2DGenerator::Config drive;
        drive.speed_mean = Spread(i, 5.0, 15.0);
        kc::NoiseConfig noise;
        noise.gaussian_sigma = 3.0;
        in.generator = std::make_unique<kc::NoisyStream>(
            std::make_unique<kc::Vehicle2DGenerator>(drive), noise);
        kc::KalmanPredictor::Config kf;
        kf.model = kc::MakeConstantVelocity2DModel(1.0, 0.5, 9.0);
        in.predictor = std::make_unique<kc::KalmanPredictor>(std::move(kf));
        in.scalar = false;
        break;
      }
    }
    volatilities.push_back(
        Volatility(*in.generator, seed * 1000003ULL + static_cast<uint64_t>(i)));
    out.push_back(std::move(in));
  }
  double total = 0.0;
  for (double v : volatilities) total += v;
  std::vector<double> deltas =
      kc::AllocateBounds(kc::AllocationPolicy::kVarianceProportional,
                         kChattyTightness * total, volatilities);
  for (size_t i = 0; i < out.size(); ++i) out[i].delta = deltas[i];
  return out;
}

// 16 continuous queries, alternating AVG and MAX, each over 64 distinct
// scalar sources, asking for 1.5x the bound their members' deltas imply
// (so an answer misses WITHIN only while a member is quarantined).
std::vector<std::pair<std::string, kc::QuerySpec>> ChattyQueries(
    uint64_t seed, const std::vector<SourceInput>& sources) {
  std::vector<int32_t> scalar_ids;
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i].scalar) scalar_ids.push_back(static_cast<int32_t>(i));
  }
  kc::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 37);
  std::vector<std::pair<std::string, kc::QuerySpec>> out;
  const size_t members = std::min<size_t>(64, scalar_ids.size());
  for (int q = 0; q < 16; ++q) {
    for (size_t k = 0; k < members; ++k) {  // Partial Fisher-Yates.
      auto j = static_cast<size_t>(rng.UniformInt(
          static_cast<int64_t>(k), static_cast<int64_t>(scalar_ids.size()) - 1));
      std::swap(scalar_ids[k], scalar_ids[j]);
    }
    const bool avg = q % 2 == 0;
    double sum = 0.0, max = 0.0;
    std::string list;
    for (size_t k = 0; k < members; ++k) {
      double d = sources[static_cast<size_t>(scalar_ids[k])].delta;
      sum += d;
      max = std::max(max, d);
      list += (k > 0 ? ",s" : "s") + std::to_string(scalar_ids[k]);
    }
    double within =
        1.5 * (avg ? sum / static_cast<double>(members) : max);
    std::string text = std::string("SELECT ") + (avg ? "AVG(" : "MAX(") +
                       list + ") WITHIN " + std::to_string(within);
    auto spec = kc::ParseQuery(text);
    if (spec.ok()) out.emplace_back("q" + std::to_string(q), *spec);
  }
  return out;
}

struct SplitSourceParams {
  kc::RandomWalkGenerator::Config walk;
  double delta = 0.0;
};

// Identical sources but for their start: with only 200 of them, spreads
// in step size or bound would make the send rate, and so the tick time,
// differ from seed to seed.
SplitSourceParams SplitParams(int32_t id) {
  SplitSourceParams p;
  p.walk.start = Spread(id, -10.0, 10.0);
  p.walk.step_sigma = 0.3;
  p.delta = 0.4;
  return p;
}

std::unique_ptr<kc::Predictor> SplitPredictor() {
  return RandomWalkKalman(0.09, 0.01);
}

std::vector<SourceInput> SplitSources(uint64_t /*seed*/, int32_t n) {
  std::vector<SourceInput> out;
  for (int32_t id = 0; id < n; ++id) {
    SplitSourceParams p = SplitParams(id);
    out.push_back({std::make_unique<kc::RandomWalkGenerator>(p.walk),
                   SplitPredictor(), p.delta, true});
  }
  return out;
}

}  // namespace

FleetWorkload QuietFleet(uint64_t seed, int32_t num_sources) {
  FleetWorkload w;
  w.name = "fleet_quiet";
  w.config.seed = seed;
  w.config.threads = 2;
  w.config.num_shards = 8;
  w.num_sources = num_sources;
  w.make_sources = &QuietSources;
  return w;
}

FleetWorkload ChattyFleet(uint64_t seed, int32_t num_sources) {
  FleetWorkload w;
  w.name = "fleet_chatty";
  w.config.seed = seed;
  // Two workers like quiet: on one thread the tick time switched between
  // two levels 45% apart with the host's load, and the p50 with it.
  w.config.threads = 2;
  w.config.channel.latency_ticks = 1;
  w.config.channel.loss_prob = 0.02;
  // A lossy uplink runs the recovery protocol, configured as the
  // sensor_network example does for --faults.
  w.config.agent_base.heartbeat_every = 16;
  w.config.recovery.enabled = true;
  w.config.recovery.suspect_after_silent_ticks = 40;
  w.num_sources = num_sources;
  w.obs = true;
  // Answers lag the sources by the uplink latency and miss lost messages
  // until recovery: containment is measured, not promised.
  w.containment_promised = false;
  w.make_sources = &ChattySources;
  w.queries = ChattyQueries(seed, ChattySources(seed, num_sources));
  return w;
}

SplitWorkload SplitLoopback(uint64_t seed, int32_t num_sources, size_t ticks) {
  SplitWorkload w;
  w.config.host = "127.0.0.1";
  w.config.ticks = ticks;
  w.config.num_sources = num_sources;
  w.config.seed = seed;
  w.config.agent_base.heartbeat_every = 16;
  w.config.recovery.enabled = true;
  w.config.recovery.suspect_after_silent_ticks = 40;
  w.config.accept_timeout_ms = 5000;
  for (int32_t id = 0; id < num_sources; ++id) {
    w.config.deltas.push_back(SplitParams(id).delta);
  }
  w.make_generator = [](int32_t id) -> std::unique_ptr<kc::StreamGenerator> {
    return std::make_unique<kc::RandomWalkGenerator>(SplitParams(id).walk);
  };
  w.make_predictor = [](int32_t) { return SplitPredictor(); };

  w.twin.name = "split_twin";
  w.twin.config.seed = seed;
  w.twin.config.agent_base = w.config.agent_base;
  w.twin.config.recovery = w.config.recovery;
  w.twin.num_sources = num_sources;
  w.twin.make_sources = &SplitSources;
  return w;
}

std::unique_ptr<kc::ShardedFleet> BuildFleet(const FleetWorkload& workload,
                                             std::vector<SourceInput> sources,
                                             bool obs) {
  auto fleet = std::make_unique<kc::ShardedFleet>(workload.config);
  if (obs) {
    fleet->EnableMetrics();
    fleet->EnableHealth();
    fleet->EnableAudit(WorkloadAuditConfig());
  }
  for (SourceInput& in : sources) {
    fleet->AddSource(std::move(in.generator), std::move(in.predictor),
                     in.delta);
  }
  for (const auto& [name, spec] : workload.queries) {
    // A rejected query leaves num_queries() short, which the run gates on.
    (void)fleet->server().AddQuery(name, spec);
  }
  return fleet;
}

int64_t FleetTick(kc::ShardedFleet& fleet, kc::Status* status) {
  *status = fleet.Step();
  return static_cast<int64_t>(fleet.server().EvaluateDue().size());
}

kc::obs::AuditConfig WorkloadAuditConfig() {
  kc::obs::AuditConfig config;
  config.sample_every = 1;
  return config;
}

bool Contained(const kc::ShardedServer& server, int32_t id,
               const kc::Vector& target, bool* checked) {
  auto answer = server.SourceValue(id);
  *checked = answer.ok() && answer->value.size() == target.size();
  if (!*checked) return true;
  double err = 0.0;
  for (size_t d = 0; d < target.size(); ++d) {
    err = std::max(err, std::abs(answer->value[d] - target[d]));
  }
  return err <= answer->bound;
}

}  // namespace perfbench
