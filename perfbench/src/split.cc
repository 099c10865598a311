#include "split.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <thread>

#include "measure.h"

namespace perfbench {

namespace {

// Appends a timestamp before and/or after each Next() of the wrapped
// stream; the stamps' vectors are reserved up front so no tick allocates.
class StampedGenerator : public kc::StreamGenerator {
 public:
  StampedGenerator(std::unique_ptr<kc::StreamGenerator> inner,
                   std::vector<int64_t>* before, std::vector<int64_t>* after)
      : inner_(std::move(inner)), before_(before), after_(after) {}

  kc::Sample Next() override {
    if (before_ != nullptr) before_->push_back(NowNs());
    kc::Sample s = inner_->Next();
    if (after_ != nullptr) after_->push_back(NowNs());
    return s;
  }
  void Reset(uint64_t seed) override { inner_->Reset(seed); }
  size_t dims() const override { return inner_->dims(); }
  std::string name() const override { return inner_->name(); }
  std::unique_ptr<kc::StreamGenerator> Clone() const override {
    return inner_->Clone();
  }

 private:
  std::unique_ptr<kc::StreamGenerator> inner_;
  std::vector<int64_t>* before_;
  std::vector<int64_t>* after_;
};

// True when both the UDP and the TCP port are free on 127.0.0.1, so the
// client cannot reach a stranger's listener.
bool PortFree(int port) {
  bool free = true;
  for (int type : {SOCK_DGRAM, SOCK_STREAM}) {
    int fd = ::socket(AF_INET, type, 0);
    if (fd < 0) return false;
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      free = false;
    }
    ::close(fd);
  }
  return free;
}

// Keeps the calling thread, and the threads it pins, on the CPU it runs
// on now, and restores its CPU mask when done. Client and server
// alternate strictly (each waits for the other's barrier), so one CPU
// serves both; sharing it replaces cross-CPU wake-ups, whose latency
// follows the host's load, with same-CPU hand-offs.
class ShareOneCpu {
 public:
  ShareOneCpu() {
    int cpu = sched_getcpu();
    pinned_ = cpu >= 0 &&
              pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) == 0;
    if (!pinned_) return;
    CPU_ZERO(&one_);
    CPU_SET(cpu, &one_);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one_), &one_) == 0;
  }
  ~ShareOneCpu() {
    if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  ShareOneCpu(const ShareOneCpu&) = delete;
  ShareOneCpu& operator=(const ShareOneCpu&) = delete;

  void Pin(std::thread& thread) {
    if (pinned_) pthread_setaffinity_np(thread.native_handle(), sizeof(one_), &one_);
  }

 private:
  bool pinned_ = false;
  cpu_set_t saved_{};
  cpu_set_t one_{};
};

std::vector<double> GapsMs(const std::vector<int64_t>& from,
                           const std::vector<int64_t>& to, size_t first,
                           size_t shift) {
  std::vector<double> out;
  for (size_t t = first; t + shift < to.size() && t < from.size(); ++t) {
    out.push_back(static_cast<double>(to[t + shift] - from[t]) * 1e-6);
  }
  return out;
}

}  // namespace

SplitSession RunSplitSession(const SplitWorkload& workload, uint64_t seed,
                             int64_t warmup_ticks, int64_t telemetry_every) {
  SplitSession session;
  kc::SplitConfig config = workload.config;
  config.telemetry_every = telemetry_every;
  static std::atomic<int> next_port{0};
  const size_t ticks = config.ticks;

  std::vector<int64_t> starts, draws_end, server_stamps;
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (next_port.load() == 0) {
      next_port = 20000 + static_cast<int>((seed * 7919 + static_cast<uint64_t>(
                                                getpid()) * 31) % 30000);
    }
    int port = next_port.fetch_add(1);
    if (port > 60000) next_port = port = 20000;
    if (!PortFree(port)) continue;
    config.port = port;
    starts.clear();
    draws_end.clear();
    server_stamps.clear();
    starts.reserve(ticks + 1);
    draws_end.reserve(ticks + 1);
    server_stamps.reserve(ticks + 1);

    ShareOneCpu cpu;
    const int64_t t0 = NowNs();
    std::atomic<bool> server_done{false};
    kc::StatusOr<kc::SplitServerReport> server_report =
        kc::Status::Internal("server not run");
    std::thread server([&] {
      server_report = kc::RunSplitServer(
          config, workload.make_predictor,
          [&server_stamps](int64_t) { server_stamps.push_back(NowNs()); });
      server_done = true;
    });
    cpu.Pin(server);
    const int32_t last = config.num_sources - 1;
    auto make_generator = [&](int32_t id) -> std::unique_ptr<kc::StreamGenerator> {
      auto inner = workload.make_generator(id);
      if (id != 0 && id != last) return inner;
      return std::make_unique<StampedGenerator>(
          std::move(inner), id == 0 ? &starts : nullptr,
          id == last ? &draws_end : nullptr);
    };
    // Connection refused until the server listens; the client fails
    // before building any source, so retrying is clean.
    kc::StatusOr<kc::SplitClientReport> client_report =
        kc::Status::Internal("client not run");
    while (!server_done.load()) {
      client_report =
          kc::RunSplitClient(config, make_generator, workload.make_predictor);
      if (client_report.ok() || !starts.empty()) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    server.join();
    if (!client_report.ok() && starts.empty() && !server_report.ok()) {
      continue;  // The port was taken between the check and the bind.
    }
    if (!client_report.ok()) {
      session.status = client_report.status();
      return session;
    }
    if (!server_report.ok()) {
      session.status = server_report.status();
      return session;
    }
    session.client = *client_report;
    session.server = *server_report;
    if (starts.size() < 2 || starts.size() != ticks ||
        server_stamps.size() != ticks) {
      session.status = kc::Status::Internal("split session lost ticks");
      return session;
    }
    session.setup_s = static_cast<double>(starts[1] - t0) * 1e-9;
    auto first = static_cast<size_t>(warmup_ticks);
    session.tick_ms = GapsMs(starts, starts, first, 1);
    session.offer_ms = GapsMs(starts, draws_end, first, 0);
    session.ack_wait_ms = GapsMs(draws_end, starts, first, 1);
    session.server_tick_ms = GapsMs(server_stamps, server_stamps, first, 1);
    return session;
  }
  session.status = kc::Status::Internal("no free loopback port");
  return session;
}

int64_t RecvBufferDatagrams(const std::vector<uint8_t>& frame) {
  int rx = ::socket(AF_INET, SOCK_DGRAM, 0);
  int tx = ::socket(AF_INET, SOCK_DGRAM, 0);
  int64_t held = -1;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (rx >= 0 && tx >= 0 &&
      ::bind(rx, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(rx, reinterpret_cast<sockaddr*>(&addr), &len) == 0 &&
      ::connect(tx, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    for (int i = 0; i < 8192; ++i) {
      if (::send(tx, frame.data(), frame.size(), MSG_DONTWAIT) < 0) break;
    }
    held = 0;
    char buf[2048];
    while (::recv(rx, buf, sizeof(buf), MSG_DONTWAIT) > 0) ++held;
  }
  if (rx >= 0) ::close(rx);
  if (tx >= 0) ::close(tx);
  return held;
}

}  // namespace perfbench
