// cache_zipf_rw: NetCache with cache_source(128 lines, 16 words).
//
// A client (host 1) keeps kWindow requests outstanding over 4096 keys
// drawn Zipf(0.99) from the seed; the 128 most popular keys are cached, so
// about 60% of GETs hit. A server host (host 2) on the load thread answers
// misses and PUTs with to=0, so they cross the daemon twice. 5% of requests
// are PUTs writing back the key's canonical value, so every GET still has
// exactly one correct answer. A controller thread refreshes one cached line
// about every 10 ms over the control plane (invalidate -> rewrite ->
// revalidate). The tenant is loaded at runtime, policed at a rate it never
// reaches, and has an SLO objective.
//
// The kernel's hot-key report is switched off (thresh = 2^32 - 1) so its
// `hot` byte passes through untouched on both paths: it carries the
// request's window slot, which is how responses find their send stamp.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>

#include "common.hpp"
#include "net/wire.hpp"
#include "runtime/message.hpp"

namespace perfbench {
namespace {

using runtime::HostRuntime;
using runtime::Message;
using sim::ArgValues;

constexpr int kCapacity = 128;
constexpr int kWords = 16;
constexpr int kKeys = 4096;
constexpr double kZipf = 0.99;
constexpr int kPutPercent = 5;
constexpr auto kRefreshPeriod = std::chrono::milliseconds(10);
constexpr std::uint64_t kFullMask = (1u << kWords) - 1;

/// The seeded key universe and request stream.
class CacheStream {
 public:
  explicit CacheStream(std::uint64_t seed) : seed_(seed) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t r = 0; keys_.size() < kKeys; ++r) {
      const std::uint64_t key = mix(seed ^ 0xCAu, r) | 1u;
      if (seen.insert(key).second) keys_.push_back(key);
    }
    double total = 0.0;
    for (int rank = 0; rank < kKeys; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipf);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  /// Keys by popularity rank (rank < kCapacity is cached).
  [[nodiscard]] std::uint64_t key(int rank) const { return keys_[static_cast<std::size_t>(rank)]; }
  [[nodiscard]] std::uint64_t value(std::uint64_t key, int word) const {
    return mix(key ^ seed_, static_cast<std::uint64_t>(word)) & 0xFFFFFFFFu;
  }

  void next(std::uint64_t& op, std::uint64_t& key) {
    const double u = static_cast<double>(mix(seed_ ^ 0x5Au, n_) >> 11) * 0x1.0p-53;
    const auto rank = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    key = keys_[static_cast<std::size_t>(std::min<std::ptrdiff_t>(rank, kKeys - 1))];
    op = mix(seed_ ^ 0x77u, n_) % 100 < kPutPercent ? apps::kPutReq : apps::kGetReq;
    ++n_;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t n_ = 0;
  std::vector<std::uint64_t> keys_;
  std::vector<double> cdf_;
};

/// The most recent RTTs of one answer path, in storage allocated (and
/// touched) once: a growing vector would make peak RSS jump with the
/// run's operation count.
class PathSamples {
 public:
  static constexpr std::size_t kCapacity = 1 << 16;
  void add(std::uint64_t rtt_ns) {
    ring_[added_++ % kCapacity] = static_cast<std::uint32_t>(rtt_ns);
  }
  [[nodiscard]] double p50_us() const {
    std::vector<std::uint32_t> kept(ring_.begin(),
                                    ring_.begin() + static_cast<std::ptrdiff_t>(
                                                        std::min(added_, kCapacity)));
    return quantile(kept, 0.5) * 1e-3;
  }

 private:
  std::vector<std::uint32_t> ring_ = std::vector<std::uint32_t>(kCapacity);
  std::size_t added_ = 0;
};

using WriteFn = std::function<runtime::Error(const std::string& name, std::uint64_t value,
                                             const std::vector<std::uint64_t>& indices)>;
using InsertFn = std::function<runtime::Error(const std::string& table, std::uint64_t key,
                                              std::uint64_t value)>;

/// Populates the cache the way the storage controller does; shared by the
/// daemon (over the control plane) and the replay device (directly).
void seed_cache(const CacheStream& stream, const WriteFn& write, const InsertFn& insert) {
  check(Phase::kSeed, write("thresh", 0xFFFFFFFFu, {}), "managed_write thresh");
  for (int line = 0; line < kCapacity; ++line) {
    const std::uint64_t key = stream.key(line);
    const auto idx = static_cast<std::uint64_t>(line);
    check(Phase::kSeed, insert("KeyIndex", key, idx), "insert KeyIndex");
    check(Phase::kSeed, insert("WordMask", key, kFullMask), "insert WordMask");
    for (int w = 0; w < kWords; ++w) {
      const std::vector<std::uint64_t> cell = {static_cast<std::uint64_t>(w), idx};
      check(Phase::kSeed, write("Values", stream.value(key, w), cell), "managed_write Values");
    }
    check(Phase::kSeed, write("Valid", 1, {idx}), "managed_write Valid");
  }
}

/// Refreshes one cached line about every kRefreshPeriod from its own
/// thread and its own control connection, timing every round trip.
class Controller {
 public:
  Controller(std::uint16_t control_port, const CacheStream& stream, std::uint64_t seed)
      : control_("127.0.0.1", control_port), stream_(stream), seed_(seed) {
    if (!control_.valid()) fail(Phase::kTimed, "controller: control connection failed");
    thread_ = std::thread([this] { run(); });
  }
  ~Controller() { stop(); }
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after stop().
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::vector<std::uint32_t>& op_ns() { return op_ns_; }

 private:
  void run() {
    for (std::uint64_t n = 0;; ++n) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (wake_.wait_for(lock, kRefreshPeriod, [this] { return stopping_; })) return;
      }
      const int line = static_cast<int>(mix(seed_ ^ 0xC0u, n) % kCapacity);
      const std::uint64_t key = stream_.key(line);
      const auto idx = static_cast<std::uint64_t>(line);
      // NetCache's order: invalidate, rewrite, revalidate.
      if (!timed([&] { return control_.managed_write_e("Valid", 0, {idx}); })) return;
      if (!timed([&] { return control_.insert_e("WordMask", key, kFullMask); })) return;
      for (int w = 0; w < kWords; ++w) {
        const std::uint64_t value = stream_.value(key, w);
        const std::vector<std::uint64_t> cell = {static_cast<std::uint64_t>(w), idx};
        if (!timed([&] { return control_.managed_write_e("Values", value, cell); })) return;
      }
      if (!timed([&] { return control_.managed_write_e("Valid", 1, {idx}); })) return;
    }
  }

  /// Runs one control-plane op, recording its round trip; false on error.
  template <typename Op>
  bool timed(Op op) {
    const std::uint64_t start = now_ns();
    const runtime::Error err = op();
    op_ns_.push_back(static_cast<std::uint32_t>(now_ns() - start));
    if (err) error_ = "controller: " + err.to_string();
    return !err;
  }

  runtime::DeviceConnection control_;
  const CacheStream& stream_;
  std::uint64_t seed_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::vector<std::uint32_t> op_ns_;
  std::string error_;
  std::thread thread_;  // last
};

class CacheWorkload final : public Workload {
 public:
  ~CacheWorkload() override {
    controller_.reset();  // stops and joins
    client_.reset();
    server_.reset();
    control_.reset();
    daemon_.reset();
  }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    driver::CompileResult compiled = compile_app(app_, setup_info_);
    spec_ = compiled.specs.at(1);
    net::SwdOptions options;
    options.compiler = driver::artifact_compiler();
    options.tenant_rate_pps = 10e6;  // a rate the loop never reaches; shed must stay 0
    obs::SloObjective objective;
    objective.latency_threshold_ns = 10e6;
    objective.availability_target = 0.99;
    options.slo_objectives[1] = objective;
    set_phase(Phase::kLoad);
    daemon_ = std::make_unique<Daemon>(options);
    control_ = std::make_unique<runtime::DeviceConnection>("127.0.0.1", daemon_->control_port());
    if (!control_->valid()) fail(Phase::kLoad, "control connection to the daemon failed");
    load_kernel(*control_, app_, setup_info_);
    set_phase(Phase::kSeed);
    stream_ = std::make_unique<CacheStream>(seed);
    seed_cache(
        *stream_,
        [this](const std::string& name, std::uint64_t value,
               const std::vector<std::uint64_t>& indices) {
          return control_->managed_write_e(name, value, indices);
        },
        [this](const std::string& table, std::uint64_t key, std::uint64_t value) {
          return control_->insert_e(table, key, value);
        });
    client_ = std::make_unique<Host>(1, daemon_->udp_port(), spec_);
    server_ = std::make_unique<Host>(2, daemon_->udp_port(), spec_);
    client_->runtime.on_receive([this](const Message&, ArgValues& args) {
      const std::uint64_t start = now_ns();
      const std::int64_t span = spans_.open(Spans::kReceive, start, poll_span_);
      on_response(args);
      spans_.close(span, Spans::kReceive, start, now_ns());
    });
    server_->runtime.on_receive(
        [this](const Message& message, ArgValues& args) { serve(message, args); });
    announce_server();
    batch_.assign(kWindow, {Message(1, 2, 1, 1), sim::make_args(spec_)});
    // The server replies to one request per outstanding client slot at most.
    replies_.assign(kWindow, {Message(2, 1, 1, 0), sim::make_args(spec_)});
  }


  void start_side_threads() override {
    controller_ = std::make_unique<Controller>(daemon_->control_port(), *stream_, seed_);
  }
  void stop_side_threads() override {
    if (controller_ == nullptr) return;
    controller_->stop();
    if (!controller_->error().empty()) fail(current_phase(), controller_->error());
    control_ns_.insert(control_ns_.end(), controller_->op_ns().begin(),
                       controller_->op_ns().end());
    controller_.reset();
  }

  void pump() override {
    const std::uint64_t start = now_ns();
    poll_span_ = spans_.open(Spans::kPoll, start);
    client_->transport.poll_once(0);
    spans_.close(poll_span_, Spans::kPoll, start, now_ns());
    server_->transport.poll_once(0);
    if (!wrong_.empty()) fail(current_phase(), wrong_);
    expire(start);
    if (pending_replies_ > 0) {
      server_->runtime.send_batch(std::span(replies_.data(), pending_replies_));
      pending_replies_ = 0;
    }
    refill();
  }

  void set_issuing(bool on) override { issuing_ = on; }
  [[nodiscard]] std::uint64_t outstanding() const override { return outstanding_; }
  void enable_telemetry(obs::SpanCollector* collector) override {
    client_->runtime.enable_telemetry(collector);
  }
  HostCounters host_counters() override {
    HostCounters c;
    c.sent = client_->runtime.sent.value();
    c.tx_syscalls = client_->transport.send_syscalls.value();
    c.stale_round_trips = client_->runtime.dropped_stale_round_trip.value();
    c.pack_ns_p50 = client_->runtime.pack_ns.quantile(0.5);
    c.unpack_ns_p50 = client_->runtime.unpack_ns.quantile(0.5);
    return c;
  }
  void reset_host_histograms() override {
    client_->runtime.pack_ns.reset();
    client_->runtime.unpack_ns.reset();
  }
  void layer_metrics(std::vector<Metric>& out) override {
    out.push_back({"cache.hit_frac",
                   gets_ > 0 ? static_cast<double>(hits_) / static_cast<double>(gets_) : 0.0,
                   "ratio"});
    out.push_back({"cache.hit_rtt_p50_us", hit_rtt_.p50_us(), "us"});
    out.push_back({"cache.miss_rtt_p50_us", miss_rtt_.p50_us(), "us"});
    out.push_back({"control.op_us_p50", quantile(control_ns_, 0.5) * 1e-3, "us"});
    out.push_back({"control.op_us_p99", quantile(control_ns_, 0.99) * 1e-3, "us"});
  }

  std::vector<std::vector<std::uint8_t>> replay_sample(std::uint64_t seed) override {
    CacheStream stream(seed);
    std::vector<std::vector<std::uint8_t>> wire;
    ArgValues args = sim::make_args(spec_);
    for (int i = 0; i < 2048; ++i) {
      fill_request(stream, args, static_cast<std::uint64_t>(i % kWindow));
      wire.push_back(net::serialize_packet(runtime::pack(Message(1, 2, 1, 1), spec_, args)));
    }
    return wire;
  }

  std::unique_ptr<sim::SwitchDevice> replay_device(std::uint64_t seed) override {
    SetupInfo ignored;
    auto device = driver::make_device(compile_app(app_, ignored), 1);
    const CacheStream stream(seed);
    auto result = [](bool ok, const std::string& what) {
      return ok ? runtime::Error() : runtime::Error(runtime::ErrorKind::kRejected, what);
    };
    seed_cache(
        stream,
        [&](const std::string& name, std::uint64_t value, const std::vector<std::uint64_t>& idx) {
          return result(device->managed_write(name, idx, value), name);
        },
        [&](const std::string& table, std::uint64_t key, std::uint64_t value) {
          return result(device->lookup_insert(table, key, key, value), table);
        });
    return device;
  }

 private:
  struct Slot {
    bool busy = false;
    std::uint64_t generation = 0;  // bumped per request; tells late answers apart
    std::uint64_t op = 0;
    std::uint64_t key = 0;
    std::uint64_t sent_ns = 0;
    int phase = 0;
  };

  /// The `hot` byte: window slot in the low 5 bits, the slot's request
  /// generation in the top 3.
  static constexpr std::uint64_t kSlotBits = 5;
  static_assert(kWindow == 1 << kSlotBits);

  /// Request arguments: op, key, value words (canonical for a PUT), hit,
  /// and the request tag in the `hot` byte.
  void fill_request(CacheStream& stream, ArgValues& args, std::uint64_t tag,
                    Slot* slot = nullptr) {
    std::uint64_t op = 0;
    std::uint64_t key = 0;
    stream.next(op, key);
    args[0][0] = op;
    args[1][0] = key;
    for (int w = 0; w < kWords; ++w) {
      args[2][static_cast<std::size_t>(w)] = op == apps::kPutReq ? stream.value(key, w) : 0;
    }
    args[3][0] = 0;
    args[4][0] = tag;
    if (slot != nullptr) {
      slot->op = op;
      slot->key = key;
    }
  }

  void refill() {
    if (!issuing_) return;
    std::size_t n = 0;
    for (std::size_t id = 0; id < slots_.size(); ++id) {
      Slot& slot = slots_[id];
      if (slot.busy) continue;
      slot.generation = (slot.generation + 1) & 7;
      fill_request(*stream_, batch_[n].args, id | slot.generation << kSlotBits, &slot);
      slot.busy = true;
      slot.phase = issue_phase_;
      stats_.on_issue(issue_phase_);
      ++outstanding_;
      ++n;
    }
    if (n == 0) return;
    const std::uint64_t start = now_ns();
    for (Slot& slot : slots_) {
      if (slot.busy && slot.sent_ns == 0) slot.sent_ns = start;
    }
    client_->runtime.send_batch(std::span(batch_.data(), n));
    spans_.record(Spans::kSend, start, now_ns());
  }

  /// The daemon learns a host's endpoint from the first packet it sends;
  /// the server has nothing to send until a miss arrives, so it says hello
  /// to itself (to = 0) and waits, bounded, for the echo.
  void announce_server() {
    ArgValues hello = sim::make_args(spec_);
    hello[0][0] = apps::kCacheResponse;
    server_->runtime.send(Message(2, 2, 1, 0), hello);
    const std::uint64_t deadline = now_ns() + 2'000'000'000ULL;
    while (!server_announced_) {
      server_->transport.poll_once(1);
      if (now_ns() > deadline) fail(Phase::kSeed, "the daemon never echoed the server's hello");
    }
  }

  /// The storage server: answers GET misses and PUTs with the key's
  /// canonical value, addressed straight back to the requester (to = 0).
  void serve(const Message& message, const ArgValues& args) {
    if (args[0][0] == apps::kCacheResponse) {
      server_announced_ = true;  // its own hello
      return;
    }
    if (pending_replies_ == replies_.size()) {
      wrong_ = "cache_zipf_rw: server got more requests than the client has outstanding";
      return;
    }
    HostRuntime::Outbound& reply = replies_[pending_replies_++];
    reply.message = Message(2, message.src, 1, 0);
    reply.args = args;
    reply.args[0][0] = apps::kCacheResponse;
    for (int w = 0; w < kWords; ++w) {
      reply.args[2][static_cast<std::size_t>(w)] = stream_->value(args[1][0], w);
    }
  }

  /// Frees the slots of requests unanswered past kRequestTimeoutNs.
  void expire(std::uint64_t now) {
    for (Slot& slot : slots_) {
      if (slot.busy && slot.sent_ns != 0 && now - slot.sent_ns > kRequestTimeoutNs) {
        slot.busy = false;
        slot.sent_ns = 0;
        --outstanding_;
      }
    }
  }

  void on_response(const ArgValues& args) {
    const std::uint64_t now = now_ns();
    const std::uint64_t tag = args[4][0];
    const std::uint64_t id = tag & (kWindow - 1);
    Slot& slot = slots_[id];
    // Otherwise the answer to a request already given up (counted failed).
    if (!slot.busy || slot.generation != tag >> kSlotBits) return;
    const bool get = slot.op == apps::kGetReq;
    const bool hit = args[0][0] == apps::kGetReq && args[3][0] != 0;
    if (args[1][0] != slot.key) {
      wrong_ = "cache_zipf_rw: slot " + std::to_string(id) + " sent key " +
               std::to_string(slot.key) + ", response carries key " + std::to_string(args[1][0]);
      return;
    }
    for (int w = 0; w < kWords; ++w) {
      const std::uint64_t expected = stream_->value(slot.key, w);
      if (args[2][static_cast<std::size_t>(w)] != expected) {
        wrong_ = std::string("cache_zipf_rw: ") + (get ? "GET" : "PUT") + " key " +
                 std::to_string(slot.key) + (hit ? " (switch hit)" : " (server)") + " word " +
                 std::to_string(w) + ": got " +
                 std::to_string(args[2][static_cast<std::size_t>(w)]) +
                 ", expected " + std::to_string(expected);
        return;
      }
    }
    const std::uint64_t rtt = now - slot.sent_ns;
    if (get && issue_phase_ == 1 && slot.phase == 1) {
      ++gets_;
      if (hit) ++hits_;
      (hit ? hit_rtt_ : miss_rtt_).add(rtt);
    }
    stats_.on_complete(slot.phase, rtt);
    slot.busy = false;
    slot.sent_ns = 0;
    --outstanding_;
  }

  apps::AppSource app_ = apps::cache_source(kCapacity, kWords);
  KernelSpec spec_;
  std::uint64_t seed_ = 0;
  std::unique_ptr<runtime::DeviceConnection> control_;
  std::unique_ptr<CacheStream> stream_;
  std::unique_ptr<Host> client_;
  std::unique_ptr<Host> server_;
  std::unique_ptr<Controller> controller_;
  std::array<Slot, kWindow> slots_{};
  std::vector<HostRuntime::Outbound> batch_;
  std::vector<HostRuntime::Outbound> replies_;
  std::size_t pending_replies_ = 0;
  bool server_announced_ = false;
  bool issuing_ = false;
  std::uint64_t outstanding_ = 0;
  std::uint64_t gets_ = 0;
  std::uint64_t hits_ = 0;
  PathSamples hit_rtt_;
  PathSamples miss_rtt_;
  std::vector<std::uint32_t> control_ns_;
  std::int64_t poll_span_ = -1;
  std::string wrong_;
};

}  // namespace

std::unique_ptr<Workload> make_cache_workload() { return std::make_unique<CacheWorkload>(); }

}  // namespace perfbench
