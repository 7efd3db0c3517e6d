// agg_allreduce: SwitchML AllReduce with agg_source(4 workers, 64 slots,
// 32 values). Four worker HostRuntimes (hosts 1-4) run on the one load
// thread, each streaming chunks through a runtime::RetransmitWindow of 8
// slots; multicast group 42 = {1..4} is set over the control plane. An op
// is one slot whose aggregate reached every worker correctly, so
// ATE/s/worker = 32 x ops_per_s; an RTT is one worker's, from its
// contribution to its verified aggregate. The heavy stateful kernel step,
// the 4x multicast egress and the host retransmit window dominate here.
#include <array>

#include "common.hpp"
#include "net/wire.hpp"
#include "runtime/message.hpp"
#include "runtime/retransmit.hpp"

namespace perfbench {
namespace {

using runtime::Message;
using runtime::RetransmitWindow;
using sim::ArgValues;

constexpr int kWorkers = 4;
constexpr int kSlots = 64;
constexpr int kValues = 32;
constexpr int kAggWindow = 8;
/// Chunks per RetransmitWindow; a worker starts a new window (the next
/// "round") when its current one completes. A multiple of 2 x window, so
/// every slot's alternating version carries on across rounds.
constexpr int kRoundChunks = 1 << 14;
/// Far above the loaded loopback RTT: a retransmission here is waste, not
/// policy.
constexpr double kRetransmitNs = 50e6;
/// Chunks tracked at once; in-flight chunks span at most 2 x window.
constexpr int kRing = 256;
constexpr unsigned kAllWorkers = (1u << kWorkers) - 1;

/// Seeded contributions: value i of worker w for global chunk g.
struct AggValues {
  std::uint64_t seed;
  [[nodiscard]] std::uint64_t value(std::int64_t g, int w, int i) const {
    return mix(seed, (static_cast<std::uint64_t>(g) * kWorkers + w) * kValues + i) & 0xFFFFFFFFu;
  }
  [[nodiscard]] std::uint64_t exponent(std::int64_t g, int w) const {
    return mix(seed ^ 0xE1u, static_cast<std::uint64_t>(g) * kWorkers + w) & 0xFFu;
  }
  /// The contribution packet's arguments (slot and version as the
  /// RetransmitWindow assigns them).
  void fill(ArgValues& args, std::int64_t g, int w) const {
    const std::uint64_t slot = static_cast<std::uint64_t>(g % kAggWindow);
    const std::uint64_t ver = static_cast<std::uint64_t>((g / kAggWindow) & 1);
    args[0][0] = ver;
    args[1][0] = slot;                 // bmp_idx
    args[2][0] = ver * kSlots + slot;  // agg_idx
    args[3][0] = 1ULL << w;            // mask
    args[4][0] = exponent(g, w);
    for (int i = 0; i < kValues; ++i) args[5][static_cast<std::size_t>(i)] = value(g, w, i);
  }
};

class AggWorkload final : public Workload {
 public:
  ~AggWorkload() override {
    for (Worker& worker : workers_) {
      worker.window.reset();
      worker.host.reset();
    }
    control_.reset();
    daemon_.reset();
  }

  void setup(std::uint64_t seed) override {
    values_ = AggValues{seed};
    driver::CompileResult compiled = compile_app(app_, setup_info_);
    spec_ = compiled.specs.at(1);
    net::SwdOptions options;
    options.compiler = driver::artifact_compiler();
    set_phase(Phase::kLoad);
    daemon_ = std::make_unique<Daemon>(options);
    control_ = std::make_unique<runtime::DeviceConnection>("127.0.0.1", daemon_->control_port());
    if (!control_->valid()) fail(Phase::kLoad, "control connection to the daemon failed");
    load_kernel(*control_, app_, setup_info_);
    set_phase(Phase::kSeed);
    check(Phase::kSeed, control_->set_multicast_group_e(apps::kAggMulticastGroup, {1, 2, 3, 4}),
          "set_multicast_group_e");
    for (int w = 0; w < kWorkers; ++w) {
      Worker& worker = workers_[static_cast<std::size_t>(w)];
      worker.host = std::make_unique<Host>(static_cast<std::uint16_t>(w + 1),
                                           daemon_->udp_port(), spec_);
      worker.args = sim::make_args(spec_);
      worker.last_done.assign(kAggWindow, -1);
      worker.host->runtime.on_receive(
          [this, w](const Message&, ArgValues& args) {
            const std::uint64_t start = now_ns();
            const std::int64_t span = spans_.open(Spans::kReceive, start, poll_span_);
            on_response(w, args);
            spans_.close(span, Spans::kReceive, start, now_ns());
          });
    }
  }


  void pump() override {
    for (Worker& worker : workers_) {
      const std::uint64_t start = now_ns();
      poll_span_ = spans_.open(Spans::kPoll, start);
      worker.host->transport.poll_once(0);
      spans_.close(poll_span_, Spans::kPoll, start, now_ns());
    }
    if (!wrong_.empty()) fail(current_phase(), wrong_);
    if (!issuing_) return;
    for (int w = 0; w < kWorkers; ++w) {
      Worker& worker = workers_[static_cast<std::size_t>(w)];
      if (worker.window != nullptr && !worker.window->complete()) continue;
      if (worker.window != nullptr) ++worker.round;
      RetransmitWindow::Config config;
      config.chunks = kRoundChunks;
      config.window = kAggWindow;
      config.retransmit_ns = kRetransmitNs;
      worker.window = std::make_unique<RetransmitWindow>(
          worker.host->transport, config,
          [this, w](int chunk, int, bool retransmission) { send(w, chunk, retransmission); });
      worker.window->start();
    }
  }

  void set_issuing(bool on) override { issuing_ = on; }
  [[nodiscard]] std::uint64_t outstanding() const override { return outstanding_; }
  void enable_telemetry(obs::SpanCollector* collector) override {
    for (Worker& worker : workers_) worker.host->runtime.enable_telemetry(collector);
  }
  HostCounters host_counters() override {
    HostCounters c;
    for (Worker& worker : workers_) {
      c.sent += worker.host->runtime.sent.value();
      c.tx_syscalls += worker.host->transport.send_syscalls.value();
      c.stale_round_trips += worker.host->runtime.dropped_stale_round_trip.value();
    }
    c.pack_ns_p50 = workers_[0].host->runtime.pack_ns.quantile(0.5);
    c.unpack_ns_p50 = workers_[0].host->runtime.unpack_ns.quantile(0.5);
    return c;
  }
  void reset_host_histograms() override {
    for (Worker& worker : workers_) {
      worker.host->runtime.pack_ns.reset();
      worker.host->runtime.unpack_ns.reset();
    }
  }
  void layer_metrics(std::vector<Metric>& out) override {
    const double ops = static_cast<double>(stats_.completed(1) + stats_.completed(2));
    out.push_back({"agg.retx_per_op", ops > 0 ? static_cast<double>(retransmissions_) / ops : 0.0,
                   "ratio"});
    out.push_back({"agg.useful_frac",
                   sends_ > 0 ? static_cast<double>(first_sends_) / static_cast<double>(sends_)
                              : 0.0,
                   "ratio"});
  }

  std::vector<std::vector<std::uint8_t>> replay_sample(std::uint64_t seed) override {
    const AggValues values{seed};
    std::vector<std::vector<std::uint8_t>> wire;
    ArgValues args = sim::make_args(spec_);
    for (std::int64_t g = 0; g < 512; ++g) {
      for (int w = 0; w < kWorkers; ++w) {
        values.fill(args, g, w);
        wire.push_back(net::serialize_packet(
            runtime::pack(Message(static_cast<std::uint16_t>(w + 1), 0, 1, 1), spec_, args)));
      }
    }
    return wire;
  }

  std::unique_ptr<sim::SwitchDevice> replay_device(std::uint64_t) override {
    SetupInfo ignored;
    return driver::make_device(compile_app(app_, ignored), 1);
  }

 private:
  struct Worker {
    std::unique_ptr<Host> host;
    std::unique_ptr<RetransmitWindow> window;
    std::int64_t round = 0;
    ArgValues args;  // reused for every contribution
    /// Per slot: the last global chunk this worker saw complete there
    /// (what a late duplicate on that slot must equal).
    std::vector<std::int64_t> last_done;
  };

  /// One chunk from its first contribution until every worker has it.
  struct Chunk {
    std::int64_t g = -1;
    /// When each worker first sent its contribution (its request's stamp).
    std::array<std::uint64_t, kWorkers> sent_ns{};
    int phase = 0;
    unsigned workers_done = 0;
    std::array<std::uint32_t, kValues> sum{};
    std::uint64_t max_exp = 0;
  };

  [[nodiscard]] std::int64_t global(const Worker& worker, int chunk) const {
    return worker.round * kRoundChunks + chunk;
  }

  void send(int w, int chunk, bool retransmission) {
    Worker& worker = workers_[static_cast<std::size_t>(w)];
    const std::int64_t g = global(worker, chunk);
    Chunk& entry = ring_[static_cast<std::size_t>(g % kRing)];
    if (entry.g != g) {
      // First contribution of this chunk from any worker: the op starts.
      if (!issuing_) return;
      if (entry.g >= 0 && entry.workers_done != kAllWorkers) {
        wrong_ = "agg_allreduce: chunk " + std::to_string(g) + " would evict unfinished chunk " +
                 std::to_string(entry.g);
        return;
      }
      entry.g = g;
      entry.sent_ns = {};
      entry.phase = issue_phase_;
      entry.workers_done = 0;
      entry.max_exp = 0;
      for (int i = 0; i < kValues; ++i) {
        std::uint64_t sum = 0;
        for (int v = 0; v < kWorkers; ++v) sum += values_.value(g, v, i);
        entry.sum[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(sum);
      }
      for (int v = 0; v < kWorkers; ++v) {
        entry.max_exp = std::max(entry.max_exp, values_.exponent(g, v));
      }
      stats_.on_issue(issue_phase_);
      ++outstanding_;
    }
    if (issue_phase_ > 0) {
      ++sends_;
      if (retransmission) {
        ++retransmissions_;
      } else {
        ++first_sends_;
      }
    }
    values_.fill(worker.args, g, w);
    const std::uint64_t start = now_ns();
    if (!retransmission) entry.sent_ns[static_cast<std::size_t>(w)] = start;
    worker.host->runtime.send(Message(static_cast<std::uint16_t>(w + 1), 0, 1, 1), worker.args);
    spans_.record(Spans::kSend, start, now_ns(), poll_span_);
  }

  void on_response(int w, const ArgValues& args) {
    const std::uint64_t now = now_ns();
    Worker& worker = workers_[static_cast<std::size_t>(w)];
    const auto slot = static_cast<int>(args[1][0]);
    const auto ver = static_cast<int>(args[0][0]);
    if (slot < 0 || slot >= kAggWindow) {
      wrong_ = "agg_allreduce: worker " + std::to_string(w + 1) + " got slot " +
               std::to_string(slot);
      return;
    }
    const int chunk = worker.window != nullptr ? worker.window->chunk_for_slot(slot) : -1;
    const bool fresh = chunk >= 0 && worker.window->version(chunk) == ver &&
                       !worker.window->is_done(chunk);
    const std::int64_t g = fresh ? global(worker, chunk) : worker.last_done[slot];
    Chunk& entry = ring_[static_cast<std::size_t>(std::max<std::int64_t>(g, 0) % kRing)];
    if (g < 0 || entry.g != g) {
      if (fresh || g < 0) {
        wrong_ = "agg_allreduce: worker " + std::to_string(w + 1) +
                 " got an aggregate for slot " + std::to_string(slot) + " with nothing sent";
      }
      return;  // a late duplicate of a chunk no longer tracked
    }
    for (int i = 0; i < kValues; ++i) {
      if (args[5][static_cast<std::size_t>(i)] != entry.sum[static_cast<std::size_t>(i)]) {
        wrong_ = "agg_allreduce: worker " + std::to_string(w + 1) + " chunk " +
                 std::to_string(g) + " value " + std::to_string(i) + ": got " +
                 std::to_string(args[5][static_cast<std::size_t>(i)]) + ", expected " +
                 std::to_string(entry.sum[static_cast<std::size_t>(i)]);
        return;
      }
    }
    if (args[4][0] != entry.max_exp) {
      wrong_ = "agg_allreduce: worker " + std::to_string(w + 1) + " chunk " + std::to_string(g) +
               " max exponent " + std::to_string(args[4][0]) + ", expected " +
               std::to_string(entry.max_exp);
      return;
    }
    if (!fresh) return;  // a correct duplicate (retransmission answered twice)
    worker.last_done[slot] = g;
    stats_.on_rtt(now - entry.sent_ns[static_cast<std::size_t>(w)]);
    entry.workers_done |= 1u << w;
    if (entry.workers_done == kAllWorkers) {
      stats_.on_complete(entry.phase);
      --outstanding_;
    }
    // Retires the chunk and launches the next one chained on this slot.
    worker.window->acknowledge_slot(slot);
  }

  apps::AppSource app_ = apps::agg_source(kWorkers, kSlots, kValues);
  KernelSpec spec_;
  AggValues values_{0};
  std::unique_ptr<runtime::DeviceConnection> control_;
  std::array<Worker, kWorkers> workers_;
  std::array<Chunk, kRing> ring_;
  bool issuing_ = false;
  std::uint64_t outstanding_ = 0;
  std::uint64_t sends_ = 0;
  std::uint64_t first_sends_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::int64_t poll_span_ = -1;
  std::string wrong_;
};

}  // namespace

std::unique_ptr<Workload> make_agg_workload() { return std::make_unique<AggWorkload>(); }

}  // namespace perfbench
