// calc_min: the smallest packets (12-byte header + 13-byte CALC payload).
// One host keeps kWindow requests outstanding, cycling the five opcodes
// over seeded operands; the daemon runs default SwdOptions (no policer,
// no SLO). The kernel step is a small share of the daemon's per-op CPU,
// so this workload measures the per-packet I/O path.
#include <array>

#include "common.hpp"
#include "net/wire.hpp"
#include "runtime/message.hpp"

namespace perfbench {
namespace {

using runtime::HostRuntime;
using runtime::Message;
using sim::ArgValues;

std::uint64_t calc_expected(std::uint64_t op, std::uint64_t a, std::uint64_t b) {
  switch (op) {
    case apps::kCalcAdd: return (a + b) & 0xFFFFFFFFu;
    case apps::kCalcSub: return (a - b) & 0xFFFFFFFFu;
    case apps::kCalcAnd: return a & b;
    case apps::kCalcOr: return a | b;
    default: return a ^ b;
  }
}

/// The seeded request stream: opcodes cycle, operands are random.
class CalcStream {
 public:
  explicit CalcStream(std::uint64_t seed) : seed_(seed) {}
  void next(std::uint64_t& op, std::uint64_t& a, std::uint64_t& b) {
    op = apps::kCalcAdd + n_ % 5;
    const std::uint64_t r = mix(seed_, n_++);
    a = r & 0xFFFFFFFFu;
    b = r >> 32;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t n_ = 0;
};

class CalcWorkload final : public Workload {
 public:
  ~CalcWorkload() override {
    host_.reset();
    control_.reset();
    daemon_.reset();
  }

  void setup(std::uint64_t seed) override {
    driver::CompileResult compiled = compile_app(app_, setup_info_);
    spec_ = compiled.specs.at(1);
    net::SwdOptions options;  // default: no policer, no SLO
    options.compiler = driver::artifact_compiler();
    set_phase(Phase::kLoad);
    daemon_ = std::make_unique<Daemon>(options);
    control_ = std::make_unique<runtime::DeviceConnection>("127.0.0.1", daemon_->control_port());
    if (!control_->valid()) fail(Phase::kLoad, "control connection to the daemon failed");
    load_kernel(*control_, app_, setup_info_);
    set_phase(Phase::kSeed);  // CALC has no device state to seed
    stream_ = std::make_unique<CalcStream>(seed);
    host_ = std::make_unique<Host>(1, daemon_->udp_port(), spec_);
    host_->runtime.on_receive([this](const Message&, ArgValues& args) {
      const std::uint64_t start = now_ns();
      const std::int64_t span = spans_.open(Spans::kReceive, start, poll_span_);
      on_response(args);
      spans_.close(span, Spans::kReceive, start, now_ns());
    });
    batch_.assign(kWindow, {Message(1, 1, 1, 1), sim::make_args(spec_)});
  }


  void pump() override {
    const std::uint64_t start = now_ns();
    poll_span_ = spans_.open(Spans::kPoll, start);
    host_->transport.poll_once(0);
    spans_.close(poll_span_, Spans::kPoll, start, now_ns());
    if (!wrong_.empty()) fail(current_phase(), wrong_);
    expire(start);
    refill();
  }

  void set_issuing(bool on) override { issuing_ = on; }
  [[nodiscard]] std::uint64_t outstanding() const override { return outstanding_; }
  void enable_telemetry(obs::SpanCollector* collector) override {
    host_->runtime.enable_telemetry(collector);
  }
  HostCounters host_counters() override {
    HostCounters c;
    c.sent = host_->runtime.sent.value();
    c.tx_syscalls = host_->transport.send_syscalls.value();
    c.stale_round_trips = host_->runtime.dropped_stale_round_trip.value();
    c.pack_ns_p50 = host_->runtime.pack_ns.quantile(0.5);
    c.unpack_ns_p50 = host_->runtime.unpack_ns.quantile(0.5);
    return c;
  }
  void reset_host_histograms() override {
    host_->runtime.pack_ns.reset();
    host_->runtime.unpack_ns.reset();
  }
  void layer_metrics(std::vector<Metric>&) override {}

  std::vector<std::vector<std::uint8_t>> replay_sample(std::uint64_t seed) override {
    CalcStream stream(seed);
    std::vector<std::vector<std::uint8_t>> wire;
    ArgValues args = sim::make_args(spec_);
    for (int i = 0; i < 2048; ++i) {
      stream.next(args[0][0], args[1][0], args[2][0]);
      wire.push_back(net::serialize_packet(runtime::pack(Message(1, 1, 1, 1), spec_, args)));
    }
    return wire;
  }

  std::unique_ptr<sim::SwitchDevice> replay_device(std::uint64_t) override {
    SetupInfo ignored;
    return driver::make_device(compile_app(app_, ignored), 1);
  }

 private:
  struct Slot {
    bool busy = false;
    std::uint64_t op = 0, a = 0, b = 0;
    std::uint64_t sent_ns = 0;
    int phase = 0;
  };

  void refill() {
    if (!issuing_) return;
    std::size_t n = 0;
    for (Slot& slot : slots_) {
      if (slot.busy) continue;
      ArgValues& args = batch_[n].args;
      stream_->next(slot.op, slot.a, slot.b);
      while (in_flight(slot)) slot.b ^= 1;  // keep (op, a, b) unique among outstanding
      args[0][0] = slot.op;
      args[1][0] = slot.a;
      args[2][0] = slot.b;
      args[3][0] = 0;
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
    host_->runtime.send_batch(std::span(batch_.data(), n));
    spans_.record(Spans::kSend, start, now_ns());
  }

  /// Frees the slots of requests unanswered past kRequestTimeoutNs.
  void expire(std::uint64_t now) {
    for (Slot& slot : slots_) {
      if (slot.busy && slot.sent_ns != 0 && now - slot.sent_ns > kRequestTimeoutNs) {
        slot = Slot{};
        --outstanding_;
      }
    }
  }

  [[nodiscard]] bool in_flight(const Slot& candidate) const {
    for (const Slot& slot : slots_) {
      if (&slot != &candidate && slot.busy && slot.op == candidate.op && slot.a == candidate.a &&
          slot.b == candidate.b) {
        return true;
      }
    }
    return false;
  }

  void on_response(const ArgValues& args) {
    const std::uint64_t now = now_ns();
    const std::uint64_t op = args[0][0], a = args[1][0], b = args[2][0];
    for (Slot& slot : slots_) {
      if (!slot.busy || slot.sent_ns == 0 || slot.op != op || slot.a != a || slot.b != b) {
        continue;
      }
      if (args[3][0] != calc_expected(op, a, b)) {
        wrong_ = "calc_min: wrong result for op " + std::to_string(op) + "(" +
                 std::to_string(a) + ", " + std::to_string(b) + "): got " +
                 std::to_string(args[3][0]) + ", expected " +
                 std::to_string(calc_expected(op, a, b));
      }
      stats_.on_complete(slot.phase, now - slot.sent_ns);
      slot = Slot{};
      --outstanding_;
      return;
    }
    // No outstanding request matches: the answer to a request already
    // given up. Its request counts as failed.
  }

  apps::AppSource app_ = apps::calc_source();
  KernelSpec spec_;
  std::unique_ptr<runtime::DeviceConnection> control_;
  std::unique_ptr<Host> host_;
  std::unique_ptr<CalcStream> stream_;
  std::array<Slot, kWindow> slots_{};
  std::vector<HostRuntime::Outbound> batch_;
  bool issuing_ = false;
  std::uint64_t outstanding_ = 0;
  std::int64_t poll_span_ = -1;
  std::string wrong_;
};

}  // namespace

std::unique_ptr<Workload> make_calc_workload() { return std::make_unique<CalcWorkload>(); }

}  // namespace perfbench
