#include "obs/flightrec.hpp"

#include <csignal>
#include <cstdlib>
#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace netcl::obs {

namespace {

/// SIGUSR2 latch. The handler must be async-signal-safe, so it only flips
/// this lock-free flag; a poll loop performs the actual dump later.
std::atomic<bool> g_signal_dump_requested{false};

void handle_sigusr2(int) { FlightRecorder::request_signal_dump(); }

/// Filename-safe version of a dump reason ("retries exhausted" →
/// "retries_exhausted").
std::string sanitize_reason(std::string_view reason) {
  std::string out;
  out.reserve(reason.size());
  for (char c : reason) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out = "dump";
  return out;
}

}  // namespace

const char* to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::kNone: return "none";
    case FlightKind::kBatchSend: return "batch_send";
    case FlightKind::kBatchRecv: return "batch_recv";
    case FlightKind::kGsoSend: return "gso_send";
    case FlightKind::kSendmmsg: return "sendmmsg";
    case FlightKind::kSendPartial: return "send_partial";
    case FlightKind::kSendError: return "send_error";
    case FlightKind::kPollCycle: return "poll_cycle";
    case FlightKind::kControlRequest: return "control_request";
    case FlightKind::kControlRetry: return "control_retry";
    case FlightKind::kControlBackoff: return "control_backoff";
    case FlightKind::kControlReconnect: return "control_reconnect";
    case FlightKind::kRetransmit: return "retransmit";
    case FlightKind::kRetriesExhausted: return "retries_exhausted";
    case FlightKind::kHeartbeatOk: return "heartbeat_ok";
    case FlightKind::kHeartbeatMiss: return "heartbeat_miss";
    case FlightKind::kDeviceDown: return "device_down";
    case FlightKind::kDeviceUp: return "device_up";
    case FlightKind::kGenerationChange: return "generation_change";
    case FlightKind::kFallback: return "fallback";
    case FlightKind::kQueueFlush: return "queue_flush";
    case FlightKind::kResync: return "resync";
    case FlightKind::kDump: return "dump";
    case FlightKind::kKernelLoad: return "kernel_load";
    case FlightKind::kKernelUnload: return "kernel_unload";
    case FlightKind::kKernelSwap: return "kernel_swap";
    case FlightKind::kUnknownComputation: return "unknown_computation";
    case FlightKind::kMalformedDatagram: return "malformed_datagram";
    case FlightKind::kPolicerShed: return "policer_shed";
    case FlightKind::kQueueShed: return "queue_shed";
    case FlightKind::kControlMalformed: return "control_malformed";
    case FlightKind::kSlowReadReap: return "slow_read_reap";
    case FlightKind::kSloFastBurn: return "slo_fast_burn";
    case FlightKind::kSloRecovered: return "slo_recovered";
    case FlightKind::kProfileDump: return "profile_dump";
    case FlightKind::kRecvTruncated: return "recv_truncated";
    case FlightKind::kRecvDropped: return "recv_dropped";
  }
  return "unknown";
}

std::uint64_t flight_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One writer (the owning thread), readers only under the Impl mutex at
/// snapshot time. `head` counts events ever written; slot = seq & mask.
struct FlightRecorder::Ring {
  std::atomic<std::uint64_t> head{0};
  std::uint64_t last_read = 0;  // guarded by Impl::mutex
  std::uint64_t dropped = 0;    // guarded by Impl::mutex
  std::uint16_t id = 0;
  FlightEvent slots[kRingCapacity];
};

struct FlightRecorder::Impl {
  std::mutex mutex;
  std::vector<std::unique_ptr<Ring>> rings;  // never shrinks; ids are stable
  std::string label = "host";
};

FlightRecorder::FlightRecorder() : impl_(new Impl) {
  if (const char* env = std::getenv("NETCL_FLIGHT"); env != nullptr) {
    enabled_.store(!(env[0] == '0' && env[1] == '\0'), std::memory_order_relaxed);
  }
}

FlightRecorder& FlightRecorder::instance() {
  // Leaked on purpose: instrumentation sites may fire during static
  // destruction (registry teardown, transport destructors) and must never
  // touch a destroyed recorder.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::Ring& FlightRecorder::ring_for_this_thread() {
  thread_local Ring* ring = nullptr;
  if (ring == nullptr) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto owned = std::make_unique<Ring>();
    owned->id = static_cast<std::uint16_t>(impl_->rings.size());
    ring = owned.get();
    impl_->rings.push_back(std::move(owned));
  }
  return *ring;
}

void FlightRecorder::record(FlightKind kind, std::uint64_t a, std::uint64_t b) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Ring& ring = ring_for_this_thread();
  const std::uint64_t seq = ring.head.load(std::memory_order_relaxed);
  FlightEvent& slot = ring.slots[seq & (kRingCapacity - 1)];
  slot.ts_ns = flight_now_ns();
  slot.kind = static_cast<std::uint16_t>(kind);
  slot.ring = ring.id;
  slot.seq = static_cast<std::uint32_t>(seq);
  slot.a = a;
  slot.b = b;
  // Publish the slot. Release pairs with the acquire in snapshot(); on
  // x86 this compiles to a plain store — the "single atomic bump".
  ring.head.store(seq + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot(std::uint64_t window_ns) const {
  const std::uint64_t now = flight_now_ns();
  const std::uint64_t cutoff = now > window_ns ? now - window_ns : 0;
  std::vector<FlightEvent> out;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const auto& owned : impl_->rings) {
    Ring& ring = *owned;
    const std::uint64_t h1 = ring.head.load(std::memory_order_acquire);
    const std::uint64_t begin = h1 > kRingCapacity ? h1 - kRingCapacity : 0;
    const std::size_t first = out.size();
    for (std::uint64_t s = begin; s < h1; ++s) {
      out.push_back(ring.slots[s & (kRingCapacity - 1)]);
    }
    // The writer may have lapped us mid-copy; any sequence older than
    // h2 - capacity was (possibly) overwritten while we read it, so the
    // copy is discarded rather than risk a torn event.
    const std::uint64_t h2 = ring.head.load(std::memory_order_acquire);
    const std::uint64_t valid_begin = h2 > kRingCapacity ? h2 - kRingCapacity : 0;
    std::size_t keep = first;
    for (std::uint64_t s = begin; s < h1; ++s) {
      const FlightEvent& event = out[first + static_cast<std::size_t>(s - begin)];
      if (s < valid_begin || event.ts_ns < cutoff) continue;
      out[keep++] = event;
    }
    out.resize(keep);
    // Wrap accounting: everything that scrolled past unread since the
    // last snapshot is lost, counted, and never blocks the writer.
    const std::uint64_t unread = h2 - ring.last_read;
    if (unread > kRingCapacity) ring.dropped += unread - kRingCapacity;
    ring.last_read = h2;
  }
  std::stable_sort(out.begin(), out.end(), [](const FlightEvent& x, const FlightEvent& y) {
    if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
    if (x.ring != y.ring) return x.ring < y.ring;
    return x.seq < y.seq;
  });
  return out;
}

std::uint64_t FlightRecorder::dropped_events() const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const auto& owned : impl_->rings) {
    const Ring& ring = *owned;
    total += ring.dropped;
    const std::uint64_t unread =
        ring.head.load(std::memory_order_acquire) - ring.last_read;
    if (unread > kRingCapacity) total += unread - kRingCapacity;
  }
  return total;
}

std::size_t FlightRecorder::ring_count() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->rings.size();
}

void FlightRecorder::set_process_label(std::string label) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->label = std::move(label);
}

std::string FlightRecorder::process_label() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->label;
}

namespace {

/// (aligned timestamp, stream index, event) — the merged timeline unit.
struct MergedEvent {
  std::int64_t ts_ns = 0;
  std::size_t stream = 0;
  FlightEvent event;
};

void write_event_object(JsonWriter& w, const MergedEvent& m, const std::string& process) {
  w.begin_object();
  w.key("ts_ns");
  w.value(m.ts_ns);
  w.key("process");
  w.value(process);
  w.key("ring");
  w.value(static_cast<std::uint64_t>(m.event.ring));
  w.key("seq");
  w.value(static_cast<std::uint64_t>(m.event.seq));
  w.key("kind");
  w.value(to_string(static_cast<FlightKind>(m.event.kind)));
  w.key("a");
  w.value(m.event.a);
  w.key("b");
  w.value(m.event.b);
  w.end_object();
}

}  // namespace

bool FlightRecorder::write_postmortem(const std::string& path_base,
                                      const std::vector<FlightStream>& extra_streams,
                                      std::uint64_t window_ns) const {
  // Stream 0 is always the local recorder, already on the flight clock.
  std::vector<std::string> names;
  names.push_back(process_label());
  std::vector<MergedEvent> merged;
  for (const FlightEvent& event : snapshot(window_ns)) {
    merged.push_back({static_cast<std::int64_t>(event.ts_ns), 0, event});
  }
  for (std::size_t i = 0; i < extra_streams.size(); ++i) {
    const FlightStream& stream = extra_streams[i];
    names.push_back(stream.process.empty() ? "stream" + std::to_string(i + 1)
                                           : stream.process);
    for (const FlightEvent& event : stream.events) {
      const double aligned = static_cast<double>(event.ts_ns) + stream.offset_ns;
      merged.push_back({static_cast<std::int64_t>(aligned), i + 1, event});
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const MergedEvent& x, const MergedEvent& y) {
                     if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
                     if (x.stream != y.stream) return x.stream < y.stream;
                     return x.event.seq < y.event.seq;
                   });

  // JSONL: one object per line, already clock-aligned and merged.
  {
    std::ofstream file(path_base + ".jsonl", std::ios::trunc);
    if (!file) return false;
    for (const MergedEvent& m : merged) {
      JsonWriter w;
      write_event_object(w, m, names[m.stream]);
      file << std::move(w).str() << '\n';
    }
    if (!file.good()) return false;
  }

  // Chrome trace: instant events, one pid lane per process stream, one
  // tid per ring, so chrome://tracing / Perfetto shows host and daemon
  // activity side by side on one timeline.
  Tracer trace;
  for (std::size_t i = 0; i < names.size(); ++i) {
    trace.set_process_name(static_cast<int>(i), names[i]);
  }
  for (const MergedEvent& m : merged) {
    TraceEvent event;
    event.name = to_string(static_cast<FlightKind>(m.event.kind));
    event.category = "flight";
    event.ts_us = static_cast<double>(m.ts_ns) / 1000.0;
    event.instant = true;
    event.pid = static_cast<int>(m.stream);
    event.tid = m.event.ring;
    event.args = {{"a", std::to_string(m.event.a)}, {"b", std::to_string(m.event.b)}};
    trace.record_complete(std::move(event));
  }
  return trace.write(path_base + ".trace.json");
}

std::string FlightRecorder::trigger_dump(std::string_view reason,
                                         const std::vector<FlightStream>& extra_streams) {
  if (!enabled()) {
    dumps_suppressed_.fetch_add(1, std::memory_order_relaxed);
    return "";
  }
  const std::uint64_t now = flight_now_ns();
  std::uint64_t last = last_dump_ns_.load(std::memory_order_relaxed);
  // One writer wins per rate-limit window; a burst of anomalies (a DOWN
  // storm, retries exhausting across many slots) yields one postmortem.
  do {
    if (last != 0 && now - last < kDumpIntervalNs) {
      dumps_suppressed_.fetch_add(1, std::memory_order_relaxed);
      return "";
    }
  } while (!last_dump_ns_.compare_exchange_weak(last, now, std::memory_order_relaxed));

  const std::uint64_t ordinal = dump_seq_.fetch_add(1, std::memory_order_relaxed);
  record(FlightKind::kDump, ordinal, reason.size());
  const char* dir = std::getenv("NETCL_FLIGHT_DIR");
  const std::string base = std::string(dir != nullptr ? dir : ".") + "/flightdump_" +
                           process_label() + "_" + sanitize_reason(reason) + "_" +
                           std::to_string(ordinal);
  if (!write_postmortem(base, extra_streams)) return "";
  dumps_written_.fetch_add(1, std::memory_order_relaxed);
  registry().counter("flight.dumps").inc();
  registry().gauge("flight.dropped_events").set(static_cast<double>(dropped_events()));
  return base;
}

void FlightRecorder::install_signal_handler() {
  struct sigaction action = {};
  action.sa_handler = &handle_sigusr2;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGUSR2, &action, nullptr);
}

void FlightRecorder::request_signal_dump() {
  g_signal_dump_requested.store(true, std::memory_order_relaxed);
}

bool FlightRecorder::consume_signal_dump() {
  return g_signal_dump_requested.exchange(false, std::memory_order_relaxed);
}

}  // namespace netcl::obs
