// SwitchML-style reliability, extracted from the AGG workload (§VII) so
// any host program can reuse it against any transport.
//
// A RetransmitWindow delivers `chunks` numbered chunks through `window`
// slots: chunk c occupies slot c % stride, chunks c and c + stride share a
// slot with alternating versions (the alternating-bit rule — the version
// bit is (c / stride) & 1, available to the send callback via version()).
// Every send sets its slot's retransmission deadline on the transport's
// clock; an unacknowledged chunk is re-sent when its deadline passes.
// Acknowledging a slot retires its chunk and immediately launches the next
// chunk chained on that slot.
//
// A slot keeps at most one live one-shot timer, not one per send, so the
// transport's timer heap holds about stride() entries however fast chunks
// complete. A timer that fires before its slot's deadline (the slot moved
// on to a later chunk meanwhile) re-arms for that deadline. A deadline
// earlier than the live timer's due time (a chunk sent after a backed-off
// one was acknowledged) arms a fresh timer; the one it supersedes is
// recognised by its due stamp when it fires, and ignored.
//
// The window does not touch packets itself — the owner's SendFn builds and
// sends the actual message — so it works for AGG contributions today and
// any future windowed workload.
//
// Failure semantics (ISSUE 3): by default a chunk is retried forever (the
// original SwitchML behavior — fine when the device is known to be up).
// With max_retries set, a chunk that stays unacknowledged through its
// retry budget fails the whole window: failed() flips, last_error() holds
// a typed kRetriesExhausted error, the error callback fires once, and all
// slots drain so no further timers send. Successive retries of one chunk
// can back off exponentially (backoff_factor > 1), capped at
// backoff_max_ns.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/transport.hpp"
#include "runtime/error.hpp"

namespace netcl::runtime {

class RetransmitWindow {
 public:
  struct Config {
    int chunks = 0;                   // total chunks to deliver
    int window = 1;                   // max outstanding slots
    double retransmit_ns = 200000.0;  // retransmission timeout
    /// Retransmissions allowed per chunk before the window gives up
    /// (0 = retry forever, the pre-ISSUE-3 behavior).
    int max_retries = 0;
    /// Timeout multiplier per successive retry of the same chunk
    /// (1.0 = fixed timeout, behavior-preserving for existing workloads).
    double backoff_factor = 1.0;
    /// Cap on the backed-off timeout (0 = uncapped).
    double backoff_max_ns = 0.0;
  };

  /// Called for every (re)transmission. `slot` is chunk % stride().
  using SendFn = std::function<void(int chunk, int slot, bool is_retransmission)>;

  /// The transport must outlive the window. Timers armed on the transport
  /// hold a weak liveness token, not a bare `this`: if the window is
  /// destroyed first, late firings become no-ops instead of dangling.
  RetransmitWindow(net::Transport& transport, const Config& config, SendFn send);

  /// Launches the initial window: one in-flight chunk per active slot.
  void start();

  /// Batched window emission (ISSUE 5): when set, start() marks the whole
  /// initial window in flight and hands every chunk to this callback in
  /// one call — the owner typically packs them into a single
  /// HostRuntime::send_batch / Transport::send_batch — then sets each
  /// chunk's retry deadline. Retransmissions and the chunks chained by
  /// acknowledge_slot() still go through the per-chunk SendFn.
  using BatchStartFn = std::function<void(std::span<const int> chunks)>;
  void set_batch_start(BatchStartFn fn) { batch_start_ = std::move(fn); }

  /// Active slots: min(window, chunks).
  [[nodiscard]] int stride() const { return stride_; }
  /// Version bit of a chunk (the alternating-bit rule).
  [[nodiscard]] int version(int chunk) const { return (chunk / stride_) & 1; }
  /// The chunk currently in flight on `slot`; -1 when none (or the slot is
  /// out of range — slots often arrive off the wire, so this is guarded).
  [[nodiscard]] int chunk_for_slot(int slot) const;
  [[nodiscard]] bool is_done(int chunk) const;
  [[nodiscard]] bool complete() const { return completed_ == config_.chunks; }
  [[nodiscard]] int completed() const { return completed_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }

  /// True once a chunk exhausted its retry budget; the window is inert
  /// afterwards (no sends, acknowledge_slot() returns false).
  [[nodiscard]] bool failed() const { return failed_; }
  /// kRetriesExhausted with the failing chunk when failed(); empty before.
  [[nodiscard]] const Error& last_error() const { return error_; }
  /// Invoked exactly once, at the moment the window fails.
  void on_error(std::function<void(const Error&)> fn) { on_error_ = std::move(fn); }

  /// The retransmission timeout after `retries_done` retries of a chunk:
  /// retransmit_ns * backoff_factor^retries_done, capped at backoff_max_ns.
  /// Public so tests can assert the schedule without faking a transport.
  [[nodiscard]] double retry_delay_ns(int retries_done) const;

  /// Retires the chunk in flight on `slot` and launches the next chunk
  /// chained on the slot. No-op (returns false) when nothing is in flight
  /// there or it already completed — retransmitted responses arrive late.
  bool acknowledge_slot(int slot);

 private:
  void launch(int chunk, bool is_retransmission);
  /// Sets the retransmission deadline of a chunk just (re)sent, arming a
  /// timer for its slot unless one already fires no later.
  void set_deadline(int chunk);
  /// Schedules the slot's live timer, due at `due_ns`.
  void arm_timer(int slot, double due_ns);
  /// The slot's timer due at `due_ns` fired.
  void on_timer(int slot, double due_ns);
  void give_up(int chunk);

  net::Transport& transport_;
  Config config_;
  SendFn send_;
  BatchStartFn batch_start_;
  /// Sentinel captured (weakly) by armed timers; expires with the window.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
  int stride_ = 1;
  std::vector<int> slot_chunk_;  // slot -> in-flight chunk (-1 none)
  /// Per slot: when its in-flight chunk is due for retransmission, and the
  /// due stamp of its live timer (+infinity when none is pending).
  std::vector<double> deadline_;
  std::vector<double> timer_due_;
  std::vector<bool> done_;       // per chunk
  std::vector<int> retries_;     // per chunk: retransmissions so far
  int completed_ = 0;
  std::uint64_t retransmissions_ = 0;
  bool failed_ = false;
  Error error_;
  std::function<void(const Error&)> on_error_;
};

}  // namespace netcl::runtime
