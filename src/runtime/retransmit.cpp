#include "runtime/retransmit.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "obs/flightrec.hpp"

namespace netcl::runtime {

namespace {

/// timer_due_ of a slot with no live timer: every deadline is earlier.
constexpr double kNoTimer = std::numeric_limits<double>::infinity();

}  // namespace

RetransmitWindow::RetransmitWindow(net::Transport& transport, const Config& config,
                                   SendFn send)
    : transport_(transport), config_(config), send_(std::move(send)) {
  stride_ = std::max(1, std::min(config_.window, config_.chunks));
  slot_chunk_.assign(static_cast<std::size_t>(stride_), -1);
  deadline_.assign(static_cast<std::size_t>(stride_), 0.0);
  timer_due_.assign(static_cast<std::size_t>(stride_), kNoTimer);
  done_.assign(static_cast<std::size_t>(std::max(config_.chunks, 0)), false);
  retries_.assign(static_cast<std::size_t>(std::max(config_.chunks, 0)), 0);
}

void RetransmitWindow::start() {
  const int initial = std::min(stride_, config_.chunks);
  if (!batch_start_ || initial <= 0) {
    for (int chunk = 0; chunk < initial; ++chunk) {
      launch(chunk, /*is_retransmission=*/false);
    }
    return;
  }
  // Batched emission: mark the whole window in flight, hand every chunk to
  // the owner in one call (slot c holds chunk c at start), then set the
  // retry deadlines. Sends stay ahead of timer arming, matching the
  // per-chunk path's send-then-schedule order.
  std::vector<int> chunks(static_cast<std::size_t>(initial));
  for (int chunk = 0; chunk < initial; ++chunk) {
    slot_chunk_[static_cast<std::size_t>(chunk % stride_)] = chunk;
    chunks[static_cast<std::size_t>(chunk)] = chunk;
  }
  batch_start_(chunks);
  for (int chunk = 0; chunk < initial; ++chunk) set_deadline(chunk);
}

int RetransmitWindow::chunk_for_slot(int slot) const {
  if (slot < 0 || slot >= stride_) return -1;
  return slot_chunk_[static_cast<std::size_t>(slot)];
}

bool RetransmitWindow::is_done(int chunk) const {
  return chunk >= 0 && chunk < config_.chunks && done_[static_cast<std::size_t>(chunk)];
}

bool RetransmitWindow::acknowledge_slot(int slot) {
  const int chunk = chunk_for_slot(slot);
  if (chunk < 0 || is_done(chunk)) return false;
  done_[static_cast<std::size_t>(chunk)] = true;
  ++completed_;
  // Per-slot pipelining (SwitchML's alternating-bit rule): the next chunk
  // on this slot may go out only now that this one finished.
  const int next = chunk + stride_;
  if (next < config_.chunks) launch(next, /*is_retransmission=*/false);
  return true;
}

double RetransmitWindow::retry_delay_ns(int retries_done) const {
  double delay = config_.retransmit_ns;
  for (int i = 0; i < retries_done; ++i) {
    delay *= config_.backoff_factor;
    if (config_.backoff_max_ns > 0.0 && delay >= config_.backoff_max_ns) {
      return config_.backoff_max_ns;
    }
  }
  return delay;
}

void RetransmitWindow::give_up(int chunk) {
  failed_ = true;
  error_ = {ErrorKind::kRetriesExhausted,
            "chunk " + std::to_string(chunk) + " unacknowledged after " +
                std::to_string(config_.max_retries) + " retransmissions"};
  obs::flight(obs::FlightKind::kRetriesExhausted, static_cast<std::uint64_t>(chunk),
              static_cast<std::uint64_t>(config_.max_retries));
  // Drain: chunk_for_slot() answers -1 everywhere, so late responses are
  // ignored and no slot chains a further launch.
  std::fill(slot_chunk_.begin(), slot_chunk_.end(), -1);
  if (on_error_) on_error_(error_);
  // Postmortem of the retries that spent the budget (and whatever the
  // error handler just did about it).
  obs::FlightRecorder::instance().trigger_dump("retries_exhausted");
}

void RetransmitWindow::launch(int chunk, bool is_retransmission) {
  if (failed_) return;
  slot_chunk_[static_cast<std::size_t>(chunk % stride_)] = chunk;
  if (is_retransmission) {
    ++retransmissions_;
    ++retries_[static_cast<std::size_t>(chunk)];
    obs::flight(obs::FlightKind::kRetransmit, static_cast<std::uint64_t>(chunk),
                static_cast<std::uint64_t>(retries_[static_cast<std::size_t>(chunk)]));
  }
  send_(chunk, chunk % stride_, is_retransmission);
  set_deadline(chunk);
}

void RetransmitWindow::set_deadline(int chunk) {
  const auto slot = static_cast<std::size_t>(chunk % stride_);
  const double deadline =
      transport_.now_ns() + retry_delay_ns(retries_[static_cast<std::size_t>(chunk)]);
  deadline_[slot] = deadline;
  // A live timer due no later will find the deadline and re-arm for it.
  if (deadline < timer_due_[slot]) arm_timer(static_cast<int>(slot), deadline);
}

void RetransmitWindow::arm_timer(int slot, double due_ns) {
  timer_due_[static_cast<std::size_t>(slot)] = due_ns;
  transport_.schedule(due_ns - transport_.now_ns(),
                      [this, slot, due_ns, alive = std::weak_ptr<int>(alive_)] {
                        if (alive.expired()) return;  // window destroyed first
                        on_timer(slot, due_ns);
                      });
}

void RetransmitWindow::on_timer(int slot, double due_ns) {
  const auto index = static_cast<std::size_t>(slot);
  if (due_ns != timer_due_[index]) return;  // superseded by an earlier deadline
  timer_due_[index] = kNoTimer;
  const int chunk = slot_chunk_[index];
  if (failed_ || chunk < 0 || is_done(chunk)) return;  // nothing left to guard
  if (transport_.now_ns() < deadline_[index]) {
    // The slot moved on to a later chunk since this timer was armed.
    arm_timer(slot, deadline_[index]);
    return;
  }
  if (config_.max_retries > 0 &&
      retries_[static_cast<std::size_t>(chunk)] >= config_.max_retries) {
    give_up(chunk);
    return;
  }
  launch(chunk, /*is_retransmission=*/true);
}

}  // namespace netcl::runtime
