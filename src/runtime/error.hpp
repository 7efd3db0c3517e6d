// Typed runtime errors (ISSUE 3).
//
// Failure-aware paths — control-plane deadlines, retransmission give-up,
// fail-fast fallback — surface one of these instead of hanging or silently
// dropping. Header-only and dependency-free so the net layer can report
// them too without a link-time cycle (netcl_net sits below netcl_runtime).
#pragma once

#include <string>

namespace netcl::runtime {

enum class ErrorKind : std::uint8_t {
  kNone = 0,
  /// A blocking operation exceeded its deadline (connect, request, probe).
  kTimeout,
  /// The failure detector holds the device DOWN.
  kDeviceDown,
  /// A RetransmitWindow exhausted max_retries for some chunk.
  kRetriesExhausted,
  /// The control-plane stream broke and reconnection failed.
  kDisconnected,
  /// The device answered and refused the operation (unknown memory name,
  /// bad table key, ...) — not a transport failure, so not retryable.
  kRejected,
  /// Bytes off the wire failed validation (bad magic, unsupported version,
  /// truncation, a length field that disagrees with the data). The input is
  /// hostile or corrupt; dropping it is the only safe response (ISSUE 8).
  kMalformed,
};

[[nodiscard]] inline const char* to_string(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kNone: return "none";
    case ErrorKind::kTimeout: return "timeout";
    case ErrorKind::kDeviceDown: return "device_down";
    case ErrorKind::kRetriesExhausted: return "retries_exhausted";
    case ErrorKind::kDisconnected: return "disconnected";
    case ErrorKind::kRejected: return "rejected";
    case ErrorKind::kMalformed: return "malformed";
  }
  return "unknown";
}

struct Error {
  ErrorKind kind = ErrorKind::kNone;
  std::string message;

  Error() = default;
  Error(ErrorKind k, std::string m) : kind(k), message(std::move(m)) {}

  /// True when an error is actually present.
  explicit operator bool() const { return kind != ErrorKind::kNone; }
  /// Success predicate, for readable call sites: `if (!err.ok()) ...`.
  [[nodiscard]] bool ok() const { return kind == ErrorKind::kNone; }

  [[nodiscard]] std::string to_string() const {
    return std::string(runtime::to_string(kind)) + ": " + message;
  }
};

/// A device's refusal of `op` on `object` (an unknown memory or table, an
/// index out of range), worded the same by an in-fabric device and netcl-swd.
[[nodiscard]] inline Error refused(const std::string& op, const std::string& object) {
  return {ErrorKind::kRejected, op + " '" + object + "' rejected by device"};
}

}  // namespace netcl::runtime
