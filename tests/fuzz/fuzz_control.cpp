// Fuzz target: the control-plane parsers, both directions.
//
// Server side: the input is fed to SwdServer::handle_control as one
// already-deframed request payload (what a connected attacker fully
// controls after the frame header). The dispatcher must always answer —
// one response whose status byte is kControlOk or kControlError — and
// never crash, whatever the bytes. Every kControlError response carries
// the one failure body: a real ErrorKind (never kNone) and a non-empty
// message. The frame-header classifier is run
// over the same input too (kNeedMore / kFrame / kMalformed are the only
// outcomes, and an accepted length never exceeds kMaxControlFrame).
//
// Client side: the input is treated as a hostile daemon's response body
// and pushed through decode_stats, so a compromised device cannot crash
// the host runtime either.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/control.hpp"
#include "net/swd_server.hpp"
#include "net/wire.hpp"
#include "runtime/error.hpp"
#include "sim/switch.hpp"

namespace {

// One daemon for the whole run (binding sockets per input would exhaust
// fds); no compiler injected, so kLoadKernel exercises its refusal path.
netcl::net::SwdServer& server() {
  static auto* instance = [] {
    auto device = std::make_unique<netcl::sim::SwitchDevice>(1);
    return new netcl::net::SwdServer(std::move(device), netcl::net::SwdOptions{});
  }();
  return *instance;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> input{data, size};

  std::uint32_t length = 0;
  netcl::runtime::Error error;
  switch (netcl::net::parse_frame_header(input, length, error)) {
    case netcl::net::FrameParse::kNeedMore:
      if (size >= netcl::net::kControlFrameHeaderBytes) __builtin_trap();
      break;
    case netcl::net::FrameParse::kFrame:
      if (length > netcl::net::kMaxControlFrame) __builtin_trap();
      break;
    case netcl::net::FrameParse::kMalformed:
      if (error.kind != netcl::runtime::ErrorKind::kMalformed) __builtin_trap();
      break;
  }

  const std::vector<std::uint8_t> response = server().handle_control(input);
  if (response.empty()) __builtin_trap();
  if (response[0] != netcl::net::kControlOk && response[0] != netcl::net::kControlError) {
    __builtin_trap();
  }
  if (response[0] == netcl::net::kControlError) {
    netcl::net::ByteReader body(std::span<const std::uint8_t>(response).subspan(1));
    const auto kind = static_cast<netcl::runtime::ErrorKind>(body.u8());
    const std::string message = body.str();
    if (!body.ok() || kind == netcl::runtime::ErrorKind::kNone || message.empty()) {
      __builtin_trap();
    }
  }

  netcl::net::ByteReader reader(input);
  netcl::sim::DeviceStats stats;
  (void)netcl::net::decode_stats(reader, stats);
  return 0;
}
