// URI-based transport construction (ISSUE 5, satellite): one line replaces
// the copy-pasted Options setup every example used to carry.
//
//   "sim://fabric"          -> SimTransport over context.fabric (required),
//                              attached as context.host_id
//   "udp://127.0.0.1:9700"  -> UdpTransport bound to an ephemeral local
//                              port, peered at host:port
//
// The scheme picks the implementation; everything behind the Transport
// interface (batched send, receive callbacks, timers) is identical, which
// is the whole point — a program switches between the in-process fabric
// and a real device daemon by changing one string.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/transport.hpp"
#include "net/udp_transport.hpp"
#include "sim/fabric.hpp"

namespace netcl::net {

/// Out-of-band inputs a URI cannot carry.
struct TransportContext {
  /// The fabric a "sim://" transport attaches to (required for sim).
  sim::Fabric* fabric = nullptr;
  /// Host id to register with the fabric ("sim://" only).
  std::uint16_t host_id = 0;
  /// Metrics registry name for "udp://" transports.
  std::string metrics_name = "udp";
};

/// Builds a transport from a URI, or nullptr on an unknown scheme, a
/// malformed address, a missing fabric, or a socket failure (`error`, when
/// non-null, receives the reason).
[[nodiscard]] std::unique_ptr<Transport> make_transport(const std::string& uri,
                                                        const TransportContext& context = {},
                                                        std::string* error = nullptr);

}  // namespace netcl::net
