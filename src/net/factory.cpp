#include "net/factory.hpp"

#include <charconv>

#include "net/sim_transport.hpp"

namespace netcl::net {

namespace {

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

}  // namespace

std::unique_ptr<Transport> make_transport(const std::string& uri,
                                          const TransportContext& context,
                                          std::string* error) {
  constexpr std::string_view kSimScheme = "sim://";
  constexpr std::string_view kUdpScheme = "udp://";

  if (uri.starts_with(kSimScheme)) {
    // The authority is decorative today ("sim://fabric"); the fabric comes
    // from the context because it is an in-process object, not an address.
    if (context.fabric == nullptr) {
      set_error(error, "sim transport needs a fabric in the TransportContext");
      return nullptr;
    }
    return std::make_unique<SimTransport>(*context.fabric, context.host_id);
  }

  if (uri.starts_with(kUdpScheme)) {
    const std::string_view address = std::string_view(uri).substr(kUdpScheme.size());
    const std::size_t colon = address.rfind(':');
    if (colon == std::string_view::npos || colon == 0 || colon + 1 == address.size()) {
      set_error(error, "udp transport URI must be udp://host:port, got '" + uri + "'");
      return nullptr;
    }
    const std::string_view port_text = address.substr(colon + 1);
    std::uint16_t port = 0;
    const auto [end, ec] =
        std::from_chars(port_text.data(), port_text.data() + port_text.size(), port);
    if (ec != std::errc() || end != port_text.data() + port_text.size() || port == 0) {
      set_error(error, "bad port in transport URI '" + uri + "'");
      return nullptr;
    }
    UdpTransport::Options options;
    options.peer_host = std::string(address.substr(0, colon));
    options.peer_port = port;
    options.metrics_name = context.metrics_name;
    auto transport = std::make_unique<UdpTransport>(options);
    // error() also catches a well-formed port with an unparseable host
    // (set_peer failed but the socket itself is fine).
    if (!transport->valid() || !transport->error().empty()) {
      set_error(error, transport->error());
      return nullptr;
    }
    return transport;
  }

  set_error(error, "unknown transport scheme in '" + uri + "' (want sim:// or udp://)");
  return nullptr;
}

}  // namespace netcl::net
