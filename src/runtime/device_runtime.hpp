// NetCL device runtime: the small piece of (in the paper, P4) logic that
// sits between the generated kernel code and the device's base forwarding
// program. It owns the NetCL 4-tuple (src, dst, from, to): after a kernel
// returns an action (Table II), the tuple is rewritten and the base program
// forwards accordingly (§VI-C).
//
// Header-only so the switch simulator can apply it without linking the
// runtime library. Its one caller is sim::SwitchDevice::process, the device
// step the fabric, netcl-swd and the host fallback all share.
#pragma once

#include "frontend/ast.hpp"
#include "sim/packet.hpp"

namespace netcl::runtime {

struct ForwardDecision {
  bool drop = false;
  bool multicast = false;
  std::uint16_t multicast_group = 0;
};

/// Applies a kernel's action to the NetCL header on device `device_id`.
/// The previous hop of a message is its source host when `from` is 0, or
/// the last device that computed on it (§IV).
inline ForwardDecision apply_action(sim::NetclHeader& header, ActionKind action,
                                    std::uint16_t target, std::uint16_t device_id) {
  ForwardDecision decision;
  const std::uint16_t previous_device = header.from;
  header.from = device_id;
  switch (action) {
    case ActionKind::Drop:
      decision.drop = true;
      break;
    case ActionKind::SendToHost:
      header.dst = target;
      header.to = 0;
      break;
    case ActionKind::SendToDevice:
      header.to = target;
      break;
    case ActionKind::Multicast:
      decision.multicast = true;
      decision.multicast_group = target;
      header.to = 0;
      break;
    case ActionKind::Reflect:
      // Back to the previous hop: the last computing device, or the source
      // host if no device computed on the message yet.
      if (previous_device != 0 && previous_device != device_id) {
        header.to = previous_device;
      } else {
        header.dst = header.src;
        header.to = 0;
      }
      break;
    case ActionKind::ReflectLong:
      header.dst = header.src;
      header.to = 0;
      break;
    case ActionKind::Pass:
    case ActionKind::None:
      header.to = 0;  // continue to the original destination
      break;
  }
  return decision;
}

}  // namespace netcl::runtime
