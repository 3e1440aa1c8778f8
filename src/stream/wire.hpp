// The one type every encoded frame travels in, from the encoder to the viewer.
//
// A Wire is an immutable, shared buffer of wire bytes (a frame or a control
// message). The encoder bank or the frame cache makes it once; every client
// link, every DeliveredFrame and the stream recorder hold the same buffer, so
// serving N viewers costs N reference counts, never N copies. The bytes are
// freed when the last holder lets go. Immutability is what makes the sharing
// safe: nothing downstream of the encoder may write to a wire.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace qv::stream {

using Wire = std::shared_ptr<const std::vector<std::uint8_t>>;

// Seal freshly encoded bytes into a Wire (moves them; no copy).
inline Wire make_wire(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

}  // namespace qv::stream
