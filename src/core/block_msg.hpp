// The block-data message of both drivers: one per block (1DIP,
// 2DIP-collective, in-situ) or per renderer from a 2DIP-independent group
// member. The 8-bit values follow a 32-byte header, RLE-compressed when
// asked for and smaller. The header fits the fault layer's trusted 32-byte
// prefix, so step/id routing and the CRC survive a corrupted payload, which
// is what lets a renderer address its NACK.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace qv::core {

// Per-step message tags are step * 8 + kind. Both drivers send block data
// with kind 0 and frames (core/frame_msg.hpp) with kind 1; the pipeline
// uses kinds 2..5 for the rest of its traffic.
inline int block_msg_tag(int step) { return step * 8 + 0; }

inline constexpr std::uint8_t kFlagStepSkipped = 1;  // the data is not coming

struct BlockMsgHeader {
  std::int32_t step;
  std::int32_t id;        // block id; the member for 2DIP-independent
  float lo, hi;           // quantization range
  std::uint32_t count;    // quantized value count
  std::uint32_t payload;  // bytes that follow (== count when uncompressed)
  std::uint32_t crc;      // CRC-32 of the payload bytes
  std::uint8_t compressed;
  std::uint8_t flags;     // kFlagStepSkipped
  std::uint8_t pad[2];
};
static_assert(sizeof(BlockMsgHeader) == 32);

// Adds the value bytes to *raw and the payload bytes to *sent.
std::vector<std::uint8_t> make_block_msg(int step, int id, float lo, float hi,
                                         std::span<const std::uint8_t> values,
                                         bool compress,
                                         std::uint64_t* raw = nullptr,
                                         std::uint64_t* sent = nullptr);

// Header-only "this step's data is not coming" marker.
std::vector<std::uint8_t> make_skip_block_msg(int step, int id = -1);

// The header of `msg`; throws on a message shorter than one.
BlockMsgHeader block_msg_header(std::span<const std::uint8_t> msg);

// Does the payload match its length and CRC?
bool block_payload_ok(const BlockMsgHeader& hdr,
                      std::span<const std::uint8_t> msg);

// The quantized values of a checked message, decompressed into `scratch`
// when needed; throws on a payload that does not decode.
std::span<const std::uint8_t> block_msg_values(
    const BlockMsgHeader& hdr, std::span<const std::uint8_t> msg,
    std::vector<std::uint8_t>& scratch);

// Dequantize them through store(i, value).
template <typename Store>
void unpack_block_msg(const BlockMsgHeader& hdr,
                      std::span<const std::uint8_t> msg,
                      std::vector<std::uint8_t>& scratch, Store&& store) {
  const std::span<const std::uint8_t> values =
      block_msg_values(hdr, msg, scratch);
  const float scale = (hdr.hi - hdr.lo) / 255.0f;
  for (std::size_t i = 0; i < values.size(); ++i)
    store(i, hdr.lo + scale * float(values[i]));
}

}  // namespace qv::core
