#include "core/block_msg.hpp"

#include <cstring>
#include <stdexcept>

#include "io/codec.hpp"
#include "util/crc32.hpp"

namespace qv::core {

std::vector<std::uint8_t> make_block_msg(int step, int id, float lo, float hi,
                                         std::span<const std::uint8_t> values,
                                         bool compress, std::uint64_t* raw,
                                         std::uint64_t* sent) {
  std::vector<std::uint8_t> msg(sizeof(BlockMsgHeader));
  bool compressed = false;
  if (compress) {
    io::rle8_encode(values, msg);
    compressed = msg.size() - sizeof(BlockMsgHeader) < values.size();
    if (!compressed) msg.resize(sizeof(BlockMsgHeader));
  }
  if (!compressed) msg.insert(msg.end(), values.begin(), values.end());
  const std::span<const std::uint8_t> payload =
      std::span<const std::uint8_t>(msg).subspan(sizeof(BlockMsgHeader));
  BlockMsgHeader hdr{};
  hdr.step = step;
  hdr.id = id;
  hdr.lo = lo;
  hdr.hi = hi;
  hdr.count = std::uint32_t(values.size());
  hdr.payload = std::uint32_t(payload.size());
  hdr.crc = util::crc32(payload);
  hdr.compressed = compressed ? 1 : 0;
  std::memcpy(msg.data(), &hdr, sizeof(hdr));
  if (raw) *raw += values.size();
  if (sent) *sent += payload.size();
  return msg;
}

std::vector<std::uint8_t> make_skip_block_msg(int step, int id) {
  BlockMsgHeader hdr{};
  hdr.step = step;
  hdr.id = id;
  hdr.flags = kFlagStepSkipped;
  std::vector<std::uint8_t> msg(sizeof(hdr));
  std::memcpy(msg.data(), &hdr, sizeof(hdr));
  return msg;
}

BlockMsgHeader block_msg_header(std::span<const std::uint8_t> msg) {
  BlockMsgHeader hdr;
  if (msg.size() < sizeof(hdr))
    throw std::runtime_error("block message: truncated header");
  std::memcpy(&hdr, msg.data(), sizeof(hdr));
  return hdr;
}

bool block_payload_ok(const BlockMsgHeader& hdr,
                      std::span<const std::uint8_t> msg) {
  if (msg.size() != sizeof(BlockMsgHeader) + hdr.payload) return false;
  return util::crc32(msg.subspan(sizeof(BlockMsgHeader))) == hdr.crc;
}

std::span<const std::uint8_t> block_msg_values(
    const BlockMsgHeader& hdr, std::span<const std::uint8_t> msg,
    std::vector<std::uint8_t>& scratch) {
  if (!hdr.compressed) return msg.subspan(sizeof(BlockMsgHeader), hdr.count);
  scratch.resize(hdr.count);
  if (!io::rle8_decode(msg, sizeof(BlockMsgHeader), scratch))
    throw std::runtime_error("block message: corrupt compressed payload");
  return scratch;
}

}  // namespace qv::core
