// The block-data message every driver ships to its renderers: the 32-byte
// header layout, RLE and raw payloads, the skip marker, and the CRC check
// a renderer's NACK depends on.
#include "core/block_msg.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <stdexcept>

#include "util/crc32.hpp"

namespace qv::core {
namespace {

template <typename T>
T field_at(const std::vector<std::uint8_t>& msg, std::size_t offset) {
  T v;
  std::memcpy(&v, msg.data() + offset, sizeof(v));
  return v;
}

TEST(BlockMsg, HeaderFieldsSitAtTheirWireOffsets) {
  const std::vector<std::uint8_t> values = {1, 2, 3, 250, 0, 7};
  auto msg = make_block_msg(3, 5, 0.5f, 2.0f, values, false);
  ASSERT_EQ(msg.size(), 32u + values.size());
  EXPECT_EQ(field_at<std::int32_t>(msg, 0), 3);
  EXPECT_EQ(field_at<std::int32_t>(msg, 4), 5);
  EXPECT_EQ(field_at<float>(msg, 8), 0.5f);
  EXPECT_EQ(field_at<float>(msg, 12), 2.0f);
  EXPECT_EQ(field_at<std::uint32_t>(msg, 16), values.size());
  EXPECT_EQ(field_at<std::uint32_t>(msg, 20), values.size());
  EXPECT_EQ(field_at<std::uint32_t>(msg, 24), util::crc32(values));
  EXPECT_EQ(msg[28], 0);  // raw
  EXPECT_EQ(msg[29], 0);  // no flags
  EXPECT_EQ(msg[30], 0);
  EXPECT_EQ(msg[31], 0);
  EXPECT_EQ(0, std::memcmp(msg.data() + 32, values.data(), values.size()));
}

TEST(BlockMsg, CompressedAndRawPayloadsDequantizeAlike) {
  std::vector<std::uint8_t> values(200, 0);
  for (std::size_t i = 150; i < values.size(); ++i) values[i] = std::uint8_t(i);
  std::uint64_t raw = 0, sent = 0;
  auto packed = make_block_msg(1, 2, -1.0f, 3.0f, values, true, &raw, &sent);
  auto plain = make_block_msg(1, 2, -1.0f, 3.0f, values, false);
  const BlockMsgHeader hp = block_msg_header(packed);
  EXPECT_EQ(hp.compressed, 1);
  EXPECT_LT(hp.payload, values.size());
  EXPECT_EQ(raw, values.size());
  EXPECT_EQ(sent, hp.payload);
  ASSERT_TRUE(block_payload_ok(hp, packed));

  std::vector<std::uint8_t> scratch;
  std::vector<float> a(values.size()), b(values.size());
  unpack_block_msg(hp, packed, scratch, [&](std::size_t i, float v) { a[i] = v; });
  const BlockMsgHeader hr = block_msg_header(plain);
  ASSERT_TRUE(block_payload_ok(hr, plain));
  unpack_block_msg(hr, plain, scratch, [&](std::size_t i, float v) { b[i] = v; });
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[0], -1.0f);
  EXPECT_FLOAT_EQ(a[199], -1.0f + 4.0f / 255.0f * 199.0f);
}

TEST(BlockMsg, IncompressibleValuesShipRaw) {
  std::vector<std::uint8_t> values(64);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = std::uint8_t(i * 37);
  auto msg = make_block_msg(0, 0, 0.0f, 1.0f, values, true);
  const BlockMsgHeader h = block_msg_header(msg);
  EXPECT_EQ(h.compressed, 0);
  EXPECT_EQ(h.payload, values.size());
}

TEST(BlockMsg, SkipMarkerIsAHeaderOnlyMessage) {
  auto msg = make_skip_block_msg(9, 4);
  ASSERT_EQ(msg.size(), sizeof(BlockMsgHeader));
  const BlockMsgHeader h = block_msg_header(msg);
  EXPECT_EQ(h.step, 9);
  EXPECT_EQ(h.id, 4);
  EXPECT_EQ(h.flags, kFlagStepSkipped);
  EXPECT_EQ(block_msg_header(make_skip_block_msg(2)).id, -1);
}

TEST(BlockMsg, CorruptOrShortMessagesAreCaught) {
  const std::vector<std::uint8_t> values = {5, 6, 7, 8};
  auto msg = make_block_msg(0, 1, 0.0f, 1.0f, values, false);
  const BlockMsgHeader h = block_msg_header(msg);
  ASSERT_TRUE(block_payload_ok(h, msg));
  auto flipped = msg;
  flipped[33] ^= 0x10;
  EXPECT_FALSE(block_payload_ok(h, flipped));
  msg.pop_back();
  EXPECT_FALSE(block_payload_ok(h, msg));
  msg.resize(sizeof(BlockMsgHeader) - 1);
  EXPECT_THROW(block_msg_header(msg), std::runtime_error);
}

}  // namespace
}  // namespace qv::core
