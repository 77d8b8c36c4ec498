// The one binary encoding: util/bytes.h's fixed-width, varint and string
// layout and its bounds-checked reader, and the two formats built on it
// that no other suite round-trips directly — the page payload of every
// object shape (with checkpoint undo masking) and the checkpoint body.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codec_corpus.h"
#include "store/object_codec.h"
#include "util/bytes.h"
#include "wal/checkpoint.h"

namespace caddb {
namespace {

// ---- util/bytes.h ----

TEST(ByteCodecTest, FixedWidthIsLittleEndian) {
  char b[8];
  bytes::StoreU32(b, 0x04030201u);
  EXPECT_EQ(std::string(b, 4), std::string("\x01\x02\x03\x04", 4));
  bytes::StoreU16(b, 0xBEEF);
  EXPECT_EQ(bytes::LoadU16(b), 0xBEEF);
  std::string out;
  bytes::AppendU64(&out, 0x8877665544332211ull);
  EXPECT_EQ(out, std::string("\x11\x22\x33\x44\x55\x66\x77\x88", 8));
  EXPECT_EQ(bytes::LoadU64(out.data()), 0x8877665544332211ull);
  bytes::AppendU32(&out, 0xFFFFFFFFu);
  EXPECT_EQ(bytes::LoadU32(out.data() + 8), 0xFFFFFFFFu);
}

TEST(ByteCodecTest, VarintsAndStringsRoundTripAtEveryLengthBoundary) {
  const std::vector<std::pair<uint64_t, size_t>> cases = {
      {0, 1},           {1, 1},          {127, 1},
      {128, 2},         {16383, 2},      {16384, 3},
      {1ull << 32, 5},  {UINT64_MAX >> 1, 9}, {UINT64_MAX, 10},
  };
  std::string out;
  for (const auto& [value, width] : cases) {
    std::string one;
    bytes::AppendVarint(&one, value);
    EXPECT_EQ(one.size(), width) << value;
    out += one;
  }
  bytes::AppendString(&out, "");
  bytes::AppendString(&out, std::string(300, 'x'));
  bytes::ByteReader in(out, "test");
  for (const auto& [value, width] : cases) {
    Result<uint64_t> read = in.Varint();
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, value);
  }
  EXPECT_EQ(*in.String(), "");
  EXPECT_EQ(*in.String(), std::string(300, 'x'));
  EXPECT_TRUE(in.ExpectEnd().ok());
}

TEST(ByteCodecTest, ReaderRejectsOverrunOverlongAndOverflow) {
  auto varint_error = [](const std::string& data) {
    bytes::ByteReader in(data, "test");
    Result<uint64_t> v = in.Varint();
    return v.ok() ? std::string() : v.status().message();
  };
  EXPECT_NE(varint_error("").find("truncated varint"), std::string::npos);
  EXPECT_NE(varint_error("\x80").find("truncated varint"), std::string::npos);
  EXPECT_NE(varint_error(std::string("\x80\x00", 2)).find("overlong"),
            std::string::npos);
  // 2^64 needs an eleventh 7-bit group; a tenth byte above 1 overflows.
  EXPECT_NE(varint_error(std::string(9, '\xff') + "\x02").find("overflows"),
            std::string::npos);
  EXPECT_NE(varint_error(std::string(10, '\xff') + "\x01").find("overflows"),
            std::string::npos);

  const std::string three("\x01\x02\x03", 3);
  bytes::ByteReader short_read(three, "test");
  Result<uint32_t> u32 = short_read.U32();
  ASSERT_FALSE(u32.ok());
  EXPECT_EQ(u32.status().code(), Code::kParseError);
  EXPECT_NE(u32.status().message().find("test: need 4 bytes, 3 left at "
                                        "offset 0"),
            std::string::npos)
      << u32.status().ToString();
  EXPECT_EQ(*short_read.U8(), 1u);  // a failed read consumes nothing

  std::string past_end;
  bytes::AppendVarint(&past_end, 5);
  past_end += "abc";
  bytes::ByteReader string_read(past_end, "test");
  EXPECT_FALSE(string_read.String().ok());
  bytes::ByteReader count_read(past_end, "test");
  EXPECT_FALSE(count_read.Count().ok());  // 5 elements, 3 bytes left

  bytes::ByteReader trailing(three, "test");
  ASSERT_TRUE(trailing.U8().ok());
  Status end = trailing.ExpectEnd();
  ASSERT_FALSE(end.ok());
  EXPECT_NE(end.message().find("2 trailing bytes"), std::string::npos);
}

// ---- Page payloads ----

void ExpectSameObject(const DbObject& a, const DbObject& b) {
  EXPECT_EQ(a.surrogate(), b.surrogate());
  EXPECT_EQ(a.kind(), b.kind());
  EXPECT_EQ(a.type_name(), b.type_name());
  EXPECT_EQ(a.version(), b.version());
  EXPECT_EQ(a.class_name(), b.class_name());
  EXPECT_EQ(a.parent(), b.parent());
  EXPECT_EQ(a.parent_subclass(), b.parent_subclass());
  EXPECT_EQ(a.bound_inher_rel(), b.bound_inher_rel());
  EXPECT_EQ(a.attributes(), b.attributes());
  EXPECT_EQ(a.subclasses(), b.subclasses());
  EXPECT_EQ(a.subrels(), b.subrels());
  EXPECT_EQ(a.participants(), b.participants());
}

TEST(ObjectPayloadTest, EveryShapeRoundTripsByteIdentically) {
  std::vector<std::unique_ptr<DbObject>> objects =
      codec_corpus::AllObjectShapes();
  ASSERT_EQ(objects.size(), 12u);
  for (const auto& object : objects) {
    SCOPED_TRACE("object @" + std::to_string(object->surrogate().id));
    const std::string payload = store_codec::EncodeObjectPayload(*object);
    Result<std::unique_ptr<DbObject>> decoded =
        store_codec::DecodeObjectPayload(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectSameObject(**decoded, *object);
    EXPECT_EQ(store_codec::EncodeObjectPayload(**decoded), payload);
    // Empty member lists survive as empty lists, not as absent ones.
    if (!object->subclasses().empty()) {
      ASSERT_NE((*decoded)->Subclass("Empty"), nullptr);
      EXPECT_TRUE((*decoded)->Subclass("Empty")->empty());
    }
    // Every strict truncation is an error, never a shorter object.
    for (size_t n = 0; n < payload.size(); ++n) {
      EXPECT_FALSE(store_codec::DecodeObjectPayload(payload.substr(0, n)).ok())
          << "accepted a " << n << "-byte prefix";
    }
  }
}

TEST(ObjectPayloadTest, AttrOverridesDropAndAddAttributes) {
  DbObject object(Surrogate(9), "Plate", ObjKind::kObject);
  object.SetLocalAttribute("A", Value::Int(1));
  object.SetLocalAttribute("B", Value::Int(2));
  object.SetLocalAttribute("D", Value::Int(4));
  // A live transaction created A (before-image: absent, so a null
  // override), changed B (before-image 5) and deleted C (before-image 3,
  // an override of an attribute the object no longer holds).
  const std::map<std::string, Value> overrides = {
      {"A", Value::Null()}, {"B", Value::Int(5)}, {"C", Value::Int(3)}};
  const std::string payload =
      store_codec::EncodeObjectPayload(object, &overrides);
  Result<std::unique_ptr<DbObject>> decoded =
      store_codec::DecodeObjectPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const std::map<std::string, Value> want = {
      {"B", Value::Int(5)}, {"C", Value::Int(3)}, {"D", Value::Int(4)}};
  EXPECT_EQ((*decoded)->attributes(), want);
  // The live object is untouched, and the masked payload re-encodes as is.
  EXPECT_EQ(object.LocalAttribute("A"), Value::Int(1));
  EXPECT_EQ(store_codec::EncodeObjectPayload(**decoded), payload);
}

/// Header of an object payload up to the attribute count: @7, kObject,
/// type "T", version 0, no class/parent/bound.
std::string PayloadHeader(uint8_t kind = 0, uint8_t flags = 0) {
  std::string out;
  bytes::AppendVarint(&out, 7);
  out.push_back(static_cast<char>(kind));
  bytes::AppendString(&out, "T");
  bytes::AppendVarint(&out, 0);
  out.push_back(static_cast<char>(flags));
  return out;
}

std::string EmptyLists() { return std::string(3, '\0'); }

TEST(ObjectPayloadTest, RejectsEverySecondSpelling) {
  std::string minimal = PayloadHeader() + '\0' + EmptyLists();
  ASSERT_TRUE(store_codec::DecodeObjectPayload(minimal).ok());

  std::vector<std::pair<std::string, std::string>> bad;
  bad.emplace_back("trailing byte", minimal + 'x');
  bad.emplace_back("unknown kind", PayloadHeader(3) + '\0' + EmptyLists());
  bad.emplace_back("unknown flag", PayloadHeader(0, 8) + '\0' + EmptyLists());
  std::string no_surrogate = minimal;
  no_surrogate[0] = '\0';
  bad.emplace_back("surrogate 0", no_surrogate);
  std::string empty_class = PayloadHeader(0, 1);
  bytes::AppendString(&empty_class, "");
  bad.emplace_back("empty class", empty_class + '\0' + EmptyLists());

  auto with_attrs = [](const std::vector<std::pair<std::string,
                                                   std::string>>& attrs) {
    std::string out = PayloadHeader();
    bytes::AppendVarint(&out, attrs.size());
    for (const auto& [name, text] : attrs) {
      bytes::AppendString(&out, name);
      bytes::AppendString(&out, text);
    }
    return out + EmptyLists();
  };
  ASSERT_TRUE(store_codec::DecodeObjectPayload(
                  with_attrs({{"A", "i:1"}, {"B", "i:2"}}))
                  .ok());
  bad.emplace_back("names out of order",
                   with_attrs({{"B", "i:2"}, {"A", "i:1"}}));
  bad.emplace_back("duplicate name", with_attrs({{"A", "i:1"}, {"A", "i:2"}}));
  bad.emplace_back("non-canonical value", with_attrs({{"A", "i:01"}}));
  bad.emplace_back("unsorted set", with_attrs({{"A", "S[i:2;i:1]"}}));
  bad.emplace_back("null value", with_attrs({{"A", "null"}}));

  std::string lists_out_of_order = PayloadHeader() + '\0';
  bytes::AppendVarint(&lists_out_of_order, 2);
  bytes::AppendString(&lists_out_of_order, "b");
  bytes::AppendVarint(&lists_out_of_order, 0);
  bytes::AppendString(&lists_out_of_order, "a");
  bytes::AppendVarint(&lists_out_of_order, 0);
  bad.emplace_back("list names out of order",
                   lists_out_of_order + std::string(2, '\0'));

  for (const auto& [why, payload] : bad) {
    Result<std::unique_ptr<DbObject>> decoded =
        store_codec::DecodeObjectPayload(payload);
    EXPECT_FALSE(decoded.ok()) << why;
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), Code::kParseError) << why;
    }
  }
}

// ---- Checkpoint body ----

TEST(CheckpointBodyTest, RoundTripsAndRejectsDamage) {
  wal::CheckpointData data;
  data.replay_from = 300;
  data.meta = "schema 1\nobj-type X = end X;\n";
  data.pages.emplace_back(0, std::string(64, '\x7f'));
  data.pages.emplace_back(UINT32_MAX, "");
  const std::string body = wal::EncodeCheckpointBody(data);
  Result<wal::CheckpointData> decoded = wal::DecodeCheckpointBody(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->replay_from, 300u);
  EXPECT_EQ(decoded->meta, data.meta);
  EXPECT_EQ(decoded->pages, data.pages);
  for (size_t n = 0; n < body.size(); ++n) {
    EXPECT_FALSE(wal::DecodeCheckpointBody(body.substr(0, n)).ok()) << n;
  }
  EXPECT_FALSE(wal::DecodeCheckpointBody(body + '\0').ok());

  std::string wide_page;
  bytes::AppendVarint(&wide_page, 0);
  bytes::AppendString(&wide_page, "");
  bytes::AppendVarint(&wide_page, 1);
  bytes::AppendVarint(&wide_page, uint64_t{UINT32_MAX} + 1);
  bytes::AppendString(&wide_page, "");
  Result<wal::CheckpointData> wide = wal::DecodeCheckpointBody(wide_page);
  ASSERT_FALSE(wide.ok());
  EXPECT_NE(wide.status().message().find("out of range"), std::string::npos);
}

}  // namespace
}  // namespace caddb
