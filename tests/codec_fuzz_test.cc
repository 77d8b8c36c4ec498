// Seeded mutation sweep over the decoders that read caddb's binary
// encoding back from disk: page payloads, WAL records and checkpoint
// bodies. Every single-byte flip of every valid encoding, plus random
// splices of two valid encodings, must either be rejected or decode to a
// value that re-encodes byte-identically — a decoder that accepts a second
// spelling, or silently drops or invents bytes, fails here. Run under
// ASan+UBSan (ci/check.sh's crash-recovery stage) it also proves no input
// crashes a decoder or makes it read past its buffer.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "codec_corpus.h"
#include "store/object_codec.h"
#include "wal/checkpoint.h"
#include "wal/record.h"

namespace caddb {
namespace {

/// Decodes `bytes`; on success returns the re-encoding, on error nullopt.
using RoundTrip = std::function<std::optional<std::string>(const std::string&)>;

struct SweepStats {
  size_t inputs = 0;
  size_t accepted = 0;
};

void Check(const RoundTrip& round_trip, const std::string& input,
           SweepStats* stats) {
  ++stats->inputs;
  std::optional<std::string> again = round_trip(input);
  if (!again.has_value()) return;
  ++stats->accepted;
  ASSERT_EQ(*again, input) << "decoded to a value that re-encodes "
                              "differently; input "
                           << ::testing::PrintToString(input);
}

/// Every single-byte flip (three masks per byte), then `splices` random
/// prefix-of-one + suffix-of-another joins, from a fixed seed.
SweepStats Sweep(const std::vector<std::string>& seeds,
                 const RoundTrip& round_trip, size_t splices) {
  SweepStats stats;
  for (const std::string& seed : seeds) {
    Check(round_trip, seed, &stats);
    EXPECT_EQ(round_trip(seed), seed) << "corpus entry does not round-trip";
    for (size_t i = 0; i < seed.size(); ++i) {
      for (uint8_t mask : {0x01, 0x80, 0xFF}) {
        std::string flipped = seed;
        flipped[i] = static_cast<char>(flipped[i] ^ mask);
        Check(round_trip, flipped, &stats);
        if (::testing::Test::HasFatalFailure()) return stats;
      }
    }
  }
  std::mt19937_64 rng(19);
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng() % static_cast<uint64_t>(n));
  };
  for (size_t k = 0; k < splices; ++k) {
    const std::string& a = seeds[pick(seeds.size())];
    const std::string& b = seeds[pick(seeds.size())];
    std::string spliced = a.substr(0, pick(a.size() + 1)) +
                          b.substr(pick(b.size() + 1));
    if (!spliced.empty() && k % 2 == 1) {
      spliced[pick(spliced.size())] = static_cast<char>(rng());
    }
    Check(round_trip, spliced, &stats);
    if (::testing::Test::HasFatalFailure()) return stats;
  }
  return stats;
}

void ExpectNonVacuous(const SweepStats& stats) {
  // Most mutations must be rejected, and the sweep must have run.
  EXPECT_GT(stats.inputs, 1000u);
  EXPECT_LT(stats.accepted, stats.inputs / 2)
      << stats.accepted << " of " << stats.inputs << " mutants accepted";
}

TEST(CodecFuzzTest, PagePayloadDecoder) {
  std::vector<std::string> seeds;
  for (const auto& object : codec_corpus::AllObjectShapes()) {
    seeds.push_back(store_codec::EncodeObjectPayload(*object));
  }
  SweepStats stats = Sweep(
      seeds,
      [](const std::string& bytes) -> std::optional<std::string> {
        Result<std::unique_ptr<DbObject>> object =
            store_codec::DecodeObjectPayload(bytes);
        if (!object.ok()) return std::nullopt;
        return store_codec::EncodeObjectPayload(**object);
      },
      20000);
  ExpectNonVacuous(stats);
}

TEST(CodecFuzzTest, WalRecordDecoder) {
  std::vector<std::string> seeds;
  for (const wal::Record& r : codec_corpus::AllRecordKinds()) {
    seeds.push_back(r.Encode());
  }
  SweepStats stats = Sweep(
      seeds,
      [](const std::string& bytes) -> std::optional<std::string> {
        Result<wal::Record> record = wal::Record::Decode(bytes);
        if (!record.ok()) return std::nullopt;
        return record->Encode();
      },
      20000);
  ExpectNonVacuous(stats);
}

TEST(CodecFuzzTest, CheckpointBodyDecoder) {
  std::vector<std::string> seeds;
  for (int pages = 0; pages < 3; ++pages) {
    wal::CheckpointData data;
    data.replay_from = pages == 0 ? 0 : 4096u * pages;
    data.meta = "schema 1\nnext " + std::to_string(pages) + "\n";
    for (int p = 0; p < pages; ++p) {
      data.pages.emplace_back(static_cast<uint32_t>(p * 300),
                              std::string(24, static_cast<char>('a' + p)));
    }
    seeds.push_back(wal::EncodeCheckpointBody(data));
  }
  SweepStats stats = Sweep(
      seeds,
      [](const std::string& bytes) -> std::optional<std::string> {
        Result<wal::CheckpointData> data = wal::DecodeCheckpointBody(bytes);
        if (!data.ok()) return std::nullopt;
        return wal::EncodeCheckpointBody(*data);
      },
      20000);
  // A checkpoint body is mostly opaque meta and image bytes, which the body
  // framing accepts whatever they hold (the CRC in the file header guards
  // them), so only the sweep's size is asserted.
  EXPECT_GT(stats.inputs, 1000u);
}

}  // namespace
}  // namespace caddb
