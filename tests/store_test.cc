// Unit layer of the snapshot store (store/binstream.h, store/crc32.h and
// the container half of store/snapshot.h):
//
//  * the wire primitives round-trip and their EXACT bytes are pinned --
//    little-endian fixed-width integers, LEB128 varints, zigzag signed
//    values, IEEE-754 doubles -- so the format is host-endianness
//    independent by construction, not by luck;
//  * every malformed input (truncation, overlong varints, out-of-range
//    bool bytes, trailing bytes) fails with Status::DataLoss;
//  * CRC32 matches the IEEE reference vector and a bit-at-a-time CRC at
//    every length 0-300 and start offset 0-15, and chains like zlib;
//  * the section-table arithmetic survives >4 GiB offsets (u64
//    round-trip on synthetic entries -- no file that size is built);
//  * SnapshotFileBuilder/SnapshotFile round-trip whole containers,
//    carry unknown sections, and reject unknown format versions plus
//    every truncation point and every single-byte corruption.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"
#include "store/binstream.h"
#include "store/crc32.h"
#include "store/snapshot.h"

namespace uclean {
namespace store {
namespace {

// ---------------------------------------------------------------- binstream

TEST(BinStreamTest, VarintRoundTripEdgeValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             (1ull << 63) - 1,
                             1ull << 63,
                             std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) {
    BinWriter w;
    w.PutVarint(v);
    BinReader r(w.bytes());
    uint64_t got = 0;
    ASSERT_TRUE(r.GetVarint(&got).ok()) << v;
    EXPECT_EQ(got, v);
    EXPECT_TRUE(r.ExpectEnd("varint").ok());
  }
}

TEST(BinStreamTest, VarintWireLengths) {
  const struct {
    uint64_t value;
    size_t bytes;
  } cases[] = {{0, 1},           {127, 1},
               {128, 2},         {16383, 2},
               {16384, 3},       {(1ull << 63) - 1, 9},
               {1ull << 63, 10}, {std::numeric_limits<uint64_t>::max(), 10}};
  for (const auto& c : cases) {
    BinWriter w;
    w.PutVarint(c.value);
    EXPECT_EQ(w.size(), c.bytes) << c.value;
  }
}

TEST(BinStreamTest, VarintRejectsOverflowAndTruncation) {
  // 10 continuation bytes: longer than any u64 varint.
  std::string eleven(10, '\x80');
  eleven.push_back('\x01');
  uint64_t out = 0;
  EXPECT_EQ(BinReader(eleven).GetVarint(&out).code(), StatusCode::kDataLoss);

  // The 10th byte may only carry the top single bit.
  std::string overflow(9, '\x80');
  overflow.push_back('\x02');
  EXPECT_EQ(BinReader(overflow).GetVarint(&out).code(),
            StatusCode::kDataLoss);

  // Continuation bit set but the stream ends.
  EXPECT_EQ(BinReader(std::string("\x80", 1)).GetVarint(&out).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(BinReader(std::string_view()).GetVarint(&out).code(),
            StatusCode::kDataLoss);
}

TEST(BinStreamTest, ZigzagRoundTripAndShortSmallMagnitudes) {
  const int64_t values[] = {0,
                            -1,
                            1,
                            -64,
                            63,
                            -65,
                            64,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  for (int64_t v : values) {
    BinWriter w;
    w.PutZigzag(v);
    BinReader r(w.bytes());
    int64_t got = 0;
    ASSERT_TRUE(r.GetZigzag(&got).ok()) << v;
    EXPECT_EQ(got, v);
  }
  // Small magnitudes of either sign stay one byte -- the point of zigzag.
  for (int64_t v : {-64, -1, 0, 1, 63}) {
    BinWriter w;
    w.PutZigzag(v);
    EXPECT_EQ(w.size(), 1u) << v;
  }
}

TEST(BinStreamTest, FixedWidthBytesAreLittleEndian) {
  // The encoded bytes are pinned, so a host producing different bytes (a
  // big-endian port taking a shortcut) fails here -- the
  // endianness-independence contract.
  BinWriter w;
  w.PutU32(0x01020304u);
  w.PutU64(0x0102030405060708ull);
  const std::string& b = w.bytes();
  ASSERT_EQ(b.size(), 12u);
  const unsigned char expect[12] = {0x04, 0x03, 0x02, 0x01, 0x08, 0x07,
                                    0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  for (size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(b[i]), expect[i]) << i;
  }
  BinReader r(b);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  EXPECT_EQ(u32, 0x01020304u);
  EXPECT_EQ(u64, 0x0102030405060708ull);
}

TEST(BinStreamTest, DoubleIsIeeeBitPattern) {
  BinWriter w;
  w.PutF64(1.0);
  const std::string& b = w.bytes();
  ASSERT_EQ(b.size(), 8u);
  // 1.0 = 0x3FF0000000000000, little-endian on the wire.
  const unsigned char expect[8] = {0, 0, 0, 0, 0, 0, 0xF0, 0x3F};
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(b[i]), expect[i]) << i;
  }
  double got = 0.0;
  BinReader r(b);
  ASSERT_TRUE(r.GetF64(&got).ok());
  EXPECT_EQ(got, 1.0);
}

TEST(BinStreamTest, BoolRejectsOutOfRangeByte) {
  bool out = false;
  EXPECT_EQ(BinReader(std::string("\x02", 1)).GetBool(&out).code(),
            StatusCode::kDataLoss);
  BinWriter w;
  w.PutBool(true);
  w.PutBool(false);
  BinReader r(w.bytes());
  ASSERT_TRUE(r.GetBool(&out).ok());
  EXPECT_TRUE(out);
  ASSERT_TRUE(r.GetBool(&out).ok());
  EXPECT_FALSE(out);
}

TEST(BinStreamTest, StringRoundTripAndTruncation) {
  BinWriter w;
  w.PutString("");
  w.PutString(std::string("a\0b", 3));  // embedded NUL survives
  BinReader r(w.bytes());
  std::string got;
  ASSERT_TRUE(r.GetString(&got).ok());
  EXPECT_EQ(got, "");
  ASSERT_TRUE(r.GetString(&got).ok());
  EXPECT_EQ(got, std::string("a\0b", 3));
  EXPECT_TRUE(r.ExpectEnd("strings").ok());

  // Length says 5, body holds 2.
  BinWriter bad;
  bad.PutVarint(5);
  bad.PutU8('x');
  bad.PutU8('y');
  EXPECT_EQ(BinReader(bad.bytes()).GetString(&got).code(),
            StatusCode::kDataLoss);
}

TEST(BinStreamTest, F64ArrayRoundTripAndCountGuard) {
  std::vector<double> values = {0.0, -1.5, 3.25e300, -0.0, 1e-300};
  BinWriter w;
  w.PutF64Array(values.data(), values.size());
  w.PutF64Array(nullptr, 0);
  BinReader r(w.bytes());
  std::vector<double> got;
  ASSERT_TRUE(r.GetF64Array(&got).ok());
  EXPECT_EQ(got, values);
  ASSERT_TRUE(r.GetF64Array(&got).ok());
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(r.ExpectEnd("double arrays").ok());

  // A count larger than the remaining bytes could hold must fail before
  // any attacker-sized resize.
  BinWriter bad;
  bad.PutVarint(std::numeric_limits<uint64_t>::max() / 8);
  EXPECT_EQ(BinReader(bad.bytes()).GetF64Array(&got).code(),
            StatusCode::kDataLoss);
}

TEST(BinStreamTest, VarintArrayRoundTrip) {
  std::vector<size_t> values = {0, 1, 127, 128, 1u << 20};
  BinWriter w;
  w.PutVarintArray(values);
  BinReader r(w.bytes());
  std::vector<size_t> got;
  ASSERT_TRUE(r.GetVarintArray(&got).ok());
  EXPECT_EQ(got, values);
}

TEST(BinStreamTest, ExpectEndReportsTrailingBytes) {
  BinWriter w;
  w.PutU8(1);
  w.PutU8(2);
  BinReader r(w.bytes());
  uint8_t v = 0;
  ASSERT_TRUE(r.GetU8(&v).ok());
  Status tail = r.ExpectEnd("payload");
  EXPECT_EQ(tail.code(), StatusCode::kDataLoss);
  EXPECT_NE(tail.message().find("payload"), std::string::npos);
}

// ---------------------------------------------------------------- crc32

TEST(Crc32Test, IeeeReferenceVector) {
  const char check[] = "123456789";
  EXPECT_EQ(Crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, UpdateChainsLikeOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(data.data(), data.size());
  for (size_t split : {size_t(0), size_t(1), size_t(7), data.size()}) {
    uint32_t crc = Crc32Update(0, data.data(), split);
    crc = Crc32Update(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << split;
  }
}

/// Bit-at-a-time CRC32 straight from the polynomial: the reference the
/// sliced implementation must match.
uint32_t ReferenceCrc32(const unsigned char* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0-300 cover the sliced main loop, its tail loop and every
  // mix of the two; offsets 0-15 put the slice boundary at every
  // alignment of the buffer.
  std::mt19937_64 gen(20261017);
  std::vector<unsigned char> buffer(16 + 300);
  for (unsigned char& byte : buffer) byte = static_cast<unsigned char>(gen());
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t size = 0; size <= 300; ++size) {
      const unsigned char* data = buffer.data() + offset;
      const uint32_t expected = ReferenceCrc32(data, size);
      ASSERT_EQ(Crc32(data, size), expected)
          << "offset " << offset << " size " << size;
      // Chunked at a seeded split point, then in uneven 1-17 byte steps:
      // the running CRC chains like the one-shot pass.
      const size_t split = size == 0 ? 0 : gen() % (size + 1);
      uint32_t crc = Crc32Update(0, data, split);
      ASSERT_EQ(Crc32Update(crc, data + split, size - split), expected)
          << "offset " << offset << " size " << size << " split " << split;
      crc = 0;
      size_t step = 1;
      for (size_t at = 0; at < size; at += step, step = step % 17 + 1) {
        crc = Crc32Update(crc, data + at, std::min(step, size - at));
      }
      ASSERT_EQ(crc, expected) << "offset " << offset << " size " << size;
    }
  }
}

// ------------------------------------------------------------- section table

TEST(SectionTableTest, EntryRoundTripsPast4GiB) {
  // No multi-GiB file is built; the synthetic entry proves the table
  // arithmetic is u64 end to end (a u32 offset would wrap here).
  SectionEntry entry;
  entry.id = kSectionEngine;
  entry.version = 3;
  entry.offset = (5ull << 30) + 17;  // > 4 GiB
  entry.size = (6ull << 30) + 4095;  // > 4 GiB
  entry.crc = 0xDEADBEEFu;
  BinWriter w;
  AppendSectionEntry(&w, entry);
  EXPECT_EQ(w.size(), kSectionEntrySize);
  BinReader r(w.bytes());
  SectionEntry got;
  ASSERT_TRUE(ParseSectionEntry(&r, &got).ok());
  EXPECT_EQ(got.id, entry.id);
  EXPECT_EQ(got.version, entry.version);
  EXPECT_EQ(got.offset, entry.offset);
  EXPECT_EQ(got.size, entry.size);
  EXPECT_EQ(got.crc, entry.crc);
  EXPECT_TRUE(r.ExpectEnd("entry").ok());
}

TEST(SectionTableTest, ParseEntryRejectsTruncation) {
  SectionEntry entry;
  BinWriter w;
  AppendSectionEntry(&w, entry);
  std::string bytes = w.bytes();
  bytes.resize(bytes.size() - 1);
  BinReader r(bytes);
  SectionEntry got;
  EXPECT_EQ(ParseSectionEntry(&r, &got).code(), StatusCode::kDataLoss);
}

TEST(SectionTableTest, SectionNames) {
  EXPECT_STREQ(SectionName(kSectionMeta), "meta");
  EXPECT_STREQ(SectionName(kSectionDatabase), "database");
  EXPECT_STREQ(SectionName(kSectionEngine), "engine");
  EXPECT_STREQ(SectionName(kSectionSessions), "sessions");
  EXPECT_STREQ(SectionName(kSectionCampaign), "campaign");
  EXPECT_STREQ(SectionName(999), "unknown");
}

// ---------------------------------------------------------------- container

std::string BuildTwoSectionFile() {
  SnapshotFileBuilder builder;
  builder.AddSection(kSectionMeta, 1, "meta-payload");
  builder.AddSection(kSectionDatabase, 1, std::string("db\0payload", 10));
  return builder.Finish();
}

TEST(SnapshotFileTest, BuildParseRoundTrip) {
  const std::string bytes = BuildTwoSectionFile();
  Result<SnapshotFile> file = SnapshotFile::Parse(bytes);
  ASSERT_TRUE(file.ok()) << file.status().message();
  EXPECT_EQ(file->format_version(), kSnapshotFormatVersion);
  EXPECT_EQ(file->feature_flags(), 0u);
  EXPECT_EQ(file->file_size(), bytes.size());
  ASSERT_EQ(file->sections().size(), 2u);
  const SectionEntry* meta = file->Find(kSectionMeta);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(file->payload(*meta), "meta-payload");
  const SectionEntry* db = file->Find(kSectionDatabase);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(file->payload(*db), std::string_view("db\0payload", 10));
  // Payloads are packed back to back from the header.
  EXPECT_EQ(meta->offset, kSnapshotHeaderSize);
  EXPECT_EQ(db->offset, meta->offset + meta->size);
  EXPECT_EQ(file->Find(kSectionCampaign), nullptr);
}

TEST(SnapshotFileTest, EmptySectionsRoundTrip) {
  SnapshotFileBuilder builder;
  builder.AddSection(kSectionMeta, 1, "");
  builder.AddSection(kSectionEngine, 1, "");
  Result<SnapshotFile> file = SnapshotFile::Parse(builder.Finish());
  ASSERT_TRUE(file.ok()) << file.status().message();
  ASSERT_EQ(file->sections().size(), 2u);
  for (const SectionEntry& entry : file->sections()) {
    EXPECT_EQ(entry.size, 0u);
    EXPECT_EQ(file->payload(entry), "");
  }
}

TEST(SnapshotFileTest, UnknownSectionIdIsCarried) {
  SnapshotFileBuilder builder;
  builder.AddSection(kSectionMeta, 1, "m");
  builder.AddSection(999, 7, "future bytes");
  Result<SnapshotFile> file = SnapshotFile::Parse(builder.Finish());
  ASSERT_TRUE(file.ok()) << file.status().message();
  const SectionEntry* unknown = file->Find(999);
  ASSERT_NE(unknown, nullptr);
  EXPECT_EQ(unknown->version, 7u);
  EXPECT_EQ(file->payload(*unknown), "future bytes");
}

TEST(SnapshotFileTest, RejectsUnknownFormatVersion) {
  SnapshotFileBuilder builder;
  builder.set_format_version(kSnapshotFormatVersion + 1);
  builder.AddSection(kSectionMeta, 1, "m");
  Result<SnapshotFile> file = SnapshotFile::Parse(builder.Finish());
  EXPECT_EQ(file.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotFileTest, RejectsBadMagic) {
  std::string bytes = BuildTwoSectionFile();
  bytes[0] = 'X';
  EXPECT_EQ(SnapshotFile::Parse(bytes).status().code(),
            StatusCode::kDataLoss);
}

TEST(SnapshotFileTest, RejectsEveryTruncationPoint) {
  const std::string bytes = BuildTwoSectionFile();
  // Every prefix of the file is a truncation the parser must reject; the
  // full sweep covers every section boundary by construction.
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<SnapshotFile> file = SnapshotFile::Parse(bytes.substr(0, len));
    EXPECT_EQ(file.status().code(), StatusCode::kDataLoss) << len;
  }
  EXPECT_TRUE(SnapshotFile::Parse(bytes).ok());
}

TEST(SnapshotFileTest, RejectsTrailingGarbage) {
  std::string bytes = BuildTwoSectionFile();
  bytes.push_back('\0');
  EXPECT_EQ(SnapshotFile::Parse(bytes).status().code(),
            StatusCode::kDataLoss);
}

TEST(SnapshotFileTest, RejectsEverySingleByteCorruption) {
  const std::string good = BuildTwoSectionFile();
  // Flip one bit in every byte: header, payloads, table and CRCs. Each
  // variant must fail -- there is no byte the checksums do not cover.
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    Result<SnapshotFile> file = SnapshotFile::Parse(bad);
    EXPECT_EQ(file.status().code(), StatusCode::kDataLoss) << "byte " << i;
  }
}

}  // namespace
}  // namespace store
}  // namespace uclean
