// CRC32 (IEEE 802.3, polynomial 0xEDB88320, reflected) for the snapshot
// store's per-section checksums.
//
// Slice-by-16 table lookup: sixteen bytes are folded per iteration with
// sixteen independent table loads, which keeps the checksum pass well
// under the snapshot reader's decode cost (every warm open verifies every
// byte of the file). Portable C++ only -- byte loads, no intrinsics, no
// alignment or endianness assumptions. The tables are built once,
// lazily, under C++11 static-initialization guarantees -- no global
// constructors, no thread hazards.
//
// Reference vector (the standard "check" value): Crc32 over the ASCII
// bytes "123456789" must equal 0xCBF43926 (tests/store_test.cc pins it,
// and checks every length/offset/chunking against a bit-at-a-time CRC).

#ifndef UCLEAN_STORE_CRC32_H_
#define UCLEAN_STORE_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace uclean {
namespace store {

namespace crc_internal {

inline constexpr size_t kSlice = 16;

struct Crc32Tables {
  // table[s][b]: the CRC contribution of byte b followed by s zero bytes
  // -- byte b seen (kSlice - 1 - s) positions into a kSlice-byte slice.
  std::array<std::array<uint32_t, 256>, kSlice> table;

  Crc32Tables() {
    for (uint32_t b = 0; b < 256; ++b) {
      uint32_t crc = b;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      table[0][b] = crc;
    }
    for (size_t s = 1; s < kSlice; ++s) {
      for (uint32_t b = 0; b < 256; ++b) {
        const uint32_t prev = table[s - 1][b];
        table[s][b] = (prev >> 8) ^ table[0][prev & 0xFFu];
      }
    }
  }
};

inline const Crc32Tables& Tables() {
  static const Crc32Tables tables;
  return tables;
}

}  // namespace crc_internal

/// Extends a running CRC32 (pass the previous return value as `crc`;
/// start with 0) over `size` bytes at `data`. Equivalent to zlib's
/// crc32() contract: the pre/post inversion lives inside, so chunked and
/// one-shot computations agree.
inline uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  using crc_internal::kSlice;
  const auto& t = crc_internal::Tables().table;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (size >= kSlice) {
    // Fold the CRC word through the first four bytes, then the other
    // twelve bytes independently -- byte-order free (no word loads).
    const uint32_t x = crc ^ (static_cast<uint32_t>(p[0]) |
                              static_cast<uint32_t>(p[1]) << 8 |
                              static_cast<uint32_t>(p[2]) << 16 |
                              static_cast<uint32_t>(p[3]) << 24);
    crc = t[15][x & 0xFFu] ^ t[14][(x >> 8) & 0xFFu] ^
          t[13][(x >> 16) & 0xFFu] ^ t[12][x >> 24] ^ t[11][p[4]] ^
          t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^ t[7][p[8]] ^ t[6][p[9]] ^
          t[5][p[10]] ^ t[4][p[11]] ^ t[3][p[12]] ^ t[2][p[13]] ^
          t[1][p[14]] ^ t[0][p[15]];
    p += kSlice;
    size -= kSlice;
  }
  while (size > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
    ++p;
    --size;
  }
  return ~crc;
}

/// One-shot CRC32 of a buffer.
inline uint32_t Crc32(const void* data, size_t size) {
  return Crc32Update(0, data, size);
}

}  // namespace store
}  // namespace uclean

#endif  // UCLEAN_STORE_CRC32_H_
