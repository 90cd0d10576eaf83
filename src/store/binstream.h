// binstream: the little-endian binary primitives every on-disk byte of
// the snapshot store goes through.
//
// FORMAT SPEC (the contract tests/store_test.cc pins byte-for-byte):
//  * fixed-width integers are little-endian, assembled with byte shifts
//    -- the encoded bytes are identical on any host endianness;
//  * unsigned varints are LEB128 (7 data bits per byte, high bit =
//    continuation, at most 10 bytes for a u64);
//  * signed integers are zigzag-mapped ((v << 1) ^ (v >> 63)) then
//    varint-encoded, so small magnitudes of either sign stay short;
//  * doubles are their IEEE-754 bit pattern as a fixed u64 (via memcpy,
//    never a reinterpret_cast);
//  * strings and arrays are a varint element count followed by the
//    elements.
//
// BinWriter appends to an owned byte buffer; BinReader walks a borrowed
// one with every read bounds-checked, returning Status::DataLoss on
// overrun or malformed varints (a truncated or bit-flipped snapshot must
// fail loudly, never read garbage). Double arrays take a single-memcpy
// fast path on little-endian hosts -- warm-start load time is dominated
// by exactly these bulk copies -- and fall back to per-element encoding
// elsewhere, producing identical bytes.
//
// tools/check_contracts.py enforces that raw serialization (fwrite/fread,
// reinterpret_cast byte punning) appears nowhere outside src/store/: this
// header IS the sanctioned byte boundary.

#ifndef UCLEAN_STORE_BINSTREAM_H_
#define UCLEAN_STORE_BINSTREAM_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace uclean {
namespace store {

/// True on little-endian hosts (the fast path for bulk double arrays).
inline bool IsLittleEndianHost() {
  const uint32_t probe = 1;
  unsigned char first = 0;
  std::memcpy(&first, &probe, 1);
  return first == 1;
}

/// Appends primitives to an owned byte buffer (see the format spec above).
class BinWriter {
 public:
  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

  void PutU8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  void PutU32(uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    bytes_.append(b, 4);
  }

  void PutU64(uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    bytes_.append(b, 8);
  }

  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      bytes_.push_back(static_cast<char>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    bytes_.push_back(static_cast<char>(v));
  }

  void PutZigzag(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }

  void PutF64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, 8);
    PutU64(bits);
  }

  void PutString(std::string_view s) {
    PutVarint(s.size());
    bytes_.append(s.data(), s.size());
  }

  /// varint count + the `count` doubles at `values` (a whole vector or
  /// just a prefix of one -- no temporary copy either way); one memcpy on
  /// little-endian hosts (the IEEE bit pattern already lies in wire order
  /// there).
  void PutF64Array(const double* values, size_t count) {
    PutVarint(count);
    if (count == 0) return;
    if (IsLittleEndianHost()) {
      const size_t old = bytes_.size();
      bytes_.resize(old + count * 8);
      std::memcpy(&bytes_[old], values, count * 8);
    } else {
      for (size_t i = 0; i < count; ++i) PutF64(values[i]);
    }
  }

  void PutVarintArray(const std::vector<size_t>& values) {
    PutVarint(values.size());
    for (size_t v : values) PutVarint(v);
  }

 private:
  std::string bytes_;
};

/// Walks a borrowed byte buffer; every accessor is bounds-checked and
/// fails with Status::DataLoss instead of reading past the end.
class BinReader {
 public:
  explicit BinReader(std::string_view bytes) : bytes_(bytes) {}

  size_t offset() const { return offset_; }
  size_t remaining() const { return bytes_.size() - offset_; }

  Status GetU8(uint8_t* out) {
    if (remaining() < 1) return Truncated("u8");
    *out = static_cast<uint8_t>(bytes_[offset_++]);
    return Status::OK();
  }

  Status GetBool(bool* out) {
    uint8_t v = 0;
    UCLEAN_RETURN_IF_ERROR(GetU8(&v));
    if (v > 1) return Status::DataLoss("bool byte out of range");
    *out = v != 0;
    return Status::OK();
  }

  Status GetU32(uint32_t* out) {
    if (remaining() < 4) return Truncated("u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(
               static_cast<unsigned char>(bytes_[offset_ + i]))
           << (8 * i);
    }
    offset_ += 4;
    *out = v;
    return Status::OK();
  }

  Status GetU64(uint64_t* out) {
    if (remaining() < 8) return Truncated("u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(
               static_cast<unsigned char>(bytes_[offset_ + i]))
           << (8 * i);
    }
    offset_ += 8;
    *out = v;
    return Status::OK();
  }

  Status GetVarint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (remaining() < 1) return Truncated("varint");
      const uint8_t byte = static_cast<uint8_t>(bytes_[offset_++]);
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        // The 10th byte carries the top single bit; anything above it
        // would have been dropped by the shift -- reject instead.
        if (shift == 63 && byte > 1) {
          return Status::DataLoss("varint overflows 64 bits");
        }
        *out = v;
        return Status::OK();
      }
    }
    return Status::DataLoss("varint longer than 10 bytes");
  }

  Status GetZigzag(int64_t* out) {
    uint64_t v = 0;
    UCLEAN_RETURN_IF_ERROR(GetVarint(&v));
    *out = static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
    return Status::OK();
  }

  Status GetF64(double* out) {
    uint64_t bits = 0;
    UCLEAN_RETURN_IF_ERROR(GetU64(&bits));
    std::memcpy(out, &bits, 8);
    return Status::OK();
  }

  Status GetString(std::string* out) {
    uint64_t size = 0;
    UCLEAN_RETURN_IF_ERROR(GetVarint(&size));
    if (size > remaining()) return Truncated("string body");
    out->assign(bytes_.data() + offset_, size);
    offset_ += size;
    return Status::OK();
  }

  Status GetF64Array(std::vector<double>* out) {
    uint64_t count = 0;
    UCLEAN_RETURN_IF_ERROR(GetVarint(&count));
    if (count > remaining() / 8) return Truncated("double array");
    out->resize(count);
    if (count == 0) return Status::OK();
    if (IsLittleEndianHost()) {
      std::memcpy(out->data(), bytes_.data() + offset_, count * 8);
      offset_ += count * 8;
    } else {
      for (uint64_t i = 0; i < count; ++i) {
        UCLEAN_RETURN_IF_ERROR(GetF64(&(*out)[i]));
      }
    }
    return Status::OK();
  }

  Status GetVarintArray(std::vector<size_t>* out) {
    uint64_t count = 0;
    UCLEAN_RETURN_IF_ERROR(GetVarint(&count));
    if (count > remaining()) return Truncated("varint array");
    out->clear();
    out->reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t v = 0;
      UCLEAN_RETURN_IF_ERROR(GetVarint(&v));
      out->push_back(static_cast<size_t>(v));
    }
    return Status::OK();
  }

  /// A decoder's final word: leftover bytes mean the payload and the
  /// decoder disagree about the format -- corruption, not slack.
  Status ExpectEnd(const char* what) const {
    if (offset_ != bytes_.size()) {
      return Status::DataLoss(std::string(what) + ": " +
                              std::to_string(bytes_.size() - offset_) +
                              " trailing bytes");
    }
    return Status::OK();
  }

 private:
  Status Truncated(const char* what) const {
    return Status::DataLoss(std::string("truncated ") + what + " at offset " +
                            std::to_string(offset_));
  }

  std::string_view bytes_;
  size_t offset_ = 0;
};

}  // namespace store
}  // namespace uclean

#endif  // UCLEAN_STORE_BINSTREAM_H_
