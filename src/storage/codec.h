#ifndef ENTANGLED_STORAGE_CODEC_H_
#define ENTANGLED_STORAGE_CODEC_H_

// Little-endian wire helpers shared by the WAL, snapshot and fact-segment
// codecs.  Every integer on disk is little-endian; a string is a u32
// length followed by its bytes.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/query.h"

namespace entangled {
namespace codec {

inline void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

inline void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

inline void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

inline void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

inline void PutString(std::vector<uint8_t>* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

/// Overwrites the u32 at `at` (a slot reserved earlier with PutU32).
inline void PatchU32(std::vector<uint8_t>* out, size_t at, uint32_t v) {
  (*out)[at] = static_cast<uint8_t>(v);
  (*out)[at + 1] = static_cast<uint8_t>(v >> 8);
  (*out)[at + 2] = static_cast<uint8_t>(v >> 16);
  (*out)[at + 3] = static_cast<uint8_t>(v >> 24);
}

/// Bounds-checked reader over one decoded buffer.  Every read fails
/// (returns false) instead of running past the end, and element counts
/// are checked against the bytes left before anyone reserves by them:
/// a CRC guards against accidents, not crafted bytes.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ReadU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = data_[pos_++];
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = static_cast<uint32_t>(data_[pos_]) |
         static_cast<uint32_t>(data_[pos_ + 1]) << 8 |
         static_cast<uint32_t>(data_[pos_ + 2]) << 16 |
         static_cast<uint32_t>(data_[pos_ + 3]) << 24;
    pos_ += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    uint32_t lo = 0, hi = 0;
    if (!ReadU32(&lo) || !ReadU32(&hi)) return false;
    *v = static_cast<uint64_t>(lo) | static_cast<uint64_t>(hi) << 32;
    return true;
  }
  bool ReadI64(int64_t* v) {
    uint64_t raw = 0;
    if (!ReadU64(&raw)) return false;
    *v = static_cast<int64_t>(raw);
    return true;
  }
  /// An i64 query id: fails outside [0, max QueryId], the ids an engine
  /// can issue, so recovery never narrows an id it cannot resume at.
  bool ReadQueryId(int64_t* v) {
    return ReadI64(v) && *v >= 0 &&
           *v <= std::numeric_limits<QueryId>::max();
  }
  /// A view into the buffer, valid while the buffer is.
  bool ReadString(std::string_view* s) {
    uint32_t len = 0;
    if (!ReadU32(&len) || remaining() < len) return false;
    *s = std::string_view(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }
  bool ReadString(std::string* s) {
    std::string_view view;
    if (!ReadString(&view)) return false;
    s->assign(view);
    return true;
  }
  /// A u32 count of elements that each take at least `min_bytes`
  /// (> 0): fails when that many cannot fit in the bytes left.
  bool ReadCount(uint32_t* n, size_t min_bytes) {
    return ReadU32(n) && *n <= remaining() / min_bytes;
  }
  /// The u64 form of ReadCount.
  bool ReadCount(uint64_t* n, size_t min_bytes) {
    return ReadU64(n) && *n <= remaining() / min_bytes;
  }

  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace codec
}  // namespace entangled

#endif  // ENTANGLED_STORAGE_CODEC_H_
