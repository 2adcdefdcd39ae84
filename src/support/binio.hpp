// Shared binary stream helpers for the on-disk formats (factor files,
// schedule checkpoints, fault reports, spilled tiles).
//
// Every format follows the same conventions, factored out of
// solvers/serialize.cpp so new formats inherit them instead of reinventing
// framing: a 4-byte magic, a u32 version, then native-endian POD fields
// and length-prefixed vectors. Readers fail with a typed IoError carrying
// the byte offset of the offending field on truncation, bad magic, an
// implausible length or a version mismatch — never by silently producing
// garbage or a short read.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "support/error.hpp"

namespace th::bin {

/// Typed read failure: what went wrong and where. byte_offset() is the
/// stream position of the field the reader was consuming (-1 when the
/// stream is not seekable), so a corrupt file can be inspected with a hex
/// dump at exactly the reported offset.
class IoError : public Error {
 public:
  IoError(const std::string& what, std::int64_t byte_offset)
      : Error(what), byte_offset_(byte_offset) {}
  std::int64_t byte_offset() const { return byte_offset_; }

 private:
  std::int64_t byte_offset_;
};

namespace detail {

inline std::int64_t offset_of(std::istream& in) {
  // tellg() fails (returns -1) on an already-bad stream; report "unknown".
  return in.good() ? static_cast<std::int64_t>(in.tellg()) : -1;
}

[[noreturn]] inline void throw_truncated(const char* what, std::size_t bytes,
                                         std::int64_t at) {
  std::ostringstream os;
  os << "truncated stream: expected " << bytes << " byte(s) of " << what
     << " at byte offset " << at;
  throw IoError(os.str(), at);
}

}  // namespace detail

template <typename T>
void put(std::ostream& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Read one POD field; `what` names it in the error ("version", "task id",
/// ...) so a truncation report points at the exact field.
template <typename T>
T get(std::istream& in, const char* what = "field") {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::int64_t at = detail::offset_of(in);
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in.good()) detail::throw_truncated(what, sizeof(T), at);
  return v;
}

template <typename T>
void put_vector(std::ostream& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put<std::uint64_t>(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> get_vector(std::istream& in, std::uint64_t max_size,
                          const char* what = "vector") {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::int64_t len_at = detail::offset_of(in);
  const auto size = get<std::uint64_t>(in, what);
  if (size > max_size) {
    // A plausibility bound (format-specific) on the length prefix: a value
    // above it means the stream is corrupt, and failing here beats
    // attempting a multi-terabyte allocation.
    std::ostringstream os;
    os << "corrupt stream: implausible " << what << " length " << size
       << " (max " << max_size << ") at byte offset " << len_at;
    throw IoError(os.str(), len_at);
  }
  const std::int64_t at = detail::offset_of(in);
  std::vector<T> v(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(T)));
  if (!in.good() && size > 0) {
    detail::throw_truncated(what, static_cast<std::size_t>(size) * sizeof(T),
                            at);
  }
  return v;
}

// ---- CRC32C (Castagnoli) --------------------------------------------------

namespace detail {

inline std::uint32_t crc32c_table(const unsigned char* p, std::size_t n,
                                  std::uint32_t crc) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0x82f63b78u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TH_BIN_CRC32C_HW_X86 1
// The SSE4.2 CRC32 instruction implements exactly the Castagnoli
// polynomial this format uses; 8 bytes per instruction vs 1 byte per
// table lookup makes artifact verification I/O-bound instead of CPU-bound
// (recovery CRC-checks every rehydrated factor tile twice: frame + manifest
// cross-check).
__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_hw(
    const unsigned char* p, std::size_t n, std::uint32_t crc) {
  unsigned long long c = crc;
  while (n >= 8) {
    unsigned long long v;
    std::memcpy(&v, p, 8);
    c = __builtin_ia32_crc32di(c, v);
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(c);
  while (n > 0) {
    crc = __builtin_ia32_crc32qi(crc, *p++);
    --n;
  }
  return crc;
}
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define TH_BIN_CRC32C_HW_ARM 1
__attribute__((target("+crc"))) inline std::uint32_t crc32c_hw(
    const unsigned char* p, std::size_t n, std::uint32_t crc) {
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    crc = __builtin_aarch64_crc32cx(crc, v);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = __builtin_aarch64_crc32cb(crc, *p++);
    --n;
  }
  return crc;
}
#endif

}  // namespace detail

/// CRC32C over `n` bytes. Chainable: pass a previous result as `seed` to
/// extend the checksum over a split buffer. The Castagnoli polynomial
/// (0x1EDC6F41, reflected 0x82F63B78) is the iSCSI/ext4 choice — strictly
/// better burst detection than CRC32 — and is computed with the hardware
/// CRC instruction where the CPU has one (runtime-dispatched on x86-64,
/// compile-time on aarch64), falling back to a portable table. Both paths
/// produce identical checksums, so artifacts move freely across machines.
inline std::uint32_t crc32c(const void* data, std::size_t n,
                            std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
#if defined(TH_BIN_CRC32C_HW_X86)
  static const bool hw = __builtin_cpu_supports("sse4.2") != 0;
  crc = hw ? detail::crc32c_hw(p, n, crc) : detail::crc32c_table(p, n, crc);
#elif defined(TH_BIN_CRC32C_HW_ARM)
  crc = detail::crc32c_hw(p, n, crc);
#else
  crc = detail::crc32c_table(p, n, crc);
#endif
  return ~crc;
}

// ---- Framed records -------------------------------------------------------
//
// Every durable format (THCK checkpoints, THFR fault reports, THTS spilled
// tiles, THWJ journal entries, THTM tile manifests, THPM pattern artifacts)
// shares one self-validating frame:
//
//   magic[4] | u32 version | u64 payload_len | payload | u32 crc32c
//
// The CRC covers magic..payload, so any bit rot — header or body — fails
// the read as a typed IoError instead of silently corrupting numerics.
// RecordReader buffers the whole frame up front, which lets field-level
// errors report the *record start* offset plus the field's own absolute
// offset and name, not just wherever the raw stream cursor happened to be.

/// Bytes before the payload: magic(4) + version(4) + payload_len(8).
constexpr std::size_t kRecordHeaderBytes = 16;
/// Bytes after the payload: the CRC32C word.
constexpr std::size_t kRecordTrailerBytes = 4;

/// Serialises one framed record: buffer the payload field by field, then
/// finish() emits the frame (header, payload, CRC) in a single pass.
class RecordWriter {
 public:
  RecordWriter(const char magic[4], std::uint32_t version)
      : version_(version) {
    std::memcpy(magic_, magic, 4);
  }

  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(&v, sizeof(T));
  }

  template <typename T>
  void put_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(v.size());
    append(v.data(), v.size() * sizeof(T));
  }

  void put_string(const std::string& s) {
    put<std::uint64_t>(s.size());
    append(s.data(), s.size());
  }

  std::size_t payload_bytes() const { return payload_.size(); }
  /// Total frame size finish() will write.
  std::size_t frame_bytes() const {
    return kRecordHeaderBytes + payload_.size() + kRecordTrailerBytes;
  }

  /// Write the complete frame; the writer may be finished at most once.
  void finish(std::ostream& out) const {
    char head[kRecordHeaderBytes];
    std::memcpy(head, magic_, 4);
    std::memcpy(head + 4, &version_, 4);
    const std::uint64_t len = payload_.size();
    std::memcpy(head + 8, &len, 8);
    std::uint32_t crc = crc32c(head, sizeof head);
    crc = crc32c(payload_.data(), payload_.size(), crc);
    out.write(head, sizeof head);
    out.write(payload_.data(),
              static_cast<std::streamsize>(payload_.size()));
    out.write(reinterpret_cast<const char*>(&crc), sizeof crc);
    TH_CHECK_MSG(out.good(), "framed record write failed");
  }

 private:
  void append(const void* p, std::size_t n) {
    const auto* c = static_cast<const char*>(p);
    payload_.insert(payload_.end(), c, c + n);
  }

  char magic_[4];
  std::uint32_t version_;
  std::vector<char> payload_;
};

/// Reads and validates one framed record, then hands out payload fields.
/// The whole frame (header, payload, CRC) is consumed from the stream in
/// the constructor; magic/version/length/CRC failures throw IoError before
/// any field is visible. Field accessors never touch the stream again, so
/// a short or corrupt payload reports the record's start offset and the
/// failing field's name — the satellite contract for mid-record failures.
class RecordReader {
 public:
  RecordReader(std::istream& in, const char magic[4], std::uint32_t version,
               const char* what, std::uint64_t max_payload)
      : what_(what), start_(detail::offset_of(in)) {
    char head[kRecordHeaderBytes];
    in.read(head, sizeof head);
    if (!in.good()) {
      const std::streamsize got = in.gcount();
      if (got < 4) detail::throw_truncated("magic", 4, start_);
      if (got < 8) detail::throw_truncated("version", 4, off(4));
      detail::throw_truncated("payload length", 8, off(8));
    }
    if (std::memcmp(head, magic, 4) != 0) {
      std::ostringstream os;
      os << "not a Trojan Horse " << what_
         << " record (bad magic at byte offset " << start_ << ")";
      throw IoError(os.str(), start_);
    }
    std::uint32_t v = 0;
    std::memcpy(&v, head + 4, 4);
    if (v != version) {
      std::ostringstream os;
      os << "unsupported " << what_ << " record version " << v
         << " (this build reads version " << version << ") at byte offset "
         << off(4);
      throw IoError(os.str(), off(4));
    }
    std::uint64_t len = 0;
    std::memcpy(&len, head + 8, 8);
    if (len > max_payload) {
      std::ostringstream os;
      os << "corrupt " << what_ << " record at byte offset " << start_
         << ": implausible payload length " << len << " (max " << max_payload
         << ")";
      throw IoError(os.str(), off(8));
    }
    payload_.resize(static_cast<std::size_t>(len));
    in.read(payload_.data(), static_cast<std::streamsize>(len));
    if (!in.good() && len > 0) {
      detail::throw_truncated("record payload",
                              static_cast<std::size_t>(len),
                              off(kRecordHeaderBytes));
    }
    std::uint32_t stored = 0;
    in.read(reinterpret_cast<char*>(&stored), sizeof stored);
    if (!in.good()) {
      detail::throw_truncated("crc32c", 4, off(kRecordHeaderBytes + len));
    }
    std::uint32_t computed = crc32c(head, sizeof head);
    computed = crc32c(payload_.data(), payload_.size(), computed);
    if (stored != computed) {
      std::ostringstream os;
      os << "corrupt " << what_ << " record at byte offset " << start_
         << ": crc32c mismatch (stored 0x" << std::hex << stored
         << ", computed 0x" << computed << std::dec << " over "
         << kRecordHeaderBytes + payload_.size() << " byte(s))";
      throw IoError(os.str(), start_);
    }
  }

  /// Absolute stream offset of the record's first byte (-1: unseekable).
  std::int64_t start_offset() const { return start_; }
  std::size_t payload_bytes() const { return payload_.size(); }

  template <typename T>
  T get(const char* field = "field") {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T), field);
    T v{};
    std::memcpy(&v, payload_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  std::vector<T> get_vector(std::uint64_t max_size,
                            const char* field = "vector") {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::int64_t len_at = field_offset();
    const auto size = get<std::uint64_t>(field);
    if (size > max_size) {
      std::ostringstream os;
      os << "corrupt " << what_ << " record starting at byte offset "
         << start_ << ": implausible " << field << " length " << size
         << " (max " << max_size << ") at byte offset " << len_at;
      throw IoError(os.str(), len_at);
    }
    need(static_cast<std::size_t>(size) * sizeof(T), field);
    std::vector<T> v(static_cast<std::size_t>(size));
    // An empty vector's data() may be null, which memcpy does not allow.
    if (!v.empty()) {
      std::memcpy(v.data(), payload_.data() + pos_, v.size() * sizeof(T));
    }
    pos_ += v.size() * sizeof(T);
    return v;
  }

  std::string get_string(std::uint64_t max_size,
                         const char* field = "string") {
    const std::int64_t len_at = field_offset();
    const auto size = get<std::uint64_t>(field);
    if (size > max_size) {
      std::ostringstream os;
      os << "corrupt " << what_ << " record starting at byte offset "
         << start_ << ": implausible " << field << " length " << size
         << " (max " << max_size << ") at byte offset " << len_at;
      throw IoError(os.str(), len_at);
    }
    need(static_cast<std::size_t>(size), field);
    std::string s(payload_.data() + pos_, static_cast<std::size_t>(size));
    pos_ += static_cast<std::size_t>(size);
    return s;
  }

  /// Asserts the payload was fully consumed — trailing bytes mean the
  /// reader and writer disagree about the format, which is corruption the
  /// CRC cannot catch (the bytes were written intact, just misframed).
  void finish() const {
    if (pos_ != payload_.size()) {
      std::ostringstream os;
      os << "corrupt " << what_ << " record starting at byte offset "
         << start_ << ": " << payload_.size() - pos_
         << " trailing payload byte(s) after the last field";
      throw IoError(os.str(), field_offset());
    }
  }

 private:
  /// Absolute offset of `rel` bytes into the frame (-1 when unseekable).
  std::int64_t off(std::uint64_t rel) const {
    return start_ < 0 ? -1 : start_ + static_cast<std::int64_t>(rel);
  }
  /// Absolute offset of the next unread payload byte.
  std::int64_t field_offset() const {
    return off(kRecordHeaderBytes + pos_);
  }
  void need(std::size_t n, const char* field) const {
    if (pos_ + n > payload_.size()) {
      std::ostringstream os;
      os << "truncated " << what_ << " record starting at byte offset "
         << start_ << ": field '" << field << "' wants " << n
         << " byte(s) at byte offset " << field_offset() << " but only "
         << payload_.size() - pos_ << " payload byte(s) remain";
      throw IoError(os.str(), field_offset());
    }
  }

  const char* what_;
  std::int64_t start_;
  std::vector<char> payload_;
  std::size_t pos_ = 0;
};

inline void put_header(std::ostream& out, const char magic[4],
                       std::uint32_t version) {
  out.write(magic, 4);
  put(out, version);
}

/// Reads and checks the 4-byte magic and u32 version; `what` names the
/// format in error messages ("factor", "checkpoint", "tile store", ...).
inline void check_header(std::istream& in, const char magic[4],
                         std::uint32_t version, const char* what) {
  const std::int64_t at = detail::offset_of(in);
  char m[4];
  in.read(m, 4);
  if (!in.good()) detail::throw_truncated("magic", 4, at);
  if (std::memcmp(m, magic, 4) != 0) {
    std::ostringstream os;
    os << "not a Trojan Horse " << what
       << " stream (bad magic at byte offset " << at << ")";
    throw IoError(os.str(), at);
  }
  const std::int64_t vat = detail::offset_of(in);
  const auto v = get<std::uint32_t>(in, "version");
  if (v != version) {
    std::ostringstream os;
    os << "unsupported " << what << " version " << v
       << " (this build reads version " << version << ") at byte offset "
       << vat;
    throw IoError(os.str(), vat);
  }
}

}  // namespace th::bin
