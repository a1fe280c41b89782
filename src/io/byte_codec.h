// The one little-endian byte codec shared by every binary format in the
// repo: the CTBS snapshot container (io/snapshot.h) and the framed-TCP
// wire format (net/frame.h). Writers append fixed-width little-endian
// fields to a byte vector; ByteReader is the matching strict bounded
// cursor. FNV-1a-32/64 are the checksums both formats carry.
#ifndef CTBUS_IO_BYTE_CODEC_H_
#define CTBUS_IO_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ctbus::io {

/// FNV-1a hashes with the standard offset bases (tiny, dependency-free,
/// and good enough to catch corruption — an integrity check, not crypto).
std::uint32_t Fnv1a32(const std::uint8_t* data, std::size_t size);
std::uint64_t Fnv1a64(const std::uint8_t* data, std::size_t size);

void AppendU8(std::vector<std::uint8_t>* out, std::uint8_t v);
void AppendU16(std::vector<std::uint8_t>* out, std::uint16_t v);
void AppendU32(std::vector<std::uint8_t>* out, std::uint32_t v);
void AppendU64(std::vector<std::uint8_t>* out, std::uint64_t v);
void AppendI32(std::vector<std::uint8_t>* out, std::int32_t v);
void AppendI64(std::vector<std::uint8_t>* out, std::int64_t v);
/// The IEEE-754 bit pattern, so every double round-trips bit for bit.
void AppendF64(std::vector<std::uint8_t>* out, double v);
/// u16 length prefix, then the raw bytes.
void AppendString(std::vector<std::uint8_t>* out, const std::string& s);
/// u32 count prefix, then one i32 per element.
void AppendIntList(std::vector<std::uint8_t>* out,
                   const std::vector<int>& values);

/// Strict bounded cursor over one payload: every Read* checks the
/// remaining bytes, list counts are validated against the bytes actually
/// present BEFORE any allocation, and the first failure is recorded as
/// "<prefix>field <name> at offset <n>: <reason>"; once failed, every
/// later read fails too, so call sites chain reads and check once.
class ByteReader {
 public:
  /// `prefix` leads every diagnostic (e.g. "section ROAD: "); frames use
  /// none.
  ByteReader(const std::uint8_t* data, std::size_t size,
             std::string prefix = "");

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  bool ReadU8(const char* field, std::uint8_t* out);
  bool ReadU16(const char* field, std::uint16_t* out);
  bool ReadU32(const char* field, std::uint32_t* out);
  bool ReadU64(const char* field, std::uint64_t* out);
  bool ReadI32(const char* field, std::int32_t* out);
  bool ReadI64(const char* field, std::int64_t* out);
  bool ReadF64(const char* field, double* out);

  /// Finite-only double: NaN/Inf from disk or the wire must never reach
  /// the planner.
  bool ReadFiniteF64(const char* field, double* out);

  /// A flag byte that must be exactly 0 or 1.
  bool ReadBool(const char* field, bool* out);

  /// u16-prefixed string of at most `max_bytes` bytes.
  bool ReadString(const char* field, std::size_t max_bytes, std::string* out);

  /// Reads a u32 element count for elements of `element_bytes` each,
  /// validating the byte requirement against the real payload BEFORE the
  /// caller allocates: a declared count the payload cannot possibly hold
  /// fails here, so a corrupt length can never drive an allocation.
  bool ReadCount(const char* field, std::size_t element_bytes,
                 std::uint32_t* out);

  /// u32-counted i32 list of at most `max_elements` entries; the count is
  /// bounded and checked against the payload before allocation.
  bool ReadIntList(
      const char* field, std::vector<int>* out,
      std::size_t max_elements = std::numeric_limits<std::uint32_t>::max());

  /// The whole payload must be consumed: trailing bytes mean a framing
  /// bug (or smuggled data) and are rejected like any bad field.
  bool ExpectEnd();

  /// Records `reason` for `field` at the current offset (first failure
  /// wins) and returns false.
  bool Fail(const char* field, const std::string& reason);

 private:
  bool Require(const char* field, std::size_t bytes);

  const std::uint8_t* data_;
  std::size_t size_;
  std::string prefix_;
  std::size_t offset_ = 0;
  std::string error_;
};

}  // namespace ctbus::io

#endif  // CTBUS_IO_BYTE_CODEC_H_
