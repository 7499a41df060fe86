// Little-endian fixed-width integers over raw bytes: the one codec the
// snapshot image format (storage/snapshot_format.h) and the wire protocol
// (net/wire.cc) share. Byte-by-byte, so correct regardless of host
// endianness and alignment. Callers bounds-check; these never do.

#ifndef MRPA_UTIL_LITTLE_ENDIAN_H_
#define MRPA_UTIL_LITTLE_ENDIAN_H_

#include <cstdint>

namespace mrpa {

inline void PutU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}
inline void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}
inline void PutU64(uint8_t* p, uint64_t v) {
  PutU32(p, static_cast<uint32_t>(v));
  PutU32(p + 4, static_cast<uint32_t>(v >> 32));
}

inline uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | p[1] << 8);
}
inline uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}
inline uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

}  // namespace mrpa

#endif  // MRPA_UTIL_LITTLE_ENDIAN_H_
