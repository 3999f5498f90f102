#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace lfstx::crc32c {
namespace {

constexpr uint32_t kPoly = 0x82f63b78u;  // reflected Castagnoli polynomial

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int k = 0; k < 8; k++) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[i] = crc;
  }
  return t;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const auto& table = Table();
  uint32_t crc = init_crc ^ 0xffffffffu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

#if defined(__x86_64__)
// Compiled for SSE4.2 on its own, so the rest of the library keeps the
// baseline ISA and no build needs a new flag; Extend only calls it once
// the CPU has been seen to support the instruction.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                        const char* data,
                                                        size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  for (; n >= 8; n -= 8, data += 8) {
    uint64_t word;
    memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; n--, data++) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*data));
  }
  return crc32 ^ 0xffffffffu;
}

bool HasSse42() {
  static const bool has = __builtin_cpu_supports("sse4.2") != 0;
  return has;
}
#else
uint32_t ExtendSse42(uint32_t init_crc, const char* data, size_t n) {
  return ExtendPortable(init_crc, data, n);
}

bool HasSse42() { return false; }
#endif

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return HasSse42() ? ExtendSse42(init_crc, data, n)
                    : ExtendPortable(init_crc, data, n);
}

}  // namespace lfstx::crc32c
