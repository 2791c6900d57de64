#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "mm/util/hash.h"

namespace mm {
namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// Reflected CRC-32 lookup tables for polynomial 0xEDB88320, built once.
// Table 0 is the classic bytewise table; table k advances a byte's
// contribution past k further zero bytes, so one step folds eight input
// bytes ("slicing-by-8") and yields the same CRC as the bytewise loop.
constexpr CrcTables BuildCrcTables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

// Little-endian load, independent of host byte order and alignment.
std::uint32_t Load32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// Advances the un-inverted CRC register `crc` over `size` bytes.
std::uint32_t UpdateSliced(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t size) {
  const CrcTables& t = kCrcTables;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = crc ^ Load32(data);
    const std::uint32_t hi = Load32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)
#define MM_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

MM_CLMUL_TARGET __m128i Load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds the 128-bit lane `x` forward by the distance the constant pair `k`
// encodes and adds it onto `next`.
MM_CLMUL_TARGET __m128i Fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), with the
// bit-reflected constants of the same 0xEDB88320 polynomial: each is
// x^k mod P for a fold distance k, so the result equals the table loop's
// bit for bit. Advances the register `crc` over `size` bytes; `size` is at
// least 64 and a multiple of 16.
MM_CLMUL_TARGET std::uint32_t UpdateClmul(std::uint32_t crc,
                                          const std::uint8_t* data,
                                          std::size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);  // 512 b
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);  // 128 b
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);  // P, mu
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(data), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(data + 16);
  __m128i x3 = Load128(data + 32);
  __m128i x4 = Load128(data + 48);
  for (data += 64, size -= 64; size >= 64; data += 64, size -= 64) {
    x1 = Fold(x1, k1k2, Load128(data));
    x2 = Fold(x2, k1k2, Load128(data + 16));
    x3 = Fold(x3, k1k2, Load128(data + 32));
    x4 = Fold(x4, k1k2, Load128(data + 48));
  }
  x1 = Fold(Fold(Fold(x1, k3k4, x2), k3k4, x3), k3k4, x4);
  for (; size >= 16; data += 16, size -= 16) x1 = Fold(x1, k3k4, Load128(data));

  // 128 -> 64 bits, then 64 -> 32 by Barrett reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

// The CPU check runs once, on first use. It calls __builtin_cpu_init itself
// because a CRC may run before main, ahead of the constructor that
// otherwise fills in the CPU model.
bool HasClmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return has;
}
#endif

}  // namespace

std::uint32_t Crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
#if defined(__x86_64__)
  if (size >= 64 && HasClmul()) {
    const std::size_t folded = size & ~std::size_t{15};
    crc = UpdateClmul(crc, data, folded);
    data += folded;
    size -= folded;
  }
#endif
  return UpdateSliced(crc, data, size) ^ 0xFFFFFFFFu;
}

namespace detail {

std::uint32_t Crc32Portable(const std::uint8_t* data, std::size_t size) {
  return UpdateSliced(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

}  // namespace detail
}  // namespace mm
