// Hashing helpers: FNV-1a over bytes/strings and a hash combiner. Used for
// blob→home-node placement, replica spreading and metadata sharding,
// so the functions here must be deterministic across runs and platforms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace mm {

/// 64-bit FNV-1a over a byte range.
constexpr std::uint64_t Fnv1a64(const char* data, std::size_t size) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<std::uint8_t>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t Fnv1a64(std::string_view sv) {
  return Fnv1a64(sv.data(), sv.size());
}

/// Mixes an integer (splitmix64 finalizer) — good avalanche for hashing ids.
constexpr std::uint64_t MixU64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// boost-style hash combine.
constexpr std::uint64_t HashCombine(std::uint64_t seed, std::uint64_t v) {
  return seed ^ (MixU64(v) + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// CRC-32 (IEEE 802.3 polynomial, reflected). Used as the per-page integrity
/// checksum for blob contents: cheap, deterministic, and sensitive to the
/// bit-flip corruption the fault injector models.
std::uint32_t Crc32(const std::uint8_t* data, std::size_t size);

inline std::uint32_t Crc32(const std::vector<std::uint8_t>& data) {
  return Crc32(data.data(), data.size());
}

namespace detail {
/// The slicing-by-8 table loop Crc32 falls back to where the CPU lacks
/// carry-less multiply; tests compare the two paths through it.
std::uint32_t Crc32Portable(const std::uint8_t* data, std::size_t size);
}  // namespace detail

}  // namespace mm
