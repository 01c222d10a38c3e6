//===- support/Hash.h - Four-lane byte-string hash -------------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hash the cache and persistence layers share for fingerprinting byte
/// strings (spec keys, snapshot records, build fingerprints). Eight bytes
/// per mix step, in four independent lanes, because a single lane is one
/// dependent multiply chain (~0.9 cycles per byte) and spec keys sit on the
/// cache-hit path. Consumers that need certainty compare the full byte
/// strings; hash quality only affects bucket spread and false-probe rates.
/// Changing the function changes snapshot record checksums, so it bumps
/// support::SnapshotFormatVersion.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_SUPPORT_HASH_H
#define TICKC_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace tcc {
namespace support {

inline std::uint64_t hashMix64(std::uint64_t H) {
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdull;
  H ^= H >> 33;
  return H;
}

inline std::uint64_t hashLoad64(const std::uint8_t *P) {
  std::uint64_t W;
  std::memcpy(&W, P, 8);
  return W;
}

inline std::uint64_t hashBytes(const void *Data, std::size_t Size,
                               std::uint64_t Seed = 0) {
  std::uint64_t H = 0x9e3779b97f4a7c15ull ^ Size ^ Seed;
  const std::uint8_t *P = static_cast<const std::uint8_t *>(Data);
  std::size_t N = Size;
  if (N >= 32) {
    // Each lane starts from a distinct state, so words that trade lanes
    // change the hash.
    std::uint64_t L0 = H, L1 = H ^ 0xc2b2ae3d27d4eb4full,
                  L2 = H ^ 0x165667b19e3779f9ull,
                  L3 = H ^ 0x27d4eb2f165667c5ull;
    for (; N >= 32; P += 32, N -= 32) {
      L0 = hashMix64(L0 ^ hashLoad64(P));
      L1 = hashMix64(L1 ^ hashLoad64(P + 8));
      L2 = hashMix64(L2 ^ hashLoad64(P + 16));
      L3 = hashMix64(L3 ^ hashLoad64(P + 24));
    }
    H = hashMix64(L0);
    H = hashMix64(H ^ L1);
    H = hashMix64(H ^ L2);
    H = hashMix64(H ^ L3);
  }
  for (; N >= 8; P += 8, N -= 8)
    H = hashMix64(H ^ hashLoad64(P));
  if (N) {
    std::uint64_t W = 0;
    std::memcpy(&W, P, N);
    H = hashMix64(H ^ W);
  }
  return H;
}

} // namespace support
} // namespace tcc

#endif // TICKC_SUPPORT_HASH_H
