//===- support/Fingerprint.cpp - Build/ISA compatibility stamp ------------===//

#include "support/Fingerprint.h"

#include "support/Hash.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace tcc;

std::uint64_t support::cpuFeatureBits() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Eax = 0, Ebx = 0, Ecx = 0, Edx = 0;
  std::uint64_t Bits = 0;
  if (__get_cpuid(1, &Eax, &Ebx, &Ecx, &Edx)) {
    // Leaf 1: EDX carries the legacy feature flags (SSE2 bit 26 is what the
    // double path requires), ECX the SSE3..AVX generation.
    Bits = (static_cast<std::uint64_t>(Ecx) << 32) | Edx;
  }
  // Leaf 7 EBX (BMI/AVX2 generation) folded in so a snapshot written after
  // the emitters start using those extensions invalidates correctly.
  unsigned E7a = 0, E7b = 0, E7c = 0, E7d = 0;
  if (__get_cpuid_count(7, 0, &E7a, &E7b, &E7c, &E7d))
    Bits ^= support::hashMix64(E7b);
  return Bits;
#else
  return 0;
#endif
}

std::uint64_t support::formatFingerprint(std::uint32_t Version) {
  std::uint64_t H = hashMix64(Version);
  const char *Compiler = __VERSION__;
  H = hashBytes(Compiler, std::strlen(Compiler), H);
#ifdef TICKC_BUILD_FLAGS
  const char *Flags = TICKC_BUILD_FLAGS;
  H = hashBytes(Flags, std::strlen(Flags), H);
#endif
  std::uint64_t Abi[] = {
      sizeof(void *),
      sizeof(long),
      __cplusplus,
#ifdef NDEBUG
      1,
#else
      0,
#endif
      cpuFeatureBits(),
  };
  return hashBytes(Abi, sizeof Abi, H);
}

std::uint64_t support::buildFingerprint() {
  static const std::uint64_t FP = formatFingerprint(SnapshotFormatVersion);
  return FP;
}
