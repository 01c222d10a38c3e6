//===- perfbench/Programs.h - Seeded specs of the paper's 11 programs -----===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One Spec is one instance of one of the paper's eleven benchmark programs
/// (hash, ms, heap, ntn, cmp, query, mshl, umshl, pow, binary, dp) with its
/// run-time constants drawn from a seeded generator. It exposes the four
/// ways the benchmark runs an operation: the static -O0 and -O2 builds (the
/// paper's lcc and gcc columns; -O2 is the correctness reference), a raw
/// entry point from a synchronous instantiation, and a tiered dispatch slot.
///
/// An operation returns a scalar; programs that write a buffer expose it
/// through outputDigest(), which the benchmark reads outside the timed span.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROGRAMS_H
#define PERFBENCH_PROGRAMS_H

#include "cache/CompileService.h"
#include "core/Compile.h"
#include "tier/Tier.h"

#include <cstdint>
#include <memory>
#include <random>

namespace perfbench {

enum class Prog : unsigned {
  Hash,
  Ms,
  Heap,
  Ntn,
  Cmp,
  Query,
  Mshl,
  Umshl,
  Pow,
  Binary,
  Dp,
};
inline constexpr unsigned NumProgs = 11;

const char *progName(Prog P);

class Spec {
public:
  explicit Spec(Prog P) : P(P) {}
  virtual ~Spec() = default;
  Spec(const Spec &) = delete;
  Spec &operator=(const Spec &) = delete;

  Prog prog() const { return P; }

  /// The paper's `compile`: the app's synchronous specialize(Opts).
  virtual tcc::core::CompiledFn
  specialize(const tcc::core::CompileOptions &Opts) const = 0;
  /// The tiered front door: the app's specializeTiered, which goes through
  /// CompileService::getOrCompileTiered.
  virtual tcc::tier::TieredFnHandle
  specializeTiered(tcc::cache::CompileService &S, tcc::tier::TierManager &M,
                   const tcc::core::CompileOptions &Opts) const = 0;

  /// One operation through each implementation; returns its scalar result.
  virtual std::uint64_t runStatic(bool O2) = 0;
  virtual std::uint64_t runEntry(void *Entry) = 0;
  virtual std::uint64_t runSlot(tcc::tier::TieredFn &F) = 0;
  /// Digest of the buffer the last operation wrote (0 when none).
  virtual std::uint64_t outputDigest() const { return 0; }
  /// Calls into the generated function per operation.
  virtual unsigned callsPerOp() const = 0;

private:
  Prog P;
};

/// Draws a program and its size quantile uniformly, then the rest of its
/// run-time constants.
std::unique_ptr<Spec> makeSpec(std::mt19937_64 &Rng);
/// A spec of program \p P whose size parameter (table size, matrix
/// dimension, element count, comparisons, exponent bits, ...) sits at
/// quantile \p Q in [0, 1) of the program's range.
std::unique_ptr<Spec> makeSpec(Prog P, std::mt19937_64 &Rng, double Q);

/// Mixes an operation's scalar result with its output digest.
inline std::uint64_t resultOf(std::uint64_t Scalar, std::uint64_t Digest) {
  return Scalar * 0x9e3779b97f4a7c15ull ^ Digest;
}

} // namespace perfbench

#endif // PERFBENCH_PROGRAMS_H
