//===- core/Compile.h - The compile() special form -------------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic compilation (instantiation, paper §4.4): compileFn() walks a
/// statement cspec — the walk is the code-generating function — and produces
/// executable machine code through one of the two dynamic back ends:
///
///   * BackendKind::VCode — one pass, code emitted immediately; fastest
///     compilation, weakest code (paper §5.1).
///   * BackendKind::ICode — builds the ICODE IR, allocates registers
///     globally (linear scan or graph coloring), then emits (paper §5.2).
///
/// During the walk the automatic dynamic partial evaluation of §4.4 runs:
/// run-time constants fold, multiplications/divisions by run-time constants
/// strength-reduce, loops bounded by run-time constants unroll (binding
/// derived run-time constants down loop nests), and branches controlled by
/// run-time constants disappear.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_CORE_COMPILE_H
#define TICKC_CORE_COMPILE_H

#include "core/Context.h"
#include "icode/ICode.h"
#include "observability/Profile.h"
#include "observability/RuntimeSymbols.h"
#include "support/CodeBuffer.h"
#include "support/Reloc.h"

#include <cstdint>
#include <memory>

namespace tcc {
namespace core {

class CompileContext;
struct Tier0ProfileSnapshot;

/// Which dynamic back end instantiation uses. Serialized into SpecKey (the
/// first option byte), so each backend's output occupies its own cache slot.
enum class BackendKind {
  VCode,
  ICode,
  /// Copy-and-patch: the VCODE abstract machine over pre-rendered stencils
  /// (src/pcode). Emits byte-identical code to VCode at a fraction of the
  /// instantiation cost; the preferred tier-0 baseline.
  PCode,
};

/// The tier-0 baseline backend: BackendKind::PCode (copy-and-patch — the
/// cheapest instantiation with VCODE-identical code), unless overridden by
/// the TICKC_BACKEND environment variable (`vcode`, `pcode`, or `icode`;
/// read once, unknown values fall back to PCode).
BackendKind baselineBackendFromEnv();

/// Knobs for one instantiation.
struct CompileOptions {
  BackendKind Backend = BackendKind::VCode;
  icode::RegAllocKind RegAlloc = icode::RegAllocKind::LinearScan;
  icode::SpillHeuristic Spill = icode::SpillHeuristic::LongestInterval;
  CodePlacement Placement = CodePlacement::Sequential;
  std::size_t CodeCapacity = 1 << 20;
  /// Maximum iteration count dynamic loop unrolling will expand; loops with
  /// larger run-time-constant trip counts fall back to runtime loops ("unless
  /// it is made too large ... it will easily outperform", paper §4.4).
  unsigned UnrollLimit = 16384;
  /// When set, the code region is acquired from (and eventually returned
  /// to) this pool instead of being mmap'd per instantiation. Not part of
  /// the cache key: pooling changes where code lives, never what it is.
  RegionPool *Pool = nullptr;
  /// When set, all transient compile-time structures (IR, liveness bitsets,
  /// intervals, emitter tables) are carved from this context's arena, which
  /// retains its capacity between compiles — the zero-allocation fast path.
  /// When null, compileFn uses a per-thread fallback context. Not part of
  /// the cache key: scratch placement never changes the generated code.
  CompileContext *Ctx = nullptr;
  /// When true, both back ends plant an atomic invocation-counter bump in
  /// the generated prologue; the CompiledFn carries the counter (see
  /// profile()), making hot specs identifiable at runtime next to their
  /// compile cost. Part of the cache key: it changes the emitted code.
  bool Profile = false;
  /// Label for the profile entry (optional; copied at compile time).
  const char *ProfileName = nullptr;
  /// Runtime symbol name for the finalized region (optional; copied at
  /// compile time, truncated to RuntimeSymbolTable::NameBytes-1). Every
  /// finalized region registers with obs::RuntimeSymbolTable regardless —
  /// this only controls the human-readable name; when null, ProfileName is
  /// used, then a generic label. Not part of the cache key: naming never
  /// changes the generated code.
  const char *SymbolName = nullptr;
  /// When true, every compile is re-checked by the src/verify static
  /// analyzers (spec lint, IR verifier, register-allocation audit,
  /// machine-code admission); any finding aborts with a structured report. The
  /// TICKC_VERIFY environment variable enables it globally. Part of the
  /// cache key: a cached hit must carry the same guarantee the options
  /// asked for. Zero overhead when off.
  bool Verify = false;
  /// When set, the backend's assembler records every external imm64 it
  /// plants (free-variable addresses, callee entries, the profile counter)
  /// into this side table — the raw material for persistent snapshots
  /// (src/persist). Recording never changes the emitted bytes. Not part of
  /// the cache key. Owned by the caller; must outlive the compile.
  support::RelocTable *Relocs = nullptr;
  /// Frozen tier-0 execution profile (core/SpecInterp.h). When set, the
  /// Walker chooses per-loop unroll bounds from the measured trip counts
  /// instead of the static UnrollLimit heuristic. Part of the cache key
  /// (the per-loop decision digest), so differently-profiled compiles of
  /// one spec never alias in the cache or snapshot. Owned by the caller;
  /// must outlive the compile.
  const Tier0ProfileSnapshot *TripProfile = nullptr;
};

/// Cost account of one instantiation — the raw material of Table 1 and
/// Figures 6/7.
struct DynStats {
  std::uint64_t CyclesTotal = 0; ///< Entire compile() call, TSC ticks.
  std::uint64_t CyclesSetup = 0; ///< Backend/walker construction.
  std::uint64_t CyclesWalk = 0;  ///< CGF walk (VCode: walk == emission;
                                 ///< ICode: IR construction).
  std::uint64_t CyclesFinalize = 0; ///< mprotect + icache flush.
  icode::CompileStats ICode;     ///< Per-phase ICODE costs (ICode backend).
  unsigned MachineInstrs = 0;
  std::size_t CodeBytes = 0;
  /// The back end that generated the code; for a snapshot load, the one
  /// that compiled the record.
  BackendKind Backend = BackendKind::VCode;
};

/// An instantiated dynamic function: owns its executable region. When the
/// region came from a RegionPool, destruction recycles it (flipped back
/// writable) instead of unmapping.
class CompiledFn {
public:
  CompiledFn() = default;
  CompiledFn(CompiledFn &&) = default;
  CompiledFn &operator=(CompiledFn &&) = default;

  void *entry() const { return Entry; }
  bool valid() const { return Entry != nullptr; }
  /// The function pointer, typed. `int (*f)(int) = F.as<int(int)>();`
  template <typename FnT> FnT *as() const {
    return reinterpret_cast<FnT *>(Entry);
  }
  const DynStats &stats() const { return Stats; }
  /// The profile entry carrying this function's invocation counter, or
  /// nullptr when compiled without CompileOptions::Profile. The entry is
  /// shared with obs::ProfileRegistry and lives at least as long as the
  /// generated code that increments it.
  const obs::ProfileEntry *profile() const { return Prof.get(); }
  /// Shared ownership of the profile entry, for observers (like the tier
  /// manager's dispatch slots) that must keep reading the counter after
  /// they drop the function handle itself.
  std::shared_ptr<obs::ProfileEntry> profileShared() const { return Prof; }
  /// True when this function was revived from a persistent snapshot
  /// (src/persist) rather than compiled in this process. Lets the cache
  /// and tier layers classify warm-start loads separately from compiles.
  bool fromSnapshot() const { return FromSnapshot; }

private:
  friend CompiledFn compileFn(Context &, Stmt, EvalType,
                              const CompileOptions &);
  friend CompiledFn adoptLoadedCode(struct LoadedCode &&);
  PooledRegion Region;
  void *Entry = nullptr;
  DynStats Stats;
  bool FromSnapshot = false;
  std::shared_ptr<obs::ProfileEntry> Prof;
  /// Runtime symbol registration. Declared last on purpose: destruction
  /// runs in reverse order, so the symbol retires (draining any in-flight
  /// sampler hit that might bump Prof->Samples) before Prof is released
  /// and before Region can be recycled into the pool.
  obs::SymbolHandle Sym;
};

/// The `compile` special form: instantiates \p Body as a function returning
/// \p RetType. Parameters are the Context's param* vspecs referenced by the
/// body. Thin wrappers below fix the backend.
CompiledFn compileFn(Context &Ctx, Stmt Body, EvalType RetType,
                     const CompileOptions &Opts = CompileOptions());

/// Everything the persistence layer hands core to revive one snapshot
/// record as a live function: a still-writable region already holding the
/// relocation-patched bytes (the loader audits them *before* calling this).
struct LoadedCode {
  PooledRegion Region;
  std::size_t CodeBytes = 0;
  unsigned MachineInstrs = 0;
  /// The loading process's freshly created profile entry whose counter the
  /// patched code increments; null for unprofiled records.
  std::shared_ptr<obs::ProfileEntry> Prof;
  /// Runtime symbol name (copied; may be null for a generic label).
  const char *SymbolName = nullptr;
  /// The back end that compiled the stored record.
  BackendKind Backend = BackendKind::VCode;
};

/// Finalizes a loaded region (W^X flip + icache discipline) and wraps it in
/// a CompiledFn indistinguishable from a fresh compile except for its
/// fromSnapshot() provenance bit and zeroed compile-cost stats.
CompiledFn adoptLoadedCode(LoadedCode &&L);

inline CompiledFn compileVCode(Context &Ctx, Stmt Body, EvalType RetType) {
  CompileOptions Opts;
  Opts.Backend = BackendKind::VCode;
  return compileFn(Ctx, Body, RetType, Opts);
}

inline CompiledFn compileICode(Context &Ctx, Stmt Body, EvalType RetType) {
  CompileOptions Opts;
  Opts.Backend = BackendKind::ICode;
  return compileFn(Ctx, Body, RetType, Opts);
}

inline CompiledFn compilePCode(Context &Ctx, Stmt Body, EvalType RetType) {
  CompileOptions Opts;
  Opts.Backend = BackendKind::PCode;
  return compileFn(Ctx, Body, RetType, Opts);
}

} // namespace core
} // namespace tcc

#endif // TICKC_CORE_COMPILE_H
