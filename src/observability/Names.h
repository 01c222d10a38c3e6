//===- observability/Names.h - Canonical metric names ----------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical metric names the instrumented pipeline publishes and the
/// report renderer consumes. One place, so producers and consumers cannot
/// drift apart.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_OBSERVABILITY_NAMES_H
#define TICKC_OBSERVABILITY_NAMES_H

namespace tcc {
namespace obs {
namespace names {

// Compile volume.
inline constexpr char CompileCountVCode[] = "compile.count.vcode";
inline constexpr char CompileCountICode[] = "compile.count.icode";
inline constexpr char CompileCountPCode[] = "compile.count.pcode";
inline constexpr char CompileCyclesTotal[] = "compile.cycles.total";
inline constexpr char CompileCodeBytes[] = "compile.code.bytes";
inline constexpr char CompileMachineInstrs[] = "compile.machine.instrs";

// Per-phase cycle accumulators (the Figure 6/7 stacked-bar raw material).
inline constexpr char PhaseSetup[] = "phase.setup.cycles";
inline constexpr char PhaseCgfWalk[] = "phase.cgf_walk.cycles";
inline constexpr char PhaseFlowGraph[] = "phase.flow_graph.cycles";
inline constexpr char PhaseLiveness[] = "phase.liveness.cycles";
inline constexpr char PhaseLiveIntervals[] = "phase.live_intervals.cycles";
inline constexpr char PhaseRegAlloc[] = "phase.regalloc.cycles";
inline constexpr char PhasePeephole[] = "phase.peephole.cycles";
inline constexpr char PhaseEmit[] = "phase.emit.cycles";
inline constexpr char PhaseFinalize[] = "phase.finalize.cycles";

// Per-compile latency distributions, split by backend/allocator.
inline constexpr char HistCyclesVCode[] = "compile.cycles.vcode";
inline constexpr char HistCyclesPCode[] = "compile.cycles.pcode";
inline constexpr char HistCyclesLinearScan[] =
    "compile.cycles.icode.linear_scan";
inline constexpr char HistCyclesGraphColor[] =
    "compile.cycles.icode.graph_color";

// Register allocation.
inline constexpr char SpilledIntervals[] = "regalloc.spilled_intervals";

// Compile-path memory management: the pooled-context zero-allocation fast
// path. compile.allocs counts heap allocations performed by the per-compile
// arena (zero in steady state); compile.arena_bytes is the per-compile arena
// footprint; compile.cycles_per_insn.* are cycles per generated machine
// instruction, the normalized compile-overhead figure the paper's Table 1
// reports (~350 cycles/instruction for ICODE).
inline constexpr char CompileAllocs[] = "compile.allocs";
inline constexpr char HistArenaBytes[] = "compile.arena_bytes";
inline constexpr char HistCpiVCode[] = "compile.cycles_per_insn.vcode";
inline constexpr char HistCpiICode[] = "compile.cycles_per_insn.icode";
inline constexpr char HistCpiPCode[] = "compile.cycles_per_insn.pcode";
inline constexpr char CtxPoolHits[] = "compile.ctx_pool.hits";
inline constexpr char CtxPoolMisses[] = "compile.ctx_pool.misses";

// Copy-and-patch stencil backend (src/pcode). The library counters are
// published once, when the process-wide StencilLibrary is built; the patch
// counter accumulates holes patched across all PCODE compiles.
inline constexpr char StencilLibBuildCycles[] = "stencil.library.build_cycles";
inline constexpr char StencilLibCount[] = "stencil.library.count";
inline constexpr char StencilLibBytes[] = "stencil.library.bytes";
inline constexpr char StencilPatches[] = "stencil.patches";

// Dynamic partial evaluation decisions (paper §4.4).
inline constexpr char LoopsUnrolled[] = "opt.loops_unrolled";
inline constexpr char BranchesEliminated[] = "opt.branches_eliminated";
inline constexpr char StrengthReductions[] = "opt.strength_reductions";
/// Loops whose unroll decision came from a tier-0 measured trip count
/// (CompileOptions::TripProfile) instead of the static UnrollLimit.
inline constexpr char UnrollProfiled[] = "opt.unroll.profiled";

// Code cache (all CodeCache instances, cumulative).
inline constexpr char CacheHits[] = "cache.hits";
inline constexpr char CacheMisses[] = "cache.misses";
inline constexpr char CacheEvictions[] = "cache.evictions";
inline constexpr char CacheInsertions[] = "cache.insertions";
inline constexpr char CacheBytesInserted[] = "cache.bytes.inserted";
inline constexpr char CacheBytesEvicted[] = "cache.bytes.evicted";
/// Bytes of each SpecKey built (cache/SpecKey.h), and the TSC cycles all
/// of them took to build: the spec-fingerprint cost every front-door
/// request pays, hit or miss.
inline constexpr char HistCacheKeyBytes[] = "cache.key_bytes";
inline constexpr char CacheKeyCycles[] = "cache.key.cycles";

// Persistent cross-process snapshot cache (src/persist). Hits/misses count
// probe outcomes on in-memory cache misses; rejects count records refused
// for fingerprint mismatch, corruption, or failed byte audit; unportable
// counts compiles whose pointers escaped the imm64 form and so could not
// be persisted. The load histogram is probe → executable-function latency.
inline constexpr char SnapshotHits[] = "cache.snapshot.hits";
inline constexpr char SnapshotMisses[] = "cache.snapshot.misses";
inline constexpr char SnapshotRejects[] = "cache.snapshot.rejects";
inline constexpr char SnapshotSaves[] = "cache.snapshot.saves";
inline constexpr char SnapshotUnportable[] = "cache.snapshot.unportable";
inline constexpr char SnapshotCompactions[] = "cache.snapshot.compactions";
/// Records dropped to keep a snapshot file under TICKC_SNAPSHOT_BUDGET.
inline constexpr char SnapshotEvictions[] = "cache.snapshot.evictions";
/// Probes that matched a record older than TICKC_SNAPSHOT_TTL (skipped;
/// the fresh compile re-saves the key with a new timestamp).
inline constexpr char SnapshotExpired[] = "cache.snapshot.expired";
inline constexpr char HistSnapshotLoad[] = "cache.snapshot.load.cycles";

// Region pool (all RegionPool instances, cumulative).
inline constexpr char PoolReused[] = "pool.regions.reused";
inline constexpr char PoolMapped[] = "pool.regions.mapped";
inline constexpr char PoolDropped[] = "pool.regions.dropped";

// Single-flight compilation: threads that blocked on another thread's
// in-flight compile of the same key instead of duplicating it.
inline constexpr char CacheSingleflightWait[] = "cache.singleflight_wait";

// Tiered compilation (src/tier): VCODE-first dispatch slots promoted in the
// background to ICODE once the prologue counter crosses the threshold.
inline constexpr char TierEnqueued[] = "tier.promote.enqueued";
inline constexpr char TierQueueFull[] = "tier.promote.queue_full";
inline constexpr char TierCompiled[] = "tier.promote.compiled";
inline constexpr char TierStale[] = "tier.promote.stale";
inline constexpr char TierAbandoned[] = "tier.promote.abandoned";
inline constexpr char TierPromotions[] = "tier.promotions";
/// Enqueue -> dispatch-slot swap, TSC ticks per promotion.
inline constexpr char HistTierPromoteLatency[] = "tier.promote.latency.cycles";
/// Tier-0 baselines revived from a persistent snapshot instead of compiled
/// (warm-started processes answer at hit latency from the first call; the
/// promotion machinery works on them unchanged — loaded code carries a
/// live patched counter).
inline constexpr char TierBaselineSnapshot[] = "tier.baseline.from_snapshot";

// Interpreter tier 0 (src/core/SpecInterp + src/tier): slots that answer
// from the spec-tree interpreter the instant getOrCompileTiered returns,
// while the PCODE baseline compiles off the caller's critical path.
/// Calls dispatched through the interpreted entry (before the swap).
inline constexpr char Tier0Invocations[] = "tier0.invocations";
/// Tier-0 slots that fell back to a synchronous baseline compile because
/// the background queue was full.
inline constexpr char Tier0Fallback[] = "tier0.fallback";
/// Cold tiered requests that skipped tier 0 for a synchronous baseline, by
/// reason: the baseline was already cache-resident; the spec is outside the
/// interpreter's envelope (SpecInterp::ok); the shape's cost history says
/// interpreting outlasts the compile (tier::ShapeCosts).
inline constexpr char Tier0SkipResident[] = "tier0.skip.resident";
inline constexpr char Tier0SkipIneligible[] = "tier0.skip.ineligible";
inline constexpr char Tier0SkipCost[] = "tier0.skip.cost";
/// Slot creation -> baseline machine-code swap, TSC ticks.
inline constexpr char HistTier0SwapLatency[] = "tier0.swap_latency";

// Runtime execution observability (src/observability/Runtime*): the JIT
// symbol table, SIGPROF sampling profiler, and flight recorder.
inline constexpr char SymtabRegistered[] = "symtab.registered";
inline constexpr char SymtabRetired[] = "symtab.retired";
inline constexpr char SymtabDropped[] = "symtab.dropped";
inline constexpr char SampleTotal[] = "sample.total";
inline constexpr char SampleHits[] = "sample.hits";
inline constexpr char SampleMisses[] = "sample.misses";
inline constexpr char FlightEvents[] = "flight.events";
/// Promotions initiated by the sample watcher rather than the invocation
/// counter (loop-bound specializations whose counters never fire).
inline constexpr char TierPromoteSampled[] = "tier.promote.sampled";

// Verification (src/verify): per-layer pass/fail volume and the cycles the
// in-compile checkers consumed (verify overhead on top of compile time;
// snapshot-load admission is counted under verify.admit.cycles only).
inline constexpr char VerifySpecChecked[] = "verify.spec.checked";
inline constexpr char VerifySpecFailed[] = "verify.spec.failed";
inline constexpr char VerifyIrChecked[] = "verify.ir.checked";
inline constexpr char VerifyIrFailed[] = "verify.ir.failed";
inline constexpr char VerifyAllocChecked[] = "verify.alloc.checked";
inline constexpr char VerifyAllocFailed[] = "verify.alloc.failed";
inline constexpr char VerifyCycles[] = "verify.cycles";

// Flow-sensitive machine-code admission (src/verify/AdmissionVerify.cpp):
// every snapshot load runs it unconditionally before the bytes can execute;
// fresh compiles run it under TICKC_VERIFY. Blocks/calls count the CFG
// blocks analyzed and the indirect-call sites whose targets were proven
// confined to the key's declared callees.
inline constexpr char VerifyAdmitChecked[] = "verify.admit.checked";
inline constexpr char VerifyAdmitFailed[] = "verify.admit.failed";
inline constexpr char VerifyAdmitCycles[] = "verify.admit.cycles";
inline constexpr char VerifyAdmitBlocks[] = "verify.admit.blocks";
inline constexpr char VerifyAdmitCalls[] = "verify.admit.calls";

} // namespace names
} // namespace obs
} // namespace tcc

#endif // TICKC_OBSERVABILITY_NAMES_H
