//===- observability/Trace.h - Compile-phase trace recorder ----*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A low-overhead span recorder for the dynamic-compilation pipeline. Every
/// phase the paper costs out (Figures 6/7) — the CGF walk, flow graph,
/// liveness, register allocation, emission — plus the caching layer around
/// them records begin/end spans into thread-local ring buffers, exported on
/// demand as Chrome trace-event JSON (chrome://tracing, Perfetto).
///
/// Overhead contract:
///   * disabled (the default): one relaxed atomic load and a predictable
///     branch per span site — nothing is recorded, nothing allocates;
///   * compiled out: defining TICKC_DISABLE_TRACING turns every span site
///     into dead code the optimizer deletes entirely;
///   * enabled: two TSC reads plus a bounded ring-buffer append per span
///     (~tens of cycles), still far below any phase worth tracing.
///
/// Activation: set TICKC_TRACE=<path> in the environment (the trace is
/// written at process exit) or call traceStart()/traceStop() directly.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_OBSERVABILITY_TRACE_H
#define TICKC_OBSERVABILITY_TRACE_H

#include "support/Timing.h"

#include <atomic>
#include <cstdint>

namespace tcc {
namespace obs {

/// The span taxonomy: one kind per pipeline phase worth seeing on a
/// timeline. Kinds, not free-form strings, keep the record POD-small and
/// the disabled path branch-only.
enum class SpanKind : std::uint8_t {
  CompileTotal,    ///< One whole compileFn() call.
  SpecFingerprint, ///< buildSpecKey(): canonical serialization + hash.
  CacheProbe,      ///< CodeCache::lookup (hit or miss).
  CacheInsert,     ///< CodeCache::insert (includes LRU eviction).
  CGFWalk,         ///< The code-generating-function walk (§4.4).
  FlowGraph,       ///< ICODE flow-graph construction.
  Liveness,        ///< Iterative live-variable solution.
  LiveIntervals,   ///< Coarse interval derivation.
  LinearScan,      ///< Linear-scan register allocation (Figure 3).
  GraphColor,      ///< Graph-coloring register allocation.
  Peephole,        ///< ICODE dead-code/peephole pass.
  Emit,            ///< ICODE -> VCODE -> binary translation.
  ICacheFlush,     ///< makeExecutable(): mprotect + icache sync.
  RegionAcquire,   ///< RegionPool::acquire (reuse or mmap).
  RegionRelease,   ///< RegionPool::release (recycle or munmap).
  TierEnqueue,     ///< Promotion request pushed onto the tier queue.
  TierCompile,     ///< Background ICODE recompile of a hot spec.
  TierSwap,        ///< Dispatch-slot swap to the promoted entry.
};

constexpr unsigned NumSpanKinds =
    static_cast<unsigned>(SpanKind::TierSwap) + 1;

/// Stable, Perfetto-friendly name of a span kind.
const char *spanName(SpanKind K);

#ifndef TICKC_DISABLE_TRACING

namespace detail {
extern std::atomic<bool> TraceActive;
} // namespace detail

/// True while a trace is being recorded. The disabled fast path every span
/// site takes: a relaxed load and a branch.
inline bool traceEnabled() {
  return detail::TraceActive.load(std::memory_order_relaxed);
}

#else

inline bool traceEnabled() { return false; }

#endif // TICKC_DISABLE_TRACING

/// Starts recording spans; the eventual traceStop() writes Chrome
/// trace-event JSON to \p Path (pass nullptr to record without a
/// destination — useful for tests that export explicitly).
void traceStart(const char *Path);

/// Stops recording, exports the accumulated spans to the traceStart() path
/// (if any), and clears the buffers. Returns false if a destination was set
/// but could not be written.
bool traceStop();

/// Like traceStop() but writing to \p Path regardless of what traceStart()
/// was given.
bool traceStopTo(const char *Path);

/// Spans discarded because a thread's ring buffer wrapped.
std::uint64_t traceDroppedSpans();

/// Out-of-line slow path: appends one completed span to the calling
/// thread's ring buffer. Span sites should go through TraceSpan instead.
void traceRecord(SpanKind K, std::uint64_t BeginTsc, std::uint64_t EndTsc);

/// RAII span: captures the TSC at construction and records the completed
/// interval at destruction. Spans on one thread must strictly nest (they
/// do, by construction, for stack-scoped instances), mirroring how the
/// exporter reconstructs begin/end event pairs. When tracing is off this
/// is two predictable branches and no stores to shared state.
class TraceSpan {
public:
  explicit TraceSpan(SpanKind K) {
    if (traceEnabled()) {
      Kind = K;
      Armed = true;
      Begin = readCycleCounter();
    }
  }
  ~TraceSpan() {
    if (Armed)
      traceRecord(Kind, Begin, readCycleCounter());
  }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  std::uint64_t Begin = 0;
  SpanKind Kind = SpanKind::CompileTotal;
  bool Armed = false;
};

} // namespace obs
} // namespace tcc

#endif // TICKC_OBSERVABILITY_TRACE_H
