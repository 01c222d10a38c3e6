//===- observability/Report.cpp - tickc-report text renderer --------------===//

#include "observability/Report.h"

#include "observability/Flight.h"
#include "observability/Names.h"
#include "observability/Profile.h"
#include "observability/RuntimeSymbols.h"
#include "observability/Sampler.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

using namespace tcc;
using namespace tcc::obs;

namespace {

struct PhaseRow {
  const char *Label;
  const char *Metric;
};

constexpr PhaseRow Phases[] = {
    {"setup", names::PhaseSetup},
    {"cgf walk", names::PhaseCgfWalk},
    {"flow graph", names::PhaseFlowGraph},
    {"liveness", names::PhaseLiveness},
    {"live intervals", names::PhaseLiveIntervals},
    {"regalloc", names::PhaseRegAlloc},
    {"peephole", names::PhasePeephole},
    {"emit", names::PhaseEmit},
    {"finalize", names::PhaseFinalize},
};

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  if (N > 0)
    Out.append(Buf, std::min<std::size_t>(static_cast<std::size_t>(N),
                                          sizeof(Buf) - 1));
}

void appendBar(std::string &Out, double Frac, unsigned Width = 28) {
  auto N = static_cast<unsigned>(Frac * Width + 0.5);
  N = std::min(N, Width);
  for (unsigned I = 0; I < N; ++I)
    Out += '#';
}

void renderHistogram(std::string &Out, const HistogramSnapshot &H) {
  if (H.Count == 0)
    return;
  double Mean = static_cast<double>(H.Sum) / static_cast<double>(H.Count);
  appendf(Out, "  %-34s n=%-8llu mean=%-10.0f min=%-8llu max=%llu\n",
          H.Name.c_str(), static_cast<unsigned long long>(H.Count), Mean,
          static_cast<unsigned long long>(H.Min),
          static_cast<unsigned long long>(H.Max));
}

} // namespace

std::uint64_t tcc::obs::phaseCycleSum(const MetricsSnapshot &S) {
  std::uint64_t Sum = 0;
  for (const PhaseRow &P : Phases)
    Sum += S.counter(P.Metric);
  return Sum;
}

bool tcc::obs::phaseCoverageOk(const MetricsSnapshot &S) {
  std::uint64_t Total = S.counter(names::CompileCyclesTotal);
  if (!Total)
    return true;
  return static_cast<double>(phaseCycleSum(S)) >=
         0.95 * static_cast<double>(Total);
}

std::string tcc::obs::renderReport(const MetricsSnapshot &S) {
  std::string Out;
  Out += "tickc-report: dynamic-compilation cost breakdown\n";
  Out += "================================================\n";

  std::uint64_t Total = S.counter(names::CompileCyclesTotal);
  std::uint64_t PhaseSum = phaseCycleSum(S);
  std::uint64_t Denom = std::max(Total, PhaseSum);

  Out += "compile phases (cycles, all compiles)\n";
  for (const PhaseRow &P : Phases) {
    std::uint64_t C = S.counter(P.Metric);
    if (C == 0)
      continue;
    double Frac = Denom ? static_cast<double>(C) / static_cast<double>(Denom)
                        : 0.0;
    appendf(Out, "  %-16s %12llu  %5.1f%%  ", P.Label,
            static_cast<unsigned long long>(C), Frac * 100.0);
    appendBar(Out, Frac);
    Out += '\n';
  }
  appendf(Out, "  %-16s %12llu  (compile total %llu; phases cover %.1f%%)\n",
          "phase sum", static_cast<unsigned long long>(PhaseSum),
          static_cast<unsigned long long>(Total),
          Total ? 100.0 * static_cast<double>(PhaseSum) /
                      static_cast<double>(Total)
                : 0.0);
  if (!phaseCoverageOk(S))
    appendf(Out,
            "  WARNING: phases cover only %.1f%% of compile.cycles.total "
            "(< 95%%) — a timed region lost its PhaseScope; the percentages "
            "above are understated\n",
            Total ? 100.0 * static_cast<double>(PhaseSum) /
                        static_cast<double>(Total)
                  : 0.0);

  std::uint64_t NV = S.counter(names::CompileCountVCode);
  std::uint64_t NI = S.counter(names::CompileCountICode);
  std::uint64_t NP = S.counter(names::CompileCountPCode);
  appendf(Out,
          "compiles: %llu vcode + %llu pcode + %llu icode; %llu code bytes, "
          "%llu machine instrs, %llu spilled intervals\n",
          static_cast<unsigned long long>(NV),
          static_cast<unsigned long long>(NP),
          static_cast<unsigned long long>(NI),
          static_cast<unsigned long long>(S.counter(names::CompileCodeBytes)),
          static_cast<unsigned long long>(
              S.counter(names::CompileMachineInstrs)),
          static_cast<unsigned long long>(S.counter(names::SpilledIntervals)));
  appendf(Out,
          "partial evaluation: %llu loops unrolled, %llu dead branches "
          "eliminated, %llu strength reductions, %llu profile-directed "
          "unroll decisions\n",
          static_cast<unsigned long long>(S.counter(names::LoopsUnrolled)),
          static_cast<unsigned long long>(
              S.counter(names::BranchesEliminated)),
          static_cast<unsigned long long>(
              S.counter(names::StrengthReductions)),
          static_cast<unsigned long long>(
              S.counter(names::UnrollProfiled)));

  std::uint64_t Hits = S.counter(names::CacheHits);
  std::uint64_t Misses = S.counter(names::CacheMisses);
  if (Hits + Misses) {
    appendf(Out,
            "cache: %llu hits / %llu misses (%.1f%% hit), %llu insertions, "
            "%llu evictions, %llu bytes resident\n",
            static_cast<unsigned long long>(Hits),
            static_cast<unsigned long long>(Misses),
            100.0 * static_cast<double>(Hits) /
                static_cast<double>(Hits + Misses),
            static_cast<unsigned long long>(
                S.counter(names::CacheInsertions)),
            static_cast<unsigned long long>(S.counter(names::CacheEvictions)),
            static_cast<unsigned long long>(
                S.counter(names::CacheBytesInserted) -
                S.counter(names::CacheBytesEvicted)));
    if (const HistogramSnapshot *K = S.histogram(names::HistCacheKeyBytes))
      if (K->Count) {
        double Cycles = static_cast<double>(S.counter(names::CacheKeyCycles));
        appendf(Out,
                "  keys: %llu built, mean %.0f bytes (max %llu); "
                "spec-fingerprint %.0f cycles per key, %.0f per hit\n",
                static_cast<unsigned long long>(K->Count),
                static_cast<double>(K->Sum) / static_cast<double>(K->Count),
                static_cast<unsigned long long>(K->Max),
                Cycles / static_cast<double>(K->Count),
                Hits ? Cycles / static_cast<double>(Hits) : 0.0);
      }
  }
  // Persistent snapshot cache: warm-start loads are deliberately reported
  // apart from in-memory hits — a load costs a disk probe + relocation
  // patch + byte audit, not a map lookup, and "how many compiles did the
  // snapshot save this process" is the number the feature is judged by.
  std::uint64_t SnapHits = S.counter(names::SnapshotHits);
  std::uint64_t SnapMisses = S.counter(names::SnapshotMisses);
  std::uint64_t SnapSaves = S.counter(names::SnapshotSaves);
  std::uint64_t SnapRejects = S.counter(names::SnapshotRejects);
  if (SnapHits + SnapMisses + SnapSaves + SnapRejects) {
    Out += "snapshot (persistent cross-process code cache)\n";
    appendf(Out,
            "  %llu loads / %llu misses, %llu saves, %llu rejected, "
            "%llu unportable, %llu compactions, %llu budget evictions\n",
            static_cast<unsigned long long>(SnapHits),
            static_cast<unsigned long long>(SnapMisses),
            static_cast<unsigned long long>(SnapSaves),
            static_cast<unsigned long long>(SnapRejects),
            static_cast<unsigned long long>(
                S.counter(names::SnapshotUnportable)),
            static_cast<unsigned long long>(
                S.counter(names::SnapshotCompactions)),
            static_cast<unsigned long long>(
                S.counter(names::SnapshotEvictions)));
    std::uint64_t TierSnap = S.counter(names::TierBaselineSnapshot);
    if (TierSnap)
      appendf(Out, "  %llu tier-0 baselines revived without compiling\n",
              static_cast<unsigned long long>(TierSnap));
    if (const HistogramSnapshot *H = S.histogram(names::HistSnapshotLoad))
      if (H->Count) {
        Out += "  load latency (probe -> executable fn, cycles)\n";
        renderHistogram(Out, *H);
      }
  }

  std::uint64_t Reused = S.counter(names::PoolReused);
  std::uint64_t Mapped = S.counter(names::PoolMapped);
  if (Reused + Mapped)
    appendf(Out, "region pool: %llu reused, %llu mapped, %llu dropped\n",
            static_cast<unsigned long long>(Reused),
            static_cast<unsigned long long>(Mapped),
            static_cast<unsigned long long>(S.counter(names::PoolDropped)));

  // Compile-overhead vitals for the zero-allocation fast path: per-backend
  // cycles per generated instruction, arena footprint, and how often a
  // compile had a recycled context waiting for it.
  const HistogramSnapshot *CpiV = S.histogram(names::HistCpiVCode);
  const HistogramSnapshot *CpiP = S.histogram(names::HistCpiPCode);
  const HistogramSnapshot *CpiI = S.histogram(names::HistCpiICode);
  const HistogramSnapshot *ArenaB = S.histogram(names::HistArenaBytes);
  std::uint64_t CtxHits = S.counter(names::CtxPoolHits);
  std::uint64_t CtxMisses = S.counter(names::CtxPoolMisses);
  if ((CpiV && CpiV->Count) || (CpiP && CpiP->Count) ||
      (CpiI && CpiI->Count) || (ArenaB && ArenaB->Count) ||
      CtxHits + CtxMisses) {
    Out += "compile overhead (cycles per generated instruction)\n";
    for (auto [Label, H] : {std::pair<const char *, const HistogramSnapshot *>(
                                "vcode", CpiV),
                            {"pcode", CpiP},
                            {"icode", CpiI}}) {
      if (!H || !H->Count)
        continue;
      appendf(Out, "  %-6s mean=%-6.0f min=%-6llu max=%-8llu (%llu compiles)\n",
              Label,
              static_cast<double>(H->Sum) / static_cast<double>(H->Count),
              static_cast<unsigned long long>(H->Min),
              static_cast<unsigned long long>(H->Max),
              static_cast<unsigned long long>(H->Count));
    }
    if (ArenaB && ArenaB->Count)
      appendf(Out,
              "  arena: mean %.0f bytes/compile, high water %llu bytes, "
              "%llu slab allocations (compile.allocs; 0 = steady state)\n",
              static_cast<double>(ArenaB->Sum) /
                  static_cast<double>(ArenaB->Count),
              static_cast<unsigned long long>(ArenaB->Max),
              static_cast<unsigned long long>(
                  S.counter(names::CompileAllocs)));
    if (CtxHits + CtxMisses)
      appendf(Out, "  context pool: %llu hits / %llu misses (%.1f%% reuse)\n",
              static_cast<unsigned long long>(CtxHits),
              static_cast<unsigned long long>(CtxMisses),
              100.0 * static_cast<double>(CtxHits) /
                  static_cast<double>(CtxHits + CtxMisses));
  }

  // Copy-and-patch stencils: the self-stenciled library is a one-time
  // process cost; the per-compile numbers show how much of PCODE
  // instantiation is memcpy + hole patching.
  std::uint64_t StCount = S.counter(names::StencilLibCount);
  if (StCount) {
    Out += "stencils (pcode copy-and-patch library)\n";
    appendf(Out,
            "  library: %llu stencils, %llu table bytes, built once in "
            "%llu cycles\n",
            static_cast<unsigned long long>(StCount),
            static_cast<unsigned long long>(S.counter(names::StencilLibBytes)),
            static_cast<unsigned long long>(
                S.counter(names::StencilLibBuildCycles)));
    std::uint64_t Patches = S.counter(names::StencilPatches);
    if (NP)
      appendf(Out, "  patches: %llu holes across %llu compiles (%.1f/compile)\n",
              static_cast<unsigned long long>(Patches),
              static_cast<unsigned long long>(NP),
              static_cast<double>(Patches) / static_cast<double>(NP));
    if (CpiP && CpiP->Count)
      appendf(Out,
              "  instantiate: mean %.0f cycles/insn over %llu compiles "
              "(compile.cycles_per_insn.pcode)\n",
              static_cast<double>(CpiP->Sum) /
                  static_cast<double>(CpiP->Count),
              static_cast<unsigned long long>(CpiP->Count));
  }

  std::uint64_t TierReq = S.counter(names::TierEnqueued);
  std::uint64_t TierDone = S.counter(names::TierPromotions);
  if (TierReq + TierDone) {
    Out += "tiers (vcode-first dispatch, background icode promotion)\n";
    appendf(Out,
            "  %llu requests -> %llu promotions (%llu queue-full, "
            "%llu stale, %llu abandoned)\n",
            static_cast<unsigned long long>(TierReq),
            static_cast<unsigned long long>(TierDone),
            static_cast<unsigned long long>(S.counter(names::TierQueueFull)),
            static_cast<unsigned long long>(S.counter(names::TierStale)),
            static_cast<unsigned long long>(S.counter(names::TierAbandoned)));
    appendf(Out, "  %llu single-flight waits\n",
            static_cast<unsigned long long>(
                S.counter(names::CacheSingleflightWait)));
    if (const HistogramSnapshot *H =
            S.histogram(names::HistTierPromoteLatency)) {
      if (H->Count) {
        Out += "  promotion latency (enqueue -> slot swap, cycles)\n";
        renderHistogram(Out, *H);
        // The bucket spread matters more than the mean here: the tail is
        // the window a caller spends on the baseline tier.
        for (unsigned B = 0; B < Histogram::NumBuckets; ++B) {
          std::uint64_t N = H->Buckets[B];
          if (!N)
            continue;
          appendf(Out, "    >=%-14llu %8llu  ",
                  static_cast<unsigned long long>(Histogram::bucketLo(B)),
                  static_cast<unsigned long long>(N));
          appendBar(Out,
                    static_cast<double>(N) / static_cast<double>(H->Count));
          Out += '\n';
        }
      }
    }
  }

  // Interpreter tier 0: calls answered before any machine code existed, and
  // how long each slot spent interpreting before its baseline landed. The
  // swap-latency tail is the window where every call pays interpreter speed.
  // Each way out of tier 0 is one line, with its reason.
  struct SkipRow {
    const char *Counter, *Why;
  };
  constexpr SkipRow Skips[] = {
      {names::Tier0SkipResident, "resident: the baseline was already cached"},
      {names::Tier0SkipIneligible,
       "ineligible: outside the interpreter's envelope"},
      {names::Tier0SkipCost,
       "cost: the shape's history says interpreting outlasts the compile"},
      {names::Tier0Fallback,
       "queue full: fell back after creation (counted as tier 0)"},
  };
  std::uint64_t T0Inv = S.counter(names::Tier0Invocations);
  std::uint64_t T0Skipped = 0;
  for (const SkipRow &R : Skips)
    T0Skipped += S.counter(R.Counter);
  const HistogramSnapshot *T0Swap = S.histogram(names::HistTier0SwapLatency);
  if (T0Inv + T0Skipped || (T0Swap && T0Swap->Count)) {
    Out += "tier 0 (interpreted dispatch until the baseline compile lands)\n";
    appendf(Out, "  %llu interpreted calls\n",
            static_cast<unsigned long long>(T0Inv));
    Out += "  synchronous baselines instead of tier 0, by reason:\n";
    for (const SkipRow &R : Skips)
      appendf(Out, "    %10llu  %s\n",
              static_cast<unsigned long long>(S.counter(R.Counter)), R.Why);
    if (T0Swap && T0Swap->Count) {
      Out += "  baseline swap latency (slot creation -> machine code, "
             "cycles)\n";
      renderHistogram(Out, *T0Swap);
    }
    std::uint64_t Prof = S.counter(names::UnrollProfiled);
    if (Prof)
      appendf(Out,
              "  %llu unroll decisions taken from interpreter trip "
              "profiles instead of the static heuristic\n",
              static_cast<unsigned long long>(Prof));
  }

  // Verification: per-layer pass/fail volume, plus what the in-compile
  // checkers cost. Their cycles are subtracted from compile.cycles.total,
  // so verify.cycles is overhead on top of it, not a share of it; snapshot
  // loads' admission is metered separately under verify.admit.cycles.
  struct VerifyRow {
    const char *Label;
    const char *Checked, *Failed;
  };
  constexpr VerifyRow VRows[] = {
      {"spec lint", names::VerifySpecChecked, names::VerifySpecFailed},
      {"ir verifier", names::VerifyIrChecked, names::VerifyIrFailed},
      {"alloc audit", names::VerifyAllocChecked, names::VerifyAllocFailed},
      {"admission", names::VerifyAdmitChecked, names::VerifyAdmitFailed},
  };
  std::uint64_t VChecked = 0;
  for (const VerifyRow &V : VRows)
    VChecked += S.counter(V.Checked);
  if (VChecked) {
    Out += "verify (self-checks over the compile pipeline)\n";
    for (const VerifyRow &V : VRows) {
      std::uint64_t C = S.counter(V.Checked), F = S.counter(V.Failed);
      if (!C && !F)
        continue;
      appendf(Out, "  %-12s %10llu checked  %llu failed%s\n", V.Label,
              static_cast<unsigned long long>(C),
              static_cast<unsigned long long>(F), F ? "  <-- FAIL" : "");
    }
    std::uint64_t ABlk = S.counter(names::VerifyAdmitBlocks);
    std::uint64_t ACall = S.counter(names::VerifyAdmitCalls);
    if (ABlk)
      appendf(Out,
              "  admission: %llu CFG blocks analyzed, %llu indirect calls "
              "proven confined\n",
              static_cast<unsigned long long>(ABlk),
              static_cast<unsigned long long>(ACall));
    std::uint64_t VCyc = S.counter(names::VerifyCycles);
    appendf(Out,
            "  verify time: %llu cycles (+%.1f%% overhead on top of compile "
            "cycles)\n",
            static_cast<unsigned long long>(VCyc),
            Total ? 100.0 * static_cast<double>(VCyc) /
                        static_cast<double>(Total)
                  : 0.0);
  }

  bool AnyHist = false;
  for (const HistogramSnapshot &H : S.Histograms)
    AnyHist |= H.Count != 0;
  if (AnyHist) {
    Out += "compile latency (cycles per compile)\n";
    for (const HistogramSnapshot &H : S.Histograms)
      renderHistogram(Out, H);
  }

  auto Entries = ProfileRegistry::global().entries();
  std::vector<std::shared_ptr<ProfileEntry>> Hot;
  for (auto &E : Entries)
    if (E->Invocations.load(std::memory_order_relaxed) ||
        E->CompileCycles.load(std::memory_order_relaxed))
      Hot.push_back(E);
  if (!Hot.empty()) {
    std::sort(Hot.begin(), Hot.end(), [](const auto &A, const auto &B) {
      return A->Invocations.load(std::memory_order_relaxed) >
             B->Invocations.load(std::memory_order_relaxed);
    });
    Out += "hot dynamic functions (invocations vs compile cost)\n";
    std::size_t N = std::min<std::size_t>(Hot.size(), 10);
    for (std::size_t I = 0; I < N; ++I) {
      const ProfileEntry &E = *Hot[I];
      appendf(Out,
              "  %-24s %12llu calls  %10llu compile cycles  %6llu bytes "
              "(%s)\n",
              E.Name.empty() ? "<anon>" : E.Name.c_str(),
              static_cast<unsigned long long>(
                  E.Invocations.load(std::memory_order_relaxed)),
              static_cast<unsigned long long>(
                  E.CompileCycles.load(std::memory_order_relaxed)),
              static_cast<unsigned long long>(
                  E.CodeBytes.load(std::memory_order_relaxed)),
              E.Backend.load(std::memory_order_relaxed));
    }
    if (Hot.size() > N)
      appendf(Out, "  ... and %llu more\n",
              static_cast<unsigned long long>(Hot.size() - N));
  }

  // Execution hotspots: where SIGPROF samples actually landed, resolved
  // against the runtime symbol table (live regions plus the retained
  // totals of retired generations).
  std::uint64_t SampTotal = S.counter(names::SampleTotal);
  if (SampTotal) {
    std::uint64_t SampHits = S.counter(names::SampleHits);
    appendf(Out,
            "hotspots (execution samples @ %u Hz)\n"
            "  %llu samples, %llu in generated code (%.1f%% attributed), "
            "%llu native\n",
            Sampler::global().hz(),
            static_cast<unsigned long long>(SampTotal),
            static_cast<unsigned long long>(SampHits),
            100.0 * static_cast<double>(SampHits) /
                static_cast<double>(SampTotal),
            static_cast<unsigned long long>(S.counter(names::SampleMisses)));
    std::vector<SymbolInfo> Syms = RuntimeSymbolTable::global().hotSymbols();
    std::size_t Shown = 0;
    for (const SymbolInfo &Sym : Syms) {
      if (!Sym.Samples || Shown == 10)
        break;
      ++Shown;
      appendf(Out, "  %-32s %10llu samples  %5.1f%%%s  ", Sym.Name.c_str(),
              static_cast<unsigned long long>(Sym.Samples),
              100.0 * static_cast<double>(Sym.Samples) /
                  static_cast<double>(SampTotal),
              Sym.Live ? "" : " (retired)");
      appendBar(Out, static_cast<double>(Sym.Samples) /
                         static_cast<double>(SampTotal));
      Out += '\n';
    }
  }

  // Flight recorder: the trailing event window a fatal-signal dump would
  // print, summarized.
  FlightRecorder &FR = FlightRecorder::global();
  if (std::uint64_t Events = FR.eventCount()) {
    auto Ring = FR.snapshot();
    appendf(Out, "flight recorder: %llu events (%zu in ring%s); last:\n",
            static_cast<unsigned long long>(Events), Ring.size(),
            FR.fatalHandlerInstalled() ? ", fatal-signal dump armed" : "");
    std::size_t First = Ring.size() > 6 ? Ring.size() - 6 : 0;
    for (std::size_t I = First; I < Ring.size(); ++I)
      appendf(Out, "  %-14s %-32s a=%llx b=%llx\n",
              flightEventName(Ring[I].Kind),
              Ring[I].Name[0] ? Ring[I].Name : "-",
              static_cast<unsigned long long>(Ring[I].A),
              static_cast<unsigned long long>(Ring[I].B));
  }
  return Out;
}

std::string tcc::obs::renderReport() {
  return renderReport(MetricsRegistry::global().snapshot());
}
