//===- observability/Trace.cpp - Compile-phase trace recorder -------------===//

#include "observability/Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

using namespace tcc;
using namespace tcc::obs;

const char *tcc::obs::spanName(SpanKind K) {
  switch (K) {
  case SpanKind::CompileTotal:
    return "compile";
  case SpanKind::SpecFingerprint:
    return "spec-fingerprint";
  case SpanKind::CacheProbe:
    return "cache-probe";
  case SpanKind::CacheInsert:
    return "cache-insert";
  case SpanKind::CGFWalk:
    return "cgf-walk";
  case SpanKind::FlowGraph:
    return "flow-graph";
  case SpanKind::Liveness:
    return "liveness";
  case SpanKind::LiveIntervals:
    return "live-intervals";
  case SpanKind::LinearScan:
    return "linear-scan";
  case SpanKind::GraphColor:
    return "graph-color";
  case SpanKind::Peephole:
    return "peephole";
  case SpanKind::Emit:
    return "emit";
  case SpanKind::ICacheFlush:
    return "icache-flush";
  case SpanKind::RegionAcquire:
    return "region-acquire";
  case SpanKind::RegionRelease:
    return "region-release";
  case SpanKind::TierEnqueue:
    return "tier-enqueue";
  case SpanKind::TierCompile:
    return "tier-compile";
  case SpanKind::TierSwap:
    return "tier-swap";
  }
  return "unknown";
}

#ifndef TICKC_DISABLE_TRACING

std::atomic<bool> tcc::obs::detail::TraceActive{false};

namespace {

/// One completed span. 24 bytes; the ring holds a bounded number per
/// thread, oldest overwritten first.
struct SpanRec {
  std::uint64_t Begin = 0;
  std::uint64_t End = 0;
  SpanKind Kind = SpanKind::CompileTotal;
};

constexpr std::size_t RingCapacity = 1u << 15; // ~768 KiB per thread.

struct ThreadBuf {
  std::mutex M; ///< Owner-thread appends vs. exporter drain.
  std::vector<SpanRec> Ring;
  std::uint64_t Appended = 0; ///< Total spans ever appended.
  std::uint32_t Tid = 0;
};

struct TraceState {
  std::mutex M;
  std::vector<std::shared_ptr<ThreadBuf>> Buffers;
  std::string Path;
  std::uint32_t NextTid = 1;
  std::atomic<std::uint64_t> Dropped{0};
};

/// Intentionally leaked: span sites may run from static destructors after
/// main() returns; the registry must outlive them all.
TraceState &state() {
  static TraceState *S = new TraceState;
  return *S;
}

ThreadBuf &localBuf() {
  thread_local std::shared_ptr<ThreadBuf> B = [] {
    auto P = std::make_shared<ThreadBuf>();
    TraceState &S = state();
    std::lock_guard<std::mutex> G(S.M);
    P->Tid = S.NextTid++;
    S.Buffers.push_back(P);
    return P;
  }();
  return *B;
}

/// Writes \p Recs for one thread as properly nested B/E event pairs.
/// Records are complete intervals; sorting by (begin asc, end desc) makes a
/// simple sweep-with-stack reproduce the original call nesting.
void writeThreadEvents(std::FILE *F, std::uint32_t Tid,
                       std::vector<SpanRec> &Recs, std::uint64_t Epoch,
                       double CyclesPerUs, bool &First) {
  std::sort(Recs.begin(), Recs.end(), [](const SpanRec &A, const SpanRec &B) {
    if (A.Begin != B.Begin)
      return A.Begin < B.Begin;
    return A.End > B.End;
  });

  auto Ts = [&](std::uint64_t Tsc) {
    return static_cast<double>(Tsc - Epoch) / CyclesPerUs;
  };
  auto Emit = [&](const char *Ph, const char *Name, std::uint64_t Tsc) {
    std::fprintf(F,
                 "%s\n    {\"name\": \"%s\", \"cat\": \"tickc\", "
                 "\"ph\": \"%s\", \"ts\": %.3f, \"pid\": 1, \"tid\": %u}",
                 First ? "" : ",", Name, Ph, Ts(Tsc), Tid);
    First = false;
  };

  std::vector<SpanRec> Stack;
  for (const SpanRec &R : Recs) {
    while (!Stack.empty() && Stack.back().End <= R.Begin) {
      Emit("E", spanName(Stack.back().Kind), Stack.back().End);
      Stack.pop_back();
    }
    SpanRec Clamped = R;
    // RAII spans on one thread nest strictly; clamp any drift (e.g. a
    // parent span dropped by ring wraparound) so output stays balanced.
    if (!Stack.empty() && Clamped.End > Stack.back().End)
      Clamped.End = Stack.back().End;
    Emit("B", spanName(Clamped.Kind), Clamped.Begin);
    Stack.push_back(Clamped);
  }
  while (!Stack.empty()) {
    Emit("E", spanName(Stack.back().Kind), Stack.back().End);
    Stack.pop_back();
  }
}

bool exportAndClear(const char *Path) {
  TraceState &S = state();
  // Drain every thread's ring under its own lock; threads may still be
  // finishing spans, which land in the (now cleared) rings for next time.
  struct Drained {
    std::uint32_t Tid;
    std::vector<SpanRec> Recs;
  };
  std::vector<Drained> All;
  {
    std::lock_guard<std::mutex> G(S.M);
    for (auto &BP : S.Buffers) {
      std::lock_guard<std::mutex> BG(BP->M);
      if (BP->Appended == 0)
        continue;
      Drained D;
      D.Tid = BP->Tid;
      std::size_t N = std::min<std::uint64_t>(BP->Appended, RingCapacity);
      D.Recs.assign(BP->Ring.begin(),
                    BP->Ring.begin() + static_cast<std::ptrdiff_t>(N));
      BP->Ring.clear();
      BP->Appended = 0;
      All.push_back(std::move(D));
    }
  }

  if (!Path || !*Path)
    return true;

  std::FILE *F = std::fopen(Path, "w");
  if (!F)
    return false;

  std::uint64_t Epoch = UINT64_MAX;
  for (const Drained &D : All)
    for (const SpanRec &R : D.Recs)
      Epoch = std::min(Epoch, R.Begin);
  if (Epoch == UINT64_MAX)
    Epoch = 0;
  double CyclesPerUs = cyclesPerNano() * 1000.0;

  std::fprintf(F, "{\n  \"displayTimeUnit\": \"ns\",\n"
                  "  \"traceEvents\": [");
  bool First = true;
  for (Drained &D : All)
    writeThreadEvents(F, D.Tid, D.Recs, Epoch, CyclesPerUs, First);
  std::fprintf(F, "\n  ]\n}\n");
  return std::fclose(F) == 0;
}

/// TICKC_TRACE=<path>: start at load, export at exit.
struct EnvActivation {
  EnvActivation() {
    const char *Path = std::getenv("TICKC_TRACE");
    if (Path && *Path) {
      traceStart(Path);
      std::atexit([] { (void)traceStop(); });
    }
  }
} EnvActivationInit;

} // namespace

void tcc::obs::traceStart(const char *Path) {
  TraceState &S = state();
  {
    std::lock_guard<std::mutex> G(S.M);
    S.Path = Path ? Path : "";
  }
  detail::TraceActive.store(true, std::memory_order_relaxed);
}

bool tcc::obs::traceStop() {
  std::string Path;
  {
    TraceState &S = state();
    std::lock_guard<std::mutex> G(S.M);
    Path = S.Path;
  }
  return traceStopTo(Path.empty() ? nullptr : Path.c_str());
}

bool tcc::obs::traceStopTo(const char *Path) {
  detail::TraceActive.store(false, std::memory_order_relaxed);
  return exportAndClear(Path);
}

std::uint64_t tcc::obs::traceDroppedSpans() {
  return state().Dropped.load(std::memory_order_relaxed);
}

void tcc::obs::traceRecord(SpanKind K, std::uint64_t BeginTsc,
                           std::uint64_t EndTsc) {
  ThreadBuf &B = localBuf();
  std::lock_guard<std::mutex> G(B.M);
  if (B.Ring.size() < RingCapacity) {
    B.Ring.push_back(SpanRec{BeginTsc, EndTsc, K});
  } else {
    B.Ring[B.Appended % RingCapacity] = SpanRec{BeginTsc, EndTsc, K};
    if (B.Appended >= RingCapacity)
      state().Dropped.fetch_add(1, std::memory_order_relaxed);
  }
  ++B.Appended;
}

#else // TICKC_DISABLE_TRACING

void tcc::obs::traceStart(const char *) {}
bool tcc::obs::traceStop() { return true; }
bool tcc::obs::traceStopTo(const char *) { return true; }
std::uint64_t tcc::obs::traceDroppedSpans() { return 0; }
void tcc::obs::traceRecord(SpanKind, std::uint64_t, std::uint64_t) {}

#endif // TICKC_DISABLE_TRACING
