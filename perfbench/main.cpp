//===- perfbench/main.cpp - The tickc benchmark ----------------------------==//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One closed-loop client thread drives one of three seeded workloads
/// against the public API (README.md in this directory gives the rationale
/// for each):
///
///   oneshot — a fresh spec per request, instantiated synchronously with
///             PCODE from a RegionPool, run k times, dropped;
///   server  — Zipf-with-drift requests over a fixed population through the
///             default tiered front door;
///   restart — cycles of {open a service on a warm snapshot, replay the
///             server stream's warm-up window, tear down}.
///
/// Every operation's result is compared, outside the timed spans, with the
/// program's static -O2 build. With --trace 1 the benchmark also records
/// spans around each public call and reads the library's own counters
/// (CompiledFn::stats(), obs::MetricsRegistry) to print per-layer metrics.
///
/// Output: human-readable tables, then `PERFBENCH_E2E {json}` and (traced)
/// `PERFBENCH_LAYERS {json}` lines that run.py turns into the final result.
///
//===----------------------------------------------------------------------===//

#include "Programs.h"

#include "cache/CompileService.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "pcode/StencilLibrary.h"
#include "support/CodeBuffer.h"
#include "support/Timing.h"
#include "tier/Tier.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>

extern char **environ;

using namespace tcc;
using namespace perfbench;
namespace fs = std::filesystem;
namespace N = tcc::obs::names;

namespace {

//===----------------------------------------------------------------------===//
// Workload shape. See README.md for why each value holds its property.
//===----------------------------------------------------------------------===//

constexpr unsigned PerProgram = 364;    ///< Population specs per program.
constexpr unsigned Population = PerProgram * NumProgs;
constexpr unsigned LiveRanks = 48 * NumProgs; ///< Ranks popularity covers.
constexpr double ZipfS = 1.1;           ///< Popularity skew.
constexpr unsigned DriftPeriod = 2500;  ///< Requests per popularity epoch.
constexpr unsigned WarmupWindow = DriftPeriod; ///< restart: requests/cycle.
constexpr unsigned MaxOneshotOps = 16;
constexpr unsigned SetupReps = 3;      ///< Set-ups per run; setup_s = median.
constexpr unsigned ExactWindow = 1000; ///< Requests the exact counts cover.
constexpr std::size_t MaxWrittenSpans = 100000;

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

std::uint64_t minorFaults() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<std::uint64_t>(U.ru_minflt);
}

template <typename T> double quantile(std::vector<T> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t I = static_cast<std::size_t>(
      std::ceil(Q * static_cast<double>(V.size())));
  return static_cast<double>(V[std::min(V.size() - 1, I ? I - 1 : 0)]);
}

template <typename T> double median(const std::vector<T> &V) {
  return quantile(V, 0.5);
}

//===----------------------------------------------------------------------===//
// Pinned configuration: the library defaults, written out so that a change
// of default shows up as a change of this file, not of the measurement.
//===----------------------------------------------------------------------===//

cache::ServiceConfig serviceConfig(const std::string &SnapshotDir) {
  cache::ServiceConfig C;
  C.Shards = 8;
  C.MaxCodeBytes = 32u << 20;
  C.MaxPooledBytes = 64u << 20;
  C.EnableCache = true;
  C.EnablePool = true;
  C.SnapshotDir = SnapshotDir;
  C.SnapshotCompactBytes = 1u << 20;
  C.SnapshotBudgetBytes = 0;
  C.SnapshotTtlSec = 0;
  C.EnableTier0 = true;
  C.EnableTier0Profile = true;
  return C;
}

tier::TierConfig tierConfig() {
  tier::TierConfig C;
  C.Workers = 1;
  C.PromoteThreshold = 1000;
  C.QueueCapacity = 256;
  C.SamplePromoteThreshold = 0;
  C.SampleWatchMs = 5;
  return C;
}

core::CompileOptions compileOptions(core::BackendKind Backend,
                                    RegionPool *Pool) {
  core::CompileOptions O;
  O.Backend = Backend;
  O.RegAlloc = icode::RegAllocKind::LinearScan;
  O.Spill = icode::SpillHeuristic::LongestInterval;
  O.Placement = CodePlacement::Sequential;
  O.CodeCapacity = 1 << 20;
  O.UnrollLimit = 16384;
  O.Pool = Pool;
  return O;
}

//===----------------------------------------------------------------------===//
// Spans: recorded around each public call when tracing.
//===----------------------------------------------------------------------===//

enum class SpanKind : std::uint8_t {
  Instantiate, ///< specialize / front door.
  FirstCall,   ///< First operation on a spec new to this service.
  Call,        ///< Every later operation.
  Drop,        ///< oneshot: releasing the compiled function.
  ServiceOpen, ///< restart: CompileService + TierManager construction.
  Drain,       ///< restart: waiting for the worker's queued loads.
  Teardown,    ///< restart: handles, manager and service destruction.
};
constexpr unsigned NumSpanKinds = 7;
const char *const SpanNames[NumSpanKinds] = {
    "instantiate", "first_call", "call",    "drop",
    "service_open", "drain",     "teardown"};
/// Kinds that nest inside a request; the others sit between requests.
bool inRequest(SpanKind K) { return K <= SpanKind::Call; }

struct SpanRec {
  std::uint64_t Start;
  std::uint32_t Dur;
  std::uint32_t Req;
  SpanKind Kind;
};

class Tracer {
public:
  explicit Tracer(bool On) : On(On) {
    if (On)
      Spans.reserve(MaxWrittenSpans);
  }
  void span(std::uint32_t Req, SpanKind K, std::uint64_t Start,
            std::uint64_t End) {
    if (!On)
      return;
    std::uint64_t D = End - Start;
    SelfNs[static_cast<unsigned>(K)] += D;
    ++Count[static_cast<unsigned>(K)];
    if (Spans.size() < MaxWrittenSpans)
      Spans.push_back({Start, static_cast<std::uint32_t>(D), Req, K});
  }
  double childNs() const {
    double S = 0;
    for (unsigned K = 0; K < NumSpanKinds; ++K)
      if (inRequest(static_cast<SpanKind>(K)))
        S += static_cast<double>(SelfNs[K]);
    return S;
  }
  /// Chrome trace-event JSON of the first MaxWrittenSpans spans.
  void write(const std::string &Path) const {
    std::ofstream Out(Path);
    Out << "{\"traceEvents\":[\n";
    std::uint64_t Base = Spans.empty() ? 0 : Spans.front().Start;
    for (std::size_t I = 0; I < Spans.size(); ++I) {
      const SpanRec &S = Spans[I];
      char Buf[256];
      std::snprintf(Buf, sizeof Buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%u}}\n",
                    I ? "," : "", SpanNames[static_cast<unsigned>(S.Kind)],
                    static_cast<double>(S.Start - Base) / 1e3,
                    static_cast<double>(S.Dur) / 1e3, S.Req);
      Out << Buf;
    }
    Out << "]}\n";
  }

  bool On;
  std::array<std::uint64_t, NumSpanKinds> SelfNs{};
  std::array<std::uint64_t, NumSpanKinds> Count{};
  std::vector<SpanRec> Spans;
};

//===----------------------------------------------------------------------===//
// Measurements of one timed phase.
//===----------------------------------------------------------------------===//

struct Measure {
  explicit Measure(bool Trace) : T(Trace) {}

  Tracer T;
  std::uint64_t Attempted = 0, Failed = 0;
  std::uint64_t Ops = 0, InterpOps = 0, FirstSights = 0, FirstInterp = 0;
  std::uint64_t UntimedNs = 0; ///< Input generation and result checks.
  std::uint64_t MinorFaults = 0; ///< Process page faults while timed.
  std::vector<float> RequestUs, TtfcUs;
  /// Static -O0 ns / generated-code ns, per non-first operation.
  std::array<std::vector<float>, NumProgs> Ratio;
  std::array<std::uint64_t, NumProgs> ProgRequests{}, ProgFailed{};
  std::array<std::vector<float>, NumProgs> ProgTtfcUs;

  // Per-layer raw material.
  std::vector<float> SpecUs, InterpCallNs, FrontDoorNs, PromoteUs, SwapUs;
  std::vector<double> OpenMs;
  /// oneshot: bytes and count of the functions compiled.
  double CodeBytes = 0, CodeFns = 0;
  /// server/restart: bytes of the function each spec's slot had installed
  /// (baseline at 2 * Id, promoted at 2 * Id + 1) at the end of the run or
  /// of any cycle; 0 when never seen installed.
  std::vector<std::size_t> Installed;
  double CacheBytes = 0, CacheSamples = 0;
  double IcCycles = 0, IcInstrs = 0, IcMaxCpi = 0;
  std::array<double, 6> IcPhase{};
  bool HaveWindow = false;
  obs::MetricsSnapshot Window; ///< Registry after ExactWindow requests.
  obs::MetricsSnapshot End;    ///< Registry at the end of the timed phase.

  void count(Prog P, bool Bad) {
    ++ProgRequests[static_cast<unsigned>(P)];
    ProgFailed[static_cast<unsigned>(P)] += Bad;
    Failed += Bad;
  }
  void endRequest() {
    if (T.On && !HaveWindow && Attempted == ExactWindow) {
      Window = obs::MetricsRegistry::global().snapshot();
      HaveWindow = true;
    }
  }
};

/// The expected result of one operation: the static -O2 build's.
std::uint64_t expected(Spec &S) {
  std::uint64_t Scalar = S.runStatic(true);
  return resultOf(Scalar, S.outputDigest());
}

/// Static -O0 time of one operation, median of \p Reps runs.
double timeO0(Spec &S, unsigned Reps) {
  std::vector<double> T;
  for (unsigned I = 0; I < Reps; ++I) {
    std::uint64_t A = nowNs();
    S.runStatic(false);
    T.push_back(static_cast<double>(nowNs() - A));
  }
  return median(T);
}

bool check(Spec &S, std::uint64_t Scalar, std::uint64_t Expected) {
  return resultOf(Scalar, S.outputDigest()) == Expected;
}

//===----------------------------------------------------------------------===//
// Inputs: the server population and its request stream.
//===----------------------------------------------------------------------===//

struct Specs {
  std::vector<std::unique_ptr<Spec>> S;
  std::vector<std::uint64_t> Expected;
};

/// Spec Member * NumProgs + P is member Member of program P. A program's
/// members take their size quantiles from a low-discrepancy sequence with a
/// seeded jitter inside each stratum, so every seed draws the same spread
/// of sizes in the same rank order while all other constants vary.
Specs makePopulation(std::uint64_t Seed) {
  std::mt19937_64 R(Seed * 0x9e3779b97f4a7c15ull + 1);
  std::uniform_real_distribution<double> U;
  const double Phi = 0.6180339887498949;
  Specs P;
  for (unsigned Member = 0; Member < PerProgram; ++Member)
    for (unsigned Prg = 0; Prg < NumProgs; ++Prg) {
      double Q = std::fmod(Member * Phi + U(R) / PerProgram, 1.0);
      P.S.push_back(makeSpec(static_cast<Prog>(Prg), R, Q));
      P.Expected.push_back(expected(*P.S.back()));
    }
  return P;
}

/// Zipf(s) popularity over LiveRanks ranks. Each epoch of DriftPeriod
/// requests holds every rank exactly as often as its Zipf share (rank of
/// quantile (i + 0.5) / DriftPeriod for request i), in a seeded random
/// order: the seed changes the order, not the mix. Rank r of epoch e belongs
/// to program (r + e) mod 11 and is that program's member
/// (r / 11 + e) mod PerProgram. Each epoch every program's members move one
/// rank towards the head: one fresh member per program enters the cold tail,
/// the hottest one leaves, and the members in between turn hot and get
/// promoted. Over the run each program holds each rank equally often, and
/// first sights arrive at a steady rate instead of all at start-up.
class ServerStream {
public:
  explicit ServerStream(std::uint64_t Seed)
      : R(Seed * 0xbf58476d1ce4e5b9ull + 2) {
    std::vector<double> Cdf;
    double Sum = 0;
    for (unsigned K = 0; K < LiveRanks; ++K) {
      Sum += 1.0 / std::pow(static_cast<double>(K + 1), ZipfS);
      Cdf.push_back(Sum);
    }
    for (unsigned I = 0; I < DriftPeriod; ++I) {
      double U = (I + 0.5) / DriftPeriod * Sum;
      auto Rank = std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin();
      Ranks.push_back(static_cast<unsigned>(Rank));
    }
  }
  /// The specs whose last live rank was in the previous epoch, when the
  /// next request starts a new one; none otherwise.
  std::vector<unsigned> leaving() const {
    std::vector<unsigned> L;
    if (N == 0 || N % DriftPeriod)
      return L;
    std::uint64_t Member = (N / DriftPeriod - 1) % PerProgram;
    for (unsigned Prg = 0; Prg < NumProgs; ++Prg)
      L.push_back(static_cast<unsigned>(Member * NumProgs + Prg));
    return L;
  }
  unsigned next() {
    std::uint64_t Epoch = N / DriftPeriod, I = N++ % DriftPeriod;
    if (I == 0)
      std::shuffle(Ranks.begin(), Ranks.end(), R);
    std::uint64_t Rank = Ranks[I];
    std::uint64_t Prg = (Rank + Epoch) % NumProgs;
    std::uint64_t Member = (Rank / NumProgs + Epoch) % PerProgram;
    return static_cast<unsigned>(Member * NumProgs + Prg);
  }

private:
  std::mt19937_64 R;
  std::vector<unsigned> Ranks; ///< One epoch's ranks, in this epoch's order.
  std::uint64_t N = 0;
};

//===----------------------------------------------------------------------===//
// The tiered service: server requests and restart cycles.
//===----------------------------------------------------------------------===//

struct Service {
  Service(const std::string &SnapshotDir, Measure *M) {
    std::uint64_t A = nowNs();
    Svc = std::make_unique<cache::CompileService>(serviceConfig(SnapshotDir));
    std::uint64_t B = nowNs();
    Mgr = std::make_unique<tier::TierManager>(tierConfig());
    Held.resize(Population);
    Seen.resize(Population);
    if (M) {
      M->T.span(0, SpanKind::ServiceOpen, A, nowNs());
      M->OpenMs.push_back(static_cast<double>(B - A) / 1e6);
    }
  }
  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;
  /// Handles first, then the manager, then the service (tier/Tier.h).
  ~Service() {
    Held.clear();
    Mgr.reset();
    Svc.reset();
  }

  /// Waits until every held slot has machine code and every queued
  /// promotion has landed: the background work the requests started.
  void drain() const {
    for (const tier::TieredFnHandle &H : Held)
      if (H) {
        H->waitCompiled();
        if (H->state() == tier::TierState::Queued)
          H->waitPromoted();
      }
  }

  /// Releases spec \p Id's slot, first reading what it holds.
  void release(unsigned Id, Measure &M) {
    if (Held[Id])
      collectSlot(Id, M);
    Held[Id].reset();
  }

  /// Reads what the slots and the cache hold before they go away.
  void collect(Measure &M) const {
    for (unsigned Id = 0; Id < Held.size(); ++Id)
      if (Held[Id])
        collectSlot(Id, M);
    cache::CacheStats CS = Svc->cache().stats();
    M.CacheBytes += static_cast<double>(CS.CodeBytes);
    ++M.CacheSamples;
  }

  void collectSlot(unsigned Id, Measure &M) const {
    const tier::TieredFnHandle &H = Held[Id];
    M.Installed.resize(2 * Held.size());
    cache::FnHandle F = H->handle();
    if (F)
      M.Installed[2 * Id + H->promoted()] = F->stats().CodeBytes;
    if (H->isTier0() && H->tier0SwapNanos())
      M.SwapUs.push_back(static_cast<float>(H->tier0SwapNanos() / 1e3));
    if (!H->promoted())
      return;
    M.PromoteUs.push_back(static_cast<float>(H->promoteLatencyNanos() / 1e3));
    if (!F || F->fromSnapshot())
      return;
    const core::DynStats &S = F->stats();
    M.IcCycles += static_cast<double>(S.CyclesTotal);
    M.IcInstrs += S.MachineInstrs;
    if (S.MachineInstrs)
      M.IcMaxCpi = std::max(M.IcMaxCpi, static_cast<double>(S.CyclesTotal) /
                                            S.MachineInstrs);
    const icode::CompileStats &I = S.ICode;
    double Ph[6] = {double(I.CyclesFlowGraph), double(I.CyclesLiveness),
                    double(I.CyclesIntervals), double(I.CyclesRegAlloc),
                    double(I.CyclesPeephole),  double(I.CyclesEmit)};
    for (unsigned K = 0; K < 6; ++K)
      M.IcPhase[K] += Ph[K];
  }

  std::unique_ptr<cache::CompileService> Svc;
  std::unique_ptr<tier::TierManager> Mgr;
  std::vector<tier::TieredFnHandle> Held; ///< The slot each spec last got.
  std::vector<char> Seen;
};

/// One request: the tiered front door, then one operation through the slot.
void tieredRequest(Service &V, Specs &P, unsigned Id, Measure &M) {
  Spec &S = *P.S[Id];
  bool First = !V.Seen[Id];
  V.Seen[Id] = 1;
  auto Req = static_cast<std::uint32_t>(M.Attempted++);
  core::CompileOptions Base = compileOptions(core::BackendKind::PCode, nullptr);

  std::uint64_t T0 = nowNs();
  tier::TieredFnHandle H = S.specializeTiered(*V.Svc, *V.Mgr, Base);
  std::uint64_t T1 = nowNs();
  M.T.span(Req, SpanKind::Instantiate, T0, T1);
  if (!H) {
    M.count(S.prog(), true);
    return;
  }
  bool Interp = !H->compiled();
  std::uint64_t A = nowNs();
  std::uint64_t R = S.runSlot(*H);
  std::uint64_t B = nowNs();
  M.T.span(Req, First ? SpanKind::FirstCall : SpanKind::Call, A, B);

  M.RequestUs.push_back(static_cast<float>((B - T0) / 1e3));
  M.SpecUs.push_back(static_cast<float>((T1 - T0) / 1e3));
  if (H == V.Held[Id])
    M.FrontDoorNs.push_back(static_cast<float>(T1 - T0));
  ++M.Ops;
  if (Interp) {
    ++M.InterpOps;
    M.InterpCallNs.push_back(static_cast<float>(B - A) / S.callsPerOp());
  }
  if (First) {
    ++M.FirstSights;
    M.FirstInterp += Interp;
    M.TtfcUs.push_back(static_cast<float>((B - T0) / 1e3));
    M.ProgTtfcUs[static_cast<unsigned>(S.prog())].push_back(M.TtfcUs.back());
  }
  std::uint64_t C = nowNs();
  M.count(S.prog(), !check(S, R, P.Expected[Id]));
  // Every 8th later operation is paired with a static -O0 run right after
  // it, so the ratio sees the same machine state on both sides.
  if (!First && M.Ops % 8 == 0)
    M.Ratio[static_cast<unsigned>(S.prog())].push_back(static_cast<float>(
        timeO0(S, 1) / static_cast<double>(B - A)));
  M.UntimedNs += nowNs() - C;
  V.Held[Id] = std::move(H);
  M.endRequest();
}

//===----------------------------------------------------------------------===//
// Workloads.
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".";
};

/// A private snapshot directory, removed with its contents on destruction.
class TempDir {
public:
  explicit TempDir(const std::string &Parent) {
    fs::create_directories(Parent);
    std::string Tmpl = Parent + "/snapshot-XXXXXX";
    std::vector<char> B(Tmpl.begin(), Tmpl.end());
    B.push_back('\0');
    if (!mkdtemp(B.data())) {
      std::perror("perfbench: mkdtemp");
      std::exit(2);
    }
    Path = B.data();
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;
  std::string Path;
};

/// What a workload run hands back to the reporter.
struct RunResult {
  std::vector<double> SetupS;
  double TimedS = 0;
  double CpuS = 0;
};

/// Runs \p Body until Seconds of wall time pass; returns the timed wall,
/// minus the untimed sections, and the process CPU spent.
template <typename F>
void timed(const Options &O, Measure &M, RunResult &Out, F &&Body) {
  obs::MetricsRegistry::global().resetAll();
  double Cpu0 = cpuSeconds();
  std::uint64_t Faults0 = minorFaults();
  std::uint64_t Start = nowNs();
  auto Deadline = Start + static_cast<std::uint64_t>(O.Seconds * 1e9);
  Body([&] { return nowNs() >= Deadline; });
  std::uint64_t End = nowNs();
  M.End = obs::MetricsRegistry::global().snapshot();
  M.MinorFaults = minorFaults() - Faults0;
  double Untimed = static_cast<double>(M.UntimedNs) / 1e9;
  Out.TimedS = static_cast<double>(End - Start) / 1e9 - Untimed;
  // The client thread is busy through the untimed sections.
  Out.CpuS = cpuSeconds() - Cpu0 - Untimed;
}

void runOneshot(const Options &O, Measure &M, RunResult &Out) {
  std::unique_ptr<RegionPool> Pool;
  for (unsigned I = 0; I < SetupReps; ++I) {
    std::uint64_t A = nowNs();
    Pool = std::make_unique<RegionPool>(64u << 20);
    Out.SetupS.push_back(static_cast<double>(nowNs() - A) / 1e9);
  }
  core::CompileOptions Opts =
      compileOptions(core::BackendKind::PCode, Pool.get());
  std::mt19937_64 Rng(O.Seed * 0x94d049bb133111ebull + 3);
  double Cpn = cyclesPerNano();

  timed(O, M, Out, [&](auto Done) {
    while (!Done()) {
      std::uint64_t G = nowNs();
      std::unique_ptr<Spec> S = makeSpec(Rng);
      std::uint64_t Expected = expected(*S);
      S->runStatic(false); // Warm the caches the timed runs use.
      double O0Ns = timeO0(*S, 3);
      unsigned K =
          std::uniform_int_distribution<unsigned>(1, MaxOneshotOps)(Rng);
      std::uint64_t Untimed = nowNs() - G;

      auto Req = static_cast<std::uint32_t>(M.Attempted++);
      std::uint64_t T0 = nowNs();
      core::CompiledFn F = S->specialize(Opts);
      std::uint64_t T1 = nowNs();
      M.T.span(Req, SpanKind::Instantiate, T0, T1);
      if (!F.valid()) {
        M.count(S->prog(), true);
        M.UntimedNs += Untimed;
        continue;
      }
      const core::DynStats &DS = F.stats();
      M.SpecUs.push_back(static_cast<float>(
          (static_cast<double>(T1 - T0) - DS.CyclesTotal / Cpn) / 1e3));
      M.CodeBytes += static_cast<double>(DS.CodeBytes);
      ++M.CodeFns;

      bool Bad = false;
      std::uint64_t InReq = 0;
      for (unsigned J = 0; J < K; ++J) {
        std::uint64_t A = nowNs();
        std::uint64_t R = S->runEntry(F.entry());
        std::uint64_t B = nowNs();
        M.T.span(Req, J ? SpanKind::Call : SpanKind::FirstCall, A, B);
        ++M.Ops;
        if (J == 0) {
          M.TtfcUs.push_back(static_cast<float>((B - T0) / 1e3));
          M.ProgTtfcUs[static_cast<unsigned>(S->prog())].push_back(
              M.TtfcUs.back());
        } else
          M.Ratio[static_cast<unsigned>(S->prog())].push_back(
              static_cast<float>(O0Ns / static_cast<double>(B - A)));
        std::uint64_t C = nowNs();
        Bad |= !check(*S, R, Expected);
        InReq += nowNs() - C;
      }
      std::uint64_t End = nowNs();
      M.RequestUs.push_back(static_cast<float>((End - T0 - InReq) / 1e3));
      M.count(S->prog(), Bad);
      ++M.FirstSights;

      std::uint64_t D = nowNs();
      F = core::CompiledFn();
      M.T.span(Req, SpanKind::Drop, D, nowNs());
      std::uint64_t G2 = nowNs();
      S.reset();
      M.UntimedNs += Untimed + InReq + (nowNs() - G2);
      M.endRequest();
    }
  });
}

void runServer(const Options &O, Measure &M, RunResult &Out) {
  Specs P;
  std::unique_ptr<Service> V;
  for (unsigned I = 0; I < SetupReps; ++I) {
    std::uint64_t A = nowNs();
    V.reset();
    P = makePopulation(O.Seed);
    V = std::make_unique<Service>("", nullptr);
    Out.SetupS.push_back(static_cast<double>(nowNs() - A) / 1e9);
  }
  ServerStream Stream(O.Seed);
  timed(O, M, Out, [&](auto Done) {
    while (!Done()) {
      // Like a server dropping a prepared plan that went cold, release the
      // slots of specs that left the live ranks; their code stays cached.
      for (unsigned Id : Stream.leaving())
        V->release(Id, M);
      tieredRequest(*V, P, Stream.next(), M);
    }
  });
  V->collect(M);
}

void runRestart(const Options &O, Measure &M, RunResult &Out) {
  Specs P;
  std::vector<unsigned> Window;
  std::unique_ptr<TempDir> Dir;
  for (unsigned I = 0; I < SetupReps; ++I) {
    std::uint64_t A = nowNs();
    Dir.reset();
    Dir = std::make_unique<TempDir>(O.WorkDir);
    P = makePopulation(O.Seed);
    ServerStream Stream(O.Seed);
    Window.clear();
    for (unsigned J = 0; J < WarmupWindow; ++J)
      Window.push_back(Stream.next());
    // Fill the snapshot: serve the window once and let every baseline
    // compile and queued promotion land (each appends its record).
    Measure Fill(false);
    Service V(Dir->Path, nullptr);
    for (unsigned Id : Window)
      tieredRequest(V, P, Id, Fill);
    V.drain();
    Out.SetupS.push_back(static_cast<double>(nowNs() - A) / 1e9);
  }
  timed(O, M, Out, [&](auto Done) {
    while (!Done()) {
      Service V(Dir->Path, &M);
      for (unsigned Id : Window)
        tieredRequest(V, P, Id, M);
      // A restart is paid for once the loads it queued have landed.
      std::uint64_t D = nowNs();
      V.drain();
      M.T.span(0, SpanKind::Drain, D, nowNs());
      V.collect(M);
      std::uint64_t A = nowNs();
      V.Held.clear();
      V.Mgr.reset();
      V.Svc.reset();
      M.T.span(0, SpanKind::Teardown, A, nowNs());
    }
  });
}

//===----------------------------------------------------------------------===//
// Reporting.
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value;
};

std::string json(const std::vector<Metric> &Ms) {
  std::string S = "{";
  for (std::size_t I = 0; I < Ms.size(); ++I) {
    char Buf[256];
    std::snprintf(Buf, sizeof Buf,
                  "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                  Ms[I].Unit.c_str());
    S += Buf;
  }
  return S + "}";
}

void table(const char *Title, const std::vector<Metric> &Ms) {
  std::printf("%s\n", Title);
  for (const Metric &M : Ms)
    std::printf("  %-34s %16.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
}

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

double requestNs(const Measure &M) {
  double Ns = 0;
  for (float U : M.RequestUs)
    Ns += U * 1e3;
  return Ns;
}

double codeBytesMean(const Measure &M) {
  double Bytes = M.CodeBytes, Fns = M.CodeFns;
  for (std::size_t B : M.Installed)
    if (B) {
      Bytes += static_cast<double>(B);
      ++Fns;
    }
  return ratio(Bytes, Fns);
}

std::vector<Metric> endToEnd(const Measure &M, const RunResult &R) {
  double Kreq = static_cast<double>(M.Attempted) / 1000.0;
  // Fig. 4's lcc column: geomean over programs of the median per-operation
  // ratio of static -O0 time to the time the user actually got.
  double LogSum = 0;
  unsigned Progs = 0;
  for (const auto &V : M.Ratio)
    if (!V.empty()) {
      LogSum += std::log(median(V));
      ++Progs;
    }
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return {
      {"setup_s", "s", median(R.SetupS)},
      {"request_us_p50", "us", median(M.RequestUs)},
      {"request_us_p99", "us", quantile(M.RequestUs, 0.99)},
      {"throughput_rps", "req/s",
       ratio(static_cast<double>(M.Attempted), R.TimedS)},
      {"ttfc_us_p50", "us", median(M.TtfcUs)},
      {"ttfc_us_p99", "us", quantile(M.TtfcUs, 0.99)},
      {"cpu_ms_per_kreq", "ms", ratio(R.CpuS * 1e3, Kreq)},
      {"speedup_vs_O0", "x", Progs ? std::exp(LogSum / Progs) : 0},
      {"code_bytes_mean", "B", codeBytesMean(M)},
      {"peak_rss_mb", "MiB", static_cast<double>(U.ru_maxrss) / 1024.0},
  };
}

/// p50 of a power-of-two bucketed histogram, interpolated in its bucket.
double histP50(const obs::HistogramSnapshot *H) {
  if (!H || !H->Count)
    return 0;
  std::uint64_t Half = (H->Count + 1) / 2, Seen = 0;
  for (unsigned B = 0; B < obs::Histogram::NumBuckets; ++B) {
    std::uint64_t N = H->Buckets[B];
    if (Seen + N >= Half) {
      double Lo = static_cast<double>(obs::Histogram::bucketLo(B));
      double Hi = B ? Lo * 2 : 1;
      return Lo + (Hi - Lo) * static_cast<double>(Half - Seen) / N;
    }
    Seen += N;
  }
  return static_cast<double>(H->Max);
}

double histMean(const obs::HistogramSnapshot *H) {
  return H && H->Count ? static_cast<double>(H->Sum) / H->Count : 0;
}

std::vector<Metric> perLayer(const Measure &M, double LibraryBuildMs,
                             double DispatchNs) {
  const obs::MetricsSnapshot &S = M.End;
  const obs::MetricsSnapshot &W = M.HaveWindow ? M.Window : S;
  double WindowKreq =
      static_cast<double>(std::min<std::uint64_t>(M.Attempted, ExactWindow)) /
      1000.0;
  double Kreq = static_cast<double>(M.Attempted) / 1000.0;
  auto C = [&](const char *Name) {
    return static_cast<double>(S.counter(Name));
  };
  auto PerK = [&](const char *Name) { return ratio(C(Name), Kreq); };
  auto WinK = [&](const char *Name) {
    return ratio(static_cast<double>(W.counter(Name)), WindowKreq);
  };
  double Compiles = C(N::CompileCountPCode) + C(N::CompileCountICode) +
                    C(N::CompileCountVCode);
  double Instrs = C(N::CompileMachineInstrs);
  double Cpn = cyclesPerNano();
  double PerInsnIc = M.IcInstrs;
  double Pooled = C(N::PoolReused) + C(N::PoolMapped);
  double Probes = C(N::SnapshotHits) + C(N::SnapshotMisses);
  double Lookups = C(N::CacheHits) + C(N::CacheMisses);
  return {
      {"core.spec_us_p50", "us", median(M.SpecUs)},
      {"core.setup.cycles_per_compile", "cycles",
       ratio(C(N::PhaseSetup), Compiles)},
      {"core.cgf_walk.cpi", "c/insn", ratio(C(N::PhaseCgfWalk), Instrs)},
      {"core.pe.loops_unrolled", "1/kreq", WinK(N::LoopsUnrolled)},
      {"core.pe.branches_eliminated", "1/kreq", WinK(N::BranchesEliminated)},
      {"core.pe.strength_reductions", "1/kreq", WinK(N::StrengthReductions)},
      {"core.interp.calls", "1/kreq", PerK(N::Tier0Invocations)},
      {"core.interp.call_ns_p50", "ns", median(M.InterpCallNs)},
      {"core.interp.first_call_share", "ratio",
       ratio(static_cast<double>(M.FirstInterp),
             static_cast<double>(M.FirstSights))},
      {"pcode.compiles", "1/kreq", WinK(N::CompileCountPCode)},
      {"pcode.cpi", "c/insn", histMean(S.histogram(N::HistCpiPCode))},
      {"pcode.library_build_ms", "ms", LibraryBuildMs},
      {"icode.compiles", "1/kreq", PerK(N::CompileCountICode)},
      {"icode.cpi", "c/insn", ratio(M.IcCycles, PerInsnIc)},
      {"icode.cpi_max", "c/insn", M.IcMaxCpi},
      {"icode.flow_graph.cpi", "c/insn", ratio(M.IcPhase[0], PerInsnIc)},
      {"icode.liveness.cpi", "c/insn", ratio(M.IcPhase[1], PerInsnIc)},
      {"icode.live_intervals.cpi", "c/insn", ratio(M.IcPhase[2], PerInsnIc)},
      {"icode.regalloc.cpi", "c/insn", ratio(M.IcPhase[3], PerInsnIc)},
      {"icode.peephole.cpi", "c/insn", ratio(M.IcPhase[4], PerInsnIc)},
      {"icode.emit.cpi", "c/insn", ratio(M.IcPhase[5], PerInsnIc)},
      {"icode.spilled_intervals", "1/kreq", PerK(N::SpilledIntervals)},
      {"support.finalize.cycles_per_compile", "cycles",
       ratio(C(N::PhaseFinalize), Compiles)},
      {"support.pool.reuse_ratio", "ratio", ratio(C(N::PoolReused), Pooled)},
      {"support.arena_bytes_mean", "B",
       histMean(S.histogram(N::HistArenaBytes))},
      {"support.compile_allocs", "1/kreq", PerK(N::CompileAllocs)},
      {"support.minor_faults", "1/kreq",
       ratio(static_cast<double>(M.MinorFaults), Kreq)},
      {"cache.hit_ratio", "ratio", ratio(C(N::CacheHits), Lookups)},
      {"cache.front_door_ns_p50", "ns", median(M.FrontDoorNs)},
      {"cache.evictions", "1/kreq", PerK(N::CacheEvictions)},
      {"cache.bytes_resident", "B", ratio(M.CacheBytes, M.CacheSamples)},
      {"tier.promotions", "1/kreq", PerK(N::TierPromotions)},
      {"tier.promote.queue_full", "1/kreq", PerK(N::TierQueueFull)},
      {"tier.promote.stale", "1/kreq", PerK(N::TierStale)},
      {"tier.promote_latency_us_p50", "us", median(M.PromoteUs)},
      {"tier.swap_latency_us_p50", "us", median(M.SwapUs)},
      {"tier.interp_share", "ratio",
       ratio(static_cast<double>(M.InterpOps), static_cast<double>(M.Ops))},
      {"tier.dispatch_ns", "ns", DispatchNs},
      {"persist.open_ms", "ms", median(M.OpenMs)},
      {"persist.hit_ratio", "ratio", ratio(C(N::SnapshotHits), Probes)},
      {"persist.load_us_p50", "us",
       histP50(S.histogram(N::HistSnapshotLoad)) / Cpn / 1e3},
      {"persist.rejects", "1/kreq", PerK(N::SnapshotRejects)},
      {"persist.unportable", "1/kreq", PerK(N::SnapshotUnportable)},
      {"verify.admit.cycles_per_load", "cycles",
       ratio(C(N::VerifyAdmitCycles), C(N::VerifyAdmitChecked))},
      {"verify.admit.failed", "1/kreq", PerK(N::VerifyAdmitFailed)},
      {"trace.coverage", "ratio", ratio(M.T.childNs(), requestNs(M))},
  };
}

/// Slot dispatch cost: one operation through a tiered slot minus the same
/// operation through the raw entry of the code the slot dispatches to, per
/// call. Measured once the slot is promoted, so the code no longer changes.
double dispatchNs(std::uint64_t Seed) {
  std::mt19937_64 R(Seed + 11);
  std::unique_ptr<Spec> S = makeSpec(Prog::Pow, R, 0.25);
  Service V("", nullptr);
  tier::TieredFnHandle H = S->specializeTiered(
      *V.Svc, *V.Mgr, compileOptions(core::BackendKind::PCode, nullptr));
  for (std::uint64_t I = 0; I <= tierConfig().PromoteThreshold; ++I)
    S->runSlot(*H);
  H->waitPromoted();
  cache::FnHandle F = H->handle();
  auto Time = [&](auto &&Op) {
    std::vector<double> T;
    for (unsigned I = 0; I < 200; ++I) {
      std::uint64_t A = nowNs();
      for (unsigned J = 0; J < 16; ++J)
        Op();
      T.push_back(static_cast<double>(nowNs() - A) / 16);
    }
    return median(T);
  };
  double Slot = Time([&] { S->runSlot(*H); });
  double Raw = Time([&] { S->runEntry(F->entry()); });
  V.Held[0] = std::move(H);
  return (Slot - Raw) / S->callsPerOp();
}

void printHost(const Options &O, const std::vector<std::string> &Env) {
  std::string Model = "unknown";
  std::ifstream Cpu("/proc/cpuinfo");
  for (std::string L; std::getline(Cpu, L);)
    if (L.rfind("model name", 0) == 0) {
      Model = L.substr(L.find(':') + 2);
      break;
    }
  std::printf("host: cpu=\"%s\" tsc_ghz=%.3f nproc=%u build=%s commit=%s\n",
              Model.c_str(), cyclesPerNano(),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMMIT);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace);
  std::printf("env (ignored; the configuration is pinned):");
  for (const std::string &E : Env)
    std::printf(" %s", E.c_str());
  std::printf("%s\n", Env.empty() ? " none" : "");
}

/// Records, then removes, every TICKC_* variable: the few the library still
/// reads internally (e.g. TICKC_BACKEND) must not override the pinned
/// configuration.
std::vector<std::string> scrubEnv() {
  std::vector<std::string> Found;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "TICKC_", 6) == 0)
      Found.emplace_back(*E);
  for (const std::string &E : Found)
    unsetenv(E.substr(0, E.find('=')).c_str());
  return Found;
}

/// Keeps freed heap memory in the process. By default glibc hands the top
/// of the heap back to the kernel after a large free, so the next large
/// compile page-faults its memory in again; in a VM those faults cost a
/// third of oneshot's request_us_p99 and double with the host's load. A
/// long-running code generator tunes malloc the same way.
void pinMalloc() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

int usage() {
  std::fprintf(stderr, "usage: perfbench --workload oneshot|server|restart "
                       "--seed N --seconds S --trace 0|1 [--workdir DIR]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::uint64_t ProcStart = nowNs();
  std::vector<std::string> Env = scrubEnv();
  pinMalloc();
  Options O;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      O.Workload = V;
    else if (K == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      O.Trace = V == "1";
    else if (K == "--workdir")
      O.WorkDir = V;
    else
      return usage();
  }
  std::function<void(const Options &, Measure &, RunResult &)> Run;
  if (O.Workload == "oneshot")
    Run = runOneshot;
  else if (O.Workload == "server")
    Run = runServer;
  else if (O.Workload == "restart")
    Run = runRestart;
  else
    return usage();
  if (!(O.Seconds > 0))
    return usage();

  // Process-wide one-time set-up: TSC calibration and the stencil library.
  std::uint64_t L0 = nowNs();
  cyclesPerNano();
  const pcode::StencilLibrary &Lib = pcode::StencilLibrary::get();
  double LibS = static_cast<double>(nowNs() - L0) / 1e9;
  double LibBuildMs =
      static_cast<double>(Lib.buildCycles()) / cyclesPerNano() / 1e6;
  printHost(O, Env);

  Measure M(O.Trace);
  RunResult R;
  Run(O, M, R);
  for (double &S : R.SetupS)
    S += LibS;
  double Dispatch = O.Trace ? dispatchNs(O.Seed) : 0;

  std::vector<Metric> E2E = endToEnd(M, R);
  double FailedFrac = ratio(static_cast<double>(M.Failed),
                            static_cast<double>(M.Attempted));
  std::printf("\n%s: %llu requests (%llu failed, failed_frac %.6g), %llu "
              "first sights, %.3f s timed, %.3f s wall\n",
              O.Workload.c_str(), static_cast<unsigned long long>(M.Attempted),
              static_cast<unsigned long long>(M.Failed), FailedFrac,
              static_cast<unsigned long long>(M.FirstSights), R.TimedS,
              static_cast<double>(nowNs() - ProcStart) / 1e9);
  table("end-to-end", E2E);
  std::printf("per program:   requests   failed  speedup_vs_O0  ttfc_us_p50  "
              "ttfc_us_p99\n");
  for (unsigned P = 0; P < NumProgs; ++P)
    std::printf("  %-8s %10llu %8llu %14.3f %12.1f %12.1f\n",
                progName(static_cast<Prog>(P)),
                static_cast<unsigned long long>(M.ProgRequests[P]),
                static_cast<unsigned long long>(M.ProgFailed[P]),
                median(M.Ratio[P]), median(M.ProgTtfcUs[P]),
                quantile(M.ProgTtfcUs[P], 0.99));
  std::printf("PERFBENCH_E2E {\"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(M.Attempted),
              static_cast<unsigned long long>(M.Failed), json(E2E).c_str());
  if (O.Trace) {
    std::vector<Metric> Layers = perLayer(M, LibBuildMs, Dispatch);
    double ReqNs = requestNs(M);
    std::printf("\nspans (self time; request kinds nest in the request)\n");
    for (unsigned K = 0; K < NumSpanKinds; ++K)
      std::printf("  %-14s %10llu spans %12.3f ms %7.2f%% of request wall\n",
                  SpanNames[K], static_cast<unsigned long long>(M.T.Count[K]),
                  static_cast<double>(M.T.SelfNs[K]) / 1e6,
                  inRequest(static_cast<SpanKind>(K))
                      ? 100.0 * ratio(static_cast<double>(M.T.SelfNs[K]), ReqNs)
                      : 0.0);
    table("per-layer", Layers);
    const obs::MetricsSnapshot &Snap = M.End;
    double Total = static_cast<double>(Snap.counter(N::CompileCyclesTotal));
    auto Share = [&](const char *Name) {
      return 100 * ratio(static_cast<double>(Snap.counter(Name)), Total);
    };
    std::printf("compile cycles: cgf_walk %.1f%%, setup %.1f%%, finalize "
                "%.1f%%\n",
                Share(N::PhaseCgfWalk), Share(N::PhaseSetup),
                Share(N::PhaseFinalize));
    std::string TracePath = O.WorkDir + "/trace-" + O.Workload + ".json";
    fs::create_directories(O.WorkDir);
    M.T.write(TracePath);
    std::printf("trace: %zu spans written to %s\n", M.T.Spans.size(),
                TracePath.c_str());
    std::printf("PERFBENCH_LAYERS {\"metrics\": %s}\n", json(Layers).c_str());
  }
  std::fflush(stdout);
  return 0;
}
