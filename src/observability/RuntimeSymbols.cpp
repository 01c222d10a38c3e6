//===- observability/RuntimeSymbols.cpp - JIT symbol table ----------------===//

#include "observability/RuntimeSymbols.h"

#include "observability/Flight.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "observability/Sampler.h"
#include "support/Env.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string_view>

#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <fcntl.h>
#include <time.h>
#include <unistd.h>

using namespace tcc;
using namespace tcc::obs;

namespace {

struct SymtabMetrics {
  Counter &Registered, &Retired, &Dropped;
  static SymtabMetrics &get() {
    auto &R = MetricsRegistry::global();
    static SymtabMetrics M{R.counter(names::SymtabRegistered),
                           R.counter(names::SymtabRetired),
                           R.counter(names::SymtabDropped)};
    return M;
  }
};

unsigned log2Bucket(std::uint64_t V, unsigned NumBuckets) {
  if (V == 0)
    return 0;
  unsigned Log = 63u - static_cast<unsigned>(__builtin_clzll(V));
  return Log < NumBuckets ? Log : NumBuckets - 1;
}

std::uint64_t monotonicNs() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<std::uint64_t>(Ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(Ts.tv_nsec);
}

// --- jitdump format (linux/tools/perf/Documentation/jitdump-specification) --

constexpr std::uint32_t JitdumpMagic = 0x4A695444; // "JiTD"
constexpr std::uint32_t JitdumpVersion = 1;
constexpr std::uint32_t ElfMachX86_64 = 62;
constexpr std::uint32_t JitCodeLoad = 0;

struct JitdumpHeader {
  std::uint32_t Magic, Version, TotalSize, ElfMach, Pad1, Pid;
  std::uint64_t Timestamp, Flags;
};

struct JitCodeLoadRecord {
  std::uint32_t Id, TotalSize;
  std::uint64_t Timestamp;
  std::uint32_t Pid, Tid;
  std::uint64_t Vma, CodeAddr, CodeSize, CodeIndex;
  // Followed by name\0 and the code bytes.
};

} // namespace

//===----------------------------------------------------------------------===//
// SymbolHandle
//===----------------------------------------------------------------------===//

void SymbolHandle::reset() {
  if (Slot < 0)
    return;
  RuntimeSymbolTable::global().retire(Slot);
  Slot = -1;
}

//===----------------------------------------------------------------------===//
// RuntimeSymbolTable
//===----------------------------------------------------------------------===//

RuntimeSymbolTable &RuntimeSymbolTable::global() {
  // Leaked on purpose: signal handlers and static destructors may still
  // resolve PCs after main() returns.
  static RuntimeSymbolTable *T = new RuntimeSymbolTable();
  return *T;
}

SymbolHandle RuntimeSymbolTable::registerRegion(
    const void *Entry, std::size_t Size, const char *Name,
    std::atomic<std::uint64_t> *ProfSamples) {
  if (!Entry || Size == 0)
    return SymbolHandle();
  std::lock_guard<std::mutex> G(M);
  if (!FreeInit) {
    // Low indices first, so signal-context scans stay short while few
    // regions are live.
    for (unsigned I = 0; I < Capacity; ++I)
      FreeList[I] = static_cast<int>(Capacity - 1 - I);
    FreeTop = Capacity;
    FreeInit = true;
  }
  if (FreeTop == 0) {
    SymtabMetrics::get().Dropped.inc();
    return SymbolHandle();
  }
  int Idx = FreeList[--FreeTop];
  Slot &S = Slots[static_cast<unsigned>(Idx)];

  // Publish under the seqlock: odd while the fields are in flux.
  S.Seq.fetch_add(1, std::memory_order_acq_rel);
  std::strncpy(S.Name, Name && *Name ? Name : "spec", NameBytes - 1);
  S.Name[NameBytes - 1] = '\0';
  S.Samples.store(0, std::memory_order_relaxed);
  S.LastSampleTsc.store(0, std::memory_order_relaxed);
  for (auto &B : S.SelfCycles)
    B.store(0, std::memory_order_relaxed);
  S.ProfSamples.store(ProfSamples, std::memory_order_relaxed);
  S.Size.store(Size, std::memory_order_relaxed);
  S.Start.store(reinterpret_cast<std::uintptr_t>(Entry),
                std::memory_order_release);
  S.Seq.fetch_add(1, std::memory_order_release);

  unsigned Needed = static_cast<unsigned>(Idx) + 1;
  unsigned Cur = MaxUsed.load(std::memory_order_relaxed);
  while (Cur < Needed &&
         !MaxUsed.compare_exchange_weak(Cur, Needed,
                                        std::memory_order_release))
    ;
  Epoch.fetch_add(1, std::memory_order_relaxed);
  SymtabMetrics::get().Registered.inc();

  if (Export == PerfExport::Map || Export == PerfExport::Both)
    appendPerfMapLocked(S);
  if (Export == PerfExport::Jitdump || Export == PerfExport::Both)
    appendJitdumpLocked(S);
  return SymbolHandle(Idx);
}

void RuntimeSymbolTable::retire(int Idx) {
  if (Idx < 0 || static_cast<unsigned>(Idx) >= Capacity)
    return;
  std::lock_guard<std::mutex> G(M);
  Slot &S = Slots[static_cast<unsigned>(Idx)];
  std::uintptr_t Start = S.Start.load(std::memory_order_relaxed);
  if (!Start)
    return; // Already retired (resetForTesting raced a handle).

  flightRecord(FlightEvent::RegionRetire, Start,
               S.Size.load(std::memory_order_relaxed), S.Name);

  S.Seq.fetch_add(1, std::memory_order_acq_rel);
  S.Start.store(0, std::memory_order_relaxed);
  S.Size.store(0, std::memory_order_relaxed);
  S.ProfSamples.store(nullptr, std::memory_order_relaxed);
  S.Seq.fetch_add(1, std::memory_order_release);

  // Drain in-flight signal-context readers: one may have validated the
  // slot's sequence just before we flipped it and still be about to bump
  // the (externally owned) ProfSamples counter. Handlers never block, so
  // this spin is bounded by one handler execution.
  while (InSignal.load(std::memory_order_acquire) != 0)
    ;

  // Retain the retired symbol's sample totals under its name, so a
  // generation that is gone (an evicted baseline, a destroyed slot's
  // tiers) keeps its share of the profile.
  if (std::uint64_t N = S.Samples.load(std::memory_order_relaxed)) {
    SymbolInfo &Agg = Retired[S.Name];
    if (Agg.Name.empty())
      Agg.Name = S.Name;
    Agg.Samples += N;
    for (unsigned B = 0; B < SelfCycleBuckets; ++B)
      Agg.SelfCycles[B] += S.SelfCycles[B].load(std::memory_order_relaxed);
    if (Retired.size() > 512) {
      auto Coldest = Retired.begin();
      for (auto It = Retired.begin(); It != Retired.end(); ++It)
        if (It->second.Samples < Coldest->second.Samples)
          Coldest = It;
      Retired.erase(Coldest);
    }
  }

  FreeList[FreeTop++] = Idx;
  SymtabMetrics::get().Retired.inc();

  // A retired region may be recycled and re-registered at the same address
  // under a different name: rewrite the map so the stale line cannot win.
  if (Export == PerfExport::Map || Export == PerfExport::Both)
    writePerfMapLocked();
}

int RuntimeSymbolTable::sampleHit(std::uintptr_t PC, std::uint64_t Tsc) {
  InSignal.fetch_add(1, std::memory_order_acquire);
  int Hit = -1;
  unsigned N = MaxUsed.load(std::memory_order_acquire);
  for (unsigned I = 0; I < N; ++I) {
    Slot &S = Slots[I];
    std::uint32_t Seq = S.Seq.load(std::memory_order_acquire);
    if (Seq & 1u)
      continue;
    std::uintptr_t Start = S.Start.load(std::memory_order_relaxed);
    std::size_t Size = S.Size.load(std::memory_order_relaxed);
    if (!Start || PC < Start || PC >= Start + Size)
      continue;
    std::atomic<std::uint64_t> *Prof =
        S.ProfSamples.load(std::memory_order_relaxed);
    if (S.Seq.load(std::memory_order_acquire) != Seq)
      continue; // Slot mutated underneath us; treat as a miss on it.
    S.Samples.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t Last =
        S.LastSampleTsc.exchange(Tsc, std::memory_order_relaxed);
    if (Last && Tsc > Last)
      S.SelfCycles[log2Bucket(Tsc - Last, SelfCycleBuckets)].fetch_add(
          1, std::memory_order_relaxed);
    if (Prof)
      Prof->fetch_add(1, std::memory_order_relaxed);
    Hit = static_cast<int>(I);
    break;
  }
  InSignal.fetch_sub(1, std::memory_order_release);
  return Hit;
}

bool RuntimeSymbolTable::resolve(std::uintptr_t PC, char *NameOut,
                                 std::uintptr_t *StartOut,
                                 std::size_t *SizeOut) {
  InSignal.fetch_add(1, std::memory_order_acquire);
  bool Found = false;
  unsigned N = MaxUsed.load(std::memory_order_acquire);
  for (unsigned I = 0; I < N && !Found; ++I) {
    Slot &S = Slots[I];
    std::uint32_t Seq = S.Seq.load(std::memory_order_acquire);
    if (Seq & 1u)
      continue;
    std::uintptr_t Start = S.Start.load(std::memory_order_relaxed);
    std::size_t Size = S.Size.load(std::memory_order_relaxed);
    if (!Start || PC < Start || PC >= Start + Size)
      continue;
    char Buf[NameBytes];
    std::memcpy(Buf, S.Name, NameBytes);
    if (S.Seq.load(std::memory_order_acquire) != Seq)
      continue;
    if (NameOut) {
      std::memcpy(NameOut, Buf, NameBytes);
      NameOut[NameBytes - 1] = '\0';
    }
    if (StartOut)
      *StartOut = Start;
    if (SizeOut)
      *SizeOut = Size;
    Found = true;
  }
  InSignal.fetch_sub(1, std::memory_order_release);
  return Found;
}

std::vector<SymbolInfo> RuntimeSymbolTable::liveSymbols() {
  std::vector<SymbolInfo> Out;
  std::lock_guard<std::mutex> G(M);
  unsigned N = MaxUsed.load(std::memory_order_acquire);
  for (unsigned I = 0; I < N; ++I) {
    Slot &S = Slots[I];
    std::uintptr_t Start = S.Start.load(std::memory_order_acquire);
    if (!Start)
      continue;
    SymbolInfo Info;
    Info.Name = S.Name;
    Info.Start = Start;
    Info.Size = S.Size.load(std::memory_order_relaxed);
    Info.Samples = S.Samples.load(std::memory_order_relaxed);
    for (unsigned B = 0; B < SelfCycleBuckets; ++B)
      Info.SelfCycles[B] = S.SelfCycles[B].load(std::memory_order_relaxed);
    Info.Live = true;
    Out.push_back(std::move(Info));
  }
  return Out;
}

std::vector<SymbolInfo> RuntimeSymbolTable::hotSymbols() {
  std::vector<SymbolInfo> Out = liveSymbols();
  {
    std::lock_guard<std::mutex> G(M);
    for (const auto &[Name, Info] : Retired) {
      // Fold retired samples into a live symbol of the same name (a
      // re-registered spec) rather than listing it twice.
      bool Merged = false;
      for (SymbolInfo &L : Out)
        if (L.Name == Name) {
          L.Samples += Info.Samples;
          for (unsigned B = 0; B < SelfCycleBuckets; ++B)
            L.SelfCycles[B] += Info.SelfCycles[B];
          Merged = true;
          break;
        }
      if (!Merged)
        Out.push_back(Info);
    }
  }
  std::sort(Out.begin(), Out.end(), [](const SymbolInfo &A,
                                       const SymbolInfo &B) {
    return A.Samples > B.Samples;
  });
  return Out;
}

std::size_t RuntimeSymbolTable::liveCount() {
  std::lock_guard<std::mutex> G(M);
  std::size_t N = 0;
  unsigned Max = MaxUsed.load(std::memory_order_acquire);
  for (unsigned I = 0; I < Max; ++I)
    if (Slots[I].Start.load(std::memory_order_acquire))
      ++N;
  return N;
}

std::uint64_t RuntimeSymbolTable::registrationEpoch() {
  return Epoch.load(std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// perf export
//===----------------------------------------------------------------------===//

void RuntimeSymbolTable::enablePerfExport(PerfExport Mode,
                                          const char *NewMapPath,
                                          const char *JitdumpDir) {
  std::lock_guard<std::mutex> G(M);
  Export = Mode;
  if (Mode == PerfExport::Off)
    return;
  if (Mode == PerfExport::Map || Mode == PerfExport::Both) {
    if (NewMapPath && *NewMapPath) {
      MapPath = NewMapPath;
    } else {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "/tmp/perf-%d.map",
                    static_cast<int>(getpid()));
      MapPath = Buf;
    }
    writePerfMapLocked();
  }
  if ((Mode == PerfExport::Jitdump || Mode == PerfExport::Both) &&
      JitdumpFd < 0) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "%s/jit-%d.dump",
                  JitdumpDir && *JitdumpDir ? JitdumpDir : ".",
                  static_cast<int>(getpid()));
    DumpPath = Buf;
    JitdumpFd = ::open(Buf, O_CREAT | O_TRUNC | O_RDWR, 0644);
    if (JitdumpFd >= 0) {
      JitdumpHeader H{};
      H.Magic = JitdumpMagic;
      H.Version = JitdumpVersion;
      H.TotalSize = sizeof(JitdumpHeader);
      H.ElfMach = ElfMachX86_64;
      H.Pid = static_cast<std::uint32_t>(getpid());
      H.Timestamp = monotonicNs();
      if (::write(JitdumpFd, &H, sizeof(H)) != sizeof(H)) {
        ::close(JitdumpFd);
        JitdumpFd = -1;
      } else {
        // perf record only learns about the dump file through an mmap
        // event; the executable mapping of the first page is the protocol's
        // way of generating one.
        JitdumpMarker = ::mmap(nullptr, static_cast<std::size_t>(
                                            sysconf(_SC_PAGESIZE)),
                               PROT_READ | PROT_EXEC, MAP_PRIVATE, JitdumpFd,
                               0);
        if (JitdumpMarker == MAP_FAILED)
          JitdumpMarker = nullptr;
        // Registrations that predate enabling still matter (the stencil
        // library, early compiles): append them now.
        unsigned N = MaxUsed.load(std::memory_order_acquire);
        for (unsigned I = 0; I < N; ++I)
          if (Slots[I].Start.load(std::memory_order_acquire))
            appendJitdumpLocked(Slots[I]);
      }
    }
  }
}

PerfExport RuntimeSymbolTable::perfExport() {
  std::lock_guard<std::mutex> G(M);
  return Export;
}

std::string RuntimeSymbolTable::perfMapPath() {
  std::lock_guard<std::mutex> G(M);
  return MapPath;
}

std::string RuntimeSymbolTable::jitdumpPath() {
  std::lock_guard<std::mutex> G(M);
  return DumpPath;
}

void RuntimeSymbolTable::appendPerfMapLocked(const Slot &S) {
  std::FILE *F = std::fopen(MapPath.c_str(), "a");
  if (!F)
    return;
  std::fprintf(F, "%llx %llx %s\n",
               static_cast<unsigned long long>(
                   S.Start.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(
                   S.Size.load(std::memory_order_relaxed)),
               S.Name);
  std::fclose(F);
}

void RuntimeSymbolTable::writePerfMapLocked() {
  if (MapPath.empty())
    return;
  std::FILE *F = std::fopen(MapPath.c_str(), "w");
  if (!F)
    return;
  unsigned N = MaxUsed.load(std::memory_order_acquire);
  for (unsigned I = 0; I < N; ++I) {
    const Slot &S = Slots[I];
    std::uintptr_t Start = S.Start.load(std::memory_order_acquire);
    if (!Start)
      continue;
    std::fprintf(F, "%llx %llx %s\n", static_cast<unsigned long long>(Start),
                 static_cast<unsigned long long>(
                     S.Size.load(std::memory_order_relaxed)),
                 S.Name);
  }
  std::fclose(F);
}

void RuntimeSymbolTable::appendJitdumpLocked(const Slot &S) {
  if (JitdumpFd < 0)
    return;
  std::uintptr_t Start = S.Start.load(std::memory_order_relaxed);
  std::size_t Size = S.Size.load(std::memory_order_relaxed);
  std::size_t NameLen = std::strlen(S.Name) + 1;

  JitCodeLoadRecord R{};
  R.Id = JitCodeLoad;
  R.TotalSize =
      static_cast<std::uint32_t>(sizeof(JitCodeLoadRecord) + NameLen + Size);
  R.Timestamp = monotonicNs();
  R.Pid = static_cast<std::uint32_t>(getpid());
  R.Tid = R.Pid;
  R.Vma = Start;
  R.CodeAddr = Start;
  R.CodeSize = Size;
  R.CodeIndex = JitdumpCodeIndex++;

  // The code bytes are readable through the exec mapping (r-x) — copy them
  // into the record so perf can disassemble retired generations too.
  bool Ok = ::write(JitdumpFd, &R, sizeof(R)) == static_cast<ssize_t>(
                                                     sizeof(R)) &&
            ::write(JitdumpFd, S.Name, NameLen) ==
                static_cast<ssize_t>(NameLen) &&
            ::write(JitdumpFd, reinterpret_cast<const void *>(Start),
                    Size) == static_cast<ssize_t>(Size);
  if (!Ok) {
    ::close(JitdumpFd);
    JitdumpFd = -1;
  }
}

void RuntimeSymbolTable::resetForTesting() {
  std::lock_guard<std::mutex> G(M);
  for (unsigned I = 0; I < Capacity; ++I) {
    Slot &S = Slots[I];
    if (!S.Start.load(std::memory_order_relaxed) && FreeInit)
      continue;
    S.Seq.fetch_add(1, std::memory_order_acq_rel);
    S.Start.store(0, std::memory_order_relaxed);
    S.Size.store(0, std::memory_order_relaxed);
    S.ProfSamples.store(nullptr, std::memory_order_relaxed);
    S.Samples.store(0, std::memory_order_relaxed);
    S.Seq.fetch_add(1, std::memory_order_release);
  }
  while (InSignal.load(std::memory_order_acquire) != 0)
    ;
  for (unsigned I = 0; I < Capacity; ++I)
    FreeList[I] = static_cast<int>(Capacity - 1 - I);
  FreeTop = Capacity;
  FreeInit = true;
  MaxUsed.store(0, std::memory_order_release);
  Retired.clear();
}

//===----------------------------------------------------------------------===//
// Environment-driven setup
//===----------------------------------------------------------------------===//

void tcc::obs::initRuntimeObservabilityFromEnv() {
  if (const char *V = std::getenv("TICKC_PERF_MAP"); V && *V) {
    std::string_view S(V);
    if (S == "jitdump")
      RuntimeSymbolTable::global().enablePerfExport(PerfExport::Jitdump);
    else if (S == "both")
      RuntimeSymbolTable::global().enablePerfExport(PerfExport::Both);
    else if (S == "1" || S == "map")
      RuntimeSymbolTable::global().enablePerfExport(PerfExport::Map);
    else // Any other value is an explicit map path.
      RuntimeSymbolTable::global().enablePerfExport(PerfExport::Map, V);
  }
  if (std::uint64_t Hz = envUInt64("TICKC_SAMPLE_HZ", 0))
    Sampler::global().start(static_cast<unsigned>(Hz));
  if (envUInt64("TICKC_FLIGHT", 0))
    FlightRecorder::global().installFatalHandler();
}
