//===- observability/RuntimeSymbols.h - JIT symbol table -------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution-side symbolization for dynamically generated code. Every
/// finalized code region registers `(entry, size, name)` here, so the three
/// consumers that must resolve an arbitrary PC at runtime all share one
/// source of truth:
///
///   * the in-process sampling profiler (Sampler.h), which resolves
///     interrupted PCs from a SIGPROF handler;
///   * the crash-time flight recorder (Flight.h), which names the
///     specialization a fatal signal landed in;
///   * external `perf`: registrations are exported as the classic
///     `/tmp/perf-<pid>.map` text format and/or the binary jitdump format
///     (`perf inject -j`), so `perf report` symbolizes specialized frames
///     instead of showing anonymous [JIT] regions.
///
/// Signal-safety contract: lookupts from signal context (`sampleHit`,
/// `resolve`) touch only a fixed array of lock-free slots — no locks, no
/// allocation, no syscalls. Each slot is published and retired under a
/// per-slot seqlock (odd = mutating); a signal-context reader that observes
/// an odd or changed sequence simply skips the slot. Mutators (register /
/// retire) serialize on an ordinary mutex — they run on normal threads
/// only.
///
/// Retirement is consistent with the tier manager by construction: a
/// symbol is retired from ~CompiledFn, which runs when the last handle
/// drops, and a dispatch slot holds every tier it installed until the slot
/// is destroyed (no caller can still be executing the region). retire()
/// additionally waits for
/// in-flight signal handlers to leave the table before returning, so the
/// ProfileEntry a slot points into can never be read after it is freed.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_OBSERVABILITY_RUNTIMESYMBOLS_H
#define TICKC_OBSERVABILITY_RUNTIMESYMBOLS_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace tcc {
namespace obs {

/// Move-only RAII registration: retires the symbol on destruction. Owned by
/// core::CompiledFn, declared after the code region so the symbol leaves
/// the table before the region can be recycled into the pool.
class SymbolHandle {
public:
  SymbolHandle() = default;
  explicit SymbolHandle(int Slot) : Slot(Slot) {}
  SymbolHandle(SymbolHandle &&O) noexcept : Slot(O.Slot) { O.Slot = -1; }
  SymbolHandle &operator=(SymbolHandle &&O) noexcept {
    if (this != &O) {
      reset();
      Slot = O.Slot;
      O.Slot = -1;
    }
    return *this;
  }
  ~SymbolHandle() { reset(); }

  SymbolHandle(const SymbolHandle &) = delete;
  SymbolHandle &operator=(const SymbolHandle &) = delete;

  /// Retires the registration now (idempotent).
  void reset();
  bool valid() const { return Slot >= 0; }
  int id() const { return Slot; }

private:
  int Slot = -1;
};

/// Point-in-time copy of one symbol for reports and tests.
struct SymbolInfo {
  std::string Name;
  std::uintptr_t Start = 0;
  std::size_t Size = 0;
  std::uint64_t Samples = 0;
  /// Log2-bucketed histogram of TSC deltas between consecutive samples
  /// landing in this symbol ("self-cycle" spacing; tight buckets = the
  /// symbol owns the CPU). Bucket i counts deltas in [2^i, 2^(i+1)).
  std::array<std::uint32_t, 16> SelfCycles{};
  bool Live = false; ///< False for retired-and-aggregated symbols.
};

/// How registrations are exported for external perf tooling.
enum class PerfExport : std::uint8_t {
  Off,
  Map,     ///< /tmp/perf-<pid>.map text lines.
  Jitdump, ///< Binary jitdump (perf inject -j) with code bytes.
  Both,
};

class RuntimeSymbolTable {
public:
  static constexpr unsigned Capacity = 4096;
  static constexpr unsigned NameBytes = 48;
  static constexpr unsigned SelfCycleBuckets = 16;

  /// The process-wide table (never destroyed: generated code, signal
  /// handlers, and static-destruction-order callers may outlive any scope).
  static RuntimeSymbolTable &global();

  /// Registers a finalized region. \p Name is truncated to NameBytes-1 and
  /// copied. \p ProfSamples, when non-null, is an external per-function
  /// sample counter (obs::ProfileEntry::Samples) bumped on every sample
  /// hit; it must stay valid until the returned handle is reset (CompiledFn
  /// guarantees this: the entry is freed only after the symbol retires).
  /// Returns an invalid handle when the table is full (symtab.dropped).
  SymbolHandle registerRegion(const void *Entry, std::size_t Size,
                              const char *Name,
                              std::atomic<std::uint64_t> *ProfSamples);

  // --- Signal-context API (async-signal-safe, lock-free) -------------------

  /// Resolves \p PC and accumulates one sample into the owning slot (and
  /// its ProfileEntry, if any). Returns the slot index or -1.
  int sampleHit(std::uintptr_t PC, std::uint64_t Tsc);

  /// Resolves \p PC without recording a sample: copies the symbol name into
  /// \p NameOut (NUL-terminated, at most NameBytes) and reports the region
  /// start. Returns false when \p PC is not inside any live region.
  bool resolve(std::uintptr_t PC, char *NameOut, std::uintptr_t *StartOut,
               std::size_t *SizeOut);

  // --- Reporting ------------------------------------------------------------

  std::vector<SymbolInfo> liveSymbols();
  /// Live symbols plus the retained sample totals of retired ones (tier
  /// swaps must not lose the baseline's samples), sorted by sample count.
  std::vector<SymbolInfo> hotSymbols();
  std::size_t liveCount();
  std::uint64_t registrationEpoch(); ///< Monotonic; bumps on every register.

  // --- perf export ----------------------------------------------------------

  /// Starts exporting registrations. Map mode (re)writes \p MapPath (default
  /// `/tmp/perf-<pid>.map`) with all currently-live symbols and appends new
  /// ones; a retirement rewrites the file so stale regions cannot shadow a
  /// tier-swapped replacement. Jitdump mode writes `<dir>/jit-<pid>.dump`
  /// (default cwd) and mmaps its first page PROT_READ|PROT_EXEC so `perf
  /// record` logs the file for `perf inject -j`.
  void enablePerfExport(PerfExport Mode, const char *MapPath = nullptr,
                        const char *JitdumpDir = nullptr);
  PerfExport perfExport();
  std::string perfMapPath();
  std::string jitdumpPath();

  /// Testing hook: drops every live registration and retired aggregate.
  /// Outstanding SymbolHandles become harmless no-ops only if reset first —
  /// callers must not hold handles across this.
  void resetForTesting();

private:
  RuntimeSymbolTable() = default;

  struct Slot {
    std::atomic<std::uint32_t> Seq{0}; ///< Seqlock: odd while mutating.
    std::atomic<std::uintptr_t> Start{0};
    std::atomic<std::size_t> Size{0};
    std::atomic<std::uint64_t> Samples{0};
    std::atomic<std::uint64_t> LastSampleTsc{0};
    std::atomic<std::atomic<std::uint64_t> *> ProfSamples{nullptr};
    std::array<std::atomic<std::uint32_t>, SelfCycleBuckets> SelfCycles{};
    char Name[NameBytes] = {};
  };

  void retire(int Slot);
  void writePerfMapLocked();
  void appendPerfMapLocked(const Slot &S);
  void appendJitdumpLocked(const Slot &S);
  friend class SymbolHandle;

  std::array<Slot, Capacity> Slots;
  /// Slots at index < MaxUsed may be live; signal-context scans stop there.
  std::atomic<unsigned> MaxUsed{0};
  /// Count of signal-context readers currently inside the table; retire()
  /// drains this before returning so freed ProfileEntries are unreachable.
  std::atomic<unsigned> InSignal{0};
  std::atomic<std::uint64_t> Epoch{0};

  // --- Mutator state (normal threads only) ---------------------------------
  std::mutex M;
  int FreeList[Capacity];
  unsigned FreeTop = 0;
  bool FreeInit = false;
  /// Retired symbols' sample totals, aggregated by name (bounded).
  std::map<std::string, SymbolInfo> Retired;
  PerfExport Export = PerfExport::Off;
  std::string MapPath;
  std::string DumpPath;
  int JitdumpFd = -1;
  void *JitdumpMarker = nullptr;
  std::uint64_t JitdumpCodeIndex = 0;
};

/// One-time environment-driven setup, called from the first compileFn():
/// TICKC_PERF_MAP (`1`/`map`, `jitdump`, `both`, or an explicit map path)
/// enables perf export, TICKC_SAMPLE_HZ starts the sampling profiler, and
/// TICKC_FLIGHT installs the crash-time flight-recorder dump handler.
void initRuntimeObservabilityFromEnv();

} // namespace obs
} // namespace tcc

#endif // TICKC_OBSERVABILITY_RUNTIMESYMBOLS_H
