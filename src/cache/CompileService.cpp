//===- cache/CompileService.cpp - Memoized instantiation ------------------==//

#include "cache/CompileService.h"

#include "observability/Metrics.h"
#include "observability/Names.h"
#include "observability/Trace.h"
#include "persist/Snapshot.h"
#include "support/Env.h"
#include "support/Reloc.h"

#include <cstdio>
#include <cstdlib>

using namespace tcc;
using namespace tcc::cache;
using namespace tcc::core;

ServiceConfig ServiceConfig::fromEnv() {
  ServiceConfig C;
  C.MaxCodeBytes = static_cast<std::size_t>(
      envUInt64("TICKC_CACHE_BYTES", C.MaxCodeBytes));
  if (const char *Dir = std::getenv("TICKC_SNAPSHOT_DIR"))
    C.SnapshotDir = Dir;
  C.SnapshotCompactBytes = static_cast<std::size_t>(
      envUInt64("TICKC_SNAPSHOT_COMPACT", C.SnapshotCompactBytes));
  C.SnapshotBudgetBytes = static_cast<std::size_t>(
      envUInt64("TICKC_SNAPSHOT_BUDGET", C.SnapshotBudgetBytes));
  C.SnapshotTtlSec = envUInt64("TICKC_SNAPSHOT_TTL", C.SnapshotTtlSec);
  C.EnableTier0 = envUInt64("TICKC_TIER0", C.EnableTier0 ? 1 : 0) != 0;
  C.EnableTier0Profile =
      envUInt64("TICKC_TIER0_PROFILE", C.EnableTier0Profile ? 1 : 0) != 0;
  return C;
}

CompileService::CompileService(ServiceConfig Config)
    : Config(Config), Pool(Config.MaxPooledBytes),
      Cache(Config.Shards, Config.MaxCodeBytes) {
  if (!this->Config.SnapshotDir.empty() && this->Config.EnableCache)
    Snap = persist::SnapshotCache::open(this->Config.SnapshotDir,
                                        this->Config.SnapshotCompactBytes,
                                        this->Config.SnapshotBudgetBytes,
                                        this->Config.SnapshotTtlSec);
}

CompileService::~CompileService() = default;

CompiledFn CompileService::compilePooled(Context &Ctx, Stmt Body,
                                         EvalType RetType,
                                         CompileOptions Opts) {
  if (Opts.Ctx)
    return compileFn(Ctx, Body, RetType, Opts);
  CompileContextPool::Handle H = CtxPool.acquire();
  Opts.Ctx = H.get();
  return compileFn(Ctx, Body, RetType, Opts);
}

FnHandle CompileService::getOrCompile(Context &Ctx, Stmt Body,
                                      EvalType RetType, CompileOptions Opts) {
  if (!Config.EnableCache) {
    if (Config.EnablePool && !Opts.Pool)
      Opts.Pool = &Pool;
    return std::make_shared<CompiledFn>(
        compilePooled(Ctx, Body, RetType, Opts));
  }

  return getOrCompileKeyed(Ctx, Body, RetType, Opts,
                           buildSpecKey(Ctx, Body, RetType, Opts));
}

FnHandle CompileService::getOrCompileKeyed(Context &Ctx, Stmt Body,
                                           EvalType RetType,
                                           CompileOptions Opts,
                                           const SpecKey &K) {
  if (Config.EnablePool && !Opts.Pool)
    Opts.Pool = &Pool;

  // Runtime symbol name derived from the spec key: perf/flamegraph frames
  // then distinguish specializations of the same source function by their
  // structural hash. Lives on the stack for the duration of the compile;
  // compileFn copies it into the symbol table.
  char SymBuf[64];
  if (!Opts.SymbolName) {
    if (Opts.ProfileName && *Opts.ProfileName)
      std::snprintf(SymBuf, sizeof(SymBuf), "%s#%08llx", Opts.ProfileName,
                    static_cast<unsigned long long>(K.Hash & 0xFFFFFFFFu));
    else
      std::snprintf(SymBuf, sizeof(SymBuf), "spec-%016llx",
                    static_cast<unsigned long long>(K.Hash));
    Opts.SymbolName = SymBuf;
  }

  if (!Config.EnableCache || !K.Cacheable)
    return std::make_shared<CompiledFn>(
        compilePooled(Ctx, Body, RetType, Opts));

  if (FnHandle H = Cache.lookup(K))
    return H;

  // Single-flight: the first thread to miss a key becomes its leader and
  // compiles; concurrent missers block on the leader's result instead of
  // burning a full duplicate compile each.
  std::shared_ptr<InFlightCompile> Fl;
  bool Leader = false;
  {
    support::MutexLock G(InFlightM);
    auto It = InFlight.find(K);
    if (It != InFlight.end()) {
      Fl = It->second;
    } else {
      Fl = std::make_shared<InFlightCompile>();
      InFlight.emplace(K, Fl);
      Leader = true;
    }
  }

  if (!Leader) {
    static obs::Counter &Waits =
        obs::MetricsRegistry::global().counter(obs::names::CacheSingleflightWait);
    Waits.inc();
    support::MutexLock L(Fl->M);
    while (!Fl->Done)
      Fl->CV.wait(Fl->M);
    return Fl->Result;
  }

  // The leader may have won the in-flight slot just after a previous
  // leader published its result and retired; re-probe before compiling.
  FnHandle H = Cache.lookup(K);
  if (!H && Snap) {
    // Warm-start path: probe the on-disk snapshot before paying for a
    // compile, and teach it any compile it could not serve. Both sides key
    // on the address-independent PersistKey (one extra pass over the
    // nodes, only ever on a cold miss with persistence enabled).
    PersistKey PK = buildPersistKey(Ctx, Body, RetType, Opts);
    core::CompiledFn L = Snap->tryLoad(PK, Opts);
    if (L.valid())
      H = Cache.insert(K, std::move(L));
    if (!H) {
      support::RelocTable Relocs;
      CompileOptions SaveOpts = Opts;
      SaveOpts.Relocs = &Relocs;
      core::CompiledFn F = compilePooled(Ctx, Body, RetType, SaveOpts);
      Snap->trySave(PK, F, Relocs);
      H = Cache.insert(K, std::move(F));
    }
  }
  if (!H)
    H = Cache.insert(K, compilePooled(Ctx, Body, RetType, Opts));
  {
    // Retire the flight before publishing: the cache already holds the
    // entry, so late arrivals that miss the flight re-probe and hit.
    support::MutexLock G(InFlightM);
    InFlight.erase(K);
  }
  {
    support::MutexLock L(Fl->M);
    Fl->Done = true;
    Fl->Result = H;
  }
  Fl->CV.notify_all();
  return H;
}

FnHandle CompileService::lookup(const SpecKey &K) {
  if (!Config.EnableCache || !K.Cacheable)
    return nullptr;
  return Cache.lookup(K);
}

CompileService &CompileService::instance() {
  static CompileService S(ServiceConfig::fromEnv());
  return S;
}
