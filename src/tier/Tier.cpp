//===- tier/Tier.cpp - Tiered dynamic compilation -------------------------===//

#include "tier/Tier.h"

#include "observability/Flight.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "observability/Trace.h"
#include "support/Env.h"
#include "support/Error.h"
#include "support/Timing.h"

#include <algorithm>
#include <cstdio>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

using namespace tcc;
using namespace tcc::tier;
using namespace tcc::core;

namespace {

obs::Counter &counter(const char *Name) {
  return obs::MetricsRegistry::global().counter(Name);
}

} // namespace

namespace tcc {
namespace tier {

/// One shape's ShapeCosts, shared by the manager's table and every slot of
/// the shape.
class ShapeHistory {
public:
  void addTier0(std::uint64_t Cycles) {
    support::MutexLock G(M);
    Costs.Tier0.add(Cycles);
  }
  void addBaseline(std::uint64_t Cycles) {
    support::MutexLock G(M);
    Costs.Baseline.add(Cycles);
  }
  ShapeCosts costs() const {
    support::MutexLock G(M);
    return Costs;
  }

private:
  mutable support::Mutex M;
  ShapeCosts Costs TICKC_GUARDED_BY(M);
};

} // namespace tier
} // namespace tcc

//===----------------------------------------------------------------------===//
// TierConfig
//===----------------------------------------------------------------------===//

TierConfig TierConfig::fromEnv() {
  TierConfig C;
  C.Workers = static_cast<unsigned>(std::max<std::uint64_t>(
      1, envUInt64("TICKC_TIER_THREADS", C.Workers)));
  C.PromoteThreshold = std::max<std::uint64_t>(
      1, envUInt64("TICKC_TIER_THRESHOLD", C.PromoteThreshold));
  C.SamplePromoteThreshold =
      envUInt64("TICKC_TIER_SAMPLES", C.SamplePromoteThreshold);
  return C;
}

//===----------------------------------------------------------------------===//
// TieredFn
//===----------------------------------------------------------------------===//

// The waits hold the annotated mutex via MutexLock and loop on their
// predicate inline (not through a lambda passed into wait_for) so the
// thread-safety analysis checks every guarded read under the capability.

bool TieredFn::waitPromoted(std::chrono::milliseconds Timeout) const {
  auto Deadline = std::chrono::steady_clock::now() + Timeout;
  support::MutexLock L(M);
  for (;;) {
    TierState S = State.load();
    if (S == TierState::Promoted || S == TierState::Failed)
      break;
    if (CV.wait_until(M, Deadline) == std::cv_status::timeout)
      break;
  }
  return State.load() == TierState::Promoted;
}

bool TieredFn::waitCompiled(std::chrono::milliseconds Timeout) const {
  auto Deadline = std::chrono::steady_clock::now() + Timeout;
  support::MutexLock L(M);
  while (Entry.load() == nullptr && State.load() != TierState::Failed)
    if (CV.wait_until(M, Deadline) == std::cv_status::timeout)
      break;
  return compiled();
}

core::Value TieredFn::dispatchInterp(const std::int64_t *IntArgs,
                                     unsigned NumInt, const double *FpArgs,
                                     unsigned NumFp) const {
  static obs::Counter &C = counter(obs::names::Tier0Invocations);
  C.inc();
  Prof->Invocations.fetch_add(1, std::memory_order_relaxed);
  core::Value R = Interp->run(IntArgs, NumInt, FpArgs, NumFp);
  // The tier-0 cost sample: the first interpreted call to return after the
  // baseline landed ran longer than the compile did. A call that returns
  // before the swap pays only the load.
  if (Entry.load(std::memory_order_acquire) &&
      !Tier0Sampled.exchange(true, std::memory_order_relaxed))
    Shape->addTier0(readCycleCounter() - CreatedTsc);
  return R;
}

ShapeCosts TieredFn::shapeCosts() const {
  return Shape ? Shape->costs() : ShapeCosts();
}

void TieredFn::requestPromotion() {
  TierState Expected = TierState::Baseline;
  if (!State.compare_exchange_strong(Expected, TierState::Queued))
    return; // Another caller just won the race to enqueue.

  obs::TraceSpan Span(obs::SpanKind::TierEnqueue);
  {
    support::MutexLock G(M);
    EnqueuedNs = readMonotonicNanos();
    EnqueuedTsc = readCycleCounter();
  }
  if (Manager->enqueue(shared_from_this())) {
    counter(obs::names::TierEnqueued).inc();
    return;
  }
  // Queue full (or manager stopping): back off — revert to Baseline with a
  // doubled trigger so a later call retries instead of hammering the queue.
  counter(obs::names::TierQueueFull).inc();
  backOff();
  State.store(TierState::Baseline);
}

void TieredFn::backOff() {
  const std::atomic<std::uint64_t> *C = Count.load(std::memory_order_relaxed);
  std::uint64_t Now = C->load(std::memory_order_relaxed);
  std::uint64_t Calls = Now + CountBias.load(std::memory_order_relaxed);
  TriggerAt.store(Now + std::max<std::uint64_t>(Calls, 1),
                  std::memory_order_relaxed);
}

void TieredFn::installPromoted(cache::FnHandle NewFn) {
  std::uint64_t StartNs, StartTsc;
  {
    obs::TraceSpan Swap(obs::SpanKind::TierSwap);
    support::MutexLock G(M);
    StartNs = EnqueuedNs;
    StartTsc = EnqueuedTsc;
    void *OldEntry = Entry.load();
    Promoted = std::move(NewFn);
    Entry.store(Promoted->entry());
    obs::flightRecord(obs::FlightEvent::TierSwap,
                      reinterpret_cast<std::uintptr_t>(OldEntry),
                      reinterpret_cast<std::uintptr_t>(Promoted->entry()),
                      Prof ? Prof->Name.c_str() : nullptr);
    // From here every new call dispatches to the ICODE body. Callers
    // already past their Entry.load() finish on the baseline, which the
    // slot keeps until it is destroyed.
  }

  std::uint64_t LatNs = readMonotonicNanos() - StartNs;
  std::uint64_t LatTsc = readCycleCounter() - StartTsc;
  PromoteLatencyNs.store(LatNs);
  obs::MetricsRegistry::global()
      .histogram(obs::names::HistTierPromoteLatency)
      .record(LatTsc);
  counter(obs::names::TierPromotions).inc();

  {
    support::MutexLock G(M);
    State.store(TierState::Promoted);
  }
  CV.notify_all();
}

void TieredFn::installBaseline(cache::FnHandle NewFn) {
  // Record the swap latency before the entry becomes visible: a caller
  // released by waitCompiled() must already see tier0SwapNanos() set.
  Tier0SwapNs.store(readMonotonicNanos() - CreatedNs);
  obs::MetricsRegistry::global()
      .histogram(obs::names::HistTier0SwapLatency)
      .record(readCycleCounter() - CreatedTsc);
  // Re-base the trigger onto the baseline prologue's counter, which counts
  // every compiled call from here on: the calls still owed carry over, so
  // the trigger fires after PromoteThreshold calls in total. A trigger
  // crossed while interpreted fires at the check below.
  if (!NewFn->profile())
    reportFatalError("tier: baseline compiled without a profile entry");
  const std::atomic<std::uint64_t> &BaseCount = NewFn->profile()->Invocations;
  std::uint64_t Base = BaseCount.load(std::memory_order_relaxed);
  std::uint64_t Interpreted = Prof->Invocations.load(std::memory_order_relaxed);
  std::uint64_t Trigger = TriggerAt.load(std::memory_order_relaxed);
  TriggerAt.store(Base + (Trigger > Interpreted ? Trigger - Interpreted : 0),
                  std::memory_order_relaxed);
  // invocations() reads CountBias first: a reader that sees the new bias
  // sees the new counter too.
  Count.store(&BaseCount, std::memory_order_relaxed);
  CountBias.store(Interpreted - Base, std::memory_order_release);
  {
    obs::TraceSpan Swap(obs::SpanKind::TierSwap);
    support::MutexLock G(M);
    Baseline = std::move(NewFn);
    Entry.store(Baseline->entry());
    obs::flightRecord(obs::FlightEvent::TierSwap, 0,
                      reinterpret_cast<std::uintptr_t>(Baseline->entry()),
                      Prof ? Prof->Name.c_str() : nullptr);
    // From here every new call runs machine code; callers already past
    // their Entry.load() finish on the interpreter, which stays alive for
    // the slot's whole lifetime.
    State.store(TierState::Baseline);
  }
  CV.notify_all();
  // The slot may have crossed the promotion trigger while still
  // interpreted (the interpreted path runs no trigger check); check now so
  // a burst that went quiet before the swap still tiers up.
  maybeRequestPromotion();
}

//===----------------------------------------------------------------------===//
// TierManager
//===----------------------------------------------------------------------===//

TierManager::TierManager(TierConfig Config) : Config(Config) {
  Workers.reserve(Config.Workers);
  for (unsigned I = 0; I < Config.Workers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
  if (Config.SamplePromoteThreshold)
    SampleWatcher = std::thread([this] { sampleWatchLoop(); });
}

TierManager::~TierManager() {
  {
    support::MutexLock G(QueueM);
    Stopping = true;
    Queue.clear(); // Never-reached requests are failed via AllSlots below.
  }
  QueueCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
  if (SampleWatcher.joinable())
    SampleWatcher.join();
  // Detach every surviving slot: a slot left Baseline would enqueue into
  // this (dead) manager the next time its counter crossed the trigger.
  // Failed slots keep dispatching whatever tier they reached and never
  // enqueue again; waitPromoted() callers unblock.
  support::MutexLock SG(SlotsM);
  for (std::weak_ptr<TieredFn> &W : AllSlots) {
    std::shared_ptr<TieredFn> Fn = W.lock();
    if (!Fn || Fn->State.load() == TierState::Promoted)
      continue;
    counter(obs::names::TierAbandoned).inc();
    {
      support::MutexLock G(Fn->M);
      Fn->State.store(TierState::Failed);
    }
    Fn->CV.notify_all();
  }
}

bool TierManager::enqueue(const std::shared_ptr<TieredFn> &Fn) {
  {
    support::MutexLock G(QueueM);
    if (Stopping || Queue.size() >= Config.QueueCapacity)
      return false;
    Queue.emplace_back(Fn);
  }
  QueueCV.notify_one();
  return true;
}

std::size_t TierManager::queueDepth() {
  support::MutexLock G(QueueM);
  return Queue.size();
}

void TierManager::workerLoop() {
  // Compiles are background work. A woken worker of equal weight preempts
  // the caller that woke it and runs its whole compile on that CPU.
  // SCHED_BATCH never preempts on wakeup, and at nice 19 the worker leaves
  // the caller's CPU for an idle core instead of queueing behind it.
  // SCHED_IDLE would starve it whenever every core is busy.
  sched_param Param{};
  (void)sched_setscheduler(0, SCHED_BATCH, &Param); // This thread only.
  (void)setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), 19);
  for (;;) {
    std::weak_ptr<TieredFn> W;
    {
      support::MutexLock L(QueueM);
      while (!Stopping && Queue.empty())
        QueueCV.wait(QueueM);
      if (Stopping)
        return; // Leftover queue entries are failed by the destructor.
      W = std::move(Queue.front());
      Queue.pop_front();
    }
    if (std::shared_ptr<TieredFn> Fn = W.lock()) {
      // Tier-0 slots enqueue twice in their lifetime: once at creation
      // (Interpreted — compile the baseline) and once when the counter
      // crosses the trigger (Queued — promote to ICODE).
      if (Fn->State.load() == TierState::Interpreted)
        compileBaseline(Fn);
      else
        promote(Fn);
    } else
      counter(obs::names::TierAbandoned).inc();
  }
}

void TierManager::sampleWatchLoop() {
  // The invocation-counter trigger lives in the call path, so a spec whose
  // single invocation spins in a hot loop for minutes never fires it. This
  // watcher is the execution-side complement: it reads the SIGPROF sample
  // count the profiler accumulates into each slot's ProfileEntry and
  // enqueues a promotion once it crosses the configured threshold.
  std::vector<std::shared_ptr<TieredFn>> Live;
  for (;;) {
    {
      auto Deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(Config.SampleWatchMs);
      support::MutexLock L(QueueM);
      while (!Stopping)
        if (QueueCV.wait_until(QueueM, Deadline) == std::cv_status::timeout)
          break;
      if (Stopping)
        return;
    }
    Live.clear();
    {
      support::MutexLock G(SlotsM);
      for (std::weak_ptr<TieredFn> &W : AllSlots)
        if (std::shared_ptr<TieredFn> Fn = W.lock())
          if (Fn->State.load(std::memory_order_relaxed) ==
              TierState::Baseline)
            Live.push_back(std::move(Fn));
    }
    for (std::shared_ptr<TieredFn> &Fn : Live) {
      std::uint64_t Samples =
          Fn->Prof->Samples.load(std::memory_order_relaxed);
      // Tier-0 slots own a fresh "interp" profile entry that the sampler
      // never attributes code samples to; once their baseline lands, the
      // samples accrue on the *compile's* (cache-shared) entry instead —
      // read it through the installed handle.
      if (Fn->IsTier0)
        if (cache::FnHandle H = Fn->handle())
          if (const obs::ProfileEntry *PE = H->profile())
            Samples += PE->Samples.load(std::memory_order_relaxed);
      if (Samples < Config.SamplePromoteThreshold)
        continue;
      counter(obs::names::TierPromoteSampled).inc();
      Fn->requestPromotion();
    }
  }
}

void TierManager::promote(const std::shared_ptr<TieredFn> &Fn) {
  // A cacheable baseline that has been evicted since the request was queued
  // signals a cold or thrashing spec: promoting it would spend an ICODE
  // compile on code the cache itself decided was not worth keeping. Drop
  // the request and re-arm with a doubled trigger.
  if (Fn->BaselineKey.Cacheable && !Fn->Service->lookup(Fn->BaselineKey)) {
    counter(obs::names::TierStale).inc();
    Fn->backOff();
    {
      support::MutexLock G(Fn->M);
      Fn->State.store(TierState::Baseline);
    }
    Fn->CV.notify_all();
    return;
  }

  cache::FnHandle Optimized;
  {
    obs::TraceSpan Span(obs::SpanKind::TierCompile);
    Context Ctx;
    Stmt Body = Fn->Build(Ctx);
    // PromoteOpts inherits Verify from the caller's options, so under
    // verification the optimized body is fully re-checked (IR, allocation,
    // emitted bytes) *inside* this compile — i.e. before installPromoted
    // can swap it into the dispatch slot. A promotion can therefore never
    // replace working baseline code with bytes that failed an audit.
    CompileOptions PO = Fn->PromoteOpts;
    // Tier-0 profile handoff: freeze the live counters into per-loop
    // unroll decisions on this stack frame (the live Tier0Profile keeps
    // mutating under concurrent interpreted calls; the compile — and the
    // SpecKey digest — must see one consistent snapshot).
    Tier0ProfileSnapshot Snap;
    if (Fn->T0Prof) {
      Snap = snapshotTier0(*Fn->T0Prof);
      PO.TripProfile = &Snap;
    }
    Optimized = Fn->Service->getOrCompile(Ctx, Body, Fn->RetType, PO);
  }
  counter(obs::names::TierCompiled).inc();
  Fn->installPromoted(std::move(Optimized));
}

void TierManager::publishSlotProfile(TieredFn &Fn) {
  // Deferred half of tier-0 slot creation: the entry was allocated on the
  // caller's path (so dispatch counting never misses a call), but the
  // snprintf and the registry mutex run here, off the latency path. The
  // baseline swap's release ordering publishes Name to post-swap readers.
  if (!Fn.Prof || !Fn.Prof->Name.empty())
    return;
  char NameBuf[64];
  const char *Label = Fn.BaselineOpts.ProfileName && *Fn.BaselineOpts.ProfileName
                          ? Fn.BaselineOpts.ProfileName
                          : "tier0";
  std::snprintf(NameBuf, sizeof(NameBuf), "%s#%08llx", Label,
                static_cast<unsigned long long>(Fn.BaselineKey.Hash &
                                                0xFFFFFFFFu));
  Fn.Prof->Name = NameBuf;
  obs::ProfileRegistry::global().publish(Fn.Prof);
}

void TierManager::compileBaseline(const std::shared_ptr<TieredFn> &Fn) {
  publishSlotProfile(*Fn);
  cache::FnHandle B;
  std::uint64_t Cycles;
  {
    obs::TraceSpan Span(obs::SpanKind::TierCompile);
    Context Ctx;
    Stmt Body = Fn->Build(Ctx);
    std::uint64_t Start = readCycleCounter();
    B = Fn->Service->getOrCompileKeyed(Ctx, Body, Fn->RetType,
                                       Fn->BaselineOpts, Fn->BaselineKey);
    Cycles = readCycleCounter() - Start;
  }
  if (!B || !B->valid()) {
    // The slot keeps answering from the interpreter; it just never tiers
    // up. waitCompiled()/waitPromoted() callers unblock with failure.
    {
      support::MutexLock G(Fn->M);
      Fn->State.store(TierState::Failed);
    }
    Fn->CV.notify_all();
    return;
  }
  if (B->fromSnapshot())
    counter(obs::names::TierBaselineSnapshot).inc();
  // Before the swap, so the interpreted call that closes the slot's tier-0
  // sample finds the baseline sample already in place.
  Fn->Shape->addBaseline(Cycles);
  Fn->installBaseline(std::move(B));
}

std::shared_ptr<ShapeHistory>
TierManager::shapeHistory(const SpecBuild &Build, Stmt Body,
                          EvalType RetType) {
  std::uint64_t Key = Build.target_type().hash_code();
  Key = (Key ^ Body.node()->Ord) * 0x9E3779B97F4A7C15ull;
  Key = (Key ^ static_cast<std::uint64_t>(RetType)) * 0xBF58476D1CE4E5B9ull;
  Key ^= Key >> 31;
  support::MutexLock G(ShapesM);
  ShapeEntry &E = Shapes[Key % Shapes.size()];
  if (!E.History || E.Key != Key) {
    E.Key = Key;
    E.History = std::make_shared<ShapeHistory>();
  }
  return E.History;
}

TieredFnHandle
TierManager::startInterpreted(const std::shared_ptr<TieredFn> &Fn,
                              std::unique_ptr<Context> &OwnedCtx, Stmt Body,
                              cache::SpecKey &Key) {
  // TTFC becomes the cost of one tree walk: the interpreter's construction
  // walk doubles as the eligibility check (SpecInterp::ok), and the
  // profile-entry naming/registration is deferred to the worker.
  Fn->CreatedNs = readMonotonicNanos();
  Fn->CreatedTsc = readCycleCounter();
  Context &Ctx = *OwnedCtx;
  if (Fn->Service->config().EnableTier0Profile)
    Fn->T0Prof = std::make_shared<Tier0Profile>();
  auto Interp = std::make_unique<SpecInterp>(std::move(OwnedCtx), Body,
                                             Fn->RetType, Fn->T0Prof.get());
  if (!Interp->ok()) {
    // Outside the interpreter's envelope: hand the tree back for the
    // synchronous baseline.
    OwnedCtx = Interp->takeContext();
    Fn->T0Prof.reset();
    return nullptr;
  }
  Fn->Interp = std::move(Interp);
  Fn->BaselineKey = std::move(Key);
  Fn->IsTier0 = true;
  Fn->State.store(TierState::Interpreted);
  // The slot's own profile entry counts the interpreted calls (the
  // interpreter has no profiling prologue); installBaseline hands the
  // trigger over to the baseline prologue's counter. Allocated here so
  // counting starts with the first dispatch; named and registered off the
  // creation path by publishSlotProfile (worker, or the degraded path
  // below).
  Fn->Prof = std::make_shared<obs::ProfileEntry>();
  Fn->Prof->Backend.store("interp");
  Fn->Prof->PromoteThreshold.store(Config.PromoteThreshold,
                                   std::memory_order_relaxed);
  Fn->Count.store(&Fn->Prof->Invocations, std::memory_order_relaxed);
  Fn->TriggerAt.store(Config.PromoteThreshold, std::memory_order_relaxed);
  // Entry stays null: call<> dispatches to the interpreter until the
  // worker installs the baseline.
  TieredFnHandle Published = publishSlot(Fn);
  if (Published.get() == Fn.get() && !enqueue(Fn)) {
    // Queue full (or manager stopping): degrade to the legacy synchronous
    // compile rather than interpreting unboundedly. Ctx is still alive —
    // the interpreter owns it now.
    counter(obs::names::Tier0Fallback).inc();
    publishSlotProfile(*Fn);
    std::uint64_t Start = readCycleCounter();
    cache::FnHandle B = Fn->Service->getOrCompileKeyed(
        Ctx, Body, Fn->RetType, Fn->BaselineOpts, Fn->BaselineKey);
    if (!B || !B->valid())
      reportFatalError("tier: baseline instantiation failed");
    Fn->Shape->addBaseline(readCycleCounter() - Start);
    if (B->fromSnapshot())
      counter(obs::names::TierBaselineSnapshot).inc();
    Fn->installBaseline(std::move(B));
  }
  return Published;
}

TieredFnHandle TierManager::getOrCreate(cache::CompileService &Service,
                                        const SpecBuild &Build,
                                        EvalType RetType,
                                        CompileOptions BaseOpts) {
  // Baseline tier: PCODE (copy-and-patch, overridable via TICKC_BACKEND)
  // with the profiling prologue — the counter is the promotion sensor. The
  // optimizing tier has nothing left to decide from a count, so it runs
  // without one; it keeps its symbol name (ProfileName), so sampled
  // execution still attributes to it, and stats().Backend tells it apart.
  CompileOptions BaselineOpts = BaseOpts;
  BaselineOpts.Backend = baselineBackendFromEnv();
  BaselineOpts.Profile = true;
  CompileOptions PromoteOpts = BaseOpts;
  PromoteOpts.Backend = BackendKind::ICode;
  PromoteOpts.Profile = false;

  // Built into an owned context: the tier-0 path hands the tree to the
  // interpreter, which keeps it alive for the slot's lifetime; the legacy
  // path just lets it die at scope exit.
  auto OwnedCtx = std::make_unique<Context>();
  Context &Ctx = *OwnedCtx;
  Stmt Body = Build(Ctx);
  cache::SpecKey Key = cache::buildSpecKey(Ctx, Body, RetType, BaselineOpts);

  if (Key.Cacheable) {
    support::MutexLock G(SlotsM);
    auto It = Slots.find(Key);
    if (It != Slots.end())
      if (std::shared_ptr<TieredFn> Existing = It->second.lock())
        if (Existing->Service == &Service)
          return Existing;
  }

  // make_shared needs a public constructor; this avoids befriending every
  // allocator by constructing through a local derived type.
  struct MakeSharedTieredFn : TieredFn {};
  auto Fn = std::static_pointer_cast<TieredFn>(
      std::make_shared<MakeSharedTieredFn>());
  Fn->Manager = this;
  Fn->Service = &Service;
  Fn->Build = Build;
  Fn->RetType = RetType;
  Fn->PromoteOpts = PromoteOpts;
  Fn->BaselineOpts = BaselineOpts;

  // Interpreter tier 0: answer from the interpreter now and push the
  // baseline compile to the worker pool, unless one of three reasons sends
  // the spec to the synchronous baseline below:
  //   resident   — a cache hit answers at full speed immediately;
  //   cost       — the shape's history says interpreting outlasts the
  //                compile (ShapeCosts::preferSynchronous);
  //   ineligible — the spec is outside the interpreter's envelope.
  static obs::Counter &SkipResident = counter(obs::names::Tier0SkipResident);
  static obs::Counter &SkipCost = counter(obs::names::Tier0SkipCost);
  static obs::Counter &SkipIneligible =
      counter(obs::names::Tier0SkipIneligible);
  // A baseline-cost sample counts only after a cache miss: a resident hit
  // costs next to nothing and would drag the shape's mean towards zero.
  bool Missed = false;
  if (Service.config().EnableTier0) {
    Fn->Shape = shapeHistory(Build, Body, RetType);
    if (Service.lookup(Key)) {
      SkipResident.inc();
    } else if (Fn->Shape->costs().preferSynchronous()) {
      SkipCost.inc();
      Missed = true;
    } else if (TieredFnHandle Interpreted =
                   startInterpreted(Fn, OwnedCtx, Body, Key)) {
      return Interpreted;
    } else {
      SkipIneligible.inc();
      Missed = true;
    }
  }

  std::uint64_t Start = readCycleCounter();
  cache::FnHandle Baseline =
      Service.getOrCompileKeyed(Ctx, Body, RetType, BaselineOpts, Key);
  if (!Baseline || !Baseline->valid())
    reportFatalError("tier: baseline instantiation failed");
  if (Missed)
    Fn->Shape->addBaseline(readCycleCounter() - Start);
  // Warm-start provenance: a snapshot-revived baseline enters the tier
  // machinery exactly like a fresh compile (its patched counter drives
  // promotion), but the report should attribute it to the snapshot.
  if (Baseline->fromSnapshot())
    counter(obs::names::TierBaselineSnapshot).inc();

  Fn->BaselineKey = std::move(Key);
  Fn->Prof = Baseline->profileShared();
  if (!Fn->Prof)
    reportFatalError("tier: baseline compiled without a profile entry");
  Fn->Prof->PromoteThreshold.store(Config.PromoteThreshold,
                                   std::memory_order_relaxed);
  // Arm relative to the counter's current value: a cache-shared baseline
  // may already have been invoked by non-tiered callers.
  Fn->Count.store(&Fn->Prof->Invocations, std::memory_order_relaxed);
  Fn->TriggerAt.store(Fn->Prof->Invocations.load(std::memory_order_relaxed) +
                          Config.PromoteThreshold,
                      std::memory_order_relaxed);
  Fn->Entry.store(Baseline->entry());
  {
    support::MutexLock G(Fn->M);
    Fn->Baseline = std::move(Baseline);
  }
  return publishSlot(Fn);
}

TieredFnHandle TierManager::publishSlot(const std::shared_ptr<TieredFn> &Fn) {
  support::MutexLock G(SlotsM);
  if (Fn->BaselineKey.Cacheable) {
    auto It = Slots.find(Fn->BaselineKey);
    if (It != Slots.end()) {
      // Raced with another creator; prefer the slot already published so
      // all callers share one counter and one promotion.
      if (std::shared_ptr<TieredFn> Existing = It->second.lock())
        if (Existing->Service == Fn->Service)
          return Existing;
      It->second = Fn;
    } else {
      // Bound the slot map: dead weak_ptrs pile up when callers churn
      // through many short-lived tiered fns.
      if (Slots.size() >= 1024)
        for (auto I = Slots.begin(); I != Slots.end();) {
          if (I->second.expired())
            I = Slots.erase(I);
          else
            ++I;
        }
      Slots.emplace(Fn->BaselineKey, Fn);
    }
  }
  if (AllSlots.size() >= 1024) {
    std::size_t Keep = 0;
    for (std::weak_ptr<TieredFn> &W : AllSlots)
      if (!W.expired())
        AllSlots[Keep++] = std::move(W);
    AllSlots.resize(Keep);
  }
  AllSlots.push_back(Fn);
  return Fn;
}

TierManager &TierManager::global() {
  static TierManager M;
  return M;
}

//===----------------------------------------------------------------------===//
// CompileService::getOrCompileTiered
//===----------------------------------------------------------------------===//

namespace tcc {
namespace cache {

TieredFnHandle CompileService::getOrCompileTiered(const SpecBuild &Build,
                                                  EvalType RetType,
                                                  CompileOptions BaseOpts,
                                                  TierManager *Manager) {
  TierManager &M = Manager ? *Manager : TierManager::global();
  return M.getOrCreate(*this, Build, RetType, BaseOpts);
}

} // namespace cache
} // namespace tcc
