//===- tier/Tier.h - Tiered dynamic compilation ----------------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tiered instantiation: answer first calls at VCODE compile latency
/// (~100-500 cycles/generated instruction, paper §5.1), then transparently
/// re-instantiate hot specs through ICODE's global register allocator
/// (~1000-2500 cycles/instruction for measurably better code, §5.2) — the
/// paper's static per-`compile` back-end choice made automatic.
///
/// The moving parts:
///
///   * TieredFn — a dispatch slot: an atomic function-pointer indirection
///     the caller invokes through. It starts at baseline code whose
///     prologue counts invocations (CompileOptions::Profile); the dispatch
///     wrapper checks that counter against the promotion threshold after
///     each call and enqueues a promotion request the first time it is
///     crossed. The wrapper counts only the calls the tier-0 interpreter
///     answers, and the promoted body is compiled without the counter, so
///     a call through a compiled slot adds one load and one compare.
///   * TierManager — a small pool of background compile threads draining a
///     bounded MPMC queue of promotion requests. A worker re-runs the
///     spec-building closure, compiles it with BackendKind::ICode through
///     the same CompileService (so the optimized body lands in the code
///     cache), verifies the baseline spec is still cache-resident, and
///     atomically swaps the slot.
///   * Code lifetime — a slot holds every tier it installed until it is
///     destroyed, and every call<>() caller holds the slot, so a caller
///     that loaded the old entry just before a swap still runs live code.
///     The cost is the baseline kept beside the promoted body; for a
///     cacheable spec the code cache holds that baseline anyway.
///   * Tier-0 admission — a cold spec is born interpreted unless its shape's
///     measured history says interpreting it outlasts compiling it (see
///     ShapeCosts); then its baseline compiles before getOrCreate returns.
///
/// Lifetime rules: a TieredFnHandle (and anything its SpecBuild closure
/// captures) must not outlive the CompileService it was created against or
/// its TierManager; destroy managers before services.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_TIER_TIER_H
#define TICKC_TIER_TIER_H

#include "cache/CompileService.h"
#include "core/SpecInterp.h"
#include "observability/Profile.h"
#include "support/ThreadSafety.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <thread>
#include <type_traits>
#include <vector>

namespace tcc {
namespace tier {

/// Knobs for one tier manager.
struct TierConfig {
  /// Background compile threads.
  unsigned Workers = 1;
  /// Invocation count at which a baseline function is promoted.
  std::uint64_t PromoteThreshold = 1000;
  /// Bound on queued promotion requests; excess requests are dropped (the
  /// slot retries once the counter doubles) and counted as
  /// tier.promote.queue_full.
  std::size_t QueueCapacity = 256;
  /// Alternative promotion signal: when nonzero, a watcher thread promotes
  /// any baseline slot whose ProfileEntry::Samples (SIGPROF samples landing
  /// in its code, see observability/Sampler.h) reaches this count — so a
  /// specialization stuck in one long-running hot loop tiers up even though
  /// its invocation counter never crosses PromoteThreshold. Counted as
  /// tier.promote.sampled. Requires the sampler (TICKC_SAMPLE_HZ) to
  /// actually produce samples.
  std::uint64_t SamplePromoteThreshold = 0;
  /// Poll period of the sample watcher.
  unsigned SampleWatchMs = 5;

  /// Defaults with environment overrides applied: TICKC_TIER_THREADS,
  /// TICKC_TIER_THRESHOLD, TICKC_TIER_SAMPLES.
  static TierConfig fromEnv();
};

/// Where a dispatch slot currently stands.
enum class TierState : std::uint8_t {
  /// Tier 0: answering from the spec-tree interpreter while the baseline
  /// compiles in the background (Entry is still null).
  Interpreted,
  Baseline, ///< Running VCODE code, counting invocations.
  Queued,   ///< Promotion request enqueued or being compiled.
  Promoted, ///< Slot points at the ICODE-compiled body.
  Failed,   ///< Manager shut down with the request pending; stays baseline.
};

class TierManager;
class ShapeHistory;

/// A running mean of TSC cycles. After Window samples it turns into an
/// exponential average, so a shape's verdict follows a host whose costs
/// drift.
struct CycleMean {
  static constexpr std::uint64_t Window = 16;
  std::uint64_t Samples = 0;
  double Cycles = 0;

  void add(std::uint64_t X) {
    ++Samples;
    Cycles += (static_cast<double>(X) - Cycles) /
              static_cast<double>(std::min(Samples, Window));
  }
};

/// What one spec shape has cost so far in one manager: the inputs of the
/// tier-0 admission rule (TierManager::getOrCreate).
struct ShapeCosts {
  /// Slot creation to the end of the first interpreted call that returned
  /// after the baseline was installed, one sample per slot. A slot whose
  /// interpreted calls all return before the swap adds none: it was cheap.
  CycleMean Tier0;
  /// The baseline's getOrCompileKeyed, timed only where the cache had
  /// missed: a real compile or a snapshot load, on the worker or on the
  /// synchronous path.
  CycleMean Baseline;

  /// True when both costs are measured and interpreting cost more: a cold
  /// spec of this shape compiles synchronously instead.
  bool preferSynchronous() const {
    return Tier0.Samples && Baseline.Samples && Tier0.Cycles > Baseline.Cycles;
  }
};

namespace detail {
/// Marshals a call<FnT>() invocation into the interpreter's SysV-split
/// argument arrays. Specialized on the *declared* signature so argument
/// conversions (int literal to a double parameter, etc.) happen exactly
/// where the compiled call would perform them.
template <typename FnT> struct InterpMarshal;
} // namespace detail

/// A per-function dispatch slot. Callers invoke through call<>(), which
/// loads the entry pointer, runs the generated code, and (on the baseline
/// tier) checks the invocation counter against the promotion threshold.
/// For batch loops, handle() returns a refcounted FnHandle of the current
/// tier that stays valid across (and after) a promotion swap.
class TieredFn : public std::enable_shared_from_this<TieredFn> {
public:
  TieredFn(const TieredFn &) = delete;
  TieredFn &operator=(const TieredFn &) = delete;

  /// Invokes the current tier: `TF->call<int(const Record *)>(&R)`.
  template <typename FnT, typename... ArgTs> auto call(ArgTs... Args) {
    auto *Fn = reinterpret_cast<FnT *>(Entry.load(std::memory_order_acquire));
    using RetT = decltype(Fn(Args...));
    // Tier 0 before the baseline swap: no machine code yet. The
    // interpreted path counts the call itself (the interpreter has no
    // profiling prologue); the swap re-arms the trigger and runs its check.
    if (!Fn)
      return detail::InterpMarshal<FnT>::invoke(*this, Args...);
    // Compiled code the slot holds until it is destroyed, so a caller that
    // loaded the old entry just before a swap still runs valid code.
    if constexpr (std::is_void_v<RetT>) {
      Fn(Args...);
      maybeRequestPromotion();
    } else {
      RetT R = Fn(Args...);
      maybeRequestPromotion();
      return R;
    }
  }

  /// The current tier as a refcounted handle — the steady-state batch
  /// path: one refcount bump amortized over many direct calls, valid after
  /// the slot itself is gone. Does not advance the promotion trigger.
  /// Null while the slot is still interpreted (tier 0): there is no
  /// compiled body yet — dispatch through call<>() or waitCompiled()
  /// first.
  cache::FnHandle handle() const {
    support::MutexLock G(M);
    return Promoted ? Promoted : Baseline;
  }

  TierState state() const { return State.load(); }
  bool promoted() const { return state() == TierState::Promoted; }
  /// True once machine code is installed (baseline or promoted); false
  /// only while a tier-0 slot still answers from the interpreter.
  bool compiled() const {
    return Entry.load(std::memory_order_acquire) != nullptr;
  }

  /// Blocks until the slot is promoted (or fails) or \p Timeout elapses.
  bool waitPromoted(std::chrono::milliseconds Timeout =
                        std::chrono::milliseconds(10000)) const;
  /// Blocks until the slot has machine code — the tier-0 baseline swap (or
  /// any later tier, or failure) — or \p Timeout elapses. Returns
  /// compiled().
  bool waitCompiled(std::chrono::milliseconds Timeout =
                        std::chrono::milliseconds(10000)) const;

  /// The slot's profile entry: the baseline compile's, or for a tier-0
  /// slot its own, which counts the interpreted calls.
  const obs::ProfileEntry &profile() const { return *Prof; }
  /// Calls dispatched through the slot up to promotion, one continuous
  /// count across the tier-0 swap (promoted code does not count).
  std::uint64_t invocations() const {
    std::uint64_t Bias = CountBias.load(std::memory_order_acquire);
    return Count.load(std::memory_order_relaxed)
               ->load(std::memory_order_relaxed) +
           Bias;
  }
  /// Enqueue -> slot-swap latency of the completed promotion, or 0.
  std::uint64_t promoteLatencyNanos() const { return PromoteLatencyNs.load(); }
  /// Slot-creation -> baseline-swap latency of a tier-0 slot, or 0 while
  /// still interpreted (and always 0 for non-tier-0 slots).
  std::uint64_t tier0SwapNanos() const { return Tier0SwapNs.load(); }
  /// True for slots created on the interpreter tier (even after they swap
  /// to compiled code).
  bool isTier0() const { return IsTier0; }
  /// The tier-0 execution profile, or null (profiling disabled / legacy
  /// slot).
  const core::Tier0Profile *tier0Profile() const { return T0Prof.get(); }
  /// The admission history of the slot's shape in its manager, as of now;
  /// empty when the slot was created with tier 0 disabled.
  ShapeCosts shapeCosts() const;

  /// Implementation detail of call<>'s interpreted path: counts the
  /// dispatch and runs the spec-tree interpreter. Public only for
  /// detail::InterpMarshal.
  core::Value dispatchInterp(const std::int64_t *IntArgs, unsigned NumInt,
                             const double *FpArgs, unsigned NumFp) const;

private:
  friend class TierManager;
  TieredFn() = default;

  void maybeRequestPromotion() {
    if (State.load(std::memory_order_relaxed) != TierState::Baseline)
      return;
    if (Count.load(std::memory_order_relaxed)
            ->load(std::memory_order_relaxed) <
        TriggerAt.load(std::memory_order_relaxed))
      return;
    requestPromotion();
  }

  /// Re-arms the trigger after a dropped request: the slot must run as
  /// many calls again as it has run so far before it retries.
  void backOff();

  /// CASes Baseline -> Queued and enqueues with the manager (out of line:
  /// needs TierManager's definition).
  void requestPromotion();

  /// Worker side: swap the slot to \p NewFn and publish Promoted state.
  /// The baseline stays held: nothing is freed while the slot lives.
  void installPromoted(cache::FnHandle NewFn);

  /// Worker side of the tier-0 swap: install the freshly compiled baseline
  /// into a still-interpreted slot, re-base the trigger onto its prologue
  /// counter, and run the promotion check for slots that crossed the
  /// trigger while interpreted.
  void installBaseline(cache::FnHandle NewFn);

  // --- Dispatch fast path ---------------------------------------------------
  std::atomic<void *> Entry{nullptr};
  std::atomic<TierState> State{TierState::Baseline};
  /// The counter the trigger reads: the baseline prologue's, or while a
  /// tier-0 slot is interpreted, its own entry's.
  std::atomic<const std::atomic<std::uint64_t> *> Count{nullptr};
  /// Promotion trigger on Count's scale.
  std::atomic<std::uint64_t> TriggerAt{0};
  /// invocations() minus *Count (mod 2^64): the calls interpreted before
  /// the tier-0 swap minus the baseline counter's value at the swap.
  std::atomic<std::uint64_t> CountBias{0};
  std::atomic<std::uint64_t> PromoteLatencyNs{0};
  std::atomic<std::uint64_t> Tier0SwapNs{0};

  // --- Fixed at creation ----------------------------------------------------
  TierManager *Manager = nullptr;
  cache::CompileService *Service = nullptr;
  SpecBuild Build;
  core::EvalType RetType = core::EvalType::Int;
  core::CompileOptions PromoteOpts;
  core::CompileOptions BaselineOpts; ///< The background baseline compile.
  /// Shares its bytes with the Slots entry and the cache entry. When
  /// !Cacheable it holds only the hash (the symbol name), and the
  /// residency check is skipped.
  cache::SpecKey BaselineKey;
  std::shared_ptr<obs::ProfileEntry> Prof;
  /// Tier-0 machinery, set only when the slot was created interpreted.
  /// Interp is never destroyed before the slot: a caller racing the
  /// baseline swap may still be executing run().
  std::unique_ptr<core::SpecInterp> Interp;
  std::shared_ptr<core::Tier0Profile> T0Prof;
  /// The shape's cost history (set whenever tier 0 is enabled). The slot
  /// shares it, so a late sample never needs the manager.
  std::shared_ptr<ShapeHistory> Shape;
  bool IsTier0 = false;
  /// Set by the interpreted call that takes the slot's tier-0 cost sample.
  mutable std::atomic<bool> Tier0Sampled{false};
  /// Start of the tier-0 branch: the origin of tier0.swap_latency and of
  /// the tier-0 cost sample.
  std::uint64_t CreatedNs = 0;
  std::uint64_t CreatedTsc = 0;

  // --- Tier handles + promotion rendezvous ----------------------------------
  // CV is _any so it can sleep on the annotated Mutex directly (it is
  // BasicLockable); wait sites hold M via support::MutexLock and loop on
  // the predicate themselves so the analysis sees every guarded read.
  mutable support::Mutex M;
  mutable std::condition_variable_any CV;
  /// Every tier the slot installed, held until the slot is destroyed: a
  /// caller may still be running the baseline after the promotion swap.
  cache::FnHandle Baseline TICKC_GUARDED_BY(M);
  cache::FnHandle Promoted TICKC_GUARDED_BY(M);
  std::uint64_t EnqueuedNs TICKC_GUARDED_BY(M) = 0;
  std::uint64_t EnqueuedTsc TICKC_GUARDED_BY(M) = 0;
};

namespace detail {
template <typename R, typename... Ps> struct InterpMarshal<R(Ps...)> {
  static R invoke(const TieredFn &TF, Ps... Args) {
    // SysV split, mirroring both the compiled calling convention and
    // SpecInterp's parameter binding: doubles in FpArgs, everything else
    // (sign-extended ints, longs, pointers) in IntArgs, each in
    // declaration order within its class.
    std::int64_t IA[8] = {};
    double FA[8] = {};
    unsigned NI = 0, ND = 0;
    auto Put = [&](auto V) {
      using T = decltype(V);
      if constexpr (std::is_floating_point_v<T>)
        FA[ND++] = static_cast<double>(V);
      else if constexpr (std::is_pointer_v<T>)
        IA[NI++] = static_cast<std::int64_t>(
            reinterpret_cast<std::uintptr_t>(V));
      else
        IA[NI++] = static_cast<std::int64_t>(V);
    };
    (Put(Args), ...);
    core::Value Res = TF.dispatchInterp(IA, NI, FA, ND);
    if constexpr (std::is_void_v<R>)
      return;
    else if constexpr (std::is_floating_point_v<R>)
      return static_cast<R>(Res.D);
    else if constexpr (std::is_pointer_v<R>)
      return reinterpret_cast<R>(static_cast<std::uintptr_t>(Res.I));
    else
      return static_cast<R>(Res.I);
  }
};
} // namespace detail

/// Owns the promotion queue and worker pool, and memoizes dispatch slots by
/// spec identity so repeated tiered instantiations of one spec share one
/// counter and one promotion. All methods are thread-safe.
class TierManager {
public:
  explicit TierManager(TierConfig Config = TierConfig::fromEnv());
  /// Clean shutdown: drains nothing, joins every worker; still-queued
  /// requests are marked Failed, and every other still-live slot is
  /// detached (Failed) so later calls can never enqueue with a dead
  /// manager. Detached slots keep answering on whatever tier they reached.
  ~TierManager();

  TierManager(const TierManager &) = delete;
  TierManager &operator=(const TierManager &) = delete;

  /// Builds (or finds) the dispatch slot for \p Build's spec: compiles the
  /// VCODE baseline through \p Service (memoized + single-flighted) and
  /// arms the promotion trigger. Cacheable specs are memoized per manager,
  /// so a repeat request returns the existing slot — possibly already
  /// promoted. Prefer CompileService::getOrCompileTiered().
  TieredFnHandle getOrCreate(cache::CompileService &Service,
                             const SpecBuild &Build, core::EvalType RetType,
                             core::CompileOptions BaseOpts);

  const TierConfig &config() const { return Config; }
  std::size_t queueDepth();

  /// Process-wide manager (TierConfig::fromEnv()); workers start on first
  /// use and join at static destruction.
  static TierManager &global();

private:
  friend class TieredFn;
  /// Queue side of a promotion request; returns false when the queue is
  /// full or shut down.
  bool enqueue(const std::shared_ptr<TieredFn> &Fn);
  void workerLoop();
  /// Recompile + verify + swap for one dequeued slot.
  void promote(const std::shared_ptr<TieredFn> &Fn);
  /// Worker side of tier 0: compile the baseline for a still-interpreted
  /// slot and swap it in (installBaseline). Failure marks the slot Failed;
  /// it keeps answering from the interpreter.
  void compileBaseline(const std::shared_ptr<TieredFn> &Fn);
  /// Arms \p Fn as an interpreted tier-0 slot over \p Body, publishes it
  /// and enqueues its baseline compile. Returns null, with the tree handed
  /// back in \p OwnedCtx and \p Key untouched, when the spec is outside
  /// the interpreter's envelope.
  TieredFnHandle startInterpreted(const std::shared_ptr<TieredFn> &Fn,
                                  std::unique_ptr<core::Context> &OwnedCtx,
                                  core::Stmt Body, cache::SpecKey &Key);
  /// Names and registers a tier-0 slot's deferred profile entry (see
  /// getOrCreate): runs on the worker, or inline on the degraded
  /// synchronous path — never on slot creation's critical path.
  void publishSlotProfile(TieredFn &Fn);
  /// Memoizes \p Fn in Slots/AllSlots; returns the already-published slot
  /// instead when another creator won the race for the same key.
  TieredFnHandle publishSlot(const std::shared_ptr<TieredFn> &Fn);
  /// Polls AllSlots for baseline slots whose execution-sample count crossed
  /// Config.SamplePromoteThreshold and enqueues them (runs only when the
  /// threshold is nonzero).
  void sampleWatchLoop();
  /// The cost history of \p Body's shape: the closure's type, the root's
  /// creation ordinal and the return type, so `$` values and constants do
  /// not split a family of specs. Creates it on first sight.
  std::shared_ptr<ShapeHistory> shapeHistory(const SpecBuild &Build,
                                             core::Stmt Body,
                                             core::EvalType RetType);

  TierConfig Config;

  support::Mutex QueueM;
  std::condition_variable_any QueueCV;
  std::deque<std::weak_ptr<TieredFn>> Queue TICKC_GUARDED_BY(QueueM);
  bool Stopping TICKC_GUARDED_BY(QueueM) = false;
  std::vector<std::thread> Workers;
  std::thread SampleWatcher;

  support::Mutex SlotsM;
  std::unordered_map<cache::SpecKey, std::weak_ptr<TieredFn>,
                     cache::SpecKeyHash>
      Slots TICKC_GUARDED_BY(SlotsM);
  /// Every slot ever created (uncacheable ones included): the destructor's
  /// detach list. Compacted alongside Slots.
  std::vector<std::weak_ptr<TieredFn>> AllSlots TICKC_GUARDED_BY(SlotsM);

  /// Shape histories, direct-mapped by shape hash: bounded, and a shape
  /// that collides replaces the older one (whose slots keep their copy).
  struct ShapeEntry {
    std::uint64_t Key = 0;
    std::shared_ptr<ShapeHistory> History;
  };
  support::Mutex ShapesM;
  std::array<ShapeEntry, 256> Shapes TICKC_GUARDED_BY(ShapesM);
};

} // namespace tier
} // namespace tcc

#endif // TICKC_TIER_TIER_H
