//===- tests/tier0_test.cpp - Interpreter tier-0 tests --------------------===//
//
// Covers the interpreted tier (src/core/SpecInterp + the tier-0 half of
// src/tier): zero-latency slot creation answering from the spec-tree
// interpreter, the background baseline compile and entry swap, synchronous
// fallbacks (tier 0 disabled, uninterpretable specs, full queue), tier-0
// admission from each shape's measured costs, the execution profile (trip counts, roll/unroll decisions, the SpecKey
// digest), profile-directed unrolling in the optimizing compile, and an
// 8-thread swap-race stress (run under -fsanitize=thread in CI).
//
//===----------------------------------------------------------------------===//

#include "cache/CompileService.h"
#include "cache/SpecKey.h"
#include "core/Compile.h"
#include "core/Context.h"
#include "core/SpecInterp.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "tier/Tier.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

using namespace tcc;
using namespace tcc::core;
using namespace tcc::cache;
using namespace tcc::tier;

namespace {

TierConfig config(std::uint64_t Threshold, unsigned Workers = 1) {
  TierConfig TC;
  TC.Workers = Workers;
  TC.PromoteThreshold = Threshold;
  return TC;
}

/// `f(x) = N * x`, computed by an N-trip counting loop — the shape whose
/// trip count the tier-0 profile measures.
Stmt buildLoopSpec(Context &C, int N) {
  VSpec X = C.paramInt(0);
  VSpec Acc = C.localInt();
  VSpec I = C.localInt();
  return C.block({C.assign(Acc, C.intConst(0)),
                  C.forStmt(I, C.intConst(0), vcode::CmpKind::LtS,
                            C.intConst(N), C.intConst(1),
                            C.assign(Acc, Expr(Acc) + Expr(X))),
                  C.ret(Expr(Acc))});
}

SpecBuild loopBuild(int N) {
  return [N](Context &C) { return buildLoopSpec(C, N); };
}

// --- Slot lifecycle ----------------------------------------------------------

TEST(Tier0, SlotBornInterpretedThenSwapsToBaseline) {
  CompileService S;
  TierManager TM(config(1 << 20)); // Promotion out of the picture.
  TieredFnHandle TF =
      S.getOrCompileTiered(loopBuild(16), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF);
  EXPECT_TRUE(TF->isTier0());

  // The slot answers immediately — interpreted or compiled, whichever tier
  // the background race has reached — and always correctly.
  EXPECT_EQ(TF->call<int(int)>(3), 48);
  EXPECT_EQ(TF->call<int(int)>(-2), -32);

  // The baseline lands without any further calls; the swap is observable.
  ASSERT_TRUE(TF->waitCompiled());
  EXPECT_TRUE(TF->compiled());
  EXPECT_EQ(TF->state(), TierState::Baseline);
  EXPECT_GT(TF->tier0SwapNanos(), 0u);
  FnHandle H = TF->handle();
  ASSERT_TRUE(H);
  EXPECT_EQ(H->as<int(int)>()(3), 48);
  EXPECT_EQ(TF->call<int(int)>(5), 80);
}

TEST(Tier0, DisabledCreatesBaselineSynchronously) {
  ServiceConfig Cfg;
  Cfg.EnableTier0 = false;
  CompileService S(Cfg);
  TierManager TM(config(1 << 20));
  TieredFnHandle TF =
      S.getOrCompileTiered(loopBuild(16), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF);
  // Pre-tier-0 behavior: machine code exists before getOrCompileTiered
  // returns.
  EXPECT_FALSE(TF->isTier0());
  EXPECT_TRUE(TF->compiled());
  EXPECT_EQ(TF->state(), TierState::Baseline);
  EXPECT_TRUE(TF->handle());
  EXPECT_EQ(TF->tier0SwapNanos(), 0u);
  EXPECT_EQ(TF->call<int(int)>(3), 48);
}

TEST(Tier0, UninterpretableSpecFallsBackSynchronously) {
  CompileService S;
  TierManager TM(config(1 << 20));
  // Dynamic labels are outside the interpreter's subset: the slot must be
  // born with a synchronously compiled baseline instead.
  TieredFnHandle TF = S.getOrCompileTiered(
      [](Context &C) {
        VSpec X = C.paramInt(0);
        VSpec A = C.localInt();
        DynLabel L = C.newLabel();
        return C.block({C.assign(A, Expr(X) + C.intConst(1)),
                        C.gotoLabel(L), C.assign(A, C.intConst(0)),
                        C.labelHere(L), C.ret(Expr(A))});
      },
      EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF);
  EXPECT_FALSE(TF->isTier0());
  EXPECT_TRUE(TF->compiled());
  EXPECT_EQ(TF->call<int(int)>(41), 42);
}

TEST(Tier0, QueueFullFallsBackToSynchronousBaseline) {
  TierConfig TC = config(1 << 20);
  TC.QueueCapacity = 0; // The background compile can never be enqueued.
  CompileService S;
  TierManager TM(TC);
  TieredFnHandle TF =
      S.getOrCompileTiered(loopBuild(8), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF);
  // The slot still counts as tier 0 but never hands out an interpreted
  // call: the creator compiled the baseline itself rather than strand the
  // slot on the interpreter forever.
  EXPECT_TRUE(TF->compiled());
  EXPECT_EQ(TF->state(), TierState::Baseline);
  EXPECT_EQ(TF->call<int(int)>(4), 32);
}

TEST(Tier0, PromotesThroughAllThreeTiers) {
  CompileService S;
  TierManager TM(config(16, 2));
  TieredFnHandle TF =
      S.getOrCompileTiered(loopBuild(24), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF);
  EXPECT_TRUE(TF->isTier0());
  // Cross the promotion threshold while the slot may still be interpreted:
  // the trigger must carry across the baseline swap, not reset.
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(TF->call<int(int)>(2), 48);
  ASSERT_TRUE(TF->waitPromoted());
  EXPECT_EQ(TF->state(), TierState::Promoted);
  EXPECT_EQ(TF->handle()->stats().Backend, BackendKind::ICode);
  EXPECT_EQ(TF->call<int(int)>(2), 48);
}

/// Holds the background baseline compile of the specs it builds until
/// release(): the worker re-runs the spec-building closure, so holding it
/// there keeps every call before release() on the interpreter. Declare it
/// after the TierManager: it releases on destruction, before the manager
/// joins its worker.
class HeldBaseline {
public:
  ~HeldBaseline() { release(); }

  SpecBuild build(int N) const {
    return [G = G, N](Context &C) {
      if (G->Builds.fetch_add(1) == 1) { // The worker's baseline compile.
        std::unique_lock<std::mutex> L(G->Mu);
        G->Cv.wait(L, [&] { return G->Released; });
      }
      return buildLoopSpec(C, N);
    };
  }
  void release() {
    {
      std::lock_guard<std::mutex> L(G->Mu);
      G->Released = true;
    }
    G->Cv.notify_all();
  }

private:
  struct Gate {
    std::atomic<unsigned> Builds{0};
    std::mutex Mu;
    std::condition_variable Cv;
    bool Released = false;
  };
  std::shared_ptr<Gate> G = std::make_shared<Gate>();
};

TEST(Tier0, TriggerHandoffFiresOnTheThresholdCall) {
  // K interpreted calls, then the swap, then compiled calls: the trigger
  // must fire on exactly the T-th call in total, not T calls after the
  // swap and not at the swap.
  constexpr unsigned T = 12, K = 5;
  CompileService S;
  TierManager TM(config(T));
  HeldBaseline Held;
  TieredFnHandle TF =
      S.getOrCompileTiered(Held.build(5), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF && TF->isTier0());
  for (unsigned I = 0; I < K; ++I)
    EXPECT_EQ(TF->call<int(int)>(3), 15);
  EXPECT_FALSE(TF->compiled());
  EXPECT_EQ(TF->invocations(), K);

  Held.release();
  ASSERT_TRUE(TF->waitCompiled());
  EXPECT_EQ(TF->state(), TierState::Baseline);
  EXPECT_EQ(TF->invocations(), K); // One continuous count.
  for (unsigned I = K + 1; I < T; ++I) {
    EXPECT_EQ(TF->call<int(int)>(3), 15);
    EXPECT_EQ(TF->state(), TierState::Baseline) << "call " << I;
  }
  EXPECT_EQ(TF->invocations(), T - 1);
  EXPECT_EQ(TF->call<int(int)>(3), 15); // The T-th call.
  EXPECT_NE(TF->state(), TierState::Baseline);
  ASSERT_TRUE(TF->waitPromoted());
  EXPECT_EQ(TF->call<int(int)>(3), 15);
}

TEST(Tier0, TriggerCrossedWhileInterpretedFiresAtTheSwap) {
  constexpr unsigned T = 4;
  CompileService S;
  TierManager TM(config(T));
  HeldBaseline Held;
  TieredFnHandle TF =
      S.getOrCompileTiered(Held.build(6), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF && TF->isTier0());
  for (unsigned I = 0; I < 2 * T; ++I)
    EXPECT_EQ(TF->call<int(int)>(2), 12);
  EXPECT_EQ(TF->state(), TierState::Interpreted);
  // No further call: the swap itself requests the promotion.
  Held.release();
  ASSERT_TRUE(TF->waitPromoted());
  EXPECT_EQ(TF->call<int(int)>(2), 12);
}

// --- Execution profile -------------------------------------------------------

TEST(Tier0, ProfileMeasuresTripCountsAndDecides) {
  // Small loop: measured MaxTrip bounds the unroll. Large loop: past the
  // cutoff, the decision is to roll.
  {
    Context C;
    Stmt Body = buildLoopSpec(C, 12);
    ASSERT_TRUE(specInterpretable(C, Body, EvalType::Int));
    Tier0Profile P;
    SpecInterp Interp(C, Body, EvalType::Int, &P);
    std::int64_t A = 7;
    Value R = Interp.run(&A, 1, nullptr, 0);
    EXPECT_EQ(R.I, 84);
    ASSERT_EQ(P.NumLoops, 1u);
    EXPECT_EQ(P.Loops[0].Entries.load(), 1u);
    EXPECT_EQ(P.Loops[0].MaxTrip.load(), 12u);
    Tier0ProfileSnapshot Snap = snapshotTier0(P);
    ASSERT_EQ(Snap.NumLoops, 1u);
    EXPECT_EQ(Snap.Decision[0], 2u); // Unroll, bounded by the measurement.
    EXPECT_EQ(Snap.MaxTrip[0], 12u);
  }
  {
    Context C;
    Stmt Body = buildLoopSpec(C, 4096); // Past Tier0Profile::UnrollCutoff.
    Tier0Profile P;
    SpecInterp Interp(C, Body, EvalType::Int, &P);
    std::int64_t A = 1;
    EXPECT_EQ(Interp.run(&A, 1, nullptr, 0).I, 4096);
    Tier0ProfileSnapshot Snap = snapshotTier0(P);
    ASSERT_EQ(Snap.NumLoops, 1u);
    EXPECT_EQ(Snap.Decision[0], 1u); // Roll: unrolling 4096 copies loses.
  }
  {
    // Unobserved loops keep the static heuristic.
    Context C;
    Stmt Body = buildLoopSpec(C, 8);
    Tier0Profile P;
    SpecInterp Interp(C, Body, EvalType::Int, &P);
    Tier0ProfileSnapshot Snap = snapshotTier0(P); // No run() first.
    ASSERT_EQ(Snap.NumLoops, 1u);
    EXPECT_EQ(Snap.Decision[0], 0u);
  }
}

TEST(Tier0, NodesFromAnotherContextAreNotInterpreted) {
  // Profile slots are indexed by creation ordinal, which is per Context: a
  // node spliced in from another Context has no slot of its own (here its
  // ordinal is past the whole spec's).
  Context A;
  for (int I = 0; I < 64; ++I)
    (void)A.intConst(I);
  Stmt Foreign = A.ifStmt(A.intConst(1), A.ret(A.intConst(2)));
  Context B;
  Stmt Body = B.block({Foreign, B.ret(B.intConst(3))});
  EXPECT_FALSE(specInterpretable(B, Body, EvalType::Int));
  Tier0Profile P;
  EXPECT_FALSE(SpecInterp(B, Body, EvalType::Int, &P).ok());
  // The same shape built in one Context is interpretable.
  Context C;
  Stmt Own = C.block({C.ifStmt(C.intConst(1), C.ret(C.intConst(2))),
                      C.ret(C.intConst(3))});
  EXPECT_TRUE(specInterpretable(C, Own, EvalType::Int));
}

TEST(Tier0, TripProfileDigestEntersSpecKey) {
  Context C;
  Stmt Body = buildLoopSpec(C, 8);
  CompileOptions Plain;
  SpecKey KPlain = buildSpecKey(C, Body, EvalType::Int, Plain);

  Tier0ProfileSnapshot Snap;
  Snap.NumLoops = 1;
  Snap.Decision[0] = 2;
  Snap.MaxTrip[0] = 8;
  CompileOptions Prof = Plain;
  Prof.TripProfile = &Snap;
  SpecKey KProf = buildSpecKey(C, Body, EvalType::Int, Prof);
  // A profiled compile must never alias the unprofiled one in the cache.
  EXPECT_FALSE(KPlain == KProf);

  // And two different decisions are two different keys.
  Tier0ProfileSnapshot Roll = Snap;
  Roll.Decision[0] = 1;
  CompileOptions ProfRoll = Plain;
  ProfRoll.TripProfile = &Roll;
  SpecKey KRoll = buildSpecKey(C, Body, EvalType::Int, ProfRoll);
  EXPECT_FALSE(KProf == KRoll);
}

TEST(Tier0, ProfiledRollDecisionChangesGeneratedCode) {
  // A 64-trip constant loop unrolls under the static heuristic
  // (UnrollLimit defaults far above 64). A profile that says "roll" must
  // override it and produce the compact runtime-loop body instead.
  Context C;
  Stmt Body = buildLoopSpec(C, 64);
  CompileOptions Static;
  Static.Backend = BackendKind::ICode;
  CompiledFn FStatic = compileFn(C, Body, EvalType::Int, Static);
  ASSERT_TRUE(FStatic.valid());

  Tier0ProfileSnapshot Snap;
  Snap.NumLoops = 1;
  Snap.Decision[0] = 1; // Roll.
  CompileOptions Profiled = Static;
  Profiled.TripProfile = &Snap;
  CompiledFn FProf = compileFn(C, Body, EvalType::Int, Profiled);
  ASSERT_TRUE(FProf.valid());

  EXPECT_EQ(FStatic.as<int(int)>()(3), 192);
  EXPECT_EQ(FProf.as<int(int)>()(3), 192);
  // The rolled body is the measurably smaller one.
  EXPECT_LT(FProf.stats().CodeBytes, FStatic.stats().CodeBytes);
}

TEST(Tier0, ProfileDecisionsFollowForOrdinals) {
  // Three For statements, numbered in pre-order: an outer loop (0) around
  // an inner one (1), then a loop (2) whose body holds a vspec
  // `$`-expression, which folds only while that loop unrolls. A roll
  // decision changes the code of the loop at its ordinal and no other, and
  // is ignored for loop 2 (honoring it would leave the `$`-expression
  // unevaluable).
  auto Build = [](Context &C) {
    using vcode::CmpKind;
    VSpec X = C.paramInt(0), Acc = C.localInt(), I = C.localInt(),
          J = C.localInt(), K = C.localInt();
    return C.block(
        {C.assign(Acc, C.intConst(0)),
         C.forStmt(I, C.intConst(0), CmpKind::LtS, C.intConst(4),
                   C.intConst(1),
                   C.forStmt(J, C.intConst(0), CmpKind::LtS, C.intConst(4),
                             C.intConst(1),
                             C.assign(Acc, Expr(Acc) + Expr(X) + Expr(J)))),
         C.forStmt(K, C.intConst(0), CmpKind::LtS, C.intConst(4),
                   C.intConst(1),
                   C.assign(Acc, Expr(Acc) +
                                     C.rtEval(Expr(K) * C.intConst(3)))),
         C.ret(Acc)});
  };
  std::size_t Bytes[4]; // No roll, then a roll decision for loop 0, 1, 2.
  for (int Roll = -1; Roll < 3; ++Roll) {
    Tier0ProfileSnapshot Snap;
    Snap.NumLoops = 3;
    if (Roll >= 0)
      Snap.Decision[Roll] = 1;
    CompileOptions O;
    O.Backend = BackendKind::VCode;
    O.TripProfile = &Snap;
    Context C;
    CompiledFn F = compileFn(C, Build(C), EvalType::Int, O);
    ASSERT_TRUE(F.valid()) << "roll " << Roll;
    EXPECT_EQ(F.as<int(int)>()(5), 16 * 5 + 4 * 6 + 3 * 6) << "roll " << Roll;
    Bytes[Roll + 1] = F.stats().CodeBytes;
  }
  EXPECT_LT(Bytes[1], Bytes[0]); // Outer loop rolled.
  EXPECT_LT(Bytes[2], Bytes[0]); // Inner loop rolled in each outer copy.
  EXPECT_NE(Bytes[1], Bytes[2]);
  EXPECT_EQ(Bytes[3], Bytes[0]); // Loop 2 must unroll anyway.
}

TEST(Tier0, SlotProfileFeedsThePromotedCompile) {
  ServiceConfig Cfg; // Tier 0 + profiling on by default.
  CompileService S(Cfg);
  TierManager TM(config(8, 2));
  TieredFnHandle TF = S.getOrCompileTiered(loopBuild(4096), EvalType::Int,
                                           CompileOptions(), &TM);
  ASSERT_TRUE(TF);
  ASSERT_TRUE(TF->isTier0());
  ASSERT_NE(TF->tier0Profile(), nullptr);

  for (int I = 0; I < 32; ++I)
    EXPECT_EQ(TF->call<int(int)>(1), 4096);
  ASSERT_TRUE(TF->waitPromoted());
  EXPECT_EQ(TF->call<int(int)>(1), 4096);

  // Whatever mix of interpreted and compiled calls got us here, any
  // interpreted entry recorded the true trip count, and the frozen
  // decision for a 4096-trip loop is "roll".
  const Tier0Profile *P = TF->tier0Profile();
  if (P->Loops[0].Entries.load() > 0) {
    EXPECT_EQ(P->Loops[0].MaxTrip.load(), 4096u);
    EXPECT_EQ(snapshotTier0(*P).Decision[0], 1u);
  }
}

TEST(Tier0, ProfileDisabledSlotStillWorks) {
  ServiceConfig Cfg;
  Cfg.EnableTier0Profile = false;
  CompileService S(Cfg);
  TierManager TM(config(8, 2));
  TieredFnHandle TF =
      S.getOrCompileTiered(loopBuild(32), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF);
  EXPECT_TRUE(TF->isTier0());
  EXPECT_EQ(TF->tier0Profile(), nullptr);
  for (int I = 0; I < 32; ++I)
    EXPECT_EQ(TF->call<int(int)>(2), 64);
  ASSERT_TRUE(TF->waitPromoted());
  EXPECT_EQ(TF->call<int(int)>(2), 64);
}

// --- Tier-0 admission ---------------------------------------------------------

std::uint64_t counterValue(const char *Name) {
  return obs::MetricsRegistry::global().counter(Name).value();
}

/// Makes a heavy slot's first interpreted call straddle its baseline swap
/// however the worker is scheduled: the worker's rebuild of the spec waits
/// until the call reaches awaitBaseline(), which then waits for the swap.
struct Straddle {
  std::atomic<unsigned> Builds{0};
  std::mutex Mu;
  std::condition_variable Cv;
  bool Reached = false;
  TieredFn *Slot = nullptr;

  /// Called from the spec-building closure.
  void holdWorkerBuild() {
    if (Builds.fetch_add(1) != 1) // Build 0 is the creator's.
      return;
    std::unique_lock<std::mutex> L(Mu);
    Cv.wait_for(L, std::chrono::seconds(10), [&] { return Reached; });
  }
};

/// The straddle the next heavy call completes.
std::atomic<Straddle *> Pending{nullptr};

int awaitBaseline() {
  if (Straddle *S = Pending.exchange(nullptr)) {
    {
      std::lock_guard<std::mutex> L(S->Mu);
      S->Reached = true;
    }
    S->Cv.notify_all();
    S->Slot->waitCompiled();
  }
  return 0;
}

/// Arms \p S for \p Slot's next call.
void straddleNextCall(Straddle &S, TieredFn &Slot) {
  S.Slot = &Slot;
  Pending = &S;
}

/// `f(n) = Salt + sum(i ^ 3) over i < n`: a rolled loop that compiles in
/// microseconds and, interpreted, runs as long as n asks. Salt is a
/// constant, so each salt is its own cache key of one shape.
Stmt buildHeavySpec(Context &C, Expr Salt) {
  VSpec N = C.paramInt(0), Acc = C.localInt(), I = C.localInt();
  return C.block(
      {C.assign(Acc, Salt),
       C.forStmt(I, C.intConst(0), vcode::CmpKind::LtS, Expr(N),
                 C.intConst(1),
                 C.assign(Acc, Expr(Acc) + (Expr(I) ^ C.intConst(3)))),
       C.assign(Acc, Expr(Acc) + C.callC(reinterpret_cast<const void *>(
                                             &awaitBaseline),
                                         EvalType::Int, {})),
       C.ret(Expr(Acc))});
}

SpecBuild heavyBuild(int Salt, std::shared_ptr<Straddle> S = nullptr) {
  return [Salt, S](Context &C) {
    if (S)
      S->holdWorkerBuild();
    return buildHeavySpec(C, C.intConst(Salt));
  };
}

int heavyWant(int Salt, int N) {
  unsigned Acc = static_cast<unsigned>(Salt);
  for (int I = 0; I < N; ++I)
    Acc += static_cast<unsigned>(I ^ 3);
  return static_cast<int>(Acc);
}

/// Interpreted, a heavy call runs for milliseconds: hundreds of times the
/// loop's compile. The cost gap is the spec's; Straddle only makes the
/// first sight's call outlast the swap on a loaded host too.
constexpr int HeavyTrips = 500000;

/// `f(x) = x > 0 ? Salt : <long straight-line block>`: a call with x > 0
/// returns at the guard, while the compile covers every statement.
SpecBuild guardedBuild(int Salt) {
  return [Salt](Context &C) {
    VSpec X = C.paramInt(0), Acc = C.localInt();
    std::vector<Stmt> Body;
    Body.push_back(C.ifStmt(Expr(X) > C.intConst(0), C.ret(C.intConst(Salt))));
    Body.push_back(C.assign(Acc, Expr(X)));
    for (int K = 0; K < 1500; ++K)
      Body.push_back(
          C.assign(Acc, (Expr(Acc) * C.intConst(K | 1)) ^ Expr(X)));
    Body.push_back(C.ret(Expr(Acc)));
    return C.block(Body);
  };
}

TEST(Tier0, HeavyShapeCompilesSynchronouslyOnSecondSight) {
  CompileService S;
  TierManager TM(config(1 << 20));
  auto Straddled = std::make_shared<Straddle>();
  TieredFnHandle First = S.getOrCompileTiered(
      heavyBuild(1, Straddled), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(First->isTier0());
  straddleNextCall(*Straddled, *First);
  EXPECT_EQ(First->call<int(int)>(HeavyTrips), heavyWant(1, HeavyTrips));
  // The interpreted call returned after the baseline landed: one sample of
  // each cost, interpreting the dearer.
  ShapeCosts Costs = First->shapeCosts();
  ASSERT_EQ(Costs.Tier0.Samples, 1u);
  ASSERT_EQ(Costs.Baseline.Samples, 1u);
  EXPECT_TRUE(Costs.preferSynchronous());

  // A fresh spec of the same shape compiles before the call.
  std::uint64_t SkipCost = counterValue(obs::names::Tier0SkipCost);
  TieredFnHandle Second = S.getOrCompileTiered(heavyBuild(2), EvalType::Int,
                                               CompileOptions(), &TM);
  EXPECT_TRUE(Second->compiled());
  EXPECT_FALSE(Second->isTier0());
  EXPECT_EQ(counterValue(obs::names::Tier0SkipCost), SkipCost + 1);
  EXPECT_EQ(Second->call<int(int)>(1000), heavyWant(2, 1000));
  // The synchronous compile was a real one: it adds a baseline sample.
  EXPECT_EQ(Second->shapeCosts().Baseline.Samples, 2u);
}

TEST(Tier0, FreshManagerStartsAHeavyShapeAtTierZero) {
  CompileService S;
  {
    TierManager TM(config(1 << 20));
    auto Straddled = std::make_shared<Straddle>();
    TieredFnHandle TF = S.getOrCompileTiered(
        heavyBuild(3, Straddled), EvalType::Int, CompileOptions(), &TM);
    straddleNextCall(*Straddled, *TF);
    EXPECT_EQ(TF->call<int(int)>(HeavyTrips), heavyWant(3, HeavyTrips));
    ASSERT_TRUE(TF->shapeCosts().preferSynchronous());
  }
  // The history belongs to the manager: a new one knows nothing yet.
  TierManager TM(config(1 << 20));
  TieredFnHandle TF = S.getOrCompileTiered(heavyBuild(4), EvalType::Int,
                                           CompileOptions(), &TM);
  EXPECT_TRUE(TF->isTier0());
  EXPECT_EQ(TF->shapeCosts().Tier0.Samples, 0u);
  EXPECT_EQ(TF->call<int(int)>(10), heavyWant(4, 10));
}

TEST(Tier0, CheapCallOverALargeCompileStaysInterpreted) {
  CompileService S;
  TierManager TM(config(1 << 20));
  std::uint64_t SkipCost = counterValue(obs::names::Tier0SkipCost);
  for (int Sight = 0; Sight < 8; ++Sight) {
    TieredFnHandle TF = S.getOrCompileTiered(guardedBuild(100 + Sight),
                                             EvalType::Int, CompileOptions(),
                                             &TM);
    EXPECT_TRUE(TF->isTier0()) << "sight " << Sight;
    EXPECT_EQ(TF->call<int(int)>(1), 100 + Sight);
    ASSERT_TRUE(TF->waitCompiled());
  }
  EXPECT_EQ(counterValue(obs::names::Tier0SkipCost), SkipCost);
  // Every slot answered before its baseline landed: no tier-0 sample, and
  // one baseline sample per background compile.
  TieredFnHandle Last = S.getOrCompileTiered(guardedBuild(107), EvalType::Int,
                                             CompileOptions(), &TM);
  ShapeCosts Costs = Last->shapeCosts();
  EXPECT_EQ(Costs.Tier0.Samples, 0u);
  EXPECT_EQ(Costs.Baseline.Samples, 8u);
  EXPECT_FALSE(Costs.preferSynchronous());
}

TEST(Tier0, UncacheableShapeLearnsToo) {
  // `$*Cell` reads memory at instantiation, so no two instantiations share
  // a key (like dp): every request is a first sight.
  static int Cell = 5;
  auto Straddled = std::make_shared<Straddle>();
  SpecBuild Build = [Straddled](Context &C) {
    Straddled->holdWorkerBuild();
    return buildHeavySpec(
        C, C.rtEval(C.loadMem(MemType::I32, C.rcPtr(&Cell))));
  };
  CompileService S;
  TierManager TM(config(1 << 20));
  TieredFnHandle First =
      S.getOrCompileTiered(Build, EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(First->isTier0());
  straddleNextCall(*Straddled, *First);
  EXPECT_EQ(First->call<int(int)>(HeavyTrips), heavyWant(5, HeavyTrips));
  ASSERT_TRUE(First->shapeCosts().preferSynchronous());

  std::uint64_t SkipCost = counterValue(obs::names::Tier0SkipCost);
  TieredFnHandle Second =
      S.getOrCompileTiered(Build, EvalType::Int, CompileOptions(), &TM);
  EXPECT_NE(Second.get(), First.get());
  EXPECT_TRUE(Second->compiled());
  EXPECT_FALSE(Second->isTier0());
  EXPECT_EQ(counterValue(obs::names::Tier0SkipCost), SkipCost + 1);
  EXPECT_EQ(Second->call<int(int)>(7), heavyWant(5, 7));
}

TEST(Tier0, ResidentCacheHitsAddNoBaselineSample) {
  CompileService S;
  TierManager TM(config(1 << 20));
  TieredFnHandle A = S.getOrCompileTiered(guardedBuild(9), EvalType::Int,
                                          CompileOptions(), &TM);
  ASSERT_TRUE(A->isTier0());
  ASSERT_TRUE(A->waitCompiled());
  ASSERT_EQ(A->shapeCosts().Baseline.Samples, 1u);

  // Release the slot (the worker drops its reference just after the swap),
  // so the next request finds the baseline in the cache, not the slot.
  std::weak_ptr<TieredFn> Gone = A;
  A.reset();
  while (!Gone.expired())
    std::this_thread::yield();
  for (int Hit = 0; Hit < 4; ++Hit) {
    std::uint64_t Resident = counterValue(obs::names::Tier0SkipResident);
    TieredFnHandle B = S.getOrCompileTiered(guardedBuild(9), EvalType::Int,
                                            CompileOptions(), &TM);
    EXPECT_TRUE(B->compiled());
    EXPECT_FALSE(B->isTier0());
    EXPECT_EQ(counterValue(obs::names::Tier0SkipResident), Resident + 1);
    EXPECT_EQ(B->call<int(int)>(1), 9);
    EXPECT_EQ(B->shapeCosts().Baseline.Samples, 1u) << "hit " << Hit;
    Gone = B;
    B.reset();
    while (!Gone.expired())
      std::this_thread::yield();
  }
}

TEST(Tier0, IneligibleAndQueueFullSlotsAreCountedByReason) {
  CompileService S;
  std::uint64_t Ineligible = counterValue(obs::names::Tier0SkipIneligible);
  {
    TierManager TM(config(1 << 20));
    TieredFnHandle TF = S.getOrCompileTiered(
        [](Context &C) {
          DynLabel L = C.newLabel();
          return C.block({C.gotoLabel(L), C.labelHere(L),
                          C.ret(C.intConst(3))});
        },
        EvalType::Int, CompileOptions(), &TM);
    EXPECT_FALSE(TF->isTier0());
    EXPECT_EQ(counterValue(obs::names::Tier0SkipIneligible), Ineligible + 1);
  }
  TierConfig TC = config(1 << 20);
  TC.QueueCapacity = 0;
  TierManager TM(TC);
  std::uint64_t Fallback = counterValue(obs::names::Tier0Fallback);
  TieredFnHandle TF = S.getOrCompileTiered(guardedBuild(11), EvalType::Int,
                                           CompileOptions(), &TM);
  EXPECT_TRUE(TF->compiled());
  EXPECT_EQ(counterValue(obs::names::Tier0Fallback), Fallback + 1);
  // The fallback's synchronous compile is a real one.
  EXPECT_EQ(TF->shapeCosts().Baseline.Samples, 1u);
}

// --- Environment knobs -------------------------------------------------------

TEST(Tier0, EnvKnobsReachServiceConfig) {
  ASSERT_EQ(setenv("TICKC_TIER0", "0", 1), 0);
  ASSERT_EQ(setenv("TICKC_TIER0_PROFILE", "0", 1), 0);
  ASSERT_EQ(setenv("TICKC_SNAPSHOT_BUDGET", "12345", 1), 0);
  ServiceConfig C = ServiceConfig::fromEnv();
  EXPECT_FALSE(C.EnableTier0);
  EXPECT_FALSE(C.EnableTier0Profile);
  EXPECT_EQ(C.SnapshotBudgetBytes, 12345u);
  ASSERT_EQ(setenv("TICKC_TIER0", "1", 1), 0);
  ASSERT_EQ(setenv("TICKC_TIER0_PROFILE", "1", 1), 0);
  ServiceConfig D = ServiceConfig::fromEnv();
  EXPECT_TRUE(D.EnableTier0);
  EXPECT_TRUE(D.EnableTier0Profile);
  unsetenv("TICKC_TIER0");
  unsetenv("TICKC_TIER0_PROFILE");
  unsetenv("TICKC_SNAPSHOT_BUDGET");
}

// --- Concurrency -------------------------------------------------------------

TEST(Tier0, ConcurrentCallersAcrossBothSwaps) {
  // 8 threads hammer the slot from its interpreted birth through the
  // baseline swap and the ICODE promotion. Run under TSan in CI: the
  // Entry null -> baseline transition is the newest race surface.
  CompileService S;
  TierManager TM(config(256, 2));
  TieredFnHandle TF =
      S.getOrCompileTiered(loopBuild(16), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF);

  constexpr unsigned NumThreads = 8;
  std::atomic<unsigned> Failures{0};
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < 4000 && !Stop.load(); ++I) {
        int X = static_cast<int>(1 + (T + I) % 7);
        if (TF->call<int(int)>(X) != 16 * X)
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  bool Promoted = TF->waitPromoted();
  Stop.store(true);
  for (std::thread &T : Threads)
    T.join();
  EXPECT_TRUE(Promoted);
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(TF->handle()->stats().Backend, BackendKind::ICode);
}

TEST(Tier0, ConcurrentFirstSightsOfOneShape) {
  // 8 threads mint fresh slots of one shape and call each once, some
  // calls heavy enough to outlast their baseline, so the shape's verdict
  // flips to synchronous while other threads are mid-creation and the
  // worker adds baseline samples. Run under TSan in CI.
  CompileService S;
  TierManager TM(config(1 << 20, 2));
  constexpr unsigned NumThreads = 8, PerThread = 12;
  std::atomic<unsigned> Failures{0}, Synchronous{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < PerThread; ++I) {
        int Salt = static_cast<int>(1000 + T * PerThread + I);
        TieredFnHandle TF = S.getOrCompileTiered(
            heavyBuild(Salt), EvalType::Int, CompileOptions(), &TM);
        if (!TF->isTier0())
          Synchronous.fetch_add(1, std::memory_order_relaxed);
        int N = (I % 4 == 0) ? HeavyTrips / 2 : 64;
        if (TF->call<int(int)>(N) != heavyWant(Salt, N))
          Failures.fetch_add(1, std::memory_order_relaxed);
        if (!TF->waitCompiled())
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  // Whatever the interleaving, every slot's compile was a real one and
  // left a baseline sample, and only tier-0 slots left a tier-0 sample.
  TieredFnHandle Probe = S.getOrCompileTiered(heavyBuild(1), EvalType::Int,
                                              CompileOptions(), &TM);
  ShapeCosts Costs = Probe->shapeCosts();
  EXPECT_GE(Costs.Baseline.Samples, NumThreads * PerThread);
  EXPECT_LE(Costs.Tier0.Samples, NumThreads * PerThread - Synchronous.load());
}

TEST(Tier0, ManyFreshSlotsUnderConcurrentLoad) {
  // Distinct specs churn the queue while callers race each slot's own
  // swaps — the manager's worker pool and the per-slot state machines must
  // not interfere across slots.
  CompileService S;
  TierManager TM(config(32, 2));
  constexpr unsigned NumSlots = 12;
  std::vector<TieredFnHandle> Slots;
  for (unsigned N = 0; N < NumSlots; ++N)
    Slots.push_back(S.getOrCompileTiered(loopBuild(static_cast<int>(N + 1)),
                                         EvalType::Int, CompileOptions(),
                                         &TM));
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 4; ++T) {
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < 2000; ++I) {
        unsigned Slot = (T + I) % NumSlots;
        if (Slots[Slot]->call<int(int)>(3) !=
            3 * static_cast<int>(Slot + 1))
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  // Every slot ends with machine code installed (swap or sync fallback).
  for (TieredFnHandle &TF : Slots)
    EXPECT_TRUE(TF->waitCompiled());
}

} // namespace
