//===- tests/cache_test.cpp - Code cache / region pool tests --------------===//
//
// Covers the memoizing instantiation path: structural key derivation,
// hit/miss identity, LRU eviction under a byte budget, eviction safety for
// live handles, region pooling, and a multi-threaded getOrCompile stress
// (run under -fsanitize=thread in CI).
//
//===----------------------------------------------------------------------===//

#include "apps/Hash.h"
#include "apps/Marshal.h"
#include "apps/Power.h"
#include "apps/Query.h"
#include "cache/CompileService.h"
#include "cache/SpecKey.h"
#include "core/Compile.h"
#include "core/Context.h"
#include "observability/Metrics.h"
#include "observability/Names.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace tcc;
using namespace tcc::core;
using namespace tcc::cache;

namespace {

SpecKey keyOf(int Mul, int Add,
              const CompileOptions &Opts = CompileOptions()) {
  Context C;
  VSpec X = C.paramInt(0);
  Stmt Body = C.ret(Expr(X) * C.rcInt(Mul) + C.rcInt(Add));
  return buildSpecKey(C, Body, EvalType::Int, Opts);
}

// --- SpecKey ---------------------------------------------------------------

TEST(SpecKey, EqualAcrossIndependentlyBuiltContexts) {
  SpecKey A = keyOf(3, 7);
  SpecKey B = keyOf(3, 7);
  EXPECT_EQ(A.Hash, B.Hash);
  EXPECT_TRUE(A == B);
  EXPECT_TRUE(A.Cacheable);
}

TEST(SpecKey, RuntimeConstantsChangeTheKey) {
  EXPECT_FALSE(keyOf(3, 7) == keyOf(3, 8));
  EXPECT_FALSE(keyOf(3, 7) == keyOf(4, 7));
}

TEST(SpecKey, CompileOptionsChangeTheKey) {
  CompileOptions VC;
  CompileOptions IC;
  IC.Backend = BackendKind::ICode;
  EXPECT_FALSE(keyOf(3, 7, VC) == keyOf(3, 7, IC));

  CompileOptions GC = IC;
  GC.RegAlloc = icode::RegAllocKind::GraphColor;
  EXPECT_FALSE(keyOf(3, 7, IC) == keyOf(3, 7, GC));
}

TEST(SpecKey, BackendsOccupyDistinctSlots) {
  // BackendKind is the first serialized option byte, so the three back ends
  // can never share a cache entry — even PCODE, whose output is
  // byte-identical to VCODE by construction. Pairwise over the exhaustive
  // backend set, keys must differ while each remains self-equal.
  const BackendKind All[] = {BackendKind::VCode, BackendKind::ICode,
                             BackendKind::PCode};
  for (BackendKind A : All) {
    CompileOptions OA;
    OA.Backend = A;
    EXPECT_TRUE(keyOf(3, 7, OA) == keyOf(3, 7, OA));
    for (BackendKind B : All) {
      if (A == B)
        continue;
      CompileOptions OB;
      OB.Backend = B;
      EXPECT_FALSE(keyOf(3, 7, OA) == keyOf(3, 7, OB))
          << static_cast<int>(A) << " vs " << static_cast<int>(B);
    }
  }
}

TEST(CompileService, ThreeBackendsThreeEntries) {
  CompileService S;
  apps::PowerApp P(13);
  CompileOptions VC, IC, PC;
  VC.Backend = BackendKind::VCode;
  IC.Backend = BackendKind::ICode;
  PC.Backend = BackendKind::PCode;
  FnHandle A = P.specializeCached(S, VC);
  FnHandle B = P.specializeCached(S, IC);
  FnHandle C = P.specializeCached(S, PC);
  EXPECT_NE(A.get(), B.get());
  EXPECT_NE(B.get(), C.get());
  EXPECT_NE(A.get(), C.get());
  EXPECT_EQ(S.cache().stats().Insertions, 3u);
  EXPECT_EQ(A->as<int(int)>()(3), 1594323);
  EXPECT_EQ(B->as<int(int)>()(3), 1594323);
  EXPECT_EQ(C->as<int(int)>()(3), 1594323);
  // Re-requesting each hits its own slot — no cross-backend aliasing.
  EXPECT_EQ(P.specializeCached(S, PC).get(), C.get());
  EXPECT_EQ(S.cache().stats().Insertions, 3u);
}

TEST(SpecKey, PoolDoesNotChangeTheKey) {
  RegionPool Pool;
  CompileOptions WithPool;
  WithPool.Pool = &Pool;
  EXPECT_TRUE(keyOf(3, 7) == keyOf(3, 7, WithPool));
}

TEST(SpecKey, RtEvalOverMemoryIsUncacheable) {
  static int Cell = 41;
  Context C;
  Stmt Body = C.ret(C.rtEval(C.fvInt(&Cell)) + C.intConst(1));
  SpecKey K = buildSpecKey(C, Body, EvalType::Int, CompileOptions());
  EXPECT_FALSE(K.Cacheable);
}

TEST(SpecKey, RtEvalOverPureConstantsIsCacheable) {
  Context C;
  Stmt Body = C.ret(C.rtEval(C.intConst(6) * C.intConst(7)));
  SpecKey K = buildSpecKey(C, Body, EvalType::Int, CompileOptions());
  EXPECT_TRUE(K.Cacheable);
}

// --- Key exactness ------------------------------------------------------------
//
// The key is one pass over the Context's nodes in creation order (SpecKey.h):
// equal bytes must mean equal code, whatever else the Context holds.

/// A spec touching every payload kind: a `$` int, a `$` double, a free
/// variable, a callee address, a loop and a local of type \p LocalT.
int addOne(int V) { return V + 1; }
int CellA = 5, CellB = 5;

struct KeyParts {
  int Rc = 7;
  const int *Cell = &CellA;
  EvalType LocalT = EvalType::Int;
};

Stmt buildRich(Context &C, const KeyParts &P) {
  VSpec X = C.paramInt(0);
  VSpec I = C.localInt();
  VSpec Acc = P.LocalT == EvalType::Long ? C.localLong() : C.localInt();
  Expr Step = C.toInt(C.doubleConst(2.0) * C.toDouble(Expr(I)));
  return C.block({
      C.assign(Acc, C.intConst(0)),
      C.forStmt(I, C.intConst(0), vcode::CmpKind::LtS, C.rcInt(4),
                C.intConst(1), C.assign(Acc, Expr(Acc) + C.toLong(Step))),
      C.ret(C.toInt(Expr(Acc)) + Expr(X) * C.rcInt(P.Rc) + C.fvInt(P.Cell) +
            C.callC(reinterpret_cast<const void *>(&addOne), EvalType::Int,
                    {Expr(X)})),
  });
}

SpecKey richKey(const KeyParts &P, const CompileOptions &O = {}) {
  Context C;
  return buildSpecKey(C, buildRich(C, P), EvalType::Int, O);
}

int richRef(int X, const KeyParts &P) {
  return 12 + X * P.Rc + *P.Cell + addOne(X);
}

TEST(SpecKeyExact, SameSpecInTwoContextsIsOneKeyAndOneEntry) {
  KeyParts P;
  SpecKey A = richKey(P), B = richKey(P);
  EXPECT_TRUE(A.Cacheable);
  EXPECT_TRUE(A == B);
  EXPECT_GT(A.Bytes.size(), 0u);

  CompileService S;
  Context C1, C2;
  FnHandle F1 = S.getOrCompile(C1, buildRich(C1, P), EvalType::Int);
  FnHandle F2 = S.getOrCompile(C2, buildRich(C2, P), EvalType::Int);
  EXPECT_EQ(F1.get(), F2.get());
  EXPECT_EQ(S.cache().stats().Hits, 1u);
  EXPECT_EQ(F1->as<int(int)>()(3), richRef(3, P));
}

TEST(SpecKeyExact, EachIdentityFieldChangesTheKey) {
  KeyParts Base;
  SpecKey K = richKey(Base);
  KeyParts Rc = Base;
  Rc.Rc = 8;
  KeyParts Cell = Base;
  Cell.Cell = &CellB; // Same value, different address.
  KeyParts Local = Base;
  Local.LocalT = EvalType::Long;
  CompileOptions Unroll;
  Unroll.UnrollLimit = 1;
  EXPECT_FALSE(K == richKey(Rc)) << "$ value";
  EXPECT_FALSE(K == richKey(Cell)) << "free-variable address";
  EXPECT_FALSE(K == richKey(Local)) << "local type";
  EXPECT_FALSE(K == richKey(Base, Unroll)) << "option";
}

TEST(SpecKeyExact, EarlierUnrelatedNodesNeverAliasAnotherSpec) {
  CompileService S;
  // The cache holds x + 3, built alone.
  {
    Context C;
    VSpec X = C.paramInt(0);
    EXPECT_EQ(S.getOrCompile(C, C.ret(Expr(X) + C.rcInt(3)), EvalType::Int)
                  ->as<int(int)>()(1),
              4);
  }
  // x + 4, built after an unrelated x + 3 in the same Context, must get
  // its own entry: the unrelated nodes are in the key, and so is the root.
  Context C;
  VSpec X = C.paramInt(0);
  Stmt Unrelated = C.ret(Expr(X) + C.rcInt(3));
  (void)Unrelated;
  Stmt Body = C.ret(Expr(X) + C.rcInt(4));
  SpecKey K = buildSpecKey(C, Body, EvalType::Int, CompileOptions());
  Context Fresh;
  VSpec FX = Fresh.paramInt(0);
  EXPECT_FALSE(K == buildSpecKey(Fresh, Fresh.ret(Expr(FX) + Fresh.rcInt(3)),
                                 EvalType::Int, CompileOptions()));
  FnHandle F = S.getOrCompile(C, Body, EvalType::Int);
  EXPECT_EQ(F->as<int(int)>()(1), 5);
  // And the unrelated root itself, keyed over the shorter prefix, is the
  // entry the fresh build made.
  EXPECT_EQ(S.getOrCompile(C, Unrelated, EvalType::Int)->as<int(int)>()(1), 4);
  EXPECT_EQ(S.cache().stats().Hits, 1u);
}

TEST(SpecKeyExact, SharedAndRebuiltSubtreesBothRun) {
  CompileService S;
  Context C1;
  VSpec X1 = C1.paramInt(0);
  Expr Sub = Expr(X1) * C1.rcInt(3) + C1.intConst(1);
  Stmt Shared = C1.ret(Sub + Sub);
  Context C2;
  VSpec X2 = C2.paramInt(0);
  Stmt Twice = C2.ret((Expr(X2) * C2.rcInt(3) + C2.intConst(1)) +
                      (Expr(X2) * C2.rcInt(3) + C2.intConst(1)));
  FnHandle A = S.getOrCompile(C1, Shared, EvalType::Int);
  FnHandle B = S.getOrCompile(C2, Twice, EvalType::Int);
  EXPECT_EQ(A->as<int(int)>()(5), 32);
  EXPECT_EQ(B->as<int(int)>()(5), 32);
}

TEST(SpecKeyExact, KeyWalksNodesAcrossSlabsAndArrays) {
  // The key reads the nodes straight out of the Context's arena. Thousands
  // of statements span many slabs, a 9,000-entry block body outgrows one,
  // and call argument arrays sit between nodes: the spec must still key
  // exactly, the same in every Context.
  auto Build = [](Context &C) {
    VSpec X = C.paramInt(0);
    VSpec Acc = C.localInt();
    std::vector<Stmt> Body{C.assign(Acc, Expr(X))};
    for (int I = 0; I < 9000; ++I) {
      Expr V = I % 97 ? C.rcInt(I % 7)
                      : C.callC(reinterpret_cast<const void *>(&addOne),
                                EvalType::Int, {C.rcInt(I % 5)});
      Body.push_back(C.assign(Acc, Expr(Acc) + V));
    }
    Body.push_back(C.ret(Expr(Acc)));
    return C.block(Body);
  };
  Context C1, C2;
  Stmt B1 = Build(C1), B2 = Build(C2);
  SpecKey K1 = buildSpecKey(C1, B1, EvalType::Int, CompileOptions());
  EXPECT_TRUE(K1.Cacheable);
  EXPECT_TRUE(K1 == buildSpecKey(C2, B2, EvalType::Int, CompileOptions()));
  CompileService S;
  FnHandle F = S.getOrCompile(C1, B1, EvalType::Int);
  EXPECT_EQ(S.getOrCompile(C2, B2, EvalType::Int).get(), F.get());
  int Want = 10;
  for (int I = 0; I < 9000; ++I)
    Want += I % 97 ? I % 7 : I % 5 + 1;
  EXPECT_EQ(F->as<int(int)>()(10), Want);
}

TEST(SpecKeyExact, RewiredArgumentArrayIsUncacheable) {
  // The key walks the arena, skipping each node's own argument array. A
  // Call pointed at another array leaves its original one unskipped: the
  // walk must detect the misparse and give up, not key garbage.
  CompileService S;
  Context C;
  VSpec X = C.paramInt(0);
  Expr Call = C.callC(reinterpret_cast<const void *>(&addOne), EvalType::Int,
                      {Expr(X)});
  Stmt Body = C.ret(Call);
  ExprNode *Moved[1] = {Call.node()->ArgV[0]};
  Call.node()->ArgV = Moved;
  EXPECT_FALSE(buildSpecKey(C, Body, EvalType::Int, CompileOptions()).Cacheable);
  EXPECT_EQ(S.getOrCompile(C, Body, EvalType::Int)->as<int(int)>()(4), 5);
}

TEST(SpecKeyExact, MemReadingRtEvalKeepsNoBytes) {
  static int Cell = 41;
  Context C;
  Stmt Body = C.ret(C.rtEval(C.loadMem(MemType::I32, C.rcPtr(&Cell))));
  SpecKey K = buildSpecKey(C, Body, EvalType::Int, CompileOptions());
  EXPECT_FALSE(K.Cacheable);
  EXPECT_EQ(K.Bytes.size(), 0u); // Only the hash (the symbol name) is kept.
  EXPECT_NE(K.Hash, 0u);
}

TEST(SpecKeyExact, ChildNotOlderThanParentIsUncacheable) {
  // Rewire a finished node to a child built after it: the creation-order
  // form cannot describe that link, so the spec must always compile.
  CompileService S;
  Context C;
  VSpec X = C.paramInt(0);
  Stmt Body = C.ret(C.intConst(1));
  Expr Late = Expr(X) + C.rcInt(2);
  Body.node()->E = Late.node();
  SpecKey K = buildSpecKey(C, Body, EvalType::Int, CompileOptions());
  EXPECT_FALSE(K.Cacheable);
  FnHandle F = S.getOrCompile(C, Body, EvalType::Int);
  EXPECT_EQ(F->as<int(int)>()(5), 7);
  EXPECT_EQ(S.cache().stats().Insertions, 0u);

  // A child from another Context has no ordinal in this one either (a
  // fresh Context, so the rewired Body above is not in this key).
  Context C2, Other;
  VSpec X2 = C2.paramInt(0);
  Stmt Foreign = C2.ret(Expr(X2) + C2.intConst(0));
  EXPECT_TRUE(
      buildSpecKey(C2, Foreign, EvalType::Int, CompileOptions()).Cacheable);
  Foreign.node()->E = Other.intConst(9).node();
  EXPECT_FALSE(
      buildSpecKey(C2, Foreign, EvalType::Int, CompileOptions()).Cacheable);
}

// --- Hit/miss identity ------------------------------------------------------

TEST(CompileService, SameSpecSameConstantsHitsIdenticalEntry) {
  CompileService S;
  apps::QueryApp App(64);
  FnHandle A = App.specializeCached(App.benchmarkQuery(), S);
  FnHandle B = App.specializeCached(App.benchmarkQuery(), S);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A.get(), B.get());
  EXPECT_EQ(A->entry(), B->entry());
  CacheStats St = S.cache().stats();
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Insertions, 1u);
  EXPECT_EQ(App.countCompiled(A->as<int(const apps::Record *)>()),
            App.countStaticO2(App.benchmarkQuery()));
}

TEST(CompileService, PrebuiltKeyLookupMatchesGetOrCompile) {
  CompileService S;
  apps::PowerApp P(13);
  SpecKey K = P.cacheKey();
  EXPECT_FALSE(S.lookup(K)); // Nothing compiled yet.
  FnHandle A = P.specializeCached(S);
  FnHandle B = S.lookup(K); // Steady-state path: probe with the kept key.
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A.get(), B.get());
  EXPECT_EQ(B->as<int(int)>()(2), 8192);

  // The key matches what getOrCompile derived internally.
  apps::QueryApp Q(32);
  SpecKey QK = Q.cacheKey(Q.benchmarkQuery());
  EXPECT_FALSE(S.lookup(QK));
  FnHandle QA = Q.specializeCached(Q.benchmarkQuery(), S);
  EXPECT_EQ(S.lookup(QK).get(), QA.get());
}

TEST(CompileService, DifferentRuntimeConstantsGetDistinctEntries) {
  CompileService S;
  apps::PowerApp P3(3), P5(5);
  FnHandle A = P3.specializeCached(S);
  FnHandle B = P5.specializeCached(S);
  ASSERT_TRUE(A && B);
  EXPECT_NE(A.get(), B.get());
  EXPECT_EQ(A->as<int(int)>()(2), 8);
  EXPECT_EQ(B->as<int(int)>()(2), 32);
  EXPECT_EQ(S.cache().stats().Insertions, 2u);
}

TEST(CompileService, BackendAndRegAllocDistinguishEntries) {
  CompileService S;
  apps::PowerApp P(13);
  CompileOptions VC;
  CompileOptions LS;
  LS.Backend = BackendKind::ICode;
  CompileOptions GC = LS;
  GC.RegAlloc = icode::RegAllocKind::GraphColor;
  FnHandle A = P.specializeCached(S, VC);
  FnHandle B = P.specializeCached(S, LS);
  FnHandle C = P.specializeCached(S, GC);
  EXPECT_NE(A.get(), B.get());
  EXPECT_NE(B.get(), C.get());
  EXPECT_EQ(S.cache().stats().Insertions, 3u);
  EXPECT_EQ(A->as<int(int)>()(3), 1594323);
  EXPECT_EQ(B->as<int(int)>()(3), 1594323);
  EXPECT_EQ(C->as<int(int)>()(3), 1594323);
}

TEST(CompileService, DistinctHashTablesDoNotCollide) {
  CompileService S;
  apps::HashApp T1(256, 100, 1), T2(256, 100, 2);
  FnHandle A = T1.specializeCached(S);
  FnHandle B = T2.specializeCached(S);
  EXPECT_NE(A.get(), B.get());
  EXPECT_EQ(A->as<int(int)>()(T1.presentKey()), T1.presentKey() * 2 + 1);
  EXPECT_EQ(B->as<int(int)>()(T2.presentKey()), T2.presentKey() * 2 + 1);
}

TEST(CompileService, MarshalRoundTripThroughCache) {
  CompileService S;
  apps::MarshalApp M("iiiii");
  FnHandle Mar = M.buildMarshalerCached(S);
  auto Sum5 = +[](int A, int B, int C, int D, int E) {
    return A + B * 10 + C * 100 + D * 1000 + E * 10000;
  };
  FnHandle Unm =
      M.buildUnmarshalerCached(reinterpret_cast<const void *>(Sum5), S);
  std::uint8_t Buf[20];
  Mar->as<void(int, int, int, int, int, std::uint8_t *)>()(1, 2, 3, 4, 5,
                                                           Buf);
  EXPECT_EQ(Unm->as<int(const std::uint8_t *)>()(Buf), 54321);
  // Same format + same target → both hits.
  FnHandle Mar2 = M.buildMarshalerCached(S);
  FnHandle Unm2 =
      M.buildUnmarshalerCached(reinterpret_cast<const void *>(Sum5), S);
  EXPECT_EQ(Mar.get(), Mar2.get());
  EXPECT_EQ(Unm.get(), Unm2.get());
}

TEST(CompileService, UncacheableSpecsRecompileAndTrackMemory) {
  CompileService S;
  static int Cell;
  Cell = 10;
  auto Build = [&] {
    Context C;
    Stmt Body = C.ret(C.rtEval(C.fvInt(&Cell)) + C.intConst(1));
    return S.getOrCompile(C, Body, EvalType::Int);
  };
  FnHandle A = Build();
  EXPECT_EQ(A->as<int()>()(), 11);
  Cell = 20; // The $-captured immediate must be re-read, not cached.
  FnHandle B = Build();
  EXPECT_EQ(B->as<int()>()(), 21);
  EXPECT_NE(A.get(), B.get());
  EXPECT_EQ(S.cache().stats().Insertions, 0u);
}

// --- Eviction ----------------------------------------------------------------

TEST(CompileService, LruEvictionUnderByteBudget) {
  ServiceConfig Cfg;
  Cfg.Shards = 1; // Deterministic LRU order.
  Cfg.MaxCodeBytes = 256;
  CompileService S(Cfg);

  apps::PowerApp P2(2);
  FnHandle First = P2.specializeCached(S);
  std::size_t OneFn = S.cache().stats().CodeBytes;
  ASSERT_GT(OneFn, 0u);

  // Insert enough distinct specs to overflow 256 bytes many times over.
  for (unsigned E = 3; E < 40; ++E) {
    apps::PowerApp P(E);
    FnHandle H = P.specializeCached(S);
    EXPECT_EQ(H->as<int(int)>()(1), 1);
  }
  CacheStats St = S.cache().stats();
  EXPECT_GT(St.Evictions, 0u);
  EXPECT_LE(St.CodeBytes, 256u + OneFn); // Budget, modulo the newest entry.

  // The cold-start entry was least recently used: re-requesting it misses
  // and recompiles into a fresh entry.
  FnHandle Again = P2.specializeCached(S);
  EXPECT_NE(Again.get(), First.get());
  // The evicted function is still alive and executable through our handle.
  EXPECT_EQ(First->as<int(int)>()(5), 25);
  EXPECT_EQ(Again->as<int(int)>()(5), 25);
}

TEST(CompileService, EvictedEntriesSurviveWhileHandleHeld) {
  ServiceConfig Cfg;
  Cfg.Shards = 1;
  Cfg.MaxCodeBytes = 64;
  CompileService S(Cfg);
  apps::QueryApp App(128);
  FnHandle Live = App.specializeCached(App.benchmarkQuery(), S);
  int Expected = App.countStaticO2(App.benchmarkQuery());
  for (unsigned E = 2; E < 34; ++E) {
    apps::PowerApp P(E);
    (void)P.specializeCached(S);
    // The held handle stays valid across every eviction wave.
    EXPECT_EQ(App.countCompiled(Live->as<int(const apps::Record *)>()),
              Expected);
  }
  EXPECT_GT(S.cache().stats().Evictions, 0u);
}

// --- Region pool ------------------------------------------------------------

TEST(RegionPoolTest, ReleasedRegionsAreReused) {
  RegionPool Pool;
  std::uint8_t *Base;
  {
    PooledRegion R = Pool.acquire(4096, CodePlacement::Sequential);
    Base = R->base();
    R->makeExecutable();
  } // Released: flipped writable, shelved.
  RegionPoolStats St = Pool.stats();
  EXPECT_EQ(St.Mapped, 1u);
  EXPECT_GT(St.FreeBytes, 0u);

  PooledRegion R2 = Pool.acquire(4096, CodePlacement::Sequential);
  EXPECT_EQ(R2->base(), Base);
  EXPECT_FALSE(R2->isExecutable());
  EXPECT_EQ(Pool.stats().Reused, 1u);
  // Writable again: emitting over it must not fault.
  R2->base()[0] = 0xC3;
}

TEST(RegionPoolTest, CapacityAndPlacementMustMatch) {
  RegionPool Pool;
  { PooledRegion R = Pool.acquire(4096, CodePlacement::Sequential); }
  PooledRegion Big = Pool.acquire(1 << 20, CodePlacement::Sequential);
  EXPECT_EQ(Pool.stats().Mapped, 2u); // 4 KiB region can't serve 1 MiB.
  EXPECT_GE(Big->capacity(), 1u << 20);
}

TEST(RegionPoolTest, CompileFnUsesThePool) {
  RegionPool Pool;
  CompileOptions Opts;
  Opts.Pool = &Pool;
  apps::PowerApp P(13);
  {
    CompiledFn F = P.specialize(Opts);
    EXPECT_EQ(F.as<int(int)>()(2), 8192);
  } // Fn destroyed → region back in the pool.
  EXPECT_EQ(Pool.stats().Mapped, 1u);
  {
    CompiledFn F = P.specialize(Opts);
    EXPECT_EQ(F.as<int(int)>()(2), 8192);
  }
  EXPECT_EQ(Pool.stats().Reused, 1u);
  EXPECT_EQ(Pool.stats().Mapped, 1u); // No second mmap.
}

// --- Concurrency -------------------------------------------------------------

TEST(CompileService, ConcurrentGetOrCompileStress) {
  CompileService S;
  constexpr unsigned NumThreads = 8;
  constexpr unsigned Iters = 200;
  const unsigned Exponents[4] = {3, 7, 10, 13};
  const int Expected[4] = {8, 128, 1024, 8192}; // 2^e.

  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads);
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < Iters; ++I) {
        unsigned Which = (T + I) % 4;
        apps::PowerApp P(Exponents[Which]);
        FnHandle H = P.specializeCached(S);
        if (!H || H->as<int(int)>()(2) != Expected[Which])
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);

  CacheStats St = S.cache().stats();
  // 4 distinct specs; racing threads may double-compile but the cache keeps
  // one entry per key.
  EXPECT_EQ(St.Entries, 4u);
  EXPECT_GE(St.Hits, NumThreads * Iters - 4u * NumThreads);
}

TEST(CompileService, SingleFlightCollapsesConcurrentColdMisses) {
  // All threads rush one cold key; exactly one compile may happen — the
  // rest must block on the leader's in-flight result.
  obs::Counter &Compiles =
      obs::MetricsRegistry::global().counter(obs::names::CompileCountVCode);
  for (unsigned Round = 0; Round < 20; ++Round) {
    CompileService S;
    apps::PowerApp P(13);
    constexpr unsigned NumThreads = 8;
    std::uint64_t Before = Compiles.value();

    std::atomic<unsigned> Ready{0};
    std::atomic<bool> Go{false};
    std::atomic<unsigned> Failures{0};
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < NumThreads; ++T) {
      Threads.emplace_back([&] {
        Ready.fetch_add(1);
        while (!Go.load(std::memory_order_acquire))
          ;
        FnHandle H = P.specializeCached(S);
        if (!H || H->as<int(int)>()(2) != 8192)
          Failures.fetch_add(1, std::memory_order_relaxed);
      });
    }
    while (Ready.load() != NumThreads)
      ;
    Go.store(true, std::memory_order_release);
    for (std::thread &T : Threads)
      T.join();

    EXPECT_EQ(Failures.load(), 0u);
    EXPECT_EQ(S.cache().stats().Insertions, 1u) << "round " << Round;
    EXPECT_EQ(Compiles.value() - Before, 1u) << "round " << Round;
  }
}

TEST(CompileService, ConcurrentEvictionChurnIsSafe) {
  ServiceConfig Cfg;
  Cfg.Shards = 2;
  Cfg.MaxCodeBytes = 512; // Constant eviction pressure.
  CompileService S(Cfg);
  constexpr unsigned NumThreads = 8;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < 100; ++I) {
        unsigned E = 2 + (T * 31 + I) % 24;
        apps::PowerApp P(E);
        FnHandle H = P.specializeCached(S);
        // Execute while other threads evict: the handle must pin the code.
        if (H->as<int(int)>()(1) != 1)
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_GT(S.cache().stats().Evictions, 0u);
}

} // namespace
