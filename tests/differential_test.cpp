//===- tests/differential_test.cpp - Cross-backend differential fuzzing ---===//
//
// Generates random structured programs (locals; +, -, *, ^, /, %, <<, >>,
// unary -, ~, !, ?: and `$` over constant subexpressions; nested ifs and
// bounded loops) and checks that every configuration of the system — the
// tier-0 spec-tree interpreter, VCODE, PCODE (copy-and-patch), ICODE with
// linear scan, ICODE with graph coloring, and both spill heuristics —
// computes exactly the same result as a host-side reference interpreter.
// This is the strongest whole-pipeline invariant we have: any divergence in
// the interpreter's evaluator, the encoder, stencil patching, register
// allocators, spill paths, strength reduction, or the CGF walk shows up as
// a value mismatch. PCODE is additionally held to byte identity against
// VCODE on every random program.
//
//===----------------------------------------------------------------------===//

#include "cache/CompileService.h"
#include "core/Compile.h"
#include "core/Context.h"
#include "core/SpecInterp.h"
#include "tier/Tier.h"
#include "x86/X86Decoder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>

using namespace tcc;
using namespace tcc::core;

namespace {

/// A tiny program generator that builds the same computation twice: once
/// as a cspec tree and once as a host-side closure ("the reference"). The
/// reference is plain C++ on int32 values with wrapping unsigned arithmetic,
/// so it is free of undefined behaviour by construction.
class ProgramGen {
public:
  /// The expression operators the generator draws from; each must be drawn
  /// at least once per test run (Seen).
  enum Kind {
    KAdd,
    KSub,
    KMul,
    KXor,
    KDiv,
    KMod,
    KShl,
    KShr,
    KNeg,
    KNot,
    KLogNot,
    KCond,
    KRtEval,
    NumKinds
  };
  static constexpr const char *KindNames[NumKinds] = {
      "add", "sub", "mul", "xor",    "div",  "mod",   "shl",
      "shr", "neg", "not", "lognot", "cond", "rteval"};
  unsigned Seen[NumKinds] = {};

  ProgramGen(Context &C, std::mt19937 &Rng) : C(C), Rng(Rng) {
    // Two int parameters plus a handful of int locals.
    Params[0] = C.paramInt(0);
    Params[1] = C.paramInt(1);
    for (int I = 0; I < 4; ++I)
      Locals.push_back(C.localInt());
    Ref.assign(Locals.size(), 0);
  }

  /// Builds a random statement sequence; returns the specification and
  /// keeps a parallel reference evaluator.
  Stmt build(unsigned Depth) {
    std::vector<Stmt> Body;
    // Dynamic locals start with garbage (as in C); zero them so the
    // generated program matches the reference's zeroed state.
    for (VSpec L : Locals)
      Body.push_back(C.assign(L, C.intConst(0)));
    unsigned N = 2 + Rng() % 4;
    for (unsigned I = 0; I < N; ++I)
      Body.push_back(genStmt(Depth));
    return C.block(Body);
  }

  /// Runs the reference on concrete arguments; call after build().
  long long runReference(int A0, int A1) {
    Args[0] = A0;
    Args[1] = A1;
    Ref.assign(Locals.size(), 0);
    for (auto &Step : Trace)
      Step();
    std::int32_t Acc = 0;
    for (std::size_t I = 0; I < Ref.size(); ++I)
      Acc = add(mul(Acc, 31), Ref[I]);
    return Acc;
  }

  /// Final checksum expression matching runReference's accumulation.
  Expr checksum() {
    Expr Acc = C.intConst(0);
    for (VSpec L : Locals)
      Acc = Acc * C.intConst(31) + Expr(L);
    return Acc;
  }

private:
  static std::int32_t add(std::int32_t A, std::int32_t B) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(A) +
                                     static_cast<std::uint32_t>(B));
  }
  static std::int32_t sub(std::int32_t A, std::int32_t B) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(A) -
                                     static_cast<std::uint32_t>(B));
  }
  static std::int32_t mul(std::int32_t A, std::int32_t B) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(A) *
                                     static_cast<std::uint32_t>(B));
  }

  /// A random int expression over params/locals/constants, with a
  /// host-side evaluator captured into EvalFns.
  struct GenExpr {
    Expr E;
    std::function<std::int32_t()> Eval;
  };

  /// With \p ConstOnly the leaves are constants only: the operand of a `$`
  /// (rtEval), folded at instantiation.
  GenExpr genExpr(unsigned Depth, bool ConstOnly = false) {
    unsigned Sel = Rng() % (Depth == 0 ? 3 : 5);
    if (ConstOnly && Sel < 3)
      Sel = 0;
    switch (Sel) {
    case 0: {
      int V = static_cast<int>(Rng() % 200) - 100;
      return {C.intConst(V), [V] { return V; }};
    }
    case 1: {
      std::size_t P = Rng() % 2;
      return {Expr(Params[P]), [this, P] { return Args[P]; }};
    }
    case 2: {
      std::size_t L = Rng() % Locals.size();
      return {Expr(Locals[L]), [this, L] { return Ref[L]; }};
    }
    default:
      break;
    }
    auto K = static_cast<Kind>(Rng() % NumKinds);
    ++Seen[K];
    if (K == KRtEval) {
      // `$` over a constant subexpression, folded at instantiation.
      GenExpr R = genExpr(Depth - 1, /*ConstOnly=*/true);
      return {C.rtEval(R.E), R.Eval};
    }
    GenExpr A = genExpr(Depth - 1, ConstOnly);
    switch (K) {
    case KNeg:
      return {-A.E, [A] { return sub(0, A.Eval()); }};
    case KNot:
      return {C.bitNot(A.E), [A] { return ~A.Eval(); }};
    case KLogNot:
      return {!A.E, [A] { return std::int32_t(A.Eval() == 0); }};
    default:
      break;
    }
    GenExpr B = genExpr(Depth - 1, ConstOnly);
    switch (K) {
    case KAdd:
      return {A.E + B.E, [A, B] { return add(A.Eval(), B.Eval()); }};
    case KSub:
      return {A.E - B.E, [A, B] { return sub(A.Eval(), B.Eval()); }};
    case KMul:
      return {A.E * B.E, [A, B] { return mul(A.Eval(), B.Eval()); }};
    case KXor:
      return {A.E ^ B.E, [A, B] { return A.Eval() ^ B.Eval(); }};
    case KDiv:
    case KMod: {
      // An odd divisor in 1..255: never zero, never -1.
      Expr D = (B.E & C.intConst(0xff)) | C.intConst(1);
      auto Dv = [B] { return (B.Eval() & 0xff) | 1; };
      if (K == KDiv)
        return {A.E / D, [A, Dv] { return A.Eval() / Dv(); }};
      return {A.E % D, [A, Dv] { return A.Eval() % Dv(); }};
    }
    case KShl:
      return {A.E << B.E, [A, B] {
                return static_cast<std::int32_t>(
                    static_cast<std::uint32_t>(A.Eval()) << (B.Eval() & 31));
              }};
    case KShr:
      return {A.E >> B.E, [A, B] { return A.Eval() >> (B.Eval() & 31); }};
    default: {
      // KCond: A ? B : E.
      GenExpr E = genExpr(Depth - 1, ConstOnly);
      return {C.cond(A.E, B.E, E.E),
              [A, B, E] { return A.Eval() ? B.Eval() : E.Eval(); }};
    }
    }
  }

  Stmt genStmt(unsigned Depth) {
    unsigned Sel = Rng() % (Depth == 0 ? 1 : 3);
    if (Sel == 0) {
      // local = expr
      std::size_t L = Rng() % Locals.size();
      GenExpr E = genExpr(2);
      Trace.push_back([this, L, E] { Ref[L] = E.Eval(); });
      return C.assign(Locals[L], E.E);
    }
    if (Sel == 1) {
      // if (a < b) S1 else S2 — the reference replays the same comparison.
      GenExpr A = genExpr(1), B = genExpr(1);
      // Mark a branch point: children record into branch-local traces.
      auto ThenStart = beginBranch();
      Stmt S1 = genStmt(Depth - 1);
      auto ThenTrace = endBranch(ThenStart);
      auto ElseStart = beginBranch();
      Stmt S2 = genStmt(Depth - 1);
      auto ElseTrace = endBranch(ElseStart);
      Trace.push_back([this, A, B, ThenTrace, ElseTrace] {
        const auto &Steps = A.Eval() < B.Eval() ? ThenTrace : ElseTrace;
        for (const auto &Step : Steps)
          Step();
      });
      return C.ifStmt(A.E < B.E, S1, S2);
    }
    // Bounded counting loop over a fresh iteration count (0..7) with a
    // body that mutates locals; induction variable is a dedicated local.
    std::size_t L = Rng() % Locals.size();
    GenExpr Delta = genExpr(1);
    int Count = static_cast<int>(Rng() % 8);
    VSpec I = C.localInt();
    Stmt Body = C.assign(Locals[L], Expr(Locals[L]) + Delta.E);
    Trace.push_back([this, L, Delta, Count] {
      for (int K = 0; K < Count; ++K)
        Ref[L] = add(Ref[L], Delta.Eval());
    });
    return C.forStmt(I, C.intConst(0), vcode::CmpKind::LtS,
                     C.intConst(Count), C.intConst(1), Body);
  }

  // Branch-local trace capture: statements generated between begin/end are
  // moved into a sub-trace replayed conditionally.
  std::size_t beginBranch() { return Trace.size(); }
  std::vector<std::function<void()>> endBranch(std::size_t Start) {
    std::vector<std::function<void()>> Sub(Trace.begin() + Start,
                                           Trace.end());
    Trace.resize(Start);
    return Sub;
  }

  Context &C;
  std::mt19937 &Rng;
  VSpec Params[2];
  std::vector<VSpec> Locals;

public:
  std::vector<std::int32_t> Ref;
  int Args[2] = {0, 0};
  std::vector<std::function<void()>> Trace;
};

TEST(Differential, AllConfigurationsAgree) {
  std::mt19937 Rng(20260707);
  const std::pair<int, int> Inputs[] = {
      {0, 0}, {1, -1}, {17, 5}, {-100, 99}, {12345, -777}};
  unsigned Seen[ProgramGen::NumKinds] = {};
  for (int Trial = 0; Trial < 60; ++Trial) {
    std::mt19937 Replay = Rng;
    Context C;
    ProgramGen Gen(C, Rng);
    Stmt Body = Gen.build(3);
    for (unsigned K = 0; K < ProgramGen::NumKinds; ++K)
      Seen[K] += Gen.Seen[K];
    Stmt Fn = C.block({Body, C.ret(Gen.checksum())});

    // The same program rebuilt in a fresh Context is the same cache and
    // snapshot identity: both keys are exact over creation order.
    {
      Context RC;
      ProgramGen RGen(RC, Replay);
      Stmt RBody = RGen.build(3);
      Stmt RFn = RC.block({RBody, RC.ret(RGen.checksum())});
      CompileOptions O;
      cache::SpecKey K = cache::buildSpecKey(C, Fn, EvalType::Int, O);
      EXPECT_TRUE(K.Cacheable) << "trial " << Trial;
      EXPECT_TRUE(K == cache::buildSpecKey(RC, RFn, EvalType::Int, O))
          << "trial " << Trial;
      cache::PersistKey P = cache::buildPersistKey(C, Fn, EvalType::Int, O);
      cache::PersistKey RP =
          cache::buildPersistKey(RC, RFn, EvalType::Int, O);
      EXPECT_EQ(P.Bytes, RP.Bytes) << "trial " << Trial;
      EXPECT_EQ(P.Hash, RP.Hash) << "trial " << Trial;
    }

    struct Config {
      const char *Name;
      BackendKind Backend;
      icode::RegAllocKind Alloc;
      icode::SpillHeuristic Spill;
    };
    const Config Configs[] = {
        {"vcode", BackendKind::VCode, icode::RegAllocKind::LinearScan,
         icode::SpillHeuristic::LongestInterval},
        {"pcode", BackendKind::PCode, icode::RegAllocKind::LinearScan,
         icode::SpillHeuristic::LongestInterval},
        {"icode-ls", BackendKind::ICode, icode::RegAllocKind::LinearScan,
         icode::SpillHeuristic::LongestInterval},
        {"icode-ls-weighted", BackendKind::ICode,
         icode::RegAllocKind::LinearScan, icode::SpillHeuristic::LowestWeight},
        {"icode-gc", BackendKind::ICode, icode::RegAllocKind::GraphColor,
         icode::SpillHeuristic::LongestInterval},
    };
    std::vector<CompiledFn> Fns;
    for (const Config &Cfg : Configs) {
      CompileOptions O;
      O.Backend = Cfg.Backend;
      O.RegAlloc = Cfg.Alloc;
      O.Spill = Cfg.Spill;
      CompiledFn F = compileFn(C, Fn, EvalType::Int, O);
      auto *P = F.as<int(int, int)>();
      for (auto [A0, A1] : Inputs) {
        long long Want = Gen.runReference(A0, A1);
        EXPECT_EQ(P(A0, A1), static_cast<int>(Want))
            << "trial " << Trial << " config " << Cfg.Name << " args ("
            << A0 << ", " << A1 << ")";
      }
      Fns.push_back(std::move(F));
    }
    // PCODE (Configs[1]) instantiates by stencil copy + patch but must
    // produce the exact bytes VCODE (Configs[0]) encodes.
    const CompiledFn &FV = Fns[0], &FP = Fns[1];
    ASSERT_EQ(FV.stats().CodeBytes, FP.stats().CodeBytes) << "trial " << Trial;
    EXPECT_EQ(std::memcmp(FV.entry(), FP.entry(), FV.stats().CodeBytes), 0)
        << "trial " << Trial;

    // Tier 0: the interpreter executes the same tree the backends compile
    // and must agree exactly with all of them.
    ASSERT_TRUE(specInterpretable(C, Fn, EvalType::Int)) << "trial " << Trial;
    SpecInterp Interp(C, Fn, EvalType::Int);
    for (auto [A0, A1] : Inputs) {
      long long Want = Gen.runReference(A0, A1);
      std::int64_t IA[2] = {A0, A1};
      Value R = Interp.run(IA, 2, nullptr, 0);
      EXPECT_EQ(static_cast<int>(R.I), static_cast<int>(Want))
          << "trial " << Trial << " config interp args (" << A0 << ", " << A1
          << ")";
    }
  }
  // Every operator kind took part in this run.
  for (unsigned K = 0; K < ProgramGen::NumKinds; ++K)
    EXPECT_GT(Seen[K], 0u) << "never generated: " << ProgramGen::KindNames[K];
}

// The tiered configuration: the same random programs dispatched through a
// TieredFn slot with a promotion mid-stream. With tier 0 on (the default)
// the slot is born interpreted, so the stream crosses TWO swaps: the
// interpreter answers until the background baseline compile lands — PCODE
// unless TICKC_BACKEND overrides it — and the baseline answers until the
// ICODE promotion lands. The reference must agree on every tier and across
// both swaps — any divergence between the tiers of one spec, or any
// tearing during a swap, shows up as a value mismatch.
TEST(Differential, TieredPromotionAgreesMidStream) {
  std::mt19937 Rng(20260806);
  const std::pair<int, int> Inputs[] = {
      {0, 0}, {1, -1}, {17, 5}, {-100, 99}, {12345, -777}};

  // Service outlives the manager, which outlives every slot handle.
  cache::CompileService Service;
  tier::TierConfig TC;
  TC.Workers = 2;
  TC.PromoteThreshold = 4; // Promote a few calls into each trial's stream.
  tier::TierManager TM(TC);

  for (int Trial = 0; Trial < 25; ++Trial) {
    // Snapshot the generator state: the promotion worker replays the exact
    // same program into a fresh Context from this copy.
    const std::mt19937 RngAtTrial = Rng;
    Context C;
    ProgramGen Gen(C, Rng);
    Stmt Body = Gen.build(3);
    Stmt Fn = C.block({Body, C.ret(Gen.checksum())});
    (void)Body;
    (void)Fn; // Reference only; the slot rebuilds from the snapshot.

    tier::TieredFnHandle TF = Service.getOrCompileTiered(
        [RngAtTrial](Context &C2) {
          std::mt19937 R = RngAtTrial;
          ProgramGen G(C2, R);
          Stmt B = G.build(3);
          return C2.block({B, C2.ret(G.checksum())});
        },
        EvalType::Int, CompileOptions(), &TM);
    ASSERT_TRUE(TF);

    // Baseline tier, then keep calling across the threshold and the swap.
    for (unsigned Round = 0; Round < 6; ++Round) {
      for (auto [A0, A1] : Inputs) {
        long long Want = Gen.runReference(A0, A1);
        EXPECT_EQ((TF->call<int(int, int)>(A0, A1)), static_cast<int>(Want))
            << "trial " << Trial << " round " << Round << " args (" << A0
            << ", " << A1 << ")";
      }
    }
    // Land the promotion inside the trial, then re-verify on the ICODE
    // tier explicitly.
    ASSERT_TRUE(TF->waitPromoted()) << "trial " << Trial;
    for (auto [A0, A1] : Inputs) {
      long long Want = Gen.runReference(A0, A1);
      EXPECT_EQ((TF->call<int(int, int)>(A0, A1)), static_cast<int>(Want))
          << "trial " << Trial << " post-promotion args (" << A0 << ", "
          << A1 << ")";
    }
  }
}

// Tier 0 under load: many threads hammer a freshly created slot from its
// interpreted birth through the baseline swap and the ICODE promotion,
// while the answers are checked on every call. Run under TSan in CI — the
// interpreted-entry swap (Entry null -> baseline) is the newest race
// surface in the dispatch path.
TEST(Differential, TieredInterpretedPromotionUnderLoad) {
  std::mt19937 Rng(20260807);
  const std::pair<int, int> Inputs[] = {
      {0, 0}, {1, -1}, {17, 5}, {-100, 99}, {12345, -777}};

  cache::CompileService Service;
  tier::TierConfig TC;
  TC.Workers = 2;
  TC.PromoteThreshold = 64;
  tier::TierManager TM(TC);

  for (int Trial = 0; Trial < 6; ++Trial) {
    const std::mt19937 RngAtTrial = Rng;
    Context C;
    ProgramGen Gen(C, Rng);
    Stmt Body = Gen.build(3);
    Stmt Fn = C.block({Body, C.ret(Gen.checksum())});
    (void)Body;
    (void)Fn; // Reference only; the slot rebuilds from the snapshot.

    // Precompute the expected values: runReference mutates shared state,
    // so it cannot be called from the racing threads.
    int Want[std::size(Inputs)];
    for (std::size_t I = 0; I < std::size(Inputs); ++I)
      Want[I] = static_cast<int>(
          Gen.runReference(Inputs[I].first, Inputs[I].second));

    tier::TieredFnHandle TF = Service.getOrCompileTiered(
        [RngAtTrial](Context &C2) {
          std::mt19937 R = RngAtTrial;
          ProgramGen G(C2, R);
          Stmt B = G.build(3);
          return C2.block({B, C2.ret(G.checksum())});
        },
        EvalType::Int, CompileOptions(), &TM);
    ASSERT_TRUE(TF);

    constexpr unsigned NumThreads = 8;
    std::atomic<unsigned> Failures{0};
    std::atomic<bool> Stop{false};
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < NumThreads; ++T) {
      Threads.emplace_back([&] {
        for (unsigned Sweep = 0; Sweep < 300 && !Stop.load(); ++Sweep)
          for (std::size_t I = 0; I < std::size(Inputs); ++I)
            if (TF->call<int(int, int)>(Inputs[I].first, Inputs[I].second) !=
                Want[I])
              Failures.fetch_add(1, std::memory_order_relaxed);
      });
    }
    bool Promoted = TF->waitPromoted();
    Stop.store(true);
    for (std::thread &T : Threads)
      T.join();
    EXPECT_TRUE(Promoted) << "trial " << Trial;
    EXPECT_EQ(Failures.load(), 0u) << "trial " << Trial;
    // Both swaps landed; the slot ends on the optimized tier and the
    // answers never wavered along the way.
    for (std::size_t I = 0; I < std::size(Inputs); ++I)
      EXPECT_EQ(
          (TF->call<int(int, int)>(Inputs[I].first, Inputs[I].second)),
          Want[I])
          << "trial " << Trial << " post-promotion input " << I;
  }
}

} // namespace

// --- Reachability and the shared epilogue -----------------------------------
//
// Every return jumps to one epilogue per function, and the one-pass back end
// emits no jump or return where control cannot reach. These shapes put
// returns, labels and loop exits where that bookkeeping matters; each must
// agree with its host-side reference on the interpreter (when it can run
// the spec), VCODE, PCODE (byte-identical to VCODE), ICODE, and a snapshot
// round trip.

namespace {

/// Written by the void shape; read back after each call.
int VoidCell = 0;

struct ReachShape {
  const char *Name;
  EvalType RetType;
  /// Builds the body over `int x` (parameter 0) into a fresh Context.
  std::function<Stmt(Context &)> Build;
  /// Host reference: the return value (the cell's value for Void).
  std::function<double(int)> Ref;
};

std::vector<ReachShape> reachShapes() {
  std::vector<ReachShape> Shapes;

  // acc = 0; i = 0; goto Body;
  // Tail: return acc;       -- Body is bound right after this return
  // Body: if (i >= x) goto Tail; acc += i * i; i += 1; goto Body;
  Shapes.push_back(
      {"label-after-return", EvalType::Int,
       [](Context &C) {
         VSpec X = C.paramInt(0), Acc = C.localInt(), I = C.localInt();
         DynLabel Tail = C.newLabel(), Body = C.newLabel();
         return C.block(
             {C.assign(Acc, C.intConst(0)), C.assign(I, C.intConst(0)),
              C.gotoLabel(Body), C.labelHere(Tail), C.ret(Acc),
              C.labelHere(Body),
              C.ifStmt(Expr(I) >= Expr(X), C.gotoLabel(Tail)),
              C.assign(Acc, Expr(Acc) + Expr(I) * Expr(I)),
              C.assign(I, Expr(I) + C.intConst(1)), C.gotoLabel(Body)});
       },
       [](int X) {
         int Acc = 0;
         for (int I = 0; I < X; ++I)
           Acc += I * I;
         return double(Acc);
       }});

  // acc = x; if (x & 1) { if (x > 5) return acc * 2; else return 7;
  // acc += 100; } acc += 3; return acc;
  Shapes.push_back(
      {"if-both-arms-return", EvalType::Int,
       [](Context &C) {
         VSpec X = C.paramInt(0), Acc = C.localInt();
         return C.block(
             {C.assign(Acc, Expr(X)),
              C.ifStmt(Expr(X) & C.intConst(1),
                       C.block({C.ifStmt(Expr(X) > C.intConst(5),
                                         C.ret(Expr(Acc) * C.intConst(2)),
                                         C.ret(C.intConst(7))),
                                C.assign(Acc, Expr(Acc) + C.intConst(100))})),
              C.assign(Acc, Expr(Acc) + C.intConst(3)), C.ret(Acc)});
       },
       [](int X) { return double((X & 1) ? (X > 5 ? X * 2 : 7) : X + 3); }});

  // for (i = 0; i < x; i += 1) { acc += i; if (acc > 20) { acc += 1000;
  // break; } continue; } while (acc < 5) { acc += 2; break; }
  // for (j = 0; j < 3; j += 1) acc += j;   -- unrolled
  // for (k = 0; k < 8; k += 1) { acc += k; if (acc > x + 40) break; }
  // for (n = 0; n < 4; n += 1) { acc += n; continue; }
  // for (m = 0; m < 6; m += 1) { acc += m; m += 1; }
  // return acc;   -- constant bounds, but break, continue and the write to
  //                  m each keep their loop rolled
  Shapes.push_back(
      {"loop-ends-in-break-or-continue", EvalType::Int,
       [](Context &C) {
         VSpec X = C.paramInt(0), Acc = C.localInt(), I = C.localInt(),
               J = C.localInt(), K = C.localInt(), N = C.localInt(),
               M = C.localInt();
         return C.block(
             {C.assign(Acc, C.intConst(0)),
              C.forStmt(I, C.intConst(0), vcode::CmpKind::LtS, Expr(X),
                        C.intConst(1),
                        C.block({C.assign(Acc, Expr(Acc) + Expr(I)),
                                 C.ifStmt(Expr(Acc) > C.intConst(20),
                                          C.block({C.assign(Acc,
                                                            Expr(Acc) +
                                                                C.intConst(
                                                                    1000)),
                                                   C.breakStmt()})),
                                 C.continueStmt()})),
              C.whileStmt(Expr(Acc) < C.intConst(5),
                          C.block({C.assign(Acc, Expr(Acc) + C.intConst(2)),
                                   C.breakStmt()})),
              C.forStmt(J, C.intConst(0), vcode::CmpKind::LtS, C.intConst(3),
                        C.intConst(1), C.assign(Acc, Expr(Acc) + Expr(J))),
              C.forStmt(K, C.intConst(0), vcode::CmpKind::LtS, C.intConst(8),
                        C.intConst(1),
                        C.block({C.assign(Acc, Expr(Acc) + Expr(K)),
                                 C.ifStmt(Expr(Acc) >
                                              Expr(X) + C.intConst(40),
                                          C.breakStmt())})),
              C.forStmt(N, C.intConst(0), vcode::CmpKind::LtS, C.intConst(4),
                        C.intConst(1),
                        C.block({C.assign(Acc, Expr(Acc) + Expr(N)),
                                 C.continueStmt()})),
              C.forStmt(M, C.intConst(0), vcode::CmpKind::LtS, C.intConst(6),
                        C.intConst(1),
                        C.block({C.assign(Acc, Expr(Acc) + Expr(M)),
                                 C.assign(M, Expr(M) + C.intConst(1))})),
              C.ret(Acc)});
       },
       [](int X) {
         int Acc = 0;
         for (int I = 0; I < X; ++I) {
           Acc += I;
           if (Acc > 20) {
             Acc += 1000;
             break;
           }
         }
         if (Acc < 5)
           Acc += 2;
         Acc += 3;
         for (int K = 0; K < 8; ++K) {
           Acc += K;
           if (Acc > X + 40)
             break;
         }
         Acc += 0 + 1 + 2 + 3;
         for (int M = 0; M < 6; M += 2)
           Acc += M;
         return double(Acc);
       }});

  // if (x < 0) { cell = -1; return; } if (x == 0) return; cell = x * 3;
  // if (x > 10) return; cell = cell + 1;
  Shapes.push_back(
      {"void-several-returns", EvalType::Void,
       [](Context &C) {
         VSpec X = C.paramInt(0);
         Expr Cell = C.rcPtr(&VoidCell);
         return C.block(
             {C.ifStmt(Expr(X) < C.intConst(0),
                       C.block({C.storeMem(MemType::I32, Cell,
                                           C.intConst(-1)),
                                C.retVoid()})),
              C.ifStmt(Expr(X) == C.intConst(0), C.retVoid()),
              C.storeMem(MemType::I32, Cell, Expr(X) * C.intConst(3)),
              C.ifStmt(Expr(X) > C.intConst(10), C.retVoid()),
              C.storeMem(MemType::I32, Cell,
                         C.fvInt(&VoidCell) + C.intConst(1))});
       },
       [](int X) {
         if (X < 0)
           return -1.0;
         if (X == 0)
           return 0.0; // The cell is cleared before each call.
         return double(X > 10 ? X * 3 : X * 3 + 1);
       }});

  // if (x < 0) return 0.5; if (x > 10) return x * 1.5; return x + 0.25;
  Shapes.push_back(
      {"double-several-returns", EvalType::Double,
       [](Context &C) {
         VSpec X = C.paramInt(0);
         return C.block(
             {C.ifStmt(Expr(X) < C.intConst(0), C.ret(C.doubleConst(0.5))),
              C.ifStmt(Expr(X) > C.intConst(10),
                       C.ret(Expr(X) * C.doubleConst(1.5))),
              C.ret(Expr(X) + C.doubleConst(0.25))});
       },
       [](int X) {
         if (X < 0)
           return 0.5;
         return X > 10 ? X * 1.5 : X + 0.25;
       }});
  return Shapes;
}

/// Calls a compiled shape on \p X; returns its result (the cell for Void).
double callShape(const void *Entry, EvalType RT, int X) {
  switch (RT) {
  case EvalType::Double:
    return reinterpret_cast<double (*)(int)>(const_cast<void *>(Entry))(X);
  case EvalType::Void:
    VoidCell = 0;
    reinterpret_cast<void (*)(int)>(const_cast<void *>(Entry))(X);
    return VoidCell;
  default:
    return reinterpret_cast<int (*)(int)>(const_cast<void *>(Entry))(X);
  }
}

const int ShapeInputs[] = {-3, 0, 1, 2, 4, 5, 7, 9, 11, 12, 25};

/// A snapshot directory removed (with contents) afterwards.
struct ScratchDir {
  std::string Path;
  ScratchDir() {
    char Buf[] = "/tmp/tickc_reach_XXXXXX";
    Path = mkdtemp(Buf);
  }
  ~ScratchDir() {
    if (DIR *D = opendir(Path.c_str())) {
      while (dirent *E = readdir(D)) {
        std::string Name = E->d_name;
        if (Name != "." && Name != "..")
          ::unlink((Path + "/" + Name).c_str());
      }
      closedir(D);
    }
    ::rmdir(Path.c_str());
  }
};

/// Decodes \p F's machine code.
std::vector<std::pair<std::size_t, x86::Decoded>> decodeAll(
    const CompiledFn &F) {
  std::vector<std::pair<std::size_t, x86::Decoded>> Out;
  const auto *Code = static_cast<const std::uint8_t *>(F.entry());
  const std::size_t Size = F.stats().CodeBytes;
  for (std::size_t Off = 0; Off < Size;) {
    x86::Decoded D;
    const char *Err = nullptr;
    if (!x86::decodeOne(Code, Size, Off, D, &Err)) {
      ADD_FAILURE() << "undecodable byte at +" << Off << ": " << Err;
      break;
    }
    Out.emplace_back(Off, D);
    Off += D.Len;
  }
  return Out;
}

} // namespace

TEST(Reachability, ShapesAgreeOnEveryTier) {
  const BackendKind Backends[] = {BackendKind::VCode, BackendKind::PCode,
                                  BackendKind::ICode};
  for (const ReachShape &Sh : reachShapes()) {
    Context C;
    Stmt Body = Sh.Build(C);
    std::vector<CompiledFn> Fns;
    for (BackendKind BK : Backends) {
      CompileOptions O;
      O.Backend = BK;
      CompiledFn F = compileFn(C, Body, Sh.RetType, O);
      ASSERT_TRUE(F.valid()) << Sh.Name;
      for (int X : ShapeInputs)
        EXPECT_EQ(callShape(F.entry(), Sh.RetType, X), Sh.Ref(X))
            << Sh.Name << " backend " << static_cast<int>(BK) << " x=" << X;
      Fns.push_back(std::move(F));
    }
    ASSERT_EQ(Fns[0].stats().CodeBytes, Fns[1].stats().CodeBytes) << Sh.Name;
    EXPECT_EQ(std::memcmp(Fns[0].entry(), Fns[1].entry(),
                          Fns[0].stats().CodeBytes),
              0)
        << Sh.Name << ": PCODE bytes differ from VCODE";
    for (const CompiledFn &F : Fns) {
      unsigned Rets = 0;
      for (const auto &[Off, D] : decodeAll(F))
        Rets += D.Cls == x86::InstrClass::Ret;
      EXPECT_EQ(Rets, 1u) << Sh.Name;
    }

    // The interpreter has no dynamic labels; it runs the other shapes.
    if (specInterpretable(C, Body, Sh.RetType)) {
      SpecInterp Interp(C, Body, Sh.RetType);
      for (int X : ShapeInputs) {
        std::int64_t IA[1] = {X};
        VoidCell = 0;
        Value R = Interp.run(IA, 1, nullptr, 0);
        double Got = Sh.RetType == EvalType::Double ? R.D
                     : Sh.RetType == EvalType::Void
                         ? VoidCell
                         : static_cast<int>(R.I);
        EXPECT_EQ(Got, Sh.Ref(X)) << Sh.Name << " interp x=" << X;
      }
    } else {
      EXPECT_STREQ(Sh.Name, "label-after-return");
    }

    // Snapshot round trip: a second service over the same directory loads
    // each backend's code (admission-verified) instead of compiling it.
    for (BackendKind BK : Backends) {
      ScratchDir Dir;
      cache::ServiceConfig SC;
      SC.SnapshotDir = Dir.Path;
      CompileOptions O;
      O.Backend = BK;
      {
        cache::CompileService Cold(SC);
        Context CC;
        ASSERT_TRUE(Cold.getOrCompile(CC, Sh.Build(CC), Sh.RetType, O));
      }
      cache::CompileService Warm(SC);
      Context WC;
      cache::FnHandle H = Warm.getOrCompile(WC, Sh.Build(WC), Sh.RetType, O);
      ASSERT_TRUE(H);
      EXPECT_TRUE(H->fromSnapshot())
          << Sh.Name << " backend " << static_cast<int>(BK);
      for (int X : ShapeInputs)
        EXPECT_EQ(callShape(H->entry(), Sh.RetType, X), Sh.Ref(X))
            << Sh.Name << " snapshot backend " << static_cast<int>(BK)
            << " x=" << X;
    }
  }
}

TEST(Reachability, SearchTreeHasOneRetAndNoReloadNops) {
  // A `$`-keyed binary search unrolled into a decision tree: one return per
  // leaf and per key match. It keeps exactly one ret (the shared epilogue)
  // and its only nops are erased prologue saves.
  std::vector<int> Keys;
  for (int I = 0; I < 64; ++I)
    Keys.push_back(3 * I + 1);
  Context C;
  VSpec Key = C.paramInt(0);
  std::function<Stmt(int, int)> Tree = [&](int Lo, int Hi) -> Stmt {
    if (Lo > Hi)
      return C.ret(C.intConst(-1));
    int Mid = (Lo + Hi) / 2;
    return C.block(
        {C.ifStmt(Expr(Key) == C.rcInt(Keys[Mid]), C.ret(C.rcInt(Mid))),
         C.ifStmt(Expr(Key) > C.rcInt(Keys[Mid]), Tree(Mid + 1, Hi),
                  Tree(Lo, Mid - 1))});
  };
  Stmt Body = Tree(0, static_cast<int>(Keys.size()) - 1);
  // push rbp; mov rbp, rsp; sub rsp, imm32; five 4-byte callee-save stores.
  constexpr std::size_t PrologueBytes = 1 + 3 + 7 + 5 * 4;
  for (BackendKind BK :
       {BackendKind::VCode, BackendKind::PCode, BackendKind::ICode}) {
    CompileOptions O;
    O.Backend = BK;
    CompiledFn F = compileFn(C, Body, EvalType::Int, O);
    auto *Find = F.as<int(int)>();
    for (int I = 0; I < static_cast<int>(Keys.size()); ++I) {
      EXPECT_EQ(Find(Keys[I]), I) << static_cast<int>(BK);
      EXPECT_EQ(Find(Keys[I] + 1), -1) << static_cast<int>(BK);
    }
    unsigned Rets = 0;
    for (const auto &[Off, D] : decodeAll(F)) {
      Rets += D.Cls == x86::InstrClass::Ret;
      if (D.Cls == x86::InstrClass::Nop)
        EXPECT_LT(Off, PrologueBytes)
            << static_cast<int>(BK) << ": nop outside the prologue";
    }
    EXPECT_EQ(Rets, 1u) << static_cast<int>(BK);
  }
}
