//===- tests/pcode_test.cpp - Copy-and-patch backend tests ----------------===//
//
// Covers the PCODE backend: stencil-library construction and its build-time
// self-validation, hole patching across every immediate/displacement class,
// label fixups over stencil-emitted branches (forward and backward), the
// byte-identity guarantee against VCODE, end-to-end execution through
// compileFn, and an 8-thread instantiation stress (run under
// -fsanitize=thread in CI — the library is a shared read-only singleton).
//
//===----------------------------------------------------------------------===//

#include "core/Compile.h"
#include "core/Context.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "pcode/PCode.h"
#include "vcode/VCode.h"
#include "x86/X86Decoder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

using namespace tcc;
using namespace tcc::core;

namespace {

// --- Stencil library -------------------------------------------------------

TEST(StencilLibrary, BuildsOnceAndSelfValidates) {
  // get() builds (and dual-render/decode-validates) the library on first
  // use; reaching this line at all means every stencil passed. It is a
  // process-wide singleton.
  const pcode::StencilLibrary &A = pcode::StencilLibrary::get();
  const pcode::StencilLibrary &B = pcode::StencilLibrary::get();
  EXPECT_EQ(&A, &B);
  EXPECT_GT(A.stencilCount(), 1000u);
  EXPECT_GT(A.buildCycles(), 0u);
  EXPECT_GT(A.tableBytes(), 0u);
}

TEST(StencilLibrary, ClassMaskMatchesRenderedVocabulary) {
  const pcode::StencilLibrary &L = pcode::StencilLibrary::get();
  auto Has = [&](x86::InstrClass C) {
    return (L.ClassMask & (std::uint64_t(1) << static_cast<unsigned>(C))) != 0;
  };
  // Classes the rendered stencils certainly contain...
  EXPECT_TRUE(Has(x86::InstrClass::AluRR));
  EXPECT_TRUE(Has(x86::InstrClass::AluRI));
  EXPECT_TRUE(Has(x86::InstrClass::MovImm32));
  EXPECT_TRUE(Has(x86::InstrClass::MovImm64));
  EXPECT_TRUE(Has(x86::InstrClass::ShiftImm));
  EXPECT_TRUE(Has(x86::InstrClass::Setcc));
  EXPECT_TRUE(Has(x86::InstrClass::Load));
  EXPECT_TRUE(Has(x86::InstrClass::Store32));
  // ...and classes the back end never emits must stay absent.
  EXPECT_FALSE(Has(x86::InstrClass::Lea));
  EXPECT_FALSE(Has(x86::InstrClass::JmpInd));
  EXPECT_FALSE(Has(x86::InstrClass::MovqRX));
  // Glue mask covers the fallback vocabulary but likewise never the
  // untouched classes.
  constexpr std::uint64_t Glue = pcode::StencilAssembler::glueClassMask();
  EXPECT_NE(Glue & (std::uint64_t(1)
                    << static_cast<unsigned>(x86::InstrClass::CallInd)),
            0u);
  EXPECT_EQ(Glue & (std::uint64_t(1)
                    << static_cast<unsigned>(x86::InstrClass::Lea)),
            0u);
}

TEST(StencilLibrary, PublishesBuildMetrics) {
  const pcode::StencilLibrary &L = pcode::StencilLibrary::get();
  auto &R = obs::MetricsRegistry::global();
  EXPECT_EQ(R.counter(obs::names::StencilLibCount).value(), L.stencilCount());
  EXPECT_EQ(R.counter(obs::names::StencilLibBytes).value(), L.tableBytes());
  EXPECT_GT(R.counter(obs::names::StencilLibBuildCycles).value(), 0u);
}

// --- Byte identity against VCODE -------------------------------------------

/// Drives an identical op sequence through both machines and compares the
/// finished bytes. The sequence is chosen to cross every stencil family:
/// pow2 / two-bit / general multiply, pow2 div and mod, both ALU immediate
/// classes, all three displacement classes, 64-bit constants of each size
/// class, compares, a branch over a negate, and the frame save-erasure that
/// finish() applies to unused pool registers.
template <class VM> std::size_t driveOpMix(VM &V) {
  V.enter();
  V.bindArgI(0, 0);
  V.bindArgI(1, 1);
  V.setI(2, 12345678);
  V.addI(3, 0, 1);
  V.subI(3, 3, 2);
  V.mulII(4, 3, 12);     // two-bit: (x<<3)+(x<<2)
  V.mulII(4, 4, 32);     // pow2
  V.mulII(4, 4, -7);     // general imul
  V.divII(4, 4, 8);      // pow2 division
  V.modII(2, 4, 16);     // pow2 remainder
  V.addII(2, 2, 3);      // imm8 class
  V.addII(2, 2, 100000); // imm32 class
  V.shlII(2, 2, 3);
  V.ushrII(2, 2, 2);
  V.setL(5, 0x123456789abLL);
  V.addL(5, 5, 5);
  V.sextIToL(6, 2);
  V.addL(5, 5, 6);
  auto T = V.newLabel();
  V.cmpSetI(vcode::CmpKind::LtS, 3, 2, 0);
  V.brTrueI(3, T); // forward branch, fixed up at bindLabel
  V.negI(2, 2);
  V.bindLabel(T);
  V.ldI(3, 1, 0);    // disp class 0
  V.ldI(3, 1, 8);    // disp8
  V.ldI(3, 1, 1000); // disp32
  V.stI(1, 4, 3);
  V.notI(3, 3);
  V.retI(2);
  V.finish();
  return V.codeBytes();
}

TEST(PCode, ByteIdenticalToVCodeOnOpMix) {
  std::uint8_t B1[4096], B2[4096];
  Arena A1(1 << 14), A2(1 << 14);
  vcode::VCode V(B1, sizeof(B1), &A1);
  pcode::PCode P(B2, sizeof(B2), &A2);
  std::size_t L1 = driveOpMix(V);
  std::size_t L2 = driveOpMix(P);
  ASSERT_EQ(L1, L2);
  EXPECT_EQ(V.instructionsEmitted(), P.instructionsEmitted());
  EXPECT_EQ(std::memcmp(B1, B2, L1), 0);
  // The mix must actually exercise the fast path, not fall back throughout.
  EXPECT_GT(P.assembler().stencilInstrs(), 0u);
  EXPECT_GT(P.assembler().patchesApplied(), 0u);
}

TEST(PCode, ImmediateHolePatchingAcrossClasses) {
  // Boundary immediates for every hole class: imm8 vs imm32 ALU forms, the
  // three setL size classes, and shift counts. Each value must produce
  // bytes identical to the encoder's own choice of encoding.
  const std::int32_t Imm32s[] = {1,   -1,        127,        -128,
                                 128, -129,      0x7fffffff, INT32_MIN,
                                 42,  0x12345678};
  for (std::int32_t Imm : Imm32s) {
    std::uint8_t B1[512], B2[512];
    Arena A1(1 << 12), A2(1 << 12);
    vcode::VCode V(B1, sizeof(B1), &A1);
    pcode::PCode P(B2, sizeof(B2), &A2);
    auto Drive = [Imm](auto &M) {
      M.enter();
      M.bindArgI(0, 0);
      M.setI(1, Imm);
      M.addII(2, 0, Imm);
      M.cmpSetI(vcode::CmpKind::LtS, 2, 2, 0);
      M.retI(2);
      M.finish();
      return M.codeBytes();
    };
    std::size_t L1 = Drive(V), L2 = Drive(P);
    ASSERT_EQ(L1, L2) << "imm " << Imm;
    EXPECT_EQ(std::memcmp(B1, B2, L1), 0) << "imm " << Imm;
  }
  const std::int64_t Imm64s[] = {0, 1, -1, 0x7fffffffLL, 0x80000000LL,
                                 -0x80000000LL, -0x80000001LL,
                                 0x0123456789abcdefLL, INT64_MIN};
  for (std::int64_t Imm : Imm64s) {
    std::uint8_t B1[512], B2[512];
    Arena A1(1 << 12), A2(1 << 12);
    vcode::VCode V(B1, sizeof(B1), &A1);
    pcode::PCode P(B2, sizeof(B2), &A2);
    auto Drive = [Imm](auto &M) {
      M.enter();
      M.setL(0, Imm);
      M.retL(0);
      M.finish();
      return M.codeBytes();
    };
    std::size_t L1 = Drive(V), L2 = Drive(P);
    ASSERT_EQ(L1, L2) << "imm64 " << Imm;
    EXPECT_EQ(std::memcmp(B1, B2, L1), 0) << "imm64 " << Imm;
  }
}

TEST(PCode, ForwardAndBackwardBranchesPatch) {
  // A loop (backward branch into stencil-emitted code) containing a guarded
  // skip (forward branch): both fixup directions must land on the same
  // offsets VCODE computes, because the branch targets sit inside
  // stencil-copied regions.
  auto Drive = [](auto &M) {
    M.enter();
    M.bindArgI(0, 0);
    M.setI(1, 0); // acc
    M.setI(2, 0); // i
    auto Head = M.newLabel();
    auto Skip = M.newLabel();
    M.bindLabel(Head);
    M.addI(1, 1, 2);
    M.cmpSetI(vcode::CmpKind::Eq, 3, 2, 5);
    M.brTrueI(3, Skip); // forward
    M.addII(1, 1, 100);
    M.bindLabel(Skip);
    M.addII(2, 2, 1);
    M.cmpSetI(vcode::CmpKind::LtS, 3, 2, 0);
    M.brTrueI(3, Head); // backward
    M.retI(1);
    M.finish();
    return M.codeBytes();
  };
  std::uint8_t B1[1024], B2[1024];
  Arena A1(1 << 12), A2(1 << 12);
  vcode::VCode V(B1, sizeof(B1), &A1);
  pcode::PCode P(B2, sizeof(B2), &A2);
  std::size_t L1 = Drive(V), L2 = Drive(P);
  ASSERT_EQ(L1, L2);
  EXPECT_EQ(std::memcmp(B1, B2, L1), 0);
}

// --- End-to-end through compileFn ------------------------------------------

Stmt sumOfSquares(Context &C) {
  VSpec N = C.paramInt(0);
  VSpec Acc = C.localInt();
  VSpec I = C.localInt();
  Stmt Init = C.assign(Acc, C.intConst(0));
  Stmt Body = C.assign(Acc, Expr(Acc) + Expr(I) * Expr(I));
  Stmt Loop = C.forStmt(I, C.intConst(0), vcode::CmpKind::LtS, Expr(N),
                        C.intConst(1), Body);
  return C.block({Init, Loop, C.ret(Expr(Acc))});
}

int sumOfSquaresRef(int N) {
  int Acc = 0;
  for (int I = 0; I < N; ++I)
    Acc += I * I;
  return Acc;
}

TEST(PCode, DroppedFinalJumpKeepsTraceInStep) {
  // A return that ends the code jumps to the next byte, so finish() drops
  // that jump. The stencil trace (the stencil bench replays it) and the
  // stencil instruction count must shrink with the bytes: replaying the
  // trace reproduces the function past the prologue, whose save stores
  // finish() nop-fills in place.
  const pcode::StencilLibrary &Lib = pcode::StencilLibrary::get();
  for (int Case = 0; Case < 3; ++Case) {
    std::uint8_t Buf[256];
    Arena A(1 << 12);
    std::vector<pcode::StencilAssembler::TraceEnt> Trace;
    pcode::StencilAssembler::setTrace(&Trace);
    pcode::PCode P(Buf, sizeof(Buf), &A);
    P.enter();
    P.bindArgI(0, 0);
    P.addII(0, 0, 5);
    if (Case == 0)
      P.retI(0);
    else if (Case == 1)
      P.retL(0);
    else
      P.retII(42);
    P.finish();
    pcode::StencilAssembler::setTrace(nullptr);

    std::uint8_t Re[sizeof(Buf) + x86::Assembler::StencilWindow];
    x86::Assembler R(Re, sizeof(Re));
    unsigned Instrs = 0;
    for (const auto &E : Trace) {
      std::size_t At = R.appendStencil(E.S->Bytes, E.S->Len, E.S->Instrs);
      if (E.HasPatch)
        pcode::applyStencilHoles(Re + At, *E.S, E.V);
      EXPECT_FALSE(E.IsBranch) << "case " << Case;
      Instrs += E.S->Instrs;
    }
    EXPECT_EQ(R.pc(), P.codeBytes()) << "case " << Case;
    EXPECT_EQ(Instrs, P.assembler().stencilInstrs()) << "case " << Case;
    EXPECT_EQ(Instrs, P.instructionsEmitted()) << "case " << Case;
    const std::size_t Prologue = Lib.Enter.S.Len;
    EXPECT_EQ(std::memcmp(Re + Prologue, Buf + Prologue,
                          P.codeBytes() - Prologue),
              0)
        << "case " << Case;
  }
}

TEST(PCode, CompileFnProducesRunnableCode) {
  Context C;
  Stmt Fn = sumOfSquares(C);
  CompiledFn F = compilePCode(C, Fn, EvalType::Int);
  ASSERT_TRUE(F.valid());
  auto *P = F.as<int(int)>();
  for (int N : {0, 1, 5, 100})
    EXPECT_EQ(P(N), sumOfSquaresRef(N)) << "N=" << N;
  EXPECT_GT(F.stats().MachineInstrs, 0u);
}

TEST(PCode, CompileFnMatchesVCodeSizeAndCounts) {
  // The same spec through both back ends: the byte-identity guarantee
  // implies equal code size and instruction count (the regions themselves
  // are separately owned, so sizes are the observable).
  Context C1, C2;
  CompiledFn FV = compileVCode(C1, sumOfSquares(C1), EvalType::Int);
  CompiledFn FP = compilePCode(C2, sumOfSquares(C2), EvalType::Int);
  ASSERT_TRUE(FV.valid());
  ASSERT_TRUE(FP.valid());
  EXPECT_EQ(FV.stats().CodeBytes, FP.stats().CodeBytes);
  EXPECT_EQ(FV.stats().MachineInstrs, FP.stats().MachineInstrs);
  EXPECT_EQ(std::memcmp(FV.entry(), FP.entry(), FV.stats().CodeBytes), 0);
}

TEST(PCode, VerifiedCompileIsAcceptClean) {
  // TICKC_VERIFY-equivalent: the machine audit (strict decode + stencil
  // class mask) must accept PCODE output.
  Context C;
  CompileOptions O;
  O.Backend = BackendKind::PCode;
  O.Verify = true;
  CompiledFn F = compileFn(C, sumOfSquares(C), EvalType::Int, O);
  ASSERT_TRUE(F.valid());
  EXPECT_EQ(F.as<int(int)>()(10), sumOfSquaresRef(10));
}

TEST(PCode, EightThreadInstantiationStress) {
  // Eight threads instantiating concurrently: the stencil library is a
  // shared read-only singleton after construction, so the only writes are
  // into thread-private code buffers. TSan runs this in CI.
  constexpr int Threads = 8, Reps = 24;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&Failures, T] {
      for (int Rep = 0; Rep < Reps; ++Rep) {
        Context C;
        CompiledFn F = compilePCode(C, sumOfSquares(C), EvalType::Int);
        int N = 3 + (T + Rep) % 7;
        if (!F.valid() || F.as<int(int)>()(N) != sumOfSquaresRef(N))
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (auto &Th : Pool)
    Th.join();
  EXPECT_EQ(Failures.load(), 0);
}

} // namespace
