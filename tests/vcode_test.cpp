//===- tests/vcode_test.cpp - VCODE abstract machine tests ----------------===//
//
// Exercises the one-pass back end: every operation, spill handling under
// register pressure, control flow, calls, and the strength-reduction paths.
//
//===----------------------------------------------------------------------===//

#include "vcode/VCode.h"

#include "support/CodeBuffer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ostream>
#include <vector>

using namespace tcc;
using namespace tcc::vcode;

namespace {

/// Helper that owns a code region and runs an emission callback.
class Jit {
public:
  explicit Jit(std::size_t Cap = 1 << 16)
      : Region(Cap, CodePlacement::Sequential), V(Region.base(), Cap) {}

  template <typename FnT> FnT *finish() {
    void *Entry = V.finish();
    Region.makeExecutable();
    return reinterpret_cast<FnT *>(Entry);
  }

  CodeRegion Region;
  VCode V;
};

/// Builds int fn(int,int) { return <op>(a, b); } via the given emitter.
int runBinI(const std::function<void(VCode &, Reg, Reg, Reg)> &Op, int A,
            int B) {
  Jit J;
  VCode &V = J.V;
  V.enter();
  Reg Ra = V.getreg(), Rb = V.getreg();
  V.bindArgI(0, Ra);
  V.bindArgI(1, Rb);
  Reg Rd = V.getreg();
  Op(V, Rd, Ra, Rb);
  V.retI(Rd);
  return J.finish<int(int, int)>()(A, B);
}

struct BinCase {
  const char *Name;
  void (VCode::*Emit)(Reg, Reg, Reg);
  int (*Ref)(int, int);
};

/// Prints a case by its name; the default printer dumps the raw pointer
/// bytes, which change from run to run and so would make the test's
/// listed name unstable.
void PrintTo(const BinCase &C, std::ostream *OS) { *OS << C.Name; }

// add/sub/mul references wrap in unsigned arithmetic, as the generated
// 32-bit instructions do (signed overflow would be undefined here).
const BinCase BinCases[] = {
    {"add", &VCode::addI,
     [](int A, int B) {
       return static_cast<int>(static_cast<unsigned>(A) + B);
     }},
    {"sub", &VCode::subI,
     [](int A, int B) {
       return static_cast<int>(static_cast<unsigned>(A) - B);
     }},
    {"mul", &VCode::mulI,
     [](int A, int B) {
       return static_cast<int>(static_cast<unsigned>(A) * B);
     }},
    {"and", &VCode::andI, [](int A, int B) { return A & B; }},
    {"or", &VCode::orI, [](int A, int B) { return A | B; }},
    {"xor", &VCode::xorI, [](int A, int B) { return A ^ B; }},
};

class VCodeBinOp : public ::testing::TestWithParam<BinCase> {};

TEST_P(VCodeBinOp, MatchesReference) {
  const BinCase &C = GetParam();
  const int Values[] = {0, 1, -1, 7, -13, 1000000, -45, 2147480000};
  for (int A : Values)
    for (int B : Values) {
      int Got = runBinI(
          [&](VCode &V, Reg D, Reg X, Reg Y) { (V.*C.Emit)(D, X, Y); }, A, B);
      EXPECT_EQ(Got, C.Ref(A, B)) << C.Name << "(" << A << ", " << B << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(AllOps, VCodeBinOp, ::testing::ValuesIn(BinCases),
                         [](const auto &Info) { return Info.param.Name; });

TEST(VCodeArith, DivMod) {
  const int As[] = {0, 1, -1, 42, -42, 100000, -99999};
  const int Bs[] = {1, -1, 2, -2, 7, -7, 4096};
  for (int A : As)
    for (int B : Bs) {
      EXPECT_EQ(runBinI([](VCode &V, Reg D, Reg X, Reg Y) { V.divI(D, X, Y); },
                        A, B),
                A / B)
          << A << " / " << B;
      EXPECT_EQ(runBinI([](VCode &V, Reg D, Reg X, Reg Y) { V.modI(D, X, Y); },
                        A, B),
                A % B)
          << A << " % " << B;
    }
}

TEST(VCodeArith, UnsignedDivMod) {
  EXPECT_EQ(runBinI([](VCode &V, Reg D, Reg X, Reg Y) { V.divUI(D, X, Y); },
                    -2, 3),
            static_cast<int>(0xFFFFFFFEu / 3));
  EXPECT_EQ(runBinI([](VCode &V, Reg D, Reg X, Reg Y) { V.modUI(D, X, Y); },
                    -2, 3),
            static_cast<int>(0xFFFFFFFEu % 3));
}

TEST(VCodeArith, Shifts) {
  for (int A : {1, -1, 0x40000000, -256, 12345})
    for (int B : {0, 1, 4, 31}) {
      EXPECT_EQ(runBinI([](VCode &V, Reg D, Reg X, Reg Y) { V.shlI(D, X, Y); },
                        A, B),
                A << B);
      EXPECT_EQ(runBinI([](VCode &V, Reg D, Reg X, Reg Y) { V.shrI(D, X, Y); },
                        A, B),
                A >> B);
      EXPECT_EQ(
          runBinI([](VCode &V, Reg D, Reg X, Reg Y) { V.ushrI(D, X, Y); }, A,
                  B),
          static_cast<int>(static_cast<unsigned>(A) >> B));
    }
}

TEST(VCodeArith, AliasedOperands) {
  // d == a, d == b, and d == a == b must all be handled by the two-operand
  // conversion logic.
  Jit J;
  VCode &V = J.V;
  V.enter();
  Reg A = V.getreg(), B = V.getreg();
  V.bindArgI(0, A);
  V.bindArgI(1, B);
  V.subI(A, A, B); // a = a - b
  V.subI(B, A, B); // b = (a-b) - b
  V.addI(B, B, B); // b *= 2
  V.retI(B);
  auto *Fn = J.finish<int(int, int)>();
  EXPECT_EQ(Fn(10, 3), ((10 - 3) - 3) * 2);
}

TEST(VCodeArith, NegNot) {
  Jit J;
  VCode &V = J.V;
  V.enter();
  Reg A = V.getreg();
  V.bindArgI(0, A);
  Reg B = V.getreg();
  V.negI(B, A);
  Reg C = V.getreg();
  V.notI(C, B);
  Reg D = V.getreg();
  V.addI(D, B, C);
  V.retI(D); // -a + ~(-a) == -1 always
  auto *Fn = J.finish<int(int)>();
  EXPECT_EQ(Fn(5), -1);
  EXPECT_EQ(Fn(-100), -1);
}

// --- Immediate forms ---------------------------------------------------------

int runUnaryImm(const std::function<void(VCode &, Reg, Reg)> &Op, int A) {
  Jit J;
  VCode &V = J.V;
  V.enter();
  Reg Ra = V.getreg();
  V.bindArgI(0, Ra);
  Reg Rd = V.getreg();
  Op(V, Rd, Ra);
  V.retI(Rd);
  return J.finish<int(int)>()(A);
}

TEST(VCodeImm, MulStrengthReduction) {
  // Sweep multiplier shapes: zero, one, powers of two, two-bit values,
  // general values, negatives — all strength-reduction paths (paper §4.4).
  const int Multipliers[] = {0,  1,  -1, 2,   4,   8,    1024, 3,
                             5,  6,  9,  12,  160, 7,    11,   100,
                             -2, -8, -3, -12, -7,  12345};
  const int Values[] = {0, 1, -1, 3, -17, 100, 4096, -30000, 111111};
  for (int M : Multipliers)
    for (int A : Values) {
      int Got = runUnaryImm(
          [&](VCode &V, Reg D, Reg S) { V.mulII(D, S, M); }, A);
      EXPECT_EQ(Got, A * M) << A << " * " << M;
    }
}

TEST(VCodeImm, DivStrengthReduction) {
  const int Divisors[] = {1,  -1, 2,  4,   8,    1024, 3,    7,
                          -3, -4, -7, 100, 641, 999983, -1000, 2147483647};
  const int Values[] = {0, 1, -1, 3, -17, 100, 4097, -30001, 111111, -7};
  for (int M : Divisors)
    for (int A : Values) {
      int Got = runUnaryImm(
          [&](VCode &V, Reg D, Reg S) { V.divII(D, S, M); }, A);
      EXPECT_EQ(Got, A / M) << A << " / " << M << " (C truncation)";
      int GotMod = runUnaryImm(
          [&](VCode &V, Reg D, Reg S) { V.modII(D, S, M); }, A);
      EXPECT_EQ(GotMod, A % M) << A << " % " << M;
    }
}

TEST(VCodeImm, AddSubAndOrXor) {
  for (int Imm : {0, 1, -1, 127, 128, -129, 100000})
    for (int A : {0, 5, -6, 1 << 30}) {
      EXPECT_EQ(runUnaryImm(
                    [&](VCode &V, Reg D, Reg S) { V.addII(D, S, Imm); }, A),
                A + Imm);
      EXPECT_EQ(runUnaryImm(
                    [&](VCode &V, Reg D, Reg S) { V.subII(D, S, Imm); }, A),
                A - Imm);
      EXPECT_EQ(runUnaryImm(
                    [&](VCode &V, Reg D, Reg S) { V.andII(D, S, Imm); }, A),
                A & Imm);
      EXPECT_EQ(runUnaryImm(
                    [&](VCode &V, Reg D, Reg S) { V.orII(D, S, Imm); }, A),
                A | Imm);
      EXPECT_EQ(runUnaryImm(
                    [&](VCode &V, Reg D, Reg S) { V.xorII(D, S, Imm); }, A),
                A ^ Imm);
    }
}

TEST(VCodeImm, ShiftImmediates) {
  for (std::uint8_t Imm : {0, 1, 5, 31})
    for (int A : {1, -1, 12345, -99}) {
      EXPECT_EQ(runUnaryImm(
                    [&](VCode &V, Reg D, Reg S) { V.shlII(D, S, Imm); }, A),
                A << Imm);
      EXPECT_EQ(runUnaryImm(
                    [&](VCode &V, Reg D, Reg S) { V.shrII(D, S, Imm); }, A),
                A >> Imm);
      EXPECT_EQ(runUnaryImm(
                    [&](VCode &V, Reg D, Reg S) { V.ushrII(D, S, Imm); }, A),
                static_cast<int>(static_cast<unsigned>(A) >> Imm));
    }
}

// --- Spill behaviour -----------------------------------------------------------

TEST(VCodeSpill, PressurePastPoolSpills) {
  // Materialize 2*pool values, then sum them; getreg must hand out negative
  // designators past the pool and all operations must still be correct.
  Jit J;
  VCode &V = J.V;
  V.enter();
  constexpr int N = 2 * VCode::NumIntPool + 3;
  std::vector<Reg> Regs;
  bool SawSpill = false;
  for (int I = 0; I < N; ++I) {
    Reg R = V.getreg();
    SawSpill |= VCode::isSpill(R);
    V.setI(R, (I + 1) * 10);
    Regs.push_back(R);
  }
  EXPECT_TRUE(SawSpill) << "pool should have been exhausted";
  Reg Sum = Regs[0];
  for (int I = 1; I < N; ++I)
    V.addI(Sum, Sum, Regs[I]);
  V.retI(Sum);
  auto *Fn = J.finish<int()>();
  EXPECT_EQ(Fn(), 10 * N * (N + 1) / 2);
}

TEST(VCodeSpill, PutregRecyclesSlots) {
  Jit J;
  VCode &V = J.V;
  for (int I = 0; I < VCode::NumIntPool; ++I)
    (void)V.getreg();
  Reg S1 = V.getreg();
  ASSERT_TRUE(VCode::isSpill(S1));
  V.putreg(S1);
  Reg S2 = V.getreg();
  EXPECT_EQ(S1, S2) << "freed spill slot should be reused";
}

TEST(VCodeSpill, StaticRegsAreSeparate) {
  Reg S0 = VCode::staticReg(0);
  Reg S1 = VCode::staticReg(1);
  EXPECT_NE(S0, S1);
  EXPECT_FALSE(VCode::isSpill(S0));
  // Static registers can be used as ordinary operands.
  Jit J;
  VCode &V = J.V;
  V.enter();
  Reg A = V.getreg();
  V.bindArgI(0, A);
  V.setI(S0, 100);
  V.addI(S1, S0, A);
  V.retI(S1);
  auto *Fn = J.finish<int(int)>();
  EXPECT_EQ(Fn(11), 111);
}

// --- Control flow -----------------------------------------------------------------

TEST(VCodeFlow, LoopSum) {
  // for (i = 0, s = 0; i < n; i++) s += i; return s;
  Jit J;
  VCode &V = J.V;
  V.enter();
  Reg N = V.getreg();
  V.bindArgI(0, N);
  Reg I = V.getreg(), S = V.getreg();
  V.setI(I, 0);
  V.setI(S, 0);
  Label Head = V.newLabel(), Done = V.newLabel();
  V.bindLabel(Head);
  V.brCmpI(CmpKind::GeS, I, N, Done);
  V.addI(S, S, I);
  V.addII(I, I, 1);
  V.jump(Head);
  V.bindLabel(Done);
  V.retI(S);
  auto *Fn = J.finish<int(int)>();
  EXPECT_EQ(Fn(0), 0);
  EXPECT_EQ(Fn(1), 0);
  EXPECT_EQ(Fn(10), 45);
  EXPECT_EQ(Fn(1000), 499500);
}

TEST(VCodeFlow, BackwardAndForwardBranches) {
  // if (a == b) return 7; return 8;
  Jit J;
  VCode &V = J.V;
  V.enter();
  Reg A = V.getreg(), B = V.getreg();
  V.bindArgI(0, A);
  V.bindArgI(1, B);
  Label Eq = V.newLabel();
  V.brCmpI(CmpKind::Eq, A, B, Eq);
  Reg R = V.getreg();
  V.setI(R, 8);
  V.retI(R);
  V.bindLabel(Eq);
  V.setI(R, 7);
  V.retI(R);
  auto *Fn = J.finish<int(int, int)>();
  EXPECT_EQ(Fn(3, 3), 7);
  EXPECT_EQ(Fn(3, 4), 8);
}

class VCodeCmp : public ::testing::TestWithParam<CmpKind> {};

TEST_P(VCodeCmp, SetMatchesReference) {
  CmpKind K = GetParam();
  auto Ref = [K](int A, int B) -> int {
    auto UA = static_cast<unsigned>(A), UB = static_cast<unsigned>(B);
    switch (K) {
    case CmpKind::Eq:
      return A == B;
    case CmpKind::Ne:
      return A != B;
    case CmpKind::LtS:
      return A < B;
    case CmpKind::LeS:
      return A <= B;
    case CmpKind::GtS:
      return A > B;
    case CmpKind::GeS:
      return A >= B;
    case CmpKind::LtU:
      return UA < UB;
    case CmpKind::LeU:
      return UA <= UB;
    case CmpKind::GtU:
      return UA > UB;
    case CmpKind::GeU:
      return UA >= UB;
    }
    return -1;
  };
  for (int A : {0, 1, -1, 100, -100})
    for (int B : {0, 1, -1, 100, -100}) {
      int Got = runBinI(
          [&](VCode &V, Reg D, Reg X, Reg Y) { V.cmpSetI(K, D, X, Y); }, A, B);
      EXPECT_EQ(Got, Ref(A, B))
          << "cmp kind " << static_cast<int>(K) << " on " << A << "," << B;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, VCodeCmp,
    ::testing::Values(CmpKind::Eq, CmpKind::Ne, CmpKind::LtS, CmpKind::LeS,
                      CmpKind::GtS, CmpKind::GeS, CmpKind::LtU, CmpKind::LeU,
                      CmpKind::GtU, CmpKind::GeU));

TEST(VCodeCmpHelpers, NegateAndSwapAgree) {
  for (int KInt = 0; KInt <= static_cast<int>(CmpKind::GeU); ++KInt) {
    auto K = static_cast<CmpKind>(KInt);
    for (int A : {0, 1, -5, 7})
      for (int B : {0, 1, -5, 7}) {
        int Plain = runBinI(
            [&](VCode &V, Reg D, Reg X, Reg Y) { V.cmpSetI(K, D, X, Y); }, A,
            B);
        int Neg = runBinI(
            [&](VCode &V, Reg D, Reg X, Reg Y) {
              V.cmpSetI(negate(K), D, X, Y);
            },
            A, B);
        EXPECT_EQ(Plain, 1 - Neg);
        int Swapped = runBinI(
            [&](VCode &V, Reg D, Reg X, Reg Y) {
              V.cmpSetI(swapOperands(K), D, X, Y);
            },
            B, A);
        EXPECT_EQ(Plain, Swapped);
      }
  }
}

// --- Memory -----------------------------------------------------------------------

TEST(VCodeMem, LoadStoreWidths) {
  struct Mixed {
    std::int8_t B;
    std::uint8_t UB;
    std::int16_t H;
    std::uint16_t UH;
    std::int32_t W;
    std::int64_t L;
  };
  Mixed M = {-5, 200, -1000, 50000, -123456, -5000000000ll};

  Jit J;
  VCode &V = J.V;
  V.enter();
  Reg P = V.getreg();
  V.bindArgI(0, P);
  Reg Acc = V.getreg(), T = V.getreg();
  V.ldI8s(Acc, P, offsetof(Mixed, B));
  V.ldI8u(T, P, offsetof(Mixed, UB));
  V.addI(Acc, Acc, T);
  V.ldI16s(T, P, offsetof(Mixed, H));
  V.addI(Acc, Acc, T);
  V.ldI16u(T, P, offsetof(Mixed, UH));
  V.addI(Acc, Acc, T);
  V.ldI(T, P, offsetof(Mixed, W));
  V.addI(Acc, Acc, T);
  V.retI(Acc);
  auto *Fn = J.finish<int(Mixed *)>();
  EXPECT_EQ(Fn(&M), -5 + 200 - 1000 + 50000 - 123456);
}

TEST(VCodeMem, StoreWidths) {
  Jit J;
  VCode &V = J.V;
  V.enter();
  Reg P = V.getreg();
  V.bindArgI(0, P);
  Reg T = V.getreg();
  V.setI(T, 0x11223344);
  V.stI8(P, 0, T);
  V.stI16(P, 2, T);
  V.stI(P, 4, T);
  V.setL(T, 0x0102030405060708ll);
  V.stL(P, 8, T);
  V.retVoid();
  auto *Fn = J.finish<void(std::uint8_t *)>();
  std::uint8_t Buf[16] = {0};
  Fn(Buf);
  EXPECT_EQ(Buf[0], 0x44);
  EXPECT_EQ(Buf[2], 0x44);
  EXPECT_EQ(Buf[3], 0x33);
  std::uint32_t W;
  std::memcpy(&W, Buf + 4, 4);
  EXPECT_EQ(W, 0x11223344u);
  std::uint64_t L;
  std::memcpy(&L, Buf + 8, 8);
  EXPECT_EQ(L, 0x0102030405060708ull);
}

TEST(VCodeMem, PointerIndexing) {
  // return p[i] for int* p — exercises sextIToL / shlLI / addL.
  Jit J;
  VCode &V = J.V;
  V.enter();
  Reg P = V.getreg(), I = V.getreg();
  V.bindArgI(0, P);
  V.bindArgI(1, I);
  Reg Addr = V.getreg();
  V.sextIToL(Addr, I);
  V.shlLI(Addr, Addr, 2);
  V.addL(Addr, P, Addr);
  Reg D = V.getreg();
  V.ldI(D, Addr, 0);
  V.retI(D);
  auto *Fn = J.finish<int(const int *, int)>();
  int Arr[] = {10, 20, 30, 40};
  EXPECT_EQ(Fn(Arr, 0), 10);
  EXPECT_EQ(Fn(Arr, 3), 40);
}

// --- Doubles -------------------------------------------------------------------------

TEST(VCodeDouble, Arithmetic) {
  Jit J;
  VCode &V = J.V;
  V.enter();
  FReg A = V.getfreg(), B = V.getfreg();
  V.bindArgD(0, A);
  V.bindArgD(1, B);
  FReg T = V.getfreg();
  V.mulD(T, A, B);
  V.addD(T, T, A);
  V.divD(T, T, B);
  V.retD(T);
  auto *Fn = J.finish<double(double, double)>();
  EXPECT_DOUBLE_EQ(Fn(3.0, 4.0), (3.0 * 4.0 + 3.0) / 4.0);
}

TEST(VCodeDouble, NegAndConst) {
  Jit J;
  VCode &V = J.V;
  V.enter();
  FReg A = V.getfreg();
  V.bindArgD(0, A);
  FReg C = V.getfreg();
  V.setD(C, 2.5);
  FReg N = V.getfreg();
  V.negD(N, A);
  V.mulD(N, N, C);
  V.retD(N);
  auto *Fn = J.finish<double(double)>();
  EXPECT_DOUBLE_EQ(Fn(4.0), -10.0);
}

TEST(VCodeDouble, Conversions) {
  Jit J;
  VCode &V = J.V;
  V.enter();
  Reg I = V.getreg();
  V.bindArgI(0, I);
  FReg D = V.getfreg();
  V.cvtIToD(D, I);
  FReg H = V.getfreg();
  V.setD(H, 0.5);
  V.mulD(D, D, H);
  Reg R = V.getreg();
  V.cvtDToI(R, D);
  V.retI(R);
  auto *Fn = J.finish<int(int)>();
  EXPECT_EQ(Fn(9), 4);
  EXPECT_EQ(Fn(-9), -4);
}

TEST(VCodeDouble, CompareAndBranch) {
  Jit J;
  VCode &V = J.V;
  V.enter();
  FReg A = V.getfreg(), B = V.getfreg();
  V.bindArgD(0, A);
  V.bindArgD(1, B);
  Label Lt = V.newLabel();
  V.brCmpD(CmpKind::LtS, A, B, Lt);
  Reg R = V.getreg();
  V.setI(R, 0);
  V.retI(R);
  V.bindLabel(Lt);
  V.setI(R, 1);
  V.retI(R);
  auto *Fn = J.finish<int(double, double)>();
  EXPECT_EQ(Fn(1.0, 2.0), 1);
  EXPECT_EQ(Fn(2.0, 1.0), 0);
  EXPECT_EQ(Fn(1.0, 1.0), 0);
}

TEST(VCodeDouble, SpilledDoubles) {
  Jit J;
  VCode &V = J.V;
  V.enter();
  constexpr int N = VCode::NumFloatPool + 4;
  std::vector<FReg> Regs;
  for (int I = 0; I < N; ++I) {
    FReg R = V.getfreg();
    V.setD(R, I + 0.5);
    Regs.push_back(R);
  }
  EXPECT_TRUE(VCode::isSpill(Regs.back()));
  FReg Sum = Regs[0];
  for (int I = 1; I < N; ++I)
    V.addD(Sum, Sum, Regs[I]);
  V.retD(Sum);
  auto *Fn = J.finish<double()>();
  double Want = 0;
  for (int I = 0; I < N; ++I)
    Want += I + 0.5;
  EXPECT_DOUBLE_EQ(Fn(), Want);
}

// --- Calls ------------------------------------------------------------------------------

static int GlobalHits = 0;
int observe3(int A, int B, int C) {
  ++GlobalHits;
  return A * 100 + B * 10 + C;
}

TEST(VCodeCall, DirectCall) {
  Jit J;
  VCode &V = J.V;
  V.enter();
  Reg A = V.getreg();
  V.bindArgI(0, A);
  Reg B = V.getreg();
  V.setI(B, 7);
  V.prepareCallArgI(0, A);
  V.prepareCallArgI(1, B);
  V.prepareCallArgII(2, 9);
  V.emitCall(reinterpret_cast<const void *>(&observe3));
  Reg R = V.getreg();
  V.resultToI(R);
  V.addI(R, R, B); // callee-saved pool value survives the call
  V.retI(R);
  auto *Fn = J.finish<int(int)>();
  GlobalHits = 0;
  EXPECT_EQ(Fn(3), 379 + 7);
  EXPECT_EQ(GlobalHits, 1);
}

TEST(VCodeCall, IndirectCall) {
  Jit J;
  VCode &V = J.V;
  V.enter();
  Reg FnPtr = V.getreg(), X = V.getreg();
  V.bindArgI(0, FnPtr);
  V.bindArgI(1, X);
  V.prepareCallArgI(0, X);
  V.prepareCallArgII(1, 2);
  V.prepareCallArgII(2, 1);
  V.emitCallIndirect(FnPtr);
  Reg R = V.getreg();
  V.resultToI(R);
  V.retI(R);
  auto *Fn = J.finish<int(int (*)(int, int, int), int)>();
  EXPECT_EQ(Fn(&observe3, 5), 521);
}

TEST(VCodeCall, VariadicCallee) {
  // snprintf through the variadic path: AL must carry the FP arg count.
  Jit J;
  VCode &V = J.V;
  V.enter();
  Reg Buf = V.getreg();
  V.bindArgI(0, Buf);
  V.prepareCallArgI(0, Buf);
  V.prepareCallArgII(1, 32);
  static const char Fmt[] = "%d-%d";
  V.prepareCallArgP(2, Fmt);
  V.prepareCallArgII(3, 12);
  V.prepareCallArgII(4, 34);
  V.emitCall(reinterpret_cast<const void *>(&snprintf));
  V.retVoid();
  auto *Fn = J.finish<void(char *)>();
  char Out[32] = {0};
  Fn(Out);
  EXPECT_STREQ(Out, "12-34");
}

// --- Statistics / misc -----------------------------------------------------------------

TEST(VCodeStats, InstructionCountGrows) {
  Jit J;
  VCode &V = J.V;
  V.enter();
  unsigned AfterProlog = V.instructionsEmitted();
  EXPECT_GT(AfterProlog, 0u);
  Reg R = V.getreg();
  V.setI(R, 1);
  EXPECT_GT(V.instructionsEmitted(), AfterProlog);
  V.retI(R);
  auto *Fn = J.finish<int()>();
  EXPECT_EQ(Fn(), 1);
  EXPECT_GT(V.codeBytes(), 0u);
}

TEST(VCodeStats, Longs) {
  Jit J;
  VCode &V = J.V;
  V.enter();
  Reg A = V.getreg(), B = V.getreg();
  V.bindArgI(0, A);
  V.bindArgI(1, B);
  Reg T = V.getreg();
  V.mulL(T, A, B);
  V.addLI(T, T, 5);
  V.retL(T);
  auto *Fn = J.finish<std::int64_t(std::int64_t, std::int64_t)>();
  EXPECT_EQ(Fn(3000000000ll, 4), 12000000005ll);
}

} // namespace
