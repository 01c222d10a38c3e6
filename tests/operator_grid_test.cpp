//===- tests/operator_grid_test.cpp - Every operator on every tier --------===//
//
// One spec semantics, checked operator by operator. Every (BinOp | UnOp |
// CmpKind, EvalType) pair that Context accepts is run on edge values (0,
// ±1, ±2, the int32 and int64 extremes, 1e10, -0.0, NaN) in each operand
// form the compiler treats differently — both operands constant (folded at
// instantiation), one constant (the immediate and strength-reduced forms),
// both in registers — on every tier: the SpecInterp interpreter, VCODE,
// PCODE and ICODE. Comparisons run both as values and as branch conditions.
// Integers must agree bit for bit, doubles bit for bit or both NaN, every
// operation that takes idiv's divide-error trap must trap everywhere, and
// PCODE must emit exactly VCODE's bytes.
//
//===----------------------------------------------------------------------===//

#include "core/Compile.h"
#include "core/Context.h"
#include "core/SpecInterp.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

using namespace tcc;
using namespace tcc::core;

namespace {

using I64 = std::int64_t;
constexpr I64 I32Min = std::numeric_limits<std::int32_t>::min();
constexpr I64 I32Max = std::numeric_limits<std::int32_t>::max();
constexpr I64 I64Min = std::numeric_limits<std::int64_t>::min();
constexpr I64 I64Max = std::numeric_limits<std::int64_t>::max();

/// One operand or result: I for the integer classes, D for Double.
struct Out {
  I64 I = 0;
  double D = 0;
};

std::vector<Out> edgeValues(EvalType T) {
  std::vector<I64> Ints = {0, 1, -1, 2, -2, I32Min, I32Max};
  if (T != EvalType::Int) {
    Ints.push_back(I64Min);
    Ints.push_back(I64Max);
  }
  std::vector<Out> V;
  for (I64 X : Ints)
    V.push_back(T == EvalType::Double ? Out{0, static_cast<double>(X)}
                                      : Out{X, 0});
  if (T == EvalType::Double)
    for (double X : {1e10, -0.0, std::numeric_limits<double>::quiet_NaN()})
      V.push_back(Out{0, X});
  return V;
}

std::string show(Out V, EvalType T) {
  std::ostringstream S;
  if (T == EvalType::Double)
    S << V.D;
  else
    S << V.I;
  return S.str();
}

bool same(Out X, Out Y, EvalType T) {
  if (T != EvalType::Double)
    return X.I == Y.I;
  if (X.D != X.D || Y.D != Y.D)
    return X.D != X.D && Y.D != Y.D;
  return std::memcmp(&X.D, &Y.D, sizeof(double)) == 0;
}

/// How the operands reach the operator.
enum class Form { Folded, ConstLeft, Immediate, Register };
const char *formName(Form F) {
  switch (F) {
  case Form::Folded:
    return "folded";
  case Form::ConstLeft:
    return "const-left";
  case Form::Immediate:
    return "immediate";
  case Form::Register:
    return "register";
  }
  return "?";
}

enum class Tier { Interp, VCode, PCode, ICode };
constexpr Tier Tiers[] = {Tier::Interp, Tier::VCode, Tier::PCode,
                          Tier::ICode};
const char *tierName(Tier T) {
  switch (T) {
  case Tier::Interp:
    return "interp";
  case Tier::VCode:
    return "vcode";
  case Tier::PCode:
    return "pcode";
  case Tier::ICode:
    return "icode";
  }
  return "?";
}

/// One row of the grid: an operator at an operand type.
struct Op {
  std::string Name;
  EvalType T;     ///< Operand type.
  unsigned Arity; ///< 1 or 2.
  /// Builds the operation over its operands; a branch-context comparison
  /// also builds its if/return shape here.
  std::function<Expr(Context &, Expr, Expr)> Build;
  bool AsBranch = false;
  bool MayTrap = false; ///< Int Div/Mod.
};

std::vector<Op> grid() {
  std::vector<Op> Ops;
  const EvalType IntClass[] = {EvalType::Int, EvalType::Long, EvalType::Ptr};
  const char *TypeNames[] = {"void", "int", "long", "ptr", "double"};
  auto TN = [&](EvalType T) {
    return std::string(TypeNames[static_cast<int>(T)]);
  };

  struct B {
    BinOp O;
    const char *Name;
  };
  const B IntOnly[] = {{BinOp::Div, "div"},       {BinOp::Mod, "mod"},
                       {BinOp::And, "and"},       {BinOp::Or, "or"},
                       {BinOp::Xor, "xor"},       {BinOp::Shl, "shl"},
                       {BinOp::Shr, "shr"},       {BinOp::LogAnd, "logand"},
                       {BinOp::LogOr, "logor"}};
  const B Arith[] = {{BinOp::Add, "add"}, {BinOp::Sub, "sub"},
                     {BinOp::Mul, "mul"}};
  auto AddBin = [&](BinOp O, const char *Name, EvalType T) {
    Ops.push_back({std::string(Name) + "." + TN(T), T, 2,
                   [O](Context &C, Expr X, Expr Y) {
                     return C.binary(O, X, Y);
                   },
                   false,
                   T == EvalType::Int && (O == BinOp::Div || O == BinOp::Mod)});
  };
  for (EvalType T : IntClass)
    for (const B &X : Arith)
      AddBin(X.O, X.Name, T);
  for (const B &X : IntOnly)
    AddBin(X.O, X.Name, EvalType::Int);
  for (const B &X : Arith)
    AddBin(X.O, X.Name, EvalType::Double);
  AddBin(BinOp::Div, "div", EvalType::Double);

  const std::pair<CmpKind, const char *> Cmps[] = {
      {CmpKind::Eq, "eq"},   {CmpKind::Ne, "ne"},   {CmpKind::LtS, "lts"},
      {CmpKind::LeS, "les"}, {CmpKind::GtS, "gts"}, {CmpKind::GeS, "ges"},
      {CmpKind::LtU, "ltu"}, {CmpKind::LeU, "leu"}, {CmpKind::GtU, "gtu"},
      {CmpKind::GeU, "geu"}};
  for (EvalType T : {EvalType::Int, EvalType::Long, EvalType::Ptr,
                     EvalType::Double})
    for (auto [K, Name] : Cmps)
      for (bool Branch : {false, true})
        Ops.push_back({std::string(Branch ? "if-" : "") + Name + "." + TN(T),
                       T, 2,
                       [K = K](Context &C, Expr X, Expr Y) {
                         return C.cmp(K, X, Y);
                       },
                       Branch});

  struct U {
    UnOp O;
    const char *Name;
    EvalType T;
  };
  const U Unaries[] = {{UnOp::Neg, "neg", EvalType::Int},
                       {UnOp::Neg, "neg", EvalType::Long},
                       {UnOp::Neg, "neg", EvalType::Double},
                       {UnOp::Not, "not", EvalType::Int},
                       {UnOp::LogNot, "lognot", EvalType::Int},
                       {UnOp::IntToDouble, "int2double", EvalType::Int},
                       {UnOp::LongToDouble, "long2double", EvalType::Long},
                       {UnOp::DoubleToInt, "double2int", EvalType::Double},
                       {UnOp::IntToLong, "int2long", EvalType::Int},
                       {UnOp::LongToInt, "long2int", EvalType::Long},
                       {UnOp::LongToInt, "long2int", EvalType::Ptr},
                       {UnOp::Bitcast, "bitcast", EvalType::Long},
                       {UnOp::Bitcast, "bitcast", EvalType::Ptr}};
  for (const U &X : Unaries)
    Ops.push_back({std::string(X.Name) + "." + TN(X.T), X.T, 1,
                   [O = X.O](Context &C, Expr A, Expr) {
                     return C.unary(O, A);
                   }});
  return Ops;
}

Expr constOf(Context &C, EvalType T, Out V) {
  switch (T) {
  case EvalType::Int:
    return C.intConst(static_cast<std::int32_t>(V.I));
  case EvalType::Long:
    return C.longConst(V.I);
  case EvalType::Ptr:
    return C.rcPtr(reinterpret_cast<const void *>(V.I));
  default:
    return C.doubleConst(V.D);
  }
}

Expr paramOf(Context &C, EvalType T, unsigned Index) {
  switch (T) {
  case EvalType::Int:
    return C.paramInt(Index);
  case EvalType::Long:
    return C.paramLong(Index);
  case EvalType::Ptr:
    return C.paramPtr(Index);
  default:
    return C.paramDouble(Index);
  }
}

/// A spec for one operation in one form, with its constants baked in.
struct Spec {
  Context C;
  Stmt Body;
  EvalType RetT = EvalType::Int;
  unsigned NumParams = 0;
};

void buildSpec(Spec &S, const Op &O, Form F, Out A, Out B) {
  Context &C = S.C;
  bool AConst = F == Form::Folded || F == Form::ConstLeft;
  bool BConst = F == Form::Folded || F == Form::Immediate;
  unsigned NextParam = 0;
  Expr X = AConst ? constOf(C, O.T, A) : paramOf(C, O.T, NextParam++);
  Expr Y;
  if (O.Arity == 2)
    Y = BConst ? constOf(C, O.T, B) : paramOf(C, O.T, NextParam++);
  S.NumParams = NextParam;
  Expr E = O.Build(C, X, Y);
  if (O.AsBranch) {
    S.RetT = EvalType::Int;
    S.Body = C.block({C.ifStmt(E, C.ret(C.intConst(1))),
                      C.ret(C.intConst(0))});
  } else {
    S.RetT = E.type();
    S.Body = C.ret(E);
  }
}

template <class R>
R invoke(const void *Fn, bool Fp, unsigned N, const I64 *IA,
         const double *DA) {
  void *P = const_cast<void *>(Fn);
  if (Fp)
    return N == 0   ? reinterpret_cast<R (*)()>(P)()
           : N == 1 ? reinterpret_cast<R (*)(double)>(P)(DA[0])
                    : reinterpret_cast<R (*)(double, double)>(P)(DA[0], DA[1]);
  return N == 0   ? reinterpret_cast<R (*)()>(P)()
         : N == 1 ? reinterpret_cast<R (*)(I64)>(P)(IA[0])
                  : reinterpret_cast<R (*)(I64, I64)>(P)(IA[0], IA[1]);
}

/// PCODE compiles whose bytes differ from VCODE's for the same spec.
unsigned PCodeByteMismatches = 0;

/// Runs a built spec on \p Args (the operands that are parameters).
struct Runner {
  Spec &S;
  EvalType ParamT;
  CompiledFn Fn;
  std::unique_ptr<SpecInterp> Interp;

  Runner(Spec &S, EvalType ParamT, Tier T) : S(S), ParamT(ParamT) {
    if (T == Tier::Interp) {
      Interp = std::make_unique<SpecInterp>(S.C, S.Body, S.RetT);
      return;
    }
    CompileOptions O;
    O.Backend = T == Tier::VCode   ? BackendKind::VCode
                : T == Tier::PCode ? BackendKind::PCode
                                   : BackendKind::ICode;
    Fn = compileFn(S.C, S.Body, S.RetT, O);
    if (T == Tier::PCode) {
      // Copy-and-patch must produce exactly VCODE's bytes.
      O.Backend = BackendKind::VCode;
      CompiledFn V = compileFn(S.C, S.Body, S.RetT, O);
      if (V.stats().CodeBytes != Fn.stats().CodeBytes ||
          std::memcmp(V.entry(), Fn.entry(), V.stats().CodeBytes) != 0)
        ++PCodeByteMismatches;
    }
  }

  bool ok() const { return Interp ? Interp->ok() : Fn.valid(); }

  Out run(const std::vector<Out> &Args) {
    I64 IA[2] = {0, 0};
    double DA[2] = {0, 0};
    for (std::size_t K = 0; K < Args.size(); ++K) {
      IA[K] = Args[K].I;
      DA[K] = Args[K].D;
    }
    bool Fp = ParamT == EvalType::Double;
    unsigned N = static_cast<unsigned>(Args.size());
    Out R;
    if (Interp) {
      auto V = Fp ? Interp->run(nullptr, 0, DA, N)
                  : Interp->run(IA, N, nullptr, 0);
      R.I = V.I;
      R.D = V.D;
      return R;
    }
    switch (S.RetT) {
    case EvalType::Double:
      R.D = invoke<double>(Fn.entry(), Fp, N, IA, DA);
      break;
    case EvalType::Int:
      R.I = invoke<std::int32_t>(Fn.entry(), Fp, N, IA, DA);
      break;
    default:
      R.I = invoke<I64>(Fn.entry(), Fp, N, IA, DA);
      break;
    }
    return R;
  }
};

/// idiv's divide-error trap, stated independently of the evaluators.
bool expectTrap(const Op &O, Out A, Out B) {
  return O.MayTrap &&
         (static_cast<std::int32_t>(B.I) == 0 ||
          (static_cast<std::int32_t>(A.I) == I32Min &&
           static_cast<std::int32_t>(B.I) == -1));
}

/// Evaluates \p O on (A, B) in form \p F on tier \p T, in a fresh spec.
Out evalOnce(const Op &O, Form F, Tier T, Out A, Out B) {
  Spec S;
  buildSpec(S, O, F, A, B);
  Runner R(S, O.T, T);
  std::vector<Out> Args;
  if (F == Form::Immediate || F == Form::Register)
    Args.push_back(A);
  if (O.Arity == 2 && (F == Form::ConstLeft || F == Form::Register))
    Args.push_back(B);
  return R.run(Args);
}

const std::vector<Form> &formsOf(const Op &O) {
  static const std::vector<Form> Binary = {Form::Folded, Form::ConstLeft,
                                           Form::Immediate, Form::Register};
  static const std::vector<Form> Unary = {Form::Folded, Form::Register};
  return O.Arity == 2 ? Binary : Unary;
}

TEST(OperatorGrid, EveryTierAgrees) {
  unsigned Rows = 0, FailedRows = 0;
  std::uint64_t Checked = 0;
  for (const Op &O : grid()) {
    const std::vector<Out> Vals = edgeValues(O.T);
    const std::vector<Out> BVals =
        O.Arity == 2 ? Vals : std::vector<Out>{Out{}};
    // The reference: VCODE with every operand in a register.
    std::vector<Out> Ref(Vals.size() * BVals.size());
    EvalType RetT;
    {
      Spec S;
      buildSpec(S, O, Form::Register, Out{}, Out{});
      RetT = S.RetT;
      Runner R(S, O.T, Tier::VCode);
      ASSERT_TRUE(R.ok()) << O.Name;
      for (std::size_t IA = 0; IA < Vals.size(); ++IA)
        for (std::size_t IB = 0; IB < BVals.size(); ++IB)
          if (!expectTrap(O, Vals[IA], BVals[IB]))
            Ref[IA * BVals.size() + IB] =
                R.run(O.Arity == 2 ? std::vector<Out>{Vals[IA], BVals[IB]}
                                   : std::vector<Out>{Vals[IA]});
    }

    for (Form F : formsOf(O)) {
      for (Tier T : Tiers) {
        ++Rows;
        unsigned Mismatches = 0, ByteMismatches0 = PCodeByteMismatches;
        std::string First;
        auto Check = [&](std::size_t IA, std::size_t IB, Out Got) {
          ++Checked;
          Out Want = Ref[IA * BVals.size() + IB];
          if (same(Got, Want, RetT))
            return;
          if (Mismatches++ == 0)
            First = "(" + show(Vals[IA], O.T) +
                    (O.Arity == 2 ? ", " + show(BVals[IB], O.T) : "") +
                    ") = " + show(Got, RetT) + ", register VCODE says " +
                    show(Want, RetT);
        };
        if (F == Form::Register) {
          // One spec; every operand pair as arguments.
          Spec S;
          buildSpec(S, O, F, Out{}, Out{});
          Runner R(S, O.T, T);
          ASSERT_TRUE(R.ok()) << O.Name;
          for (std::size_t IA = 0; IA < Vals.size(); ++IA)
            for (std::size_t IB = 0; IB < BVals.size(); ++IB)
              if (!expectTrap(O, Vals[IA], BVals[IB]))
                Check(IA, IB,
                      R.run(O.Arity == 2
                                ? std::vector<Out>{Vals[IA], BVals[IB]}
                                : std::vector<Out>{Vals[IA]}));
        } else if (F == Form::Immediate) {
          // One spec per constant right operand.
          for (std::size_t IB = 0; IB < BVals.size(); ++IB) {
            Spec S;
            buildSpec(S, O, F, Out{}, BVals[IB]);
            Runner R(S, O.T, T);
            for (std::size_t IA = 0; IA < Vals.size(); ++IA)
              if (!expectTrap(O, Vals[IA], BVals[IB]))
                Check(IA, IB, R.run({Vals[IA]}));
          }
        } else if (F == Form::ConstLeft) {
          for (std::size_t IA = 0; IA < Vals.size(); ++IA) {
            Spec S;
            buildSpec(S, O, F, Vals[IA], Out{});
            Runner R(S, O.T, T);
            for (std::size_t IB = 0; IB < BVals.size(); ++IB)
              if (!expectTrap(O, Vals[IA], BVals[IB]))
                Check(IA, IB, R.run({BVals[IB]}));
          }
        } else {
          for (std::size_t IA = 0; IA < Vals.size(); ++IA)
            for (std::size_t IB = 0; IB < BVals.size(); ++IB)
              if (!expectTrap(O, Vals[IA], BVals[IB]))
                Check(IA, IB, evalOnce(O, F, T, Vals[IA], BVals[IB]));
        }
        if (Mismatches) {
          ++FailedRows;
          ADD_FAILURE() << "row " << O.Name << " " << formName(F) << " "
                        << tierName(T) << ": " << Mismatches
                        << " mismatches, first " << First;
        }
        EXPECT_EQ(PCodeByteMismatches, ByteMismatches0)
            << "row " << O.Name << " " << formName(F)
            << ": PCODE bytes differ from VCODE";
      }
    }
  }
  EXPECT_EQ(FailedRows, 0u) << "of " << Rows << " rows";
  EXPECT_GT(Checked, 100000u);
}

TEST(OperatorGrid, DivisionTrapsOnEveryTier) {
  // Zero divisors and INT32_MIN / -1, as / and %, in every operand form on
  // every tier: folding must leave the trap to the code, the immediate
  // forms must keep it (x / -1 is not a bare neg), and the interpreter
  // must raise it.
  std::vector<std::pair<I64, I64>> Pairs = {{I32Min, -1}};
  for (I64 A : {I64(0), I64(1), I64(-1), I32Min, I32Max})
    Pairs.push_back({A, 0});
  unsigned Cases = 0;
  for (const Op &O : grid()) {
    if (!O.MayTrap)
      continue;
    for (auto [A, B] : Pairs)
      for (Form F : formsOf(O))
        for (Tier T : Tiers) {
          ++Cases;
          EXPECT_EXIT(
              {
                // The default disposition, not a sanitizer's handler.
                std::signal(SIGFPE, SIG_DFL);
                evalOnce(O, F, T, Out{A, 0}, Out{B, 0});
                std::_Exit(0);
              },
              ::testing::KilledBySignal(SIGFPE), "")
              << O.Name << " (" << A << ", " << B << ") " << formName(F)
              << " " << tierName(T);
        }
  }
  EXPECT_EQ(Cases, 2u * 6u * 4u * 4u);
}

} // namespace
