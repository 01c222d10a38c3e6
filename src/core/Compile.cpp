//===- core/Compile.cpp - CGF walk over specification trees ---------------==//
//
// The code-generating-function walk (paper §4.2/§4.4). One templated walker
// serves both back ends: instantiated over vcode::VCode it is the one-pass
// emitter with getreg/putreg discipline; over icode::ICode it lays down IR
// for the global allocator. The automatic dynamic partial evaluation —
// run-time constant folding, strength reduction, loop unrolling with derived
// run-time constants, and dead-branch elimination — lives in this walk.
// Its constant folder (RcEvaluator) owns only the folding policy: O(1)
// flag rejections, the `$`-only memory gate, and declining to fold a
// division that traps. What each operator computes, and how an unrolled
// induction variable steps, comes from core/Eval.h, which tier 0
// (SpecInterp) shares, so folded, emitted and interpreted values agree.
//
//===----------------------------------------------------------------------===//

#include "core/Compile.h"

#include "core/CompileContext.h"
#include "core/Eval.h"
#include "core/SpecInterp.h"
#include "observability/Flight.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "observability/Trace.h"
#include "pcode/PCode.h"
#include "pcode/StencilLibrary.h"
#include "support/Error.h"
#include "support/Timing.h"
#include "verify/Verify.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <vector>

using namespace tcc;
using namespace tcc::core;

namespace {

// --- Run-time-constant interpretation ---------------------------------------

/// Evaluates expressions whose value is known at instantiation time, with
/// the operator semantics of core/Eval.h; a value's type is its node's. The
/// environment carries derived run-time constants (unrolled induction
/// variables). With AllowLoads (inside an explicit `$`/rtEval), memory is
/// read immediately — this is how `$row[k]` becomes an immediate. A division
/// that would trap is not a constant: the trap is left to runtime.
class RcEvaluator {
public:
  RcEvaluator(unsigned NumLocals, Arena &A) : Env(A) {
    Env.resize(NumLocals, std::nullopt);
  }

  ArenaVector<std::optional<Value>> Env;

  /// Binds a derived run-time constant (unrolled induction variable).
  void bind(std::int32_t Id, const Value &V) {
    auto &Slot = Env[static_cast<std::size_t>(Id)];
    if (!Slot)
      ++NumBound;
    Slot = V;
  }
  void unbind(std::int32_t Id) {
    auto &Slot = Env[static_cast<std::size_t>(Id)];
    if (Slot)
      --NumBound;
    Slot.reset();
  }
  bool isBound(std::int32_t Id) const {
    return Env[static_cast<std::size_t>(Id)].has_value();
  }

  std::optional<Value> eval(const ExprNode *N, bool AllowLoads) const {
    // O(1) rejection from specification-time flags: without it, deep
    // expression chains re-walk their subtrees at every node and the CGF
    // walk goes quadratic.
    if (N->Flags & EF_HasCall)
      return std::nullopt;
    if (!AllowLoads && (N->Flags & EF_HasMemOp))
      return std::nullopt;
    if ((N->Flags & EF_HasLocal) && NumBound == 0)
      return std::nullopt;
    switch (N->Kind) {
    case ExprKind::ConstInt:
    case ExprKind::ConstLong:
      return Value{eval::canon(N->IntVal, N->Type)};
    case ExprKind::ConstDouble:
      return Value{0, N->FpVal};
    case ExprKind::Local:
      return Env[static_cast<std::size_t>(N->LocalId)];
    case ExprKind::RtEval:
      return eval(N->A, /*AllowLoads=*/true);
    case ExprKind::FreeVar:
      if (!AllowLoads)
        return std::nullopt;
      return eval::load(N->PtrVal, static_cast<MemType>(N->OpByte));
    case ExprKind::Load: {
      if (!AllowLoads)
        return std::nullopt;
      auto Addr = eval(N->A, AllowLoads);
      if (!Addr)
        return std::nullopt;
      return eval::load(reinterpret_cast<const void *>(
                            static_cast<std::uintptr_t>(Addr->I)),
                        static_cast<MemType>(N->OpByte));
    }
    case ExprKind::Unary: {
      auto A = eval(N->A, AllowLoads);
      if (!A)
        return std::nullopt;
      return eval::unary(static_cast<UnOp>(N->OpByte), N->Type, *A);
    }
    case ExprKind::Binary: {
      auto O = static_cast<BinOp>(N->OpByte);
      auto A = eval(N->A, AllowLoads);
      if (!A)
        return std::nullopt;
      // Short-circuit forms may decide on the left operand alone.
      bool Logical = O == BinOp::LogAnd || O == BinOp::LogOr;
      if (Logical && eval::truthy(*A, N->A->Type) == (O == BinOp::LogOr))
        return Value{O == BinOp::LogOr};
      auto B = eval(N->B, AllowLoads);
      if (!B)
        return std::nullopt;
      if (Logical)
        return Value{eval::truthy(*B, N->B->Type)};
      if (eval::traps(O, N->Type, *A, *B))
        return std::nullopt;
      return eval::binary(O, N->Type, *A, *B);
    }
    case ExprKind::Cmp: {
      auto A = eval(N->A, AllowLoads);
      auto B = eval(N->B, AllowLoads);
      if (!A || !B)
        return std::nullopt;
      return Value{eval::compare(static_cast<CmpKind>(N->OpByte), N->A->Type,
                                 *A, *B)};
    }
    case ExprKind::Cond: {
      auto C = eval(N->A, AllowLoads);
      if (!C)
        return std::nullopt;
      return eval(eval::truthy(*C, N->A->Type) ? N->B : N->C, AllowLoads);
    }
    case ExprKind::Call:
      return std::nullopt;
    }
    return std::nullopt;
  }

private:
  unsigned NumBound = 0; ///< Bound Env entries; gates the HasLocal check.
};

// --- Backend traits -----------------------------------------------------------

template <class B> struct BackendTraits;

/// Covers every VCODE-machine instantiation: the classic encoder-backed
/// vcode::VCode and the copy-and-patch pcode::PCode share the abstract
/// machine, so they share the walker traits too.
template <class AsmT> struct BackendTraits<vcode::VCodeT<AsmT>> {
  using VM = vcode::VCodeT<AsmT>;
  static constexpr bool OnePass = true;
  using LabelT = vcode::Label;
  static int allocI(VM &V) { return V.getreg(); }
  static void freeI(VM &V, int R) { V.putreg(R); }
  static int allocF(VM &V) { return V.getfreg(); }
  static void freeF(VM &V, int R) { V.putfreg(R); }
  /// Memory-resident double location (safe across emitted calls).
  static int allocMemF(VM &V) { return VM::spillReg(V.allocSlot()); }
};

template <> struct BackendTraits<icode::ICode> {
  static constexpr bool OnePass = false;
  using LabelT = icode::ILabel;
  static int allocI(icode::ICode &IC) { return IC.newIntReg(); }
  static void freeI(icode::ICode &, int) {}
  static int allocF(icode::ICode &IC) { return IC.newFloatReg(); }
  static void freeF(icode::ICode &, int) {}
  static int allocMemF(icode::ICode &IC) { return IC.newFloatReg(); }
};

// --- Tier-0 profile plumbing -------------------------------------------------

/// Appends the For statements of \p S to \p Visits in pre-order, every
/// visit counted (a shared For subtree appears once per visit), stopping at
/// \p Max entries. A For's trip-profile ordinal is the index of its first
/// entry — the numbering SpecInterp's indexing walk assigns.
void collectForVisits(const StmtNode *S, ArenaVector<const StmtNode *> &Visits,
                      std::size_t Max) {
  if (!S || Visits.size() >= Max)
    return;
  if (S->Kind == StmtKind::For)
    Visits.push_back(S);
  collectForVisits(S->S1, Visits, Max);
  collectForVisits(S->S2, Visits, Max);
  for (std::uint32_t I = 0; I < S->BodyC; ++I)
    collectForVisits(S->BodyV[I], Visits, Max);
}

// --- The walker ---------------------------------------------------------------------

template <class BE> class Walker {
  using TR = BackendTraits<BE>;
  using LabelT = typename TR::LabelT;

  /// A value produced by expression code generation.
  struct Val {
    int R = 0;
    bool Temp = false;
    bool Fp = false;
  };

public:
  Walker(Context &Ctx, BE &Back, EvalType RetType, const CompileOptions &Opts,
         Arena &Scratch)
      : Ctx(Ctx), Back(Back), RetType(RetType), Opts(Opts),
        Rc(static_cast<unsigned>(Ctx.locals().size()), Scratch),
        LocalLoc(Scratch), UserLabels(Scratch), LoopStack(Scratch),
        ScratchArena(Scratch), ForVisits(Scratch) {
    LocalLoc.resize(Ctx.locals().size(), INT_MIN);
    UserLabels.resize(Ctx.numDynLabels(), std::nullopt);
  }

  /// §4.4 partial-evaluation decisions, tallied during the walk (plain
  /// ints: one flush to the shared metrics registry per compile, not one
  /// atomic add per folded node).
  struct Decisions {
    unsigned LoopsUnrolled = 0;
    unsigned BranchesEliminated = 0;
    unsigned StrengthReductions = 0;
    unsigned ProfiledUnrolls = 0;
  };
  Decisions PE;

  /// When set, the generated prologue atomically increments this 64-bit
  /// counter on every invocation (CompileOptions::Profile).
  const void *ProfileCounter = nullptr;

  void run(const StmtNode *Body) {
    BodyHasCalls = Body && (Body->Flags & SF_HasCall);
    if (Opts.TripProfile)
      collectForVisits(Body, ForVisits, Opts.TripProfile->NumLoops);
    if constexpr (TR::OnePass)
      Back.enter();
    if (ProfileCounter)
      Back.profileEntry(ProfileCounter);
    bindParams();
    genStmt(Body);
    // Fall-off-the-end return, when control can get there.
    if constexpr (TR::OnePass)
      if (!Back.reachable())
        return;
    if (RetType == EvalType::Void) {
      Back.retVoid();
    } else if (RetType == EvalType::Double) {
      int R = TR::allocF(Back);
      Back.setD(R, 0);
      Back.retD(R);
    } else {
      int R = TR::allocI(Back);
      Back.setI(R, 0);
      RetType == EvalType::Int ? Back.retI(R) : Back.retL(R);
    }
  }

private:
  // --- Locations -----------------------------------------------------------
  bool localIsFp(std::int32_t Id) const {
    return Ctx.locals()[static_cast<std::size_t>(Id)].Type ==
           EvalType::Double;
  }

  int localLoc(std::int32_t Id) {
    int &Loc = LocalLoc[static_cast<std::size_t>(Id)];
    if (Loc != INT_MIN)
      return Loc;
    if (localIsFp(Id))
      Loc = (TR::OnePass && BodyHasCalls) ? TR::allocMemF(Back)
                                          : TR::allocF(Back);
    else
      Loc = TR::allocI(Back);
    return Loc;
  }

  void bindParams() {
    const std::vector<LocalInfo> &Locals = Ctx.locals();
    for (std::size_t Id = 0; Id < Locals.size(); ++Id) {
      if (Locals[Id].ArgIndex < 0)
        continue;
      int Loc = localLoc(static_cast<std::int32_t>(Id));
      if (Locals[Id].Type == EvalType::Double)
        Back.bindArgD(static_cast<unsigned>(Locals[Id].ArgIndex), Loc);
      else
        Back.bindArgI(static_cast<unsigned>(Locals[Id].ArgIndex), Loc);
    }
  }

  void freeVal(const Val &V) {
    if (!V.Temp)
      return;
    if (V.Fp)
      TR::freeF(Back, V.R);
    else
      TR::freeI(Back, V.R);
  }

  LabelT userLabel(std::int32_t Id) {
    auto &L = UserLabels[static_cast<std::size_t>(Id)];
    if (!L)
      L = Back.newLabel();
    return *L;
  }

  // --- Run-time constants as emitted values ---------------------------------
  Val materialize(EvalType T, const Value &V) {
    if (T == EvalType::Double) {
      int R = TR::allocF(Back);
      Back.setD(R, V.D);
      return Val{R, true, true};
    }
    int R = TR::allocI(Back);
    if (T == EvalType::Int)
      Back.setI(R, static_cast<std::int32_t>(V.I));
    else
      Back.setL(R, V.I);
    return Val{R, true, false};
  }

  // --- Expressions ------------------------------------------------------------
  Val genExpr(const ExprNode *N) {
    // Automatic run-time-constant folding (paper §4.4) — pure parts only;
    // memory is read early only under an explicit $ (RtEval).
    if (N->Kind != ExprKind::ConstInt) // Trivial leaves handled below anyway.
      if (auto V = Rc.eval(N, /*AllowLoads=*/false))
        return materialize(N->Type, *V);

    switch (N->Kind) {
    case ExprKind::ConstInt: {
      int R = TR::allocI(Back);
      Back.setI(R, static_cast<std::int32_t>(N->IntVal));
      return Val{R, true, false};
    }
    case ExprKind::ConstLong: {
      int R = TR::allocI(Back);
      Back.setL(R, N->IntVal);
      return Val{R, true, false};
    }
    case ExprKind::ConstDouble: {
      int R = TR::allocF(Back);
      Back.setD(R, N->FpVal);
      return Val{R, true, true};
    }
    case ExprKind::RtEval: {
      auto V = Rc.eval(N->A, /*AllowLoads=*/true);
      if (!V)
        reportFatalError("$-expression is not a run-time constant at "
                         "instantiation time");
      return materialize(N->Type, *V);
    }
    case ExprKind::FreeVar: {
      int Addr = TR::allocI(Back);
      Back.setP(Addr, N->PtrVal);
      auto M = static_cast<MemType>(N->OpByte);
      if (M == MemType::F64) {
        int D = TR::allocF(Back);
        Back.ldD(D, Addr, 0);
        TR::freeI(Back, Addr);
        return Val{D, true, true};
      }
      emitLoad(M, Addr, Addr);
      return Val{Addr, true, false};
    }
    case ExprKind::Local: {
      std::int32_t Id = N->LocalId;
      if (auto &Bound = Rc.Env[static_cast<std::size_t>(Id)])
        return materialize(N->Type, *Bound); // Derived run-time constant.
      return Val{localLoc(Id), false, localIsFp(Id)};
    }
    case ExprKind::Load: {
      auto [Addr, Off] = genAddress(N->A);
      auto M = static_cast<MemType>(N->OpByte);
      if (M == MemType::F64) {
        int D = TR::allocF(Back);
        Back.ldD(D, Addr.R, Off);
        freeVal(Addr);
        return Val{D, true, true};
      }
      int D = Addr.Temp ? Addr.R : TR::allocI(Back);
      emitLoad(M, D, Addr.R, Off);
      return Val{D, true, false};
    }
    case ExprKind::Unary:
      return genUnary(N);
    case ExprKind::Binary:
      return genBinary(N);
    case ExprKind::Cmp:
      return genCmp(N);
    case ExprKind::Call:
      return genCall(N);
    case ExprKind::Cond:
      return genCondExpr(N);
    }
    tcc_unreachable("bad expr kind");
  }

  /// Evaluates an address expression, peeling a run-time-constant added
  /// offset into the instruction's displacement field — the addressing-mode
  /// selection a CGF performs during instruction selection.
  std::pair<Val, std::int32_t> genAddress(const ExprNode *N) {
    if (N->Kind == ExprKind::Binary &&
        static_cast<BinOp>(N->OpByte) == BinOp::Add &&
        (N->Type == EvalType::Ptr || N->Type == EvalType::Long)) {
      if (auto BC = Rc.eval(N->B, false))
        if (BC->I >= INT32_MIN && BC->I <= INT32_MAX &&
            !Rc.eval(N->A, false))
          return {genExpr(N->A), static_cast<std::int32_t>(BC->I)};
      if (auto AC = Rc.eval(N->A, false))
        if (AC->I >= INT32_MIN && AC->I <= INT32_MAX)
          return {genExpr(N->B), static_cast<std::int32_t>(AC->I)};
    }
    return {genExpr(N), 0};
  }

  void emitLoad(MemType M, int Dst, int Base, std::int32_t Off = 0) {
    switch (M) {
    case MemType::I8:
      Back.ldI8s(Dst, Base, Off);
      break;
    case MemType::U8:
      Back.ldI8u(Dst, Base, Off);
      break;
    case MemType::I16:
      Back.ldI16s(Dst, Base, Off);
      break;
    case MemType::U16:
      Back.ldI16u(Dst, Base, Off);
      break;
    case MemType::I32:
      Back.ldI(Dst, Base, Off);
      break;
    case MemType::I64:
    case MemType::P64:
      Back.ldL(Dst, Base, Off);
      break;
    case MemType::F64:
      tcc_unreachable("F64 handled by caller");
    }
  }

  Val genUnary(const ExprNode *N) {
    auto O = static_cast<UnOp>(N->OpByte);
    if (O == UnOp::LogNot) {
      Val A = genExpr(N->A);
      int D = A.Temp ? A.R : TR::allocI(Back);
      Back.cmpSetII(CmpKind::Eq, D, A.R, 0);
      return Val{D, true, false};
    }
    Val A = genExpr(N->A);
    switch (O) {
    case UnOp::Neg:
      if (N->Type == EvalType::Double) {
        int D = A.Temp ? A.R : TR::allocF(Back);
        Back.negD(D, A.R);
        return Val{D, true, true};
      }
      if (N->Type == EvalType::Int) {
        int D = A.Temp ? A.R : TR::allocI(Back);
        Back.negI(D, A.R);
        return Val{D, true, false};
      }
      {
        // 64-bit negate: 0 - x.
        int Z = TR::allocI(Back);
        Back.setL(Z, 0);
        Back.subL(Z, Z, A.R);
        freeVal(A);
        return Val{Z, true, false};
      }
    case UnOp::Not: {
      int D = A.Temp ? A.R : TR::allocI(Back);
      Back.notI(D, A.R);
      return Val{D, true, false};
    }
    case UnOp::IntToDouble: {
      int D = TR::allocF(Back);
      Back.cvtIToD(D, A.R);
      freeVal(A);
      return Val{D, true, true};
    }
    case UnOp::LongToDouble: {
      int D = TR::allocF(Back);
      Back.cvtLToD(D, A.R);
      freeVal(A);
      return Val{D, true, true};
    }
    case UnOp::DoubleToInt: {
      int D = TR::allocI(Back);
      Back.cvtDToI(D, A.R);
      freeVal(A);
      return Val{D, true, false};
    }
    case UnOp::IntToLong: {
      int D = A.Temp ? A.R : TR::allocI(Back);
      Back.sextIToL(D, A.R);
      return Val{D, true, false};
    }
    case UnOp::LongToInt:
    case UnOp::Bitcast: {
      if (A.Temp)
        return A;
      int D = TR::allocI(Back);
      Back.movL(D, A.R);
      return Val{D, true, false};
    }
    case UnOp::LogNot:
      break;
    }
    tcc_unreachable("bad unary op");
  }

  /// Evaluates the two operands of a binary/compare node, heavier subtree
  /// first (the paper's ordering heuristic generalized: minimize temporaries
  /// spanning nested cspec generation).
  void genOperands(const ExprNode *N, Val &A, Val &B) {
    if (N->B->RegNeed > N->A->RegNeed) {
      B = genExpr(N->B);
      A = genExpr(N->A);
    } else {
      A = genExpr(N->A);
      B = genExpr(N->B);
    }
  }

  Val genBinary(const ExprNode *N) {
    auto O = static_cast<BinOp>(N->OpByte);
    if (O == BinOp::LogAnd || O == BinOp::LogOr)
      return genLogicalValue(N);

    // Strength reduction / immediate forms when one operand is a run-time
    // constant (paper §4.4).
    if (N->Type == EvalType::Int) {
      if (auto BC = Rc.eval(N->B, false))
        return genBinII(O, N->A, static_cast<std::int32_t>(BC->I));
      if (auto AC = Rc.eval(N->A, false))
        if (O == BinOp::Add || O == BinOp::Mul || O == BinOp::And ||
            O == BinOp::Or || O == BinOp::Xor)
          return genBinII(O, N->B, static_cast<std::int32_t>(AC->I));
    }
    if (N->Type == EvalType::Long || N->Type == EvalType::Ptr) {
      if (auto BC = Rc.eval(N->B, false))
        // Sub adds the negated immediate, which must fit too.
        if (BC->I >= (O == BinOp::Sub ? -INT32_MAX : INT32_MIN) &&
            BC->I <= INT32_MAX &&
            (O == BinOp::Add || O == BinOp::Mul || O == BinOp::Sub)) {
          Val A = genExpr(N->A);
          int D = A.Temp ? A.R : TR::allocI(Back);
          auto Imm = static_cast<std::int32_t>(BC->I);
          if (O == BinOp::Add)
            Back.addLI(D, A.R, Imm);
          else if (O == BinOp::Sub)
            Back.addLI(D, A.R, -Imm);
          else {
            ++PE.StrengthReductions;
            Back.mulLI(D, A.R, Imm);
          }
          return Val{D, true, false};
        }
    }

    Val A, B;
    genOperands(N, A, B);
    bool Fp = N->Type == EvalType::Double;
    int D;
    if (A.Temp)
      D = A.R;
    else if (B.Temp)
      D = B.R; // Backends handle d==b aliasing for all ops.
    else
      D = Fp ? TR::allocF(Back) : TR::allocI(Back);

    if (Fp) {
      switch (O) {
      case BinOp::Add:
        Back.addD(D, A.R, B.R);
        break;
      case BinOp::Sub:
        Back.subD(D, A.R, B.R);
        break;
      case BinOp::Mul:
        Back.mulD(D, A.R, B.R);
        break;
      case BinOp::Div:
        Back.divD(D, A.R, B.R);
        break;
      default:
        tcc_unreachable("bad double op");
      }
    } else if (N->Type == EvalType::Int) {
      switch (O) {
      case BinOp::Add:
        Back.addI(D, A.R, B.R);
        break;
      case BinOp::Sub:
        Back.subI(D, A.R, B.R);
        break;
      case BinOp::Mul:
        Back.mulI(D, A.R, B.R);
        break;
      case BinOp::Div:
        Back.divI(D, A.R, B.R);
        break;
      case BinOp::Mod:
        Back.modI(D, A.R, B.R);
        break;
      case BinOp::And:
        Back.andI(D, A.R, B.R);
        break;
      case BinOp::Or:
        Back.orI(D, A.R, B.R);
        break;
      case BinOp::Xor:
        Back.xorI(D, A.R, B.R);
        break;
      case BinOp::Shl:
        Back.shlI(D, A.R, B.R);
        break;
      case BinOp::Shr:
        Back.shrI(D, A.R, B.R);
        break;
      default:
        tcc_unreachable("bad int op");
      }
    } else {
      switch (O) {
      case BinOp::Add:
        Back.addL(D, A.R, B.R);
        break;
      case BinOp::Sub:
        Back.subL(D, A.R, B.R);
        break;
      case BinOp::Mul:
        Back.mulL(D, A.R, B.R);
        break;
      default:
        tcc_unreachable("bad long op");
      }
    }
    // Free whichever temp was not recycled into D.
    if (A.Temp && A.R != D)
      freeVal(A);
    if (B.Temp && B.R != D)
      freeVal(B);
    return Val{D, true, Fp};
  }

  Val genBinII(BinOp O, const ExprNode *AN, std::int32_t Imm) {
    if (O == BinOp::Mul || O == BinOp::Div || O == BinOp::Mod)
      ++PE.StrengthReductions; // Backends rewrite these to shifts/magic.
    Val A = genExpr(AN);
    int D = A.Temp ? A.R : TR::allocI(Back);
    switch (O) {
    case BinOp::Add:
      Back.addII(D, A.R, Imm);
      break;
    case BinOp::Sub:
      Back.subII(D, A.R, Imm);
      break;
    case BinOp::Mul:
      Back.mulII(D, A.R, Imm);
      break;
    case BinOp::Div:
      Back.divII(D, A.R, Imm);
      break;
    case BinOp::Mod:
      Back.modII(D, A.R, Imm);
      break;
    case BinOp::And:
      Back.andII(D, A.R, Imm);
      break;
    case BinOp::Or:
      Back.orII(D, A.R, Imm);
      break;
    case BinOp::Xor:
      Back.xorII(D, A.R, Imm);
      break;
    case BinOp::Shl:
      Back.shlII(D, A.R, static_cast<std::uint8_t>(Imm & 31));
      break;
    case BinOp::Shr:
      Back.shrII(D, A.R, static_cast<std::uint8_t>(Imm & 31));
      break;
    default:
      tcc_unreachable("no immediate form");
    }
    return Val{D, true, false};
  }

  Val genCmp(const ExprNode *N) {
    auto K = static_cast<CmpKind>(N->OpByte);
    EvalType OpT = N->A->Type;
    if (OpT == EvalType::Int)
      if (auto BC = Rc.eval(N->B, false)) {
        Val A = genExpr(N->A);
        int D = A.Temp ? A.R : TR::allocI(Back);
        Back.cmpSetII(K, D, A.R, static_cast<std::int32_t>(BC->I));
        return Val{D, true, false};
      }
    Val A, B;
    genOperands(N, A, B);
    int D;
    if (OpT == EvalType::Double) {
      D = TR::allocI(Back);
      Back.cmpSetD(K, D, A.R, B.R);
      freeVal(A);
      freeVal(B);
      return Val{D, true, false};
    }
    D = A.Temp ? A.R : (B.Temp ? B.R : TR::allocI(Back));
    if (OpT == EvalType::Int)
      Back.cmpSetI(K, D, A.R, B.R);
    else
      Back.cmpSetL(K, D, A.R, B.R);
    if (A.Temp && A.R != D)
      freeVal(A);
    if (B.Temp && B.R != D)
      freeVal(B);
    return Val{D, true, false};
  }

  Val genLogicalValue(const ExprNode *N) {
    int D = TR::allocI(Back);
    LabelT False = Back.newLabel(), End = Back.newLabel();
    genBranch(N, False, /*WhenTrue=*/false);
    Back.setI(D, 1);
    Back.jump(End);
    Back.bindLabel(False);
    Back.setI(D, 0);
    Back.bindLabel(End);
    return Val{D, true, false};
  }

  Val genCondExpr(const ExprNode *N) {
    bool Fp = N->Type == EvalType::Double;
    int D = Fp ? TR::allocF(Back) : TR::allocI(Back);
    LabelT Else = Back.newLabel(), End = Back.newLabel();
    genBranch(N->A, Else, /*WhenTrue=*/false);
    Val V1 = genExpr(N->B);
    Fp ? Back.movD(D, V1.R) : Back.movL(D, V1.R);
    freeVal(V1);
    Back.jump(End);
    Back.bindLabel(Else);
    Val V2 = genExpr(N->C);
    Fp ? Back.movD(D, V2.R) : Back.movL(D, V2.R);
    freeVal(V2);
    Back.bindLabel(End);
    return Val{D, true, Fp};
  }

  Val genCall(const ExprNode *N) {
    // Composition with calls: evaluate the callee (if indirect) and every
    // argument to temporaries, then marshal into argument registers.
    Val FnV{};
    if (N->A)
      FnV = genExpr(N->A);
    ArenaVector<Val> Args(ScratchArena);
    Args.reserve(N->ArgC);
    for (std::uint32_t I = 0; I < N->ArgC; ++I)
      Args.push_back(genExpr(N->ArgV[I]));
    unsigned IntSlot = 0, FpSlot = 0;
    for (std::uint32_t I = 0; I < N->ArgC; ++I) {
      if (N->ArgV[I]->Type == EvalType::Double)
        Back.prepareCallArgD(FpSlot++, Args[I].R);
      else
        Back.prepareCallArgI(IntSlot++, Args[I].R);
    }
    for (const Val &V : Args)
      freeVal(V);
    if constexpr (TR::OnePass)
      saveFpRegsAroundCall(true);
    if (N->A)
      Back.emitCallIndirect(FnV.R, N->CallFpArgs);
    else
      Back.emitCall(N->PtrVal, N->CallFpArgs);
    if constexpr (TR::OnePass)
      saveFpRegsAroundCall(false);
    if (N->A)
      freeVal(FnV);
    switch (N->Type) {
    case EvalType::Void:
      return Val{0, false, false};
    case EvalType::Double: {
      int D = TR::allocF(Back);
      Back.resultToD(D);
      return Val{D, true, true};
    }
    case EvalType::Int: {
      int D = TR::allocI(Back);
      Back.resultToI(D);
      return Val{D, true, false};
    }
    default: {
      int D = TR::allocI(Back);
      Back.resultToL(D);
      return Val{D, true, false};
    }
    }
  }

  /// VCode backend only: XMM registers are caller-saved, so any double
  /// currently materialized in the float pool is saved to a per-register
  /// slot before an emitted call and restored afterwards.
  void saveFpRegsAroundCall(bool Save) {
    if constexpr (TR::OnePass) {
      std::uint32_t Mask = Back.allocatedFpMask();
      while (Mask) {
        int R = std::countr_zero(Mask);
        Mask &= Mask - 1;
        int &Slot = FpCallSlots[static_cast<std::size_t>(R)];
        if (Slot == INT_MIN)
          Slot = vcode::VCode::spillReg(Back.allocSlot());
        if (Save)
          Back.movD(Slot, R);
        else
          Back.movD(R, Slot);
      }
    }
  }

  // --- Branch generation ------------------------------------------------------
  void genBranch(const ExprNode *Cond, LabelT Target, bool WhenTrue) {
    if (auto V = Rc.eval(Cond, false)) {
      if (eval::truthy(*V, Cond->Type) == WhenTrue)
        Back.jump(Target);
      return;
    }
    if (Cond->Kind == ExprKind::Unary &&
        static_cast<UnOp>(Cond->OpByte) == UnOp::LogNot) {
      genBranch(Cond->A, Target, !WhenTrue);
      return;
    }
    if (Cond->Kind == ExprKind::Binary) {
      auto O = static_cast<BinOp>(Cond->OpByte);
      if (O == BinOp::LogAnd) {
        if (WhenTrue) {
          LabelT Skip = Back.newLabel();
          genBranch(Cond->A, Skip, false);
          genBranch(Cond->B, Target, true);
          Back.bindLabel(Skip);
        } else {
          genBranch(Cond->A, Target, false);
          genBranch(Cond->B, Target, false);
        }
        return;
      }
      if (O == BinOp::LogOr) {
        if (WhenTrue) {
          genBranch(Cond->A, Target, true);
          genBranch(Cond->B, Target, true);
        } else {
          LabelT Skip = Back.newLabel();
          genBranch(Cond->A, Skip, true);
          genBranch(Cond->B, Target, false);
          Back.bindLabel(Skip);
        }
        return;
      }
    }
    if (Cond->Kind == ExprKind::Cmp) {
      auto K = static_cast<CmpKind>(Cond->OpByte);
      if (!WhenTrue)
        K = vcode::negate(K);
      EvalType OpT = Cond->A->Type;
      if (OpT == EvalType::Int)
        if (auto BC = Rc.eval(Cond->B, false)) {
          Val A = genExpr(Cond->A);
          Back.brCmpII(K, A.R, static_cast<std::int32_t>(BC->I), Target);
          freeVal(A);
          return;
        }
      Val A, B;
      genOperands(Cond, A, B);
      if (OpT == EvalType::Double)
        Back.brCmpD(K, A.R, B.R, Target);
      else if (OpT == EvalType::Int)
        Back.brCmpI(K, A.R, B.R, Target);
      else
        Back.brCmpL(K, A.R, B.R, Target);
      freeVal(A);
      freeVal(B);
      return;
    }
    Val V = genExpr(Cond);
    if (WhenTrue)
      Back.brTrueI(V.R, Target);
    else
      Back.brFalseI(V.R, Target);
    freeVal(V);
  }

  // --- Statements ----------------------------------------------------------------
  void genStmt(const StmtNode *S) {
    if (!S)
      return;
    switch (S->Kind) {
    case StmtKind::Block:
      for (std::uint32_t I = 0; I < S->BodyC; ++I)
        genStmt(S->BodyV[I]);
      return;
    case StmtKind::ExprStmt: {
      Val V = genExpr(S->E);
      freeVal(V);
      return;
    }
    case StmtKind::AssignLocal: {
      if (Rc.isBound(S->LocalId))
        reportFatalError("assignment to an unrolled induction variable");
      Val V = genExpr(S->E);
      int Loc = localLoc(S->LocalId);
      localIsFp(S->LocalId) ? Back.movD(Loc, V.R) : Back.movL(Loc, V.R);
      freeVal(V);
      return;
    }
    case StmtKind::Store: {
      auto [Addr, Off] = genAddress(S->E);
      Val V = genExpr(S->E2);
      switch (static_cast<MemType>(S->OpByte)) {
      case MemType::I8:
      case MemType::U8:
        Back.stI8(Addr.R, Off, V.R);
        break;
      case MemType::I16:
      case MemType::U16:
        Back.stI16(Addr.R, Off, V.R);
        break;
      case MemType::I32:
        Back.stI(Addr.R, Off, V.R);
        break;
      case MemType::I64:
      case MemType::P64:
        Back.stL(Addr.R, Off, V.R);
        break;
      case MemType::F64:
        Back.stD(Addr.R, Off, V.R);
        break;
      }
      freeVal(Addr);
      freeVal(V);
      return;
    }
    case StmtKind::If: {
      // Dead-branch elimination on run-time-constant conditions (§4.4).
      if (auto V = Rc.eval(S->E, false)) {
        ++PE.BranchesEliminated;
        genStmt(eval::truthy(*V, S->E->Type) ? S->S1 : S->S2);
        return;
      }
      if (S->S2) {
        LabelT Else = Back.newLabel(), End = Back.newLabel();
        genBranch(S->E, Else, false);
        genStmt(S->S1);
        Back.jump(End);
        Back.bindLabel(Else);
        genStmt(S->S2);
        Back.bindLabel(End);
      } else {
        LabelT End = Back.newLabel();
        genBranch(S->E, End, false);
        genStmt(S->S1);
        Back.bindLabel(End);
      }
      return;
    }
    case StmtKind::While: {
      LabelT Head = Back.newLabel(), End = Back.newLabel();
      Back.bindLabel(Head);
      genBranch(S->E, End, false);
      hint(+1);
      LoopStack.push_back(LoopLabels{End, Head});
      genStmt(S->S1);
      LoopStack.pop_back();
      hint(-1);
      Back.jump(Head);
      Back.bindLabel(End);
      return;
    }
    case StmtKind::For:
      genFor(S);
      return;
    case StmtKind::Return: {
      if (!S->E) {
        Back.retVoid();
        return;
      }
      if constexpr (TR::OnePass) {
        if (RetType == EvalType::Int && S->E->Type != EvalType::Double)
          if (auto C = Rc.eval(S->E, false)) {
            Back.retII(static_cast<std::int32_t>(C->I));
            return;
          }
      }
      Val V = genExpr(S->E);
      switch (RetType) {
      case EvalType::Double:
        Back.retD(V.R);
        break;
      case EvalType::Int:
        Back.retI(V.R);
        break;
      case EvalType::Void:
        Back.retVoid();
        break;
      default:
        Back.retL(V.R);
        break;
      }
      freeVal(V);
      return;
    }
    case StmtKind::Break:
      if (LoopStack.empty())
        reportFatalError("break outside a loop");
      Back.jump(LoopStack.back().Break);
      return;
    case StmtKind::Continue:
      if (LoopStack.empty())
        reportFatalError("continue outside a loop");
      Back.jump(LoopStack.back().Continue);
      return;
    case StmtKind::LabelDef:
      Back.bindLabel(userLabel(S->LocalId));
      return;
    case StmtKind::Goto:
      Back.jump(userLabel(S->LocalId));
      return;
    }
  }

  void hint(int Delta) {
    if constexpr (!TR::OnePass)
      Back.hint(Delta);
  }

  /// The induction variable's value on each trip of an unrollable loop,
  /// or nullopt past \p Limit trips. Bound test and step are the rolled
  /// loop's: at the variable's type \p T, wrapping at its width.
  std::optional<ArenaVector<std::int64_t>>
  unrollValues(EvalType T, std::int64_t Init, CmpKind K, std::int64_t Bound,
               std::int64_t Step, std::uint64_t Limit) {
    if (Step == 0)
      return std::nullopt;
    ArenaVector<std::int64_t> Values(ScratchArena);
    Value V{eval::canon(Init, T)}, B{eval::canon(Bound, T)};
    while (eval::compare(K, T, V, B)) {
      if (Values.size() > Limit)
        return std::nullopt;
      Values.push_back(V.I);
      V.I = eval::add(V.I, Step, T);
    }
    return Values;
  }

  void genFor(const StmtNode *S) {
    auto K = static_cast<CmpKind>(S->OpByte);
    // Tier-0 profile consult: a measured trip count replaces the static
    // UnrollLimit heuristic for this loop. Decision 1 (roll) is ignored
    // when the body holds a vspec-dependent `$`-expression — that only
    // folds while the loop unrolls, so rolling would be a fatal error at
    // instantiation time.
    std::uint64_t EffLimit = Opts.UnrollLimit;
    bool SkipUnroll = false;
    if (Opts.TripProfile) {
      const StmtNode *const *First =
          std::find(ForVisits.begin(), ForVisits.end(), S);
      if (First != ForVisits.end()) {
        std::size_t Ord = static_cast<std::size_t>(First - ForVisits.begin());
        std::uint8_t D = Opts.TripProfile->Decision[Ord];
        if (D == 1 && !(S->S1->Flags & SF_HasRtEvalLocal)) {
          SkipUnroll = true;
          ++PE.ProfiledUnrolls;
        } else if (D == 2) {
          // Tighten, never raise: a caller's explicit UnrollLimit is a
          // code-size cap, and a measured trip count must not blow past
          // it (profiles refine the heuristic in the rolling direction).
          EffLimit = std::min<std::uint64_t>(Opts.UnrollLimit,
                                             Opts.TripProfile->MaxTrip[Ord]);
          ++PE.ProfiledUnrolls;
        }
      }
    }
    // Dynamic loop unrolling (paper §4.4): run-time-constant bounds and
    // step, and a body that never reassigns the induction variable.
    auto IV = Rc.eval(S->E, false);
    auto BV = Rc.eval(S->E2, false);
    auto SV = Rc.eval(S->E3, false);
    EvalType VarT = Ctx.locals()[static_cast<std::size_t>(S->LocalId)].Type;
    if (!SkipUnroll && IV && BV && SV && S->E->Type != EvalType::Double &&
        S->E2->Type != EvalType::Double && S->E3->Type != EvalType::Double &&
        !(S->Flags & (SF_BodyAssignsVar | SF_HasEscape))) {
      if (auto Values =
              unrollValues(VarT, IV->I, K, BV->I, SV->I, EffLimit)) {
        ++PE.LoopsUnrolled;
        for (std::int64_t V : *Values) {
          Rc.bind(S->LocalId, Value{V}); // Derived run-time constant.
          genStmt(S->S1);
        }
        Rc.unbind(S->LocalId);
        // The induction variable's final value is observable after the
        // loop; materialize it.
        std::int64_t Final = Values->empty()
                                 ? IV->I
                                 : eval::add(Values->back(), SV->I, VarT);
        int Loc = localLoc(S->LocalId);
        if (VarT == EvalType::Int)
          Back.setI(Loc, static_cast<std::int32_t>(Final));
        else
          Back.setL(Loc, Final);
        return;
      }
    }

    // Runtime loop: V = init; head: if (!(V K bound)) goto end;
    // body; cont: V += step; goto head; end:
    bool VarIsLong = VarT != EvalType::Int;
    int Loc = localLoc(S->LocalId);
    {
      Val Init = genExpr(S->E);
      Back.movL(Loc, Init.R);
      freeVal(Init);
    }
    LabelT Head = Back.newLabel(), Cont = Back.newLabel(),
           End = Back.newLabel();
    Back.bindLabel(Head);
    CmpKind NK = vcode::negate(K);
    if (!VarIsLong && BV) {
      Back.brCmpII(NK, Loc, static_cast<std::int32_t>(BV->I), End);
    } else {
      Val Bound = genExpr(S->E2);
      if (VarIsLong)
        Back.brCmpL(NK, Loc, Bound.R, End);
      else
        Back.brCmpI(NK, Loc, Bound.R, End);
      freeVal(Bound);
    }
    hint(+1);
    LoopStack.push_back(LoopLabels{End, Cont});
    genStmt(S->S1);
    LoopStack.pop_back();
    Back.bindLabel(Cont);
    if (SV && !VarIsLong) {
      Back.addII(Loc, Loc, static_cast<std::int32_t>(SV->I));
    } else if (SV && VarIsLong && SV->I >= INT32_MIN && SV->I <= INT32_MAX) {
      Back.addLI(Loc, Loc, static_cast<std::int32_t>(SV->I));
    } else {
      Val Step = genExpr(S->E3);
      if (VarIsLong)
        Back.addL(Loc, Loc, Step.R);
      else
        Back.addI(Loc, Loc, Step.R);
      freeVal(Step);
    }
    hint(-1);
    Back.jump(Head);
    Back.bindLabel(End);
  }

  /// Break/continue targets of the enclosing loop. A plain struct rather
  /// than std::pair: pair's assignment operator is non-trivial, which would
  /// bar it from arena storage.
  struct LoopLabels {
    LabelT Break;
    LabelT Continue;
  };

  Context &Ctx;
  BE &Back;
  EvalType RetType;
  const CompileOptions &Opts;
  RcEvaluator Rc;
  ArenaVector<int> LocalLoc;
  ArenaVector<std::optional<LabelT>> UserLabels;
  ArenaVector<LoopLabels> LoopStack;
  Arena &ScratchArena;
  /// Pre-order For visits, up to the trip profile's loop count (empty
  /// without a profile): a loop's ordinal is the index of its first visit.
  ArenaVector<const StmtNode *> ForVisits;
  bool BodyHasCalls = false;
  int FpCallSlots[vcode::VCode::NumFloatPool] = {
      INT_MIN, INT_MIN, INT_MIN, INT_MIN, INT_MIN, INT_MIN,
      INT_MIN, INT_MIN, INT_MIN, INT_MIN, INT_MIN, INT_MIN};
};

/// Global-registry mirrors of the per-compile accounting. Resolved once;
/// each compile flushes its DynStats/decisions with a handful of relaxed
/// adds, keeping the instrumented path within the disabled-overhead budget.
struct CompileMetrics {
  obs::Counter &CountVCode, &CountICode, &CountPCode;
  obs::Counter &CyclesTotal, &CodeBytes, &MachineInstrs;
  obs::Counter &Setup, &Walk, &Finalize, &FlowGraph, &Liveness, &Intervals,
      &RegAlloc, &Peephole, &Emit;
  obs::Counter &Spilled, &Unrolled, &DeadBranches, &Strength, &Profiled;
  obs::Counter &Allocs, &StencilPatches;
  obs::Histogram &HistVCode, &HistPCode, &HistLinear, &HistColor;
  obs::Histogram &ArenaBytes, &CpiVCode, &CpiICode, &CpiPCode;

  static CompileMetrics &get() {
    using obs::MetricsRegistry;
    namespace N = obs::names;
    auto &R = MetricsRegistry::global();
    static CompileMetrics M{
        R.counter(N::CompileCountVCode), R.counter(N::CompileCountICode),
        R.counter(N::CompileCountPCode),
        R.counter(N::CompileCyclesTotal), R.counter(N::CompileCodeBytes),
        R.counter(N::CompileMachineInstrs), R.counter(N::PhaseSetup),
        R.counter(N::PhaseCgfWalk),
        R.counter(N::PhaseFinalize), R.counter(N::PhaseFlowGraph),
        R.counter(N::PhaseLiveness), R.counter(N::PhaseLiveIntervals),
        R.counter(N::PhaseRegAlloc), R.counter(N::PhasePeephole),
        R.counter(N::PhaseEmit), R.counter(N::SpilledIntervals),
        R.counter(N::LoopsUnrolled), R.counter(N::BranchesEliminated),
        R.counter(N::StrengthReductions), R.counter(N::UnrollProfiled),
        R.counter(N::CompileAllocs),
        R.counter(N::StencilPatches),
        R.histogram(N::HistCyclesVCode), R.histogram(N::HistCyclesPCode),
        R.histogram(N::HistCyclesLinearScan),
        R.histogram(N::HistCyclesGraphColor),
        R.histogram(N::HistArenaBytes), R.histogram(N::HistCpiVCode),
        R.histogram(N::HistCpiICode), R.histogram(N::HistCpiPCode)};
    return M;
  }
};

template <class BE>
void publishCompileMetrics(const CompiledFn &F, const CompileOptions &Opts,
                           const typename Walker<BE>::Decisions &PE) {
  CompileMetrics &M = CompileMetrics::get();
  const DynStats &S = F.stats();
  M.CyclesTotal.inc(S.CyclesTotal);
  M.Setup.inc(S.CyclesSetup);
  M.Walk.inc(S.CyclesWalk);
  M.Finalize.inc(S.CyclesFinalize);
  M.CodeBytes.inc(S.CodeBytes);
  M.MachineInstrs.inc(S.MachineInstrs);
  if (PE.LoopsUnrolled)
    M.Unrolled.inc(PE.LoopsUnrolled);
  if (PE.BranchesEliminated)
    M.DeadBranches.inc(PE.BranchesEliminated);
  if (PE.StrengthReductions)
    M.Strength.inc(PE.StrengthReductions);
  if (PE.ProfiledUnrolls)
    M.Profiled.inc(PE.ProfiledUnrolls);
  if (S.MachineInstrs > 0) {
    std::uint64_t Cpi = S.CyclesTotal / S.MachineInstrs;
    (Opts.Backend == BackendKind::VCode   ? M.CpiVCode
     : Opts.Backend == BackendKind::PCode ? M.CpiPCode
                                          : M.CpiICode)
        .record(Cpi);
  }
  if (Opts.Backend == BackendKind::VCode) {
    M.CountVCode.inc();
    M.HistVCode.record(S.CyclesTotal);
  } else if (Opts.Backend == BackendKind::PCode) {
    M.CountPCode.inc();
    M.HistPCode.record(S.CyclesTotal);
  } else {
    M.CountICode.inc();
    M.FlowGraph.inc(S.ICode.CyclesFlowGraph);
    M.Liveness.inc(S.ICode.CyclesLiveness);
    M.Intervals.inc(S.ICode.CyclesIntervals);
    M.RegAlloc.inc(S.ICode.CyclesRegAlloc);
    M.Peephole.inc(S.ICode.CyclesPeephole);
    M.Emit.inc(S.ICode.CyclesEmit);
    M.Spilled.inc(S.ICode.NumSpilledIntervals);
    (Opts.RegAlloc == icode::RegAllocKind::LinearScan ? M.HistLinear
                                                      : M.HistColor)
        .record(S.CyclesTotal);
  }
}

/// Bridges the ICODE pipeline's CompileAudit hooks to the verify layers.
/// The IR is re-verified after the peephole (DCE must not invent or orphan
/// operands) and the allocation audited the moment it exists, before the
/// emitter consumes it. Any finding aborts the compile with a structured
/// report — generated code never escapes a failed check.
/// Ctx points at the per-compile verify-cycle accumulator: checker time is
/// recorded under verify.cycles and *subtracted* from the compile's own
/// CyclesTotal, so verification never skews the Figure 6/7 phase accounting
/// or the cycles-per-instruction overhead series.
struct VerifyHooks {
  static void postPeephole(void *Ctx, const icode::ICode &IC) {
    std::uint64_t Cyc = 0;
    verify::Result R;
    {
      PhaseScope T(Cyc);
      R = verify::verifyICode(IC);
    }
    *static_cast<std::uint64_t *>(Ctx) += Cyc;
    verify::recordOutcome(verify::Layer::IR, !R.ok(), Cyc);
    if (!R.ok())
      verify::failCompile(R);
  }
  static void postRegAlloc(void *Ctx, const icode::ICode &IC,
                           const icode::Allocation &Alloc) {
    std::uint64_t Cyc = 0;
    verify::Result R;
    {
      PhaseScope T(Cyc);
      R = verify::auditAllocation(IC, Alloc);
    }
    *static_cast<std::uint64_t *>(Ctx) += Cyc;
    verify::recordOutcome(verify::Layer::RegAlloc, !R.ok(), Cyc);
    if (!R.ok())
      verify::failCompile(R);
  }
};

} // namespace

BackendKind core::baselineBackendFromEnv() {
  static const BackendKind K = [] {
    const char *V = std::getenv("TICKC_BACKEND");
    if (V) {
      if (std::strcmp(V, "vcode") == 0)
        return BackendKind::VCode;
      if (std::strcmp(V, "icode") == 0)
        return BackendKind::ICode;
    }
    return BackendKind::PCode;
  }();
  return K;
}

CompiledFn core::compileFn(Context &Ctx, Stmt Body, EvalType RetType,
                           const CompileOptions &Opts) {
  assert(Body.valid() && "compiling an empty cspec");
  // Environment-driven runtime observability (perf map/jitdump export, the
  // SIGPROF sampler, the flight-recorder crash handler) attaches at the
  // first compile, before any generated code can run.
  static std::once_flag ObsOnce;
  std::call_once(ObsOnce, obs::initRuntimeObservabilityFromEnv);
  const char *SymName =
      Opts.SymbolName && *Opts.SymbolName ? Opts.SymbolName
      : Opts.ProfileName && *Opts.ProfileName
          ? Opts.ProfileName
          : (Opts.Backend == BackendKind::VCode   ? "spec.vcode"
             : Opts.Backend == BackendKind::PCode ? "spec.pcode"
                                                  : "spec.icode");
  obs::flightRecord(obs::FlightEvent::CompileBegin, 0, 0, SymName);
  const bool DoVerify = verify::enabled(Opts.Verify);
  if (DoVerify) {
    std::uint64_t Cyc = 0;
    verify::Result R;
    {
      PhaseScope T(Cyc);
      R = verify::lintSpec(Ctx, Body.node());
    }
    verify::recordOutcome(verify::Layer::Spec, !R.ok(), Cyc);
    if (!R.ok())
      verify::failCompile(R);
  }
  obs::TraceSpan TotalSpan(obs::SpanKind::CompileTotal);
  CompiledFn F;
  F.Stats.Backend = Opts.Backend;
  if (Opts.Profile)
    F.Prof = obs::ProfileRegistry::global().create(
        Opts.ProfileName ? Opts.ProfileName : "");
  F.Region = Opts.Pool
                 ? Opts.Pool->acquire(Opts.CodeCapacity, Opts.Placement)
                 : PooledRegion(new CodeRegion(Opts.CodeCapacity,
                                               Opts.Placement));
  // Per-compile scratch: the caller's context, or this thread's fallback.
  // A nested compile on the same thread (a CGF that itself compiles) must
  // not reset the arena the outer compile is using, so it gets a private
  // one for the duration.
  CompileContext *CC =
      Opts.Ctx ? Opts.Ctx : &CompileContext::forCurrentThread();
  std::unique_ptr<CompileContext> Nested;
  if (CC->inUse()) {
    Nested.reset(new CompileContext());
    CC = Nested.get();
  }
  CompileContext::Scope CtxScope(*CC);
  Arena &A = CC->arena();
  typename Walker<vcode::VCode>::Decisions PE;
  // Checker time spent inside the Total scope; deducted below so CyclesTotal
  // keeps meaning "what the compile itself cost" with or without -verify.
  std::uint64_t VerifyCyc = 0;
  // Resolve the stencil library before the timed region: it is a one-time
  // process cost (stencil.library.build_cycles), and letting it land inside
  // the first PCODE compile's CyclesTotal would skew the phase accounting.
  if (Opts.Backend == BackendKind::PCode)
    (void)pcode::StencilLibrary::get();
  {
    PhaseScope Total(F.Stats.CyclesTotal);
    if (Opts.Backend == BackendKind::VCode) {
      // Backend/walker construction is charged to the setup phase so the
      // stacked breakdown keeps summing to the total (tickc-report's drift
      // guard asserts >= 95% coverage).
      std::uint64_t SetupStart = readCycleCounterBegin();
      vcode::VCode V(F.Region->base(), F.Region->capacity(), &A);
      if (Opts.Relocs)
        V.assembler().setRelocTable(Opts.Relocs);
      Walker<vcode::VCode> W(Ctx, V, RetType, Opts, A);
      if (F.Prof)
        W.ProfileCounter = &F.Prof->Invocations;
      F.Stats.CyclesSetup += readCycleCounterEnd() - SetupStart;
      {
        PhaseScope Walk(F.Stats.CyclesWalk);
        obs::TraceSpan Span(obs::SpanKind::CGFWalk);
        W.run(Body.node());
        F.Entry = V.finish();
      }
      F.Stats.MachineInstrs = V.instructionsEmitted();
      F.Stats.CodeBytes = V.codeBytes();
      PE = W.PE;
    } else if (Opts.Backend == BackendKind::PCode) {
      // Copy-and-patch: same abstract machine as VCODE, but emission is a
      // stencil memcpy + hole patch instead of per-op x86 encoding. The
      // stencil library is built (and self-validated) once per process; its
      // cost never lands on an individual compile.
      std::uint64_t SetupStart = readCycleCounterBegin();
      pcode::PCode P(F.Region->base(), F.Region->capacity(), &A);
      if (Opts.Relocs)
        P.assembler().setRelocTable(Opts.Relocs);
      Walker<pcode::PCode> W(Ctx, P, RetType, Opts, A);
      if (F.Prof)
        W.ProfileCounter = &F.Prof->Invocations;
      F.Stats.CyclesSetup += readCycleCounterEnd() - SetupStart;
      {
        PhaseScope Walk(F.Stats.CyclesWalk);
        obs::TraceSpan Span(obs::SpanKind::CGFWalk);
        W.run(Body.node());
        F.Entry = P.finish();
      }
      F.Stats.MachineInstrs = P.instructionsEmitted();
      F.Stats.CodeBytes = P.codeBytes();
      CompileMetrics::get().StencilPatches.inc(P.assembler().patchesApplied());
      PE = {W.PE.LoopsUnrolled, W.PE.BranchesEliminated,
            W.PE.StrengthReductions, W.PE.ProfiledUnrolls};
    } else {
      std::uint64_t SetupStart = readCycleCounterBegin();
      icode::ICode IC(A);
      Walker<icode::ICode> W(Ctx, IC, RetType, Opts, A);
      if (F.Prof)
        W.ProfileCounter = &F.Prof->Invocations;
      F.Stats.CyclesSetup += readCycleCounterEnd() - SetupStart;
      {
        PhaseScope Walk(F.Stats.CyclesWalk);
        obs::TraceSpan Span(obs::SpanKind::CGFWalk);
        W.run(Body.node());
      }
      if (DoVerify) {
        // Post-lowering IR check; the peephole and regalloc re-checks run
        // from inside the pipeline via the audit hooks below.
        std::uint64_t Cyc = 0;
        verify::Result R;
        {
          PhaseScope T(Cyc);
          R = verify::verifyICode(IC);
        }
        VerifyCyc += Cyc;
        verify::recordOutcome(verify::Layer::IR, !R.ok(), Cyc);
        if (!R.ok())
          verify::failCompile(R);
      }
      icode::CompileAudit Audit;
      Audit.Ctx = &VerifyCyc;
      Audit.PostPeephole = &VerifyHooks::postPeephole;
      Audit.PostRegAlloc = &VerifyHooks::postRegAlloc;
      SetupStart = readCycleCounterBegin();
      vcode::VCode V(F.Region->base(), F.Region->capacity(), &A);
      if (Opts.Relocs)
        V.assembler().setRelocTable(Opts.Relocs);
      F.Stats.CyclesSetup += readCycleCounterEnd() - SetupStart;
      F.Entry = IC.compileTo(V, Opts.RegAlloc, &F.Stats.ICode, Opts.Spill,
                             DoVerify ? &Audit : nullptr);
      F.Stats.MachineInstrs = V.instructionsEmitted();
      F.Stats.CodeBytes = V.codeBytes();
      PE = {W.PE.LoopsUnrolled, W.PE.BranchesEliminated,
            W.PE.StrengthReductions, W.PE.ProfiledUnrolls};
    }
    if (DoVerify) {
      // The machine-code check runs on the finished bytes while the region
      // is still readable through its write mapping, before anything can
      // execute them. It is the admission pass every snapshot load faces,
      // so a shape the loader would reject can never be saved unnoticed;
      // a portable reloc table, when recorded, is handed over so the
      // call-target confinement proof runs exactly as it will on reload.
      // Fresh compiles add their backend's obligations on top.
      std::uint64_t Cyc = 0;
      verify::Result R;
      {
        PhaseScope T(Cyc);
        verify::AdmissionInputs AI;
        AI.Code = F.Region->base();
        AI.Size = F.Stats.CodeBytes;
        AI.ProfileCounter =
            F.Prof ? static_cast<const void *>(&F.Prof->Invocations) : nullptr;
        AI.ExpectProfile = Opts.Profile && F.Prof != nullptr;
        // Spill store-before-load and the usage cross-check assume ICODE's
        // emission discipline; VCODE's one-pass output gets the rest.
        AI.ICodeDiscipline = Opts.Backend == BackendKind::ICode;
        if (Opts.Backend == BackendKind::PCode)
          // Patched output must stay inside the instruction vocabulary the
          // stencil library rendered (plus the escape-hatch ops that call
          // the encoder directly). Byte-level patch correctness itself is
          // proven at library build time (dual-render re-patch
          // equivalence) and by the differential suite.
          AI.StencilClassMask = pcode::StencilLibrary::get().ClassMask |
                                pcode::StencilAssembler::glueClassMask();
        std::vector<verify::AdmissionReloc> ARelocs;
        if (Opts.Relocs && !Opts.Relocs->Unportable) {
          ARelocs.reserve(Opts.Relocs->Entries.size());
          for (const support::RelocEntry &E : Opts.Relocs->Entries)
            ARelocs.push_back({E.Offset, static_cast<std::uint8_t>(E.Kind)});
          AI.Relocs = ARelocs.data();
          AI.NumRelocs = ARelocs.size();
          AI.HaveRelocs = true;
        }
        R = verify::verifyAdmission(AI);
      }
      VerifyCyc += Cyc;
      verify::recordOutcome(verify::Layer::Admit, !R.ok(), Cyc);
      if (!R.ok())
        verify::failCompile(R);
    }
    {
      // Finalization is part of what a compile costs; charge it inside the
      // total so the phase breakdown sums to the whole. For dual-mapped
      // (pooled) regions this is a flag flip plus the entry-pointer
      // translation into the exec alias; single mappings pay the classic
      // mprotect + icache sync here.
      PhaseScope Fin(F.Stats.CyclesFinalize);
      F.Region->makeExecutable();
      if (F.Entry)
        F.Entry = F.Region->execPtr(F.Entry);
    }
  }
  F.Stats.CyclesTotal -= std::min(F.Stats.CyclesTotal, VerifyCyc);
  if (F.Prof) {
    F.Prof->CompileCycles.store(F.Stats.CyclesTotal,
                                std::memory_order_relaxed);
    F.Prof->CodeBytes.store(F.Stats.CodeBytes, std::memory_order_relaxed);
    F.Prof->MachineInstrs.store(F.Stats.MachineInstrs,
                                std::memory_order_relaxed);
    F.Prof->Backend.store(Opts.Backend == BackendKind::VCode   ? "vcode"
                          : Opts.Backend == BackendKind::PCode ? "pcode"
                                                               : "icode",
                          std::memory_order_relaxed);
  }
  {
    // Compile-path memory accounting: zero allocs in steady state (the
    // context's arena retains capacity across compiles).
    CompileMetrics &M = CompileMetrics::get();
    M.Allocs.inc(CC->allocsThisCompile());
    M.ArenaBytes.record(CC->arenaBytes());
  }
  // Register the finalized region so the sampler, the flight recorder, and
  // external perf can symbolize its PCs. The handle retires in ~CompiledFn
  // (declared after Region/Prof), which runs only when the last handle
  // drops; a dispatch slot holds every tier it installed for its whole
  // life, so no slot caller can still be executing the region.
  if (F.Entry && F.Stats.CodeBytes)
    F.Sym = obs::RuntimeSymbolTable::global().registerRegion(
        F.Entry, F.Stats.CodeBytes, SymName,
        F.Prof ? &F.Prof->Samples : nullptr);
  obs::flightRecord(obs::FlightEvent::CompileEnd, F.Stats.CodeBytes,
                    F.Stats.CyclesTotal, SymName);
  publishCompileMetrics<vcode::VCode>(F, Opts, PE);
  return F;
}

CompiledFn core::adoptLoadedCode(LoadedCode &&L) {
  assert(L.Region && L.CodeBytes && "adopting an empty loaded region");
  CompiledFn F;
  F.Region = std::move(L.Region);
  F.Prof = std::move(L.Prof);
  F.FromSnapshot = true;
  F.Stats.CodeBytes = L.CodeBytes;
  F.Stats.MachineInstrs = L.MachineInstrs;
  F.Stats.Backend = L.Backend;
  // Compile-phase cycles stay zero: nothing was compiled here, and a loaded
  // function reporting a walk cost would corrupt the paper's per-phase
  // tables. The snapshot layer accounts load latency separately
  // (cache.snapshot.load.cycles).
  {
    PhaseScope Fin(F.Stats.CyclesFinalize);
    F.Region->makeExecutable();
    F.Entry = F.Region->execPtr(F.Region->base());
  }
  const char *SymName =
      L.SymbolName && *L.SymbolName ? L.SymbolName : "spec.snapshot";
  if (F.Prof) {
    F.Prof->CodeBytes.store(F.Stats.CodeBytes, std::memory_order_relaxed);
    F.Prof->MachineInstrs.store(F.Stats.MachineInstrs,
                                std::memory_order_relaxed);
    F.Prof->Backend.store("snapshot", std::memory_order_relaxed);
  }
  F.Sym = obs::RuntimeSymbolTable::global().registerRegion(
      F.Entry, F.Stats.CodeBytes, SymName,
      F.Prof ? &F.Prof->Samples : nullptr);
  obs::flightRecord(obs::FlightEvent::CompileEnd, F.Stats.CodeBytes, 0,
                    SymName);
  return F;
}
