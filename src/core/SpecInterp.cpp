//===- core/SpecInterp.cpp - Spec-tree interpreter (tier 0) ---------------==//
//
// Executes specification trees directly, mirroring the semantics the
// compiled back ends implement: canonical Int values are sign-extended
// 32-bit, division follows x86 idiv (SIGFPE on the trap cases), shifts mask
// their count, and the For statement re-tests its bound and applies its
// step exactly like the emitted runtime loop. Where the instantiation-time
// RcEvaluator and the generated code agree, this interpreter agrees with
// both — that is the tier-0 contract the differential test pins.
//
//===----------------------------------------------------------------------===//

#include "core/SpecInterp.h"

#include <algorithm>
#include <cassert>
#include <csignal>
#include <cstring>
#include <limits>

using namespace tcc;
using namespace tcc::core;

namespace {

inline std::int64_t sext32(std::int64_t V) {
  return static_cast<std::int32_t>(V);
}

/// Dispatch ladder for live calls: the supported (int-class, double)
/// argument-count grid, called through an all-ints-then-doubles prototype —
/// which is exactly the SysV register assignment for any interleaving of
/// the two classes, so the callee sees its arguments in the right places.
template <typename R>
R callSig(const void *FnP, const std::int64_t *A, unsigned NI,
          const double *X, unsigned ND) {
  using I = std::int64_t;
  switch (NI * 4 + ND) {
  case 0 * 4 + 0:
    return ((R (*)())FnP)();
  case 0 * 4 + 1:
    return ((R (*)(double))FnP)(X[0]);
  case 0 * 4 + 2:
    return ((R (*)(double, double))FnP)(X[0], X[1]);
  case 1 * 4 + 0:
    return ((R (*)(I))FnP)(A[0]);
  case 1 * 4 + 1:
    return ((R (*)(I, double))FnP)(A[0], X[0]);
  case 1 * 4 + 2:
    return ((R (*)(I, double, double))FnP)(A[0], X[0], X[1]);
  case 2 * 4 + 0:
    return ((R (*)(I, I))FnP)(A[0], A[1]);
  case 2 * 4 + 1:
    return ((R (*)(I, I, double))FnP)(A[0], A[1], X[0]);
  case 2 * 4 + 2:
    return ((R (*)(I, I, double, double))FnP)(A[0], A[1], X[0], X[1]);
  case 3 * 4 + 0:
    return ((R (*)(I, I, I))FnP)(A[0], A[1], A[2]);
  case 3 * 4 + 1:
    return ((R (*)(I, I, I, double))FnP)(A[0], A[1], A[2], X[0]);
  case 4 * 4 + 0:
    return ((R (*)(I, I, I, I))FnP)(A[0], A[1], A[2], A[3]);
  case 4 * 4 + 1:
    return ((R (*)(I, I, I, I, double))FnP)(A[0], A[1], A[2], A[3], X[0]);
  case 5 * 4 + 0:
    return ((R (*)(I, I, I, I, I))FnP)(A[0], A[1], A[2], A[3], A[4]);
  case 6 * 4 + 0:
    return ((R (*)(I, I, I, I, I, I))FnP)(A[0], A[1], A[2], A[3], A[4], A[5]);
  default:
    // Unreachable: specInterpretable() rejected this signature.
    return R();
  }
}

/// Supported (int-class, double) argument-count combinations of callSig.
bool callSigSupported(unsigned NI, unsigned ND) {
  if (NI <= 2)
    return ND <= 2;
  if (NI <= 4)
    return ND <= 1;
  return NI <= 6 && ND == 0;
}

} // namespace

bool core::specInterpretable(const Context &Ctx, Stmt Body,
                             EvalType RetType) {
  // The interpreter's construction walk is the check (no profile: no
  // ordinal index is built).
  return SpecInterp(Ctx, Body, RetType).ok();
}

Tier0ProfileSnapshot core::snapshotTier0(const Tier0Profile &P) {
  Tier0ProfileSnapshot S;
  S.NumLoops = P.NumLoops < Tier0Profile::MaxLoops ? P.NumLoops
                                                   : Tier0Profile::MaxLoops;
  for (std::uint32_t I = 0; I < S.NumLoops; ++I) {
    const Tier0Profile::LoopStat &LS = P.Loops[I];
    std::uint64_t Entries = LS.Entries.load(std::memory_order_relaxed);
    std::uint64_t Max = LS.MaxTrip.load(std::memory_order_relaxed);
    if (!Entries)
      continue; // Unobserved: leave decision 0 (static heuristic).
    if (P.FoldCritical[I] || Max <= Tier0Profile::UnrollCutoff) {
      S.Decision[I] = 2;
      S.MaxTrip[I] = Max > 0xffffffffull
                         ? 0xffffffffu
                         : static_cast<std::uint32_t>(Max);
    } else {
      S.Decision[I] = 1; // Measured trips too large: roll the loop.
    }
  }
  return S;
}

//===----------------------------------------------------------------------===//
// SpecInterp
//===----------------------------------------------------------------------===//

struct SpecInterp::Val {
  std::int64_t I = 0;
  double D = 0;
};

struct SpecInterp::Frame {
  std::int64_t *L;
  double *F;
};

enum class SpecInterp::Flow : std::uint8_t { Next, Break, Continue, Return };

SpecInterp::SpecInterp(const Context &C, Stmt Body, EvalType RT,
                       Tier0Profile *P)
    : Ctx(&C), Root(Body.node()), RetType(RT), Prof(P) {
  indexTree();
}

SpecInterp::SpecInterp(std::unique_ptr<Context> OC, Stmt Body, EvalType RT,
                       Tier0Profile *P)
    : Owned(std::move(OC)), Ctx(Owned.get()), Root(Body.node()), RetType(RT),
      Prof(P) {
  indexTree();
}

void SpecInterp::indexTree() {
  // The construction walk doubles as the interpretability check (the
  // verdict specInterpretable() computes standalone): creation sits on the
  // tier manager's latency path, so eligibility and ordinal assignment
  // share one traversal. Any violation clears Ok and short-circuits the
  // rest of the walk.
  if (!Root || Ctx->locals().size() > MaxLocals) {
    Ok = false;
    return;
  }
  LocalTypes.reserve(Ctx->locals().size());
  for (std::size_t I = 0; I < Ctx->locals().size(); ++I) {
    const LocalInfo &L = Ctx->locals()[I];
    LocalTypes.push_back(L.Type);
    if (L.ArgIndex >= 0) {
      // Marshalling range: the SysV integer-class registers (6) and the
      // tier wrapper's double buffer (8).
      if (L.Type == EvalType::Double ? L.ArgIndex >= 8 : L.ArgIndex >= 6) {
        Ok = false;
        return;
      }
      Params.push_back(
          {static_cast<std::int32_t>(I), L.ArgIndex, L.Type});
    }
  }
  // Every reachable node was created in Ctx before the root, so its Ord
  // indexes Slot (indexStmt/indexExpr reject any other node).
  if (Prof)
    Slot.assign(static_cast<std::size_t>(Root->Ord) + 1, Unvisited);
  std::vector<const StmtNode *> ForStack;
  indexStmt(Root, ForStack);
  if (Prof) {
    Prof->NumLoops = LoopCounter < Tier0Profile::MaxLoops
                         ? LoopCounter
                         : Tier0Profile::MaxLoops;
    Prof->NumBranches = BranchCounter < Tier0Profile::MaxBranches
                            ? BranchCounter
                            : Tier0Profile::MaxBranches;
    Prof->NumRtConsts = RtCounter < Tier0Profile::MaxRtConsts
                            ? RtCounter
                            : Tier0Profile::MaxRtConsts;
  }
}

static_assert(Tier0Profile::MaxLoops < 0xFE &&
                  Tier0Profile::MaxBranches < 0xFE &&
                  Tier0Profile::MaxRtConsts < 0xFE,
              "slot sentinels lie past every profile capacity");

void SpecInterp::assignSlot(std::uint32_t Ord, unsigned Counter,
                            unsigned Max) {
  if (Prof && Slot[Ord] == Unvisited)
    Slot[Ord] = Counter < Max ? static_cast<std::uint8_t>(Counter) : Full;
}

void SpecInterp::indexStmt(const StmtNode *S,
                           std::vector<const StmtNode *> &ForStack) {
  if (!S || !Ok)
    return;
  if (S->Ctx != Ctx || S->Ord > Root->Ord) {
    Ok = false; // Not from this spec's Context: no slot in the index.
    return;
  }
  // Pre-order, counting every visit (shared subtrees revisit) but mapping
  // each node to its first-visit ordinal — the numbering the compiler's
  // Walker re-derives (collectForVisits in Compile.cpp). The two
  // walks must stay byte-for-byte in step.
  bool PushedFor = false;
  if (S->Kind == StmtKind::For) {
    if (Ctx->locals()[static_cast<std::size_t>(S->LocalId)].Type ==
        EvalType::Double) {
      Ok = false; // No floating-point induction variables.
      return;
    }
    assignSlot(S->Ord, LoopCounter++, Tier0Profile::MaxLoops);
    ForStack.push_back(S);
    PushedFor = true;
  } else if (S->Kind == StmtKind::If) {
    assignSlot(S->Ord, BranchCounter++, Tier0Profile::MaxBranches);
  } else if (S->Kind == StmtKind::LabelDef || S->Kind == StmtKind::Goto) {
    // Dynamic labels need a flattened control-flow representation the
    // tree walk does not have; such specs take the synchronous baseline.
    Ok = false;
    return;
  }
  indexExpr(S->E, ForStack);
  indexExpr(S->E2, ForStack);
  indexExpr(S->E3, ForStack);
  indexStmt(S->S1, ForStack);
  indexStmt(S->S2, ForStack);
  for (std::uint32_t I = 0; I < S->BodyC; ++I)
    indexStmt(S->BodyV[I], ForStack);
  if (PushedFor)
    ForStack.pop_back();
}

void SpecInterp::indexExpr(const ExprNode *N,
                           std::vector<const StmtNode *> &ForStack) {
  if (!N || !Ok)
    return;
  if (N->Ctx != Ctx || N->Ord > Root->Ord) {
    Ok = false;
    return;
  }
  if (N->Kind == ExprKind::Call) {
    unsigned NI = 0, ND = 0;
    for (std::uint32_t I = 0; I < N->ArgC; ++I) {
      if (N->ArgV[I]->Type == EvalType::Double)
        ++ND;
      else
        ++NI;
    }
    if (!callSigSupported(NI, ND)) {
      Ok = false; // Signature outside the dispatch ladder.
      return;
    }
  }
  if (N->Kind == ExprKind::RtEval) {
    assignSlot(N->Ord, RtCounter++, Tier0Profile::MaxRtConsts);
    if (Prof && (N->Flags & EF_HasLocal)) {
      // A `$`-expression over a vspec folds only when the loops binding
      // that vspec unroll: every enclosing For must keep unrolling, so
      // the profile snapshot may never decide to roll one of them.
      for (const StmtNode *F : ForStack)
        if (unsigned O = Slot[F->Ord]; O < Tier0Profile::MaxLoops)
          Prof->FoldCritical[O] = true;
    }
  }
  indexExpr(N->A, ForStack);
  indexExpr(N->B, ForStack);
  indexExpr(N->C, ForStack);
  for (std::uint32_t I = 0; I < N->ArgC; ++I)
    indexExpr(N->ArgV[I], ForStack);
}

namespace {

inline bool valTruthy(std::int64_t I, double D, EvalType T) {
  return T == EvalType::Double ? D != 0 : I != 0;
}

} // namespace

SpecInterp::Val SpecInterp::evalCall(const ExprNode *N, Frame &F) const {
  std::int64_t IA[8];
  double FA[8];
  unsigned NI = 0, ND = 0;
  const void *Fn = N->PtrVal;
  if (!Fn) {
    Val T = evalExpr(N->A, F);
    Fn = reinterpret_cast<const void *>(static_cast<std::uintptr_t>(T.I));
  }
  for (std::uint32_t I = 0; I < N->ArgC; ++I) {
    const ExprNode *Arg = N->ArgV[I];
    Val V = evalExpr(Arg, F);
    if (Arg->Type == EvalType::Double)
      FA[ND++] = V.D;
    else
      IA[NI++] = V.I;
  }
  Val R;
  switch (N->Type) {
  case EvalType::Void:
    callSig<void>(Fn, IA, NI, FA, ND);
    break;
  case EvalType::Int:
    R.I = sext32(callSig<std::int32_t>(Fn, IA, NI, FA, ND));
    break;
  case EvalType::Double:
    R.D = callSig<double>(Fn, IA, NI, FA, ND);
    break;
  default:
    R.I = callSig<std::int64_t>(Fn, IA, NI, FA, ND);
    break;
  }
  return R;
}

SpecInterp::Val SpecInterp::evalExpr(const ExprNode *N, Frame &F) const {
  Val R;
  switch (N->Kind) {
  case ExprKind::ConstInt:
    R.I = sext32(N->IntVal);
    return R;
  case ExprKind::ConstLong:
    R.I = N->IntVal;
    return R;
  case ExprKind::ConstDouble:
    R.D = N->FpVal;
    return R;
  case ExprKind::FreeVar: {
    const void *P = N->PtrVal;
    switch (static_cast<MemType>(N->OpByte)) {
    case MemType::I8:
      R.I = *static_cast<const std::int8_t *>(P);
      break;
    case MemType::U8:
      R.I = *static_cast<const std::uint8_t *>(P);
      break;
    case MemType::I16:
      R.I = *static_cast<const std::int16_t *>(P);
      break;
    case MemType::U16:
      R.I = *static_cast<const std::uint16_t *>(P);
      break;
    case MemType::I32:
      R.I = *static_cast<const std::int32_t *>(P);
      break;
    case MemType::I64:
      R.I = *static_cast<const std::int64_t *>(P);
      break;
    case MemType::P64:
      R.I = static_cast<std::int64_t>(
          *static_cast<const std::uintptr_t *>(P));
      break;
    case MemType::F64:
      R.D = *static_cast<const double *>(P);
      break;
    }
    return R;
  }
  case ExprKind::Local: {
    std::size_t Id = static_cast<std::size_t>(N->LocalId);
    if (LocalTypes[Id] == EvalType::Double)
      R.D = F.F[Id];
    else
      R.I = F.L[Id];
    return R;
  }
  case ExprKind::Load: {
    Val A = evalExpr(N->A, F);
    const void *P =
        reinterpret_cast<const void *>(static_cast<std::uintptr_t>(A.I));
    switch (static_cast<MemType>(N->OpByte)) {
    case MemType::I8:
      R.I = *static_cast<const std::int8_t *>(P);
      break;
    case MemType::U8:
      R.I = *static_cast<const std::uint8_t *>(P);
      break;
    case MemType::I16:
      R.I = *static_cast<const std::int16_t *>(P);
      break;
    case MemType::U16:
      R.I = *static_cast<const std::uint16_t *>(P);
      break;
    case MemType::I32:
      R.I = *static_cast<const std::int32_t *>(P);
      break;
    case MemType::I64:
      R.I = *static_cast<const std::int64_t *>(P);
      break;
    case MemType::P64:
      R.I = static_cast<std::int64_t>(
          *static_cast<const std::uintptr_t *>(P));
      break;
    case MemType::F64:
      R.D = *static_cast<const double *>(P);
      break;
    }
    return R;
  }
  case ExprKind::RtEval: {
    Val V = evalExpr(N->A, F);
    if (Prof) {
      if (unsigned O = Slot[N->Ord]; O < Tier0Profile::MaxRtConsts) {
        std::uint64_t H;
        if (N->Type == EvalType::Double)
          std::memcpy(&H, &V.D, 8);
        else
          H = static_cast<std::uint64_t>(V.I);
        std::uint8_t St = Prof->RtState[O].load(std::memory_order_relaxed);
        if (St == 0) {
          Prof->RtHash[O].store(H, std::memory_order_relaxed);
          Prof->RtState[O].store(1, std::memory_order_relaxed);
        } else if (St == 1 &&
                   Prof->RtHash[O].load(std::memory_order_relaxed) != H) {
          Prof->RtState[O].store(2, std::memory_order_relaxed);
        }
      }
    }
    return V;
  }
  case ExprKind::Unary: {
    Val V = evalExpr(N->A, F);
    switch (static_cast<UnOp>(N->OpByte)) {
    case UnOp::Neg:
      if (N->Type == EvalType::Double)
        R.D = -V.D;
      else if (N->Type == EvalType::Int)
        R.I = sext32(-V.I);
      else
        R.I = -V.I;
      return R;
    case UnOp::Not:
      R.I = N->Type == EvalType::Int ? sext32(~V.I) : ~V.I;
      return R;
    case UnOp::LogNot:
      R.I = valTruthy(V.I, V.D, N->A->Type) ? 0 : 1;
      return R;
    case UnOp::IntToDouble:
    case UnOp::LongToDouble:
      R.D = static_cast<double>(V.I);
      return R;
    case UnOp::DoubleToInt:
      // cvttsd2si semantics: out-of-range and NaN produce the integer
      // indefinite value.
      if (V.D >= -2147483648.0 && V.D < 2147483648.0)
        R.I = static_cast<std::int32_t>(V.D);
      else
        R.I = std::numeric_limits<std::int32_t>::min();
      return R;
    case UnOp::IntToLong:
      R.I = V.I; // Already canonically sign-extended.
      return R;
    case UnOp::LongToInt:
      R.I = sext32(V.I);
      return R;
    case UnOp::Bitcast:
      R.I = V.I;
      return R;
    }
    return R;
  }
  case ExprKind::Binary: {
    auto O = static_cast<BinOp>(N->OpByte);
    if (O == BinOp::LogAnd || O == BinOp::LogOr) {
      Val A = evalExpr(N->A, F);
      bool AT = valTruthy(A.I, A.D, N->A->Type);
      if (O == BinOp::LogAnd && !AT) {
        R.I = 0;
        return R;
      }
      if (O == BinOp::LogOr && AT) {
        R.I = 1;
        return R;
      }
      Val B = evalExpr(N->B, F);
      R.I = valTruthy(B.I, B.D, N->B->Type) ? 1 : 0;
      return R;
    }
    Val A = evalExpr(N->A, F);
    Val B = evalExpr(N->B, F);
    if (N->Type == EvalType::Double) {
      switch (O) {
      case BinOp::Add:
        R.D = A.D + B.D;
        break;
      case BinOp::Sub:
        R.D = A.D - B.D;
        break;
      case BinOp::Mul:
        R.D = A.D * B.D;
        break;
      case BinOp::Div:
        R.D = A.D / B.D;
        break;
      default:
        break;
      }
      return R;
    }
    std::int64_t X = A.I, Y = B.I, Res = 0;
    bool Wide = N->Type != EvalType::Int;
    std::int64_t TrapMin = Wide ? std::numeric_limits<std::int64_t>::min()
                                : std::numeric_limits<std::int32_t>::min();
    switch (O) {
    case BinOp::Add:
      Res = static_cast<std::int64_t>(static_cast<std::uint64_t>(X) +
                                      static_cast<std::uint64_t>(Y));
      break;
    case BinOp::Sub:
      Res = static_cast<std::int64_t>(static_cast<std::uint64_t>(X) -
                                      static_cast<std::uint64_t>(Y));
      break;
    case BinOp::Mul:
      Res = static_cast<std::int64_t>(static_cast<std::uint64_t>(X) *
                                      static_cast<std::uint64_t>(Y));
      break;
    case BinOp::Div:
      if (Y == 0 || (Y == -1 && X == TrapMin))
        std::raise(SIGFPE); // Same trap the emitted idiv takes.
      Res = X / Y;
      break;
    case BinOp::Mod:
      if (Y == 0 || (Y == -1 && X == TrapMin))
        std::raise(SIGFPE);
      Res = X % Y;
      break;
    case BinOp::And:
      Res = X & Y;
      break;
    case BinOp::Or:
      Res = X | Y;
      break;
    case BinOp::Xor:
      Res = X ^ Y;
      break;
    case BinOp::Shl:
      Res = static_cast<std::int32_t>(static_cast<std::uint32_t>(X)
                                      << (Y & 31));
      break;
    case BinOp::Shr:
      Res = static_cast<std::int32_t>(X) >> (Y & 31);
      break;
    default:
      break;
    }
    R.I = N->Type == EvalType::Int ? sext32(Res) : Res;
    return R;
  }
  case ExprKind::Cmp: {
    Val A = evalExpr(N->A, F);
    Val B = evalExpr(N->B, F);
    auto K = static_cast<CmpKind>(N->OpByte);
    EvalType OpT = N->A->Type;
    bool T = false;
    if (OpT == EvalType::Double) {
      double X = A.D, Y = B.D;
      switch (K) {
      case CmpKind::Eq:
        T = X == Y;
        break;
      case CmpKind::Ne:
        T = X != Y;
        break;
      case CmpKind::LtS:
      case CmpKind::LtU:
        T = X < Y;
        break;
      case CmpKind::LeS:
      case CmpKind::LeU:
        T = X <= Y;
        break;
      case CmpKind::GtS:
      case CmpKind::GtU:
        T = X > Y;
        break;
      case CmpKind::GeS:
      case CmpKind::GeU:
        T = X >= Y;
        break;
      }
    } else {
      // Canonical Int values are sign-extended, so 64-bit signed compare
      // equals 32-bit signed compare, and 64-bit unsigned compare of two
      // sign-extended values preserves 32-bit unsigned order.
      std::int64_t X = A.I, Y = B.I;
      auto UX = static_cast<std::uint64_t>(X);
      auto UY = static_cast<std::uint64_t>(Y);
      switch (K) {
      case CmpKind::Eq:
        T = X == Y;
        break;
      case CmpKind::Ne:
        T = X != Y;
        break;
      case CmpKind::LtS:
        T = X < Y;
        break;
      case CmpKind::LeS:
        T = X <= Y;
        break;
      case CmpKind::GtS:
        T = X > Y;
        break;
      case CmpKind::GeS:
        T = X >= Y;
        break;
      case CmpKind::LtU:
        T = UX < UY;
        break;
      case CmpKind::LeU:
        T = UX <= UY;
        break;
      case CmpKind::GtU:
        T = UX > UY;
        break;
      case CmpKind::GeU:
        T = UX >= UY;
        break;
      }
    }
    R.I = T ? 1 : 0;
    return R;
  }
  case ExprKind::Cond: {
    Val C = evalExpr(N->A, F);
    return evalExpr(valTruthy(C.I, C.D, N->A->Type) ? N->B : N->C, F);
  }
  case ExprKind::Call:
    return evalCall(N, F);
  }
  return R;
}

SpecInterp::Flow SpecInterp::execStmt(const StmtNode *S, Frame &F,
                                      Val &Ret) const {
  switch (S->Kind) {
  case StmtKind::Block:
    for (std::uint32_t I = 0; I < S->BodyC; ++I) {
      Flow Fl = execStmt(S->BodyV[I], F, Ret);
      if (Fl != Flow::Next)
        return Fl;
    }
    return Flow::Next;
  case StmtKind::ExprStmt:
    (void)evalExpr(S->E, F);
    return Flow::Next;
  case StmtKind::AssignLocal: {
    Val V = evalExpr(S->E, F);
    std::size_t Id = static_cast<std::size_t>(S->LocalId);
    if (LocalTypes[Id] == EvalType::Double)
      F.F[Id] = V.D;
    else
      F.L[Id] = LocalTypes[Id] == EvalType::Int ? sext32(V.I) : V.I;
    return Flow::Next;
  }
  case StmtKind::Store: {
    Val A = evalExpr(S->E, F);
    Val V = evalExpr(S->E2, F);
    void *P = reinterpret_cast<void *>(static_cast<std::uintptr_t>(A.I));
    switch (static_cast<MemType>(S->OpByte)) {
    case MemType::I8:
    case MemType::U8:
      *static_cast<std::int8_t *>(P) = static_cast<std::int8_t>(V.I);
      break;
    case MemType::I16:
    case MemType::U16:
      *static_cast<std::int16_t *>(P) = static_cast<std::int16_t>(V.I);
      break;
    case MemType::I32:
      *static_cast<std::int32_t *>(P) = static_cast<std::int32_t>(V.I);
      break;
    case MemType::I64:
    case MemType::P64:
      *static_cast<std::int64_t *>(P) = V.I;
      break;
    case MemType::F64:
      *static_cast<double *>(P) = V.D;
      break;
    }
    return Flow::Next;
  }
  case StmtKind::If: {
    Val C = evalExpr(S->E, F);
    bool Taken = valTruthy(C.I, C.D, S->E->Type);
    if (Prof) {
      if (unsigned O = Slot[S->Ord]; O < Tier0Profile::MaxBranches) {
        Tier0Profile::BranchStat &BS = Prof->Branches[O];
        BS.Total.fetch_add(1, std::memory_order_relaxed);
        if (Taken)
          BS.Taken.fetch_add(1, std::memory_order_relaxed);
      }
    }
    const StmtNode *Arm = Taken ? S->S1 : S->S2;
    return Arm ? execStmt(Arm, F, Ret) : Flow::Next;
  }
  case StmtKind::While:
    for (;;) {
      Val C = evalExpr(S->E, F);
      if (!valTruthy(C.I, C.D, S->E->Type))
        return Flow::Next;
      Flow Fl = execStmt(S->S1, F, Ret);
      if (Fl == Flow::Break)
        return Flow::Next;
      if (Fl == Flow::Return)
        return Flow::Return;
      // Continue re-tests the condition without extra work, like the
      // emitted loop's back edge.
    }
  case StmtKind::For: {
    std::size_t Id = static_cast<std::size_t>(S->LocalId);
    bool WideIV = LocalTypes[Id] != EvalType::Int;
    Val Init = evalExpr(S->E, F);
    F.L[Id] = WideIV ? Init.I : sext32(Init.I);
    auto K = static_cast<CmpKind>(S->OpByte);
    std::uint64_t Trips = 0;
    Flow Out = Flow::Next;
    for (;;) {
      Val Bound = evalExpr(S->E2, F);
      std::int64_t V = F.L[Id], BV = Bound.I;
      bool Stay;
      auto UV = static_cast<std::uint64_t>(V);
      auto UB = static_cast<std::uint64_t>(BV);
      switch (K) {
      case CmpKind::Eq:
        Stay = V == BV;
        break;
      case CmpKind::Ne:
        Stay = V != BV;
        break;
      case CmpKind::LtS:
        Stay = V < BV;
        break;
      case CmpKind::LeS:
        Stay = V <= BV;
        break;
      case CmpKind::GtS:
        Stay = V > BV;
        break;
      case CmpKind::GeS:
        Stay = V >= BV;
        break;
      case CmpKind::LtU:
        Stay = UV < UB;
        break;
      case CmpKind::LeU:
        Stay = UV <= UB;
        break;
      case CmpKind::GtU:
        Stay = UV > UB;
        break;
      case CmpKind::GeU:
        Stay = UV >= UB;
        break;
      }
      if (!Stay)
        break;
      ++Trips;
      Flow Fl = execStmt(S->S1, F, Ret);
      if (Fl == Flow::Break)
        break;
      if (Fl == Flow::Return) {
        Out = Flow::Return;
        break;
      }
      // Continue lands on the step, exactly like the emitted Cont label.
      Val Step = evalExpr(S->E3, F);
      std::int64_t NV = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(F.L[Id]) +
          static_cast<std::uint64_t>(Step.I));
      F.L[Id] = WideIV ? NV : sext32(NV);
    }
    if (Prof) {
      if (unsigned O = Slot[S->Ord]; O < Tier0Profile::MaxLoops) {
        Tier0Profile::LoopStat &LS = Prof->Loops[O];
        LS.Entries.fetch_add(1, std::memory_order_relaxed);
        LS.Iters.fetch_add(Trips, std::memory_order_relaxed);
        std::uint64_t Cur = LS.MaxTrip.load(std::memory_order_relaxed);
        while (Trips > Cur &&
               !LS.MaxTrip.compare_exchange_weak(Cur, Trips,
                                                 std::memory_order_relaxed)) {
        }
      }
    }
    return Out;
  }
  case StmtKind::Return:
    if (S->E)
      Ret = evalExpr(S->E, F);
    return Flow::Return;
  case StmtKind::Break:
    return Flow::Break;
  case StmtKind::Continue:
    return Flow::Continue;
  case StmtKind::LabelDef:
  case StmtKind::Goto:
    // Rejected by specInterpretable(); never reached.
    return Flow::Next;
  }
  return Flow::Next;
}

InterpResult SpecInterp::run(const std::int64_t *IntArgs, unsigned NumInt,
                             const double *FpArgs, unsigned NumFp) const {
  // Only the spec's own locals are ever read: clear those, not the whole
  // MaxLocals frame.
  std::int64_t L[MaxLocals];
  double D[MaxLocals];
  std::fill_n(L, LocalTypes.size(), 0);
  std::fill_n(D, LocalTypes.size(), 0.0);
  Frame F{L, D};
  for (const ParamBind &P : Params) {
    if (P.Type == EvalType::Double) {
      D[P.LocalId] =
          static_cast<unsigned>(P.ArgIndex) < NumFp ? FpArgs[P.ArgIndex] : 0;
    } else {
      std::int64_t V =
          static_cast<unsigned>(P.ArgIndex) < NumInt ? IntArgs[P.ArgIndex] : 0;
      L[P.LocalId] = P.Type == EvalType::Int ? sext32(V) : V;
    }
  }
  Val Ret;
  (void)execStmt(Root, F, Ret);
  InterpResult R;
  if (RetType == EvalType::Double)
    R.D = Ret.D;
  else if (RetType == EvalType::Int)
    R.I = sext32(Ret.I);
  else
    R.I = Ret.I;
  return R;
}
