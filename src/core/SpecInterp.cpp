//===- core/SpecInterp.cpp - Spec-tree interpreter (tier 0) ---------------==//
//
// Executes specification trees directly. What each operator computes —
// loads and stores, truthiness, unary, binary and compare, the idiv trap,
// the For loop's bound test and wrapping step — comes from core/Eval.h, the
// same core the instantiation-time folder in Compile.cpp uses, so a value
// folded into code, computed by that code, and computed here are one value.
// This file keeps only the tree recursion and its tier-0 policy: calls,
// profile hooks, and SIGFPE where the core reports a trap. The
// operator-grid test pins every operator and type against VCODE, PCODE and
// ICODE; the differential test pins whole random programs.
//
//===----------------------------------------------------------------------===//

#include "core/SpecInterp.h"

#include <algorithm>
#include <cassert>
#include <csignal>
#include <cstring>

using namespace tcc;
using namespace tcc::core;

namespace {

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

Value SpecInterp::evalCall(const ExprNode *N, Frame &F) const {
  std::int64_t IA[8];
  double FA[8];
  unsigned NI = 0, ND = 0;
  const void *Fn = N->PtrVal;
  if (!Fn) {
    Value T = evalExpr(N->A, F);
    Fn = reinterpret_cast<const void *>(static_cast<std::uintptr_t>(T.I));
  }
  for (std::uint32_t I = 0; I < N->ArgC; ++I) {
    const ExprNode *Arg = N->ArgV[I];
    Value V = evalExpr(Arg, F);
    if (Arg->Type == EvalType::Double)
      FA[ND++] = V.D;
    else
      IA[NI++] = V.I;
  }
  Value R;
  switch (N->Type) {
  case EvalType::Void:
    callSig<void>(Fn, IA, NI, FA, ND);
    break;
  case EvalType::Int:
    R.I = callSig<std::int32_t>(Fn, IA, NI, FA, ND);
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

Value SpecInterp::evalExpr(const ExprNode *N, Frame &F) const {
  switch (N->Kind) {
  case ExprKind::ConstInt:
  case ExprKind::ConstLong:
    return Value{eval::canon(N->IntVal, N->Type)};
  case ExprKind::ConstDouble:
    return Value{0, N->FpVal};
  case ExprKind::FreeVar:
    return eval::load(N->PtrVal, static_cast<MemType>(N->OpByte));
  case ExprKind::Local: {
    std::size_t Id = static_cast<std::size_t>(N->LocalId);
    if (LocalTypes[Id] == EvalType::Double)
      return Value{0, F.F[Id]};
    return Value{F.L[Id]};
  }
  case ExprKind::Load: {
    Value A = evalExpr(N->A, F);
    return eval::load(
        reinterpret_cast<const void *>(static_cast<std::uintptr_t>(A.I)),
        static_cast<MemType>(N->OpByte));
  }
  case ExprKind::RtEval: {
    Value V = evalExpr(N->A, F);
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
  case ExprKind::Unary:
    return eval::unary(static_cast<UnOp>(N->OpByte), N->Type,
                       evalExpr(N->A, F));
  case ExprKind::Binary: {
    auto O = static_cast<BinOp>(N->OpByte);
    Value A = evalExpr(N->A, F);
    if (O == BinOp::LogAnd || O == BinOp::LogOr) {
      if (eval::truthy(A, N->A->Type) == (O == BinOp::LogOr))
        return Value{O == BinOp::LogOr};
      return Value{eval::truthy(evalExpr(N->B, F), N->B->Type)};
    }
    Value B = evalExpr(N->B, F);
    if (eval::traps(O, N->Type, A, B))
      std::raise(SIGFPE); // Same trap the emitted idiv takes.
    return eval::binary(O, N->Type, A, B);
  }
  case ExprKind::Cmp: {
    Value A = evalExpr(N->A, F);
    Value B = evalExpr(N->B, F);
    return Value{
        eval::compare(static_cast<CmpKind>(N->OpByte), N->A->Type, A, B)};
  }
  case ExprKind::Cond: {
    Value C = evalExpr(N->A, F);
    return evalExpr(eval::truthy(C, N->A->Type) ? N->B : N->C, F);
  }
  case ExprKind::Call:
    return evalCall(N, F);
  }
  return Value{};
}

SpecInterp::Flow SpecInterp::execStmt(const StmtNode *S, Frame &F,
                                      Value &Ret) const {
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
    Value V = evalExpr(S->E, F);
    std::size_t Id = static_cast<std::size_t>(S->LocalId);
    if (LocalTypes[Id] == EvalType::Double)
      F.F[Id] = V.D;
    else
      F.L[Id] = eval::canon(V.I, LocalTypes[Id]);
    return Flow::Next;
  }
  case StmtKind::Store: {
    Value A = evalExpr(S->E, F);
    Value V = evalExpr(S->E2, F);
    eval::store(reinterpret_cast<void *>(static_cast<std::uintptr_t>(A.I)),
                static_cast<MemType>(S->OpByte), V);
    return Flow::Next;
  }
  case StmtKind::If: {
    bool Taken = eval::truthy(evalExpr(S->E, F), S->E->Type);
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
      if (!eval::truthy(evalExpr(S->E, F), S->E->Type))
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
    EvalType VarT = LocalTypes[Id];
    F.L[Id] = eval::canon(evalExpr(S->E, F).I, VarT);
    auto K = static_cast<CmpKind>(S->OpByte);
    std::uint64_t Trips = 0;
    Flow Out = Flow::Next;
    for (;;) {
      // Bound test and step at the variable's type, like the emitted loop.
      Value Bound{eval::canon(evalExpr(S->E2, F).I, VarT)};
      if (!eval::compare(K, VarT, Value{F.L[Id]}, Bound))
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
      F.L[Id] = eval::add(F.L[Id], evalExpr(S->E3, F).I, VarT);
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

Value SpecInterp::run(const std::int64_t *IntArgs, unsigned NumInt,
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
      L[P.LocalId] = eval::canon(V, P.Type);
    }
  }
  Value Ret;
  (void)execStmt(Root, F, Ret);
  return RetType == EvalType::Double ? Value{0, Ret.D}
                                     : Value{eval::canon(Ret.I, RetType)};
}
