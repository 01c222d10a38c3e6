//===- core/Context.h - The `C specification interface ---------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public cspec/vspec construction API — the embedded-DSL counterpart
/// of `C's backquote. A Context owns the closure arena; its factory methods
/// are the *specification time* half of tcc:
///
///   * Expr      — an expression cspec (`4+5`). Statically typed: every
///                 factory checks/derives the evaluation type.
///   * VSpec     — a variable specification (dynamic local or parameter).
///   * Stmt      — a statement / compound-statement cspec (`{ ... }`).
///   * rc*()     — the `$` operator: evaluates its operand *now* and embeds
///                 the value as a run-time constant.
///   * rtEval()  — `$` on expressions over *derived* run-time constants
///                 (e.g. `$row[k]` under dynamic loop unrolling): the operand
///                 is evaluated at instantiation time by the rc interpreter.
///   * fv*()     — free variables: the address is captured, the value is
///                 loaded each time the dynamic code runs.
///
/// Composition is implicit: using an Expr inside a bigger Expr splices it,
/// and each reference regenerates its code — `C's cspec-composition rule.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_CORE_CONTEXT_H
#define TICKC_CORE_CONTEXT_H

#include "core/Nodes.h"
#include "support/Arena.h"

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace tcc {
namespace core {

class Context;

/// An expression cspec: a typed handle to a specification tree. Copying an
/// Expr copies the handle, not the code — like `C cspecs, which "are
/// implemented just like pointers" (paper §4.2).
class Expr {
public:
  Expr() = default;
  ExprNode *node() const { return N; }
  EvalType type() const { return N->Type; }
  bool valid() const { return N != nullptr; }

  // Arithmetic / comparison sugar (defined out of line; they delegate to
  // the owning Context's type-checked factories).
  Expr operator+(Expr RHS) const;
  Expr operator-(Expr RHS) const;
  Expr operator*(Expr RHS) const;
  Expr operator/(Expr RHS) const;
  Expr operator%(Expr RHS) const;
  Expr operator&(Expr RHS) const;
  Expr operator|(Expr RHS) const;
  Expr operator^(Expr RHS) const;
  Expr operator<<(Expr RHS) const;
  Expr operator>>(Expr RHS) const;
  Expr operator==(Expr RHS) const;
  Expr operator!=(Expr RHS) const;
  Expr operator<(Expr RHS) const;
  Expr operator<=(Expr RHS) const;
  Expr operator>(Expr RHS) const;
  Expr operator>=(Expr RHS) const;
  Expr operator&&(Expr RHS) const;
  Expr operator||(Expr RHS) const;
  Expr operator-() const;
  Expr operator!() const;

private:
  friend class Context;
  explicit Expr(ExprNode *N) : N(N) {}
  ExprNode *N = nullptr;
};

/// A variable specification (vspec): a dynamic local or parameter lvalue.
/// Implicitly converts to an Expr that reads it.
class VSpec {
public:
  VSpec() = default;
  std::int32_t id() const { return Id; }
  EvalType type() const { return Type; }
  bool valid() const { return Id >= 0; }
  operator Expr() const; ///< Reading the variable.

private:
  friend class Context;
  VSpec(Context *C, std::int32_t Id, EvalType T) : C(C), Id(Id), Type(T) {}
  Context *C = nullptr;
  std::int32_t Id = -1;
  EvalType Type = EvalType::Int;
};

/// A statement cspec (`void cspec`).
class Stmt {
public:
  Stmt() = default;
  StmtNode *node() const { return N; }
  bool valid() const { return N != nullptr; }

private:
  friend class Context;
  explicit Stmt(StmtNode *N) : N(N) {}
  StmtNode *N = nullptr;
};

/// A dynamically created label (paper §3: `C can "dynamically create labels
/// and jumps").
struct DynLabel {
  std::int32_t Id = -1;
};

/// Owns the arenas and vspec tables backing a family of specifications.
/// All Exprs/Stmts built from a Context die with it.
class Context {
public:
  Context();

  // --- Constants and the $ operator -----------------------------------------
  Expr intConst(std::int32_t V);
  Expr longConst(std::int64_t V);
  Expr doubleConst(double V);
  /// `$v` for int operands: v is evaluated here, at specification time, and
  /// becomes a run-time constant of the dynamic code.
  Expr rcInt(std::int32_t V) { return intConst(V); }
  Expr rcLong(std::int64_t V) { return longConst(V); }
  Expr rcDouble(double V) { return doubleConst(V); }
  /// `$p` for pointers (e.g. a run-time constant array base).
  Expr rcPtr(const void *P);
  /// `$e` over *derived* run-time constants: E is evaluated by the rc
  /// interpreter at instantiation time (it may read memory and reference
  /// unrolled induction variables) and embedded as an immediate.
  Expr rtEval(Expr E);

  // --- Free variables --------------------------------------------------------
  /// A reference to a variable in the enclosing environment: the address is
  /// captured in the closure; the load happens when the code runs.
  Expr fvInt(const int *P) { return freeVar(P, MemType::I32); }
  Expr fvLong(const long long *P) { return freeVar(P, MemType::I64); }
  Expr fvDouble(const double *P) { return freeVar(P, MemType::F64); }
  Expr fvPtr(const void *const *P) { return freeVar(P, MemType::P64); }
  Expr freeVar(const void *Address, MemType M);

  // --- vspecs: dynamic locals and parameters ------------------------------------
  VSpec localInt() { return makeLocal(EvalType::Int); }
  VSpec localLong() { return makeLocal(EvalType::Long); }
  VSpec localPtr() { return makeLocal(EvalType::Ptr); }
  VSpec localDouble() { return makeLocal(EvalType::Double); }
  /// Dynamic parameter bound to SysV position \p ArgIndex at instantiation.
  /// Integer-class and double parameters are numbered separately, as in the
  /// calling convention.
  VSpec paramInt(unsigned ArgIndex) { return makeParam(EvalType::Int, ArgIndex); }
  VSpec paramLong(unsigned ArgIndex) {
    return makeParam(EvalType::Long, ArgIndex);
  }
  VSpec paramPtr(unsigned ArgIndex) { return makeParam(EvalType::Ptr, ArgIndex); }
  VSpec paramDouble(unsigned ArgIndex) {
    return makeParam(EvalType::Double, ArgIndex);
  }
  Expr read(VSpec V);

  // --- Arithmetic (with int->long->double promotion) ------------------------------
  Expr binary(BinOp O, Expr A, Expr B);
  Expr cmp(CmpKind K, Expr A, Expr B);
  Expr unary(UnOp O, Expr A);
  Expr neg(Expr A) { return unary(UnOp::Neg, A); }
  Expr bitNot(Expr A) { return unary(UnOp::Not, A); }
  Expr logNot(Expr A) { return unary(UnOp::LogNot, A); }
  Expr toDouble(Expr A);
  Expr toInt(Expr A);
  Expr toLong(Expr A);
  /// Cond ? Then : Else, with the usual promotion between the arms.
  Expr cond(Expr Cond, Expr Then, Expr Else);

  // --- Memory ------------------------------------------------------------------------
  /// Loads a value of width \p M from the address \p Addr (of Ptr type).
  Expr loadMem(MemType M, Expr Addr);
  /// The address Base + Index * size(M): for indexing and stores.
  Expr indexAddr(Expr Base, Expr Index, MemType M);
  /// Base[Index] as a value.
  Expr index(Expr Base, Expr Index, MemType M) {
    return loadMem(M, indexAddr(Base, Index, M));
  }

  // --- Calls ----------------------------------------------------------------------------
  /// Direct call to a C function; arguments may be any mix of integer-class
  /// and double cspecs ("`C can generate function calls with run-time
  /// determined numbers of arguments", paper §3).
  Expr callC(const void *Fn, EvalType RetType, const std::vector<Expr> &Args);
  Expr callC(const void *Fn, EvalType RetType,
             std::initializer_list<Expr> Args) {
    return callC(Fn, RetType, std::vector<Expr>(Args));
  }
  /// Indirect call through a pointer-typed cspec.
  Expr callIndirect(Expr Fn, EvalType RetType, const std::vector<Expr> &Args);

  // --- Statements ------------------------------------------------------------------------
  Stmt block(const std::vector<Stmt> &Body);
  Stmt block(std::initializer_list<Stmt> Body) {
    return block(std::vector<Stmt>(Body));
  }
  Stmt exprStmt(Expr E);
  Stmt assign(VSpec V, Expr E);
  Stmt storeMem(MemType M, Expr Addr, Expr Value);
  Stmt storeIndex(Expr Base, Expr Index, MemType M, Expr Value) {
    return storeMem(M, indexAddr(Base, Index, M), Value);
  }
  Stmt ifStmt(Expr Cond, Stmt Then, Stmt Else = Stmt());
  Stmt whileStmt(Expr Cond, Stmt Body);
  /// for (V = Init; V <K> Bound; V += Step) Body. When Init/Bound/Step are
  /// run-time constants and Body does not reassign V, instantiation unrolls
  /// the loop and V becomes a *derived run-time constant* in Body
  /// (paper §4.4's dynamic loop unrolling).
  Stmt forStmt(VSpec V, Expr Init, CmpKind K, Expr Bound, Expr Step,
               Stmt Body);
  Stmt ret(Expr E);
  Stmt retVoid();
  Stmt breakStmt();
  Stmt continueStmt();
  DynLabel newLabel();
  Stmt labelHere(DynLabel L);
  Stmt gotoLabel(DynLabel L);

  // --- Introspection used by the compiler ----------------------------------------------------
  const std::vector<LocalInfo> &locals() const { return Locals; }
  /// Calls \p Fn on nodes 0..Count-1 in creation order, each as a const
  /// ExprNode * or a const StmtNode *. Returns false, having stopped early,
  /// if the arena does not hold them as built (see the definition).
  template <typename F> bool forEachNode(std::uint32_t Count, F &&Fn) const;
  unsigned numDynLabels() const { return NumDynLabels; }
  /// Bytes of closure/specification data allocated so far.
  std::size_t closureBytes() const { return NodeArena.bytesAllocated(); }

private:
  ExprNode *newExpr(ExprKind K, EvalType T);
  StmtNode *newStmt(StmtKind K);
  VSpec makeLocal(EvalType T);
  VSpec makeParam(EvalType T, unsigned ArgIndex);
  /// Inserts promotions so A and B share an arithmetic type; returns it.
  EvalType promote(Expr &A, Expr &B);

  /// Holds nodes and nothing else but each node's own ArgV/BodyV array,
  /// allocated right after it: forEachNode walks it as the creation log.
  Arena NodeArena;
  std::uint32_t NumNodes = 0;
  std::vector<LocalInfo> Locals;
  unsigned NumDynLabels = 0;
};

template <typename F>
bool Context::forEachNode(std::uint32_t Count, F &&Fn) const {
  // The arena is the log: nodes sit back to back in creation order, each
  // followed by its ArgV/BodyV array (in a new slab if the old one was
  // full). Every node read is checked against its expected ordinal, so a
  // misparse can only end the walk, never feed Fn a wrong node.
  std::uint32_t I = 0;
  const char *Skip = nullptr; ///< The last node's array, still ahead.
  std::size_t SkipBytes = 0;
  bool Ok = true;
  NodeArena.forEachSlab([&](const char *P, const char *End) {
    while (I < Count && P < End) {
      if (P == Skip) {
        P += SkipBytes;
        Skip = nullptr;
        continue;
      }
      // Allocations are multiples of 8 bytes, so the tag byte is in bounds.
      bool IsStmt = reinterpret_cast<const unsigned char *>(
          P)[offsetof(StmtNode, IsStmt)];
      if (End - P < static_cast<std::ptrdiff_t>(IsStmt ? sizeof(StmtNode)
                                                       : sizeof(ExprNode)))
        return Ok = false;
      if (IsStmt) {
        const auto *S = reinterpret_cast<const StmtNode *>(P);
        if (S->Ord != I || S->Ctx != this)
          return Ok = false;
        Fn(S);
        Skip = reinterpret_cast<const char *>(S->BodyV);
        SkipBytes = S->BodyC * sizeof(StmtNode *);
        P += sizeof(StmtNode);
      } else {
        const auto *E = reinterpret_cast<const ExprNode *>(P);
        if (E->Ord != I || E->Ctx != this)
          return Ok = false;
        Fn(E);
        Skip = reinterpret_cast<const char *>(E->ArgV);
        SkipBytes = E->ArgC * sizeof(ExprNode *);
        P += sizeof(ExprNode);
      }
      ++I;
    }
    return I < Count;
  });
  return Ok && I == Count;
}

} // namespace core
} // namespace tcc

#endif // TICKC_CORE_CONTEXT_H
