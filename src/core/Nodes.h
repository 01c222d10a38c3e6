//===- core/Nodes.h - Closure/specification tree nodes ---------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arena-allocated nodes that a cspec is made of. This is tickc's
/// closure representation (paper §4.2/§4.3): specification time builds these
/// nodes, capturing run-time constant *values* and free-variable *addresses*;
/// instantiation time walks them — the walk is the code-generating function.
/// Composition of cspecs is sharing: referencing a cspec from a larger one
/// links its root node, and each reference re-runs its CGF, exactly like
/// invoking the nested closure's CGF in tcc.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_CORE_NODES_H
#define TICKC_CORE_NODES_H

#include "core/Types.h"
#include "vcode/VCode.h"

#include <cstddef>
#include <cstdint>

namespace tcc {
namespace core {

using vcode::CmpKind;

enum class ExprKind : std::uint8_t {
  ConstInt,    ///< Static or $-captured int (IntVal).
  ConstLong,   ///< 64-bit constant, also pointers (IntVal).
  ConstDouble, ///< FpVal.
  FreeVar,     ///< Captured address PtrVal; OpByte = MemType.
  Local,       ///< vspec reference; LocalId.
  Binary,      ///< OpByte = BinOp; A, B.
  Cmp,         ///< OpByte = CmpKind; A, B. Result type Int.
  Unary,       ///< OpByte = UnOp; A.
  Load,        ///< OpByte = MemType; A = address.
  Call,        ///< PtrVal = callee (or A = fn expr); ArgV/ArgC.
  RtEval,      ///< $-at-instantiation: A is evaluated by the rc interpreter
               ///< when code is generated and embedded as an immediate.
  Cond,        ///< A ? B : C.
};

enum class BinOp : std::uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  And,
  Or,
  Xor,
  Shl,
  Shr,    ///< Arithmetic shift right.
  LogAnd, ///< Short-circuit &&.
  LogOr,  ///< Short-circuit ||.
};

enum class UnOp : std::uint8_t {
  Neg,
  Not,    ///< Bitwise complement.
  LogNot, ///< !x.
  IntToDouble,
  DoubleToInt,
  IntToLong,
  LongToInt,
  LongToDouble,
  Bitcast, ///< Ptr <-> Long reinterpretation.
};

class Context;

/// Static facts about a subtree, computed at specification time so the
/// instantiation-time constant evaluator can reject non-foldable subtrees
/// in O(1) instead of re-walking them (tcc bakes the same knowledge into
/// its statically generated CGFs).
enum ExprFlags : std::uint8_t {
  EF_HasLocal = 1, ///< References a vspec (foldable only when unrolled).
  EF_HasMemOp = 2, ///< Contains a load/free variable (needs explicit $).
  EF_HasCall = 4,  ///< Contains a call (never foldable).
  EF_HasRtEvalLocal = 8, ///< Contains a `$`-expression that references a
                         ///< vspec: it folds only while loops unroll.
};

/// One expression node. 88 bytes; allocated from the Context's arena (the
/// paper's closure arena: "allocation cost is a pointer increment").
struct ExprNode {
  ExprKind Kind;
  EvalType Type;
  std::uint8_t OpByte = 0;
  std::uint8_t IsStmt = 0;  ///< At the same offset as StmtNode::IsStmt.
  std::uint8_t RegNeed = 1; ///< Sethi-Ullman-style temporary estimate.
  std::uint8_t Flags = 0;   ///< ExprFlags of the whole subtree.
  std::int32_t LocalId = -1;
  /// Creation ordinal in the owning Context, shared with StmtNode: the
  /// factories build children before parents, so a child's Ord is below
  /// its parent's (cache/SpecKey relies on it).
  std::uint32_t Ord = 0;
  ExprNode *A = nullptr;
  ExprNode *B = nullptr;
  ExprNode *C = nullptr;
  std::int64_t IntVal = 0;
  double FpVal = 0;
  const void *PtrVal = nullptr;
  ExprNode **ArgV = nullptr;
  std::uint32_t ArgC = 0;
  std::uint8_t CallFpArgs = 0; ///< #double args (variadic AL protocol).
  Context *Ctx = nullptr;
};
static_assert(sizeof(ExprNode) == 88, "IsStmt and Ord live in padding");

enum class StmtKind : std::uint8_t {
  Block,    ///< BodyV/BodyC children.
  ExprStmt, ///< E evaluated for effect.
  AssignLocal, ///< LocalId = E.
  Store,    ///< OpByte = MemType; *(E) = E2.
  If,       ///< E cond; S1 then; S2 else (may be null).
  While,    ///< E cond; S1 body.
  For,      ///< LocalId induction; E init; OpByte CmpKind vs E2 bound;
            ///< E3 step (added each iteration); S1 body.
  Return,   ///< E value (null for void).
  Break,
  Continue,
  LabelDef, ///< LocalId = user label id.
  Goto,     ///< LocalId = user label id.
};

/// Static facts about a statement subtree, set by each Context statement
/// factory from its children (like ExprFlags), so that no compile has to
/// walk the tree to learn them.
enum StmtFlags : std::uint8_t {
  SF_HasCall = 1,        ///< Some expression contains a call.
  SF_HasEscape = 2,      ///< Contains break/continue/goto/label: control
                         ///< that could escape an unrolled loop-body copy.
  SF_HasRtEvalLocal = 4, ///< Some expression has EF_HasRtEvalLocal.
  SF_BodyAssignsVar = 8, ///< For only, not inherited: the body assigns the
                         ///< induction variable or reuses it as one.
};

/// One statement node. 72 bytes, from the same arena.
struct StmtNode {
  StmtKind Kind;
  std::uint8_t OpByte = 0;
  std::uint8_t Flags = 0; ///< StmtFlags of the whole subtree.
  std::uint8_t IsStmt = 1; ///< Tells the two node types apart in the arena.
  std::int32_t LocalId = -1;
  ExprNode *E = nullptr;
  ExprNode *E2 = nullptr;
  ExprNode *E3 = nullptr;
  StmtNode *S1 = nullptr;
  StmtNode *S2 = nullptr;
  StmtNode **BodyV = nullptr;
  std::uint32_t BodyC = 0;
  std::uint32_t Ord = 0; ///< Creation ordinal (see ExprNode::Ord).
  Context *Ctx = nullptr;
};
static_assert(sizeof(StmtNode) == 72, "IsStmt and Ord live in padding");
static_assert(offsetof(ExprNode, IsStmt) == offsetof(StmtNode, IsStmt),
              "one tag offset for both node types");

/// Metadata for one dynamic local or parameter (vspec).
struct LocalInfo {
  EvalType Type = EvalType::Int;
  std::int32_t ArgIndex = -1; ///< >= 0 for dynamic parameters.
};

} // namespace core
} // namespace tcc

#endif // TICKC_CORE_NODES_H
