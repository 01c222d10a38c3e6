//===- core/Eval.h - The operator semantics of spec trees ------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What each operator of a specification computes, written once. Automatic
/// dynamic partial evaluation (paper §4.4) is only sound if a `$` expression
/// folded at instantiation equals what the emitted code would compute, and
/// tier 0 is only a tier if it computes the same again. Both evaluators —
/// the instantiation-time folder in Compile.cpp and the tier-0 interpreter
/// in SpecInterp.cpp — and loop unrolling call these functions; only their
/// tree recursions, which differ in policy (flags and traps versus profile
/// hooks and calls), stay separate.
///
/// The semantics are the emitted x86-64 code's: Int values are canonically
/// sign-extended 32-bit and wrap; Long/Ptr arithmetic wraps at 64 bits;
/// shift counts are masked; DoubleToInt is cvttsd2si; division and
/// remainder trap exactly where idiv does (traps()).
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_CORE_EVAL_H
#define TICKC_CORE_EVAL_H

#include "core/Nodes.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace tcc {
namespace core {

/// One value of a spec's evaluation. The type is the node's: I holds
/// Int/Long/Ptr (Int sign-extended from 32 bits), D holds Double. A Void
/// result, or a fall-off-the-end return, is all zeros.
struct Value {
  std::int64_t I = 0;
  double D = 0;
};

namespace eval {

/// The canonical form of integer \p V at type \p T.
inline std::int64_t canon(std::int64_t V, EvalType T) {
  return T == EvalType::Int ? static_cast<std::int32_t>(V) : V;
}

inline bool truthy(Value V, EvalType T) {
  return T == EvalType::Double ? V.D != 0 : V.I != 0;
}

inline Value load(const void *P, MemType M) {
  auto Read = [P](auto X) {
    std::memcpy(&X, P, sizeof(X));
    return X;
  };
  Value V;
  switch (M) {
  case MemType::I8:
    V.I = Read(std::int8_t());
    break;
  case MemType::U8:
    V.I = Read(std::uint8_t());
    break;
  case MemType::I16:
    V.I = Read(std::int16_t());
    break;
  case MemType::U16:
    V.I = Read(std::uint16_t());
    break;
  case MemType::I32:
    V.I = Read(std::int32_t());
    break;
  case MemType::I64:
  case MemType::P64:
    V.I = Read(std::int64_t());
    break;
  case MemType::F64:
    V.D = Read(double());
    break;
  }
  return V;
}

inline void store(void *P, MemType M, Value V) {
  auto Write = [P](auto X) { std::memcpy(P, &X, sizeof(X)); };
  switch (M) {
  case MemType::I8:
  case MemType::U8:
    Write(static_cast<std::int8_t>(V.I));
    break;
  case MemType::I16:
  case MemType::U16:
    Write(static_cast<std::int16_t>(V.I));
    break;
  case MemType::I32:
    Write(static_cast<std::int32_t>(V.I));
    break;
  case MemType::I64:
  case MemType::P64:
    Write(V.I);
    break;
  case MemType::F64:
    Write(V.D);
    break;
  }
}

/// Wrapping integer addition at type \p T — also the induction-variable
/// step of a For loop, which wraps at the variable's width.
inline std::int64_t add(std::int64_t X, std::int64_t Y, EvalType T) {
  return canon(static_cast<std::int64_t>(static_cast<std::uint64_t>(X) +
                                         static_cast<std::uint64_t>(Y)),
               T);
}

/// \p O applied to \p A, producing type \p T.
inline Value unary(UnOp O, EvalType T, Value A) {
  Value R;
  switch (O) {
  case UnOp::Neg:
    if (T == EvalType::Double)
      R.D = 0.0 - A.D; // The emitted subsd from zero: -(+0.0) is +0.0.
    else
      R.I = canon(
          static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(A.I)), T);
    break;
  case UnOp::Not:
    R.I = canon(~A.I, T);
    break;
  case UnOp::LogNot: // Operands are Int (Context::unary).
    R.I = A.I == 0;
    break;
  case UnOp::IntToDouble:
  case UnOp::LongToDouble:
    R.D = static_cast<double>(A.I);
    break;
  case UnOp::DoubleToInt:
    // cvttsd2si: out-of-range and NaN give the integer indefinite value.
    R.I = A.D >= -2147483648.0 && A.D < 2147483648.0
              ? static_cast<std::int32_t>(A.D)
              : std::numeric_limits<std::int32_t>::min();
    break;
  case UnOp::IntToLong: // Already sign-extended.
  case UnOp::Bitcast:
    R.I = A.I;
    break;
  case UnOp::LongToInt:
    R.I = canon(A.I, EvalType::Int);
    break;
  }
  return R;
}

/// True when \p O on these operands takes idiv's divide-error trap: a zero
/// divisor, or the most negative value of \p T divided by -1.
inline bool traps(BinOp O, EvalType T, Value A, Value B) {
  if ((O != BinOp::Div && O != BinOp::Mod) || T == EvalType::Double)
    return false;
  std::int64_t Min = T == EvalType::Int
                         ? std::numeric_limits<std::int32_t>::min()
                         : std::numeric_limits<std::int64_t>::min();
  return B.I == 0 || (B.I == -1 && A.I == Min);
}

/// \p O on \p A and \p B, producing type \p T. Not for the short-circuit
/// operators, which each evaluator sequences itself, nor for operands on
/// which traps() holds.
inline Value binary(BinOp O, EvalType T, Value A, Value B) {
  Value R;
  if (T == EvalType::Double) {
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
  std::int64_t X = A.I, Y = B.I;
  auto UX = static_cast<std::uint64_t>(X), UY = static_cast<std::uint64_t>(Y);
  switch (O) {
  case BinOp::Add:
    R.I = static_cast<std::int64_t>(UX + UY);
    break;
  case BinOp::Sub:
    R.I = static_cast<std::int64_t>(UX - UY);
    break;
  case BinOp::Mul:
    R.I = static_cast<std::int64_t>(UX * UY);
    break;
  case BinOp::Div:
    R.I = X / Y;
    break;
  case BinOp::Mod:
    R.I = X % Y;
    break;
  case BinOp::And:
    R.I = X & Y;
    break;
  case BinOp::Or:
    R.I = X | Y;
    break;
  case BinOp::Xor:
    R.I = X ^ Y;
    break;
  // Shifts are Int-only (Context::binary): 32-bit, count masked to 5 bits.
  case BinOp::Shl:
    R.I = static_cast<std::uint32_t>(X) << (Y & 31);
    break;
  case BinOp::Shr:
    R.I = static_cast<std::int32_t>(X) >> (Y & 31);
    break;
  case BinOp::LogAnd:
  case BinOp::LogOr:
    break;
  }
  R.I = canon(R.I, T);
  return R;
}

/// \p K on operands of type \p T. Integer operands are canonical, so a
/// 64-bit signed compare is the 32-bit signed compare for Int, and a 64-bit
/// unsigned compare of sign-extended values keeps 32-bit unsigned order.
/// Doubles compare as the emitted ucomisd does, NaN included.
inline bool compare(CmpKind K, EvalType T, Value A, Value B) {
  if (T == EvalType::Double) {
    // ucomisd's flags, read without a parity check (vcode::condForDouble):
    // an unordered compare (a NaN operand) sets both ZF and CF.
    bool Unordered = std::isunordered(A.D, B.D);
    bool ZF = Unordered || A.D == B.D, CF = Unordered || A.D < B.D;
    switch (K) {
    case CmpKind::Eq:
      return ZF;
    case CmpKind::Ne:
      return !ZF;
    case CmpKind::LtS:
    case CmpKind::LtU:
      return CF;
    case CmpKind::LeS:
    case CmpKind::LeU:
      return CF || ZF;
    case CmpKind::GtS:
    case CmpKind::GtU:
      return !CF && !ZF;
    case CmpKind::GeS:
    case CmpKind::GeU:
      return !CF;
    }
    return false;
  }
  std::int64_t X = A.I, Y = B.I;
  auto UX = static_cast<std::uint64_t>(X), UY = static_cast<std::uint64_t>(Y);
  switch (K) {
  case CmpKind::Eq:
    return X == Y;
  case CmpKind::Ne:
    return X != Y;
  case CmpKind::LtS:
    return X < Y;
  case CmpKind::LeS:
    return X <= Y;
  case CmpKind::GtS:
    return X > Y;
  case CmpKind::GeS:
    return X >= Y;
  case CmpKind::LtU:
    return UX < UY;
  case CmpKind::LeU:
    return UX <= UY;
  case CmpKind::GtU:
    return UX > UY;
  case CmpKind::GeU:
    return UX >= UY;
  }
  return false;
}

} // namespace eval
} // namespace core
} // namespace tcc

#endif // TICKC_CORE_EVAL_H
