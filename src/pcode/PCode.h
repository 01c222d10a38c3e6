//===- pcode/PCode.h - Copy-and-patch VCODE backend ------------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PCODE: the copy-and-patch instantiation backend. It is the same VCODE
/// abstract machine as vcode::VCode — same register designators, spill
/// discipline, label fixups, value-dependent instruction selection — but
/// its emitter (StencilAssembler) replaces the per-instruction x86 encoder
/// with bulk copies of pre-rendered stencil bytes plus hole patches. The
/// op* hooks cover whole VCODE operations whose operands are all physical
/// registers; everything else — spill traffic, branches, constant
/// materialization, double arithmetic — reaches the shadowed encoder
/// entry points below, which serve the same instructions from raw
/// hardware-register-indexed stencil tables. Only rare forms (indirect
/// calls, cvt, general division, shift-by-CL, byte/word memory ops) fall
/// through to the inherited encoder, which the stencils were rendered
/// from — so PCODE output is byte-identical to VCODE on every program,
/// fast or slow path.
///
/// Frame: the prologue is one stencil copy, each return one fused
/// move-and-jump copy (RetJmp*), and finish() copies the shared epilogue
/// Epi[mask] for the callee-saved registers the function used. When
/// finish() drops a final return's jump, unemitJmp() keeps the stencil
/// trace and stencilInstrs() in step with the bytes.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_PCODE_PCODE_H
#define TICKC_PCODE_PCODE_H

#include "pcode/StencilLibrary.h"
#include "vcode/VCodeT.h"
#include "x86/X86Decoder.h"

#include <vector>

namespace tcc {
namespace pcode {

/// Emitter that satisfies VCodeT's stencil contract (the op* hooks guarded
/// by HasOpStencils) and shadows the hot x86::Assembler entry points with
/// stencil-backed versions. Every covered instruction is one table lookup,
/// one fixed-window copy, and zero to four byte patches; uncovered forms
/// call the inherited encoder with the exact instruction sequence of the
/// VCODE fallback path.
class StencilAssembler : public x86::Assembler {
public:
  StencilAssembler(std::uint8_t *Buf, std::size_t Capacity)
      : x86::Assembler(Buf, Capacity), Lib(StencilLibrary::get()) {}

  /// Instruction classes the encoder-fallback ("glue") paths may emit —
  /// the vocabulary of vcode::VCode itself (spill traffic, calls, general
  /// division, doubles, branches, the planted profile counter). The
  /// machine-code verifier accepts a PCODE compile only when every decoded
  /// instruction's class is in StencilLibrary::ClassMask | glueClassMask():
  /// a class outside the union means a patch clobbered an opcode byte.
  static constexpr std::uint64_t glueClassMask() {
    using C = x86::InstrClass;
    constexpr C Glue[] = {
        C::Push,       C::Pop,       C::Ret,        C::Nop,
        C::MovRR,      C::MovImm32,  C::MovImm64,   C::MovImmSExt,
        C::Load,       C::LoadSExt8, C::LoadZExt8,  C::LoadSExt16,
        C::LoadZExt16, C::Store8,    C::Store16,    C::Store32,
        C::Store64,    C::LockInc,   C::AluRR,      C::TestRR,
        C::AluRI,      C::ImulRR,    C::ImulRRI,    C::UnaryGrp,
        C::Cdq,        C::ShiftCl,   C::ShiftImm,   C::Movsxd,
        C::Movzx8RR,   C::Setcc,     C::Jcc,        C::Jmp,
        C::CallInd,    C::SseMov,    C::SseLoad,    C::SseStore,
        C::SseArith,   C::SseUcomi,  C::SseXorpd,   C::SseCvtSI2SD,
        C::SseCvtSD2SI, C::MovqXR};
    std::uint64_t M = 0;
    for (C X : Glue)
      M |= std::uint64_t(1) << static_cast<unsigned>(X);
    return M;
  }

  /// Stencil holes patched so far (the stencil.patches metric).
  unsigned patchesApplied() const { return Patches; }
  /// Instructions emitted via stencil copies (vs. the encoder fallback).
  unsigned stencilInstrs() const { return StencilInstrs; }
  const StencilLibrary &library() const { return Lib; }

  /// One recorded stencil emission: which table entry was copied and, when
  /// HasPatch is set, the value its holes were patched with. The stencil
  /// bench (bench/stencil_compile.cpp) captures a compile's emission stream
  /// through this and replays it in a timed loop to isolate instantiation
  /// cost from the (backend-independent) cspec walk.
  struct TraceEnt {
    const Stencil *S;
    std::int64_t V;
    bool HasPatch;
    bool IsBranch = false; ///< rel32 gets a deferred label fixup (patch32).
  };
  /// Installs (or clears, with nullptr) the calling thread's trace sink.
  /// Thread-local because compiles on other threads must not interleave
  /// their streams into a bench capture; a branch on a thread-local that is
  /// almost always null costs nothing measurable on the hot path.
  static void setTrace(std::vector<TraceEnt> *Sink) { Trace = Sink; }

  // --- Frame ---------------------------------------------------------------
  void opEnter(std::size_t &FramePatchOffset, std::size_t (&SaveSitePc)[5]) {
    std::size_t At = put(Lib.Enter.S);
    FramePatchOffset = At + Lib.Enter.FrameOff;
    for (int I = 0; I < 5; ++I)
      SaveSitePc[I] = At + Lib.Enter.SaveOff[I];
  }
  /// The shared epilogue for the callee-saved pool registers in \p Saved.
  void opEpilogue(std::uint32_t Saved) { put(Lib.Epi[Saved]); }
  void opBindArgI(unsigned Index, int Dst) { put(Lib.BindArgI[Index][Dst]); }
  void opBindArgD(unsigned Index, int Dst) {
    movsdRR(fp(Dst), x86::FloatArgRegs[Index]);
  }
  /// Fused returns: the result move and the jump to the epilogue in one
  /// copy; each returns the jump's rel32 offset, like jmp().
  std::size_t opRetJmpI(int R) { return putBranch(Lib.RetJmpI[R]); }
  std::size_t opRetJmpL(int R) { return putBranch(Lib.RetJmpL[R]); }
  std::size_t opRetJmpII(std::int32_t Imm) {
    return putPatchBranch(Lib.RetJmpII, Imm);
  }
  void opResultToI(int D) { put(Lib.ResultToI[D]); }
  void opResultToD(int D) {
    if (fp(D) != x86::XMM0)
      movsdRR(fp(D), x86::XMM0);
  }

  // --- Moves and constants -------------------------------------------------
  void opSetI(int D, std::int32_t Imm) {
    if (Imm == 0)
      put(Lib.SetI[D][0]);
    else
      putPatch(Lib.SetI[D][1], Imm);
  }
  void opSetL(int D, std::int64_t Imm) {
    if (Imm == 0) {
      put(Lib.SetL[D][0]);
    } else if (Imm >= INT32_MIN && Imm <= INT32_MAX) {
      putPatch(Lib.SetL[D][1], Imm);
    } else {
      // The movabs stencil ends with the imm64 hole, so after the append
      // pc()-8 is the immediate's region offset.
      putPatch(Lib.SetL[D][2], Imm);
      captureReloc64(pc() - 8, static_cast<std::uint64_t>(Imm));
    }
  }
  void opSetD(int D, std::uint64_t Bits) {
    if (Bits == 0) {
      xorpd(fp(D), fp(D));
    } else {
      movRI64(vcode::detail::ScratchA, Bits);
      movqXR(fp(D), vcode::detail::ScratchA);
    }
  }
  void opMovL(int D, int S) { put(Lib.MovL[D][S]); }
  void opMovD(int D, int S) { movsdRR(fp(D), fp(S)); }

  // --- Integer ALU ---------------------------------------------------------
  void opAddI(int D, int A, int B) { bin(StencilLibrary::AddI, D, A, B); }
  void opSubI(int D, int A, int B) { bin(StencilLibrary::SubI, D, A, B); }
  void opMulI(int D, int A, int B) { bin(StencilLibrary::MulI, D, A, B); }
  void opAndI(int D, int A, int B) { bin(StencilLibrary::AndI, D, A, B); }
  void opOrI(int D, int A, int B) { bin(StencilLibrary::OrI, D, A, B); }
  void opXorI(int D, int A, int B) { bin(StencilLibrary::XorI, D, A, B); }
  void opAddL(int D, int A, int B) { bin(StencilLibrary::AddL, D, A, B); }
  void opSubL(int D, int A, int B) { bin(StencilLibrary::SubL, D, A, B); }
  void opMulL(int D, int A, int B) { bin(StencilLibrary::MulL, D, A, B); }
  void opNegI(int D, int A) { put(Lib.NegI[D][A]); }
  void opNotI(int D, int A) { put(Lib.NotI[D][A]); }
  void opSextIToL(int D, int S) { put(Lib.SextIToL[D][S]); }

  // --- Immediate forms -----------------------------------------------------
  void opAddII(int D, int A, std::int32_t Imm) {
    binII(StencilLibrary::AddII, D, A, Imm);
  }
  void opSubII(int D, int A, std::int32_t Imm) {
    binII(StencilLibrary::SubII, D, A, Imm);
  }
  void opAndII(int D, int A, std::int32_t Imm) {
    binII(StencilLibrary::AndII, D, A, Imm);
  }
  void opOrII(int D, int A, std::int32_t Imm) {
    binII(StencilLibrary::OrII, D, A, Imm);
  }
  void opXorII(int D, int A, std::int32_t Imm) {
    binII(StencilLibrary::XorII, D, A, Imm);
  }
  void opAddLI(int D, int A, std::int32_t Imm) {
    binII(StencilLibrary::AddLI, D, A, Imm);
  }
  void opShlII(int D, int A, std::uint8_t Imm) {
    putPatch(Lib.ShiftII[StencilLibrary::ShlII][D][A], Imm);
  }
  void opShrII(int D, int A, std::uint8_t Imm) {
    putPatch(Lib.ShiftII[StencilLibrary::ShrII][D][A], Imm);
  }
  void opUshrII(int D, int A, std::uint8_t Imm) {
    putPatch(Lib.ShiftII[StencilLibrary::UshrII][D][A], Imm);
  }
  void opShlLI(int D, int A, std::uint8_t Imm) {
    putPatch(Lib.ShiftII[StencilLibrary::ShlLI][D][A], Imm);
  }
  void opMulIIPow2(int D, int A, std::uint8_t K, bool Negate) {
    putPatch(Lib.MulIIPow2[Negate][D][A], K);
  }
  void opMulIITwoBit(int D, int A, std::uint8_t Hi, std::uint8_t Lo,
                     bool Negate) {
    x86::GPR Pa = gp(A);
    movRR64(vcode::detail::ScratchB, Pa);
    shlRI32(vcode::detail::ScratchB, Hi);
    x86::GPR Pd = gp(D);
    if (Pd != Pa)
      movRR64(Pd, Pa);
    if (Lo != 0)
      shlRI32(Pd, Lo);
    addRR32(Pd, vcode::detail::ScratchB);
    if (Negate)
      negR32(Pd);
  }
  void opMulIIGeneral(int D, int A, std::int32_t Imm) {
    imulRRI32(gp(D), gp(A), Imm);
  }
  void opMulLIGeneral(int D, int A, std::int32_t Imm) {
    imulRRI64(gp(D), gp(A), Imm);
  }
  void opDivIIPow2(int D, int A, std::uint8_t K) {
    putPatch(Lib.DivIIPow2[D][A], K);
  }
  void opModIIPow2(int D, int A, std::uint8_t K) {
    putPatch(Lib.ModIIPow2[D][A], K);
  }

  // --- Doubles (encoder fallback: short SSE sequences) ---------------------
  void opAddD(int D, int A, int B) { fbin(D, A, B, &StencilAssembler::addsd, true); }
  void opSubD(int D, int A, int B) { fbin(D, A, B, &StencilAssembler::subsd, false); }
  void opMulD(int D, int A, int B) { fbin(D, A, B, &StencilAssembler::mulsd, true); }
  void opDivD(int D, int A, int B) { fbin(D, A, B, &StencilAssembler::divsd, false); }
  void opCvtIToD(int D, int S) { cvtsi2sd32(fp(D), gp(S)); }
  void opCvtLToD(int D, int S) { cvtsi2sd64(fp(D), gp(S)); }
  void opCvtDToI(int D, int S) { cvttsd2si32(gp(D), fp(S)); }
  void opUcomisd(int A, int B) { ucomisd(fp(A), fp(B)); }

  // --- Compares ------------------------------------------------------------
  void opCmpRR32(int A, int B) { put(Lib.CmpRR32[A][B]); }
  void opCmpRR64(int A, int B) { put(Lib.CmpRR64[A][B]); }
  void opCmpRI32(int A, std::int32_t Imm) {
    putPatch(Lib.CmpRI32[A][StencilLibrary::immClass(Imm)], Imm);
  }
  void opTestRR32(int A) { put(Lib.TestRR32[A]); }
  /// Fused `cmp r32, imm; jcc rel32`; returns the rel32 offset like jcc().
  std::size_t opCmpRI32Jcc(int A, std::int32_t Imm, x86::Cond C) {
    const Stencil &S = Lib.CmpJccRI32[A][StencilLibrary::immClass(Imm)]
                                     [static_cast<int>(C)];
    assert(S.Len != 0 && "condition nibble without a rendered stencil");
    return putPatchBranch(S, Imm);
  }
  void opSetZx(x86::Cond C, int D) {
    const Stencil &S = Lib.SetZx[static_cast<int>(C)][D];
    assert(S.Len != 0 && "condition nibble without a rendered stencil");
    put(S);
  }

  // --- Memory --------------------------------------------------------------
  void opLdI(int D, int B, std::int32_t O) { ld(StencilLibrary::LdI, D, B, O); }
  void opLdL(int D, int B, std::int32_t O) { ld(StencilLibrary::LdL, D, B, O); }
  void opLdI8s(int D, int B, std::int32_t O) {
    ld(StencilLibrary::LdI8s, D, B, O);
  }
  void opLdI8u(int D, int B, std::int32_t O) {
    ld(StencilLibrary::LdI8u, D, B, O);
  }
  void opLdI16s(int D, int B, std::int32_t O) {
    ld(StencilLibrary::LdI16s, D, B, O);
  }
  void opLdI16u(int D, int B, std::int32_t O) {
    ld(StencilLibrary::LdI16u, D, B, O);
  }
  void opLdD(int D, int B, std::int32_t O) { movsdRM(fp(D), gp(B), O); }
  void opStI(int B, std::int32_t O, int S) { st(StencilLibrary::StI, B, O, S); }
  void opStL(int B, std::int32_t O, int S) { st(StencilLibrary::StL, B, O, S); }
  void opStI8(int B, std::int32_t O, int S) {
    st(StencilLibrary::StI8, B, O, S);
  }
  void opStI16(int B, std::int32_t O, int S) {
    st(StencilLibrary::StI16, B, O, S);
  }
  void opStD(int B, std::int32_t O, int S) { movsdMR(gp(B), O, fp(S)); }

  // --- Shadowed encoder entry points ---------------------------------------
  // x86::Assembler's emit methods are non-virtual, but every call the
  // abstract machine makes — including its fallback paths for spilled
  // operands, branches, and doubles, and this class's own escape hatches —
  // is statically dispatched on StencilAssembler. Shadowing the entry
  // points those paths use routes them through stencils indexed by raw
  // hardware register number, so the fallback glue is a table copy too
  // instead of a re-entry into the per-instruction encoder. Anything not
  // shadowed (division, shift-by-CL, calls, byte/word memory forms, SSE
  // loads/stores, cvt) still reaches the inherited encoder unchanged.
  std::size_t jcc(x86::Cond C) {
    const Stencil &S = Lib.Jcc[static_cast<int>(C)];
    assert(S.Len != 0 && "condition nibble without a rendered jcc stencil");
    return putBranch(S);
  }
  std::size_t jmp() { return putBranch(Lib.JmpRel); }
  /// Drops the trailing jump; a fused return stencil shrinks to its move.
  void unemitJmp() {
    x86::Assembler::unemitJmp();
    --StencilInstrs;
    if (__builtin_expect(Trace != nullptr, 0)) {
      TraceEnt &E = Trace->back();
      if (const Stencil *Body = Lib.withoutJmp(E.S)) {
        E.S = Body;
        E.IsBranch = false;
      } else {
        Trace->pop_back();
      }
    }
  }

  void movRR32(x86::GPR D, x86::GPR S) { put(Lib.RawMovRR[0][D][S]); }
  void movRR64(x86::GPR D, x86::GPR S) { put(Lib.RawMovRR[1][D][S]); }
  void movRI32(x86::GPR D, std::uint32_t Imm) {
    putPatch(Lib.RawMovRI32[D], static_cast<std::int64_t>(Imm));
  }
  void movRI64(x86::GPR D, std::uint64_t Imm) {
    putPatch(Lib.RawMovRI64[D], static_cast<std::int64_t>(Imm));
    captureReloc64(pc() - 8, Imm);
  }
  void movRI64SExt32(x86::GPR D, std::int32_t Imm) {
    putPatch(Lib.RawMovRI64S[D], Imm);
  }
  void loadRM32(x86::GPR D, x86::GPR B, std::int32_t O) {
    rawMem(Lib.RawLoad[0][D][B], O);
  }
  void loadRM64(x86::GPR D, x86::GPR B, std::int32_t O) {
    rawMem(Lib.RawLoad[1][D][B], O);
  }
  void storeMR32(x86::GPR B, std::int32_t O, x86::GPR S) {
    rawMem(Lib.RawStore[0][B][S], O);
  }
  void storeMR64(x86::GPR B, std::int32_t O, x86::GPR S) {
    rawMem(Lib.RawStore[1][B][S], O);
  }

  void addRR32(x86::GPR D, x86::GPR S) { rawBin(StencilLibrary::RawAdd, 0, D, S); }
  void addRR64(x86::GPR D, x86::GPR S) { rawBin(StencilLibrary::RawAdd, 1, D, S); }
  void subRR32(x86::GPR D, x86::GPR S) { rawBin(StencilLibrary::RawSub, 0, D, S); }
  void subRR64(x86::GPR D, x86::GPR S) { rawBin(StencilLibrary::RawSub, 1, D, S); }
  void andRR32(x86::GPR D, x86::GPR S) { rawBin(StencilLibrary::RawAnd, 0, D, S); }
  void andRR64(x86::GPR D, x86::GPR S) { rawBin(StencilLibrary::RawAnd, 1, D, S); }
  void orRR32(x86::GPR D, x86::GPR S) { rawBin(StencilLibrary::RawOr, 0, D, S); }
  void orRR64(x86::GPR D, x86::GPR S) { rawBin(StencilLibrary::RawOr, 1, D, S); }
  void xorRR32(x86::GPR D, x86::GPR S) { rawBin(StencilLibrary::RawXor, 0, D, S); }
  void xorRR64(x86::GPR D, x86::GPR S) { rawBin(StencilLibrary::RawXor, 1, D, S); }
  void cmpRR32(x86::GPR A, x86::GPR B) { rawBin(StencilLibrary::RawCmp, 0, A, B); }
  void cmpRR64(x86::GPR A, x86::GPR B) { rawBin(StencilLibrary::RawCmp, 1, A, B); }

  void addRI32(x86::GPR D, std::int32_t I) { rawBinI(StencilLibrary::RawAdd, 0, D, I); }
  void addRI64(x86::GPR D, std::int32_t I) { rawBinI(StencilLibrary::RawAdd, 1, D, I); }
  void subRI32(x86::GPR D, std::int32_t I) { rawBinI(StencilLibrary::RawSub, 0, D, I); }
  void subRI64(x86::GPR D, std::int32_t I) { rawBinI(StencilLibrary::RawSub, 1, D, I); }
  void andRI32(x86::GPR D, std::int32_t I) { rawBinI(StencilLibrary::RawAnd, 0, D, I); }
  void andRI64(x86::GPR D, std::int32_t I) { rawBinI(StencilLibrary::RawAnd, 1, D, I); }
  void orRI32(x86::GPR D, std::int32_t I) { rawBinI(StencilLibrary::RawOr, 0, D, I); }
  void orRI64(x86::GPR D, std::int32_t I) { rawBinI(StencilLibrary::RawOr, 1, D, I); }
  void xorRI32(x86::GPR D, std::int32_t I) { rawBinI(StencilLibrary::RawXor, 0, D, I); }
  void xorRI64(x86::GPR D, std::int32_t I) { rawBinI(StencilLibrary::RawXor, 1, D, I); }
  void cmpRI32(x86::GPR A, std::int32_t I) { rawBinI(StencilLibrary::RawCmp, 0, A, I); }
  void cmpRI64(x86::GPR A, std::int32_t I) { rawBinI(StencilLibrary::RawCmp, 1, A, I); }

  void shlRI32(x86::GPR R, std::uint8_t K) { putPatch(Lib.RawShiftImm[StencilLibrary::RawShl][0][R], K); }
  void shlRI64(x86::GPR R, std::uint8_t K) { putPatch(Lib.RawShiftImm[StencilLibrary::RawShl][1][R], K); }
  void shrRI32(x86::GPR R, std::uint8_t K) { putPatch(Lib.RawShiftImm[StencilLibrary::RawShr][0][R], K); }
  void shrRI64(x86::GPR R, std::uint8_t K) { putPatch(Lib.RawShiftImm[StencilLibrary::RawShr][1][R], K); }
  void sarRI32(x86::GPR R, std::uint8_t K) { putPatch(Lib.RawShiftImm[StencilLibrary::RawSar][0][R], K); }
  void sarRI64(x86::GPR R, std::uint8_t K) { putPatch(Lib.RawShiftImm[StencilLibrary::RawSar][1][R], K); }

  void movsxd(x86::GPR D, x86::GPR S) { put(Lib.RawMovsxd[D][S]); }
  void imulRRI32(x86::GPR D, x86::GPR S, std::int32_t I) {
    putPatch(Lib.RawImulRRI[0][D][S], I);
  }
  void imulRRI64(x86::GPR D, x86::GPR S, std::int32_t I) {
    putPatch(Lib.RawImulRRI[1][D][S], I);
  }

  void movsdRR(x86::XMM D, x86::XMM S) { put(Lib.RawSseMov[D][S]); }
  void addsd(x86::XMM D, x86::XMM S) { put(Lib.RawSseArith[0][D][S]); }
  void subsd(x86::XMM D, x86::XMM S) { put(Lib.RawSseArith[1][D][S]); }
  void mulsd(x86::XMM D, x86::XMM S) { put(Lib.RawSseArith[2][D][S]); }
  void divsd(x86::XMM D, x86::XMM S) { put(Lib.RawSseArith[3][D][S]); }
  void sqrtsd(x86::XMM D, x86::XMM S) { put(Lib.RawSseArith[4][D][S]); }
  void ucomisd(x86::XMM A, x86::XMM B) { put(Lib.RawUcomisd[A][B]); }
  void xorpd(x86::XMM D, x86::XMM S) { put(Lib.RawXorpd[D][S]); }
  void movqXR(x86::XMM D, x86::GPR S) { put(Lib.RawMovqXR[D][S]); }

private:
  static x86::GPR gp(int R) { return vcode::detail::IntPoolPhys[R]; }
  static x86::XMM fp(int R) { return vcode::detail::FloatPoolPhys[R]; }

  std::size_t emit(const Stencil &S) {
    StencilInstrs += S.Instrs;
    return appendStencil(S.Bytes, S.Len, S.Instrs);
  }
  std::size_t put(const Stencil &S) {
    if (__builtin_expect(Trace != nullptr, 0))
      Trace->push_back({&S, 0, false});
    return emit(S);
  }
  void putPatch(const Stencil &S, std::int64_t V) {
    if (__builtin_expect(Trace != nullptr, 0))
      Trace->push_back({&S, V, true});
    std::size_t At = emit(S);
    Patches += applyStencilHoles(bufferBase() + At, S, V);
  }
  /// Branch emission: the stencil carries a zero rel32; returns the
  /// displacement offset for the label machinery's later patch32, exactly
  /// like the encoder's jcc()/jmp().
  std::size_t putBranch(const Stencil &S) {
    if (__builtin_expect(Trace != nullptr, 0))
      Trace->push_back({&S, 0, false, /*IsBranch=*/true});
    return emit(S) + S.Len - 4;
  }
  /// A stencil with both an immediate hole and a trailing rel32 branch.
  std::size_t putPatchBranch(const Stencil &S, std::int64_t V) {
    if (__builtin_expect(Trace != nullptr, 0))
      Trace->push_back({&S, V, true, /*IsBranch=*/true});
    std::size_t At = emit(S);
    Patches += applyStencilHoles(bufferBase() + At, S, V);
    return At + S.Len - 4;
  }
  void rawMem(const Stencil (&T)[3], std::int32_t Off) {
    int C = StencilLibrary::dispClass(Off);
    if (C == 0)
      put(T[0]);
    else
      putPatch(T[C], Off);
  }
  void rawBin(int Op, int W, x86::GPR D, x86::GPR S) {
    put(Lib.RawBin[Op][W][D][S]);
  }
  void rawBinI(int Op, int W, x86::GPR D, std::int32_t Imm) {
    putPatch(Lib.RawBinImm[Op][W][D][StencilLibrary::immClass(Imm)], Imm);
  }
  void bin(int Op, int D, int A, int B) { put(Lib.IntBin[Op][D][A][B]); }
  void binII(int Op, int D, int A, std::int32_t Imm) {
    putPatch(Lib.BinII[Op][D][A][StencilLibrary::immClass(Imm)], Imm);
  }
  void ld(int Op, int D, int Base, std::int32_t Off) {
    int C = StencilLibrary::dispClass(Off);
    if (C == 0)
      put(Lib.Ld[Op][D][Base][0]);
    else
      putPatch(Lib.Ld[Op][D][Base][C], Off);
  }
  void st(int Op, int Base, std::int32_t Off, int S) {
    int C = StencilLibrary::dispClass(Off);
    if (C == 0)
      put(Lib.St[Op][Base][S][0]);
    else
      putPatch(Lib.St[Op][Base][S][C], Off);
  }
  // Note the derived-class member-pointer type: a base-class pointer would
  // statically bind past the shadowed SSE entry points above.
  void fbin(int D, int A, int B,
            void (StencilAssembler::*Op)(x86::XMM, x86::XMM),
            bool Commutative) {
    x86::XMM Pa = fp(A), Pb = fp(B), Pd = fp(D);
    if (Pd == Pb && Pd != Pa) {
      if (Commutative) {
        (this->*Op)(Pd, Pa);
        return;
      }
      movsdRR(vcode::detail::FScratchAux, Pb);
      Pb = vcode::detail::FScratchAux;
    }
    if (Pd != Pa)
      movsdRR(Pd, Pa);
    (this->*Op)(Pd, Pb);
  }

  const StencilLibrary &Lib;
  unsigned Patches = 0;
  unsigned StencilInstrs = 0;
  static inline thread_local std::vector<TraceEnt> *Trace = nullptr;
};

} // namespace pcode

namespace vcode {
/// StencilAssembler provides the op* stencil hooks; flip VCodeT onto them.
template <> struct HasOpStencils<pcode::StencilAssembler> : std::true_type {};
} // namespace vcode

namespace pcode {

/// The copy-and-patch VCODE machine: identical abstract-machine semantics,
/// stencil-backed emission. Compiled once in PCode.cpp.
using PCode = vcode::VCodeT<StencilAssembler>;

} // namespace pcode

namespace vcode {
extern template class VCodeT<pcode::StencilAssembler>;
} // namespace vcode

} // namespace tcc

#endif // TICKC_PCODE_PCODE_H
