//===- pcode/StencilLibrary.h - Self-stenciled VCODE op templates -*- C++ -*-=//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pre-rendered machine-code templates ("stencils") for the VCODE abstract
/// machine's hot operations, in the style of Copy-and-Patch (Xu & Kjolstad,
/// arXiv 2011.13127). Instead of shipping clang-built object files, the
/// library *self-stencils* at process startup: it drives the ordinary
/// VCODE/x86::Assembler emission path once per (op, operand-shape)
/// combination with sentinel immediates, diffs two renders to locate the
/// bytes that depend on the immediate, and records those bytes as patch
/// holes. Register bindings need no holes at all — the tables are indexed
/// by register designator, so every register combination has its own fully
/// rendered template. Because the templates come from the very encoder
/// VCODE uses, PCODE output is byte-identical to VCODE by construction.
///
/// Every stencil is validated at build time: both renders must agree on
/// length and instruction count, re-patching render #1 with render #2's
/// sentinels must reproduce render #2 exactly, and the strict X86Decoder
/// must accept the bytes. The decoder classes observed across the library
/// are accumulated into classMask() for the machine-code verifier.
///
/// Frame stencils: Enter (the prologue), Epi[mask] (the shared epilogue,
/// one per set of callee-saved pool registers to reload) and the fused
/// returns RetJmpI/RetJmpL/RetJmpII (result move + jmp to the epilogue in
/// one copy).
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_PCODE_STENCILLIBRARY_H
#define TICKC_PCODE_STENCILLIBRARY_H

#include "x86/X86Assembler.h"

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace tcc {
namespace pcode {

/// How a patch hole consumes the operation's run-time value V.
enum class HoleKind : std::uint8_t {
  Raw8,  ///< 1 byte  = (uint8)V  (imm8, disp8, shift counts)
  Raw32, ///< 4 bytes = (uint32)V (imm32, disp32)
  Raw64, ///< 8 bytes = (uint64)V (movabs payload)
  Sub32, ///< 1 byte  = (uint8)(32 - V) (the 32-k logical shift in the
         ///< power-of-two signed div/mod bias sequences)
};

/// One patchable byte range inside a stencil.
struct Hole {
  std::uint8_t Offset = 0;
  HoleKind Kind = HoleKind::Raw8;
};

/// A rendered template: the exact bytes x86::Assembler produced for one
/// VCODE op with one operand shape, plus the relocation (hole) table. The
/// byte array matches Assembler::StencilWindow so instantiation can copy a
/// fixed-size block regardless of Len.
struct Stencil {
  std::uint8_t Len = 0;
  std::uint8_t Instrs = 0;
  std::uint8_t NumHoles = 0;
  Hole Holes[4];
  std::uint8_t Bytes[x86::Assembler::StencilWindow] = {};
};

/// The prologue template also records where finish() and the callee-save
/// eraser need to reach back into the emitted bytes.
struct EnterStencil {
  Stencil S;
  std::uint8_t FrameOff = 0;   ///< Offset of the frame-size imm32.
  std::uint8_t SaveOff[5] = {}; ///< Callee-save store sites (4 bytes each).
};

/// Writes the operation's run-time value \p V into the freshly copied
/// stencil bytes at \p B (the instantiation buffer position the stencil
/// landed at). Shared by the backend's emit path and the build-time
/// re-patch self-check, so the two cannot diverge. Returns the number of
/// holes patched.
inline unsigned applyStencilHoles(std::uint8_t *B, const Stencil &S,
                                  std::int64_t V) {
  for (unsigned I = 0; I < S.NumHoles; ++I) {
    const Hole &H = S.Holes[I];
    switch (H.Kind) {
    case HoleKind::Raw8:
      B[H.Offset] = static_cast<std::uint8_t>(V);
      break;
    case HoleKind::Raw32: {
      std::uint32_t W = static_cast<std::uint32_t>(V);
      std::memcpy(B + H.Offset, &W, 4);
      break;
    }
    case HoleKind::Raw64: {
      std::uint64_t W = static_cast<std::uint64_t>(V);
      std::memcpy(B + H.Offset, &W, 8);
      break;
    }
    case HoleKind::Sub32:
      B[H.Offset] = static_cast<std::uint8_t>(32 - V);
      break;
    }
  }
  return S.NumHoles;
}

/// All stencil tables, indexed by register *designator* (0..6 for the
/// integer pool + static registers). Built once per process (see get());
/// immutable afterwards, so concurrent compiles share it freely.
struct StencilLibrary {
  static constexpr int NI = 7;  ///< Integer designators (pool + static).
  static constexpr int NF = 12; ///< Double designators.

  /// Raw encoder binary ops, in x86::Assembler's reg-form opcode order
  /// (03 add, 2B sub, 23 and, 0B or, 33 xor, 3B cmp).
  enum RawBinOp { RawAdd, RawSub, RawAnd, RawOr, RawXor, RawCmp, NumRawBin };
  enum RawShiftOp { RawShl, RawShr, RawSar, NumRawShift };

  enum IntBinOp {
    AddI,
    SubI,
    MulI,
    AndI,
    OrI,
    XorI,
    AddL,
    SubL,
    MulL,
    NumIntBin
  };
  enum BinIIOp { AddII, SubII, AndII, OrII, XorII, AddLI, NumBinII };
  enum ShiftIIOp { ShlII, ShrII, UshrII, ShlLI, NumShiftII };
  enum LdOp { LdI, LdL, LdI8s, LdI8u, LdI16s, LdI16u, NumLd };
  enum StOp { StI, StL, StI8, StI16, NumSt };

  /// Displacement class of a memory operand: matches modrmMem's choice so
  /// that the patched encoding is exactly what the encoder would pick.
  /// (A zero displacement on an RBP/R13 base still renders as the class-0
  /// entry: that entry was rendered *with* Disp == 0 for that base, so it
  /// already carries the mandatory zero disp8.)
  static int dispClass(std::int32_t Disp) {
    if (Disp == 0)
      return 0;
    return (Disp >= -128 && Disp <= 127) ? 1 : 2;
  }
  /// Immediate class of an ALU-immediate operand: matches aluRI.
  static int immClass(std::int32_t Imm) {
    return (Imm >= -128 && Imm <= 127) ? 0 : 1;
  }

  EnterStencil Enter;
  /// The shared epilogue, one per set of callee-saved pool registers to
  /// reload ([mask], a bit per pool index): reloads, mov rsp, rbp; pop rbp;
  /// ret.
  Stencil Epi[32];

  Stencil BindArgI[6][NI];
  /// Fused returns: mov eax, r32 | mov rax, r64 | mov eax, imm32 (one
  /// imm32 hole), then jmp rel32(0) to the epilogue.
  Stencil RetJmpI[NI], RetJmpL[NI], RetJmpII;
  /// The fused returns' moves alone: what a return leaves when finish()
  /// drops its jump to the next byte (RetJmpII leaves RawMovRI32[RAX]).
  Stencil RetMovI[NI], RetMovL[NI];
  Stencil ResultToI[NI];

  Stencil SetI[NI][2];     ///< [d][imm == 0 ? 0 : 1]
  Stencil SetL[NI][3];     ///< [d][0 zero, 1 sext-imm32, 2 movabs]
  Stencil MovL[NI][NI];    ///< D != S only.

  Stencil IntBin[NumIntBin][NI][NI][NI];
  Stencil NegI[NI][NI], NotI[NI][NI], SextIToL[NI][NI];

  Stencil BinII[NumBinII][NI][NI][2]; ///< [imm class]
  Stencil ShiftII[NumShiftII][NI][NI];
  Stencil MulIIPow2[2][NI][NI]; ///< [negate]
  Stencil DivIIPow2[NI][NI];
  Stencil ModIIPow2[NI][NI];

  Stencil CmpRR32[NI][NI], CmpRR64[NI][NI];
  Stencil CmpRI32[NI][2]; ///< [imm class]
  Stencil TestRR32[NI];
  /// Fused `cmp r32, imm; jcc rel32(0)`: [a][imm class][condition nibble],
  /// one imm hole; unrendered nibbles stay Len == 0.
  Stencil CmpJccRI32[NI][2][16];
  Stencil SetZx[16][NI]; ///< [condition nibble][d]

  Stencil Ld[NumLd][NI][NI][3]; ///< [d][base][disp class]
  Stencil St[NumSt][NI][NI][3]; ///< [base][src][disp class]

  // --- Raw encoder forms ---------------------------------------------------
  // Indexed by *hardware* register number (x86::GPR / x86::XMM), not pool
  // designator: these back the shadowed x86::Assembler entry points on
  // StencilAssembler, so the VCODE fallback paths — spill traffic through
  // the scratch registers, branches, double arithmetic, constant
  // materialization — instantiate by copy-and-patch too instead of
  // re-entering the per-instruction encoder.
  Stencil Jcc[16]; ///< 0F 8x + rel32(0); the label fixup patches the rel32
                   ///< exactly as it patches the encoder's placeholder.
                   ///< Unrendered nibbles (outside condFor's range) stay
                   ///< Len == 0.
  Stencil JmpRel;  ///< E9 + rel32(0).
  Stencil RawMovRR[2][16][16];        ///< [W][dst][src]
  Stencil RawLoad[2][16][16][3];      ///< [W][dst][base][disp class]
  Stencil RawStore[2][16][16][3];     ///< [W][base][src][disp class]
  Stencil RawBin[NumRawBin][2][16][16];    ///< [op][W][dst][src]
  Stencil RawBinImm[NumRawBin][2][16][2];  ///< [op][W][reg][imm class]
  Stencil RawShiftImm[NumRawShift][2][16]; ///< [op][W][reg], imm8 hole
  Stencil RawMovsxd[16][16];          ///< [dst][src]
  Stencil RawImulRRI[2][16][16];      ///< [W][dst][src], imm32 hole
  Stencil RawMovRI32[16];             ///< imm32 hole
  Stencil RawMovRI64[16];             ///< movabs, imm64 hole
  Stencil RawMovRI64S[16];            ///< REX.W C7 /0, imm32 hole
  Stencil RawSseMov[16][16];          ///< movapd [dst][src]
  Stencil RawSseArith[5][16][16];     ///< add/sub/mul/div/sqrt sd [dst][src]
  Stencil RawUcomisd[16][16];
  Stencil RawXorpd[16][16];
  Stencil RawMovqXR[16][16];          ///< [xmm dst][gpr src]

  /// \p S without its trailing jmp — the stencil trace's record of a
  /// fused return whose jump finish() dropped — or null for JmpRel.
  const Stencil *withoutJmp(const Stencil *S) const {
    for (int R = 0; R < NI; ++R) {
      if (S == &RetJmpI[R])
        return &RetMovI[R];
      if (S == &RetJmpL[R])
        return &RetMovL[R];
    }
    return S == &RetJmpII ? &RawMovRI32[x86::RAX] : nullptr;
  }

  /// InstrClass bits (1 << class) observed while decode-validating the
  /// library; the machine-code verifier checks PCODE output against this
  /// mask plus the fallback-path glue classes.
  std::uint64_t classMask() const { return ClassMask; }
  std::uint64_t buildCycles() const { return BuildCycles; }
  unsigned stencilCount() const { return Count; }
  std::size_t tableBytes() const { return sizeof(StencilLibrary); }

  /// The process-wide library, built on first use (thread-safe).
  static const StencilLibrary &get();

  // Populated by the builder (StencilLibrary.cpp).
  std::uint64_t ClassMask = 0;
  std::uint64_t BuildCycles = 0;
  unsigned Count = 0;
};

} // namespace pcode
} // namespace tcc

#endif // TICKC_PCODE_STENCILLIBRARY_H
