//===- vcode/VCodeT.h - Assembler-templated VCODE implementation *- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VCODE abstract machine, templated over its instruction emitter. All
/// register-designator handling, spill bracketing, value-dependent
/// instruction selection and label fixup logic lives here, single-source;
/// the AsmT parameter decides how machine bytes actually reach the buffer:
///
///   * VCodeT<x86::Assembler>   — the classic one-pass encoder (vcode::VCode)
///   * VCodeT<pcode::StencilAssembler> — the copy-and-patch backend
///     (pcode::PCode), which overlays pre-rendered stencil bytes and patches
///     holes instead of running the encoder per instruction.
///
/// Emitter types opt into the stencil fast paths by specializing
/// HasOpStencils; ops whose operands are all physical registers then
/// short-circuit into a single table-driven emission (Asm.opXyz), skipping
/// both the per-operand spill checks and the per-instruction encoder. The
/// fallback path below each guard is the reference semantics; stencil
/// tables are rendered *from* these paths at startup, so the two emit
/// byte-identical code by construction.
///
/// Frame: enter() stores all five callee-saved pool registers below rbp
/// with fixed 4-byte stores. Every ret* moves its result into place and
/// jumps to one epilogue per function; finish() binds it there, reloads
/// only the pool registers the code used (UsedPoolMask), unwinds and
/// returns, nop-fills the prologue stores of the unused ones, and drops a
/// final return's jump to the next byte. The machine tracks reachability:
/// after a jump or a return, jump() and ret* emit nothing until the next
/// label is bound.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_VCODE_VCODET_H
#define TICKC_VCODE_VCODET_H

#include "support/Arena.h"
#include "support/Error.h"
#include "x86/X86Assembler.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

namespace tcc {
namespace vcode {

/// Integer register designator: >= 0 physical, < 0 spill slot.
using Reg = int;
/// Floating-point register designator: >= 0 physical, < 0 spill slot.
using FReg = int;

/// Comparison kinds shared by compare-and-set and compare-and-branch forms.
enum class CmpKind : std::uint8_t {
  Eq,
  Ne,
  LtS,
  LeS,
  GtS,
  GeS,
  LtU,
  LeU,
  GtU,
  GeU,
};

/// Returns the comparison with operands swapped (a OP b == b OP' a).
CmpKind swapOperands(CmpKind K);
/// Returns the negated comparison (!(a OP b) == a OP' b).
CmpKind negate(CmpKind K);

/// Granlund/Montgomery magic constant for signed division by \p Divisor
/// (non-zero, not INT32_MIN): {multiplier, post-shift}.
std::pair<std::int32_t, int> signedDivisionMagicImpl(std::int32_t Divisor);

/// Branch-target handle. Labels may be bound before or after being used as
/// jump targets; forward references are back-patched.
struct Label {
  unsigned Id = ~0u;
  bool valid() const { return Id != ~0u; }
};

/// Opt-in marker for emitter types that carry pre-rendered VCODE-op
/// stencils (pcode::StencilAssembler specializes this to true_type). With
/// stencils available, operations on all-physical operands collapse to one
/// table lookup + bulk byte store + hole patches.
template <class AsmT> struct HasOpStencils : std::false_type {};

namespace detail {

/// Physical register assignment. The integer pool is callee-saved so that
/// values survive calls emitted into dynamic code; R10/R11/RAX(/RDX/RCX)
/// are emission scratch and never allocated; R8/R9 are the reserved static
/// registers of paper §5.1.
inline constexpr x86::GPR IntPoolPhys[7] = {x86::RBX, x86::R12, x86::R13,
                                            x86::R14, x86::R15, x86::R8,
                                            x86::R9};
inline constexpr x86::GPR ScratchA = x86::R10;
inline constexpr x86::GPR ScratchB = x86::R11;
inline constexpr x86::GPR ScratchAux = x86::RAX;

inline constexpr x86::XMM FloatPoolPhys[12] = {
    x86::XMM4,  x86::XMM5,  x86::XMM6,  x86::XMM7,  x86::XMM8,  x86::XMM9,
    x86::XMM10, x86::XMM11, x86::XMM12, x86::XMM13, x86::XMM14, x86::XMM15};
inline constexpr x86::XMM FScratchA = x86::XMM2;
inline constexpr x86::XMM FScratchB = x86::XMM3;
inline constexpr x86::XMM FScratchAux = x86::XMM1;

/// x86 condition for an integer comparison.
inline x86::Cond condFor(CmpKind K) {
  using x86::Cond;
  switch (K) {
  case CmpKind::Eq:
    return Cond::E;
  case CmpKind::Ne:
    return Cond::NE;
  case CmpKind::LtS:
    return Cond::L;
  case CmpKind::LeS:
    return Cond::LE;
  case CmpKind::GtS:
    return Cond::G;
  case CmpKind::GeS:
    return Cond::GE;
  case CmpKind::LtU:
    return Cond::B;
  case CmpKind::LeU:
    return Cond::BE;
  case CmpKind::GtU:
    return Cond::A;
  case CmpKind::GeU:
    return Cond::AE;
  }
  tcc_unreachable("bad CmpKind");
}

/// x86 condition after ucomisd (which sets flags like an unsigned compare).
/// NaN operands take the "unordered" outcome; like the original tcc we do
/// not emit the extra parity check.
inline x86::Cond condForDouble(CmpKind K) {
  using x86::Cond;
  switch (K) {
  case CmpKind::Eq:
    return Cond::E;
  case CmpKind::Ne:
    return Cond::NE;
  case CmpKind::LtS:
  case CmpKind::LtU:
    return Cond::B;
  case CmpKind::LeS:
  case CmpKind::LeU:
    return Cond::BE;
  case CmpKind::GtS:
  case CmpKind::GtU:
    return Cond::A;
  case CmpKind::GeS:
  case CmpKind::GeU:
    return Cond::AE;
  }
  tcc_unreachable("bad CmpKind");
}

} // namespace detail

/// One-pass code generator. Construct over a writable code buffer, emit
/// operations, then call finish(); the caller flips the buffer executable.
/// See the file comment for the AsmT contract.
template <class AsmT> class VCodeT {
public:
  /// Number of integer registers getreg() can hand out.
  static constexpr int NumIntPool = 5;
  /// Number of reserved static integer registers (see staticReg()).
  static constexpr int NumStaticRegs = 2;
  /// Number of double registers getfreg() can hand out.
  static constexpr int NumFloatPool = 12;
  /// Bytes of callee-saved registers stored below the frame pointer
  /// (rbx, r12..r15; the rbp push is accounted separately). Spill slots
  /// start below this area; the machine-code verifier's spill
  /// store-before-load check keys off it.
  static constexpr std::int32_t CalleeSaveBytes = 40;

  /// True when ops may take the pre-rendered stencil fast paths.
  static constexpr bool UsesOpStencils = HasOpStencils<AsmT>::value;

  /// Designator for spill slot \p Slot (0-based).
  static constexpr Reg spillReg(int Slot) { return -Slot - 1; }
  /// Slot index of a spilled designator.
  static constexpr int spillSlot(Reg R) { return -R - 1; }
  static constexpr bool isSpill(Reg R) { return R < 0; }

  /// Construct over a writable code buffer. \p ScratchArena, when given,
  /// backs the label/fixup/spill-slot tables (a pooled CompileContext's
  /// arena on the steady-state compile path); without one the VCode owns a
  /// small private arena.
  VCodeT(std::uint8_t *Buf, std::size_t Capacity, Arena *ScratchArena = nullptr)
      : Asm(Buf, Capacity),
        OwnedScratch(ScratchArena ? nullptr : new Arena(4096)),
        Scratch(ScratchArena ? ScratchArena : OwnedScratch.get()),
        FreeIntMask((1u << NumIntPool) - 1),
        FreeFloatMask((1u << NumFloatPool) - 1), FreeSpillSlots(*Scratch),
        Labels(*Scratch) {}

  // --- Register management (paper §5.1) -----------------------------------
  /// Allocates an integer register; returns a spill designator under
  /// pressure (or aborts if spilling was disabled).
  Reg getreg() {
    if (FreeIntMask) {
      int Idx = std::countr_zero(FreeIntMask);
      FreeIntMask &= FreeIntMask - 1;
      return Idx;
    }
    if (!SpillingEnabled)
      reportFatalError(
          "getreg: register pool exhausted with spilling disabled");
    if (!FreeSpillSlots.empty()) {
      int Slot = FreeSpillSlots.back();
      FreeSpillSlots.pop_back();
      return spillReg(Slot);
    }
    return spillReg(allocSlot());
  }

  void putreg(Reg R) {
    if (isSpill(R)) {
      FreeSpillSlots.push_back(spillSlot(R));
      return;
    }
    assert(R < NumIntPool && "putreg on a static register");
    assert(!(FreeIntMask & (1u << R)) && "double putreg");
    FreeIntMask |= 1u << R;
  }

  FReg getfreg() {
    if (FreeFloatMask) {
      int Idx = std::countr_zero(FreeFloatMask);
      FreeFloatMask &= FreeFloatMask - 1;
      return Idx;
    }
    if (!SpillingEnabled)
      reportFatalError(
          "getfreg: register pool exhausted with spilling disabled");
    if (!FreeSpillSlots.empty()) {
      int Slot = FreeSpillSlots.back();
      FreeSpillSlots.pop_back();
      return spillReg(Slot);
    }
    return spillReg(allocSlot());
  }

  void putfreg(FReg R) {
    if (isSpill(R)) {
      FreeSpillSlots.push_back(spillSlot(R));
      return;
    }
    assert(!(FreeFloatMask & (1u << R)) && "double putfreg");
    FreeFloatMask |= 1u << R;
  }

  /// Static register \p I (0 <= I < NumStaticRegs); never tracked, does not
  /// survive emitted calls.
  static constexpr Reg staticReg(int I) { return NumIntPool + I; }
  /// When disabled, getreg aborts instead of spilling, and operations skip
  /// the per-operand spill checks (the paper's fast path).
  void setSpillingEnabled(bool Enabled) { SpillingEnabled = Enabled; }
  /// Number of integer registers currently free in the pool.
  int freeIntRegs() const { return std::popcount(FreeIntMask); }
  /// Bitmask of float pool registers currently handed out by getfreg().
  /// Clients use it to save caller-saved doubles around emitted calls.
  std::uint32_t allocatedFpMask() const {
    return ~FreeFloatMask & ((1u << NumFloatPool) - 1);
  }

  /// Reserves a fresh 8-byte stack slot (used by the ICODE register
  /// allocator to place spilled virtual registers).
  int allocSlot() { return NumSlots++; }

  /// Granlund/Montgomery magic constant for signed division by \p Divisor
  /// (non-zero, not INT32_MIN): {multiplier, post-shift}. Exposed for
  /// testing; divII uses it to avoid idiv for run-time constant divisors.
  static std::pair<std::int32_t, int> signedDivisionMagic(
      std::int32_t Divisor) {
    return signedDivisionMagicImpl(Divisor);
  }

  // --- Function boundaries -------------------------------------------------
  /// Emits the prologue. Call bindArgI/bindArgD for each incoming parameter
  /// immediately afterwards, before any other operation.
  void enter() {
    if constexpr (UsesOpStencils) {
      Asm.opEnter(FramePatchOffset, SaveSitePc);
      return;
    }
    // Callee-saved pool registers are preserved with rbp-relative stores
    // (fixed 4-byte encodings) rather than pushes, so that finish() can
    // erase the ones this function never used — keeping small dynamic
    // functions' prologues lean without a second pass.
    Asm.push(x86::RBP);
    Asm.movRR64(x86::RBP, x86::RSP);
    FramePatchOffset = Asm.subRI64Patchable(x86::RSP);
    for (int I = 0; I < NumIntPool; ++I) {
      SaveSitePc[I] = Asm.pc();
      Asm.storeMR64(x86::RBP, -8 * (I + 1), detail::IntPoolPhys[I]);
      assert(Asm.pc() - SaveSitePc[I] == 4 && "save store must be 4 bytes");
    }
  }

  /// Plants the opt-in profiling hook (observability/Profile.h): one
  /// `lock inc qword [Counter]` on a 64-bit invocation counter that must
  /// outlive the generated code. Call between enter() and the bindArg*
  /// sequence; only scratch state is clobbered.
  void profileEntry(const void *Counter) {
    Asm.armReloc(support::RelocKind::Profile);
    Asm.movRI64(detail::ScratchA, reinterpret_cast<std::uint64_t>(Counter));
    Asm.lockIncM64(detail::ScratchA, 0);
  }

  /// Moves integer argument \p Index (0-based, SysV) into \p Dst.
  void bindArgI(unsigned Index, Reg Dst) {
    if constexpr (UsesOpStencils) {
      if (Dst >= 0 && Index < 6) {
        noteUsed(Dst);
        Asm.opBindArgI(Index, Dst);
        return;
      }
    }
    x86::GPR Pd = dstI(Dst, detail::ScratchA);
    if (Index < 6)
      Asm.movRR64(Pd, x86::IntArgRegs[Index]);
    else
      Asm.loadRM64(Pd, x86::RBP, 16 + 8 * static_cast<std::int32_t>(Index - 6));
    writeBackI(Dst, Pd);
  }

  /// Moves double argument \p Index (0-based among FP args) into \p Dst.
  void bindArgD(unsigned Index, FReg Dst) {
    assert(Index < 8 && "stack-passed double arguments not supported");
    if constexpr (UsesOpStencils) {
      if (Dst >= 0) {
        Asm.opBindArgD(Index, Dst);
        return;
      }
    }
    x86::XMM Pd = dstD(Dst, detail::FScratchA);
    Asm.movsdRR(Pd, x86::FloatArgRegs[Index]);
    writeBackD(Dst, Pd);
  }

  /// Returns with no value. Every return jumps to the function's one
  /// shared epilogue, which finish() emits; from unreachable code (after a
  /// jump or another return, before the next label) nothing is emitted.
  void retVoid() {
    if (!Reachable)
      return;
    retJump(Asm.jmp());
  }

  void retI(Reg R) {
    if (!Reachable)
      return;
    if constexpr (UsesOpStencils) {
      if (R >= 0) {
        noteUsed(R);
        retJump(Asm.opRetJmpI(R));
        return;
      }
    }
    x86::GPR P = srcI(R, detail::ScratchA);
    Asm.movRR32(x86::RAX, P);
    retJump(Asm.jmp());
  }

  /// Returns the int constant \p Imm (a run-time constant the walker
  /// folded): it goes straight into eax.
  void retII(std::int32_t Imm) {
    if (!Reachable)
      return;
    if constexpr (UsesOpStencils) {
      retJump(Asm.opRetJmpII(Imm));
      return;
    }
    Asm.movRI32(x86::RAX, static_cast<std::uint32_t>(Imm));
    retJump(Asm.jmp());
  }

  void retL(Reg R) {
    if (!Reachable)
      return;
    if constexpr (UsesOpStencils) {
      if (R >= 0) {
        noteUsed(R);
        retJump(Asm.opRetJmpL(R));
        return;
      }
    }
    x86::GPR P = srcI(R, detail::ScratchA);
    if (P != x86::RAX)
      Asm.movRR64(x86::RAX, P);
    retJump(Asm.jmp());
  }

  void retD(FReg R) {
    if (!Reachable)
      return;
    x86::XMM P = srcD(R, detail::FScratchA);
    if (P != x86::XMM0)
      Asm.movsdRR(x86::XMM0, P);
    retJump(Asm.jmp());
  }

  /// False after an unconditional jump or a return, until the next label
  /// is bound: code emitted there can never run.
  bool reachable() const { return Reachable; }

  /// Emits the shared epilogue, patches the frame size and returns the
  /// entry point. No operations may be emitted afterwards.
  void *finish() {
    assert(!Finished && "finish called twice");
    if (Epilogue.valid()) {
      // A return that ends the code would jump to the very next byte.
      if (EpilogueJmpEnd == Asm.pc()) {
        Asm.unemitJmp();
        Labels[Epilogue.Id].Fixups.pop_back();
      }
      bindLabel(Epilogue);
    }
#ifndef NDEBUG
    for (const LabelInfo &L : Labels)
      assert(L.Bound && "unbound label at finish");
#endif
    const std::uint32_t Saved = UsedPoolMask & ((1u << NumIntPool) - 1);
    if constexpr (UsesOpStencils)
      Asm.opEpilogue(Saved);
    else
      emitEpilogue(Asm, Saved);
    std::uint32_t Frame =
        CalleeSaveBytes + 8 * static_cast<std::uint32_t>(NumSlots);
    Frame = (Frame + 15) & ~15u; // Keep calls 16-byte aligned.
    Asm.patch32(FramePatchOffset, Frame);
    // Erase the prologue's stores for pool registers never handed out.
    for (int I = 0; I < NumIntPool; ++I)
      if (!(Saved & (1u << I)))
        Asm.nopFill(SaveSitePc[I], 4);
    Finished = true;
    return Asm.bufferBase();
  }

  /// The shared epilogue: reloads the callee-saved pool registers in
  /// \p Saved (a bit per pool index) from their prologue slots, unwinds
  /// the frame and returns. The stencil library renders its Epi[mask]
  /// templates from this very sequence.
  static void emitEpilogue(AsmT &A, std::uint32_t Saved) {
    for (int I = 0; I < NumIntPool; ++I)
      if (Saved & (1u << I))
        A.loadRM64(detail::IntPoolPhys[I], x86::RBP, -8 * (I + 1));
    A.movRR64(x86::RSP, x86::RBP);
    A.pop(x86::RBP);
    A.ret();
  }

  // --- Moves and constants -------------------------------------------------
  void setI(Reg D, std::int32_t Imm) {
    if constexpr (UsesOpStencils) {
      if (D >= 0) {
        noteUsed(D);
        Asm.opSetI(D, Imm);
        return;
      }
    }
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Imm == 0)
      Asm.xorRR32(Pd, Pd);
    else
      Asm.movRI32(Pd, static_cast<std::uint32_t>(Imm));
    writeBackI(D, Pd);
  }

  void setL(Reg D, std::int64_t Imm) {
    if constexpr (UsesOpStencils) {
      if (D >= 0) {
        noteUsed(D);
        Asm.opSetL(D, Imm);
        return;
      }
    }
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Imm == 0)
      Asm.xorRR32(Pd, Pd);
    else if (Imm >= INT32_MIN && Imm <= INT32_MAX)
      Asm.movRI64SExt32(Pd, static_cast<std::int32_t>(Imm));
    else
      Asm.movRI64(Pd, static_cast<std::uint64_t>(Imm));
    writeBackI(D, Pd);
  }

  void setP(Reg D, const void *Ptr) {
    // Captured addresses that fold to xor/imm32 leave the pending arming
    // set; the trailing disarm then marks the compile unportable rather
    // than letting an unpatchable encoding reach a snapshot.
    Asm.armReloc(support::RelocKind::Ptr);
    setL(D, reinterpret_cast<std::intptr_t>(Ptr));
    Asm.disarmReloc();
  }

  void setD(FReg D, double Imm) {
    std::uint64_t Bits;
    std::memcpy(&Bits, &Imm, 8);
    if constexpr (UsesOpStencils) {
      if (D >= 0) {
        Asm.opSetD(D, Bits);
        return;
      }
    }
    x86::XMM Pd = dstD(D, detail::FScratchA);
    if (Bits == 0) {
      Asm.xorpd(Pd, Pd);
    } else {
      Asm.movRI64(detail::ScratchA, Bits);
      Asm.movqXR(Pd, detail::ScratchA);
    }
    writeBackD(D, Pd);
  }

  void movI(Reg D, Reg S) { movL(D, S); }

  void movL(Reg D, Reg S) {
    if (D == S)
      return;
    if constexpr (UsesOpStencils) {
      if ((D | S) >= 0) {
        noteUsed2(D, S);
        Asm.opMovL(D, S);
        return;
      }
    }
    x86::GPR Ps = srcI(S, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Ps)
      Asm.movRR64(Pd, Ps);
    writeBackI(D, Pd);
  }

  void movD(FReg D, FReg S) {
    if (D == S)
      return;
    if constexpr (UsesOpStencils) {
      if ((D | S) >= 0) {
        Asm.opMovD(D, S);
        return;
      }
    }
    x86::XMM Ps = srcD(S, detail::FScratchA);
    x86::XMM Pd = dstD(D, detail::FScratchA);
    if (Pd != Ps)
      Asm.movsdRR(Pd, Ps);
    writeBackD(D, Pd);
  }

  // --- Integer arithmetic (32-bit) -----------------------------------------
  void addI(Reg D, Reg A, Reg B) {
    if constexpr (UsesOpStencils) {
      if ((D | A | B) >= 0) {
        noteUsed3(D, A, B);
        Asm.opAddI(D, A, B);
        return;
      }
    }
    binI(D, A, B, &AsmT::addRR32, true);
  }
  void subI(Reg D, Reg A, Reg B) {
    if constexpr (UsesOpStencils) {
      if ((D | A | B) >= 0) {
        noteUsed3(D, A, B);
        Asm.opSubI(D, A, B);
        return;
      }
    }
    binI(D, A, B, &AsmT::subRR32, false);
  }
  void mulI(Reg D, Reg A, Reg B) {
    if constexpr (UsesOpStencils) {
      if ((D | A | B) >= 0) {
        noteUsed3(D, A, B);
        Asm.opMulI(D, A, B);
        return;
      }
    }
    binI(D, A, B, &AsmT::imulRR32, true);
  }
  void andI(Reg D, Reg A, Reg B) {
    if constexpr (UsesOpStencils) {
      if ((D | A | B) >= 0) {
        noteUsed3(D, A, B);
        Asm.opAndI(D, A, B);
        return;
      }
    }
    binI(D, A, B, &AsmT::andRR32, true);
  }
  void orI(Reg D, Reg A, Reg B) {
    if constexpr (UsesOpStencils) {
      if ((D | A | B) >= 0) {
        noteUsed3(D, A, B);
        Asm.opOrI(D, A, B);
        return;
      }
    }
    binI(D, A, B, &AsmT::orRR32, true);
  }
  void xorI(Reg D, Reg A, Reg B) {
    if constexpr (UsesOpStencils) {
      if ((D | A | B) >= 0) {
        noteUsed3(D, A, B);
        Asm.opXorI(D, A, B);
        return;
      }
    }
    binI(D, A, B, &AsmT::xorRR32, true);
  }
  void addL(Reg D, Reg A, Reg B) {
    if constexpr (UsesOpStencils) {
      if ((D | A | B) >= 0) {
        noteUsed3(D, A, B);
        Asm.opAddL(D, A, B);
        return;
      }
    }
    binI(D, A, B, &AsmT::addRR64, true);
  }
  void subL(Reg D, Reg A, Reg B) {
    if constexpr (UsesOpStencils) {
      if ((D | A | B) >= 0) {
        noteUsed3(D, A, B);
        Asm.opSubL(D, A, B);
        return;
      }
    }
    binI(D, A, B, &AsmT::subRR64, false);
  }
  void mulL(Reg D, Reg A, Reg B) {
    if constexpr (UsesOpStencils) {
      if ((D | A | B) >= 0) {
        noteUsed3(D, A, B);
        Asm.opMulL(D, A, B);
        return;
      }
    }
    binI(D, A, B, &AsmT::imulRR64, true);
  }

  void divI(Reg D, Reg A, Reg B) { divModCommon(D, A, B, false, false); }
  void modI(Reg D, Reg A, Reg B) { divModCommon(D, A, B, true, false); }
  void divUI(Reg D, Reg A, Reg B) { divModCommon(D, A, B, false, true); }
  void modUI(Reg D, Reg A, Reg B) { divModCommon(D, A, B, true, true); }

  void shlI(Reg D, Reg A, Reg B) { shiftI(D, A, B, &AsmT::shlCl32); }
  void shrI(Reg D, Reg A, Reg B) { shiftI(D, A, B, &AsmT::sarCl32); }
  void ushrI(Reg D, Reg A, Reg B) { shiftI(D, A, B, &AsmT::shrCl32); }

  void negI(Reg D, Reg A) {
    if constexpr (UsesOpStencils) {
      if ((D | A) >= 0) {
        noteUsed2(D, A);
        Asm.opNegI(D, A);
        return;
      }
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    Asm.negR32(Pd);
    writeBackI(D, Pd);
  }

  void notI(Reg D, Reg A) {
    if constexpr (UsesOpStencils) {
      if ((D | A) >= 0) {
        noteUsed2(D, A);
        Asm.opNotI(D, A);
        return;
      }
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    Asm.notR32(Pd);
    writeBackI(D, Pd);
  }

  // --- Integer op-with-immediate forms. mulII/divII/modII strength-reduce
  // run-time-constant operands (paper §4.4: "rather than emitting a fixed
  // sequence of instructions, it first checks the value of its immediate
  // operand"). --------------------------------------------------------------
  void addII(Reg D, Reg A, std::int32_t Imm) {
    if (Imm == 0) {
      movI(D, A);
      return;
    }
    if constexpr (UsesOpStencils) {
      if ((D | A) >= 0) {
        noteUsed2(D, A);
        Asm.opAddII(D, A, Imm);
        return;
      }
    }
    binII(D, A, Imm, &AsmT::addRI32, false);
  }
  void subII(Reg D, Reg A, std::int32_t Imm) {
    if (Imm == 0) {
      movI(D, A);
      return;
    }
    if constexpr (UsesOpStencils) {
      if ((D | A) >= 0) {
        noteUsed2(D, A);
        Asm.opSubII(D, A, Imm);
        return;
      }
    }
    binII(D, A, Imm, &AsmT::subRI32, false);
  }
  void andII(Reg D, Reg A, std::int32_t Imm) {
    if constexpr (UsesOpStencils) {
      if ((D | A) >= 0) {
        noteUsed2(D, A);
        Asm.opAndII(D, A, Imm);
        return;
      }
    }
    binII(D, A, Imm, &AsmT::andRI32, false);
  }
  void orII(Reg D, Reg A, std::int32_t Imm) {
    if (Imm == 0) {
      movI(D, A);
      return;
    }
    if constexpr (UsesOpStencils) {
      if ((D | A) >= 0) {
        noteUsed2(D, A);
        Asm.opOrII(D, A, Imm);
        return;
      }
    }
    binII(D, A, Imm, &AsmT::orRI32, false);
  }
  void xorII(Reg D, Reg A, std::int32_t Imm) {
    if (Imm == 0) {
      movI(D, A);
      return;
    }
    if constexpr (UsesOpStencils) {
      if ((D | A) >= 0) {
        noteUsed2(D, A);
        Asm.opXorII(D, A, Imm);
        return;
      }
    }
    binII(D, A, Imm, &AsmT::xorRI32, false);
  }
  void addLI(Reg D, Reg A, std::int32_t Imm) {
    if (Imm == 0) {
      movL(D, A);
      return;
    }
    if constexpr (UsesOpStencils) {
      if ((D | A) >= 0) {
        noteUsed2(D, A);
        Asm.opAddLI(D, A, Imm);
        return;
      }
    }
    binII(D, A, Imm, &AsmT::addRI64, true);
  }

  void shlII(Reg D, Reg A, std::uint8_t Imm) {
    if (Imm == 0) {
      movI(D, A);
      return;
    }
    if constexpr (UsesOpStencils) {
      if ((D | A) >= 0) {
        noteUsed2(D, A);
        Asm.opShlII(D, A, Imm);
        return;
      }
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    Asm.shlRI32(Pd, Imm);
    writeBackI(D, Pd);
  }

  void shrII(Reg D, Reg A, std::uint8_t Imm) {
    if (Imm == 0) {
      movI(D, A);
      return;
    }
    if constexpr (UsesOpStencils) {
      if ((D | A) >= 0) {
        noteUsed2(D, A);
        Asm.opShrII(D, A, Imm);
        return;
      }
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    Asm.sarRI32(Pd, Imm);
    writeBackI(D, Pd);
  }

  void ushrII(Reg D, Reg A, std::uint8_t Imm) {
    if (Imm == 0) {
      movI(D, A);
      return;
    }
    if constexpr (UsesOpStencils) {
      if ((D | A) >= 0) {
        noteUsed2(D, A);
        Asm.opUshrII(D, A, Imm);
        return;
      }
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    Asm.shrRI32(Pd, Imm);
    writeBackI(D, Pd);
  }

  void shlLI(Reg D, Reg A, std::uint8_t Imm) {
    if (Imm == 0) {
      movL(D, A);
      return;
    }
    if constexpr (UsesOpStencils) {
      if ((D | A) >= 0) {
        noteUsed2(D, A);
        Asm.opShlLI(D, A, Imm);
        return;
      }
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    Asm.shlRI64(Pd, Imm);
    writeBackI(D, Pd);
  }

  void mulII(Reg D, Reg A, std::int32_t Imm) {
    // Strength reduction on the run-time-constant operand (paper §4.4).
    if (Imm == 0) {
      setI(D, 0);
      return;
    }
    if (Imm == 1) {
      movI(D, A);
      return;
    }
    if (Imm == -1) {
      negI(D, A);
      return;
    }
    bool Negate = Imm < 0;
    std::uint32_t M = Negate ? static_cast<std::uint32_t>(-std::int64_t(Imm))
                             : static_cast<std::uint32_t>(Imm);
    if (std::has_single_bit(M)) {
      std::uint8_t K = static_cast<std::uint8_t>(std::countr_zero(M));
      if constexpr (UsesOpStencils) {
        if ((D | A) >= 0) {
          noteUsed2(D, A);
          Asm.opMulIIPow2(D, A, K, Negate);
          return;
        }
      }
      x86::GPR Pa = srcI(A, detail::ScratchA);
      x86::GPR Pd = dstI(D, detail::ScratchA);
      if (Pd != Pa)
        Asm.movRR64(Pd, Pa);
      Asm.shlRI32(Pd, K);
      if (Negate)
        Asm.negR32(Pd);
      writeBackI(D, Pd);
      return;
    }
    if (std::popcount(M) == 2) {
      // a*(2^hi + 2^lo) = (a<<hi) + (a<<lo).
      int Hi = 31 - std::countl_zero(M);
      int Lo = std::countr_zero(M);
      if constexpr (UsesOpStencils) {
        if ((D | A) >= 0) {
          noteUsed2(D, A);
          Asm.opMulIITwoBit(D, A, static_cast<std::uint8_t>(Hi),
                            static_cast<std::uint8_t>(Lo), Negate);
          return;
        }
      }
      x86::GPR Pa = srcI(A, detail::ScratchA);
      Asm.movRR64(detail::ScratchB, Pa);
      Asm.shlRI32(detail::ScratchB, static_cast<std::uint8_t>(Hi));
      x86::GPR Pd = dstI(D, detail::ScratchA);
      if (Pd != Pa)
        Asm.movRR64(Pd, Pa);
      if (Lo != 0)
        Asm.shlRI32(Pd, static_cast<std::uint8_t>(Lo));
      Asm.addRR32(Pd, detail::ScratchB);
      if (Negate)
        Asm.negR32(Pd);
      writeBackI(D, Pd);
      return;
    }
    if constexpr (UsesOpStencils) {
      if ((D | A) >= 0) {
        noteUsed2(D, A);
        Asm.opMulIIGeneral(D, A, Imm);
        return;
      }
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.imulRRI32(Pd, Pa, Imm);
    writeBackI(D, Pd);
  }

  void mulLI(Reg D, Reg A, std::int32_t Imm) {
    if (Imm == 1) {
      movL(D, A);
      return;
    }
    if (Imm > 0 && std::has_single_bit(static_cast<std::uint32_t>(Imm))) {
      shlLI(D, A,
            static_cast<std::uint8_t>(
                std::countr_zero(static_cast<std::uint32_t>(Imm))));
      return;
    }
    if constexpr (UsesOpStencils) {
      if ((D | A) >= 0) {
        noteUsed2(D, A);
        Asm.opMulLIGeneral(D, A, Imm);
        return;
      }
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.imulRRI64(Pd, Pa, Imm);
    writeBackI(D, Pd);
  }

  void divII(Reg D, Reg A, std::int32_t Imm) {
    if (Imm == 1) {
      movI(D, A);
      return;
    }
    if (Imm > 1 && std::has_single_bit(static_cast<std::uint32_t>(Imm))) {
      // Signed division by 2^k with the rounding-toward-zero bias:
      //   d = (a + ((a >> 31) >>> (32-k))) >> k.
      int K = std::countr_zero(static_cast<std::uint32_t>(Imm));
      if constexpr (UsesOpStencils) {
        if ((D | A) >= 0) {
          noteUsed2(D, A);
          Asm.opDivIIPow2(D, A, static_cast<std::uint8_t>(K));
          return;
        }
      }
      x86::GPR Pa = srcI(A, detail::ScratchA);
      Asm.movRR64(detail::ScratchB, Pa);
      Asm.sarRI32(detail::ScratchB, 31);
      Asm.shrRI32(detail::ScratchB, static_cast<std::uint8_t>(32 - K));
      x86::GPR Pd = dstI(D, detail::ScratchA);
      if (Pd != Pa)
        Asm.movRR64(Pd, Pa);
      Asm.addRR32(Pd, detail::ScratchB);
      Asm.sarRI32(Pd, static_cast<std::uint8_t>(K));
      writeBackI(D, Pd);
      return;
    }
    // General divisors: Granlund/Montgomery magic-number multiplication —
    // the natural endpoint of the paper's "emit different machine
    // instructions depending on the value of the immediate operand".
    // 0 and -1 keep idiv, whose trap (x / 0, INT32_MIN / -1) is the
    // operation's meaning; INT32_MIN has no magic number.
    if (Imm != 0 && Imm != -1 && Imm != INT32_MIN) {
      auto [Magic, Shift] = signedDivisionMagic(Imm);
      x86::GPR Pa = srcI(A, detail::ScratchA);
      // rdx:rax = magic * a (signed 64-bit via imul on sign-extended values).
      Asm.movsxd(detail::ScratchB, Pa);
      Asm.imulRRI64(detail::ScratchB, detail::ScratchB, Magic);
      // q0 = high32(product) (+ a if magic < 0, - a if divisor < 0 handled
      // by the magic's construction); then arithmetic shift and sign fixup.
      Asm.sarRI64(detail::ScratchB, 32);
      if (Magic < 0 && Imm > 0)
        Asm.addRR32(detail::ScratchB, Pa);
      if (Magic > 0 && Imm < 0)
        Asm.subRR32(detail::ScratchB, Pa);
      if (Shift > 0)
        Asm.sarRI32(detail::ScratchB, static_cast<std::uint8_t>(Shift));
      // q += (q >> 31) & 1  — add the sign bit to round toward zero.
      Asm.movRR32(x86::RAX, detail::ScratchB);
      Asm.shrRI32(x86::RAX, 31);
      x86::GPR Pd = dstI(D, detail::ScratchA);
      if (Pd != detail::ScratchB)
        Asm.movRR64(Pd, detail::ScratchB);
      Asm.addRR32(Pd, x86::RAX);
      writeBackI(D, Pd);
      return;
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    Asm.movRR64(x86::RAX, Pa);
    Asm.movRI64SExt32(detail::ScratchB, Imm);
    Asm.cdq();
    Asm.idivR32(detail::ScratchB);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != x86::RAX)
      Asm.movRR64(Pd, x86::RAX);
    writeBackI(D, Pd);
  }

  void modII(Reg D, Reg A, std::int32_t Imm) {
    if (Imm > 1 && std::has_single_bit(static_cast<std::uint32_t>(Imm))) {
      // Signed remainder by 2^k: m = a - (((a + bias) >> k) << k) with the
      // same rounding bias as division.
      int K = std::countr_zero(static_cast<std::uint32_t>(Imm));
      if constexpr (UsesOpStencils) {
        if ((D | A) >= 0) {
          noteUsed2(D, A);
          Asm.opModIIPow2(D, A, static_cast<std::uint8_t>(K));
          return;
        }
      }
      x86::GPR Pa = srcI(A, detail::ScratchA);
      Asm.movRR64(detail::ScratchB, Pa);
      Asm.sarRI32(detail::ScratchB, 31);
      Asm.shrRI32(detail::ScratchB, static_cast<std::uint8_t>(32 - K));
      Asm.addRR32(detail::ScratchB, Pa);
      Asm.sarRI32(detail::ScratchB, static_cast<std::uint8_t>(K));
      Asm.shlRI32(detail::ScratchB, static_cast<std::uint8_t>(K));
      x86::GPR Pd = dstI(D, detail::ScratchA);
      if (Pd != Pa)
        Asm.movRR64(Pd, Pa);
      Asm.subRR32(Pd, detail::ScratchB);
      writeBackI(D, Pd);
      return;
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    Asm.movRR64(x86::RAX, Pa);
    Asm.movRI64SExt32(detail::ScratchB, Imm);
    Asm.cdq();
    Asm.idivR32(detail::ScratchB);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != x86::RDX)
      Asm.movRR64(Pd, x86::RDX);
    writeBackI(D, Pd);
  }

  /// D = sign-extension of the 32-bit value in S.
  void sextIToL(Reg D, Reg S) {
    if constexpr (UsesOpStencils) {
      if ((D | S) >= 0) {
        noteUsed2(D, S);
        Asm.opSextIToL(D, S);
        return;
      }
    }
    x86::GPR Ps = srcI(S, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.movsxd(Pd, Ps);
    writeBackI(D, Pd);
  }

  // --- Double arithmetic ---------------------------------------------------
  void addD(FReg D, FReg A, FReg B) {
    if constexpr (UsesOpStencils) {
      if ((D | A | B) >= 0) {
        Asm.opAddD(D, A, B);
        return;
      }
    }
    binD(D, A, B, &AsmT::addsd, true);
  }
  void subD(FReg D, FReg A, FReg B) {
    if constexpr (UsesOpStencils) {
      if ((D | A | B) >= 0) {
        Asm.opSubD(D, A, B);
        return;
      }
    }
    binD(D, A, B, &AsmT::subsd, false);
  }
  void mulD(FReg D, FReg A, FReg B) {
    if constexpr (UsesOpStencils) {
      if ((D | A | B) >= 0) {
        Asm.opMulD(D, A, B);
        return;
      }
    }
    binD(D, A, B, &AsmT::mulsd, true);
  }
  void divD(FReg D, FReg A, FReg B) {
    if constexpr (UsesOpStencils) {
      if ((D | A | B) >= 0) {
        Asm.opDivD(D, A, B);
        return;
      }
    }
    binD(D, A, B, &AsmT::divsd, false);
  }

  void negD(FReg D, FReg A) {
    x86::XMM Pa = srcD(A, detail::FScratchA);
    Asm.xorpd(detail::FScratchB, detail::FScratchB);
    Asm.subsd(detail::FScratchB, Pa);
    x86::XMM Pd = dstD(D, detail::FScratchA);
    if (Pd != detail::FScratchB)
      Asm.movsdRR(Pd, detail::FScratchB);
    writeBackD(D, Pd);
  }

  void cvtIToD(FReg D, Reg S) {
    if constexpr (UsesOpStencils) {
      if ((D | S) >= 0) {
        noteUsed(S);
        Asm.opCvtIToD(D, S);
        return;
      }
    }
    x86::GPR Ps = srcI(S, detail::ScratchA);
    x86::XMM Pd = dstD(D, detail::FScratchA);
    Asm.cvtsi2sd32(Pd, Ps);
    writeBackD(D, Pd);
  }

  void cvtLToD(FReg D, Reg S) {
    if constexpr (UsesOpStencils) {
      if ((D | S) >= 0) {
        noteUsed(S);
        Asm.opCvtLToD(D, S);
        return;
      }
    }
    x86::GPR Ps = srcI(S, detail::ScratchA);
    x86::XMM Pd = dstD(D, detail::FScratchA);
    Asm.cvtsi2sd64(Pd, Ps);
    writeBackD(D, Pd);
  }

  void cvtDToI(Reg D, FReg S) { ///< Truncating.
    if constexpr (UsesOpStencils) {
      if ((D | S) >= 0) {
        noteUsed(D);
        Asm.opCvtDToI(D, S);
        return;
      }
    }
    x86::XMM Ps = srcD(S, detail::FScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.cvttsd2si32(Pd, Ps);
    writeBackI(D, Pd);
  }

  // --- Comparison producing 0/1 --------------------------------------------
  void cmpSetI(CmpKind K, Reg D, Reg A, Reg B) {
    if constexpr (UsesOpStencils) {
      if ((D | A | B) >= 0) {
        noteUsed3(D, A, B);
        Asm.opCmpRR32(A, B);
        Asm.opSetZx(detail::condFor(K), D);
        return;
      }
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pb = srcI(B, detail::ScratchB);
    Asm.cmpRR32(Pa, Pb);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.setcc(detail::condFor(K), Pd);
    Asm.movzx8RR(Pd, Pd);
    writeBackI(D, Pd);
  }

  void cmpSetII(CmpKind K, Reg D, Reg A, std::int32_t Imm) {
    if constexpr (UsesOpStencils) {
      if ((D | A) >= 0) {
        noteUsed2(D, A);
        Asm.opCmpRI32(A, Imm);
        Asm.opSetZx(detail::condFor(K), D);
        return;
      }
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    Asm.cmpRI32(Pa, Imm);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.setcc(detail::condFor(K), Pd);
    Asm.movzx8RR(Pd, Pd);
    writeBackI(D, Pd);
  }

  void cmpSetL(CmpKind K, Reg D, Reg A, Reg B) {
    if constexpr (UsesOpStencils) {
      if ((D | A | B) >= 0) {
        noteUsed3(D, A, B);
        Asm.opCmpRR64(A, B);
        Asm.opSetZx(detail::condFor(K), D);
        return;
      }
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pb = srcI(B, detail::ScratchB);
    Asm.cmpRR64(Pa, Pb);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.setcc(detail::condFor(K), Pd);
    Asm.movzx8RR(Pd, Pd);
    writeBackI(D, Pd);
  }

  void cmpSetD(CmpKind K, Reg D, FReg A, FReg B) {
    if constexpr (UsesOpStencils) {
      if ((D | A | B) >= 0) {
        noteUsed(D);
        Asm.opUcomisd(A, B);
        Asm.opSetZx(detail::condForDouble(K), D);
        return;
      }
    }
    x86::XMM Pa = srcD(A, detail::FScratchA);
    x86::XMM Pb = srcD(B, detail::FScratchB);
    Asm.ucomisd(Pa, Pb);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.setcc(detail::condForDouble(K), Pd);
    Asm.movzx8RR(Pd, Pd);
    writeBackI(D, Pd);
  }

  // --- Memory --------------------------------------------------------------
  void ldI(Reg D, Reg Base, std::int32_t Off) {
    if constexpr (UsesOpStencils) {
      if ((D | Base) >= 0) {
        noteUsed2(D, Base);
        Asm.opLdI(D, Base, Off);
        return;
      }
    }
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.loadRM32(Pd, Pb, Off);
    writeBackI(D, Pd);
  }

  void ldL(Reg D, Reg Base, std::int32_t Off) {
    if constexpr (UsesOpStencils) {
      if ((D | Base) >= 0) {
        noteUsed2(D, Base);
        Asm.opLdL(D, Base, Off);
        return;
      }
    }
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.loadRM64(Pd, Pb, Off);
    writeBackI(D, Pd);
  }

  void ldI8s(Reg D, Reg Base, std::int32_t Off) {
    if constexpr (UsesOpStencils) {
      if ((D | Base) >= 0) {
        noteUsed2(D, Base);
        Asm.opLdI8s(D, Base, Off);
        return;
      }
    }
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.loadSExt8(Pd, Pb, Off);
    writeBackI(D, Pd);
  }

  void ldI8u(Reg D, Reg Base, std::int32_t Off) {
    if constexpr (UsesOpStencils) {
      if ((D | Base) >= 0) {
        noteUsed2(D, Base);
        Asm.opLdI8u(D, Base, Off);
        return;
      }
    }
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.loadZExt8(Pd, Pb, Off);
    writeBackI(D, Pd);
  }

  void ldI16s(Reg D, Reg Base, std::int32_t Off) {
    if constexpr (UsesOpStencils) {
      if ((D | Base) >= 0) {
        noteUsed2(D, Base);
        Asm.opLdI16s(D, Base, Off);
        return;
      }
    }
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.loadSExt16(Pd, Pb, Off);
    writeBackI(D, Pd);
  }

  void ldI16u(Reg D, Reg Base, std::int32_t Off) {
    if constexpr (UsesOpStencils) {
      if ((D | Base) >= 0) {
        noteUsed2(D, Base);
        Asm.opLdI16u(D, Base, Off);
        return;
      }
    }
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.loadZExt16(Pd, Pb, Off);
    writeBackI(D, Pd);
  }

  void ldD(FReg D, Reg Base, std::int32_t Off) {
    if constexpr (UsesOpStencils) {
      if ((D | Base) >= 0) {
        noteUsed(Base);
        Asm.opLdD(D, Base, Off);
        return;
      }
    }
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::XMM Pd = dstD(D, detail::FScratchA);
    Asm.movsdRM(Pd, Pb, Off);
    writeBackD(D, Pd);
  }

  void stI(Reg Base, std::int32_t Off, Reg S) {
    if constexpr (UsesOpStencils) {
      if ((Base | S) >= 0) {
        noteUsed2(Base, S);
        Asm.opStI(Base, Off, S);
        return;
      }
    }
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Ps = srcI(S, detail::ScratchB);
    Asm.storeMR32(Pb, Off, Ps);
  }

  void stL(Reg Base, std::int32_t Off, Reg S) {
    if constexpr (UsesOpStencils) {
      if ((Base | S) >= 0) {
        noteUsed2(Base, S);
        Asm.opStL(Base, Off, S);
        return;
      }
    }
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Ps = srcI(S, detail::ScratchB);
    Asm.storeMR64(Pb, Off, Ps);
  }

  void stI8(Reg Base, std::int32_t Off, Reg S) {
    if constexpr (UsesOpStencils) {
      if ((Base | S) >= 0) {
        noteUsed2(Base, S);
        Asm.opStI8(Base, Off, S);
        return;
      }
    }
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Ps = srcI(S, detail::ScratchB);
    Asm.storeMR8(Pb, Off, Ps);
  }

  void stI16(Reg Base, std::int32_t Off, Reg S) {
    if constexpr (UsesOpStencils) {
      if ((Base | S) >= 0) {
        noteUsed2(Base, S);
        Asm.opStI16(Base, Off, S);
        return;
      }
    }
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Ps = srcI(S, detail::ScratchB);
    Asm.storeMR16(Pb, Off, Ps);
  }

  void stD(Reg Base, std::int32_t Off, FReg S) {
    if constexpr (UsesOpStencils) {
      if ((Base | S) >= 0) {
        noteUsed(Base);
        Asm.opStD(Base, Off, S);
        return;
      }
    }
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::XMM Ps = srcD(S, detail::FScratchA);
    Asm.movsdMR(Pb, Off, Ps);
  }

  // --- Control flow --------------------------------------------------------
  Label newLabel() {
    LabelInfo LI;
    LI.Fixups = ArenaVector<std::size_t>(*Scratch);
    Labels.push_back(LI);
    return Label{static_cast<unsigned>(Labels.size() - 1)};
  }

  void bindLabel(Label L) {
    assert(L.valid() && L.Id < Labels.size() && "bad label");
    LabelInfo &Info = Labels[L.Id];
    assert(!Info.Bound && "label bound twice");
    Reachable = true;
    EpilogueJmpEnd = SIZE_MAX;
    Info.Bound = true;
    Info.Pc = Asm.pc();
    for (std::size_t Fixup : Info.Fixups)
      Asm.patchBranch(Fixup, Info.Pc);
    Info.Fixups.clear();
  }

  /// Unconditional jump; emits nothing from unreachable code.
  void jump(Label L) {
    if (!Reachable)
      return;
    branchAt(Asm.jmp(), L);
    Reachable = false;
  }

  void brCmpI(CmpKind K, Reg A, Reg B, Label L) {
    if constexpr (UsesOpStencils) {
      if ((A | B) >= 0) {
        noteUsed2(A, B);
        Asm.opCmpRR32(A, B);
        branchOn(detail::condFor(K), L);
        return;
      }
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pb = srcI(B, detail::ScratchB);
    Asm.cmpRR32(Pa, Pb);
    branchOn(detail::condFor(K), L);
  }

  void brCmpII(CmpKind K, Reg A, std::int32_t Imm, Label L) {
    if constexpr (UsesOpStencils) {
      if (A >= 0) {
        noteUsed(A);
        branchAt(Asm.opCmpRI32Jcc(A, Imm, detail::condFor(K)), L);
        return;
      }
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    Asm.cmpRI32(Pa, Imm);
    branchOn(detail::condFor(K), L);
  }

  void brCmpL(CmpKind K, Reg A, Reg B, Label L) {
    if constexpr (UsesOpStencils) {
      if ((A | B) >= 0) {
        noteUsed2(A, B);
        Asm.opCmpRR64(A, B);
        branchOn(detail::condFor(K), L);
        return;
      }
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pb = srcI(B, detail::ScratchB);
    Asm.cmpRR64(Pa, Pb);
    branchOn(detail::condFor(K), L);
  }

  void brCmpD(CmpKind K, FReg A, FReg B, Label L) {
    if constexpr (UsesOpStencils) {
      if ((A | B) >= 0) {
        Asm.opUcomisd(A, B);
        branchOn(detail::condForDouble(K), L);
        return;
      }
    }
    x86::XMM Pa = srcD(A, detail::FScratchA);
    x86::XMM Pb = srcD(B, detail::FScratchB);
    Asm.ucomisd(Pa, Pb);
    branchOn(detail::condForDouble(K), L);
  }

  void brTrueI(Reg A, Label L) {
    if constexpr (UsesOpStencils) {
      if (A >= 0) {
        noteUsed(A);
        Asm.opTestRR32(A);
        branchOn(x86::Cond::NE, L);
        return;
      }
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    Asm.testRR32(Pa, Pa);
    branchOn(x86::Cond::NE, L);
  }

  void brFalseI(Reg A, Label L) {
    if constexpr (UsesOpStencils) {
      if (A >= 0) {
        noteUsed(A);
        Asm.opTestRR32(A);
        branchOn(x86::Cond::E, L);
        return;
      }
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    Asm.testRR32(Pa, Pa);
    branchOn(x86::Cond::E, L);
  }

  // --- Calls ---------------------------------------------------------------
  // Argument slots are SysV positions; prepare all arguments, then emitCall.
  // Sources must be pool registers or spill slots (not static registers in
  // slots >= 4, which alias the argument registers).
  void prepareCallArgI(unsigned Slot, Reg Src) {
    assert(Slot < 6 && "stack-passed call arguments not supported");
    if (isSpill(Src)) {
      Asm.loadRM64(x86::IntArgRegs[Slot], x86::RBP,
                   slotOffset(spillSlot(Src)));
      return;
    }
    x86::GPR Ps = intPhys(Src);
    if (Ps != x86::IntArgRegs[Slot])
      Asm.movRR64(x86::IntArgRegs[Slot], Ps);
  }

  void prepareCallArgP(unsigned Slot, const void *Ptr) {
    assert(Slot < 6 && "stack-passed call arguments not supported");
    Asm.armReloc(support::RelocKind::Ptr);
    Asm.movRI64(x86::IntArgRegs[Slot], reinterpret_cast<std::uintptr_t>(Ptr));
  }

  void prepareCallArgII(unsigned Slot, std::int64_t Imm) {
    assert(Slot < 6 && "stack-passed call arguments not supported");
    Asm.movRI64(x86::IntArgRegs[Slot], static_cast<std::uint64_t>(Imm));
  }

  void prepareCallArgD(unsigned FpSlot, FReg Src) {
    assert(FpSlot < 8 && "stack-passed call arguments not supported");
    if (isSpill(Src)) {
      Asm.movsdRM(x86::FloatArgRegs[FpSlot], x86::RBP,
                  slotOffset(spillSlot(Src)));
      return;
    }
    x86::XMM Ps = fpPhys(Src);
    if (Ps != x86::FloatArgRegs[FpSlot])
      Asm.movsdRR(x86::FloatArgRegs[FpSlot], Ps);
  }

  /// Calls \p Fn. \p NumFpArgs is the number of vector-register arguments
  /// (needed in AL for variadic callees such as printf).
  void emitCall(const void *Fn, unsigned NumFpArgs = 0) {
    Asm.armReloc(support::RelocKind::Callee);
    Asm.movRI64(detail::ScratchA, reinterpret_cast<std::uintptr_t>(Fn));
    Asm.movRI32(x86::RAX, NumFpArgs); // AL = #vector args (variadic ABI).
    Asm.callR(detail::ScratchA);
  }

  /// Calls through a function pointer held in \p Src.
  void emitCallIndirect(Reg Src, unsigned NumFpArgs = 0) {
    x86::GPR Ps = srcI(Src, detail::ScratchA);
    if (Ps != detail::ScratchA)
      Asm.movRR64(detail::ScratchA, Ps);
    Asm.movRI32(x86::RAX, NumFpArgs);
    Asm.callR(detail::ScratchA);
  }

  void resultToI(Reg D) {
    if constexpr (UsesOpStencils) {
      if (D >= 0) {
        noteUsed(D);
        Asm.opResultToI(D);
        return;
      }
    }
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != x86::RAX)
      Asm.movRR64(Pd, x86::RAX);
    writeBackI(D, Pd);
  }

  void resultToL(Reg D) { resultToI(D); }

  void resultToD(FReg D) {
    if constexpr (UsesOpStencils) {
      if (D >= 0) {
        Asm.opResultToD(D);
        return;
      }
    }
    x86::XMM Pd = dstD(D, detail::FScratchA);
    if (Pd != x86::XMM0)
      Asm.movsdRR(Pd, x86::XMM0);
    writeBackD(D, Pd);
  }

  // --- Statistics ----------------------------------------------------------
  unsigned instructionsEmitted() const { return Asm.instructionsEmitted(); }
  std::size_t codeBytes() const { return Asm.pc(); }
  int slotsUsed() const { return NumSlots; }
  AsmT &assembler() { return Asm; }

  // --- Introspection (stencil-library renderer and tests) ------------------
  /// Offset of the frame-size imm32 that finish() patches.
  std::size_t framePatchOffset() const { return FramePatchOffset; }
  /// Callee-save store sites recorded by enter() (NumIntPool entries of 4
  /// bytes each; finish() nop-fills the ones for untouched pool registers).
  const std::size_t *saveSitePcs() const { return SaveSitePc; }

private:
  struct LabelInfo {
    bool Bound = false;
    std::size_t Pc = 0;
    ArenaVector<std::size_t> Fixups;
  };

  /// Physical register for a non-spill designator; also records pool
  /// registers as touched so finish() keeps their callee-save stores.
  x86::GPR intPhys(Reg R) {
    assert(R >= 0 && R < NumIntPool + NumStaticRegs &&
           "bad register designator");
    if (R < NumIntPool)
      UsedPoolMask |= 1u << R;
    return detail::IntPoolPhys[R];
  }

  x86::XMM fpPhys(FReg R) const {
    assert(R >= 0 && R < NumFloatPool && "bad register designator");
    return detail::FloatPoolPhys[R];
  }

  /// Stencil fast paths bypass intPhys; they record touched registers with
  /// these instead. Bits above NumIntPool (static registers) are harmless:
  /// finish() only consults pool bits.
  void noteUsed(Reg R) { UsedPoolMask |= 1u << R; }
  void noteUsed2(Reg A, Reg B) { UsedPoolMask |= (1u << A) | (1u << B); }
  void noteUsed3(Reg A, Reg B, Reg C) {
    UsedPoolMask |= (1u << A) | (1u << B) | (1u << C);
  }

  std::int32_t slotOffset(int Slot) const {
    assert(Slot >= 0 && "bad spill slot");
    return -(CalleeSaveBytes + 8 * (Slot + 1));
  }

  /// Physical register holding R's value: pool register, or a load into
  /// \p Scratch for spilled designators.
  x86::GPR srcI(Reg R, x86::GPR Scratch) {
    if (!isSpill(R))
      return intPhys(R);
    int Slot = spillSlot(R);
    if (Slot >= NumSlots)
      NumSlots = Slot + 1;
    Asm.loadRM64(Scratch, x86::RBP, slotOffset(Slot));
    return Scratch;
  }

  x86::XMM srcD(FReg R, x86::XMM Scratch) {
    if (!isSpill(R))
      return fpPhys(R);
    int Slot = spillSlot(R);
    if (Slot >= NumSlots)
      NumSlots = Slot + 1;
    Asm.movsdRM(Scratch, x86::RBP, slotOffset(Slot));
    return Scratch;
  }

  /// Physical destination for R (Scratch when spilled); pair with writeBack.
  x86::GPR dstI(Reg R, x86::GPR Scratch) {
    return isSpill(R) ? Scratch : intPhys(R);
  }

  x86::XMM dstD(FReg R, x86::XMM Scratch) const {
    return isSpill(R) ? Scratch : fpPhys(R);
  }

  void writeBackI(Reg R, x86::GPR Phys) {
    if (!isSpill(R))
      return;
    int Slot = spillSlot(R);
    if (Slot >= NumSlots)
      NumSlots = Slot + 1;
    Asm.storeMR64(x86::RBP, slotOffset(Slot), Phys);
  }

  void writeBackD(FReg R, x86::XMM Phys) {
    if (!isSpill(R))
      return;
    int Slot = spillSlot(R);
    if (Slot >= NumSlots)
      NumSlots = Slot + 1;
    Asm.movsdMR(x86::RBP, slotOffset(Slot), Phys);
  }

  // Member-pointer op arguments are typed on AsmT, not x86::Assembler: an
  // emitter may *shadow* encoder entry points (pcode::StencilAssembler does),
  // and `&AsmT::addRR32` must bind to the shadow. Base-class methods convert
  // implicitly, so AsmT == x86::Assembler still works unchanged.
  using BinOp = void (AsmT::*)(x86::GPR, x86::GPR);
  using FBinOp = void (AsmT::*)(x86::XMM, x86::XMM);

  void binI(Reg D, Reg A, Reg B, BinOp Op, bool Commutative) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pb = srcI(B, detail::ScratchB);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd == Pb && Pd != Pa) {
      if (Commutative) {
        (Asm.*Op)(Pd, Pa);
        writeBackI(D, Pd);
        return;
      }
      Asm.movRR64(detail::ScratchAux, Pb);
      Pb = detail::ScratchAux;
    }
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    (Asm.*Op)(Pd, Pb);
    writeBackI(D, Pd);
  }

  void binII(Reg D, Reg A, std::int32_t Imm,
             void (AsmT::*Op)(x86::GPR, std::int32_t), bool) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    (Asm.*Op)(Pd, Imm);
    writeBackI(D, Pd);
  }

  void shiftI(Reg D, Reg A, Reg B, void (AsmT::*Op)(x86::GPR)) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pb = srcI(B, detail::ScratchB);
    Asm.movRR64(x86::RCX, Pb);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    (Asm.*Op)(Pd);
    writeBackI(D, Pd);
  }

  void divModCommon(Reg D, Reg A, Reg B, bool WantRemainder, bool Unsigned) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pb = srcI(B, detail::ScratchB);
    Asm.movRR64(x86::RAX, Pa);
    if (Unsigned) {
      Asm.xorRR32(x86::RDX, x86::RDX);
      Asm.divR32(Pb);
    } else {
      Asm.cdq();
      Asm.idivR32(Pb);
    }
    x86::GPR Res = WantRemainder ? x86::RDX : x86::RAX;
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Res)
      Asm.movRR64(Pd, Res);
    writeBackI(D, Pd);
  }

  void binD(FReg D, FReg A, FReg B, FBinOp Op, bool Commutative) {
    x86::XMM Pa = srcD(A, detail::FScratchA);
    x86::XMM Pb = srcD(B, detail::FScratchB);
    x86::XMM Pd = dstD(D, detail::FScratchA);
    if (Pd == Pb && Pd != Pa) {
      if (Commutative) {
        (Asm.*Op)(Pd, Pa);
        writeBackD(D, Pd);
        return;
      }
      Asm.movsdRR(detail::FScratchAux, Pb);
      Pb = detail::FScratchAux;
    }
    if (Pd != Pa)
      Asm.movsdRR(Pd, Pa);
    (Asm.*Op)(Pd, Pb);
    writeBackD(D, Pd);
  }

  void branchOn(x86::Cond C, Label L) { branchAt(Asm.jcc(C), L); }

  /// Points the just-emitted branch whose rel32 sits at \p Disp at \p L,
  /// now or when L is bound.
  void branchAt(std::size_t Disp, Label L) {
    assert(L.valid() && L.Id < Labels.size() && "bad label");
    LabelInfo &Info = Labels[L.Id];
    if (Info.Bound)
      Asm.patchBranch(Disp, Info.Pc);
    else
      Info.Fixups.push_back(Disp);
  }

  /// Records a return's jump (\p Fixup: its rel32 offset) to the shared
  /// epilogue; the code after it is unreachable.
  void retJump(std::size_t Fixup) {
    if (!Epilogue.valid())
      Epilogue = newLabel();
    Labels[Epilogue.Id].Fixups.push_back(Fixup);
    Reachable = false;
    EpilogueJmpEnd = Asm.pc();
  }

  AsmT Asm;
  /// Private fallback when no scratch arena was injected (kept small: the
  /// one-pass backend's bookkeeping is a few hundred bytes).
  std::unique_ptr<Arena> OwnedScratch;
  Arena *Scratch;
  bool SpillingEnabled = true;
  std::uint32_t FreeIntMask;
  std::uint32_t FreeFloatMask;
  ArenaVector<int> FreeSpillSlots;
  int NumSlots = 0;
  ArenaVector<LabelInfo> Labels;
  std::size_t FramePatchOffset = 0;
  bool Finished = false;
  /// Pool registers actually handed to emitted code; finish() reloads only
  /// these in the epilogue and erases the other prologue stores.
  std::uint32_t UsedPoolMask = 0;
  std::size_t SaveSitePc[NumIntPool] = {};
  /// The shared epilogue every return jumps to (created by the first one).
  Label Epilogue;
  /// pc just past the latest return's jump while nothing followed it.
  std::size_t EpilogueJmpEnd = SIZE_MAX;
  bool Reachable = true;
};

} // namespace vcode
} // namespace tcc

#endif // TICKC_VCODE_VCODET_H
