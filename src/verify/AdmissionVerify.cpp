//===- verify/AdmissionVerify.cpp - Flow-sensitive code admission ---------===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// Layer 3, the one machine-code checker: proof-before-execute admission of
// finalized machine code, in the spirit of SFI/NaCl-style static
// validators. It strict-decodes the region once, recovers the control-flow
// graph and proves path-sensitive properties by worklist abstract
// interpretation:
//
//  * strict decode — every byte decodes canonically (x86/X86Decoder.h) and
//    instruction boundaries land exactly on the region end;
//  * prologue — the canonical `push rbp; mov rbp, rsp; sub rsp, imm32`
//    frame with a 16-aligned reserve covering the callee-save area;
//  * CFG recovery — every relative branch lands on an instruction boundary
//    inside the region, the region ends in a terminator (no fallthrough off
//    the end), and indirect jumps are never admitted. Unreachable ranges
//    are admitted but proven inert (no reachable transfer can enter them),
//    since the walkers legitimately emit dead code after a return or an
//    unconditional jump (the one-pass back end suppresses only dead jumps
//    and returns);
//  * stack discipline — an abstract stack depth (bytes below the entry rsp)
//    is computed per block; paths may only join at equal depth, every ret
//    is proven to unwind to exactly the entry depth with the frame pointer
//    restored, and every indirect call happens at an ABI-aligned depth;
//  * frame integrity — rsp/rbp are written only by the canonical frame
//    protocol, their values never escape into a general or xmm register,
//    into arithmetic, or into memory (any of which would open a
//    store-to-own-stack laundering channel), rsp-based memory operands are
//    never admitted, and rbp-relative accesses are checked as *byte
//    ranges* [Disp, Disp+width): every store must land entirely inside the
//    reserved frame (a qword store at [rbp-1] that would reach the saved
//    rbp is rejected, not just stores with non-negative displacements),
//    and loads may touch only the frame or the caller's stack-passed
//    arguments at [rbp+16) and up — the saved rbp and the return address
//    are unreachable for both reads and writes;
//  * callee-saved obligations — rbx/r12..r15 must be stored to their
//    canonical save slots before being written, every may-clobbered
//    register is proven restored from its slot on all paths to every ret,
//    and while a save slot is live (its register is must-saved on every
//    path) no other store — aligned, misaligned, or partial — may overlap
//    it, so the restored value is provably the entry value;
//  * call-target confinement — with a relocation side table in hand (every
//    snapshot load has one), each reloc must land exactly on a decoded
//    movabs payload, and an indirect call may only target a value that is
//    either computed at run time or materialized by a Callee/Ptr reloc slot
//    (an address the PersistKey's own walk declared). A stray embedded
//    imm64 used as a call target — the patched-but-hostile-record attack —
//    is rejected. Provenance is tracked through register moves, through
//    arithmetic (the result of an ALU op, shift, multiply, or widening
//    move is the join of its register inputs, and an immediate operand
//    joins as Plain, so `movabs; add r, 0` cannot bleach a stray target),
//    through the xmm file (movq/cvt round-trips preserve values), and
//    byte-accurately through rbp-relative frame cells of every access
//    width (two dword stores cannot assemble a stray target inside a
//    qword spill slot);
//  * profile hook — the planted `lock inc` targets exactly the registered
//    counter, and only when profiling was requested.
//
// Fresh compiles (under TICKC_VERIFY) add their backend's obligations on the
// same decode, CFG and frame-cell model; snapshot loads never pay for them:
//
//  * spill store-before-load (ICODE) — a must-init bit per tracked frame
//    cell, intersected at joins: a qword or SSE reload from a cell at or
//    below the first spill slot must be initialized on every path;
//  * EmitterUsage cross-check (ICODE) — every decoded instruction is
//    explainable by an ICODE opcode the link-time-pruning usage table
//    recorded, so the assembler and the pruning table cannot drift apart;
//  * stencil-class vocabulary (PCODE) — every decoded instruction class is
//    one the stencil library rendered or the encoder-fallback glue emits.
//
// The abstract state lattice is documented in DESIGN.md ("Machine-code
// admission"); rejection diagnostics carry a hex window plus a CFG +
// abstract-state dump.
//
//===----------------------------------------------------------------------===//

#include "verify/Verify.h"
#include "verify/VerifyInternal.h"

#include "observability/Metrics.h"
#include "observability/Names.h"
#include "support/Reloc.h"
#include "x86/X86Decoder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

namespace tcc {
namespace verify {

using x86::Decoded;
using x86::InstrClass;

namespace {

using icode::Op;

constexpr std::uint8_t RegRAX = 0, RegRBX = 3, RegRSP = 4, RegRBP = 5,
                       RegR10 = 10;

/// Byte offset of the first spill slot below the frame pointer: the 40-byte
/// callee-save area comes first, slots follow (VCode::slotOffset).
constexpr std::int32_t FirstSlotOff = -48;

/// Callee-saved pool registers and their canonical save slots below rbp
/// (vcode::detail::IntPoolPhys order: rbx, r12..r15 at [rbp-8(i+1)]).
constexpr std::uint8_t CalleeSavedRegs[5] = {RegRBX, 12, 13, 14, 15};

constexpr std::uint16_t calleeBit(std::uint8_t R) {
  return static_cast<std::uint16_t>(1u << R);
}

constexpr std::uint16_t CalleeSavedMask =
    calleeBit(RegRBX) | calleeBit(12) | calleeBit(13) | calleeBit(14) |
    calleeBit(15);

std::uint8_t calleeRegForSlot(std::int32_t Disp) {
  for (unsigned I = 0; I < 5; ++I)
    if (Disp == -8 * static_cast<std::int32_t>(I + 1))
      return CalleeSavedRegs[I];
  return 0xff;
}

bool isIntArgReg(std::uint8_t R) {
  // rdi, rsi, rdx, rcx, r8, r9
  return R == 7 || R == 6 || R == 2 || R == 1 || R == 8 || R == 9;
}

/// EmitterUsage cross-check: can an ICODE opcode the usage table recorded
/// account for \p D? Scaffold instructions (frame setup, register
/// shuffling, rbp-relative spill/save traffic, nop fill) are emitted for
/// bookkeeping regardless of the IR content and always pass.
bool emitterJustified(const Decoded &D, const icode::EmitterUsage &U) {
  auto any = [&U](std::initializer_list<Op> Ops) {
    for (Op O : Ops)
      if (U.isUsed(O))
        return true;
    return false;
  };
  switch (D.Cls) {
  case InstrClass::Push:
  case InstrClass::Pop:
  case InstrClass::Ret:
  case InstrClass::Nop:
  case InstrClass::MovRR:
  case InstrClass::SseMov:
    return true;
  case InstrClass::MovImm32: // `mov eax, nfp` before a vararg-ABI call
    return D.Rm == RegRAX ? any({Op::SetI, Op::Call, Op::CallIndirect})
                          : any({Op::SetI});
  case InstrClass::MovImm64:
    if (D.Rm == 10 || D.Rm == 11) // scratch: call targets, wide constants
      return true;
    return isIntArgReg(D.Rm) ? any({Op::CallArgP, Op::CallArgII})
                             : any({Op::SetL, Op::SetP});
  case InstrClass::MovImmSExt:
    return any({Op::SetL, Op::SetP, Op::DivII, Op::ModII});
  case InstrClass::Load:
    return D.Rm == RegRBP || any({D.RexW ? Op::LdL : Op::LdI});
  case InstrClass::LoadSExt8: return any({Op::LdI8s});
  case InstrClass::LoadZExt8: return any({Op::LdI8u});
  case InstrClass::LoadSExt16: return any({Op::LdI16s});
  case InstrClass::LoadZExt16: return any({Op::LdI16u});
  case InstrClass::Store8: return any({Op::StI8});
  case InstrClass::Store16: return any({Op::StI16});
  case InstrClass::Store32: return any({Op::StI});
  case InstrClass::Store64: return D.Rm == RegRBP || any({Op::StL});
  case InstrClass::LockInc: return any({Op::ProfileInc});
  case InstrClass::AluRR:
    switch (D.Op8) {
    case 0x03:
      return any({Op::AddI, Op::AddL, Op::MulII, Op::DivII, Op::ModII});
    case 0x2B:
      return any({Op::SubI, Op::SubL, Op::MulII, Op::DivII, Op::ModII});
    case 0x23: return any({Op::AndI});
    case 0x0B: return any({Op::OrI});
    case 0x33: // also `xor eax, eax` for nfp = 0 before a call
      return any({Op::XorI, Op::SetI, Op::SetL, Op::SetP, Op::DivUI,
                  Op::ModUI, Op::Call, Op::CallIndirect});
    default: // 0x3B cmp
      return any({Op::CmpSetI, Op::CmpSetL, Op::BrCmpI, Op::BrCmpL});
    }
  case InstrClass::TestRR: return any({Op::BrTrue, Op::BrFalse});
  case InstrClass::AluRI:
    switch (D.Reg & 7) {
    case 0: return any({Op::AddII, Op::AddLI});
    case 1: return any({Op::OrII});
    case 4: return any({Op::AndII});
    case 5: // `sub rsp, imm` is the patchable frame reserve
      return (D.RexW && D.Rm == RegRSP) || any({Op::SubII});
    case 6: return any({Op::XorII});
    default: return any({Op::CmpSetII, Op::BrCmpII}); // 7 cmp
    }
  case InstrClass::ImulRR: return any({Op::MulI, Op::MulL});
  case InstrClass::ImulRRI:
    return D.RexW ? any({Op::MulLI, Op::DivII, Op::ModII}) : any({Op::MulII});
  case InstrClass::UnaryGrp:
    switch (D.Reg & 7) {
    case 2: return any({Op::NotI});
    case 3: return any({Op::NegI, Op::MulII, Op::DivII, Op::ModII});
    case 6: return any({Op::DivUI, Op::ModUI});
    default: return any({Op::DivI, Op::ModI, Op::DivII, Op::ModII}); // idiv
    }
  case InstrClass::Cdq:
    return !D.RexW && any({Op::DivI, Op::ModI, Op::DivII, Op::ModII});
  case InstrClass::ShiftCl:
    switch (D.Reg & 7) {
    case 4: return any({Op::ShlI});
    case 5: return any({Op::UShrI});
    default: return any({Op::ShrI});
    }
  case InstrClass::ShiftImm:
    return any({Op::ShlII, Op::ShrII, Op::UShrII, Op::ShlLI, Op::MulII,
                Op::MulLI, Op::DivII, Op::ModII});
  case InstrClass::Movsxd: return any({Op::SextIToL, Op::DivII, Op::ModII});
  case InstrClass::Movzx8RR:
  case InstrClass::Setcc:
    return any({Op::CmpSetI, Op::CmpSetII, Op::CmpSetL, Op::CmpSetD});
  case InstrClass::Jcc:
    return any({Op::BrCmpI, Op::BrCmpII, Op::BrCmpL, Op::BrCmpD, Op::BrTrue,
                Op::BrFalse});
  case InstrClass::Jmp: // returns jump to the shared epilogue
    return any({Op::Jump, Op::RetI, Op::RetL, Op::RetD, Op::RetVoid});
  case InstrClass::CallInd: return any({Op::Call, Op::CallIndirect});
  case InstrClass::SseLoad: return D.Rm == RegRBP || any({Op::LdD});
  case InstrClass::SseStore: return D.Rm == RegRBP || any({Op::StD});
  case InstrClass::SseArith:
    switch (D.Op8) {
    case 0x58: return any({Op::AddD});
    case 0x5C: return any({Op::SubD, Op::NegD});
    case 0x59: return any({Op::MulD});
    case 0x5E: return any({Op::DivD});
    default: return false; // sqrtsd: never generated from ICODE
    }
  case InstrClass::SseUcomi: return any({Op::CmpSetD, Op::BrCmpD});
  case InstrClass::SseXorpd: return any({Op::SetD, Op::NegD});
  case InstrClass::SseCvtSI2SD:
    return any({D.RexW ? Op::CvtLToD : Op::CvtIToD});
  case InstrClass::SseCvtSD2SI: return !D.RexW && any({Op::CvtDToI});
  case InstrClass::MovqXR: return any({Op::SetD});
  // Assembler surface the back ends never reach: an occurrence is itself
  // the finding.
  case InstrClass::Ud2:
  case InstrClass::Lea:
  case InstrClass::Movsx8RR:
  case InstrClass::Movzx16RR:
  case InstrClass::Movsx16RR:
  case InstrClass::JmpInd:
  case InstrClass::MovqRX:
    return false;
  }
  return false;
}

/// Provenance of a 64-bit value, for the call-target confinement proof.
/// Ordered so that join = max:
///   Trusted  — materialized by a reloc-slot movabs (Callee/Ptr kind): an
///              address the PersistKey's own walk declared. Admissible as
///              an indirect-call target.
///   Computed — produced at run time (loads, arithmetic, call results).
///              Admissible: this is how emitCallIndirect feeds fn pointers.
///   Plain    — an embedded immediate outside the reloc table (or a profile
///              slot, or a popped/unknown stack cell). Using one as a call
///              target means the record transfers somewhere the key never
///              declared — rejected.
enum class Prov : std::uint8_t { Trusted = 0, Computed = 1, Plain = 2 };

Prov provJoin(Prov A, Prov B) { return A > B ? A : B; }

struct AbsState {
  bool Valid = false;          ///< Block has received an entry state.
  std::int64_t Depth = 0;      ///< Bytes below the entry rsp.
  std::int64_t RbpDepth = -1;  ///< Depth captured in rbp; -1 = not a frame.
  std::uint16_t Saved = 0;     ///< Must-saved callee regs (∩ at joins).
  std::uint16_t Restored = 0;  ///< Must-restored callee regs (∩ at joins).
  std::uint16_t Clobbered = 0; ///< May-clobbered callee regs (∪ at joins).
  Prov Reg[16] = {};           ///< Per-GPR value provenance.
  Prov Xmm[16] = {};           ///< Per-XMM value provenance (movq round
                               ///< trips and cvtsi2sd/cvttsd2si preserve
                               ///< 48-bit pointers exactly, so the xmm
                               ///< file is a laundering channel too).
  std::vector<Prov> Slot;      ///< Per tracked rbp frame-cell provenance.
  std::vector<std::uint64_t> Init; ///< Must-initialized frame cells (∩ at
                                   ///< joins); empty unless ICodeDiscipline.

  bool sameShape(const AbsState &O) const {
    return Depth == O.Depth && RbpDepth == O.RbpDepth;
  }
};

struct Admission {
  Admission(const AdmissionInputs &I, Result &Res) : In(I), R(Res) {}

  const AdmissionInputs &In;
  Result &R;
  std::vector<Decoded> Ins;
  std::vector<std::uint32_t> Starts;
  std::vector<std::size_t> StartToIdx;

  // Per decoded movabs: the reloc kind of the slot its payload sits on, or
  // 0xff when the immediate is outside the table.
  std::vector<std::uint8_t> ImmSlotKind;

  std::int64_t Reserve = 0; ///< Prologue frame reserve (sub rsp, imm).

  // Tracked rbp-relative frame cells (provenance flows through them,
  // byte-accurately: a cell records the widest access at its displacement,
  // and stores that only partially cover a cell weak-update it).
  struct Cell {
    std::int32_t Disp = 0;
    std::int32_t Width = 0; ///< Bytes, widest access seen at Disp.
  };
  std::vector<Cell> Cells;

  struct Blk {
    std::size_t Begin = 0, End = 0; // [Begin, End) instruction indices
    std::size_t Succ[2] = {0, 0};
    unsigned NumSucc = 0;
    bool Reachable = false;
    bool JoinReported = false;
  };
  std::vector<Blk> Blocks;
  std::vector<std::size_t> BlockOf;
  std::vector<AbsState> InState;

  std::string CfgDump; // Built lazily on first flow failure.

  void fail(std::size_t Off, const char *Cat, std::string Msg,
            bool WithCfg = false) {
    if (R.diags().size() > 16)
      return;
    std::string Dump = detail::hexWindow(In.Code, In.Size, Off);
    if (WithCfg) {
      if (CfgDump.empty())
        CfgDump = renderCfg();
      Dump += CfgDump;
    }
    R.fail(Layer::Admit, Cat,
           Msg + " (at offset 0x" + [&] {
             char B[16];
             std::snprintf(B, sizeof(B), "%zx", Off);
             return std::string(B);
           }() + ")",
           std::move(Dump));
  }

  //===--------------------------------------------------------------------===
  // Phase 1: strict decode.
  //===--------------------------------------------------------------------===

  bool decodeAll() {
    StartToIdx.assign(In.Size, SIZE_MAX);
    if (In.Size == 0) {
      fail(0, "boundary", "empty code region");
      return false;
    }
    std::size_t Off = 0;
    while (Off < In.Size) {
      Decoded D;
      const char *Err = nullptr;
      if (!x86::decodeOne(In.Code, In.Size, Off, D, &Err)) {
        bool Truncated = Err && std::strstr(Err, "truncated");
        fail(Off, Truncated ? "boundary" : "decode",
             std::string(Err ? Err : "undecodable bytes"));
        return false;
      }
      StartToIdx[Off] = Ins.size();
      Starts.push_back(static_cast<std::uint32_t>(Off));
      Ins.push_back(D);
      checkVocabulary(D, Off);
      Off += D.Len;
    }
    return true;
  }

  /// The fresh-compile per-instruction predicates: PCODE output must stay
  /// inside the stencil-class mask, ICODE output inside what EmitterUsage
  /// recorded.
  void checkVocabulary(const Decoded &D, std::size_t Off) {
    if (In.StencilClassMask &&
        !(In.StencilClassMask &
          (std::uint64_t(1) << static_cast<unsigned>(D.Cls))))
      fail(Off, "stencil-class",
           std::string("decoded `") + x86::instrClassName(D.Cls) +
               "` is outside the stencil library's rendered vocabulary "
               "and the encoder-fallback glue set (patch corrupted an "
               "opcode byte, or the library drifted from the emitter)");
    if (In.ICodeDiscipline &&
        !emitterJustified(D, icode::ICode::emitterUsage()))
      fail(Off, "emitter-usage",
           std::string("decoded `") + x86::instrClassName(D.Cls) +
               "` has no recorded ICODE opcode that could have emitted it "
               "(assembler/pruning-table drift)");
  }

  //===--------------------------------------------------------------------===
  // Phase 2: prologue shape + reloc-shape.
  //===--------------------------------------------------------------------===

  bool checkPrologue() {
    if (Ins.size() < 4) {
      fail(0, "prologue", "region too short for a frame setup");
      return false;
    }
    bool Ok = true;
    if (Ins[0].Cls != InstrClass::Push || Ins[0].Rm != RegRBP) {
      fail(Starts[0], "prologue", "function does not start with `push rbp`");
      Ok = false;
    }
    const Decoded &M = Ins[1];
    if (M.Cls != InstrClass::MovRR || !M.RexW || M.Reg != RegRBP ||
        M.Rm != RegRSP) {
      fail(Starts[1], "prologue", "missing `mov rbp, rsp`");
      Ok = false;
    }
    const Decoded &S = Ins[2];
    if (S.Cls != InstrClass::AluRI || !S.RexW || (S.Reg & 7) != 5 ||
        S.Rm != RegRSP || S.IsMem) {
      fail(Starts[2], "prologue", "missing frame reserve `sub rsp, imm`");
      Ok = false;
    } else if (S.Imm < 40 || (S.Imm & 15) != 0) {
      fail(Starts[2], "prologue",
           "frame reserve " + std::to_string(S.Imm) +
               " is not a 16-aligned size covering the callee-save area");
      Ok = false;
    } else {
      Reserve = S.Imm;
    }
    return Ok;
  }

  /// Every reloc offset must land exactly on the imm64 payload of a decoded
  /// movabs. This closes the hole where a hostile record's reloc *offset*
  /// (patching happens before admission) rewrites opcode bytes or splices a
  /// target into a displacement.
  bool checkRelocShape() {
    if (!In.HaveRelocs)
      return true;
    // Map imm64 payload offset -> movabs instruction index.
    std::vector<std::size_t> PayloadIdx(In.Size, SIZE_MAX);
    ImmSlotKind.assign(Ins.size(), 0xff);
    for (std::size_t I = 0; I < Ins.size(); ++I)
      if (Ins[I].Cls == InstrClass::MovImm64)
        PayloadIdx[Starts[I] + Ins[I].Len - 8] = I;
    bool Ok = true;
    for (std::size_t I = 0; I < In.NumRelocs; ++I) {
      std::uint32_t Off = In.Relocs[I].Offset;
      if (Off >= In.Size || PayloadIdx[Off] == SIZE_MAX) {
        fail(Off < In.Size ? Off : 0, "reloc-shape",
             "relocation slot does not land on a movabs imm64 payload");
        Ok = false;
        continue;
      }
      ImmSlotKind[PayloadIdx[Off]] = In.Relocs[I].Kind;
    }
    return Ok;
  }

  //===--------------------------------------------------------------------===
  // Phase 3: CFG recovery.
  //===--------------------------------------------------------------------===

  bool isTerm(const Decoded &D) const {
    return D.Cls == InstrClass::Jmp || D.Cls == InstrClass::Jcc ||
           D.Cls == InstrClass::Ret;
  }

  bool buildCfg() {
    std::size_t NI = Ins.size();
    bool Ok = true;

    // Branch-target validation.
    for (std::size_t I = 0; I < NI; ++I) {
      const Decoded &D = Ins[I];
      if (D.Cls == InstrClass::JmpInd) {
        fail(Starts[I], "branch-target",
             "indirect jump is never admitted (computed control transfer "
             "cannot be proven confined)");
        Ok = false;
      }
      if (D.Cls != InstrClass::Jcc && D.Cls != InstrClass::Jmp)
        continue;
      std::int64_t T = static_cast<std::int64_t>(Starts[I]) + D.Len + D.Rel32;
      if (T < 0 || T >= static_cast<std::int64_t>(In.Size)) {
        fail(Starts[I], "branch-target",
             "relative branch leaves the region (target " + std::to_string(T) +
                 ")");
        Ok = false;
      } else if (StartToIdx[static_cast<std::size_t>(T)] == SIZE_MAX) {
        fail(Starts[I], "branch-target",
             "branch target 0x" + [&] {
               char B[16];
               std::snprintf(B, sizeof(B), "%llx",
                             static_cast<unsigned long long>(T));
               return std::string(B);
             }() + " is not an instruction boundary");
        Ok = false;
      }
    }
    if (!isTerm(Ins[NI - 1]) || Ins[NI - 1].Cls == InstrClass::Jcc) {
      fail(Starts[NI - 1], "cfg-fallthrough",
           "region does not end in `ret` or `jmp` — execution would fall "
           "off the end");
      Ok = false;
    }
    if (!Ok)
      return false;

    // Leaders: entry, branch targets, instruction after any terminator.
    std::vector<std::uint8_t> Leader(NI, 0);
    Leader[0] = 1;
    for (std::size_t I = 0; I < NI; ++I) {
      const Decoded &D = Ins[I];
      if (D.Cls == InstrClass::Jcc || D.Cls == InstrClass::Jmp) {
        std::int64_t T = static_cast<std::int64_t>(Starts[I]) + D.Len + D.Rel32;
        Leader[StartToIdx[static_cast<std::size_t>(T)]] = 1;
      }
      if (isTerm(D) && I + 1 < NI)
        Leader[I + 1] = 1;
    }

    BlockOf.assign(NI, 0);
    for (std::size_t I = 0; I < NI;) {
      std::size_t J = I + 1;
      while (J < NI && !Leader[J])
        ++J;
      for (std::size_t K = I; K < J; ++K)
        BlockOf[K] = Blocks.size();
      Blocks.push_back(Blk{I, J, {0, 0}, 0, false, false});
      I = J;
    }
    for (Blk &B : Blocks) {
      const Decoded &Last = Ins[B.End - 1];
      bool Fall = Last.Cls != InstrClass::Jmp && Last.Cls != InstrClass::Ret;
      if (Fall && B.End < NI)
        B.Succ[B.NumSucc++] = BlockOf[B.End];
      if (Last.Cls == InstrClass::Jcc || Last.Cls == InstrClass::Jmp) {
        std::int64_t T = static_cast<std::int64_t>(Starts[B.End - 1]) +
                         Last.Len + Last.Rel32;
        std::size_t TB = BlockOf[StartToIdx[static_cast<std::size_t>(T)]];
        if (B.NumSucc == 0 || B.Succ[0] != TB)
          B.Succ[B.NumSucc++] = TB;
      }
    }

    // Reachability from the entry. Unreachable ranges are *admitted but
    // proven inert*: the walkers legitimately emit dead code (a jump over
    // an else-arm after a `return`-terminated then-arm, dead epilogue
    // tails), so rejecting it would reject the compilers' own output.
    // Inertness holds because every control transfer in reachable code has
    // just been proven to land on an instruction boundary — a target makes
    // its block reachable by definition, so a range that ends up dead can
    // never gain control. Dead bytes still had to decode canonically and
    // contain no indirect jump (both checked above over the whole region),
    // which bounds what can even be parked there; the abstract
    // interpretation below runs over reachable blocks only.
    std::vector<std::size_t> Work{0};
    Blocks[0].Reachable = true;
    while (!Work.empty()) {
      std::size_t BI = Work.back();
      Work.pop_back();
      for (unsigned S = 0; S < Blocks[BI].NumSucc; ++S)
        if (!Blocks[Blocks[BI].Succ[S]].Reachable) {
          Blocks[Blocks[BI].Succ[S]].Reachable = true;
          Work.push_back(Blocks[BI].Succ[S]);
        }
    }
    return Ok;
  }

  //===--------------------------------------------------------------------===
  // Phase 4: worklist abstract interpretation.
  //===--------------------------------------------------------------------===

  /// Bytes the memory operand of \p D touches; 0 for classes that carry a
  /// memory *form* without a data access of interest (lea) or none at all.
  static std::int32_t memWidth(const Decoded &D) {
    switch (D.Cls) {
    case InstrClass::Store8:
    case InstrClass::LoadSExt8:
    case InstrClass::LoadZExt8:
      return 1;
    case InstrClass::Store16:
    case InstrClass::LoadSExt16:
    case InstrClass::LoadZExt16:
      return 2;
    case InstrClass::Store32:
      return 4;
    case InstrClass::Load:
      return D.RexW ? 8 : 4;
    case InstrClass::Store64:
    case InstrClass::SseLoad:
    case InstrClass::SseStore:
    case InstrClass::LockInc:
      return 8;
    default:
      return 0;
    }
  }

  static bool isStoreCls(InstrClass C) {
    return C == InstrClass::Store8 || C == InstrClass::Store16 ||
           C == InstrClass::Store32 || C == InstrClass::Store64 ||
           C == InstrClass::SseStore || C == InstrClass::LockInc;
  }

  static bool isLoadCls(InstrClass C) {
    return C == InstrClass::Load || C == InstrClass::LoadSExt8 ||
           C == InstrClass::LoadZExt8 || C == InstrClass::LoadSExt16 ||
           C == InstrClass::LoadZExt16 || C == InstrClass::SseLoad;
  }

  void collectCells() {
    for (const Decoded &D : Ins) {
      if (!D.IsMem || D.Rm != RegRBP || D.Disp >= 0)
        continue;
      std::int32_t W = memWidth(D);
      if (W == 0)
        continue;
      auto It = std::find_if(Cells.begin(), Cells.end(),
                             [&](const Cell &C) { return C.Disp == D.Disp; });
      if (It == Cells.end())
        Cells.push_back({D.Disp, W});
      else
        It->Width = std::max(It->Width, W);
    }
  }

  /// Weak/strong update of every tracked cell the store range overlaps.
  void storeToFrame(AbsState &S, std::int32_t Disp, std::int32_t W,
                    Prov P) const {
    for (std::size_t CI = 0; CI < Cells.size(); ++CI) {
      const Cell &C = Cells[CI];
      if (Disp >= C.Disp + C.Width || Disp + W <= C.Disp)
        continue;
      bool Covers = Disp <= C.Disp && Disp + W >= C.Disp + C.Width;
      S.Slot[CI] = Covers ? P : provJoin(S.Slot[CI], P);
      if (Covers && !S.Init.empty())
        detail::bitSet(S.Init.data(), static_cast<std::uint32_t>(CI));
    }
  }

  /// ICODE spill discipline: is \p D a qword or SSE reload from a spill
  /// slot whose cell is not initialized on every path into \p S?
  bool uninitReload(const AbsState &S, const Decoded &D) const {
    if (S.Init.empty() || !D.IsMem || D.Rm != RegRBP ||
        D.Disp > FirstSlotOff ||
        !((D.Cls == InstrClass::Load && D.RexW) ||
          D.Cls == InstrClass::SseLoad))
      return false;
    for (std::size_t CI = 0; CI < Cells.size(); ++CI)
      if (Cells[CI].Disp == D.Disp)
        return !detail::bitTest(S.Init.data(), static_cast<std::uint32_t>(CI));
    return true;
  }

  /// Provenance of a load range: the join of every overlapped cell over a
  /// Computed base (unwritten frame memory holds run-time values).
  Prov loadFromFrame(const AbsState &S, std::int32_t Disp,
                     std::int32_t W) const {
    Prov P = Prov::Computed;
    for (std::size_t CI = 0; CI < Cells.size(); ++CI) {
      const Cell &C = Cells[CI];
      if (Disp < C.Disp + C.Width && Disp + W > C.Disp)
        P = provJoin(P, S.Slot[CI]);
    }
    return P;
  }

  /// Provenance of the movabs at instruction \p I.
  Prov immProv(std::size_t I) const {
    if (!In.HaveRelocs)
      return Prov::Trusted; // Fresh compile, no table: the emitter's own.
    std::uint8_t Kind = ImmSlotKind[I];
    if (Kind == static_cast<std::uint8_t>(support::RelocKind::Callee) ||
        Kind == static_cast<std::uint8_t>(support::RelocKind::Ptr))
      return Prov::Trusted;
    // Outside the table, or a profile slot (whose target is a counter, not
    // code): never admissible as a call target.
    return Prov::Plain;
  }

  /// One instruction's transfer on \p S. When \p Report is set, violations
  /// become diagnostics; the fixpoint iterations run with it clear. Returns
  /// false when the state is too broken to keep interpreting the block.
  bool step(AbsState &S, std::size_t I, bool Report) {
    const Decoded &D = Ins[I];
    auto Bad = [&](const char *Cat, std::string Msg) {
      if (Report)
        fail(Starts[I], Cat, std::move(Msg), /*WithCfg=*/true);
      return false;
    };

    // A write to a callee-saved register other than its canonical restore.
    auto clobberCheck = [&](std::uint8_t Reg) {
      std::uint16_t Bit = calleeBit(Reg);
      if (!(Bit & CalleeSavedMask))
        return true;
      if (!(S.Saved & Bit))
        return Bad("callee-saved",
                   std::string("callee-saved ") + "register r" +
                       std::to_string(Reg) +
                       " written before being saved to its slot");
      S.Clobbered = static_cast<std::uint16_t>(S.Clobbered | Bit);
      S.Restored = static_cast<std::uint16_t>(S.Restored & ~Bit);
      return true;
    };

    auto isFrameReg = [](std::uint8_t Rg) {
      return Rg == RegRSP || Rg == RegRBP;
    };
    auto dispStr = [](std::int32_t Disp) {
      std::string S = std::to_string(Disp);
      if (Disp >= 0)
        S.insert(S.begin(), '+');
      return S;
    };
    // An immediate operand's contribution to a result's provenance: under
    // a reloc table an embedded constant is Plain, and arithmetic joins it
    // in, so `add r, imm` / `shl r, imm` chains can never bleach a stray
    // value into an admissible call target — nor assemble one from imm32
    // pieces.
    const Prov ImmP = In.HaveRelocs ? Prov::Plain : Prov::Trusted;

    // Frame-integrity gates on the memory operand, checked as byte ranges
    // [Disp, Disp+width): a qword store at [rbp-1] reaches the saved rbp
    // even though its displacement is negative.
    if (D.IsMem) {
      if (D.Rm == RegRSP)
        return Bad("frame-escape",
                   "rsp-based memory operand is never admitted");
      bool IsStore = isStoreCls(D.Cls);
      if (D.Rm == RegRBP && (IsStore || isLoadCls(D.Cls))) {
        std::int64_t W = memWidth(D);
        if (S.RbpDepth < 0)
          return Bad("frame-escape",
                     "rbp-relative access while rbp does not hold the frame");
        if (IsStore) {
          if (D.Disp < -Reserve || D.Disp + W > 0)
            return Bad("frame-escape",
                       "store at [rbp" + dispStr(D.Disp) + "] (width " +
                           std::to_string(W) +
                           ") touches bytes outside the reserved frame "
                           "(saved rbp and return address are off limits)");
          // While a callee-saved register is must-saved, its slot holds
          // the value the restore proof hands back to the caller: only
          // the exact canonical re-save of the still-unclobbered register
          // may touch it. Anything else — aligned, misaligned, or partial
          // — would corrupt what ret restores.
          for (unsigned CI = 0; CI < 5; ++CI) {
            std::int32_t Sd = -8 * static_cast<std::int32_t>(CI + 1);
            if (D.Disp >= Sd + 8 || D.Disp + W <= Sd)
              continue;
            std::uint8_t Rr = CalleeSavedRegs[CI];
            if (!(S.Saved & calleeBit(Rr)))
              continue;
            bool Canonical = D.Cls == InstrClass::Store64 && D.Disp == Sd &&
                             D.Reg == Rr && !(S.Clobbered & calleeBit(Rr));
            if (!Canonical)
              return Bad("callee-saved",
                         "store at [rbp" + dispStr(D.Disp) +
                             "] overlaps the live save slot of r" +
                             std::to_string(Rr));
          }
        } else if (!(D.Disp >= 16 ||
                     (D.Disp >= -Reserve && D.Disp + W <= 0))) {
          // Reads of the frame and of the caller's stack-passed arguments
          // ([rbp+16) and up) are fine; the saved rbp and the return
          // address in between are not.
          return Bad("frame-escape",
                     "load at [rbp" + dispStr(D.Disp) + "] (width " +
                         std::to_string(W) +
                         ") reads the saved rbp or the return address");
        }
      }
    }

    if (Report && uninitReload(S, D))
      fail(Starts[I], "spill-reload",
           "load from spill slot [rbp" + dispStr(D.Disp) +
               "] that is not initialized on all paths",
           /*WithCfg=*/true);

    switch (D.Cls) {
    case InstrClass::Push:
      // The only admitted push is the prologue's `push rbp` at the entry
      // depth — anything else would open an untracked stack cell the
      // provenance analysis cannot see.
      if (D.Rm != RegRBP || S.Depth != 0)
        return Bad("stack-balance", "push outside the canonical prologue");
      S.Depth += 8;
      return true;
    case InstrClass::Pop:
      if (D.Rm != RegRBP)
        return Bad("stack-balance", "pop of a register other than rbp");
      if (S.Depth != 8)
        return Bad("stack-balance",
                   "`pop rbp` at depth " + std::to_string(S.Depth) +
                       " (frame not unwound)");
      S.Depth = 0;
      S.RbpDepth = -1; // rbp holds the caller's value again.
      return true;
    case InstrClass::Ret:
      if (S.Depth != 0)
        return Bad("stack-balance",
                   "ret at depth " + std::to_string(S.Depth) +
                       " — stack not balanced on this path");
      if (S.RbpDepth >= 0)
        return Bad("stack-balance", "ret with rbp still holding the frame");
      if (S.Clobbered & ~S.Restored)
        return Bad("callee-saved",
                   "ret on a path where a clobbered callee-saved register "
                   "was not restored");
      return true;
    case InstrClass::AluRI:
      if (!D.IsMem && D.Rm == RegRSP) {
        if (!D.RexW)
          return Bad("stack-balance", "32-bit arithmetic on rsp");
        std::uint8_t Digit = D.Reg & 7;
        if (Digit == 5)
          S.Depth += D.Imm;
        else if (Digit == 0)
          S.Depth -= D.Imm;
        else
          return Bad("stack-balance", "non add/sub arithmetic on rsp");
        if (S.Depth < 0)
          return Bad("stack-balance",
                     "stack depth went above the entry rsp");
        return true;
      }
      if (!D.IsMem && D.Rm == RegRBP && (D.Reg & 7) != 7)
        return Bad("stack-balance", "arithmetic writes rbp");
      break;
    case InstrClass::MovRR:
      if (D.Reg == RegRSP) {
        if (!(D.RexW && D.Rm == RegRBP))
          return Bad("stack-balance", "rsp written from a non-rbp source");
        if (S.RbpDepth < 0)
          return Bad("stack-balance",
                     "`mov rsp, rbp` while rbp does not hold the frame");
        S.Depth = S.RbpDepth;
        return true;
      }
      if (D.Reg == RegRBP) {
        if (!(D.RexW && D.Rm == RegRSP))
          return Bad("stack-balance", "rbp written from a non-rsp source");
        S.RbpDepth = S.Depth;
        return true;
      }
      if (D.Rm == RegRSP || D.Rm == RegRBP)
        return Bad("frame-escape",
                   "frame/stack pointer value copied into a general "
                   "register");
      if (!clobberCheck(D.Reg))
        return false;
      S.Reg[D.Reg] = S.Reg[D.Rm];
      return true;
    case InstrClass::Lea:
      if (D.Rm == RegRSP || D.Rm == RegRBP)
        return Bad("frame-escape",
                   "lea materializes a frame/stack address in a general "
                   "register");
      break;
    case InstrClass::Load:
      if (D.Reg == RegRSP || D.Reg == RegRBP)
        return Bad("stack-balance", "load writes the stack/frame pointer");
      if (D.Rm == RegRBP) {
        // Canonical callee-saved restore?
        if (D.RexW && calleeRegForSlot(D.Disp) == D.Reg) {
          std::uint16_t Bit = calleeBit(D.Reg);
          if (!(S.Saved & Bit))
            return Bad("callee-saved",
                       "restore load from a slot that was never saved");
          S.Restored = static_cast<std::uint16_t>(S.Restored | Bit);
          S.Clobbered = static_cast<std::uint16_t>(S.Clobbered & ~Bit);
          S.Reg[D.Reg] = Prov::Computed;
          return true;
        }
        if (!clobberCheck(D.Reg))
          return false;
        S.Reg[D.Reg] = loadFromFrame(S, D.Disp, memWidth(D));
        return true;
      }
      if (!clobberCheck(D.Reg))
        return false;
      S.Reg[D.Reg] = Prov::Computed;
      return true;
    case InstrClass::LoadSExt8:
    case InstrClass::LoadZExt8:
    case InstrClass::LoadSExt16:
    case InstrClass::LoadZExt16:
      if (D.Reg == RegRSP || D.Reg == RegRBP)
        return Bad("stack-balance", "load writes the stack/frame pointer");
      if (!clobberCheck(D.Reg))
        return false;
      S.Reg[D.Reg] = D.Rm == RegRBP ? loadFromFrame(S, D.Disp, memWidth(D))
                                    : Prov::Computed;
      return true;
    case InstrClass::Store8:
    case InstrClass::Store16:
    case InstrClass::Store32:
    case InstrClass::Store64:
      if (isFrameReg(D.Reg))
        return Bad("frame-escape",
                   "frame/stack pointer value stored to memory");
      if (D.Rm == RegRBP) {
        // Canonical callee-saved save? Only counts while the register still
        // holds its entry value.
        if (D.Cls == InstrClass::Store64 && calleeRegForSlot(D.Disp) == D.Reg &&
            !(S.Clobbered & calleeBit(D.Reg)))
          S.Saved = static_cast<std::uint16_t>(S.Saved | calleeBit(D.Reg));
        storeToFrame(S, D.Disp, memWidth(D), S.Reg[D.Reg]);
      }
      return true;
    case InstrClass::SseStore:
      if (D.Rm == RegRBP)
        storeToFrame(S, D.Disp, 8, S.Xmm[D.Reg]);
      return true;
    case InstrClass::SseLoad:
      S.Xmm[D.Reg] =
          D.Rm == RegRBP ? loadFromFrame(S, D.Disp, 8) : Prov::Computed;
      return true;
    case InstrClass::MovqXR:
      if (isFrameReg(D.Rm))
        return Bad("frame-escape",
                   "frame/stack pointer value copied into an xmm register");
      S.Xmm[D.Reg] = S.Reg[D.Rm];
      return true;
    case InstrClass::MovqRX:
      if (isFrameReg(D.Rm))
        return Bad("stack-balance",
                   "instruction writes the stack/frame pointer");
      if (!clobberCheck(D.Rm))
        return false;
      S.Reg[D.Rm] = S.Xmm[D.Reg];
      return true;
    case InstrClass::SseMov:
      S.Xmm[D.Reg] = S.Xmm[D.Rm];
      return true;
    case InstrClass::SseArith:
    case InstrClass::SseXorpd:
      S.Xmm[D.Reg] = provJoin(S.Xmm[D.Reg], S.Xmm[D.Rm]);
      return true;
    case InstrClass::SseCvtSI2SD:
      // cvtsi2sd represents any 48-bit pointer exactly; it propagates, not
      // launders.
      if (isFrameReg(D.Rm))
        return Bad("frame-escape",
                   "frame/stack pointer value converted into an xmm "
                   "register");
      S.Xmm[D.Reg] = S.Reg[D.Rm];
      return true;
    case InstrClass::SseCvtSD2SI:
      if (isFrameReg(D.Reg))
        return Bad("stack-balance",
                   "instruction writes the stack/frame pointer");
      if (!clobberCheck(D.Reg))
        return false;
      S.Reg[D.Reg] = S.Xmm[D.Rm];
      return true;
    case InstrClass::MovImm64:
      if (D.Rm == RegRSP || D.Rm == RegRBP)
        return Bad("stack-balance", "immediate written to rsp/rbp");
      if (!clobberCheck(D.Rm))
        return false;
      S.Reg[D.Rm] = immProv(I);
      return true;
    case InstrClass::CallInd: {
      if (isFrameReg(D.Rm))
        return Bad("frame-escape",
                   "indirect call through the stack/frame pointer");
      if ((S.Depth & 15) != 8)
        return Bad("stack-balance",
                   "indirect call at depth " + std::to_string(S.Depth) +
                       " — rsp not 16-byte aligned at the call");
      if (S.Reg[D.Rm] == Prov::Plain)
        return Bad("call-target",
                   "indirect call through an immediate that is not a "
                   "declared Callee/Ptr relocation slot — the record would "
                   "transfer outside the key's declared callees");
      // SysV: caller-saved GPRs and the whole xmm file are dead across the
      // call.
      for (std::uint8_t Rg : {std::uint8_t(0), std::uint8_t(1),
                              std::uint8_t(2), std::uint8_t(6),
                              std::uint8_t(7), std::uint8_t(8),
                              std::uint8_t(9), std::uint8_t(10),
                              std::uint8_t(11)})
        S.Reg[Rg] = Prov::Computed;
      for (unsigned X = 0; X < 16; ++X)
        S.Xmm[X] = Prov::Computed;
      return true;
    }
    default:
      break;
    }

    // rsp/rbp as a *data source* of a value-producing op would hand the
    // frame address to a general register (`add rax, rbp` is a mov-escape
    // with extra steps); cmp/test read it into flags only and are inert.
    switch (D.Cls) {
    case InstrClass::AluRR:
      if (D.Op8 != 0x3B && isFrameReg(D.Rm))
        return Bad("frame-escape",
                   "frame/stack pointer used as an arithmetic operand");
      break;
    case InstrClass::ImulRR:
    case InstrClass::ImulRRI:
    case InstrClass::Movsxd:
    case InstrClass::Movzx8RR:
    case InstrClass::Movsx8RR:
    case InstrClass::Movzx16RR:
    case InstrClass::Movsx16RR:
      if (isFrameReg(D.Rm))
        return Bad("frame-escape",
                   "frame/stack pointer used as an arithmetic operand");
      break;
    case InstrClass::UnaryGrp:
      if (((D.Reg & 7) == 6 || (D.Reg & 7) == 7) && isFrameReg(D.Rm))
        return Bad("frame-escape",
                   "frame/stack pointer used as an arithmetic operand");
      break;
    default:
      break;
    }

    // Result provenance: the join of the instruction's register inputs
    // (including the destination for read-modify-write ops), with an
    // immediate operand joining as ImmP. A Plain value therefore stays
    // Plain through mov/add/shift/imul/widening chains — arithmetic
    // cannot launder a stray embedded constant into a Computed call
    // target, and imm32 pieces cannot be assembled into a fresh one.
    Prov ResP = Prov::Computed;
    switch (D.Cls) {
    case InstrClass::MovImm32:
    case InstrClass::MovImmSExt:
      ResP = ImmP;
      break;
    case InstrClass::AluRR:
    case InstrClass::ImulRR:
      ResP = provJoin(S.Reg[D.Reg], S.Reg[D.Rm]);
      break;
    case InstrClass::AluRI:
    case InstrClass::ShiftImm:
    case InstrClass::ImulRRI:
      ResP = provJoin(S.Reg[D.Rm], ImmP);
      break;
    case InstrClass::ShiftCl:
      ResP = provJoin(S.Reg[D.Rm], S.Reg[1]); // rcx holds the count.
      break;
    case InstrClass::UnaryGrp:
      ResP = (D.Reg & 7) == 2 || (D.Reg & 7) == 3
                 ? S.Reg[D.Rm] // not/neg: RMW on the operand.
                 : provJoin(provJoin(S.Reg[0], S.Reg[2]),
                            S.Reg[D.Rm]); // div/idiv: rdx:rax op src.
      break;
    case InstrClass::Movsxd:
    case InstrClass::Movzx8RR:
    case InstrClass::Movsx8RR:
    case InstrClass::Movzx16RR:
    case InstrClass::Movsx16RR:
      ResP = S.Reg[D.Rm];
      break;
    case InstrClass::Lea:
      // lea dst, [base+disp] is base+disp arithmetic (the base is proven
      // non-frame above).
      ResP = D.Disp == 0 ? S.Reg[D.Rm] : provJoin(S.Reg[D.Rm], ImmP);
      break;
    default:
      // setcc/cdq produce 0/1 or a sign fill — incapable of carrying an
      // embedded pointer — and everything else is a genuine run-time
      // value.
      break;
    }

    // Generic register writes (provenance + callee-saved obligation).
    std::uint8_t W[2];
    unsigned NW = x86::decodedGprWrites(D, W);
    for (unsigned K = 0; K < NW; ++K) {
      if (W[K] == RegRSP || W[K] == RegRBP)
        return Bad("stack-balance",
                   "instruction writes the stack/frame pointer");
      if (!clobberCheck(W[K]))
        return false;
      S.Reg[W[K]] = ResP;
    }
    return true;
  }

  /// Join \p Out into block \p BI's entry state. Returns true when the
  /// entry state changed (block must be (re)visited).
  bool joinInto(std::size_t BI, const AbsState &Out) {
    AbsState &T = InState[BI];
    if (!T.Valid) {
      T = Out;
      T.Valid = true;
      return true;
    }
    if (!T.sameShape(Out)) {
      if (!Blocks[BI].JoinReported) {
        Blocks[BI].JoinReported = true;
        fail(Starts[Blocks[BI].Begin], "stack-balance",
             "paths join at different stack depths (" +
                 std::to_string(T.Depth) + " vs " + std::to_string(Out.Depth) +
                 ") — unbalanced path",
             /*WithCfg=*/true);
      }
      return false;
    }
    bool Changed = false;
    auto mergeMask = [&](std::uint16_t &Dst, std::uint16_t Src, bool Union) {
      std::uint16_t N = Union ? static_cast<std::uint16_t>(Dst | Src)
                              : static_cast<std::uint16_t>(Dst & Src);
      if (N != Dst) {
        Dst = N;
        Changed = true;
      }
    };
    mergeMask(T.Saved, Out.Saved, false);
    mergeMask(T.Restored, Out.Restored, false);
    mergeMask(T.Clobbered, Out.Clobbered, true);
    for (unsigned Rg = 0; Rg < 16; ++Rg) {
      Prov N = provJoin(T.Reg[Rg], Out.Reg[Rg]);
      if (N != T.Reg[Rg]) {
        T.Reg[Rg] = N;
        Changed = true;
      }
      Prov NX = provJoin(T.Xmm[Rg], Out.Xmm[Rg]);
      if (NX != T.Xmm[Rg]) {
        T.Xmm[Rg] = NX;
        Changed = true;
      }
    }
    for (std::size_t SI = 0; SI < T.Slot.size(); ++SI) {
      Prov N = provJoin(T.Slot[SI], Out.Slot[SI]);
      if (N != T.Slot[SI]) {
        T.Slot[SI] = N;
        Changed = true;
      }
    }
    for (std::size_t W = 0; W < T.Init.size(); ++W) {
      std::uint64_t N = T.Init[W] & Out.Init[W];
      if (N != T.Init[W]) {
        T.Init[W] = N;
        Changed = true;
      }
    }
    return Changed;
  }

  void interpret() {
    collectCells();
    InState.assign(Blocks.size(), AbsState{});

    AbsState Entry;
    Entry.Valid = true;
    // Entry registers and frame memory hold run-time values (arguments,
    // caller state) — Computed, admissible as call targets by design.
    std::fill(std::begin(Entry.Reg), std::end(Entry.Reg), Prov::Computed);
    std::fill(std::begin(Entry.Xmm), std::end(Entry.Xmm), Prov::Computed);
    Entry.Slot.assign(Cells.size(), Prov::Computed);
    if (In.ICodeDiscipline) // Never empty: empty means untracked.
      Entry.Init.assign(Cells.size() / 64 + 1, 0);
    InState[0] = Entry;

    std::vector<std::size_t> Work{0};
    std::vector<std::uint8_t> InWork(Blocks.size(), 0);
    InWork[0] = 1;
    // Fixpoint: run silently; diagnostics come from the reporting pass over
    // the converged states (so transient pre-fixpoint states cannot produce
    // spurious findings). Join-shape mismatches are definitive (equality
    // domain) and report immediately.
    AbsState S; // Reused across blocks: assignment keeps its capacity.
    while (!Work.empty()) {
      std::size_t BI = Work.back();
      Work.pop_back();
      InWork[BI] = 0;
      S = InState[BI];
      bool Alive = true;
      for (std::size_t I = Blocks[BI].Begin; Alive && I < Blocks[BI].End; ++I)
        Alive = step(S, I, /*Report=*/false);
      if (!Alive)
        continue; // Broken path: the reporting pass will say why.
      for (unsigned K = 0; K < Blocks[BI].NumSucc; ++K) {
        std::size_t SB = Blocks[BI].Succ[K];
        if (joinInto(SB, S) && !InWork[SB]) {
          InWork[SB] = 1;
          Work.push_back(SB);
        }
      }
    }

    // Reporting pass over the converged entry states.
    for (std::size_t BI = 0; BI < Blocks.size(); ++BI) {
      if (!InState[BI].Valid)
        continue; // Only reachable via a path already reported broken.
      S = InState[BI];
      for (std::size_t I = Blocks[BI].Begin; I < Blocks[BI].End; ++I)
        if (!step(S, I, /*Report=*/true))
          break;
    }
  }

  //===--------------------------------------------------------------------===
  // Phase 5: profile hook (linear pairing with the planted movabs).
  //===--------------------------------------------------------------------===

  void checkProfile() {
    unsigned Hooks = 0;
    for (std::size_t I = 0; I < Ins.size(); ++I) {
      if (Ins[I].Cls != InstrClass::LockInc)
        continue;
      ++Hooks;
      if (!In.ExpectProfile) {
        fail(Starts[I], "profile",
             "profiling hook present but profiling is off");
        continue;
      }
      if (Ins[I].Rm != RegR10 || Ins[I].Disp != 0) {
        fail(Starts[I], "profile",
             "counter increment does not use the planted [r10] form");
        continue;
      }
      if (I == 0 || Ins[I - 1].Cls != InstrClass::MovImm64 ||
          Ins[I - 1].Rm != RegR10) {
        fail(Starts[I], "profile",
             "counter increment not preceded by `movabs r10, counter`");
        continue;
      }
      auto Want = reinterpret_cast<std::uint64_t>(In.ProfileCounter);
      if (Ins[I - 1].Imm64 != Want)
        fail(Starts[I - 1], "profile",
             "profiling hook targets a counter that was never registered");
    }
    if (In.ExpectProfile && Hooks == 0)
      fail(0, "profile", "profiling requested but no hook was planted");
  }

  //===--------------------------------------------------------------------===
  // Diagnostics: CFG + abstract-state dump.
  //===--------------------------------------------------------------------===

  std::string renderCfg() const {
    std::string S = "  cfg:\n";
    char Buf[160];
    for (std::size_t BI = 0; BI < Blocks.size(); ++BI) {
      const Blk &B = Blocks[BI];
      std::snprintf(Buf, sizeof(Buf), "    B%zu [%#x, %#x)%s", BI,
                    Starts[B.Begin],
                    B.End < Ins.size() ? Starts[B.End]
                                       : static_cast<unsigned>(In.Size),
                    B.Reachable ? "" : " UNREACHABLE");
      S += Buf;
      for (unsigned K = 0; K < B.NumSucc; ++K) {
        std::snprintf(Buf, sizeof(Buf), "%s B%zu", K ? "," : " ->",
                      B.Succ[K]);
        S += Buf;
      }
      if (BI < InState.size() && InState[BI].Valid) {
        const AbsState &A = InState[BI];
        std::snprintf(Buf, sizeof(Buf),
                      "  depth=%lld rbp=%lld saved=%03x restored=%03x "
                      "clobbered=%03x",
                      static_cast<long long>(A.Depth),
                      static_cast<long long>(A.RbpDepth), A.Saved, A.Restored,
                      A.Clobbered);
        S += Buf;
      }
      S += '\n';
    }
    return S;
  }

  void run() {
    if (!decodeAll())
      return;
    // Vocabulary findings from the decode loop do not block the flow
    // analysis; a broken frame or reloc table does.
    bool PrologueOk = checkPrologue();
    bool RelocsOk = checkRelocShape();
    if (!buildCfg())
      return;
    if (PrologueOk && RelocsOk)
      interpret();
    checkProfile();

    auto &Reg = obs::MetricsRegistry::global();
    Reg.counter(obs::names::VerifyAdmitBlocks).inc(Blocks.size());
    std::uint64_t Calls = 0;
    for (const Decoded &D : Ins)
      if (D.Cls == InstrClass::CallInd)
        ++Calls;
    Reg.counter(obs::names::VerifyAdmitCalls).inc(Calls);
  }
};

} // namespace

Result verifyAdmission(const AdmissionInputs &In) {
  Result R;
  Admission A{In, R};
  A.run();
  return R;
}

} // namespace verify
} // namespace tcc
