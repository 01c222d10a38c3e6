//===- verify/Verify.h - Self-checking compile pipeline ---------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Four independent static-analysis layers that re-check a dynamic compile
/// after the fact, gated by CompileOptions::Verify or TICKC_VERIFY=1:
///
///   Spec     — lints the cspec tree before lowering (dangling cross-context
///              references after a closure-arena reset, unbound free
///              variables, `$`-bound expressions that can never be run-time
///              constants, malformed nodes).
///   IR       — structural ICODE verification plus a forward must-dataflow
///              pass proving every vreg is defined on all paths before use.
///              Runs after Walker lowering and again after the peephole.
///   RegAlloc — independently recomputes exact liveness and proves the
///              allocator's assignment is conflict-free, correctly shaped,
///              and keeps no float in a (caller-saved) register across a
///              call.
///   Admit    — the one machine-code checker: strict-decodes the finalized
///              region once, recovers its CFG and proves frame, stack,
///              callee-saved, call-target and profile-hook discipline by
///              abstract interpretation. Every snapshot load runs it
///              unconditionally; fresh compiles run it under the verify gate
///              with the backend's extra obligations switched on (ICODE
///              spill store-before-load and EmitterUsage cross-check, PCODE
///              stencil-class vocabulary).
///
/// Every checker is deliberately *independent* of the code it audits: it
/// has its own operand-signature table, its own CFG construction, and its
/// own liveness solver, so a shared bug cannot vouch for itself.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_VERIFY_VERIFY_H
#define TICKC_VERIFY_VERIFY_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tcc {
namespace icode {
class ICode;
struct Instr;
struct Allocation;
} // namespace icode
namespace core {
class Context;
struct StmtNode;
} // namespace core

namespace verify {

enum class Layer : std::uint8_t { Spec, IR, RegAlloc, Admit };

const char *layerName(Layer L);

/// One structured finding. Category is a stable machine-checkable slug
/// (e.g. "use-before-def", "phys-conflict", "branch-target"); Message is
/// human-oriented; Dump carries the offending IR window, location table, or
/// hex bytes.
struct Diagnostic {
  Layer L;
  std::string Category;
  std::string Message;
  std::string Dump;
};

/// Accumulated result of one checker run.
class Result {
public:
  bool ok() const { return Diags.empty(); }
  void fail(Layer L, const char *Category, std::string Message,
            std::string Dump = {}) {
    Diags.push_back({L, Category, std::move(Message), std::move(Dump)});
  }
  const std::vector<Diagnostic> &diags() const { return Diags; }
  bool has(const char *Category) const;
  /// Renders all diagnostics (with dumps) into a printable report.
  std::string render() const;

private:
  std::vector<Diagnostic> Diags;
};

/// True when TICKC_VERIFY is set to anything but "0"/"" (read once).
bool envEnabled();

/// Effective gate: explicit option or ambient environment.
inline bool enabled(bool OptFlag) { return OptFlag || envEnabled(); }

/// Layer 0 (runs first): cspec tree lint before lowering.
Result lintSpec(const core::Context &Ctx, const core::StmtNode *Body);

/// Layer 1: ICODE verification over the builder's own stream.
Result verifyICode(const icode::ICode &IC);

/// Layer 1, raw-stream form: verifies \p N instructions at \p Instrs against
/// the register/label/pool metadata of \p IC. The mutation harness uses this
/// to check corrupted copies without rebuilding an ICode.
Result verifyInstrs(const icode::ICode &IC, const icode::Instr *Instrs,
                    std::size_t N);

/// Layer 2: audits a finished register allocation against independently
/// recomputed exact liveness.
Result auditAllocation(const icode::ICode &IC, const icode::Allocation &Alloc);

/// One relocation slot the admission verifier may trust: \p Offset is the
/// byte offset of a movabs imm64 *payload* inside the region, \p Kind a
/// support::RelocKind. Slots are the only immediates whose values came from
/// the loader's own PersistKey::Refs walk (or a freshly created profile
/// counter) — everything else embedded in the bytes is untrusted input.
struct AdmissionReloc {
  std::uint32_t Offset = 0;
  std::uint8_t Kind = 0;
};

/// Inputs for the flow-sensitive admission verifier (AdmissionVerify.cpp).
/// Code must be a readable view of the finalized region *after* relocation
/// patching — the analysis proves properties of the bytes that will run.
struct AdmissionInputs {
  const std::uint8_t *Code = nullptr;
  std::size_t Size = 0;
  /// Address the ProfileInc counter must target; null when profiling is off.
  const void *ProfileCounter = nullptr;
  bool ExpectProfile = false;
  /// The relocation side table (snapshot record or fresh RelocTable). When
  /// HaveRelocs is set, every slot must land exactly on a decoded movabs
  /// payload, and an indirect call may only target a value materialized by
  /// a reloc-slot movabs or computed at run time — a stray embedded imm64
  /// used as a call target is rejected. When clear (fresh compile with no
  /// recorded table), immediates are the emitter's own and are trusted.
  const AdmissionReloc *Relocs = nullptr;
  std::size_t NumRelocs = 0;
  bool HaveRelocs = false;
  /// Fresh ICODE compiles only: frame cells at or below the first spill
  /// slot obey store-before-load on all paths (VCODE output has no such
  /// guarantee — an uninitialized C local may legitimately be read), and
  /// every decoded instruction must be justified by an opcode EmitterUsage
  /// recorded (assembler/link-time-pruning drift check).
  bool ICodeDiscipline = false;
  /// Fresh PCODE compiles only (0 = no check): every decoded instruction's
  /// x86::InstrClass bit must be set — the stencil library's rendered
  /// vocabulary plus the encoder-fallback glue classes. A class outside the
  /// mask means a stencil patch landed on an opcode byte or the library
  /// drifted from the emitter it was rendered from.
  std::uint64_t StencilClassMask = 0;
};

/// Layer 3: flow-sensitive machine-code admission. Recovers the full CFG
/// from the decoded stream (branch targets on boundaries, well-formed
/// terminator structure; unreachable ranges are admitted but proven inert —
/// no reachable transfer can enter them), then runs a worklist
/// abstract interpretation proving stack-depth balance and callee-saved
/// save/restore obligations on *all* paths to every ret, frame-pointer
/// integrity (no rsp/rbp escape, no store above the frame), and the
/// reloc-shape/call-target confinement properties. Every snapshot load must
/// pass this before its bytes can execute; under TICKC_VERIFY it is also
/// the machine-code check of fresh compiles from all three backends.
Result verifyAdmission(const AdmissionInputs &In);

/// Feeds verify.<layer>.{checked,failed} and verify.cycles into the
/// MetricsRegistry, for a check that ran inside a compile (verify.cycles is
/// the verify overhead those compiles paid on top of compile.cycles.total).
void recordOutcome(Layer L, bool Failed, std::uint64_t Cycles);

/// Feeds verify.admit.{checked,failed,cycles} only. Snapshot loads call it
/// directly: their admission runs outside any compile, so it must stay out
/// of verify.cycles. recordOutcome(Layer::Admit, ...) calls it as well.
void recordAdmission(bool Failed, std::uint64_t Cycles);

/// Prints the rendered result to stderr and aborts the compile via
/// reportFatalError. Only called when a checker found corruption — a wrong
/// answer later would be strictly worse than dying loudly here.
[[noreturn]] void failCompile(const Result &R);

} // namespace verify
} // namespace tcc

#endif // TICKC_VERIFY_VERIFY_H
