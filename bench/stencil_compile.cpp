//===- bench/stencil_compile.cpp - Copy-and-patch instantiation cost ---------==//
//
// The CI gate for the PCODE stencil backend: measures the *emission layer*
// cost — cycles per generated instruction spent turning an already-walked
// operation stream into machine code — for the paper's fig7 workloads, and
// fails unless copy-and-patch instantiation beats per-instruction encoding
// by at least 3x on 8 of the 11 workloads.
//
// Why not gate on full-compile CPI: a compile() call is one cspec walk plus
// emission, and the walk (tree traversal, register designation, label
// bookkeeping) is byte-for-byte identical across VCODE and PCODE — it
// dominates total cycles and would dilute a 10x emission win into a ~1.2x
// total-CPI delta. So the harness isolates emission by capture and replay:
//
//   * One untimed PCODE compile records its stencil stream (which table
//     entry, which patch value) through StencilAssembler::setTrace. The
//     timed PCODE loop replays that stream through the exact primitives the
//     backend uses — appendStencil + applyStencilHoles — into a scratch
//     buffer.
//   * The compiled function's bytes are decoded with the strict X86Decoder,
//     and the timed VCODE loop re-encodes every decoded instruction through
//     the matching x86::Assembler method. The re-encoded buffer is
//     memcmp-verified against the original code once, so the replay
//     provably exercises the same encoder work the compile did.
//
// Instructions the stencil path does not cover (spill traffic, calls,
// doubles, branches — PCODE routes those to the inherited encoder) are
// charged to PCODE at the measured encoder rate, so the comparison covers
// the full instruction stream on both sides.
//
// Writes BENCH_stencil.json. Also reports full-compile CPI for context and
// the stencil library's one-time construction cost.
//
//===----------------------------------------------------------------------===//

#include "bench/AppAdapters.h"
#include "bench/Harness.h"
#include "core/CompileContext.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "observability/Report.h"
#include "pcode/PCode.h"
#include "support/Timing.h"
#include "x86/X86Decoder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace tcc;
using namespace tcc::bench;
using namespace tcc::core;

namespace {

constexpr unsigned Warmup = 2, FullReps = 30, ReplayReps = 100;
constexpr double RequiredRatio = 3.0;
constexpr unsigned RequiredPasses = 8;

/// Re-emits one decoded instruction through the x86::Assembler method that
/// produced it, reproducing the original bytes exactly (verified by memcmp
/// below). This is the per-instruction encoding work VCODE pays at every
/// instantiation, minus the walk that decided the operands.
bool reencode(x86::Assembler &A, const x86::Decoded &D) {
  using C = x86::InstrClass;
  auto G = [](std::uint8_t R) { return static_cast<x86::GPR>(R); };
  auto X = [](std::uint8_t R) { return static_cast<x86::XMM>(R); };
  auto Imm = static_cast<std::int32_t>(D.Imm);
  switch (D.Cls) {
  case C::Push:
    A.push(G(D.Rm));
    return true;
  case C::Pop:
    A.pop(G(D.Rm));
    return true;
  case C::Ret:
    A.ret();
    return true;
  case C::Nop:
    if (D.Len == 1) {
      A.nop();
    } else {
      // The canonical 4-byte form only appears where finish() nop-filled a
      // dead callee-save store; reproduce the bytes directly.
      A.byte(0x0F);
      A.byte(0x1F);
      A.byte(0x40);
      A.byte(0x00);
    }
    return true;
  case C::Ud2:
    A.ud2();
    return true;
  case C::MovRR:
    D.RexW ? A.movRR64(G(D.Reg), G(D.Rm)) : A.movRR32(G(D.Reg), G(D.Rm));
    return true;
  case C::MovImm32:
    A.movRI32(G(D.Rm), static_cast<std::uint32_t>(D.Imm));
    return true;
  case C::MovImm64:
    A.movRI64(G(D.Rm), D.Imm64);
    return true;
  case C::MovImmSExt:
    A.movRI64SExt32(G(D.Rm), Imm);
    return true;
  case C::Load:
    D.RexW ? A.loadRM64(G(D.Reg), G(D.Rm), D.Disp)
           : A.loadRM32(G(D.Reg), G(D.Rm), D.Disp);
    return true;
  case C::LoadSExt8:
    A.loadSExt8(G(D.Reg), G(D.Rm), D.Disp);
    return true;
  case C::LoadZExt8:
    A.loadZExt8(G(D.Reg), G(D.Rm), D.Disp);
    return true;
  case C::LoadSExt16:
    A.loadSExt16(G(D.Reg), G(D.Rm), D.Disp);
    return true;
  case C::LoadZExt16:
    A.loadZExt16(G(D.Reg), G(D.Rm), D.Disp);
    return true;
  case C::Store8:
    A.storeMR8(G(D.Rm), D.Disp, G(D.Reg));
    return true;
  case C::Store16:
    A.storeMR16(G(D.Rm), D.Disp, G(D.Reg));
    return true;
  case C::Store32:
    A.storeMR32(G(D.Rm), D.Disp, G(D.Reg));
    return true;
  case C::Store64:
    A.storeMR64(G(D.Rm), D.Disp, G(D.Reg));
    return true;
  case C::Lea:
    A.lea(G(D.Reg), G(D.Rm), D.Disp);
    return true;
  case C::LockInc:
    A.lockIncM64(G(D.Rm), D.Disp);
    return true;
  case C::AluRR:
    switch (D.Op8) {
    case 0x03:
      D.RexW ? A.addRR64(G(D.Reg), G(D.Rm)) : A.addRR32(G(D.Reg), G(D.Rm));
      return true;
    case 0x2B:
      D.RexW ? A.subRR64(G(D.Reg), G(D.Rm)) : A.subRR32(G(D.Reg), G(D.Rm));
      return true;
    case 0x23:
      D.RexW ? A.andRR64(G(D.Reg), G(D.Rm)) : A.andRR32(G(D.Reg), G(D.Rm));
      return true;
    case 0x0B:
      D.RexW ? A.orRR64(G(D.Reg), G(D.Rm)) : A.orRR32(G(D.Reg), G(D.Rm));
      return true;
    case 0x33:
      D.RexW ? A.xorRR64(G(D.Reg), G(D.Rm)) : A.xorRR32(G(D.Reg), G(D.Rm));
      return true;
    case 0x3B:
      D.RexW ? A.cmpRR64(G(D.Reg), G(D.Rm)) : A.cmpRR32(G(D.Reg), G(D.Rm));
      return true;
    }
    return false;
  case C::TestRR:
    // testRR32(A, B) encodes Reg = B, Rm = A.
    D.RexW ? A.testRR64(G(D.Rm), G(D.Reg)) : A.testRR32(G(D.Rm), G(D.Reg));
    return true;
  case C::AluRI:
    if (D.Op8 == 0x81 && D.RexW && (D.Reg & 7) == 5 && D.Rm == x86::RSP &&
        D.Imm >= -128 && D.Imm <= 127) {
      // Frame reserve: deliberately unshortened `sub rsp, imm32` so the
      // final frame size can be patched in after the one-pass walk.
      A.patch32(A.subRI64Patchable(G(D.Rm)), static_cast<std::uint32_t>(Imm));
      return true;
    }
    switch (D.Reg & 7) {
    case 0:
      D.RexW ? A.addRI64(G(D.Rm), Imm) : A.addRI32(G(D.Rm), Imm);
      return true;
    case 1:
      D.RexW ? A.orRI64(G(D.Rm), Imm) : A.orRI32(G(D.Rm), Imm);
      return true;
    case 4:
      D.RexW ? A.andRI64(G(D.Rm), Imm) : A.andRI32(G(D.Rm), Imm);
      return true;
    case 5:
      D.RexW ? A.subRI64(G(D.Rm), Imm) : A.subRI32(G(D.Rm), Imm);
      return true;
    case 6:
      D.RexW ? A.xorRI64(G(D.Rm), Imm) : A.xorRI32(G(D.Rm), Imm);
      return true;
    case 7:
      D.RexW ? A.cmpRI64(G(D.Rm), Imm) : A.cmpRI32(G(D.Rm), Imm);
      return true;
    }
    return false;
  case C::ImulRR:
    D.RexW ? A.imulRR64(G(D.Reg), G(D.Rm)) : A.imulRR32(G(D.Reg), G(D.Rm));
    return true;
  case C::ImulRRI:
    D.RexW ? A.imulRRI64(G(D.Reg), G(D.Rm), Imm)
           : A.imulRRI32(G(D.Reg), G(D.Rm), Imm);
    return true;
  case C::UnaryGrp:
    switch (D.Reg & 7) {
    case 2:
      D.RexW ? A.notR64(G(D.Rm)) : A.notR32(G(D.Rm));
      return true;
    case 3:
      D.RexW ? A.negR64(G(D.Rm)) : A.negR32(G(D.Rm));
      return true;
    case 6:
      D.RexW ? A.divR64(G(D.Rm)) : A.divR32(G(D.Rm));
      return true;
    case 7:
      D.RexW ? A.idivR64(G(D.Rm)) : A.idivR32(G(D.Rm));
      return true;
    }
    return false;
  case C::Cdq:
    D.RexW ? A.cqo() : A.cdq();
    return true;
  case C::ShiftCl:
    switch (D.Reg & 7) {
    case 4:
      D.RexW ? A.shlCl64(G(D.Rm)) : A.shlCl32(G(D.Rm));
      return true;
    case 5:
      D.RexW ? A.shrCl64(G(D.Rm)) : A.shrCl32(G(D.Rm));
      return true;
    case 7:
      D.RexW ? A.sarCl64(G(D.Rm)) : A.sarCl32(G(D.Rm));
      return true;
    }
    return false;
  case C::ShiftImm: {
    auto Count = static_cast<std::uint8_t>(D.Imm);
    switch (D.Reg & 7) {
    case 4:
      D.RexW ? A.shlRI64(G(D.Rm), Count) : A.shlRI32(G(D.Rm), Count);
      return true;
    case 5:
      D.RexW ? A.shrRI64(G(D.Rm), Count) : A.shrRI32(G(D.Rm), Count);
      return true;
    case 7:
      D.RexW ? A.sarRI64(G(D.Rm), Count) : A.sarRI32(G(D.Rm), Count);
      return true;
    }
    return false;
  }
  case C::Movsxd:
    A.movsxd(G(D.Reg), G(D.Rm));
    return true;
  case C::Movzx8RR:
    A.movzx8RR(G(D.Reg), G(D.Rm));
    return true;
  case C::Movsx8RR:
    A.movsx8RR(G(D.Reg), G(D.Rm));
    return true;
  case C::Movzx16RR:
    A.movzx16RR(G(D.Reg), G(D.Rm));
    return true;
  case C::Movsx16RR:
    A.movsx16RR(G(D.Reg), G(D.Rm));
    return true;
  case C::Setcc:
    A.setcc(static_cast<x86::Cond>(D.CondCode), G(D.Rm));
    return true;
  case C::Jcc:
    A.patch32(A.jcc(static_cast<x86::Cond>(D.CondCode)),
              static_cast<std::uint32_t>(D.Rel32));
    return true;
  case C::Jmp:
    A.patch32(A.jmp(), static_cast<std::uint32_t>(D.Rel32));
    return true;
  case C::JmpInd:
    A.jmpR(G(D.Rm));
    return true;
  case C::CallInd:
    A.callR(G(D.Rm));
    return true;
  case C::SseMov:
    A.movsdRR(X(D.Reg), X(D.Rm));
    return true;
  case C::SseLoad:
    A.movsdRM(X(D.Reg), G(D.Rm), D.Disp);
    return true;
  case C::SseStore:
    A.movsdMR(G(D.Rm), D.Disp, X(D.Reg));
    return true;
  case C::SseArith:
    switch (D.Op8) {
    case 0x58:
      A.addsd(X(D.Reg), X(D.Rm));
      return true;
    case 0x5C:
      A.subsd(X(D.Reg), X(D.Rm));
      return true;
    case 0x59:
      A.mulsd(X(D.Reg), X(D.Rm));
      return true;
    case 0x5E:
      A.divsd(X(D.Reg), X(D.Rm));
      return true;
    case 0x51:
      A.sqrtsd(X(D.Reg), X(D.Rm));
      return true;
    }
    return false;
  case C::SseUcomi:
    A.ucomisd(X(D.Reg), X(D.Rm));
    return true;
  case C::SseXorpd:
    A.xorpd(X(D.Reg), X(D.Rm));
    return true;
  case C::SseCvtSI2SD:
    D.RexW ? A.cvtsi2sd64(X(D.Reg), G(D.Rm)) : A.cvtsi2sd32(X(D.Reg), G(D.Rm));
    return true;
  case C::SseCvtSD2SI:
    D.RexW ? A.cvttsd2si64(G(D.Reg), X(D.Rm))
           : A.cvttsd2si32(G(D.Reg), X(D.Rm));
    return true;
  case C::MovqXR:
    A.movqXR(X(D.Reg), G(D.Rm));
    return true;
  case C::MovqRX:
    A.movqRX(G(D.Rm), X(D.Reg));
    return true;
  }
  return false;
}

struct Row {
  std::string Name;
  unsigned MachineInstrs = 0; ///< Decoded instruction count (whole function).
  unsigned StencilInstrs = 0; ///< Instructions emitted via stencil copies.
  unsigned Patches = 0;       ///< Holes patched per instantiation.
  double VcodeCpi = 0;        ///< Encoder replay cycles / instruction.
  double PcodeCpi = 0;        ///< Stencil replay (+ glue at encoder rate).
  double VcodeFullCpi = 0;    ///< Whole compile() call, for context.
  double PcodeFullCpi = 0;
  bool Pass = false;
};

std::uint64_t median(std::vector<std::uint64_t> &V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

/// Full-compile cycles per generated instruction through a warmed pooled
/// context — the same protocol as bench/compile_overhead.cpp.
double fullCpi(const AppCase &App, const CompileOptions &Opts) {
  for (unsigned W = 0; W < Warmup; ++W)
    if (!App.Specialize(Opts).valid())
      return -1;
  std::vector<std::uint64_t> Per;
  Per.reserve(FullReps);
  unsigned Instrs = 0;
  for (unsigned R = 0; R < FullReps; ++R) {
    CompiledFn F = App.Specialize(Opts);
    Per.push_back(F.stats().CyclesTotal);
    Instrs = F.stats().MachineInstrs;
  }
  return Instrs ? static_cast<double>(median(Per)) / Instrs : -1;
}

} // namespace

int main() {
  std::printf("Stencil instantiation: emission-layer cycles per generated "
              "instruction\n");
  std::printf("(captured stream replay, median of %u reps; gate: pcode <= "
              "vcode / %.0f on >= %u of 11)\n",
              ReplayReps, RequiredRatio, RequiredPasses);
  printRule();

  RegionPool Pool;
  CompileContext CC;
  CompileOptions VOpts;
  VOpts.Backend = BackendKind::VCode;
  VOpts.Pool = &Pool;
  VOpts.Ctx = &CC;
  CompileOptions POpts = VOpts;
  POpts.Backend = BackendKind::PCode;

  const pcode::StencilLibrary &Lib = pcode::StencilLibrary::get();

  AppSet Set;
  std::vector<Row> Rows;
  for (const AppCase &App : Set.cases()) {
    Row R;
    R.Name = App.Name;
    R.VcodeFullCpi = fullCpi(App, VOpts);
    R.PcodeFullCpi = fullCpi(App, POpts);
    if (R.VcodeFullCpi < 0 || R.PcodeFullCpi < 0) {
      std::fprintf(stderr, "FAIL: %s did not compile\n", App.Name.c_str());
      return 1;
    }

    // Capture one PCODE compile's stencil stream; keep the compiled code
    // for decoding (PCODE output is byte-identical to VCODE's, so it also
    // defines the encoder side's instruction list).
    std::vector<pcode::StencilAssembler::TraceEnt> Stream;
    pcode::StencilAssembler::setTrace(&Stream);
    CompiledFn F = App.Specialize(POpts);
    pcode::StencilAssembler::setTrace(nullptr);
    if (!F.valid() || Stream.empty()) {
      std::fprintf(stderr, "FAIL: %s stencil capture came up empty\n",
                   App.Name.c_str());
      return 1;
    }
    for (const auto &E : Stream) {
      R.StencilInstrs += E.S->Instrs;
      if (E.HasPatch)
        R.Patches += E.S->NumHoles;
    }

    const auto *Code = static_cast<const std::uint8_t *>(F.entry());
    const std::size_t Size = F.stats().CodeBytes;
    std::vector<x86::Decoded> Ins;
    for (std::size_t Off = 0; Off < Size;) {
      x86::Decoded D;
      const char *Err = nullptr;
      if (!x86::decodeOne(Code, Size, Off, D, &Err)) {
        std::fprintf(stderr, "FAIL: %s decode error at +%zu: %s\n",
                     App.Name.c_str(), Off, Err ? Err : "?");
        return 1;
      }
      Ins.push_back(D);
      Off += D.Len;
    }
    R.MachineInstrs = static_cast<unsigned>(Ins.size());

    const std::size_t Cap = Size + x86::Assembler::StencilWindow + 64;
    std::unique_ptr<std::uint8_t[]> Scratch(new std::uint8_t[Cap]);

    // Fidelity check: the re-encoded stream must reproduce the compiled
    // function byte for byte, or the encoder-side timing is measuring the
    // wrong work.
    {
      x86::Assembler A(Scratch.get(), Cap);
      for (const x86::Decoded &D : Ins)
        if (!reencode(A, D)) {
          std::fprintf(stderr, "FAIL: %s has no re-encoding for class %s\n",
                       App.Name.c_str(), x86::instrClassName(D.Cls));
          return 1;
        }
      if (A.pc() != Size || std::memcmp(Scratch.get(), Code, Size) != 0) {
        std::fprintf(stderr,
                     "FAIL: %s re-encoded stream diverges from compiled "
                     "code (%zu vs %zu bytes)\n",
                     App.Name.c_str(), A.pc(), Size);
        return 1;
      }
    }

    // Timed VCODE side: per-instruction encoding of the full stream.
    std::vector<std::uint64_t> Per;
    Per.reserve(ReplayReps);
    for (unsigned Rep = 0; Rep < ReplayReps; ++Rep) {
      std::uint64_t T0 = readCycleCounterBegin();
      x86::Assembler A(Scratch.get(), Cap);
      for (const x86::Decoded &D : Ins)
        reencode(A, D);
      Per.push_back(readCycleCounterEnd() - T0);
    }
    R.VcodeCpi = static_cast<double>(median(Per)) / R.MachineInstrs;

    // Timed PCODE side: replay the captured stream through the backend's
    // own emission primitives.
    Per.clear();
    for (unsigned Rep = 0; Rep < ReplayReps; ++Rep) {
      std::uint64_t T0 = readCycleCounterBegin();
      x86::Assembler A(Scratch.get(), Cap);
      for (const auto &E : Stream) {
        std::size_t At = A.appendStencil(E.S->Bytes, E.S->Len, E.S->Instrs);
        if (E.HasPatch)
          pcode::applyStencilHoles(Scratch.get() + At, *E.S, E.V);
        if (E.IsBranch)
          // Model the label machinery's deferred rel32 fixup, which the
          // encoder replay pays as a patch32 after each jcc/jmp (a fused
          // return stencil has both a hole and a branch).
          A.patch32(At + E.S->Len - 4, 0);
      }
      Per.push_back(readCycleCounterEnd() - T0);
    }
    // Instructions the stencils did not cover went through the inherited
    // encoder; charge them at the measured encoder rate so both columns
    // account for the whole function.
    double StencilCycles = static_cast<double>(median(Per));
    double GlueCycles = R.VcodeCpi * (R.MachineInstrs - R.StencilInstrs);
    R.PcodeCpi = (StencilCycles + GlueCycles) / R.MachineInstrs;

    R.Pass = R.PcodeCpi <= R.VcodeCpi / RequiredRatio;
    Rows.push_back(R);
  }

  std::printf("%-8s %7s %8s %6s %7s %9s %9s %7s %9s %9s\n", "bench", "instrs",
              "stencil", "holes", "patch%", "vcode", "pcode", "ratio",
              "vfull", "pfull");
  printRule();
  unsigned Passes = 0;
  for (const Row &R : Rows) {
    double Ratio = R.PcodeCpi > 0 ? R.VcodeCpi / R.PcodeCpi : 0;
    Passes += R.Pass;
    std::printf("%-8s %7u %8u %6u %6.1f%% %9.2f %9.2f %6.2fx %9.1f %9.1f%s\n",
                R.Name.c_str(), R.MachineInstrs, R.StencilInstrs, R.Patches,
                100.0 * R.StencilInstrs / R.MachineInstrs, R.VcodeCpi,
                R.PcodeCpi, Ratio, R.VcodeFullCpi, R.PcodeFullCpi,
                R.Pass ? "" : "  <- below gate");
  }
  printRule();
  std::printf("workloads with pcode <= vcode/%.0f: %u of %zu (need >= %u)\n",
              RequiredRatio, Passes, Rows.size(), RequiredPasses);
  std::printf("stencil library: %u stencils, %zu table bytes, built in %llu "
              "cycles (once per process)\n",
              Lib.stencilCount(), Lib.tableBytes(),
              static_cast<unsigned long long>(Lib.buildCycles()));

  std::FILE *Out = std::fopen("BENCH_stencil.json", "w");
  if (!Out) {
    std::fprintf(stderr, "cannot write BENCH_stencil.json\n");
    return 1;
  }
  std::fprintf(Out,
               "{\n  \"benchmark\": \"stencil_compile\",\n"
               "  \"units\": \"emission-layer cycles per generated "
               "instruction (captured-stream replay)\",\n"
               "  \"replay_reps\": %u,\n"
               "  \"required_ratio\": %.1f,\n"
               "  \"required_passes\": %u,\n"
               "  \"library\": {\"stencils\": %u, \"table_bytes\": %zu, "
               "\"build_cycles\": %llu},\n"
               "  \"workloads\": [\n",
               ReplayReps, RequiredRatio, RequiredPasses, Lib.stencilCount(),
               Lib.tableBytes(),
               static_cast<unsigned long long>(Lib.buildCycles()));
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    std::fprintf(Out,
                 "    {\"name\": \"%s\", \"machine_instrs\": %u, "
                 "\"stencil_instrs\": %u, \"patches\": %u, "
                 "\"vcode_instantiate_cpi\": %.3f, "
                 "\"pcode_instantiate_cpi\": %.3f, \"ratio\": %.3f, "
                 "\"vcode_full_cpi\": %.2f, \"pcode_full_cpi\": %.2f, "
                 "\"pass\": %s}%s\n",
                 R.Name.c_str(), R.MachineInstrs, R.StencilInstrs, R.Patches,
                 R.VcodeCpi, R.PcodeCpi,
                 R.PcodeCpi > 0 ? R.VcodeCpi / R.PcodeCpi : 0, R.VcodeFullCpi,
                 R.PcodeFullCpi, R.Pass ? "true" : "false",
                 I + 1 == Rows.size() ? "" : ",");
  }
  std::fprintf(Out, "  ],\n  \"passes\": %u,\n  \"metrics\": %s\n}\n", Passes,
               obs::MetricsRegistry::global().snapshotJson(2).c_str());
  std::fclose(Out);
  std::printf("wrote BENCH_stencil.json\n");

  std::printf("%s", obs::renderReport().c_str());

  if (Passes < RequiredPasses) {
    std::fprintf(stderr,
                 "FAIL: copy-and-patch beat the encoder by %.0fx on only %u "
                 "of %zu workloads (need >= %u)\n",
                 RequiredRatio, Passes, Rows.size(), RequiredPasses);
    return 1;
  }
  return 0;
}
