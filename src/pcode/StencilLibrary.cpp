//===- pcode/StencilLibrary.cpp - Self-stenciling builder ------------------==//
//
// Builds the copy-and-patch stencil library by driving the ordinary VCODE /
// x86::Assembler emission path once (or twice, for immediate-bearing ops)
// per operand shape, diffing sentinel renders to discover patch holes, and
// validating every template against the strict decoder. Runs once per
// process, the first time a PCODE compile (or a test) asks for the library.
//
//===----------------------------------------------------------------------===//

#include "pcode/StencilLibrary.h"

#include "observability/Metrics.h"
#include "observability/Names.h"
#include "support/Error.h"
#include "support/Timing.h"
#include "vcode/VCode.h"
#include "x86/X86Decoder.h"

#include <cstdio>
#include <cstring>

using namespace tcc;
using namespace tcc::pcode;

namespace {

// Sentinel operand pairs. Within each class the two values differ in every
// encoded byte, so the byte-diff of the two renders is exactly the set of
// value-dependent bytes (the holes). The builder fatals if a diff run does
// not decompose cleanly, so a violated assumption cannot ship a bad stencil.
constexpr std::int32_t SImm32A = 0x12345678;
constexpr std::int32_t SImm32B = 0x6EDCBA87; // bytes 87 BA DC 6E vs 78 56 34 12
constexpr std::int32_t SImm8A = 0x55;
constexpr std::int32_t SImm8B = 0x2A;
constexpr std::int64_t SImm64A = 0x0123456789ABCDEFll;
constexpr std::int64_t SImm64B = 0x7EDCBA9876543210ll;
constexpr int SKA = 5; // shift counts / power-of-two exponents
constexpr int SKB = 9;

[[noreturn]] void buildFatal(const char *What, const char *Why) {
  static char Msg[256];
  std::snprintf(Msg, sizeof(Msg), "stencil library build: %s: %s", What, Why);
  reportFatalError(Msg);
}

class Builder {
public:
  explicit Builder(StencilLibrary &L) : L(L) {}

  void buildAll();

private:
  static constexpr std::size_t BufCap = 64;

  StencilLibrary &L;
  Arena Scratch{1 << 12};

  /// Renders one op through a fresh VCODE machine over \p Buf.
  template <class EmitF>
  void renderOne(std::uint8_t (&Buf)[BufCap], std::size_t &Len, unsigned &Ins,
                 EmitF &&Emit) {
    vcode::VCode V(Buf, BufCap, &Scratch);
    Emit(V);
    Len = V.codeBytes();
    Ins = V.instructionsEmitted();
  }

  /// Renders one op through a bare encoder (for fused VCODE ops whose
  /// pieces — compare, setcc+zero-extend, return moves — have no 1:1
  /// public entry point; the calls replicate the fallback bodies exactly).
  template <class EmitF>
  void renderOneRaw(std::uint8_t (&Buf)[BufCap], std::size_t &Len,
                    unsigned &Ins, EmitF &&Emit) {
    x86::Assembler A(Buf, BufCap);
    Emit(A);
    Len = A.pc();
    Ins = A.instructionsEmitted();
  }

  void store(Stencil &S, const std::uint8_t *Bytes, std::size_t Len,
             unsigned Ins, const char *What) {
    if (Len == 0 || Len > x86::Assembler::StencilWindow)
      buildFatal(What, "render length out of range");
    if (Ins == 0 || Ins > 255)
      buildFatal(What, "render instruction count out of range");
    S.Len = static_cast<std::uint8_t>(Len);
    S.Instrs = static_cast<std::uint8_t>(Ins);
    std::memcpy(S.Bytes, Bytes, Len);
  }

  /// Decodes the finished stencil with the strict decoder; every byte must
  /// belong to an accepted instruction and the instruction count must match
  /// the assembler's own tally.
  void decodeValidate(const Stencil &S, const char *What) {
    std::size_t Off = 0;
    unsigned N = 0;
    while (Off < S.Len) {
      x86::Decoded D;
      const char *Err = nullptr;
      if (!x86::decodeOne(S.Bytes, S.Len, Off, D, &Err))
        buildFatal(What, Err ? Err : "undecodable stencil bytes");
      L.ClassMask |= 1ull << static_cast<unsigned>(D.Cls);
      Off += D.Len;
      ++N;
    }
    if (Off != S.Len)
      buildFatal(What, "decode overran stencil");
    if (N != S.Instrs)
      buildFatal(What, "decoded instruction count mismatch");
    ++L.Count;
  }

  /// Classifies the byte-diff of two sentinel renders into holes.
  void discoverHoles(Stencil &S, const std::uint8_t *B1,
                     const std::uint8_t *B2, std::int64_t H1, std::int64_t H2,
                     const char *What) {
    auto matches = [&](std::size_t At, std::size_t RunLen, HoleKind K) {
      auto field = [&](const std::uint8_t *B, std::int64_t H) {
        std::uint64_t W = 0;
        std::memcpy(&W, B + At, RunLen);
        switch (K) {
        case HoleKind::Raw8:
          return W == (static_cast<std::uint64_t>(H) & 0xFF);
        case HoleKind::Raw32:
          return W == (static_cast<std::uint64_t>(H) & 0xFFFFFFFF);
        case HoleKind::Raw64:
          return W == static_cast<std::uint64_t>(H);
        case HoleKind::Sub32:
          return W == (static_cast<std::uint64_t>(32 - H) & 0xFF);
        }
        return false;
      };
      return field(B1, H1) && field(B2, H2);
    };
    std::size_t I = 0;
    while (I < S.Len) {
      if (B1[I] == B2[I]) {
        ++I;
        continue;
      }
      std::size_t End = I;
      while (End < S.Len && B1[End] != B2[End])
        ++End;
      std::size_t RunLen = End - I;
      HoleKind K;
      if (RunLen == 8 && matches(I, 8, HoleKind::Raw64))
        K = HoleKind::Raw64;
      else if (RunLen == 4 && matches(I, 4, HoleKind::Raw32))
        K = HoleKind::Raw32;
      else if (RunLen == 1 && matches(I, 1, HoleKind::Raw8))
        K = HoleKind::Raw8;
      else if (RunLen == 1 && matches(I, 1, HoleKind::Sub32))
        K = HoleKind::Sub32;
      else
        buildFatal(What, "unclassifiable hole in sentinel diff");
      if (S.NumHoles >= 4)
        buildFatal(What, "too many holes");
      S.Holes[S.NumHoles].Offset = static_cast<std::uint8_t>(I);
      S.Holes[S.NumHoles].Kind = K;
      ++S.NumHoles;
      I = End;
    }
    if (S.NumHoles == 0)
      buildFatal(What, "immediate op rendered no holes");
  }

  /// Single render: ops whose encoding has no value-dependent bytes.
  template <class EmitF> void renderV(Stencil &S, EmitF &&Emit,
                                      const char *What) {
    std::uint8_t Buf[BufCap];
    std::size_t Len;
    unsigned Ins;
    renderOne(Buf, Len, Ins, Emit);
    store(S, Buf, Len, Ins, What);
    decodeValidate(S, What);
  }

  template <class EmitF> void renderRaw(Stencil &S, EmitF &&Emit,
                                        const char *What) {
    std::uint8_t Buf[BufCap];
    std::size_t Len;
    unsigned Ins;
    renderOneRaw(Buf, Len, Ins, Emit);
    store(S, Buf, Len, Ins, What);
    decodeValidate(S, What);
  }

  /// Dual render: emits with sentinels E1/E2, expects the diff to encode
  /// hole values H1/H2 (usually the same as E1/E2; the power-of-two mul/div
  /// ops emit with 1<<K but patch with K). Validates the relocation table
  /// by re-patching render #1 with H2 and comparing against render #2.
  template <class EmitF>
  void renderVImm2(Stencil &S, std::int64_t E1, std::int64_t E2,
                   std::int64_t H1, std::int64_t H2, EmitF &&Emit,
                   const char *What) {
    std::uint8_t B1[BufCap], B2[BufCap];
    std::size_t L1, L2;
    unsigned I1, I2;
    renderOne(B1, L1, I1, [&](vcode::VCode &V) { Emit(V, E1); });
    renderOne(B2, L2, I2, [&](vcode::VCode &V) { Emit(V, E2); });
    finishDual(S, B1, L1, I1, B2, L2, I2, H1, H2, What);
  }

  template <class EmitF>
  void renderVImm(Stencil &S, std::int64_t E1, std::int64_t E2, EmitF &&Emit,
                  const char *What) {
    renderVImm2(S, E1, E2, E1, E2, Emit, What);
  }

  template <class EmitF>
  void renderRawImm(Stencil &S, std::int64_t E1, std::int64_t E2, EmitF &&Emit,
                    const char *What) {
    std::uint8_t B1[BufCap], B2[BufCap];
    std::size_t L1, L2;
    unsigned I1, I2;
    renderOneRaw(B1, L1, I1, [&](x86::Assembler &A) { Emit(A, E1); });
    renderOneRaw(B2, L2, I2, [&](x86::Assembler &A) { Emit(A, E2); });
    finishDual(S, B1, L1, I1, B2, L2, I2, E1, E2, What);
  }

  void finishDual(Stencil &S, const std::uint8_t *B1, std::size_t L1,
                  unsigned I1, const std::uint8_t *B2, std::size_t L2,
                  unsigned I2, std::int64_t H1, std::int64_t H2,
                  const char *What) {
    if (L1 != L2 || I1 != I2)
      buildFatal(What, "sentinel renders disagree on shape");
    store(S, B1, L1, I1, What);
    discoverHoles(S, B1, B2, H1, H2, What);
    // The relocation table must reproduce render #2 from render #1.
    std::uint8_t Chk[x86::Assembler::StencilWindow];
    std::memcpy(Chk, S.Bytes, sizeof(Chk));
    applyStencilHoles(Chk, S, H2);
    if (std::memcmp(Chk, B2, L1) != 0)
      buildFatal(What, "re-patched render does not match sentinel render");
    decodeValidate(S, What);
  }

  void buildFrame();
  void buildMovesAndConstants();
  void buildIntALU();
  void buildImmediateForms();
  void buildCompares();
  void buildMemory();
  void buildBranches();
  void buildEncoderForms();
  void buildSse();
};

void Builder::buildFrame() {
  {
    std::uint8_t Buf[BufCap];
    vcode::VCode V(Buf, BufCap, &Scratch);
    V.enter();
    store(L.Enter.S, Buf, V.codeBytes(), V.instructionsEmitted(), "enter");
    decodeValidate(L.Enter.S, "enter");
    L.Enter.FrameOff = static_cast<std::uint8_t>(V.framePatchOffset());
    for (int I = 0; I < vcode::VCode::NumIntPool; ++I)
      L.Enter.SaveOff[I] = static_cast<std::uint8_t>(V.saveSitePcs()[I]);
  }
  for (std::uint32_t Mask = 0; Mask < 32; ++Mask)
    renderRaw(
        L.Epi[Mask],
        [&](x86::Assembler &A) { vcode::VCode::emitEpilogue(A, Mask); },
        "epilogue");
  for (unsigned Index = 0; Index < 6; ++Index)
    for (int D = 0; D < StencilLibrary::NI; ++D)
      renderV(
          L.BindArgI[Index][D],
          [&](vcode::VCode &V) { V.bindArgI(Index, D); }, "bindArgI");
  for (int R = 0; R < StencilLibrary::NI; ++R) {
    x86::GPR P = vcode::detail::IntPoolPhys[R];
    renderRaw(
        L.RetMovI[R], [&](x86::Assembler &A) { A.movRR32(x86::RAX, P); },
        "retMovI");
    renderRaw(
        L.RetMovL[R], [&](x86::Assembler &A) { A.movRR64(x86::RAX, P); },
        "retMovL");
    renderRaw(
        L.RetJmpI[R],
        [&](x86::Assembler &A) {
          A.movRR32(x86::RAX, P);
          A.jmp();
        },
        "retJmpI");
    renderRaw(
        L.RetJmpL[R],
        [&](x86::Assembler &A) {
          A.movRR64(x86::RAX, P);
          A.jmp();
        },
        "retJmpL");
    renderRaw(
        L.ResultToI[R], [&](x86::Assembler &A) { A.movRR64(P, x86::RAX); },
        "resultToI");
  }
  renderRawImm(
      L.RetJmpII, SImm32A, SImm32B,
      [&](x86::Assembler &A, std::int64_t Imm) {
        A.movRI32(x86::RAX, static_cast<std::uint32_t>(Imm));
        A.jmp();
      },
      "retJmpII");
}

void Builder::buildMovesAndConstants() {
  for (int D = 0; D < StencilLibrary::NI; ++D) {
    renderV(
        L.SetI[D][0], [&](vcode::VCode &V) { V.setI(D, 0); }, "setI zero");
    renderVImm(
        L.SetI[D][1], SImm32A, SImm32B,
        [&](vcode::VCode &V, std::int64_t Imm) {
          V.setI(D, static_cast<std::int32_t>(Imm));
        },
        "setI imm32");
    renderV(
        L.SetL[D][0], [&](vcode::VCode &V) { V.setL(D, 0); }, "setL zero");
    renderVImm(
        L.SetL[D][1], SImm32A, SImm32B,
        [&](vcode::VCode &V, std::int64_t Imm) { V.setL(D, Imm); },
        "setL sext32");
    renderVImm(
        L.SetL[D][2], SImm64A, SImm64B,
        [&](vcode::VCode &V, std::int64_t Imm) { V.setL(D, Imm); },
        "setL movabs");
    for (int S = 0; S < StencilLibrary::NI; ++S) {
      if (S == D)
        continue;
      renderV(
          L.MovL[D][S], [&](vcode::VCode &V) { V.movL(D, S); }, "movL");
    }
  }
}

void Builder::buildIntALU() {
  using SL = StencilLibrary;
  struct {
    SL::IntBinOp Op;
    void (vcode::VCode::*Fn)(vcode::Reg, vcode::Reg, vcode::Reg);
    const char *Name;
  } Bins[] = {
      {SL::AddI, &vcode::VCode::addI, "addI"},
      {SL::SubI, &vcode::VCode::subI, "subI"},
      {SL::MulI, &vcode::VCode::mulI, "mulI"},
      {SL::AndI, &vcode::VCode::andI, "andI"},
      {SL::OrI, &vcode::VCode::orI, "orI"},
      {SL::XorI, &vcode::VCode::xorI, "xorI"},
      {SL::AddL, &vcode::VCode::addL, "addL"},
      {SL::SubL, &vcode::VCode::subL, "subL"},
      {SL::MulL, &vcode::VCode::mulL, "mulL"},
  };
  for (const auto &B : Bins)
    for (int D = 0; D < SL::NI; ++D)
      for (int A = 0; A < SL::NI; ++A)
        for (int C = 0; C < SL::NI; ++C)
          renderV(
              L.IntBin[B.Op][D][A][C],
              [&](vcode::VCode &V) { (V.*B.Fn)(D, A, C); }, B.Name);
  for (int D = 0; D < SL::NI; ++D)
    for (int A = 0; A < SL::NI; ++A) {
      renderV(
          L.NegI[D][A], [&](vcode::VCode &V) { V.negI(D, A); }, "negI");
      renderV(
          L.NotI[D][A], [&](vcode::VCode &V) { V.notI(D, A); }, "notI");
      renderV(
          L.SextIToL[D][A], [&](vcode::VCode &V) { V.sextIToL(D, A); },
          "sextIToL");
    }
}

void Builder::buildImmediateForms() {
  using SL = StencilLibrary;
  struct {
    SL::BinIIOp Op;
    void (vcode::VCode::*Fn)(vcode::Reg, vcode::Reg, std::int32_t);
    const char *Name;
  } Imms[] = {
      {SL::AddII, &vcode::VCode::addII, "addII"},
      {SL::SubII, &vcode::VCode::subII, "subII"},
      {SL::AndII, &vcode::VCode::andII, "andII"},
      {SL::OrII, &vcode::VCode::orII, "orII"},
      {SL::XorII, &vcode::VCode::xorII, "xorII"},
      {SL::AddLI, &vcode::VCode::addLI, "addLI"},
  };
  for (const auto &B : Imms)
    for (int D = 0; D < SL::NI; ++D)
      for (int A = 0; A < SL::NI; ++A) {
        renderVImm(
            L.BinII[B.Op][D][A][0], SImm8A, SImm8B,
            [&](vcode::VCode &V, std::int64_t Imm) {
              (V.*B.Fn)(D, A, static_cast<std::int32_t>(Imm));
            },
            B.Name);
        renderVImm(
            L.BinII[B.Op][D][A][1], SImm32A, SImm32B,
            [&](vcode::VCode &V, std::int64_t Imm) {
              (V.*B.Fn)(D, A, static_cast<std::int32_t>(Imm));
            },
            B.Name);
      }
  struct {
    SL::ShiftIIOp Op;
    void (vcode::VCode::*Fn)(vcode::Reg, vcode::Reg, std::uint8_t);
    const char *Name;
  } Shifts[] = {
      {SL::ShlII, &vcode::VCode::shlII, "shlII"},
      {SL::ShrII, &vcode::VCode::shrII, "shrII"},
      {SL::UshrII, &vcode::VCode::ushrII, "ushrII"},
      {SL::ShlLI, &vcode::VCode::shlLI, "shlLI"},
  };
  for (const auto &B : Shifts)
    for (int D = 0; D < SL::NI; ++D)
      for (int A = 0; A < SL::NI; ++A)
        renderVImm(
            L.ShiftII[B.Op][D][A], SKA, SKB,
            [&](vcode::VCode &V, std::int64_t Imm) {
              (V.*B.Fn)(D, A, static_cast<std::uint8_t>(Imm));
            },
            B.Name);
  for (int D = 0; D < SL::NI; ++D)
    for (int A = 0; A < SL::NI; ++A) {
      // Emit with +/-(1 << k); the holes carry k itself.
      renderVImm2(
          L.MulIIPow2[0][D][A], 1 << SKA, 1 << SKB, SKA, SKB,
          [&](vcode::VCode &V, std::int64_t Imm) {
            V.mulII(D, A, static_cast<std::int32_t>(Imm));
          },
          "mulII pow2");
      renderVImm2(
          L.MulIIPow2[1][D][A], -(1 << SKA), -(1 << SKB), SKA, SKB,
          [&](vcode::VCode &V, std::int64_t Imm) {
            V.mulII(D, A, static_cast<std::int32_t>(Imm));
          },
          "mulII -pow2");
      renderVImm2(
          L.DivIIPow2[D][A], 1 << SKA, 1 << SKB, SKA, SKB,
          [&](vcode::VCode &V, std::int64_t Imm) {
            V.divII(D, A, static_cast<std::int32_t>(Imm));
          },
          "divII pow2");
      renderVImm2(
          L.ModIIPow2[D][A], 1 << SKA, 1 << SKB, SKA, SKB,
          [&](vcode::VCode &V, std::int64_t Imm) {
            V.modII(D, A, static_cast<std::int32_t>(Imm));
          },
          "modII pow2");
    }
}

void Builder::buildCompares() {
  using SL = StencilLibrary;
  for (int A = 0; A < SL::NI; ++A) {
    x86::GPR Pa = vcode::detail::IntPoolPhys[A];
    for (int B = 0; B < SL::NI; ++B) {
      x86::GPR Pb = vcode::detail::IntPoolPhys[B];
      renderRaw(
          L.CmpRR32[A][B], [&](x86::Assembler &As) { As.cmpRR32(Pa, Pb); },
          "cmpRR32");
      renderRaw(
          L.CmpRR64[A][B], [&](x86::Assembler &As) { As.cmpRR64(Pa, Pb); },
          "cmpRR64");
    }
    renderRawImm(
        L.CmpRI32[A][0], SImm8A, SImm8B,
        [&](x86::Assembler &As, std::int64_t Imm) {
          As.cmpRI32(Pa, static_cast<std::int32_t>(Imm));
        },
        "cmpRI32 imm8");
    renderRawImm(
        L.CmpRI32[A][1], SImm32A, SImm32B,
        [&](x86::Assembler &As, std::int64_t Imm) {
          As.cmpRI32(Pa, static_cast<std::int32_t>(Imm));
        },
        "cmpRI32 imm32");
    renderRaw(
        L.TestRR32[A], [&](x86::Assembler &As) { As.testRR32(Pa, Pa); },
        "testRR32");
  }
  // Only the condition nibbles condFor()/condForDouble() can produce
  // (B/AE/E/NE/BE/A, L/GE/LE/G): the strict decoder — deliberately —
  // rejects the rest, and the abstract machine never asks for them. The
  // unrendered entries keep Len == 0, which opSetZx asserts against.
  for (int C = 0; C < 16; ++C) {
    if (!((C >= 0x2 && C <= 0x7) || (C >= 0xC && C <= 0xF)))
      continue;
    const auto Cc = static_cast<x86::Cond>(C);
    for (int A = 0; A < SL::NI; ++A) {
      x86::GPR Pa = vcode::detail::IntPoolPhys[A];
      auto CmpJcc = [&](x86::Assembler &As, std::int64_t Imm) {
        As.cmpRI32(Pa, static_cast<std::int32_t>(Imm));
        (void)As.jcc(Cc);
      };
      renderRawImm(L.CmpJccRI32[A][0][C], SImm8A, SImm8B, CmpJcc,
                   "cmpRI32+jcc imm8");
      renderRawImm(L.CmpJccRI32[A][1][C], SImm32A, SImm32B, CmpJcc,
                   "cmpRI32+jcc imm32");
    }
    for (int D = 0; D < SL::NI; ++D) {
      x86::GPR Pd = vcode::detail::IntPoolPhys[D];
      renderRaw(
          L.SetZx[C][D],
          [&](x86::Assembler &As) {
            As.setcc(static_cast<x86::Cond>(C), Pd);
            As.movzx8RR(Pd, Pd);
          },
          "setcc+movzx");
    }
  }
}

void Builder::buildMemory() {
  using SL = StencilLibrary;
  struct {
    SL::LdOp Op;
    void (vcode::VCode::*Fn)(vcode::Reg, vcode::Reg, std::int32_t);
    const char *Name;
  } Lds[] = {
      {SL::LdI, &vcode::VCode::ldI, "ldI"},
      {SL::LdL, &vcode::VCode::ldL, "ldL"},
      {SL::LdI8s, &vcode::VCode::ldI8s, "ldI8s"},
      {SL::LdI8u, &vcode::VCode::ldI8u, "ldI8u"},
      {SL::LdI16s, &vcode::VCode::ldI16s, "ldI16s"},
      {SL::LdI16u, &vcode::VCode::ldI16u, "ldI16u"},
  };
  struct {
    SL::StOp Op;
    void (vcode::VCode::*Fn)(vcode::Reg, std::int32_t, vcode::Reg);
    const char *Name;
  } Sts[] = {
      {SL::StI, &vcode::VCode::stI, "stI"},
      {SL::StL, &vcode::VCode::stL, "stL"},
      {SL::StI8, &vcode::VCode::stI8, "stI8"},
      {SL::StI16, &vcode::VCode::stI16, "stI16"},
  };
  for (const auto &B : Lds)
    for (int D = 0; D < SL::NI; ++D)
      for (int Base = 0; Base < SL::NI; ++Base) {
        renderV(
            L.Ld[B.Op][D][Base][0],
            [&](vcode::VCode &V) { (V.*B.Fn)(D, Base, 0); }, B.Name);
        renderVImm(
            L.Ld[B.Op][D][Base][1], SImm8A, SImm8B,
            [&](vcode::VCode &V, std::int64_t Off) {
              (V.*B.Fn)(D, Base, static_cast<std::int32_t>(Off));
            },
            B.Name);
        renderVImm(
            L.Ld[B.Op][D][Base][2], SImm32A, SImm32B,
            [&](vcode::VCode &V, std::int64_t Off) {
              (V.*B.Fn)(D, Base, static_cast<std::int32_t>(Off));
            },
            B.Name);
      }
  for (const auto &B : Sts)
    for (int Base = 0; Base < SL::NI; ++Base)
      for (int S = 0; S < SL::NI; ++S) {
        renderV(
            L.St[B.Op][Base][S][0],
            [&](vcode::VCode &V) { (V.*B.Fn)(Base, 0, S); }, B.Name);
        renderVImm(
            L.St[B.Op][Base][S][1], SImm8A, SImm8B,
            [&](vcode::VCode &V, std::int64_t Off) {
              (V.*B.Fn)(Base, static_cast<std::int32_t>(Off), S);
            },
            B.Name);
        renderVImm(
            L.St[B.Op][Base][S][2], SImm32A, SImm32B,
            [&](vcode::VCode &V, std::int64_t Off) {
              (V.*B.Fn)(Base, static_cast<std::int32_t>(Off), S);
            },
            B.Name);
      }
}

void Builder::buildBranches() {
  // Branch stencils carry a zero rel32 exactly like the encoder's
  // placeholder; the abstract machine's label fixups patch the field in
  // both cases, so there is no hole to record here.
  for (int C = 0; C < 16; ++C) {
    if (!((C >= 0x2 && C <= 0x7) || (C >= 0xC && C <= 0xF)))
      continue;
    renderRaw(
        L.Jcc[C],
        [&](x86::Assembler &A) { (void)A.jcc(static_cast<x86::Cond>(C)); },
        "jcc");
  }
  renderRaw(
      L.JmpRel, [&](x86::Assembler &A) { (void)A.jmp(); }, "jmp");
}

void Builder::buildEncoderForms() {
  using SL = StencilLibrary;
  auto G = [](int R) { return static_cast<x86::GPR>(R); };
  for (int W = 0; W < 2; ++W)
    for (int D = 0; D < 16; ++D) {
      for (int S = 0; S < 16; ++S) {
        renderRaw(
            L.RawMovRR[W][D][S],
            [&](x86::Assembler &A) {
              W ? A.movRR64(G(D), G(S)) : A.movRR32(G(D), G(S));
            },
            "raw movRR");
        renderRaw(
            L.RawMovsxd[D][S],
            [&](x86::Assembler &A) { A.movsxd(G(D), G(S)); }, "raw movsxd");
        renderRawImm(
            L.RawImulRRI[W][D][S], SImm32A, SImm32B,
            [&](x86::Assembler &A, std::int64_t Imm) {
              auto I32 = static_cast<std::int32_t>(Imm);
              W ? A.imulRRI64(G(D), G(S), I32) : A.imulRRI32(G(D), G(S), I32);
            },
            "raw imulRRI");
        for (int C = 0; C < 3; ++C) {
          auto RenderLd = [&](x86::Assembler &A, std::int64_t Off) {
            auto O = static_cast<std::int32_t>(Off);
            W ? A.loadRM64(G(D), G(S), O) : A.loadRM32(G(D), G(S), O);
          };
          auto RenderSt = [&](x86::Assembler &A, std::int64_t Off) {
            auto O = static_cast<std::int32_t>(Off);
            W ? A.storeMR64(G(D), O, G(S)) : A.storeMR32(G(D), O, G(S));
          };
          if (C == 0) {
            renderRaw(
                L.RawLoad[W][D][S][0],
                [&](x86::Assembler &A) { RenderLd(A, 0); }, "raw load");
            renderRaw(
                L.RawStore[W][D][S][0],
                [&](x86::Assembler &A) { RenderSt(A, 0); }, "raw store");
          } else {
            std::int64_t E1 = C == 1 ? SImm8A : SImm32A;
            std::int64_t E2 = C == 1 ? SImm8B : SImm32B;
            renderRawImm(L.RawLoad[W][D][S][C], E1, E2, RenderLd, "raw load");
            renderRawImm(L.RawStore[W][D][S][C], E1, E2, RenderSt,
                         "raw store");
          }
        }
      }
      renderRawImm(
          L.RawMovRI32[D], SImm32A, SImm32B,
          [&](x86::Assembler &A, std::int64_t Imm) {
            A.movRI32(G(D), static_cast<std::uint32_t>(Imm));
          },
          "raw movRI32");
      renderRawImm(
          L.RawMovRI64[D], SImm64A, SImm64B,
          [&](x86::Assembler &A, std::int64_t Imm) {
            A.movRI64(G(D), static_cast<std::uint64_t>(Imm));
          },
          "raw movRI64");
      renderRawImm(
          L.RawMovRI64S[D], SImm32A, SImm32B,
          [&](x86::Assembler &A, std::int64_t Imm) {
            A.movRI64SExt32(G(D), static_cast<std::int32_t>(Imm));
          },
          "raw movRI64SExt32");
      for (int Op = 0; Op < SL::NumRawShift; ++Op)
        renderRawImm(
            L.RawShiftImm[Op][W][D], SKA, SKB,
            [&](x86::Assembler &A, std::int64_t Imm) {
              auto K = static_cast<std::uint8_t>(Imm);
              switch (Op) {
              case SL::RawShl:
                W ? A.shlRI64(G(D), K) : A.shlRI32(G(D), K);
                break;
              case SL::RawShr:
                W ? A.shrRI64(G(D), K) : A.shrRI32(G(D), K);
                break;
              default:
                W ? A.sarRI64(G(D), K) : A.sarRI32(G(D), K);
                break;
              }
            },
            "raw shiftRI");
    }
  struct {
    SL::RawBinOp Op;
    void (x86::Assembler::*R32)(x86::GPR, x86::GPR);
    void (x86::Assembler::*R64)(x86::GPR, x86::GPR);
    void (x86::Assembler::*I32)(x86::GPR, std::int32_t);
    void (x86::Assembler::*I64)(x86::GPR, std::int32_t);
    const char *Name;
  } Bins[] = {
      {SL::RawAdd, &x86::Assembler::addRR32, &x86::Assembler::addRR64,
       &x86::Assembler::addRI32, &x86::Assembler::addRI64, "raw add"},
      {SL::RawSub, &x86::Assembler::subRR32, &x86::Assembler::subRR64,
       &x86::Assembler::subRI32, &x86::Assembler::subRI64, "raw sub"},
      {SL::RawAnd, &x86::Assembler::andRR32, &x86::Assembler::andRR64,
       &x86::Assembler::andRI32, &x86::Assembler::andRI64, "raw and"},
      {SL::RawOr, &x86::Assembler::orRR32, &x86::Assembler::orRR64,
       &x86::Assembler::orRI32, &x86::Assembler::orRI64, "raw or"},
      {SL::RawXor, &x86::Assembler::xorRR32, &x86::Assembler::xorRR64,
       &x86::Assembler::xorRI32, &x86::Assembler::xorRI64, "raw xor"},
      {SL::RawCmp, &x86::Assembler::cmpRR32, &x86::Assembler::cmpRR64,
       &x86::Assembler::cmpRI32, &x86::Assembler::cmpRI64, "raw cmp"},
  };
  for (const auto &B : Bins)
    for (int W = 0; W < 2; ++W)
      for (int D = 0; D < 16; ++D) {
        for (int S = 0; S < 16; ++S)
          renderRaw(
              L.RawBin[B.Op][W][D][S],
              [&](x86::Assembler &A) { (A.*(W ? B.R64 : B.R32))(G(D), G(S)); },
              B.Name);
        for (int C = 0; C < 2; ++C)
          renderRawImm(
              L.RawBinImm[B.Op][W][D][C], C == 0 ? SImm8A : SImm32A,
              C == 0 ? SImm8B : SImm32B,
              [&](x86::Assembler &A, std::int64_t Imm) {
                (A.*(W ? B.I64 : B.I32))(G(D),
                                         static_cast<std::int32_t>(Imm));
              },
              B.Name);
      }
}

void Builder::buildSse() {
  auto X = [](int R) { return static_cast<x86::XMM>(R); };
  auto G = [](int R) { return static_cast<x86::GPR>(R); };
  void (x86::Assembler::*Arith[5])(x86::XMM, x86::XMM) = {
      &x86::Assembler::addsd, &x86::Assembler::subsd, &x86::Assembler::mulsd,
      &x86::Assembler::divsd, &x86::Assembler::sqrtsd};
  for (int D = 0; D < 16; ++D)
    for (int S = 0; S < 16; ++S) {
      renderRaw(
          L.RawSseMov[D][S],
          [&](x86::Assembler &A) { A.movsdRR(X(D), X(S)); }, "raw movapd");
      for (int Op = 0; Op < 5; ++Op)
        renderRaw(
            L.RawSseArith[Op][D][S],
            [&](x86::Assembler &A) { (A.*Arith[Op])(X(D), X(S)); },
            "raw sse arith");
      renderRaw(
          L.RawUcomisd[D][S],
          [&](x86::Assembler &A) { A.ucomisd(X(D), X(S)); }, "raw ucomisd");
      renderRaw(
          L.RawXorpd[D][S], [&](x86::Assembler &A) { A.xorpd(X(D), X(S)); },
          "raw xorpd");
      renderRaw(
          L.RawMovqXR[D][S],
          [&](x86::Assembler &A) { A.movqXR(X(D), G(S)); }, "raw movq");
    }
}

void Builder::buildAll() {
  buildFrame();
  buildMovesAndConstants();
  buildIntALU();
  buildImmediateForms();
  buildCompares();
  buildMemory();
  buildBranches();
  buildEncoderForms();
  buildSse();
}

} // namespace

const StencilLibrary &StencilLibrary::get() {
  static const StencilLibrary *Lib = [] {
    auto *L = new StencilLibrary();
    std::uint64_t T0 = readCycleCounterBegin();
    Builder(*L).buildAll();
    L->BuildCycles = readCycleCounterEnd() - T0;
    auto &R = obs::MetricsRegistry::global();
    R.counter(obs::names::StencilLibBuildCycles).inc(L->BuildCycles);
    R.counter(obs::names::StencilLibCount).inc(L->Count);
    R.counter(obs::names::StencilLibBytes).inc(sizeof(StencilLibrary));
    return L;
  }();
  return *Lib;
}
