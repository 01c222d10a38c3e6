//===- cache/SpecKey.cpp - Structural fingerprint of a cspec --------------==//

#include "cache/SpecKey.h"

#include "core/SpecInterp.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "observability/Trace.h"
#include "support/Hash.h"
#include "support/Timing.h"
#include "verify/Verify.h"

#include <bit>
#include <cstring>

using namespace tcc;
using namespace tcc::cache;
using namespace tcc::core;

KeyBytes::KeyBytes(const std::uint8_t *Data, std::size_t Size) : Size(Size) {
  if (!Size)
    return;
  std::shared_ptr<std::uint8_t[]> B =
      std::make_shared_for_overwrite<std::uint8_t[]>(Size);
  std::memcpy(B.get(), Data, Size);
  Buf = std::move(B);
}

namespace {

/// Stmt records start with this bit set over the StmtKind; expr records
/// start with the bare ExprKind, which stays below it.
constexpr std::uint8_t StmtTag = 0x80;

/// Widest record of each node type before its argument or body list:
/// three bytes, a 5-byte LocalId varint, a payload (putWord stores 9 bytes
/// whatever it keeps), and five 5-byte varints (links and list length).
constexpr std::size_t MaxRecord = 3 + 5 + 9 + 5 * 5;

/// Serializes a spec into canonical bytes: the options, the vspec table,
/// then one record per node in creation order (see SpecKey.h). Derived
/// node facts (RegNeed, Flags, CallFpArgs) are skipped: they are functions
/// of the serialized structure.
class KeyWriter {
public:
  KeyWriter(std::vector<std::uint8_t> &Out, const Context &Ctx,
            std::vector<ExtRef> *Refs = nullptr)
      : Out(Out), Ctx(&Ctx), Refs(Refs) {
    if (Out.size() < 1024)
      Out.resize(1024);
    Cur = Out.data();
    End = Cur + Out.size();
  }

  bool Cacheable = true;

  std::size_t size() const {
    return static_cast<std::size_t>(Cur - Out.data());
  }

  // Key construction sits on the cache-hit path, so the serializer is tuned
  // like one: a raw cursor over a pre-grown buffer, one capacity check per
  // record covering all of its fixed-size fields, then unchecked stores.
  // Host byte order is fine — SpecKeys never leave the process, and
  // snapshot files are x86-64 only.
  void ensure(std::size_t N) {
    if (static_cast<std::size_t>(End - Cur) < N)
      grow(N);
  }
  void raw(const void *P, std::size_t N) {
    std::memcpy(Cur, P, N);
    Cur += N;
  }
  void u8(std::uint8_t V) { *Cur++ = V; }
  void u32(std::uint32_t V) { raw(&V, sizeof V); }
  void u64(std::uint64_t V) { raw(&V, sizeof V); }
  void varint(std::uint32_t V) { Cur = putVarint(Cur, V); }

  /// The records of nodes 0..Root->Ord, preceded by their count.
  void nodes(const StmtNode *Root) {
    ensure(5);
    if (!Root) {
      varint(0);
      return;
    }
    if (Root->Ctx != Ctx) {
      Cacheable = false;
      return;
    }
    std::uint32_t Count = Root->Ord + 1;
    varint(Count);
    if (!Ctx->forEachNode(Count, [this](const auto *N) { record(*N); }))
      Cacheable = false;
  }

private:
  /// The distance from \p Ord back to child \p C (0 for null). A child
  /// that is not strictly older, or not from this Context, has no place in
  /// the creation-order form: the spec becomes uncacheable.
  template <typename NodeT>
  std::uint32_t link(std::uint32_t Ord, const NodeT *C) {
    if (!C)
      return 0;
    if (C->Ctx != Ctx || C->Ord >= Ord) {
      Cacheable = false;
      return 0;
    }
    return Ord - C->Ord;
  }

  // The record writers read the node into locals and store through a
  // local cursor: a byte store may alias any object, so storing through
  // the Cur member would reload and re-store it around every byte.
  void record(const ExprNode &N) {
    std::uint32_t Ord = N.Ord;
    std::uint32_t A = link(Ord, N.A), B = link(Ord, N.B), C = link(Ord, N.C);
    std::uint32_t ArgC = N.ArgC;
    ensure(MaxRecord + 5 * static_cast<std::size_t>(ArgC));
    std::uint8_t *P = Cur;
    P[0] = static_cast<std::uint8_t>(N.Kind);
    P[1] = static_cast<std::uint8_t>(N.Type);
    P[2] = N.OpByte;
    P = putVarint(P + 3, static_cast<std::uint32_t>(N.LocalId) + 1);
    switch (N.Kind) {
    case ExprKind::ConstInt:
    case ExprKind::ConstLong: {
      // Zigzag, so small negative `$` values stay short too.
      auto V = static_cast<std::uint64_t>(N.IntVal);
      P = putWord(P, (V << 1) ^ static_cast<std::uint64_t>(N.IntVal >> 63));
      break;
    }
    case ExprKind::ConstDouble:
      P = put64(P, std::bit_cast<std::uint64_t>(N.FpVal));
      break;
    case ExprKind::FreeVar:
    case ExprKind::Call: {
      // Captured addresses are part of the code the walk emits. In persist
      // mode (Refs attached) the key stays address-independent: the bytes
      // carry the first-occurrence ordinal, the addresses land in Refs.
      std::uint64_t Addr = static_cast<std::uint64_t>(
          reinterpret_cast<std::uintptr_t>(N.PtrVal));
      if (Refs)
        P = putVarint(P, refOrdinal(static_cast<std::uint8_t>(N.Kind), Addr));
      else
        P = putWord(P, Addr);
      break;
    }
    case ExprKind::RtEval:
      // The rc interpreter may read memory under $: the immediate it embeds
      // depends on the pointee at instantiation time, not on the tree.
      if (N.A && (N.A->Flags & EF_HasMemOp))
        Cacheable = false;
      break;
    default:
      break;
    }
    P = putVarint(P, A);
    P = putVarint(P, B);
    P = putVarint(P, C);
    P = putVarint(P, ArgC);
    for (std::uint32_t I = 0; I < ArgC; ++I)
      P = putVarint(P, link(Ord, N.ArgV[I]));
    Cur = P;
  }

  void record(const StmtNode &S) {
    std::uint32_t Ord = S.Ord;
    std::uint32_t E = link(Ord, S.E), E2 = link(Ord, S.E2),
                  E3 = link(Ord, S.E3), S1 = link(Ord, S.S1),
                  S2 = link(Ord, S.S2);
    std::uint32_t BodyC = S.BodyC;
    ensure(MaxRecord + 5 * static_cast<std::size_t>(BodyC));
    std::uint8_t *P = Cur;
    P[0] = StmtTag | static_cast<std::uint8_t>(S.Kind);
    P[1] = S.OpByte;
    P = putVarint(P + 2, static_cast<std::uint32_t>(S.LocalId) + 1);
    P = putVarint(P, E);
    P = putVarint(P, E2);
    P = putVarint(P, E3);
    P = putVarint(P, S1);
    P = putVarint(P, S2);
    P = putVarint(P, BodyC);
    for (std::uint32_t I = 0; I < BodyC; ++I)
      P = putVarint(P, link(Ord, S.BodyV[I]));
    Cur = P;
  }

  static std::uint8_t *putVarint(std::uint8_t *P, std::uint32_t V) {
    while (V >= 0x80) {
      *P++ = static_cast<std::uint8_t>(V | 0x80);
      V >>= 7;
    }
    *P++ = static_cast<std::uint8_t>(V);
    return P;
  }
  static std::uint8_t *put64(std::uint8_t *P, std::uint64_t V) {
    std::memcpy(P, &V, 8);
    return P + 8;
  }
  /// \p V as a byte count and that many low-order bytes: branch-free, and
  /// canonical because the count is the minimal one.
  static std::uint8_t *putWord(std::uint8_t *P, std::uint64_t V) {
    unsigned Len = (static_cast<unsigned>(std::bit_width(V)) + 7) / 8;
    P[0] = static_cast<std::uint8_t>(Len);
    std::memcpy(P + 1, &V, 8);
    return P + 1 + Len;
  }

  /// First-occurrence ordinal of (Kind, Addr). Linear scan: specs capture
  /// a handful of externals, not hundreds.
  std::uint32_t refOrdinal(std::uint8_t Kind, std::uint64_t Addr) {
    for (std::size_t I = 0; I < Refs->size(); ++I)
      if ((*Refs)[I].Kind == Kind && (*Refs)[I].Addr == Addr)
        return static_cast<std::uint32_t>(I);
    Refs->push_back({Kind, Addr});
    return static_cast<std::uint32_t>(Refs->size() - 1);
  }

  void grow(std::size_t N) {
    std::size_t Len = size();
    std::size_t Cap = Out.size();
    do
      Cap *= 2;
    while (Cap - Len < N);
    Out.resize(Cap);
    Cur = Out.data() + Len;
    End = Out.data() + Out.size();
  }

  std::vector<std::uint8_t> &Out;
  const Context *Ctx;
  std::vector<ExtRef> *Refs;
  std::uint8_t *Cur = nullptr;
  std::uint8_t *End = nullptr;
};

/// The canonical serialization both key flavors share; only the FreeVar /
/// Call payload differs (address vs ordinal), decided by whether the
/// writer carries a Refs collector.
void writeKeyBody(KeyWriter &W, const Context &Ctx, Stmt Body,
                  EvalType RetType, const CompileOptions &Opts) {
  // Everything in CompileOptions that changes generated code (Pool changes
  // only where code lives, so it is deliberately absent).
  //
  // Fixed-width options prefix: one capacity check covers it all.
  W.ensure(32);
  // Backend is the FIRST key byte and covers BackendKind exhaustively:
  // VCode=0, ICode=1, PCode=2 each serialize to a distinct byte, and key
  // equality is full byte-string equality, so the three back ends can never
  // share a cache slot. (PCODE output is byte-identical to VCODE by
  // construction, but the entries stay separate on purpose — a cached hit
  // must reproduce the backend the options asked for, including its stats
  // and audit posture.) Pinned by SpecKey.BackendsOccupyDistinctSlots.
  W.u8(static_cast<std::uint8_t>(Opts.Backend));
  W.u8(static_cast<std::uint8_t>(Opts.RegAlloc));
  W.u8(static_cast<std::uint8_t>(Opts.Spill));
  W.u8(static_cast<std::uint8_t>(Opts.Placement));
  W.u64(Opts.CodeCapacity);
  W.u32(Opts.UnrollLimit);
  // Tier-0 profile digest: the per-loop unroll decisions steer code shape,
  // so differently-profiled compiles of one spec must occupy distinct
  // slots (and snapshot records). Unprofiled compiles write a single zero
  // byte.
  W.u8(Opts.TripProfile != nullptr);
  if (const core::Tier0ProfileSnapshot *TP = Opts.TripProfile) {
    // +8 keeps the trailing flag bytes below inside this check's envelope.
    W.ensure(12 + 5 * static_cast<std::size_t>(TP->NumLoops));
    W.u32(TP->NumLoops);
    for (std::uint32_t I = 0; I < TP->NumLoops; ++I) {
      W.u8(TP->Decision[I]);
      W.u32(TP->MaxTrip[I]);
    }
  }
  // Profiled code carries an extra prologue instruction, so it can never
  // share an entry with unprofiled code. ProfileName is a label, not a
  // semantic input: same-key profiled compiles share the first entry's
  // counter (and name).
  W.u8(Opts.Profile ? 1 : 0);
  // The *effective* verify setting (option OR the TICKC_VERIFY environment):
  // a hit on a verified entry must mean the stored code actually passed the
  // checkers, and flipping the environment variable mid-run must not let
  // unverified cached code satisfy a verified lookup.
  W.u8(verify::enabled(Opts.Verify) ? 1 : 0);
  W.u8(static_cast<std::uint8_t>(RetType));

  // The vspec table: LocalIds in the records index into it.
  const std::vector<LocalInfo> &Locals = Ctx.locals();
  W.ensure(5 + 6 * Locals.size());
  W.varint(static_cast<std::uint32_t>(Locals.size()));
  for (const LocalInfo &L : Locals) {
    W.u8(static_cast<std::uint8_t>(L.Type));
    W.varint(static_cast<std::uint32_t>(L.ArgIndex) + 1);
  }

  W.nodes(Body.node());
}

struct KeyMetrics {
  obs::Histogram &Bytes;
  obs::Counter &Cycles;
  static KeyMetrics &get() {
    auto &R = obs::MetricsRegistry::global();
    static KeyMetrics M{R.histogram(obs::names::HistCacheKeyBytes),
                        R.counter(obs::names::CacheKeyCycles)};
    return M;
  }
};

} // namespace

SpecKey cache::buildSpecKey(const Context &Ctx, Stmt Body, EvalType RetType,
                            const CompileOptions &Opts) {
  obs::TraceSpan Span(obs::SpanKind::SpecFingerprint);
  std::uint64_t T0 = readCycleCounter();
  // Serialized into a per-thread scratch buffer; only a cacheable key's
  // bytes are copied out, once, into the buffer its copies share.
  static thread_local std::vector<std::uint8_t> Scratch;
  KeyWriter W(Scratch, Ctx);
  writeKeyBody(W, Ctx, Body, RetType, Opts);
  SpecKey K;
  K.Cacheable = W.Cacheable;
  K.Hash = support::hashBytes(Scratch.data(), W.size());
  if (K.Cacheable)
    K.Bytes = KeyBytes(Scratch.data(), W.size());
  KeyMetrics &M = KeyMetrics::get();
  M.Bytes.record(W.size());
  M.Cycles.inc(readCycleCounter() - T0);
  return K;
}

PersistKey cache::buildPersistKey(const Context &Ctx, Stmt Body,
                                  EvalType RetType,
                                  const CompileOptions &Opts) {
  PersistKey K;
  KeyWriter W(K.Bytes, Ctx, &K.Refs);
  writeKeyBody(W, Ctx, Body, RetType, Opts);
  K.Bytes.resize(W.size());
  K.Cacheable = W.Cacheable;
  K.Hash = support::hashBytes(K.Bytes.data(), K.Bytes.size());
  return K;
}
