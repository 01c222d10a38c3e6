//===- perfbench/Programs.cpp ----------------------------------------------==//
//
// Parameter ranges are chosen so generated bodies span roughly ten (small
// pow, hash) to several thousand (large binary, ms, dp) machine
// instructions, and so that interpreted first calls range from trivial to
// milliseconds (large heap and binary).
//
//===----------------------------------------------------------------------===//

#include "Programs.h"

#include "apps/BinSearch.h"
#include "apps/Compose.h"
#include "apps/DotProduct.h"
#include "apps/Hash.h"
#include "apps/Heapsort.h"
#include "apps/Marshal.h"
#include "apps/MatScale.h"
#include "apps/Newton.h"
#include "apps/Power.h"
#include "apps/Query.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

using namespace tcc;
using perfbench::Prog;
using perfbench::Spec;

namespace {

unsigned uni(std::mt19937_64 &R, unsigned Lo, unsigned Hi) {
  return std::uniform_int_distribution<unsigned>(Lo, Hi)(R);
}
int uniInt(std::mt19937_64 &R, int Lo, int Hi) {
  return std::uniform_int_distribution<int>(Lo, Hi)(R);
}
unsigned seed32(std::mt19937_64 &R) { return static_cast<unsigned>(R()); }

/// The value at quantile \p Q of the integers Lo..Hi.
unsigned pick(double Q, unsigned Lo, unsigned Hi) {
  auto Off = static_cast<unsigned>(Q * (Hi - Lo + 1));
  return Lo + std::min(Off, Hi - Lo);
}

std::uint64_t fnv(const void *P, std::size_t N,
                  std::uint64_t H = 0xcbf29ce484222325ull) {
  const auto *B = static_cast<const unsigned char *>(P);
  for (std::size_t I = 0; I < N; ++I)
    H = (H ^ B[I]) * 0x100000001b3ull;
  return H;
}

std::uint64_t step(std::uint64_t S, std::uint32_t V) { return S * 31 + V; }

/// Routes runEntry/runSlot through the program's drive(): one operation is
/// the same loop of calls whichever implementation answers them.
template <typename Derived, typename Sig> class SpecOf : public Spec {
public:
  using Spec::Spec;
  std::uint64_t runEntry(void *E) override {
    return self().drive(reinterpret_cast<Sig *>(E));
  }
  std::uint64_t runSlot(tier::TieredFn &F) override {
    return self().drive([&F](auto... A) { return F.call<Sig>(A...); });
  }

private:
  Derived &self() { return static_cast<Derived &>(*this); }
};

//===----------------------------------------------------------------------===//

class HashSpec final : public SpecOf<HashSpec, int(int)> {
public:
  HashSpec(std::mt19937_64 &R, double Q)
      : SpecOf(Prog::Hash), App(make(R, Q)) {}
  static apps::HashApp make(std::mt19937_64 &R, double Q) {
    unsigned Size = 1u << pick(Q, 5, 12);
    return apps::HashApp(Size, Size / 2, seed32(R));
  }
  template <class F> std::uint64_t drive(F &&Fn) {
    std::uint64_t S = 0;
    for (unsigned I = 0; I < Rounds; ++I)
      S = step(step(S, static_cast<std::uint32_t>(Fn(App.presentKey()))),
               static_cast<std::uint32_t>(Fn(App.absentKey())));
    return S;
  }
  std::uint64_t runStatic(bool O2) override {
    if (O2)
      return drive([this](int K) { return App.lookupStaticO2(K); });
    return drive([this](int K) { return App.lookupStaticO0(K); });
  }
  core::CompiledFn specialize(const core::CompileOptions &O) const override {
    return App.specialize(O);
  }
  tier::TieredFnHandle specializeTiered(cache::CompileService &S,
                                        tier::TierManager &M,
                                        const core::CompileOptions &O)
      const override {
    return App.specializeTiered(S, &M, O);
  }
  unsigned callsPerOp() const override { return 2 * Rounds; }

private:
  static constexpr unsigned Rounds = 16;
  apps::HashApp App;
};

class MsSpec final : public SpecOf<MsSpec, void(int *)> {
public:
  MsSpec(std::mt19937_64 &R, double Q)
      : SpecOf(Prog::Ms), App(make(R, Q)), Pristine(App.matrix()),
        Buf(Pristine.size()) {}
  static apps::MatScaleApp make(std::mt19937_64 &R, double Q) {
    int Factor = uniInt(R, 2, 64);
    if (R() & 1)
      Factor = -Factor;
    return apps::MatScaleApp(pick(Q, 4, 48), Factor, seed32(R));
  }
  template <class F> std::uint64_t drive(F &&Fn) {
    std::memcpy(Buf.data(), Pristine.data(), Buf.size() * sizeof(int));
    Fn(Buf.data());
    return 0;
  }
  std::uint64_t runStatic(bool O2) override {
    if (O2)
      return drive([this](int *M) { App.scaleStaticO2(M); });
    return drive([this](int *M) { App.scaleStaticO0(M); });
  }
  std::uint64_t outputDigest() const override {
    return fnv(Buf.data(), Buf.size() * sizeof(int));
  }
  core::CompiledFn specialize(const core::CompileOptions &O) const override {
    return App.specialize(O);
  }
  tier::TieredFnHandle specializeTiered(cache::CompileService &S,
                                        tier::TierManager &M,
                                        const core::CompileOptions &O)
      const override {
    return App.specializeTiered(S, &M, O);
  }
  unsigned callsPerOp() const override { return 1; }

private:
  apps::MatScaleApp App;
  std::vector<int> Pristine, Buf;
};

class HeapSpec final : public SpecOf<HeapSpec, void(apps::HeapRecord *)> {
public:
  HeapSpec(std::mt19937_64 &R, double Q)
      : SpecOf(Prog::Heap), App(pick(Q, 8, 400), seed32(R)),
        Pristine(App.data()), Buf(Pristine.size()) {}
  template <class F> std::uint64_t drive(F &&Fn) {
    std::memcpy(Buf.data(), Pristine.data(),
                Buf.size() * sizeof(apps::HeapRecord));
    Fn(Buf.data());
    return 0;
  }
  std::uint64_t runStatic(bool O2) override {
    if (O2)
      return drive([this](apps::HeapRecord *A) { App.sortStaticO2(A); });
    return drive([this](apps::HeapRecord *A) { App.sortStaticO0(A); });
  }
  std::uint64_t outputDigest() const override {
    return fnv(Buf.data(), Buf.size() * sizeof(apps::HeapRecord));
  }
  core::CompiledFn specialize(const core::CompileOptions &O) const override {
    return App.specialize(O);
  }
  tier::TieredFnHandle specializeTiered(cache::CompileService &S,
                                        tier::TierManager &M,
                                        const core::CompileOptions &O)
      const override {
    return App.specializeTiered(S, &M, O);
  }
  unsigned callsPerOp() const override { return 1; }

private:
  apps::HeapsortApp App;
  std::vector<apps::HeapRecord> Pristine, Buf;
};

class NtnSpec final : public SpecOf<NtnSpec, double(double)> {
public:
  NtnSpec(std::mt19937_64 &R, double Q)
      : SpecOf(Prog::Ntn), App(tolerance(R), pick(Q, 8, 64)) {
    std::uniform_real_distribution<double> X(0.5, 5.0);
    for (double &V : X0)
      V = X(R);
  }
  static double tolerance(std::mt19937_64 &R) {
    double T = 1;
    for (unsigned I = 0, E = uni(R, 3, 12); I < E; ++I)
      T /= 10;
    return T;
  }
  template <class F> std::uint64_t drive(F &&Fn) {
    std::uint64_t S = 0;
    for (double V : X0) {
      double Y = Fn(V);
      std::uint64_t Bits;
      std::memcpy(&Bits, &Y, sizeof Bits);
      S = S * 31 + Bits;
    }
    return S;
  }
  std::uint64_t runStatic(bool O2) override {
    if (O2)
      return drive([this](double V) { return App.solveStaticO2(V); });
    return drive([this](double V) { return App.solveStaticO0(V); });
  }
  core::CompiledFn specialize(const core::CompileOptions &O) const override {
    return App.specialize(O);
  }
  tier::TieredFnHandle specializeTiered(cache::CompileService &S,
                                        tier::TierManager &M,
                                        const core::CompileOptions &O)
      const override {
    return App.specializeTiered(S, &M, O);
  }
  unsigned callsPerOp() const override { return 8; }

private:
  apps::NewtonApp App;
  double X0[8] = {};
};

class CmpSpec final : public SpecOf<CmpSpec, int(std::uint32_t *)> {
public:
  CmpSpec(std::mt19937_64 &R, double Q)
      : SpecOf(Prog::Cmp), App(4 * pick(Q, 16, 1024), seed32(R)),
        Dst(App.words()) {}
  template <class F> std::uint64_t drive(F &&Fn) {
    return static_cast<std::uint32_t>(Fn(Dst.data()));
  }
  std::uint64_t runStatic(bool O2) override {
    if (O2)
      return drive([this](std::uint32_t *D) { return App.pipeStaticO2(D); });
    return drive([this](std::uint32_t *D) { return App.pipeStaticO0(D); });
  }
  std::uint64_t outputDigest() const override {
    return fnv(Dst.data(), Dst.size() * sizeof(std::uint32_t));
  }
  core::CompiledFn specialize(const core::CompileOptions &O) const override {
    return App.specialize(O);
  }
  tier::TieredFnHandle specializeTiered(cache::CompileService &S,
                                        tier::TierManager &M,
                                        const core::CompileOptions &O)
      const override {
    return App.specializeTiered(S, &M, O);
  }
  unsigned callsPerOp() const override { return 1; }

private:
  apps::ComposeApp App;
  std::vector<std::uint32_t> Dst;
};

/// Every query spec scans one shared database; only the plan varies.
const apps::QueryApp &queryDb() {
  static const apps::QueryApp Db(128, 6);
  return Db;
}

class QuerySpec final : public SpecOf<QuerySpec, int(const apps::Record *)> {
public:
  QuerySpec(std::mt19937_64 &R, double Q) : SpecOf(Prog::Query) {
    unsigned Cmps = pick(Q, 1, 16);
    Nodes.reserve(2 * Cmps - 1); // Children are pointers into Nodes.
    Root = build(R, Cmps);
  }
  template <class F> std::uint64_t drive(F &&Fn) {
    std::uint64_t N = 0;
    for (const apps::Record &Rec : queryDb().records())
      N += static_cast<std::uint32_t>(Fn(&Rec));
    return N;
  }
  std::uint64_t runStatic(bool O2) override {
    return static_cast<std::uint32_t>(O2 ? queryDb().countStaticO2(Root)
                                         : queryDb().countStaticO0(Root));
  }
  core::CompiledFn specialize(const core::CompileOptions &O) const override {
    return queryDb().specialize(Root, O);
  }
  tier::TieredFnHandle specializeTiered(cache::CompileService &S,
                                        tier::TierManager &M,
                                        const core::CompileOptions &O)
      const override {
    return queryDb().specializeTiered(Root, S, &M, O);
  }
  unsigned callsPerOp() const override {
    return static_cast<unsigned>(queryDb().records().size());
  }

private:
  /// A random plan tree with \p Cmps comparison leaves.
  const apps::QueryNode *build(std::mt19937_64 &R, unsigned Cmps) {
    apps::QueryNode N{};
    if (Cmps == 1) {
      static constexpr int Lo[] = {18, 0, 0, 8, 0};
      static constexpr int Hi[] = {77, 120000, 4, 19, 3};
      unsigned Field = uni(R, 0, 4);
      N.Kind = apps::QueryNode::CmpField;
      N.Field = static_cast<apps::QueryNode::FieldT>(Field);
      N.Op = static_cast<apps::QueryNode::OpT>(uni(R, 0, 5));
      N.Value = uniInt(R, Lo[Field], Hi[Field]);
    } else {
      unsigned Left = uni(R, 1, Cmps - 1);
      N.Kind = R() & 1 ? apps::QueryNode::And : apps::QueryNode::Or;
      N.L = build(R, Left);
      N.R = build(R, Cmps - Left);
    }
    Nodes.push_back(N);
    return &Nodes.back();
  }

  std::vector<apps::QueryNode> Nodes;
  const apps::QueryNode *Root = nullptr;
};

/// `void(int, ..., int, uint8_t *)` with N ints: the marshaler's signature
/// for an N-argument format.
template <unsigned N, typename = std::make_index_sequence<N>> struct MshlSig;
template <unsigned N, std::size_t... I>
struct MshlSig<N, std::index_sequence<I...>> {
  template <std::size_t> using Int = int;
  using type = void(Int<I>..., std::uint8_t *);
};

constexpr unsigned MarshalTuples = 16;
constexpr unsigned SlotBytes = 20; // The static reference writes 5 ints.

template <unsigned N>
class MshlSpec final : public SpecOf<MshlSpec<N>, typename MshlSig<N>::type> {
public:
  explicit MshlSpec(std::mt19937_64 &R)
      : SpecOf<MshlSpec<N>, typename MshlSig<N>::type>(Prog::Mshl),
        App(std::string(N, 'i')) {
    for (auto &T : Vals)
      for (int &V : T)
        V = uniInt(R, -100000, 100000);
  }
  template <class F> std::uint64_t drive(F &&Fn) {
    for (unsigned T = 0; T < MarshalTuples; ++T)
      callWith(Fn, Vals[T], Buf + SlotBytes * T, std::make_index_sequence<N>());
    return 0;
  }
  std::uint64_t runStatic(bool O2) override {
    auto *Ref = O2 ? &apps::MarshalApp::marshal5StaticO2
                   : &apps::MarshalApp::marshal5StaticO0;
    for (unsigned T = 0; T < MarshalTuples; ++T) {
      const int *V = Vals[T];
      Ref(Buf + SlotBytes * T, V[0], N > 1 ? V[1] : 0, N > 2 ? V[2] : 0,
          N > 3 ? V[3] : 0, N > 4 ? V[4] : 0);
    }
    return 0;
  }
  /// Only the 4N bytes the format writes count: the static reference
  /// always writes five ints.
  std::uint64_t outputDigest() const override {
    std::uint64_t H = 0xcbf29ce484222325ull;
    for (unsigned T = 0; T < MarshalTuples; ++T)
      H = fnv(Buf + SlotBytes * T, 4 * N, H);
    return H;
  }
  core::CompiledFn specialize(const core::CompileOptions &O) const override {
    return App.buildMarshaler(O);
  }
  tier::TieredFnHandle specializeTiered(cache::CompileService &S,
                                        tier::TierManager &M,
                                        const core::CompileOptions &O)
      const override {
    return App.buildMarshalerTiered(S, &M, O);
  }
  unsigned callsPerOp() const override { return MarshalTuples; }

private:
  template <class F, std::size_t... I>
  static void callWith(F &Fn, const int *V, std::uint8_t *B,
                       std::index_sequence<I...>) {
    Fn(V[I]..., B);
  }

  apps::MarshalApp App;
  int Vals[MarshalTuples][5] = {};
  std::uint8_t Buf[MarshalTuples * SlotBytes] = {};
};

/// Unmarshal targets: N-argument functions, four weightings each, plus a
/// five-argument adapter per target so the static reference (which always
/// unpacks five ints) calls the same computation.
template <int V> int tgt1(int A) { return A * (V + 3) + V; }
template <int V> int tgt2(int A, int B) { return tgt1<V>(A) - B * 5; }
template <int V> int tgt3(int A, int B, int C) {
  return tgt2<V>(A, B) * 7 + C;
}
template <int V> int tgt4(int A, int B, int C, int D) {
  return tgt3<V>(A, B, C) - D * (V + 1);
}
template <int V> int tgt5(int A, int B, int C, int D, int E) {
  return tgt4<V>(A, B, C, D) + E * 11;
}
template <int V> int ad1(int A, int, int, int, int) { return tgt1<V>(A); }
template <int V> int ad2(int A, int B, int, int, int) { return tgt2<V>(A, B); }
template <int V> int ad3(int A, int B, int C, int, int) {
  return tgt3<V>(A, B, C);
}
template <int V> int ad4(int A, int B, int C, int D, int) {
  return tgt4<V>(A, B, C, D);
}

using Adapter5 = int (*)(int, int, int, int, int);
struct UmshlTarget {
  const void *Target;
  Adapter5 Adapter;
};

template <int V> UmshlTarget umshlTarget(unsigned N) {
  switch (N) {
  case 1:
    return {reinterpret_cast<const void *>(&tgt1<V>), &ad1<V>};
  case 2:
    return {reinterpret_cast<const void *>(&tgt2<V>), &ad2<V>};
  case 3:
    return {reinterpret_cast<const void *>(&tgt3<V>), &ad3<V>};
  case 4:
    return {reinterpret_cast<const void *>(&tgt4<V>), &ad4<V>};
  default:
    return {reinterpret_cast<const void *>(&tgt5<V>), &tgt5<V>};
  }
}

UmshlTarget umshlTarget(unsigned N, unsigned V) {
  switch (V) {
  case 0:
    return umshlTarget<0>(N);
  case 1:
    return umshlTarget<1>(N);
  case 2:
    return umshlTarget<2>(N);
  default:
    return umshlTarget<3>(N);
  }
}

class UmshlSpec final : public SpecOf<UmshlSpec, int(const std::uint8_t *)> {
public:
  UmshlSpec(std::mt19937_64 &R, double Q)
      : SpecOf(Prog::Umshl), N(pick(Q, 1, 5)), T(umshlTarget(N, uni(R, 0, 3))),
        App(std::string(N, 'i')) {
    for (unsigned I = 0; I < MarshalTuples; ++I) {
      int V[5] = {};
      for (unsigned J = 0; J < N; ++J)
        V[J] = uniInt(R, -1000, 1000);
      std::memcpy(Buf + SlotBytes * I, V, sizeof V);
    }
  }
  template <class F> std::uint64_t drive(F &&Fn) {
    std::uint64_t S = 0;
    for (unsigned I = 0; I < MarshalTuples; ++I)
      S = step(S, static_cast<std::uint32_t>(Fn(Buf + SlotBytes * I)));
    return S;
  }
  std::uint64_t runStatic(bool O2) override {
    if (O2)
      return drive([this](const std::uint8_t *B) {
        return apps::MarshalApp::unmarshal5StaticO2(B, T.Adapter);
      });
    return drive([this](const std::uint8_t *B) {
      return apps::MarshalApp::unmarshal5StaticO0(B, T.Adapter);
    });
  }
  core::CompiledFn specialize(const core::CompileOptions &O) const override {
    return App.buildUnmarshaler(T.Target, O);
  }
  tier::TieredFnHandle specializeTiered(cache::CompileService &S,
                                        tier::TierManager &M,
                                        const core::CompileOptions &O)
      const override {
    return App.buildUnmarshalerTiered(T.Target, S, &M, O);
  }
  unsigned callsPerOp() const override { return MarshalTuples; }

private:
  unsigned N;
  UmshlTarget T;
  apps::MarshalApp App;
  std::uint8_t Buf[MarshalTuples * SlotBytes] = {};
};

class PowSpec final : public SpecOf<PowSpec, int(int)> {
public:
  PowSpec(std::mt19937_64 &R, double Q)
      : SpecOf(Prog::Pow), App(2u << pick(Q, 0, 15) | uni(R, 0, 1)) {
    for (int &X : Xs)
      X = uniInt(R, -9, 9);
  }
  template <class F> std::uint64_t drive(F &&Fn) {
    std::uint64_t S = 0;
    for (int X : Xs)
      S = step(S, static_cast<std::uint32_t>(Fn(X)));
    return S;
  }
  std::uint64_t runStatic(bool O2) override {
    if (O2)
      return drive([this](int X) { return App.powStaticO2(X); });
    return drive([this](int X) { return App.powStaticO0(X); });
  }
  core::CompiledFn specialize(const core::CompileOptions &O) const override {
    return App.specialize(O);
  }
  tier::TieredFnHandle specializeTiered(cache::CompileService &S,
                                        tier::TierManager &M,
                                        const core::CompileOptions &O)
      const override {
    return App.specializeTiered(S, &M, O);
  }
  unsigned callsPerOp() const override { return 32; }

private:
  apps::PowerApp App;
  int Xs[32] = {};
};

class BinarySpec final : public SpecOf<BinarySpec, int(int)> {
public:
  BinarySpec(std::mt19937_64 &R, double Q)
      : SpecOf(Prog::Binary), App(pick(Q, 4, 1024), seed32(R)) {}
  template <class F> std::uint64_t drive(F &&Fn) {
    std::uint64_t S = 0;
    for (unsigned I = 0; I < Rounds; ++I)
      S = step(step(S, static_cast<std::uint32_t>(Fn(App.presentKey()))),
               static_cast<std::uint32_t>(Fn(App.absentKey())));
    return S;
  }
  std::uint64_t runStatic(bool O2) override {
    if (O2)
      return drive([this](int K) { return App.findStaticO2(K); });
    return drive([this](int K) { return App.findStaticO0(K); });
  }
  core::CompiledFn specialize(const core::CompileOptions &O) const override {
    return App.specialize(O);
  }
  tier::TieredFnHandle specializeTiered(cache::CompileService &S,
                                        tier::TierManager &M,
                                        const core::CompileOptions &O)
      const override {
    return App.specializeTiered(S, &M, O);
  }
  unsigned callsPerOp() const override { return 2 * Rounds; }

private:
  static constexpr unsigned Rounds = 16;
  apps::BinSearchApp App;
};

class DpSpec final : public SpecOf<DpSpec, int(const int *)> {
public:
  DpSpec(std::mt19937_64 &R, double Q)
      : SpecOf(Prog::Dp), App(make(R, Q)) {
    for (auto &C : Cols) {
      C.resize(App.size());
      for (int &V : C)
        V = uniInt(R, -50, 50);
    }
  }
  static apps::DotProductApp make(std::mt19937_64 &R, double Q) {
    unsigned N = pick(Q, 16, 512);
    double Zero = 0.2 + 0.6 * std::uniform_real_distribution<double>()(R);
    return apps::DotProductApp(N, Zero, seed32(R));
  }
  template <class F> std::uint64_t drive(F &&Fn) {
    std::uint64_t S = 0;
    for (const auto &C : Cols)
      S = step(S, static_cast<std::uint32_t>(Fn(C.data())));
    return S;
  }
  std::uint64_t runStatic(bool O2) override {
    if (O2)
      return drive([this](const int *C) { return App.dotStaticO2(C); });
    return drive([this](const int *C) { return App.dotStaticO0(C); });
  }
  core::CompiledFn specialize(const core::CompileOptions &O) const override {
    return App.specialize(O);
  }
  tier::TieredFnHandle specializeTiered(cache::CompileService &S,
                                        tier::TierManager &M,
                                        const core::CompileOptions &O)
      const override {
    return App.specializeTiered(S, &M, O);
  }
  unsigned callsPerOp() const override { return 4; }

private:
  apps::DotProductApp App;
  std::vector<int> Cols[4];
};

} // namespace

const char *perfbench::progName(Prog P) {
  static const char *const Names[NumProgs] = {
      "hash", "ms",   "heap",  "ntn", "cmp", "query",
      "mshl", "umshl", "pow", "binary", "dp"};
  return Names[static_cast<unsigned>(P)];
}

std::unique_ptr<Spec> perfbench::makeSpec(std::mt19937_64 &Rng) {
  auto P = static_cast<Prog>(uni(Rng, 0, NumProgs - 1));
  return makeSpec(P, Rng, std::uniform_real_distribution<double>()(Rng));
}

std::unique_ptr<Spec> perfbench::makeSpec(Prog P, std::mt19937_64 &Rng,
                                          double Q) {
  switch (P) {
  case Prog::Hash:
    return std::make_unique<HashSpec>(Rng, Q);
  case Prog::Ms:
    return std::make_unique<MsSpec>(Rng, Q);
  case Prog::Heap:
    return std::make_unique<HeapSpec>(Rng, Q);
  case Prog::Ntn:
    return std::make_unique<NtnSpec>(Rng, Q);
  case Prog::Cmp:
    return std::make_unique<CmpSpec>(Rng, Q);
  case Prog::Query:
    return std::make_unique<QuerySpec>(Rng, Q);
  case Prog::Mshl:
    switch (pick(Q, 1, 5)) {
    case 1:
      return std::make_unique<MshlSpec<1>>(Rng);
    case 2:
      return std::make_unique<MshlSpec<2>>(Rng);
    case 3:
      return std::make_unique<MshlSpec<3>>(Rng);
    case 4:
      return std::make_unique<MshlSpec<4>>(Rng);
    default:
      return std::make_unique<MshlSpec<5>>(Rng);
    }
  case Prog::Umshl:
    return std::make_unique<UmshlSpec>(Rng, Q);
  case Prog::Pow:
    return std::make_unique<PowSpec>(Rng, Q);
  case Prog::Binary:
    return std::make_unique<BinarySpec>(Rng, Q);
  case Prog::Dp:
    return std::make_unique<DpSpec>(Rng, Q);
  }
  return nullptr;
}
