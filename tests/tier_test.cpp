//===- tests/tier_test.cpp - Tiered compilation tests ---------------------===//
//
// Covers the VCODE-first / background-ICODE promotion path (src/tier):
// dispatch-slot correctness across the swap for every app adapter, slot
// memoization, uncacheable-spec tiering, queue-full backoff, shutdown with
// pending requests, the compile workers' priority, and multi-threaded
// stress during promotion and under cache-eviction churn (run under
// -fsanitize=thread in CI).
//
//===----------------------------------------------------------------------===//

#include "apps/DotProduct.h"
#include "apps/Hash.h"
#include "apps/Marshal.h"
#include "apps/Power.h"
#include "apps/Query.h"
#include "cache/CompileService.h"
#include "tier/Tier.h"
#include "x86/X86Decoder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <iterator>
#include <sched.h>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace tcc;
using namespace tcc::core;
using namespace tcc::cache;
using namespace tcc::tier;

namespace {

TierConfig config(std::uint64_t Threshold, unsigned Workers = 1) {
  TierConfig TC;
  TC.Workers = Workers;
  TC.PromoteThreshold = Threshold;
  return TC;
}

/// Drives \p TF across the promotion threshold with \p Call until the swap
/// lands (or 10 s pass).
template <typename CallT> bool driveToPromotion(TieredFn &TF, CallT Call) {
  while (!TF.promoted()) {
    for (unsigned I = 0; I < 64; ++I)
      Call();
    if (TF.state() == TierState::Failed)
      return false;
    if (TF.invocations() > (1u << 20))
      return TF.waitPromoted();
  }
  return true;
}

/// Counts the `lock inc` counter bumps in \p F's code (the profiling
/// prologue; generated code is linearly decodable by construction).
unsigned counterBumps(const CompiledFn &F) {
  const auto *Code = static_cast<const std::uint8_t *>(F.entry());
  unsigned N = 0;
  for (std::size_t Off = 0; Off < F.stats().CodeBytes;) {
    x86::Decoded D;
    const char *Err = nullptr;
    if (!x86::decodeOne(Code, F.stats().CodeBytes, Off, D, &Err)) {
      ADD_FAILURE() << "undecodable at +" << Off << ": " << Err;
      return N;
    }
    N += D.Cls == x86::InstrClass::LockInc;
    Off += D.Len;
  }
  return N;
}

// --- Per-app agreement across the swap --------------------------------------

TEST(Tier, QueryPromotesToICodeAndAgrees) {
  // Service before manager: slots hold handles into the service's cache.
  CompileService S;
  TierManager TM(config(32, 2));
  apps::QueryApp App(256);
  const apps::QueryNode *Q = App.benchmarkQuery();
  int Expected = App.countStaticO2(Q);

  TieredFnHandle TF = App.specializeTiered(Q, S, &TM);
  ASSERT_TRUE(TF);
  // With tier 0 on (the default) the slot is born interpreted; the baseline
  // swap may or may not have landed by the time we look.
  TierState St0 = TF->state();
  EXPECT_TRUE(St0 == TierState::Interpreted || St0 == TierState::Baseline)
      << static_cast<int>(St0);

  auto CountViaSlot = [&] {
    int N = 0;
    for (const apps::Record &R : App.records())
      N += TF->call<int(const apps::Record *)>(&R);
    return N;
  };
  // Baseline tier answers correctly before any promotion.
  EXPECT_EQ(CountViaSlot(), Expected);

  ASSERT_TRUE(driveToPromotion(*TF, CountViaSlot));
  EXPECT_EQ(TF->state(), TierState::Promoted);
  EXPECT_GT(TF->promoteLatencyNanos(), 0u);

  // The promoted tier is the ICODE body and still agrees.
  FnHandle H = TF->handle();
  ASSERT_TRUE(H);
  EXPECT_EQ(H->stats().Backend, BackendKind::ICode);
  EXPECT_EQ(CountViaSlot(), Expected);
  EXPECT_EQ(App.countCompiled(H->as<int(const apps::Record *)>()), Expected);
}

TEST(Tier, PowerAgreesAcrossPromotion) {
  CompileService S;
  TierManager TM(config(16));
  apps::PowerApp P(13);
  TieredFnHandle TF = P.specializeTiered(S, &TM);
  ASSERT_TRUE(driveToPromotion(
      *TF, [&] { EXPECT_EQ(TF->call<int(int)>(3), P.powStaticO2(3)); }));
  EXPECT_EQ(TF->call<int(int)>(2), 8192);
  EXPECT_EQ(TF->call<int(int)>(-2), -8192);
}

TEST(Tier, HashAgreesAcrossPromotion) {
  CompileService S;
  TierManager TM(config(16));
  apps::HashApp H(256, 100, 3);
  TieredFnHandle TF = H.specializeTiered(S, &TM);
  ASSERT_TRUE(driveToPromotion(*TF, [&] {
    EXPECT_EQ(TF->call<int(int)>(H.presentKey()), H.presentKey() * 2 + 1);
  }));
  EXPECT_EQ(TF->call<int(int)>(H.presentKey()), H.presentKey() * 2 + 1);
  EXPECT_EQ(TF->call<int(int)>(H.absentKey()), -1);
}

static int sum5(int A, int B, int C, int D, int E) {
  return A + B * 10 + C * 100 + D * 1000 + E * 10000;
}

TEST(Tier, UnmarshalerAgreesAcrossPromotion) {
  CompileService S;
  TierManager TM(config(16));
  apps::MarshalApp M("iiiii");
  TieredFnHandle TF =
      M.buildUnmarshalerTiered(reinterpret_cast<const void *>(&sum5), S, &TM);
  std::uint8_t Buf[20];
  int Vals[5] = {1, 2, 3, 4, 5};
  std::memcpy(Buf, Vals, sizeof(Buf));
  ASSERT_TRUE(driveToPromotion(*TF, [&] {
    EXPECT_EQ(TF->call<int(const std::uint8_t *)>(Buf), 54321);
  }));
  EXPECT_EQ(TF->call<int(const std::uint8_t *)>(Buf), 54321);
}

TEST(Tier, UncacheableDotProductStillPromotes) {
  // The dp spec rtEval's the row at instantiation time, so neither tier is
  // memoizable — tiering must still work, just without slot/cache sharing.
  CompileService S;
  TierManager TM(config(16));
  apps::DotProductApp App(32, 0.5, 7);
  std::vector<int> Col(App.size());
  for (unsigned I = 0; I < App.size(); ++I)
    Col[I] = static_cast<int>(I) - 7;
  int Expected = App.dotStaticO2(Col.data());

  TieredFnHandle TF = App.specializeTiered(S, &TM);
  ASSERT_TRUE(driveToPromotion(*TF, [&] {
    EXPECT_EQ(TF->call<int(const int *)>(Col.data()), Expected);
  }));
  EXPECT_EQ(TF->call<int(const int *)>(Col.data()), Expected);
  // Nothing was memoized on either tier.
  EXPECT_EQ(S.cache().stats().Insertions, 0u);
}

// --- What a call through the slot costs -------------------------------------

TEST(Tier, PromotedCodeHasNoCounterPrologue) {
  CompileService S;
  TierManager TM(config(16));
  apps::PowerApp P(13);
  TieredFnHandle TF = P.specializeTiered(S, &TM);
  ASSERT_TRUE(TF->waitCompiled());
  FnHandle Base = TF->handle();
  ASSERT_TRUE(Base);
  ASSERT_NE(Base->profile(), nullptr);
  EXPECT_EQ(counterBumps(*Base), 1u); // The promotion sensor.

  ASSERT_TRUE(
      driveToPromotion(*TF, [&] { (void)TF->call<int(int)>(2); }));
  FnHandle Opt = TF->handle();
  EXPECT_EQ(Opt->stats().Backend, BackendKind::ICode);
  EXPECT_EQ(Opt->profile(), nullptr);
  EXPECT_EQ(counterBumps(*Opt), 0u);

  // Promoted calls count nowhere; the count stops where promotion began.
  std::uint64_t N = TF->invocations();
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(TF->call<int(int)>(2), 8192);
  EXPECT_EQ(TF->invocations(), N);
  // The slot keeps its baseline alive after the swap: a caller that
  // loaded the old entry may still be running it.
  EXPECT_EQ(Base->as<int(int)>()(2), 8192);
}

// --- Slot memoization --------------------------------------------------------

TEST(Tier, RepeatedRequestsShareOneSlot) {
  CompileService S;
  TierManager TM(config(16));
  apps::PowerApp P(9);
  TieredFnHandle A = P.specializeTiered(S, &TM);
  TieredFnHandle B = P.specializeTiered(S, &TM);
  EXPECT_EQ(A.get(), B.get()); // One counter, one eventual promotion.

  ASSERT_TRUE(
      driveToPromotion(*A, [&] { (void)A->call<int(int)>(2); }));
  // A post-promotion request finds the already-promoted slot.
  TieredFnHandle C = P.specializeTiered(S, &TM);
  EXPECT_EQ(C.get(), A.get());
  EXPECT_TRUE(C->promoted());

  // A different spec gets its own slot.
  apps::PowerApp P2(11);
  EXPECT_NE(P2.specializeTiered(S, &TM).get(), A.get());
}

// --- Queue-full backoff ------------------------------------------------------

TEST(Tier, QueueFullBacksOffAndStaysOnBaseline) {
  TierConfig TC = config(4);
  TC.QueueCapacity = 0; // Every enqueue is rejected.
  CompileService S;
  TierManager TM(TC);
  apps::PowerApp P(13);
  TieredFnHandle TF = P.specializeTiered(S, &TM);
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(TF->call<int(int)>(2), 8192);
  // Never promoted, never stuck in Queued: backoff re-arms the trigger.
  EXPECT_EQ(TF->state(), TierState::Baseline);
  EXPECT_GT(TF->invocations(), 4u);
}

// --- Shutdown ----------------------------------------------------------------

TEST(Tier, ShutdownWithPendingRequestsFailsThemCleanly) {
  CompileService S;
  apps::QueryApp App(64);
  std::vector<TieredFnHandle> Fns;
  {
    TierManager TM(config(1));
    for (unsigned E = 2; E < 12; ++E) {
      apps::PowerApp P(E);
      TieredFnHandle TF = P.specializeTiered(S, &TM);
      (void)TF->call<int(int)>(2); // Crosses threshold 1 -> enqueues.
      Fns.push_back(std::move(TF));
    }
  } // Joins workers; still-queued requests become Failed.
  for (TieredFnHandle &TF : Fns) {
    TierState St = TF->state();
    EXPECT_TRUE(St == TierState::Promoted || St == TierState::Failed ||
                St == TierState::Baseline)
        << static_cast<int>(St);
    EXPECT_NE(St, TierState::Queued);
    // Whatever tier survived, the slot still answers correctly. A slot
    // whose baseline compile died in the queue keeps interpreting and has
    // no handle — the call itself must still work.
    int X = TF->call<int(int)>(2);
    if (FnHandle H = TF->handle()) {
      EXPECT_EQ(H->as<int(int)>()(2), X);
    }
  }
}

// --- Worker priority ----------------------------------------------------------

/// How many threads of this process run at nice 19 under SCHED_BATCH, from
/// /proc/self/task/<tid>/stat (fields 19 and 41; the command name in field
/// 2 is parenthesized and may hold spaces, so count from its closing
/// paren).
unsigned backgroundThreads() {
  unsigned N = 0;
  DIR *D = opendir("/proc/self/task");
  if (!D)
    return N;
  while (dirent *E = readdir(D)) {
    if (E->d_name[0] == '.')
      continue;
    std::ifstream In(std::string("/proc/self/task/") + E->d_name + "/stat");
    std::string Stat((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    std::size_t Paren = Stat.rfind(')');
    if (Paren == std::string::npos)
      continue; // The thread exited between readdir and open.
    std::istringstream Fields(Stat.substr(Paren + 1));
    std::string Field, Nice;
    int I = 3;
    for (; I <= 41 && (Fields >> Field); ++I)
      if (I == 19)
        Nice = Field;
    N += I == 42 && Nice == "19" && std::stoi(Field) == SCHED_BATCH;
  }
  closedir(D);
  return N;
}

TEST(Tier, CompileWorkersRunAtNice19) {
  auto CallerNice = [] {
    return getpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)));
  };
  int Before = CallerNice();
  int Policy = sched_getscheduler(0);
  unsigned Others = backgroundThreads(); // Managers of earlier tests, if any.
  {
    constexpr unsigned Workers = 3;
    TierManager TM(config(1 << 20, Workers));
    // Each worker lowers its own priority as it starts.
    auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (backgroundThreads() < Others + Workers &&
           std::chrono::steady_clock::now() < Deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(backgroundThreads(), Others + Workers);
    // A compile through the manager changes nothing on the calling thread.
    CompileService S;
    apps::PowerApp P(5);
    TieredFnHandle TF = P.specializeTiered(S, &TM);
    EXPECT_EQ(TF->call<int(int)>(2), 32);
    ASSERT_TRUE(TF->waitCompiled());
    EXPECT_EQ(CallerNice(), Before);
    EXPECT_EQ(sched_getscheduler(0), Policy);
    EXPECT_EQ(backgroundThreads(), Others + Workers);
  }
  EXPECT_EQ(backgroundThreads(), Others); // Joined with the manager.
}

// --- Concurrency -------------------------------------------------------------

TEST(Tier, ConcurrentCallersAcrossTheSwap) {
  CompileService S;
  TierManager TM(config(128, 2));
  apps::QueryApp App(64);
  const apps::QueryNode *Q = App.benchmarkQuery();
  std::vector<int> Expected;
  for (const apps::Record &R : App.records())
    Expected.push_back(apps::QueryApp::matchStatic(Q, &R));

  TieredFnHandle TF = App.specializeTiered(Q, S, &TM);
  constexpr unsigned NumThreads = 8;
  std::atomic<unsigned> Failures{0};
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&] {
      // Keep calling through the slot while the swap happens underneath.
      for (unsigned Sweep = 0; Sweep < 400 && !Stop.load(); ++Sweep)
        for (std::size_t I = 0; I < App.records().size(); ++I)
          if (TF->call<int(const apps::Record *)>(&App.records()[I]) !=
              Expected[I])
            Failures.fetch_add(1, std::memory_order_relaxed);
    });
  }
  bool Promoted = TF->waitPromoted();
  Stop.store(true);
  for (std::thread &T : Threads)
    T.join();
  EXPECT_TRUE(Promoted);
  EXPECT_EQ(Failures.load(), 0u);
  // Every caller kept agreeing through the swap; and post-join the slot is
  // on the optimized tier.
  EXPECT_EQ(TF->handle()->stats().Backend, BackendKind::ICode);
}

TEST(Tier, CallersSurviveEvictionChurnAroundPromotion) {
  ServiceConfig Cfg;
  Cfg.Shards = 1;
  Cfg.MaxCodeBytes = 512; // Constant eviction pressure on both tiers.
  CompileService S(Cfg);
  TierManager TM(config(64, 2));
  apps::HashApp H(256, 100, 5);
  int Key = H.presentKey();
  int Want = Key * 2 + 1;

  TieredFnHandle TF = H.specializeTiered(S, &TM);
  constexpr unsigned NumThreads = 8;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      if (T % 2) {
        // Churners: flood the cache so baselines and promotions evict.
        for (unsigned I = 0; I < 150; ++I) {
          apps::PowerApp P(2 + (T * 31 + I) % 24);
          FnHandle F = P.specializeCached(S);
          if (F->as<int(int)>()(1) != 1)
            Failures.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        // Callers: the dispatch slot must stay correct through eviction of
        // its cache entries (handles pin the regions) and any swap.
        for (unsigned I = 0; I < 3000; ++I)
          if (TF->call<int(int)>(Key) != Want)
            Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_GT(S.cache().stats().Evictions, 0u);
  // Promotion may have been dropped as stale (baseline evicted) — that is
  // legal; so is a background baseline compile still in flight (tier 0).
  // What is not legal is a wrong answer or a torn state.
  TierState St = TF->state();
  EXPECT_TRUE(St == TierState::Interpreted || St == TierState::Baseline ||
              St == TierState::Queued || St == TierState::Promoted);
  EXPECT_EQ(TF->call<int(int)>(Key), Want);
}

} // namespace
