//===- tests/support_test.cpp - Arena / CodeRegion / Timing tests ---------===//

#include "support/Arena.h"
#include "support/CodeBuffer.h"
#include "support/Timing.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

using namespace tcc;

TEST(Arena, BasicAllocation) {
  Arena A;
  int *P = A.create<int>(42);
  EXPECT_EQ(*P, 42);
  double *Q = A.create<double>(2.5);
  EXPECT_EQ(*Q, 2.5);
  EXPECT_EQ(*P, 42) << "later allocation must not clobber earlier one";
}

TEST(Arena, AlignmentRespected) {
  Arena A;
  for (std::size_t Align : {1u, 2u, 4u, 8u, 16u, 64u}) {
    void *P = A.allocate(3, Align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(P) % Align, 0u)
        << "alignment " << Align;
  }
}

TEST(Arena, AllocationsAreDistinct) {
  Arena A;
  std::set<void *> Seen;
  for (int I = 0; I < 1000; ++I) {
    void *P = A.allocate(16);
    EXPECT_TRUE(Seen.insert(P).second) << "duplicate arena pointer";
    std::memset(P, 0xAB, 16);
  }
}

TEST(Arena, GrowsPastSlabSize) {
  Arena A(/*SlabBytes=*/4096);
  // A single allocation larger than a slab must still succeed.
  char *Big = static_cast<char *>(A.allocate(64 * 1024));
  std::memset(Big, 1, 64 * 1024);
  EXPECT_GE(A.slabCount(), 2u);
}

TEST(Arena, ForEachSlabVisitsAllocationsInOrder) {
  // Words numbered in allocation order across slab switches, slab tails
  // too small for the next block, and one block bigger than a slab: the
  // slab walk must see exactly those words, in that order.
  Arena A(/*SlabBytes=*/1024);
  std::uint64_t Next = 0;
  for (std::size_t Words : {5u, 60u, 100u, 7u, 300u, 1u, 120u, 120u, 33u}) {
    auto *P = A.allocateArray<std::uint64_t>(Words);
    for (std::size_t I = 0; I < Words; ++I)
      P[I] = Next++;
  }
  ASSERT_GE(A.slabCount(), 3u);
  std::uint64_t Seen = 0;
  A.forEachSlab([&](const char *B, const char *E) {
    EXPECT_EQ((E - B) % 8, 0);
    for (; B < E; B += 8) {
      std::uint64_t W;
      std::memcpy(&W, B, 8);
      EXPECT_EQ(W, Seen++);
    }
    return true;
  });
  EXPECT_EQ(Seen, Next);

  // After a coalescing reset the one remaining slab is walked alone.
  A.reset();
  *A.allocateArray<std::uint64_t>(1) = 42;
  unsigned Slabs = 0;
  A.forEachSlab([&](const char *B, const char *E) {
    ++Slabs;
    EXPECT_EQ(E - B, 8);
    return true;
  });
  EXPECT_EQ(Slabs, 1u);
}

TEST(Arena, FastPathIsPointerBump) {
  Arena A(/*SlabBytes=*/1 << 20);
  std::size_t SlabsBefore = A.slabCount();
  for (int I = 0; I < 1000; ++I)
    A.allocate(64);
  // 1000 * 64 bytes fits in one megabyte slab: no new slab allocations, so
  // each allocation was just a pointer increment (paper §4.2).
  EXPECT_EQ(A.slabCount(), SlabsBefore);
}

TEST(Arena, ResetReclaims) {
  Arena A(/*SlabBytes=*/4096);
  for (int I = 0; I < 100; ++I)
    A.allocate(1024);
  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
  EXPECT_EQ(A.slabCount(), 1u);
  int *P = A.create<int>(7);
  EXPECT_EQ(*P, 7);
}

TEST(CodeRegion, WriteThenExecute) {
  CodeRegion R(4096, CodePlacement::Sequential);
  // mov eax, 0x2A; ret
  const std::uint8_t Code[] = {0xB8, 0x2A, 0x00, 0x00, 0x00, 0xC3};
  std::memcpy(R.base(), Code, sizeof(Code));
  R.makeExecutable();
  auto Fn = reinterpret_cast<int (*)()>(R.base());
  EXPECT_EQ(Fn(), 42);
}

TEST(CodeRegion, WritableAfterExecutable) {
  CodeRegion R(4096, CodePlacement::Sequential);
  const std::uint8_t Code[] = {0xB8, 0x2A, 0x00, 0x00, 0x00, 0xC3};
  std::memcpy(R.base(), Code, sizeof(Code));
  R.makeExecutable();
  R.makeWritable();
  R.base()[1] = 0x07; // now returns 7
  R.makeExecutable();
  auto Fn = reinterpret_cast<int (*)()>(R.base());
  EXPECT_EQ(Fn(), 7);
}

TEST(CodeRegion, RandomizedPlacementStaysAligned) {
  for (int I = 0; I < 16; ++I) {
    CodeRegion R(4096, CodePlacement::Randomized);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(R.base()) % 16, 0u);
    R.base()[0] = 0xC3;
    R.makeExecutable();
    reinterpret_cast<void (*)()>(R.base())();
  }
}

TEST(Timing, CycleCounterMonotonic) {
  std::uint64_t A = readCycleCounter();
  std::uint64_t B = readCycleCounter();
  EXPECT_GE(B, A);
}

TEST(Timing, CyclesPerNanoPlausible) {
  double R = cyclesPerNano();
  EXPECT_GT(R, 0.05); // >= 50 MHz
  EXPECT_LT(R, 10.0); // <= 10 GHz
}

TEST(Timing, PhaseTimerAccumulates) {
  PhaseTimer T;
  for (int I = 0; I < 3; ++I) {
    T.start();
    volatile int X = 0;
    for (int J = 0; J < 1000; ++J)
      X = X + J;
    T.stop();
  }
  EXPECT_GT(T.totalCycles(), 0u);
  std::uint64_t First = T.totalCycles();
  T.start();
  T.stop();
  EXPECT_GE(T.totalCycles(), First);
  T.reset();
  EXPECT_EQ(T.totalCycles(), 0u);
}
