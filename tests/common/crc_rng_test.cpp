#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>

#include "common/clock.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "common/thread_util.hpp"

namespace neptune {
namespace {

TEST(Crc32, StandardCheckValue) {
  // The canonical CRC-32 check value: crc32("123456789") == 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) { EXPECT_EQ(crc32("", 0), 0u); }

TEST(Crc32, KnownVectors) {
  const char* a = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(crc32(a, std::strlen(a)), 0x414FA339u);
  std::array<uint8_t, 4> zeros{0, 0, 0, 0};
  EXPECT_EQ(crc32(zeros.data(), 4), 0x2144DF1Cu);
}

TEST(Crc32, IncrementalEqualsOneShot) {
  const char* s = "incremental-crc-computation-over-chunks";
  size_t n = std::strlen(s);
  uint32_t whole = crc32(s, n);
  for (size_t split = 0; split <= n; ++split) {
    uint32_t part = crc32(s, split);
    uint32_t all = crc32(s + split, n - split, part);
    EXPECT_EQ(all, whole) << "split=" << split;
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::array<uint8_t, 64> buf{};
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<uint8_t>(i * 7);
  uint32_t orig = crc32(buf.data(), buf.size());
  for (size_t byte = 0; byte < buf.size(); byte += 9) {
    buf[byte] ^= 0x10;
    EXPECT_NE(crc32(buf.data(), buf.size()), orig);
    buf[byte] ^= 0x10;
  }
}

TEST(Xoshiro, DeterministicPerSeed) {
  Xoshiro256 a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
  }
  bool any_diff = false;
  Xoshiro256 a2(123);
  for (int i = 0; i < 100; ++i) any_diff |= (a2.next_u64() != c.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, NextBelowRespectsBound) {
  Xoshiro256 rng(9);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Xoshiro, RoughlyUniform) {
  Xoshiro256 rng(11);
  std::array<int, 16> bins{};
  constexpr int kN = 160000;
  for (int i = 0; i < kN; ++i) ++bins[rng.next_below(16)];
  for (int b : bins) {
    EXPECT_GT(b, kN / 16 * 0.9);
    EXPECT_LT(b, kN / 16 * 1.1);
  }
}

TEST(Xoshiro, NoShortCycles) {
  Xoshiro256 rng(1);
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(rng.next_u64());
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(Clock, MonotoneNonDecreasing) {
  int64_t a = now_ns();
  int64_t b = now_ns();
  EXPECT_GE(b, a);
}

TEST(Clock, ManualClockAdvances) {
  ManualClock c(100);
  EXPECT_EQ(c.now_ns(), 100);
  c.advance_ns(50);
  EXPECT_EQ(c.now_ns(), 150);
  c.set_ns(7);
  EXPECT_EQ(c.now_ns(), 7);
}

TEST(Clock, StopwatchMeasuresElapsed) {
  Stopwatch sw;
  int64_t t0 = sw.elapsed_ns();
  // A little busy loop; elapsed must be non-decreasing and positive.
  volatile int sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(sw.elapsed_ns(), t0);
  EXPECT_GT(sw.elapsed_s(), 0.0);
}

TEST(ThreadUtil, ContextSwitchCountersReadable) {
  // Sleeping blocks the calling thread, which the kernel counts as a
  // voluntary switch on that thread; counters never go backwards. (A
  // process-wide total > 0 is not guaranteed for a process that has never
  // blocked, so the test makes its own switch instead of assuming one.)
  ContextSwitches process_before = read_context_switches();
  ContextSwitches before = read_thread_context_switches();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ContextSwitches after = read_thread_context_switches();
  EXPECT_GT(after.voluntary, before.voluntary);
  EXPECT_GE(after.nonvoluntary, before.nonvoluntary);
  EXPECT_GE(read_context_switches().total(), process_before.total());
}

TEST(ThreadUtil, SetThreadNameDoesNotCrash) {
  set_thread_name("neptune-test-very-long-name-truncated");
  SUCCEED();
}

}  // namespace
}  // namespace neptune
