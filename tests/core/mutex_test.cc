#include "core/mutex.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace fedda::core {
namespace {

// The annotation pass over ThreadPool/Tracer surfaced no latent
// lock-discipline bug (the TSan stress suites had already pinned the
// dynamic behavior), so this suite carries the other half of the contract:
// core::Mutex is a pure relabeling of std::mutex for the capability
// analysis — same layout, same semantics, no added state — so swapping it
// into the hot ThreadPool/Tracer paths cannot change size, alignment, or
// blocking behavior.

static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "core::Mutex must add no state beyond the wrapped std::mutex");
static_assert(alignof(Mutex) == alignof(std::mutex),
              "core::Mutex must not change alignment");

TEST(MutexTest, LockUnlockAndTryLock) {
  Mutex mu;
  mu.Lock();
  // std::mutex::try_lock on a held mutex from another thread fails; same
  // must hold through the wrapper.
  bool locked_elsewhere = true;
  std::thread prober([&] {
    locked_elsewhere = mu.TryLock();
    if (locked_elsewhere) mu.Unlock();
  });
  prober.join();
  EXPECT_FALSE(locked_elsewhere);
  mu.Unlock();

  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexTest, MutualExclusionUnderContention) {
  // The classic unguarded-increment race: with real mutual exclusion the
  // total is exact; a broken wrapper (e.g. one that forgot to forward
  // lock()) loses increments with overwhelming probability.
  Mutex mu;
  int counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(MutexTest, MutexLockReleasesOnScopeExit) {
  Mutex mu;
  {
    MutexLock lock(&mu);
  }
  ASSERT_TRUE(mu.TryLock());  // Scope exit must have released.
  mu.Unlock();
}

TEST(CondVarTest, WaitWakesOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::atomic<bool> woke{false};

  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
    woke.store(true);
  });

  // Let the waiter reach the wait (best effort; correctness does not
  // depend on the sleep, only latency does).
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(woke.load());
  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(CondVarTest, WaitReacquiresTheLock) {
  // After Wait() returns, the caller must hold the mutex again: the
  // predicate re-check and the post-wait writes in ThreadPool::WorkerLoop
  // depend on it.
  Mutex mu;
  CondVar cv;
  int phase = 0;

  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (phase == 0) cv.Wait(&mu);
    // Still under mu here: the notifier spins on TryLock failing below.
    phase = 2;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    phase = 3;
  });

  {
    MutexLock lock(&mu);
    phase = 1;
  }
  cv.NotifyAll();
  // Wait until the waiter is demonstrably past Wait() and holding mu.
  while (true) {
    if (mu.TryLock()) {
      const int seen = phase;
      mu.Unlock();
      if (seen == 3) break;  // Waiter finished; it held mu throughout.
      EXPECT_NE(seen, 2) << "mutex acquired while waiter believed it held it";
    }
    std::this_thread::yield();
  }
  waiter.join();
  EXPECT_EQ(phase, 3);
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  Mutex mu;
  CondVar cv;
  bool go = false;
  std::atomic<int> awake{0};
  constexpr int kWaiters = 3;
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(&mu);
      while (!go) cv.Wait(&mu);
      awake.fetch_add(1);
    });
  }
  {
    MutexLock lock(&mu);
    go = true;
  }
  cv.NotifyAll();
  for (auto& waiter : waiters) waiter.join();
  EXPECT_EQ(awake.load(), kWaiters);
}

}  // namespace
}  // namespace fedda::core
