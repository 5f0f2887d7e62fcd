// Lock-store tests: the guard counter, FIFO lockRef queues, peek staleness
// and the serialization codec.
#include "lockstore/lockstore.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/world.h"

namespace music::ls {
namespace {

using test::MusicWorld;

TEST(LockQueueCodec, RoundTrips) {
  LockQueue q;
  q.guard = 42;
  q.entries = {LockEntry(40), LockEntry(41), LockEntry(42)};
  LockQueue parsed = LockQueue::parse(q.serialize());
  EXPECT_EQ(parsed.guard, 42);
  EXPECT_EQ(parsed.entries, q.entries);
  EXPECT_EQ(parsed.head(), 40);
}

TEST(LockQueueCodec, EmptyQueue) {
  LockQueue q;
  q.guard = 7;
  LockQueue parsed = LockQueue::parse(q.serialize());
  EXPECT_EQ(parsed.guard, 7);
  EXPECT_TRUE(parsed.entries.empty());
  EXPECT_FALSE(parsed.head().has_value());
}

TEST(LockQueueCodec, GarbageParsesToEmpty) {
  LockQueue parsed = LockQueue::parse("not-a-queue");
  EXPECT_EQ(parsed.guard, 0);
  EXPECT_TRUE(parsed.entries.empty());
}

TEST(LockStore, GeneratesUniqueIncreasingRefs) {
  MusicWorld w(test::store_options());
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (LockRef expect = 1; expect <= 5; ++expect) {
      auto r = co_await w.locks.generate_and_enqueue(
          w.store.replica_at_site(static_cast<int>(expect) % 3), "k");
      CO_ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value(), expect);  // the guard counter of Fig. 2
    }
  });
  ASSERT_TRUE(ok);
}

TEST(LockStore, RefsArePerKey) {
  MusicWorld w(test::store_options());
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto a1 = co_await w.locks.generate_and_enqueue(w.store.replica(0), "a");
    auto b1 = co_await w.locks.generate_and_enqueue(w.store.replica(0), "b");
    auto a2 = co_await w.locks.generate_and_enqueue(w.store.replica(0), "a");
    EXPECT_EQ(a1.value(), 1);
    EXPECT_EQ(b1.value(), 1);  // independent counter
    EXPECT_EQ(a2.value(), 2);
  });
  ASSERT_TRUE(ok);
}

TEST(LockStore, QueueIsFifo) {
  MusicWorld w(test::store_options());
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await w.locks.generate_and_enqueue(w.store.replica(0), "k");
    co_await w.locks.generate_and_enqueue(w.store.replica(1), "k");
    co_await w.locks.generate_and_enqueue(w.store.replica(2), "k");
    auto peek = co_await w.locks.peek_quorum(w.store.replica(0), "k");
    CO_ASSERT_TRUE(peek.ok());
    EXPECT_EQ(peek.value().head, 1);
    // Dequeue the head: next in line becomes first.
    co_await w.locks.dequeue(w.store.replica(0), "k", 1);
    peek = co_await w.locks.peek_quorum(w.store.replica(0), "k");
    EXPECT_EQ(peek.value().head, 2);
  });
  ASSERT_TRUE(ok);
}

TEST(LockStore, DequeueOfAbsentRefIsNoOp) {
  MusicWorld w(test::store_options());
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await w.locks.generate_and_enqueue(w.store.replica(0), "k");
    auto st = co_await w.locks.dequeue(w.store.replica(0), "k", 999);
    EXPECT_TRUE(st.ok());  // lsDequeue is a no-op if the ref is not queued
    auto peek = co_await w.locks.peek_quorum(w.store.replica(0), "k");
    EXPECT_EQ(peek.value().head, 1);
  });
  ASSERT_TRUE(ok);
}

TEST(LockStore, DequeueFromMiddlePreservesOthers) {
  // A worker that lost the race evicts its reference (removeLockReference,
  // §VII) without disturbing the queue order.
  MusicWorld w(test::store_options());
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await w.locks.generate_and_enqueue(w.store.replica(0), "k");
    }
    co_await w.locks.dequeue(w.store.replica(0), "k", 2);  // middle
    auto g = co_await w.store.replica(0).get(LockStore::queue_key("k"),
                                             ds::Consistency::Quorum);
    CO_ASSERT_TRUE(g.ok());
    LockQueue q = LockQueue::parse(g.value().value.data);
    CO_ASSERT_EQ(q.entries.size(), 2u);
    EXPECT_EQ(q.entries[0].ref, 1);
    EXPECT_EQ(q.entries[1].ref, 3);
    EXPECT_EQ(q.guard, 3);  // guard unchanged by dequeue
  });
  ASSERT_TRUE(ok);
}

TEST(LockStore, LocalPeekIsCheapAndCanBeStale) {
  MusicWorld w(test::store_options());
  sim::Time peek_cost = 0;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    // Enqueue through site 2's coordinator; peek immediately at site 0.
    co_await w.locks.generate_and_enqueue(w.store.replica_at_site(2), "k");
    auto p0 = co_await w.locks.peek(w.store.replica_at_site(0), "k");
    CO_ASSERT_TRUE(p0.ok());
    // Either it has not propagated yet (stale view: unknown) or it has; both
    // are legal for an eventual read.  After settling it must be visible.
    co_await sim::sleep_for(w.sim, sim::sec(1));
    sim::Time t0 = w.sim.now();
    auto p1 = co_await w.locks.peek(w.store.replica_at_site(0), "k");
    peek_cost = w.sim.now() - t0;
    CO_ASSERT_TRUE(p1.ok());
    EXPECT_EQ(p1.value().head, 1);
  });
  ASSERT_TRUE(ok);
  // The peek is local: well under a WAN round trip (Fig. 5(b): ~0.67ms).
  EXPECT_LT(peek_cost, sim::ms(5));
}

TEST(LockStore, GenerateCostsOneConsensusWrite) {
  MusicWorld w(test::store_options());
  sim::Time cost = 0;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    sim::Time t0 = w.sim.now();
    co_await w.locks.generate_and_enqueue(w.store.replica_at_site(0), "k");
    cost = w.sim.now() - t0;
  });
  ASSERT_TRUE(ok);
  // 4 round trips to the nearest quorum peer (~54ms RTT) ~ 215ms, matching
  // the paper's 219-230ms for createLockRef (Fig. 5(b)).
  EXPECT_GT(cost, sim::ms(180));
  EXPECT_LT(cost, sim::ms(280));
}

class LockStoreContention : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LockStoreContention, ConcurrentEnqueuesGetDistinctRefs) {
  MusicWorld w(test::store_options(GetParam()));
  std::vector<LockRef> got;
  int finished = 0;
  for (int c = 0; c < 6; ++c) {
    sim::spawn(w.sim, [](MusicWorld& world, int site, std::vector<LockRef>& out,
                         int& fin) -> sim::Task<void> {
      Result<LockRef> r = Result<LockRef>::Err(OpStatus::Timeout);
      while (!r.ok()) {
        r = co_await world.locks.generate_and_enqueue(
            world.store.replica_at_site(site % 3), "k");
      }
      out.push_back(r.value());
      ++fin;
    }(w, c, got, finished));
  }
  w.sim.run_until(sim::sec(900));
  ASSERT_EQ(finished, 6);
  // Exclusivity rests on this: no two clients may ever receive the same
  // lockRef.  Gaps ARE possible (a retried enqueue whose first proposal was
  // replayed by a competitor leaves an orphan ref; SIV-B: orphans are
  // removed by forcedRelease when they reach the head).
  std::sort(got.begin(), got.end());
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
      << "duplicate lockRef handed to two clients";
  // Every returned ref is in the final queue, in ascending order, and the
  // guard dominates them all.
  bool ok2 = w.runner.run([&]() -> sim::Task<void> {
    auto g = co_await w.store.replica(0).get(LockStore::queue_key("k"),
                                             ds::Consistency::Quorum);
    CO_ASSERT_TRUE(g.ok());
    LockQueue q = LockQueue::parse(g.value().value.data);
    for (LockRef r : got) {
      bool found = false;
      for (const auto& e : q.entries) found = found || e.ref == r;
      EXPECT_TRUE(found) << "acked ref " << r << " missing from the queue";
    }
    for (size_t i = 1; i < q.entries.size(); ++i) {
      EXPECT_LT(q.entries[i - 1].ref, q.entries[i].ref);
    }
    if (!q.entries.empty()) {
      EXPECT_GE(q.guard, q.entries.back().ref);
    }
  });
  ASSERT_TRUE(ok2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockStoreContention,
                         ::testing::Values(3, 17, 256));

}  // namespace
}  // namespace music::ls
