#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

// Every global operator new in this test binary is counted per thread, so a
// test can show that a recycled coroutine frame never reaches the heap.
namespace {
thread_local std::uint64_t t_heap_news = 0;
}

void* operator new(std::size_t n) {
  ++t_heap_news;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
// GCC flags free() on memory from operator new once these are inlined; here
// both sides are this file's malloc/free pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace qv::sim {
namespace {

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(3.0, [&] { order.push_back(3); });
  e.schedule(1.0, [&] { order.push_back(1); });
  e.schedule(2.0, [&] { order.push_back(2); });
  EXPECT_DOUBLE_EQ(e.run(), 3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SameTimeEventsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.schedule(1.0, [&, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, DelayAwaitAdvancesClock) {
  Engine e;
  double seen = -1;
  auto proc = [](Engine& eng, double& out) -> Process {
    co_await delay(eng, 2.5);
    out = eng.now();
    co_await delay(eng, 1.5);
    out = eng.now();
  };
  proc(e, seen);
  e.run();
  EXPECT_DOUBLE_EQ(seen, 4.0);
}

TEST(Process, FinishedFramesAreRecycledWithoutTheHeap) {
  Engine e;
  int done = 0;
  auto proc = [](Engine& eng, int& count) -> Process {
    co_await delay(eng, 1.0);
    ++count;
  };
  // Warm-up: four frames alive at once come from the heap and return to the
  // thread's pool; the event queue reaches its working capacity.
  for (int i = 0; i < 4; ++i) proc(e, done);
  e.run();
  const std::uint64_t before = t_heap_news;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 4; ++i) proc(e, done);
    e.run();
  }
  EXPECT_EQ(t_heap_news - before, 0u);
  EXPECT_EQ(done, 4 + 50 * 4);
}

TEST(Resource, CapacityLimitsConcurrency) {
  Engine e;
  Resource res(e, 2);
  std::vector<double> finish;
  auto worker = [](Engine& eng, Resource& r, std::vector<double>& out) -> Process {
    co_await r.acquire();
    co_await delay(eng, 1.0);
    r.release();
    out.push_back(eng.now());
  };
  for (int i = 0; i < 4; ++i) worker(e, res, finish);
  e.run();
  ASSERT_EQ(finish.size(), 4u);
  // Two at a time: first pair at t=1, second pair at t=2.
  EXPECT_DOUBLE_EQ(finish[0], 1.0);
  EXPECT_DOUBLE_EQ(finish[1], 1.0);
  EXPECT_DOUBLE_EQ(finish[2], 2.0);
  EXPECT_DOUBLE_EQ(finish[3], 2.0);
}

TEST(SharedBandwidth, SingleTransferAtFullRate) {
  Engine e;
  SharedBandwidth bw(e, 100.0);  // 100 B/s
  double done = -1;
  auto proc = [](Engine& eng, SharedBandwidth& b, double& out) -> Process {
    co_await b.transfer(250.0);
    out = eng.now();
  };
  proc(e, bw, done);
  e.run();
  EXPECT_NEAR(done, 2.5, 1e-9);
}

TEST(SharedBandwidth, TwoEqualTransfersShareTheRate) {
  Engine e;
  SharedBandwidth bw(e, 100.0);
  std::vector<double> done;
  auto proc = [](Engine& eng, SharedBandwidth& b,
                 std::vector<double>& out) -> Process {
    co_await b.transfer(100.0);
    out.push_back(eng.now());
  };
  proc(e, bw, done);
  proc(e, bw, done);
  e.run();
  ASSERT_EQ(done.size(), 2u);
  // Each gets 50 B/s: both finish at t = 2.
  EXPECT_NEAR(done[0], 2.0, 1e-9);
  EXPECT_NEAR(done[1], 2.0, 1e-9);
}

TEST(SharedBandwidth, PerStreamCapLimitsLoneTransfer) {
  Engine e;
  SharedBandwidth bw(e, 1000.0, /*per_stream_cap=*/10.0);
  double done = -1;
  auto proc = [](Engine& eng, SharedBandwidth& b, double& out) -> Process {
    co_await b.transfer(100.0);
    out = eng.now();
  };
  proc(e, bw, done);
  e.run();
  EXPECT_NEAR(done, 10.0, 1e-9);  // capped at 10 B/s despite 1000 total
}

TEST(SharedBandwidth, LateArrivalSlowsEarlierTransfer) {
  Engine e;
  SharedBandwidth bw(e, 100.0);
  std::vector<std::pair<int, double>> done;
  auto first = [](Engine& eng, SharedBandwidth& b, auto& out) -> Process {
    co_await b.transfer(150.0);
    out.push_back({1, eng.now()});
  };
  auto second = [](Engine& eng, SharedBandwidth& b, auto& out) -> Process {
    co_await delay(eng, 1.0);  // arrives at t=1
    co_await b.transfer(50.0);
    out.push_back({2, eng.now()});
  };
  first(e, bw, done);
  second(e, bw, done);
  e.run();
  // t in [0,1): first alone at 100 B/s -> 100 done, 50 left.
  // t >= 1: both at 50 B/s. First finishes its 50 at t=2; second finishes
  // its 50 at t=2 as well.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0].second, 2.0, 1e-6);
  EXPECT_NEAR(done[1].second, 2.0, 1e-6);
}

TEST(Queue, PopWaitsForPush) {
  Engine e;
  Queue<int> q(e);
  std::vector<int> got;
  auto consumer = [](Engine&, Queue<int>& qq, std::vector<int>& out) -> Process {
    out.push_back(co_await qq.pop());
    out.push_back(co_await qq.pop());
  };
  auto producer = [](Engine& eng, Queue<int>& qq) -> Process {
    co_await delay(eng, 1.0);
    qq.push(10);
    co_await delay(eng, 1.0);
    qq.push(20);
  };
  consumer(e, q, got);
  producer(e, q);
  e.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20}));
}

TEST(Queue, BufferedItemsPopImmediately) {
  Engine e;
  Queue<int> q(e);
  q.push(1);
  q.push(2);
  std::vector<int> got;
  auto consumer = [](Engine&, Queue<int>& qq, std::vector<int>& out) -> Process {
    out.push_back(co_await qq.pop());
    out.push_back(co_await qq.pop());
  };
  consumer(e, q, got);
  e.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(JoinCounter, WaitsForAllArrivals) {
  Engine e;
  JoinCounter jc(e, 3);
  double done = -1;
  auto waiter = [](Engine& eng, JoinCounter& j, double& out) -> Process {
    co_await j.wait();
    out = eng.now();
  };
  auto arriver = [](Engine& eng, JoinCounter& j, double t) -> Process {
    co_await delay(eng, t);
    j.arrive();
  };
  waiter(e, jc, done);
  arriver(e, jc, 1.0);
  arriver(e, jc, 3.0);
  arriver(e, jc, 2.0);
  e.run();
  EXPECT_NEAR(done, 3.0, 1e-9);
}

TEST(Engine, RunUntilProcessesOnlyDueEvents) {
  Engine e;
  std::vector<int> fired;
  e.schedule(1.0, [&] { fired.push_back(1); });
  e.schedule(2.0, [&] { fired.push_back(2); });
  e.schedule(3.0, [&] { fired.push_back(3); });
  EXPECT_DOUBLE_EQ(e.run_until(2.0), 2.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(e.now(), 2.0);  // clock parks at t even between events
  EXPECT_DOUBLE_EQ(e.run_until(10.0), 10.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, RunUntilAcceptsLiveProducer) {
  // The lockstep pattern the WAN link model uses: schedule, advance, repeat.
  // Events scheduled after an advance (at times past the parked clock) must
  // fire on the next advance.
  Engine e;
  std::vector<double> completions;
  auto xfer = [](Engine& eng, std::vector<double>& out, double dt) -> Process {
    co_await delay(eng, dt);
    out.push_back(eng.now());
  };
  xfer(e, completions, 1.0);       // completes at 1.0
  e.run_until(0.5);
  EXPECT_TRUE(completions.empty());
  xfer(e, completions, 1.0);       // starts at 0.5, completes at 1.5
  e.run_until(2.0);
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_DOUBLE_EQ(completions[0], 1.0);
  EXPECT_DOUBLE_EQ(completions[1], 1.5);
}

TEST(JoinCounter, AlreadyCompleteIsImmediate) {
  Engine e;
  JoinCounter jc(e, 1);
  jc.arrive();
  double done = -1;
  auto waiter = [](Engine& eng, JoinCounter& j, double& out) -> Process {
    co_await j.wait();
    out = eng.now();
  };
  waiter(e, jc, done);
  e.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

}  // namespace
}  // namespace qv::sim
