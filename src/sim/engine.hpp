// Discrete-event simulation engine (C++20 coroutines).
//
// This is the substitute for the paper's 3000-processor testbed: pipeline
// configurations are modeled as coroutine processes contending for shared
// resources (parallel-filesystem bandwidth, network links, CPU time), and
// the engine advances virtual time event by event. Cost constants are
// calibrated from the real kernels (see pipesim/machine.hpp).
//
// Primitives:
//   Process        — fire-and-forget coroutine task
//   Engine         — event queue + virtual clock
//   delay(e, dt)   — co_await a virtual-time delay
//   Resource       — FIFO server with integer capacity
//   SharedBandwidth— processor-sharing pipe with optional per-stream cap
//                    (models a parallel file system / shared link)
//   Queue<T>       — awaitable FIFO channel between processes
//   JoinCounter    — await N completions (fork/join)
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <new>
#include <queue>
#include <stdexcept>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace qv::sim {

using Time = double;

class Engine {
 public:
  Time now() const { return now_; }

  // Schedule a callback at absolute time t (>= now).
  void schedule(Time t, std::function<void()> fn) {
    events_.push({t, seq_++, std::move(fn)});
  }
  void schedule_resume(Time t, std::coroutine_handle<> h) {
    schedule(t, [h] { h.resume(); });
  }

  // Run until the event queue drains. Returns the final virtual time.
  Time run() {
    while (!events_.empty()) {
      Event e = std::move(const_cast<Event&>(events_.top()));
      events_.pop();
      if (e.t < now_ - 1e-12)
        throw std::logic_error("sim: event scheduled in the past");
      now_ = e.t;
      e.fn();
    }
    return now_;
  }

  // Incremental form: process every event due at or before `t`, then park
  // the clock at `t` (events may be scheduled later and picked up by the
  // next call). This is what lets a live producer feed the engine in
  // lockstep with an external clock — the WAN link model advances its
  // virtual transfers exactly as far as the caller's wall clock has come.
  Time run_until(Time t) {
    while (!events_.empty() && events_.top().t <= t + 1e-12) {
      Event e = std::move(const_cast<Event&>(events_.top()));
      events_.pop();
      if (e.t < now_ - 1e-12)
        throw std::logic_error("sim: event scheduled in the past");
      now_ = std::max(now_, e.t);
      e.fn();
    }
    now_ = std::max(now_, t);
    return now_;
  }

 private:
  struct Event {
    Time t;
    std::uint64_t seq;  // FIFO tie-break
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      if (t != o.t) return t > o.t;
      return seq > o.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  Time now_ = 0.0;
  std::uint64_t seq_ = 0;
};

namespace detail {

// Per-thread free lists of coroutine frames, one per frame size (a program
// has a handful of coroutine functions, so a handful of sizes). A served
// frame spawns one WanLink::transmit per client; recycling their frames
// keeps that fan-out off the heap. A list holds at most as many frames as
// were once alive together on its thread, and returns them to the heap when
// the thread exits; a frame finished on another thread than the one that
// made it goes straight back to the heap. Under ASan a pooled frame stays
// poisoned until reused, so a use after completion is still reported.
class FramePool {
 public:
  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool() {
    for (List& l : lists_) {
      while (Node* n = pop(l)) ::operator delete(n);
    }
    gone() = true;
  }

  // The calling thread's pool, or nullptr once it is destroyed (a frame
  // freed by a later thread-exit destructor goes straight to the heap).
  static FramePool* local() {
    if (gone()) return nullptr;
    thread_local FramePool pool;
    return &pool;
  }

  void* take(std::size_t n) {
    List* l = find(n);
    if (!l) l = &lists_.emplace_back(List{n, nullptr});
    if (Node* p = pop(*l)) return p;
    return ::operator new(n);
  }

  void give(void* p, std::size_t n) noexcept {
    List* l = find(n);
    if (!l) {
      ::operator delete(p);
      return;
    }
    Node* node = static_cast<Node*>(p);
    node->next = l->head;
    l->head = node;
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(p, n);
#endif
  }

 private:
  struct Node {
    Node* next;
  };
  struct List {
    std::size_t size;
    Node* head;
  };

  List* find(std::size_t n) noexcept {
    for (List& l : lists_) {
      if (l.size == n) return &l;
    }
    return nullptr;
  }

  Node* pop(List& l) noexcept {
    Node* p = l.head;
    if (!p) return nullptr;
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(p, l.size);
#endif
    l.head = p->next;
    return p;
  }

  static bool& gone() {
    thread_local bool destroyed = false;
    return destroyed;
  }

  std::vector<List> lists_;
};

}  // namespace detail

// Fire-and-forget coroutine task. Runs eagerly until its first suspension;
// destroys itself on completion. Its frames come from the thread's
// detail::FramePool, not from a fresh heap allocation each time.
struct Process {
  struct promise_type {
    static void* operator new(std::size_t n) {
      if (detail::FramePool* pool = detail::FramePool::local())
        return pool->take(n);
      return ::operator new(n);
    }
    static void operator delete(void* p, std::size_t n) noexcept {
      if (detail::FramePool* pool = detail::FramePool::local())
        pool->give(p, n);
      else
        ::operator delete(p);
    }

    Process get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { throw; }
  };
};

// co_await delay(engine, seconds)
struct DelayAwaiter {
  Engine& engine;
  Time dt;
  bool await_ready() const noexcept { return dt <= 0.0; }
  void await_suspend(std::coroutine_handle<> h) const {
    engine.schedule_resume(engine.now() + dt, h);
  }
  void await_resume() const noexcept {}
};
inline DelayAwaiter delay(Engine& e, Time dt) { return {e, dt}; }

// FIFO server with integer capacity. co_await acquire(); call release()
// when done (no RAII guard: releases happen at precise virtual times).
class Resource {
 public:
  Resource(Engine& engine, int capacity)
      : engine_(engine), capacity_(capacity) {}

  struct Awaiter {
    Resource& r;
    bool await_ready() {
      if (r.in_use_ < r.capacity_) {
        ++r.in_use_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { r.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };
  Awaiter acquire() { return {*this}; }

  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      // The slot transfers to the waiter; in_use_ stays constant.
      engine_.schedule(engine_.now(), [h] { h.resume(); });
    } else {
      --in_use_;
    }
  }

  int in_use() const { return in_use_; }

 private:
  Engine& engine_;
  int capacity_;
  int in_use_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Processor-sharing bandwidth: N concurrent transfers each progress at
// min(per_stream_cap, total/N). Models a parallel file system (aggregate
// bandwidth shared by the input processors, each lane also bounded) or a
// shared network.
class SharedBandwidth {
 public:
  SharedBandwidth(Engine& engine, double total_rate,
                  double per_stream_cap = 0.0)
      : engine_(engine), total_(total_rate), cap_(per_stream_cap) {}

  struct Awaiter {
    SharedBandwidth& bw;
    double bytes;
    bool await_ready() const noexcept { return bytes <= 0.0; }
    void await_suspend(std::coroutine_handle<> h) { bw.start(bytes, h); }
    void await_resume() const noexcept {}
  };
  // co_await transfer(bytes): resumes when the transfer completes.
  Awaiter transfer(double bytes) { return {*this, bytes}; }

  std::size_t active_count() const { return active_.size(); }
  double total_rate() const { return total_; }

  // Change the aggregate rate mid-simulation (a degrading parallel file
  // system, a throttled link). In-flight transfers are settled at the old
  // rate up to now, then progress at the new rate. A rate of 0 freezes
  // every active transfer until the rate is raised again.
  void set_total_rate(double rate) {
    settle();
    total_ = rate;
    reschedule();
  }

 private:
  struct Xfer {
    double remaining;
    std::coroutine_handle<> h;
  };

  double rate_per_stream() const {
    double share = total_ / double(active_.size());
    return cap_ > 0.0 ? std::min(cap_, share) : share;
  }

  void start(double bytes, std::coroutine_handle<> h) {
    settle();
    active_.push_back({bytes, h});
    reschedule();
  }

  // Advance every active transfer to the current time.
  void settle() {
    double dt = engine_.now() - last_update_;
    if (dt > 0.0 && !active_.empty()) {
      double rate = rate_per_stream();
      for (auto& x : active_) x.remaining -= rate * dt;
    }
    last_update_ = engine_.now();
  }

  void reschedule() {
    ++generation_;
    if (active_.empty()) return;
    double rate = rate_per_stream();
    // Blackout: no progress, so no completion timer. Transfers stay parked
    // until set_total_rate restores a positive rate and reschedules.
    if (rate <= 0.0) return;
    double min_t = 1e300;
    for (const auto& x : active_)
      min_t = std::min(min_t, std::max(x.remaining, 0.0) / rate);
    std::uint64_t gen = generation_;
    engine_.schedule(engine_.now() + min_t, [this, gen] { on_timer(gen); });
  }

  void on_timer(std::uint64_t gen) {
    if (gen != generation_) return;  // superseded by a newer arrival
    // Completion threshold: anything needing less than a nanosecond more of
    // service is done. An absolute byte threshold would spin here: float
    // residue after settle() can exceed it while the wake-up time rounds to
    // the current clock value.
    double eps = rate_per_stream() * 1e-9 + 1e-12;
    settle();
    // Resume every transfer that has finished; the rest keep their order.
    // Both lists are members so a completion reuses their capacity.
    done_.clear();
    auto keep = active_.begin();
    for (const Xfer& x : active_) {
      if (x.remaining <= eps) {
        done_.push_back(x.h);
      } else {
        *keep++ = x;
      }
    }
    active_.erase(keep, active_.end());
    for (auto h : done_) engine_.schedule(engine_.now(), [h] { h.resume(); });
    reschedule();
  }

  Engine& engine_;
  double total_;
  double cap_;
  std::vector<Xfer> active_;
  std::vector<std::coroutine_handle<>> done_;
  Time last_update_ = 0.0;
  std::uint64_t generation_ = 0;
};

// Awaitable FIFO channel.
template <typename T>
class Queue {
 public:
  explicit Queue(Engine& engine) : engine_(engine) {}

  void push(T value) {
    items_.push_back(std::move(value));
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      engine_.schedule(engine_.now(), [h] { h.resume(); });
    }
  }

  struct Awaiter {
    Queue& q;
    bool await_ready() const noexcept { return !q.items_.empty(); }
    void await_suspend(std::coroutine_handle<> h) { q.waiters_.push_back(h); }
    T await_resume() {
      if (q.items_.empty())
        throw std::logic_error("sim::Queue: resumed with no item");
      T v = std::move(q.items_.front());
      q.items_.pop_front();
      return v;
    }
  };
  Awaiter pop() { return {*this}; }

  std::size_t size() const { return items_.size(); }

 private:
  Engine& engine_;
  std::deque<T> items_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Fork/join: co_await a JoinCounter that `expect`s N arrive() calls.
class JoinCounter {
 public:
  JoinCounter(Engine& engine, int expect)
      : engine_(engine), remaining_(expect) {}

  void arrive() {
    if (--remaining_ == 0 && waiter_) {
      auto h = waiter_;
      waiter_ = nullptr;
      engine_.schedule(engine_.now(), [h] { h.resume(); });
    }
  }

  struct Awaiter {
    JoinCounter& jc;
    bool await_ready() const noexcept { return jc.remaining_ <= 0; }
    void await_suspend(std::coroutine_handle<> h) { jc.waiter_ = h; }
    void await_resume() const noexcept {}
  };
  Awaiter wait() { return {*this}; }

 private:
  Engine& engine_;
  int remaining_;
  std::coroutine_handle<> waiter_ = nullptr;
};

}  // namespace qv::sim
