#include "vmpi/comm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "metrics/metrics.hpp"
#include "trace/trace.hpp"

namespace qv::vmpi {

namespace {
// Registry counters for the transport. Statics resolve the name lookup once;
// the per-call cost is one relaxed fetch_add.
metrics::Counter& send_calls() { static auto& c = metrics::counter("vmpi.send.calls"); return c; }
metrics::Counter& send_bytes() { static auto& c = metrics::counter("vmpi.send.bytes"); return c; }
metrics::Counter& recv_calls() { static auto& c = metrics::counter("vmpi.recv.calls"); return c; }
metrics::Counter& recv_bytes() { static auto& c = metrics::counter("vmpi.recv.bytes"); return c; }
metrics::Counter& recv_timeouts() { static auto& c = metrics::counter("vmpi.recv.timeouts"); return c; }
metrics::Counter& collective_calls() { static auto& c = metrics::counter("vmpi.collective.calls"); return c; }
metrics::Counter& collective_bytes() { static auto& c = metrics::counter("vmpi.collective.bytes"); return c; }

std::atomic<FaultObserver> g_fault_observer{nullptr};

void notify_fault(const char* reason, int rank) noexcept {
  if (FaultObserver obs = g_fault_observer.load(std::memory_order_acquire))
    obs(reason, rank);
}
}  // namespace

void set_fault_observer(FaultObserver obs) noexcept {
  g_fault_observer.store(obs, std::memory_order_release);
}

namespace detail {

World::World(int nranks, std::shared_ptr<const FaultPlan> plan)
    : size(nranks), fault_plan(std::move(plan)) {
  mailboxes.reserve(std::size_t(nranks));
  for (int i = 0; i < nranks; ++i) mailboxes.push_back(std::make_unique<Mailbox>());
  if (fault_plan) {
    fault_state.reserve(std::size_t(nranks));
    for (int i = 0; i < nranks; ++i)
      fault_state.push_back(
          std::make_unique<FaultRankState>(fault_plan->seed, i));
  }
}

GroupBarrier& World::barrier_for(int context) {
  std::lock_guard lk(barrier_table_mu);
  if (std::size_t(context) >= barriers.size()) {
    barriers.resize(std::size_t(context) + 1);
  }
  if (!barriers[std::size_t(context)]) {
    barriers[std::size_t(context)] = std::make_unique<GroupBarrier>();
  }
  return *barriers[std::size_t(context)];
}

int World::allocate_contexts(int count) {
  std::lock_guard lk(context_mu);
  int first = next_context;
  next_context += count;
  return first;
}

void World::abort_all() {
  aborted.store(true);
  // Take each waiter's lock before notifying so the flag is visible to the
  // predicate re-check and no wakeup is missed.
  for (auto& mb : mailboxes) {
    std::lock_guard lk(mb->mu);
    mb->cv.notify_all();
  }
  std::lock_guard tlk(barrier_table_mu);
  for (auto& b : barriers) {
    if (!b) continue;
    std::lock_guard lk(b->mu);
    b->cv.notify_all();
  }
}

}  // namespace detail

namespace {
// Internal tags for collectives; user tags must be >= 0.
constexpr int kTagBcastSize = -100;
constexpr int kTagBcastData = -101;
constexpr int kTagGather = -102;
constexpr int kTagSplitRequest = -103;
constexpr int kTagSplitReply = -104;
}  // namespace

void Comm::send(int dest, int tag, std::span<const std::uint8_t> data) {
  send(dest, tag, std::vector<std::uint8_t>(data.begin(), data.end()));
}

void Comm::send(int dest, int tag, std::vector<std::uint8_t>&& data) {
  trace::Span tsp("vmpi", "send", std::int64_t(data.size()));
  send_calls().add();
  send_bytes().add(data.size());
  if (dest < 0 || dest >= size()) throw std::runtime_error("vmpi: bad dest rank");
  int wdest = members_[std::size_t(dest)];
  detail::Mailbox& mb = *world_->mailboxes[std::size_t(wdest)];
  detail::Message msg;
  msg.context = context_;
  msg.source = world_rank();
  msg.tag = tag;
  msg.payload = std::move(data);

  // Fault injection: user-tag payloads only; the runtime's internal
  // collective traffic (negative tags) is exempt so the transport itself
  // stays functional under any plan.
  if (detail::FaultRankState* fs = fault_state();
      fs && tag >= 0 && world_->fault_plan->wants_send_faults()) {
    const FaultPlan& plan = *world_->fault_plan;
    std::uint64_t n = fs->sends++;
    // Draw both decisions unconditionally so the RNG chain advances the
    // same way whatever the rates are (keeps plans comparable across runs).
    double u_corrupt = fs->send_rng.next_double();
    double u_delay = fs->send_rng.next_double();
    bool corrupt = FaultPlan::matches(plan.corrupt_sends, world_rank(), n) ||
                   (plan.corrupt_rate > 0.0 && u_corrupt < plan.corrupt_rate);
    // Corruption is confined to bytes past corrupt_offset_min, the model
    // being that headers (and header-sized control messages — NACKs, DONE
    // markers) ride a checksummed transport while bulk payloads do not.
    if (corrupt && msg.payload.size() > plan.corrupt_offset_min) {
      std::size_t lo = plan.corrupt_offset_min;
      std::uint64_t h = n;
      std::size_t idx = lo + std::size_t(splitmix64(h) % (msg.payload.size() - lo));
      msg.payload[idx] ^= 0xA5;  // nonzero mask: the byte always changes
      ++fs->injected_corruptions;
    }
    if (plan.delay_rate > 0.0 && u_delay < plan.delay_rate) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(plan.delay_ms));
      ++fs->injected_delays;
    }
  }

  {
    std::lock_guard lk(mb.mu);
    mb.queue.push_back(std::move(msg));
  }
  mb.cv.notify_all();
}

void Comm::fault_checkpoint(int step) {
  const FaultPlan* plan = world_->fault_plan.get();
  if (plan && plan->kill_rank == world_rank() && plan->kill_at_step == step) {
    throw RankKilled("vmpi: rank " + std::to_string(world_rank()) +
                     " killed at step " + std::to_string(step));
  }
}

Status Comm::recv_match(int source, int tag, std::vector<std::uint8_t>& out,
                        bool block, bool* found) {
  int wsource = source == kAnySource ? kAnySource : members_[std::size_t(source)];
  detail::Mailbox& mb = *world_->mailboxes[std::size_t(world_rank())];
  std::unique_lock lk(mb.mu);
  auto match = [&]() -> std::deque<detail::Message>::iterator {
    for (auto it = mb.queue.begin(); it != mb.queue.end(); ++it) {
      if (it->context != context_) continue;
      if (wsource != kAnySource && it->source != wsource) continue;
      if (tag != kAnyTag && it->tag != tag) continue;
      return it;
    }
    return mb.queue.end();
  };
  auto it = match();
  if (it == mb.queue.end()) {
    if (!block) {
      if (found) *found = false;
      return {};
    }
    mb.cv.wait(lk, [&] {
      it = match();
      return it != mb.queue.end() || world_->aborted.load();
    });
    // A queued match is still delivered after an abort; only an empty wait
    // turns into an error.
    if (it == mb.queue.end()) throw WorldAborted();
  }
  if (found) *found = true;
  Status st;
  // Translate the world source rank back to this communicator's numbering.
  auto pos = std::find(members_.begin(), members_.end(), it->source);
  st.source = int(pos - members_.begin());
  st.tag = it->tag;
  st.bytes = it->payload.size();
  out = std::move(it->payload);
  mb.queue.erase(it);
  return st;
}

Status Comm::recv(int source, int tag, std::vector<std::uint8_t>& out) {
  trace::Span tsp("vmpi", "recv", tag >= 0 ? tag : -1);
  Status st = recv_match(source, tag, out, /*block=*/true, nullptr);
  recv_calls().add();
  recv_bytes().add(st.bytes);
  return st;
}

bool Comm::recv_timeout(int source, int tag, std::vector<std::uint8_t>& out,
                        std::chrono::milliseconds timeout, Status* st) {
  trace::Span tsp("vmpi", "recv_timeout", tag >= 0 ? tag : -1);
  int wsource = source == kAnySource ? kAnySource : members_[std::size_t(source)];
  detail::Mailbox& mb = *world_->mailboxes[std::size_t(world_rank())];
  std::unique_lock lk(mb.mu);
  auto match = [&]() -> std::deque<detail::Message>::iterator {
    for (auto it = mb.queue.begin(); it != mb.queue.end(); ++it) {
      if (it->context != context_) continue;
      if (wsource != kAnySource && it->source != wsource) continue;
      if (tag != kAnyTag && it->tag != tag) continue;
      return it;
    }
    return mb.queue.end();
  };
  auto it = match();
  if (it == mb.queue.end()) {
    mb.cv.wait_for(lk, timeout, [&] {
      it = match();
      return it != mb.queue.end() || world_->aborted.load();
    });
    if (it == mb.queue.end()) {
      if (world_->aborted.load()) throw WorldAborted();
      recv_timeouts().add();
      return false;  // deadline expired with nothing matching
    }
  }
  recv_calls().add();
  recv_bytes().add(it->payload.size());
  if (st) {
    auto pos = std::find(members_.begin(), members_.end(), it->source);
    st->source = int(pos - members_.begin());
    st->tag = it->tag;
    st->bytes = it->payload.size();
  }
  out = std::move(it->payload);
  mb.queue.erase(it);
  return true;
}

bool Comm::try_recv(int source, int tag, std::vector<std::uint8_t>& out,
                    Status* st) {
  bool found = false;
  Status s = recv_match(source, tag, out, /*block=*/false, &found);
  if (found && st) *st = s;
  return found;
}

Request Comm::irecv(int source, int tag) {
  Request r;
  r.comm_ = this;
  r.source_ = source;
  r.tag_ = tag;
  return r;
}

bool Comm::iprobe(int source, int tag, Status* status) {
  int wsource = source == kAnySource ? kAnySource : members_[std::size_t(source)];
  detail::Mailbox& mb = *world_->mailboxes[std::size_t(world_rank())];
  std::lock_guard lk(mb.mu);
  for (const auto& m : mb.queue) {
    if (m.context != context_) continue;
    if (wsource != kAnySource && m.source != wsource) continue;
    if (tag != kAnyTag && m.tag != tag) continue;
    if (status) {
      auto pos = std::find(members_.begin(), members_.end(), m.source);
      status->source = int(pos - members_.begin());
      status->tag = m.tag;
      status->bytes = m.payload.size();
    }
    return true;
  }
  return false;
}

Status Request::wait(std::vector<std::uint8_t>& out) {
  if (!comm_) throw std::runtime_error("vmpi: wait on null request");
  return comm_->recv_match(source_, tag_, out, /*block=*/true, nullptr);
}

bool Request::test() {
  if (!comm_) throw std::runtime_error("vmpi: test on null request");
  return comm_->iprobe(source_, tag_);
}

void Comm::barrier() {
  trace::Span tsp("vmpi", "barrier");
  collective_calls().add();
  detail::GroupBarrier& b = world_->barrier_for(context_);
  std::unique_lock lk(b.mu);
  std::uint64_t gen = b.generation;
  if (++b.arrived == size()) {
    b.arrived = 0;
    ++b.generation;
    b.cv.notify_all();
  } else {
    b.cv.wait(lk,
              [&] { return b.generation != gen || world_->aborted.load(); });
    if (b.generation == gen) {
      --b.arrived;
      throw WorldAborted();
    }
  }
}

void Comm::bcast(std::vector<std::uint8_t>& buf, int root) {
  trace::Span tsp("vmpi", "bcast", std::int64_t(buf.size()));
  collective_calls().add();
  collective_bytes().add(buf.size());
  if (rank_ == root) {
    std::uint64_t n = buf.size();
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      send_value(r, kTagBcastSize, n);
      send(r, kTagBcastData, buf);
    }
  } else {
    auto n = recv_value<std::uint64_t>(root, kTagBcastSize);
    Status st = recv(root, kTagBcastData, buf);
    if (st.bytes != n) throw std::runtime_error("vmpi: bcast size mismatch");
  }
}

std::vector<std::vector<std::uint8_t>> Comm::gather(
    std::span<const std::uint8_t> mine, int root) {
  trace::Span tsp("vmpi", "gather", std::int64_t(mine.size()));
  collective_calls().add();
  collective_bytes().add(mine.size());
  std::vector<std::vector<std::uint8_t>> out;
  if (rank_ == root) {
    out.resize(static_cast<std::size_t>(size()));
    out[std::size_t(root)].assign(mine.begin(), mine.end());
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      recv(r, kTagGather, out[std::size_t(r)]);
    }
  } else {
    send(root, kTagGather, mine);
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> Comm::allgather(
    std::span<const std::uint8_t> mine) {
  trace::Span tsp("vmpi", "allgather", std::int64_t(mine.size()));
  collective_calls().add();
  collective_bytes().add(mine.size());
  auto blobs = gather(mine, 0);
  // Serialize [count][len,data]... and broadcast.
  std::vector<std::uint8_t> packed;
  if (rank_ == 0) {
    for (const auto& b : blobs) {
      std::uint64_t len = b.size();
      auto* p = reinterpret_cast<const std::uint8_t*>(&len);
      packed.insert(packed.end(), p, p + sizeof(len));
      packed.insert(packed.end(), b.begin(), b.end());
    }
  }
  bcast(packed, 0);
  std::vector<std::vector<std::uint8_t>> out(static_cast<std::size_t>(size()));
  std::size_t off = 0;
  for (int r = 0; r < size(); ++r) {
    std::uint64_t len = 0;
    std::memcpy(&len, packed.data() + off, sizeof(len));
    off += sizeof(len);
    out[std::size_t(r)].assign(packed.begin() + std::ptrdiff_t(off),
                               packed.begin() + std::ptrdiff_t(off + len));
    off += len;
  }
  return out;
}

void Comm::allreduce_sum(std::span<double> inout) {
  auto blobs = allgather(
      {reinterpret_cast<const std::uint8_t*>(inout.data()), inout.size_bytes()});
  std::fill(inout.begin(), inout.end(), 0.0);
  for (const auto& b : blobs) {
    if (b.size() != inout.size_bytes())
      throw std::runtime_error("vmpi: allreduce size mismatch");
    const double* vals = reinterpret_cast<const double*>(b.data());
    for (std::size_t i = 0; i < inout.size(); ++i) inout[i] += vals[i];
  }
}

void Comm::allreduce_sum_f(std::span<float> inout) {
  auto blobs = allgather(
      {reinterpret_cast<const std::uint8_t*>(inout.data()), inout.size_bytes()});
  std::fill(inout.begin(), inout.end(), 0.0f);
  for (const auto& b : blobs) {
    if (b.size() != inout.size_bytes())
      throw std::runtime_error("vmpi: allreduce size mismatch");
    const float* vals = reinterpret_cast<const float*>(b.data());
    for (std::size_t i = 0; i < inout.size(); ++i) inout[i] += vals[i];
  }
}

double Comm::allreduce_max(double v) {
  auto all = allgather_value(v);
  return *std::max_element(all.begin(), all.end());
}

Comm Comm::split(int color, int key) {
  struct SplitMsg {
    int color, key, old_rank;
  };
  // Rank 0 of this communicator coordinates.
  if (rank_ == 0) {
    std::vector<SplitMsg> reqs(static_cast<std::size_t>(size()));
    reqs[0] = {color, key, 0};
    // Collect requests (rank 0 uses a non-const copy of this comm's state
    // via const_cast-free local sends: we re-create a sending facade).
    for (int r = 1; r < size(); ++r) {
      auto m = recv_vec<int>(r, kTagSplitRequest);
      reqs[std::size_t(r)] = {m[0], m[1], r};
    }
    // Group by color, order by (key, old_rank).
    std::vector<int> colors;
    for (const auto& m : reqs) colors.push_back(m.color);
    std::sort(colors.begin(), colors.end());
    colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
    int first_ctx = world_->allocate_contexts(int(colors.size()));
    // Reply per rank: [context, new_rank, nmembers, world_ranks...].
    std::vector<std::vector<int>> replies(static_cast<std::size_t>(size()));
    for (std::size_t ci = 0; ci < colors.size(); ++ci) {
      std::vector<SplitMsg> group;
      for (const auto& m : reqs)
        if (m.color == colors[ci]) group.push_back(m);
      std::sort(group.begin(), group.end(), [](const SplitMsg& a, const SplitMsg& b) {
        if (a.key != b.key) return a.key < b.key;
        return a.old_rank < b.old_rank;
      });
      std::vector<int> wmembers;
      for (const auto& m : group)
        wmembers.push_back(members_[std::size_t(m.old_rank)]);
      for (std::size_t gi = 0; gi < group.size(); ++gi) {
        std::vector<int>& rep = replies[std::size_t(group[gi].old_rank)];
        rep = {first_ctx + int(ci), int(gi), int(group.size())};
        rep.insert(rep.end(), wmembers.begin(), wmembers.end());
      }
    }
    for (int r = 1; r < size(); ++r) {
      send_vec<int>(r, kTagSplitReply, replies[std::size_t(r)]);
    }
    const std::vector<int>& rep = replies[0];
    std::vector<int> wmembers(rep.begin() + 3, rep.end());
    return Comm(world_, rep[0], std::move(wmembers), rep[1]);
  }
  int req[2] = {color, key};
  send_vec<int>(0, kTagSplitRequest, std::span<const int>(req, 2));
  auto rep = recv_vec<int>(0, kTagSplitReply);
  std::vector<int> wmembers(rep.begin() + 3, rep.end());
  return Comm(world_, rep[0], std::move(wmembers), rep[1]);
}

void Runtime::run(int nranks, const std::function<void(Comm&)>& fn,
                  std::shared_ptr<const FaultPlan> fault_plan) {
  auto world = std::make_shared<detail::World>(nranks, std::move(fault_plan));
  std::vector<int> all(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) all[std::size_t(i)] = i;

  std::vector<std::thread> threads;
  std::mutex err_mu;
  std::exception_ptr first_error;

  threads.reserve(std::size_t(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(world, /*context=*/0, all, r);
      if (trace::enabled()) trace::set_thread(r, "rank " + std::to_string(r));
      try {
        fn(comm);
      } catch (const RankKilled&) {
        // An injected kill is a clean exit: the rank simply vanishes, as a
        // crashed node does. Survivors detect the silence via recv_timeout.
        notify_fault("rank_killed", r);
      } catch (...) {
        bool is_first = false;
        {
          std::lock_guard lk(err_mu);
          if (!first_error) {
            first_error = std::current_exception();
            is_first = true;
          }
        }
        if (is_first) notify_fault("world_abort", r);
        // Wake every peer blocked on a recv or barrier: with this rank gone
        // nobody will ever send what they wait for, and a hung join is far
        // worse than the cascade of WorldAborted exits that follows. The
        // original exception is recorded first, so it is what run() rethrows.
        world->abort_all();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace qv::vmpi
