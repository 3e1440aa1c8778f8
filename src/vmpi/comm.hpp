// vmpi: an in-process message-passing runtime with MPI-like semantics.
//
// This is the reproduction's substitute for MPI on LeMieux (see DESIGN.md).
// Ranks run as threads of one process; the API mirrors the MPI subset the
// paper's pipeline uses: blocking and buffered-nonblocking point-to-point,
// barriers, broadcast/gather/allgather/allreduce, communicator splitting
// (the 2DIP input groups), and — in file.hpp — file views over indexed
// block types with collective two-phase reads.
//
// Semantics notes:
//  * send() is buffered: the payload is copied (or, handed over as an
//    rvalue vector, moved) into the destination mailbox immediately, so
//    isend() completes at call time (like MPI_Ibsend). This is exactly the
//    overlap behaviour the pipeline relies on.
//  * recv() matches on (source, tag) in arrival order; kAnySource/kAnyTag
//    wildcards are supported.
//  * Each communicator has a private context id, so traffic on split
//    communicators never cross-matches.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "vmpi/fault.hpp"

namespace qv::vmpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Status {
  int source = 0;
  int tag = 0;
  std::size_t bytes = 0;
};

// Thrown out of blocking calls (recv, barrier, collectives) on every
// surviving rank once some rank has died with a real exception. Without
// this a single throwing rank would leave its peers blocked forever —
// there is no one left to send the message they are waiting for.
// (An injected RankKilled does NOT abort the world: surviving that is the
// whole point of the fault plan; dead-peer detection is recv_timeout's job.)
struct WorldAborted : std::runtime_error {
  WorldAborted()
      : std::runtime_error("vmpi: world aborted (a peer rank threw)") {}
};

namespace detail {

struct Message {
  int context = 0;
  int source = 0;  // world rank of sender
  int tag = 0;
  std::vector<std::uint8_t> payload;
};

struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Message> queue;
};

// Barrier usable by arbitrary subgroups: keyed by (context, generation).
struct GroupBarrier {
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::uint64_t generation = 0;
};

struct World {
  explicit World(int nranks, std::shared_ptr<const FaultPlan> plan = nullptr);
  int size;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::mutex barrier_table_mu;
  // One barrier state per context id (allocated lazily).
  std::vector<std::unique_ptr<GroupBarrier>> barriers;
  std::mutex context_mu;
  int next_context = 1;  // 0 is the world communicator

  // Fault injection (null when no plan is installed). fault_state[r] is
  // only ever touched by rank r's thread.
  std::shared_ptr<const FaultPlan> fault_plan;
  std::vector<std::unique_ptr<FaultRankState>> fault_state;

  // Set when a rank dies with a real (non-RankKilled) exception; every
  // blocked or future blocking call then throws WorldAborted.
  std::atomic<bool> aborted{false};

  GroupBarrier& barrier_for(int context);
  int allocate_contexts(int count);
  // Flip `aborted` and wake every rank blocked on a mailbox or barrier.
  void abort_all();
};

}  // namespace detail

class Comm;

// Handle for a nonblocking receive. Sends complete immediately (buffered),
// so only receives need a real handle.
class Request {
 public:
  Request() = default;
  // Blocks until the message arrives; fills `out`.
  Status wait(std::vector<std::uint8_t>& out);
  // Non-blocking completion check; when true, wait() will not block.
  bool test();

 private:
  friend class Comm;
  Comm* comm_ = nullptr;
  int source_ = kAnySource;
  int tag_ = kAnyTag;
};

// A communicator: a subgroup of world ranks with a private message context.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const { return int(members_.size()); }

  // --- point to point -----------------------------------------------------
  void send(int dest, int tag, std::span<const std::uint8_t> data);
  // The same, moving the payload into the mailbox instead of copying it:
  // a large message is then held once, not by both sender and mailbox.
  void send(int dest, int tag, std::vector<std::uint8_t>&& data);
  // Buffered nonblocking send: identical to send() (completes immediately).
  void isend(int dest, int tag, std::span<const std::uint8_t> data) {
    send(dest, tag, data);
  }
  void isend(int dest, int tag, std::vector<std::uint8_t>&& data) {
    send(dest, tag, std::move(data));
  }
  Status recv(int source, int tag, std::vector<std::uint8_t>& out);
  // Bounded-wait receive: waits up to `timeout` for a matching message.
  // Returns true (and fills out/st) on success, false when the deadline
  // expires with nothing matching — the robustness primitive that makes a
  // dead peer detectable (a buffered send cannot fail, so only the absence
  // of traffic reveals a dead input rank).
  bool recv_timeout(int source, int tag, std::vector<std::uint8_t>& out,
                    std::chrono::milliseconds timeout, Status* st = nullptr);
  // Non-blocking receive: true (and out/st filled) when a matching message
  // was already queued.
  bool try_recv(int source, int tag, std::vector<std::uint8_t>& out,
                Status* st = nullptr);
  Request irecv(int source, int tag);
  // True when a matching message is queued (non-blocking probe).
  bool iprobe(int source, int tag, Status* status = nullptr);

  // Fault-plan hook: applications report their progress (e.g. the pipeline
  // step about to be processed); the configured victim rank dies here by
  // throwing RankKilled. A no-op without a plan.
  void fault_checkpoint(int step);

  // Typed convenience wrappers (trivially copyable payloads).
  template <typename T>
  void send_value(int dest, int tag, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dest, tag, {reinterpret_cast<const std::uint8_t*>(&v), sizeof(T)});
  }
  template <typename T>
  T recv_value(int source, int tag, Status* st = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::uint8_t> buf;
    Status s = recv(source, tag, buf);
    if (buf.size() != sizeof(T))
      throw std::runtime_error(
          "vmpi::recv_value: size mismatch (source=" + std::to_string(s.source) +
          " tag=" + std::to_string(s.tag) +
          " expected=" + std::to_string(sizeof(T)) +
          " bytes, got=" + std::to_string(buf.size()) + ")");
    if (st) *st = s;
    T v;
    std::memcpy(&v, buf.data(), sizeof(T));
    return v;
  }
  template <typename T>
  void send_vec(int dest, int tag, std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dest, tag,
         {reinterpret_cast<const std::uint8_t*>(v.data()), v.size_bytes()});
  }
  template <typename T>
  std::vector<T> recv_vec(int source, int tag, Status* st = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::uint8_t> buf;
    Status s = recv(source, tag, buf);
    if (buf.size() % sizeof(T) != 0)
      throw std::runtime_error(
          "vmpi::recv_vec: size mismatch (source=" + std::to_string(s.source) +
          " tag=" + std::to_string(s.tag) + " element=" +
          std::to_string(sizeof(T)) + " bytes, got=" +
          std::to_string(buf.size()) + " bytes, remainder=" +
          std::to_string(buf.size() % sizeof(T)) + ")");
    if (st) *st = s;
    std::vector<T> out(buf.size() / sizeof(T));
    std::memcpy(out.data(), buf.data(), buf.size());
    return out;
  }

  // --- collectives ----------------------------------------------------------
  void barrier();
  // Root's buffer is broadcast to everyone (resized on non-roots).
  void bcast(std::vector<std::uint8_t>& buf, int root);
  template <typename T>
  void bcast_value(T& v, int root) {
    std::vector<std::uint8_t> buf(sizeof(T));
    if (rank_ == root) std::memcpy(buf.data(), &v, sizeof(T));
    bcast(buf, root);
    std::memcpy(&v, buf.data(), sizeof(T));
  }
  // Gather per-rank byte blobs to root (result valid on root only).
  std::vector<std::vector<std::uint8_t>> gather(std::span<const std::uint8_t> mine,
                                                int root);
  // Allgather: everyone receives everyone's blob, indexed by rank.
  std::vector<std::vector<std::uint8_t>> allgather(std::span<const std::uint8_t> mine);
  template <typename T>
  std::vector<T> allgather_value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto blobs = allgather({reinterpret_cast<const std::uint8_t*>(&v), sizeof(T)});
    std::vector<T> out(blobs.size());
    for (std::size_t i = 0; i < blobs.size(); ++i)
      std::memcpy(&out[i], blobs[i].data(), sizeof(T));
    return out;
  }
  // Element-wise allreduce over arrays of doubles / floats.
  void allreduce_sum(std::span<double> inout);
  void allreduce_sum_f(std::span<float> inout);
  double allreduce_max(double v);

  // Split into sub-communicators by color (ranks with the same color form a
  // new communicator ordered by `key`, ties broken by old rank). Mirrors
  // MPI_Comm_split. Every member must call it. Returns a communicator whose
  // rank() is the caller's position in its group.
  Comm split(int color, int key);

  // World rank of a member of this communicator.
  int world_rank_of(int comm_rank) const { return members_[std::size_t(comm_rank)]; }
  int world_rank() const { return members_[std::size_t(rank_)]; }

 private:
  friend class Runtime;
  friend class Request;
  friend class File;
  Comm(std::shared_ptr<detail::World> world, int context, std::vector<int> members,
       int rank)
      : world_(std::move(world)),
        context_(context),
        members_(std::move(members)),
        rank_(rank) {}

  // Blocking receive matching (source, tag) in this context.
  Status recv_match(int source, int tag, std::vector<std::uint8_t>& out, bool block,
                    bool* found);

  // My rank's fault state, or null when no plan is installed.
  detail::FaultRankState* fault_state() const {
    return world_->fault_plan ? world_->fault_state[std::size_t(world_rank())].get()
                              : nullptr;
  }

  std::shared_ptr<detail::World> world_;
  int context_ = 0;
  std::vector<int> members_;  // world ranks, indexed by comm rank
  int rank_ = 0;              // my rank within this communicator
};

// Observer invoked from inside Runtime::run when a rank dies abnormally:
// reason is "rank_killed" for an injected fault-plan kill and "world_abort"
// for the first escaped exception (the one run() later rethrows; cascaded
// WorldAborted exits do not re-fire it).  Called on the dying rank's thread
// while the world is still alive, so a flight recorder can dump state the
// join would otherwise discard.  Must be async-signal-ish: no throwing, no
// vmpi calls.  Pass nullptr to clear.
using FaultObserver = void (*)(const char* reason, int rank);
void set_fault_observer(FaultObserver obs) noexcept;

// Spawns `nranks` threads, each running `fn` with its world communicator.
// Rethrows the first rank exception after all threads join. A RankKilled
// exit (from an installed fault plan) is NOT an error: the thread ends
// silently and the surviving ranks keep running, exactly as a crashed node
// looks to its peers.
class Runtime {
 public:
  static void run(int nranks, const std::function<void(Comm&)>& fn,
                  std::shared_ptr<const FaultPlan> fault_plan = nullptr);
};

}  // namespace qv::vmpi
