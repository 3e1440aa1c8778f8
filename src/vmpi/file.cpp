#include "vmpi/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "metrics/metrics.hpp"
#include "trace/trace.hpp"

namespace qv::vmpi {

namespace {
constexpr int kTagFileData = -200;

// Global file-I/O counters; they mirror the per-file IoStats increments so
// run reports see whole-process I/O without plumbing stats structs around.
metrics::Counter& io_disk_bytes() { static auto& c = metrics::counter("io.disk_bytes"); return c; }
metrics::Counter& io_disk_reads() { static auto& c = metrics::counter("io.disk_reads"); return c; }
metrics::Counter& io_useful_bytes() { static auto& c = metrics::counter("io.useful_bytes"); return c; }
metrics::Counter& io_exchanged_bytes() { static auto& c = metrics::counter("io.exchanged_bytes"); return c; }
metrics::Counter& io_retries() { static auto& c = metrics::counter("io.retries"); return c; }
metrics::Counter& io_short_reads() { static auto& c = metrics::counter("io.short_reads"); return c; }

// Serialized range pair.
struct WireRange {
  std::uint64_t begin;
  std::uint64_t end;
};
}  // namespace

File::File(Comm& comm, const std::string& path) : comm_(&comm), path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) throw std::runtime_error("vmpi::File: cannot open " + path);
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    throw std::runtime_error("vmpi::File: cannot stat " + path);
  }
  size_ = std::uint64_t(st.st_size);
}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

void File::set_view(IndexedBlockView view) { view_ = std::move(view); }

// One pread attempt, with fault-plan injections: a transient error throws
// before any bytes move; a short read delivers a strict prefix (the caller's
// loop continues it, which is exactly the path being exercised).
void File::pread_attempt(std::uint64_t offset, std::span<std::uint8_t> out,
                         std::uint64_t op, int attempt) {
  detail::FaultRankState* fs = comm_->fault_state();
  const FaultPlan* plan = fs ? comm_->world_->fault_plan.get() : nullptr;
  std::size_t want = out.size();
  if (plan && plan->wants_io_faults()) {
    if (plan->read_delay_ms > 0.0) {
      // Slow-disk model: latency first, then the attempt may still fail.
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(plan->read_delay_ms));
    }
    if (plan->path_fails(path_)) {
      throw TransientIoError("vmpi::File: injected failure (failing path) " +
                             path_);
    }
    double u_err = fs->io_rng.next_double();
    double u_short = fs->io_rng.next_double();
    bool explicit_hit =
        attempt == 0 &&
        FaultPlan::matches(plan->read_errors, comm_->world_rank(), op);
    if (explicit_hit ||
        (plan->read_error_rate > 0.0 && u_err < plan->read_error_rate)) {
      ++fs->injected_read_errors;
      throw TransientIoError("vmpi::File: injected transient read error at " +
                             path_ + " offset " + std::to_string(offset));
    }
    if (plan->short_read_rate > 0.0 && u_short < plan->short_read_rate &&
        want > 1) {
      want = (want + 1) / 2;  // deliver a strict prefix this syscall
      ++fs->injected_short_reads;
      ++stats_.short_reads;
      io_short_reads().add();
    }
  }
  std::size_t done = 0;
  while (done < out.size()) {
    ssize_t n = ::pread(fd_, out.data() + done, want - done, off_t(offset + done));
    if (n <= 0)
      throw TransientIoError("vmpi::File: pread failed/short at " + path_);
    done += std::size_t(n);
    if (done < out.size() && want < out.size()) {
      // The injected prefix is delivered; the rest of this attempt reads
      // normally (a real short read looks the same to the caller).
      want = out.size();
      stats_.disk_reads += 1;
      io_disk_reads().add();
    }
  }
  stats_.disk_bytes += out.size();
  stats_.disk_reads += 1;
  io_disk_bytes().add(out.size());
  io_disk_reads().add();
}

void File::pread_exact(std::uint64_t offset, std::span<std::uint8_t> out) {
  trace::Span tsp("vmpi", "pread", std::int64_t(out.size()));
  detail::FaultRankState* fs = comm_->fault_state();
  std::uint64_t op = fs ? fs->preads++ : 0;
  for (int attempt = 0;; ++attempt) {
    try {
      pread_attempt(offset, out, op, attempt);
      return;
    } catch (const TransientIoError&) {
      if (attempt + 1 >= retry_.max_attempts) {
        throw IoError("vmpi::File: read of " + path_ + " failed after " +
                      std::to_string(retry_.max_attempts) + " attempts");
      }
      ++stats_.retries;
      io_retries().add();
      std::this_thread::sleep_for(retry_.delay_for(attempt));
    }
  }
}

void File::read_at(std::uint64_t offset, std::span<std::uint8_t> out) {
  pread_exact(offset, out);
  stats_.useful_bytes += out.size();
  io_useful_bytes().add(out.size());
}

std::vector<File::Range> File::view_ranges() const {
  std::vector<Range> ranges;
  ranges.reserve(view_.block_offsets.size());
  const std::uint64_t bb = view_.block_bytes();
  std::uint64_t out_off = 0;
  for (std::uint64_t off_elems : view_.block_offsets) {
    std::uint64_t b = off_elems * view_.elem_bytes;
    ranges.push_back({b, b + bb, out_off});
    out_off += bb;
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const Range& a, const Range& b) { return a.begin < b.begin; });
  // Coalesce blocks adjacent in both the file and the output buffer.
  std::vector<Range> merged;
  for (const Range& r : ranges) {
    if (!merged.empty() && merged.back().end == r.begin &&
        merged.back().out_offset + (merged.back().end - merged.back().begin) ==
            r.out_offset) {
      merged.back().end = r.end;
    } else {
      merged.push_back(r);
    }
  }
  return merged;
}

void File::read_all(std::span<std::uint8_t> out, double sieve_threshold) {
  trace::Span tsp("vmpi", "read_all", std::int64_t(out.size()));
  if (out.size() != view_.total_bytes())
    throw std::runtime_error("vmpi::File::read_all: buffer size != view size");
  const int P = comm_->size();
  const int me = comm_->rank();

  std::vector<Range> mine = view_ranges();
  stats_.useful_bytes += out.size();
  io_useful_bytes().add(out.size());

  // Exchange (begin, end) lists so every rank knows every request.
  std::vector<WireRange> wire(mine.size());
  for (std::size_t i = 0; i < mine.size(); ++i) wire[i] = {mine[i].begin, mine[i].end};
  auto all_blobs = comm_->allgather(
      {reinterpret_cast<const std::uint8_t*>(wire.data()),
       wire.size() * sizeof(WireRange)});
  std::vector<std::vector<WireRange>> all_ranges(static_cast<std::size_t>(P));
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (int r = 0; r < P; ++r) {
    const auto& b = all_blobs[std::size_t(r)];
    auto& v = all_ranges[std::size_t(r)];
    v.resize(b.size() / sizeof(WireRange));
    // An empty participant sends an empty blob whose data() may be null.
    if (!b.empty()) std::memcpy(v.data(), b.data(), b.size());
    for (const auto& w : v) {
      lo = std::min(lo, w.begin);
      hi = std::max(hi, w.end);
    }
  }
  if (hi <= lo) {
    // Nothing requested anywhere; still complete the collective.
    for (int r = 0; r < P; ++r) comm_->send(r, kTagFileData, std::span<const std::uint8_t>{});
    for (int r = 0; r < P; ++r) {
      std::vector<std::uint8_t> ignore;
      comm_->recv(r, kTagFileData, ignore);
    }
    return;
  }

  // Phase-one chunk ownership: contiguous, equal byte spans.
  const std::uint64_t span = hi - lo;
  const std::uint64_t chunk = (span + std::uint64_t(P) - 1) / std::uint64_t(P);
  const std::uint64_t my_lo = lo + chunk * std::uint64_t(me);
  const std::uint64_t my_hi = std::min(hi, my_lo + chunk);

  // Union of requested ranges within my chunk, merged.
  std::vector<WireRange> needed;
  for (const auto& v : all_ranges) {
    for (const auto& w : v) {
      std::uint64_t b = std::max(w.begin, my_lo);
      std::uint64_t e = std::min(w.end, my_hi);
      if (b < e) needed.push_back({b, e});
    }
  }
  std::sort(needed.begin(), needed.end(),
            [](const WireRange& a, const WireRange& b) { return a.begin < b.begin; });
  std::vector<WireRange> covered;
  for (const auto& w : needed) {
    if (!covered.empty() && w.begin <= covered.back().end) {
      covered.back().end = std::max(covered.back().end, w.end);
    } else {
      covered.push_back(w);
    }
  }

  // Read my chunk's data: one sieving read when dense enough. A permanent
  // read failure here must not desynchronize the collective: every rank
  // agrees on success/failure below before any phase-two traffic moves.
  std::vector<std::uint8_t> chunk_buf;
  std::uint64_t chunk_base = 0;
  bool have_extent = false;
  std::uint8_t read_ok = 1;
  try {
    if (!covered.empty()) {
      std::uint64_t useful = 0;
      for (const auto& w : covered) useful += w.end - w.begin;
      std::uint64_t ext_lo = covered.front().begin;
      std::uint64_t ext_hi = covered.back().end;
      double density = double(useful) / double(ext_hi - ext_lo);
      if (density >= sieve_threshold) {
        chunk_buf.resize(ext_hi - ext_lo);
        pread_exact(ext_lo, chunk_buf);
        chunk_base = ext_lo;
        have_extent = true;
      } else {
        // Sparse: read ranges individually into a compacted buffer with an
        // index so extraction below can still find them.
        std::uint64_t total = useful;
        chunk_buf.resize(total);
        std::uint64_t off = 0;
        for (auto& w : covered) {
          pread_exact(w.begin, {chunk_buf.data() + off, w.end - w.begin});
          // Reuse out_offset trick: stash the compact offset in-place.
          w.begin |= 0;  // no-op: begin stays the absolute offset
          off += w.end - w.begin;
        }
        chunk_base = 0;  // compact addressing resolved via `covered` walk below
        have_extent = false;
      }
    }
  } catch (const IoError&) {
    read_ok = 0;
  }

  // Collective abort: if any chunk owner failed its reads (after retries),
  // every rank throws together and nobody is left waiting for pieces.
  auto ok_blobs = comm_->allgather({&read_ok, 1});
  for (const auto& b : ok_blobs) {
    if (!b.empty() && b[0] == 0) {
      throw IoError("vmpi::File::read_all: collective read of " + path_ +
                    " aborted (a rank's chunk read failed permanently)");
    }
  }

  // Byte accessor into what we read.
  auto fetch = [&](std::uint64_t abs_b, std::uint64_t abs_e,
                   std::vector<std::uint8_t>& dst) {
    if (have_extent) {
      dst.insert(dst.end(), chunk_buf.begin() + std::ptrdiff_t(abs_b - chunk_base),
                 chunk_buf.begin() + std::ptrdiff_t(abs_e - chunk_base));
      return;
    }
    // Compacted layout: walk `covered` accumulating compact offsets.
    std::uint64_t off = 0;
    for (const auto& w : covered) {
      std::uint64_t len = w.end - w.begin;
      if (abs_b >= w.begin && abs_e <= w.end) {
        std::uint64_t rel = off + (abs_b - w.begin);
        dst.insert(dst.end(), chunk_buf.begin() + std::ptrdiff_t(rel),
                   chunk_buf.begin() + std::ptrdiff_t(rel + (abs_e - abs_b)));
        return;
      }
      off += len;
    }
    throw std::runtime_error("vmpi::File: internal sieve lookup failure");
  };

  // Phase two: ship each rank the pieces of its ranges inside my chunk.
  // Message format: repeated [range_idx:u64][abs_begin:u64][len:u64][bytes].
  // The explicit range index keeps the scatter correct even when a rank's
  // view ranges overlap in the file (legal with indexed-block views).
  for (int r = 0; r < P; ++r) {
    std::vector<std::uint8_t> msg;
    const auto& ranges = all_ranges[std::size_t(r)];
    for (std::size_t ri = 0; ri < ranges.size(); ++ri) {
      const auto& w = ranges[ri];
      std::uint64_t b = std::max(w.begin, my_lo);
      std::uint64_t e = std::min(w.end, my_hi);
      if (b >= e) continue;
      std::uint64_t hdr[3] = {ri, b, e - b};
      const auto* hp = reinterpret_cast<const std::uint8_t*>(hdr);
      msg.insert(msg.end(), hp, hp + sizeof(hdr));
      fetch(b, e, msg);
    }
    if (r != me) {
      stats_.exchanged_bytes += msg.size();
      io_exchanged_bytes().add(msg.size());
    }
    comm_->send(r, kTagFileData, msg);
  }

  // Collect pieces from every chunk owner and scatter into `out`.
  for (int r = 0; r < P; ++r) {
    std::vector<std::uint8_t> msg;
    comm_->recv(r, kTagFileData, msg);
    std::size_t pos = 0;
    while (pos < msg.size()) {
      std::uint64_t hdr[3];
      std::memcpy(hdr, msg.data() + pos, sizeof(hdr));
      pos += sizeof(hdr);
      std::uint64_t range_idx = hdr[0], abs_b = hdr[1], len = hdr[2];
      if (range_idx >= mine.size())
        throw std::runtime_error("vmpi::File: piece range index out of bounds");
      const Range& rr = mine[std::size_t(range_idx)];
      if (abs_b < rr.begin || abs_b + len > rr.end)
        throw std::runtime_error("vmpi::File: piece does not fit its range");
      std::uint64_t dst = rr.out_offset + (abs_b - rr.begin);
      std::memcpy(out.data() + dst, msg.data() + pos, len);
      pos += len;
    }
  }
}

}  // namespace qv::vmpi
