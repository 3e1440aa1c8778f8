#include "vmpi/comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

namespace qv::vmpi {
namespace {

TEST(Comm, RankAndSize) {
  std::atomic<int> sum{0};
  Runtime::run(5, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 5);
    sum += comm.rank();
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3 + 4);
}

TEST(Comm, PingPong) {
  Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 7, 42);
      EXPECT_EQ(comm.recv_value<int>(1, 8), 43);
    } else {
      int v = comm.recv_value<int>(0, 7);
      comm.send_value(0, 8, v + 1);
    }
  });
}

TEST(Comm, TagMatchingOutOfOrder) {
  Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 100, 1.0);
      comm.send_value(1, 200, 2.0);
      comm.send_value(1, 300, 3.0);
    } else {
      // Receive in reverse tag order: matching must be by tag, not arrival.
      EXPECT_EQ(comm.recv_value<double>(0, 300), 3.0);
      EXPECT_EQ(comm.recv_value<double>(0, 200), 2.0);
      EXPECT_EQ(comm.recv_value<double>(0, 100), 1.0);
    }
  });
}

TEST(Comm, AnySourceReceivesFromAll) {
  Runtime::run(6, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<bool> seen(6, false);
      for (int i = 1; i < 6; ++i) {
        Status st;
        int v = comm.recv_value<int>(kAnySource, 1, &st);
        EXPECT_EQ(v, st.source * 10);
        seen[std::size_t(st.source)] = true;
      }
      for (int i = 1; i < 6; ++i) EXPECT_TRUE(seen[std::size_t(i)]);
    } else {
      comm.send_value(0, 1, comm.rank() * 10);
    }
  });
}

TEST(Comm, AnyTagReportsTag) {
  Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 55, 1);
    } else {
      std::vector<std::uint8_t> buf;
      Status st = comm.recv(0, kAnyTag, buf);
      EXPECT_EQ(st.tag, 55);
      EXPECT_EQ(st.bytes, sizeof(int));
    }
  });
}

TEST(Comm, VectorPayloads) {
  Runtime::run(2, [](Comm& comm) {
    std::vector<float> data(1000);
    std::iota(data.begin(), data.end(), 0.0f);
    if (comm.rank() == 0) {
      comm.send_vec<float>(1, 3, data);
    } else {
      auto got = comm.recv_vec<float>(0, 3);
      ASSERT_EQ(got.size(), data.size());
      EXPECT_EQ(got[999], 999.0f);
    }
  });
}

// A moved payload arrives intact and is the very buffer that was sent: the
// mailbox takes it over instead of copying it.
TEST(Comm, MovedPayloadIsDeliveredWithoutACopy) {
  Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::uint8_t> payload(4096);
      std::iota(payload.begin(), payload.end(), std::uint8_t(0));
      const std::uint8_t* sent = payload.data();
      comm.isend(1, 5, std::move(payload));
      comm.send_value(1, 6, reinterpret_cast<std::uintptr_t>(sent));
    } else {
      std::vector<std::uint8_t> got;
      comm.recv(0, 5, got);
      ASSERT_EQ(got.size(), 4096u);
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], std::uint8_t(i));
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(got.data()),
                comm.recv_value<std::uintptr_t>(0, 6));
    }
  });
}

TEST(Comm, BarrierSynchronizes) {
  std::atomic<int> phase1{0};
  std::vector<int> observed(8, -1);
  Runtime::run(8, [&](Comm& comm) {
    ++phase1;
    comm.barrier();
    // After the barrier every rank must observe all 8 arrivals.
    observed[std::size_t(comm.rank())] = phase1.load();
  });
  for (int v : observed) EXPECT_EQ(v, 8);
}

TEST(Comm, RepeatedBarriers) {
  Runtime::run(4, [](Comm& comm) {
    for (int i = 0; i < 25; ++i) comm.barrier();
  });
}

TEST(Comm, Broadcast) {
  Runtime::run(7, [](Comm& comm) {
    int v = comm.rank() == 3 ? 12345 : -1;
    comm.bcast_value(v, 3);
    EXPECT_EQ(v, 12345);
  });
}

TEST(Comm, GatherCollectsInRankOrder) {
  Runtime::run(5, [](Comm& comm) {
    std::uint8_t mine[2] = {std::uint8_t(comm.rank()),
                            std::uint8_t(comm.rank() * 2)};
    auto all = comm.gather(mine, 2);
    if (comm.rank() == 2) {
      ASSERT_EQ(all.size(), 5u);
      for (int r = 0; r < 5; ++r) {
        ASSERT_EQ(all[std::size_t(r)].size(), 2u);
        EXPECT_EQ(all[std::size_t(r)][0], r);
        EXPECT_EQ(all[std::size_t(r)][1], r * 2);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Comm, AllgatherEveryoneSeesEverything) {
  Runtime::run(6, [](Comm& comm) {
    auto all = comm.allgather_value(comm.rank() * 7);
    ASSERT_EQ(all.size(), 6u);
    for (int r = 0; r < 6; ++r) EXPECT_EQ(all[std::size_t(r)], r * 7);
  });
}

TEST(Comm, AllreduceSum) {
  Runtime::run(4, [](Comm& comm) {
    double vals[3] = {double(comm.rank()), 1.0, double(comm.rank()) * 0.5};
    comm.allreduce_sum(vals);
    EXPECT_DOUBLE_EQ(vals[0], 6.0);   // 0+1+2+3
    EXPECT_DOUBLE_EQ(vals[1], 4.0);
    EXPECT_DOUBLE_EQ(vals[2], 3.0);
  });
}

TEST(Comm, AllreduceMax) {
  Runtime::run(5, [](Comm& comm) {
    double m = comm.allreduce_max(double(comm.rank() == 3 ? 99 : comm.rank()));
    EXPECT_DOUBLE_EQ(m, 99.0);
  });
}

TEST(Comm, SplitByParity) {
  Runtime::run(6, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    // Traffic on the sub-communicator stays inside the group.
    int peer = (sub.rank() + 1) % sub.size();
    sub.send_value(peer, 0, comm.rank());
    int got = sub.recv_value<int>(kAnySource, 0);
    EXPECT_EQ(got % 2, comm.rank() % 2);
  });
}

TEST(Comm, SplitSubCommunicatorCollectives) {
  Runtime::run(8, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() / 4, comm.rank());
    sub.barrier();
    int v = sub.rank() == 0 ? comm.rank() : -1;
    sub.bcast_value(v, 0);
    // Group 0's root is world rank 0; group 1's is world rank 4.
    EXPECT_EQ(v, (comm.rank() / 4) * 4);
  });
}

TEST(Comm, SplitKeyControlsOrdering) {
  Runtime::run(4, [](Comm& comm) {
    // Reverse the rank order via the key.
    Comm sub = comm.split(0, -comm.rank());
    EXPECT_EQ(sub.rank(), comm.size() - 1 - comm.rank());
  });
}

TEST(Comm, IprobeSeesPendingMessage) {
  Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 9, 5);
      comm.barrier();
    } else {
      comm.barrier();  // message is certainly enqueued now
      Status st;
      EXPECT_TRUE(comm.iprobe(0, 9, &st));
      EXPECT_EQ(st.bytes, sizeof(int));
      EXPECT_FALSE(comm.iprobe(0, 10));
      EXPECT_EQ(comm.recv_value<int>(0, 9), 5);
      EXPECT_FALSE(comm.iprobe(0, 9));
    }
  });
}

TEST(Comm, RequestWaitAndTest) {
  Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.barrier();
      comm.send_value(1, 4, 77);
    } else {
      Request req = comm.irecv(0, 4);
      EXPECT_FALSE(req.test());  // nothing sent yet
      comm.barrier();
      std::vector<std::uint8_t> buf;
      Status st = req.wait(buf);
      EXPECT_EQ(st.bytes, sizeof(int));
    }
  });
}

TEST(Comm, ExceptionInRankPropagates) {
  EXPECT_THROW(Runtime::run(2,
                            [](Comm& comm) {
                              if (comm.rank() == 1)
                                throw std::runtime_error("rank boom");
                            }),
               std::runtime_error);
}

TEST(Comm, ManyRanksStress) {
  // All-to-all with 16 ranks: every pair exchanges a tagged message.
  Runtime::run(16, [](Comm& comm) {
    for (int r = 0; r < comm.size(); ++r) {
      if (r == comm.rank()) continue;
      comm.send_value(r, comm.rank(), comm.rank() * 1000 + r);
    }
    for (int r = 0; r < comm.size(); ++r) {
      if (r == comm.rank()) continue;
      EXPECT_EQ(comm.recv_value<int>(r, r), r * 1000 + comm.rank());
    }
  });
}

}  // namespace
}  // namespace qv::vmpi
