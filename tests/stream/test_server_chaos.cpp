// Churn chaos harness: randomized client populations (seeded) against the
// delivery server, asserting the invariants the server claims to hold by
// construction. QV_FUZZ_SEED varies the scenario family (CI runs two seeds);
// every failure prints the seed that reproduces it.
#include "stream/chaos.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace qv::stream {
namespace {

std::uint64_t fuzz_seed() {
  if (const char* s = std::getenv("QV_FUZZ_SEED")) {
    return std::strtoull(s, nullptr, 10);
  }
  return 1;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  return out;
}

ChaosConfig mixed_config(std::uint64_t seed) {
  ChaosConfig cfg;
  cfg.seed = seed;
  cfg.population = {.fast = 4, .slow = 4, .flappers = 3, .churners = 3};
  cfg.steps = 50;
  cfg.server.evict_timeout_s = 0.5;  // blackouts long enough to evict
  return cfg;
}

TEST(ServerChaos, InvariantsHoldUnderMixedChurn) {
  const std::uint64_t base = fuzz_seed();
  for (int round = 0; round < 2; ++round) {
    const std::uint64_t seed = base + std::uint64_t(round) * 7919;
    SCOPED_TRACE(::testing::Message()
                 << "round " << round << " (QV_FUZZ_SEED=" << base << ")");
    auto r = run_chaos(mixed_config(seed));
    EXPECT_TRUE(r.ok()) << joined(r.failures);
    EXPECT_TRUE(r.all_decoded);
    EXPECT_TRUE(r.rejoin_keyframes_ok);
    EXPECT_TRUE(r.queue_budget_ok);
    // The scenario must actually exercise the machinery it claims to test.
    EXPECT_GT(r.report.frames_dropped + r.report.evictions, 0u)
        << "chaos run was placid; population needs retuning";
    EXPECT_GT(r.report.encode_reuses, r.report.encodes)
        << "shared bank served fewer reuses than encodes for 14 clients";
  }
}

TEST(ServerChaos, BitDeterministicPerSeed) {
  const std::uint64_t base = fuzz_seed();
  auto a = run_chaos(mixed_config(base));
  auto b = run_chaos(mixed_config(base));
  EXPECT_EQ(a.digest, b.digest) << "same seed, different run "
                                   "(QV_FUZZ_SEED=" << base << ")";
  auto c = run_chaos(mixed_config(base + 1));
  EXPECT_NE(a.digest, c.digest) << "different seed produced identical runs";
}

TEST(ServerChaos, FastClientTailLatencyIndependentOfChurn) {
  // The acceptance bar: fast-client p95 within 5% whether the server carries
  // 0 or dozens of slow/flapping/churning clients. The architecture makes it
  // exactly equal (per-client virtual links, shared encode, per-category
  // seeds); the 5% tolerance only allows for future latency jitter models.
  const std::uint64_t base = fuzz_seed();
  ChaosConfig lone;
  lone.seed = base;
  lone.population = {.fast = 4, .slow = 0, .flappers = 0, .churners = 0};
  lone.steps = 40;
  auto quiet = run_chaos(lone);

  ChaosConfig crowded = lone;
  crowded.population = {.fast = 4, .slow = 20, .flappers = 10, .churners = 10};
  crowded.server.evict_timeout_s = 0.5;
  auto busy = run_chaos(crowded);

  ASSERT_GT(quiet.fast_p95_s, 0.0);
  EXPECT_TRUE(busy.ok()) << joined(busy.failures);
  EXPECT_NEAR(busy.fast_p95_s, quiet.fast_p95_s, 0.05 * quiet.fast_p95_s)
      << "40 hostile clients shifted the fast clients' tail "
         "(QV_FUZZ_SEED=" << base << ")";
  // And the fast clients lost nothing to the crowd.
  for (int id : busy.fast_ids) {
    EXPECT_EQ(busy.report.clients[std::size_t(id)].frames_delivered,
              quiet.report.clients[std::size_t(id)].frames_delivered);
  }
}

// 512 clients; small frames and few steps keep it fast, the client count is
// the point.
ChaosConfig sweep_config(std::uint64_t seed) {
  ChaosConfig cfg;
  cfg.seed = seed;
  cfg.population = {.fast = 172, .slow = 170, .flappers = 120,
                    .churners = 50};
  cfg.steps = 12;
  cfg.width = 32;
  cfg.height = 24;
  cfg.server.evict_timeout_s = 0.5;
  return cfg;
}

TEST(ServerChaos, FiveHundredTwelveClientSweepIsDeterministic) {
  // The scale acceptance test: 512 clients, two runs, identical digests.
  const ChaosConfig cfg = sweep_config(fuzz_seed() * 31 + 5);
  auto a = run_chaos(cfg);
  ASSERT_EQ(a.report.clients.size(), 512u);
  EXPECT_TRUE(a.ok()) << joined(a.failures);
  auto b = run_chaos(cfg);
  EXPECT_EQ(a.digest, b.digest) << "512-client sweep diverged between runs";
}

TEST(ServerChaos, DigestsArePinnedForFixedSeeds) {
  // Run-to-run equality cannot see a change that moves every run alike; these
  // committed digests pin what every client received, byte for byte, at
  // fixed seeds (independent of QV_FUZZ_SEED).
  struct Pin {
    ChaosConfig cfg;
    const char* digest;
  };
  const Pin pins[] = {
      {mixed_config(1),
       "07a424364c61f84e204ec9fde54c98e1669939853c721e5be97cc54d3bb27dfb"},
      {mixed_config(2),
       "b02214e174dbdfafc49f5a95c382ed4488156580910458eeddbe5aa98d9bed33"},
      {sweep_config(36),
       "522ef4b67ac38e83de743eb728a2d1702238563fa2731381ec55877b5e4840dc"},
      {sweep_config(67),
       "4769c6c6abaf2af96e2b8fe8299d131d7aeb98599f982fe958c0c4b9f861dbce"},
  };
  for (const Pin& p : pins) {
    SCOPED_TRACE(::testing::Message()
                 << p.cfg.population.fast + p.cfg.population.slow +
                        p.cfg.population.flappers + p.cfg.population.churners
                 << " clients, seed " << p.cfg.seed);
    const auto r = run_chaos(p.cfg);
    EXPECT_TRUE(r.ok()) << joined(r.failures);
    EXPECT_EQ(r.digest, p.digest);
  }
}

}  // namespace
}  // namespace qv::stream
