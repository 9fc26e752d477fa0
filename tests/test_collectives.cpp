// Tests for multi-node ring worlds and collective operations: the ring
// algorithms over RingWorld, eager communicator validation, and the
// tree/dissemination algorithms over the switch fabric with
// audit-ledger oracles (exactly-once, conserved) matching their ring
// counterparts.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

#include "audit/audit.h"
#include "mp/collectives.h"
#include "mp/fabric_lib.h"
#include "mp/mpich.h"
#include "mp/mplite.h"
#include "mp/world.h"
#include "simhw/presets.h"

namespace pp::mp {
namespace {

namespace presets = hw::presets;

RingWorld make_ring(int n) {
  return RingWorld(n, presets::pentium4_pc(), presets::netgear_ga620(),
                   tcp::Sysctl::tuned());
}

template <typename L>
Comm comm_for(std::vector<std::unique_ptr<L>>& libs, int rank) {
  return Comm{libs[static_cast<std::size_t>(rank)].get(), rank,
              static_cast<int>(libs.size())};
}

TEST(RingWorld, BuildsConnectedNeighbours) {
  RingWorld world = make_ring(4);
  auto libs = world.template build<MpLite>();
  ASSERT_EQ(libs.size(), 4u);
  // Each rank can exchange with both neighbours.
  for (int i = 0; i < 4; ++i) {
    world.sim.spawn(
        [](Library& l, int right, int left) -> sim::Task<void> {
          co_await l.send(right, 100, 1);
          co_await l.recv(left, 100, 1);
          co_await l.send(left, 100, 2);
          co_await l.recv(right, 100, 2);
        }(*libs[static_cast<std::size_t>(i)], (i + 1) % 4, (i + 3) % 4),
        "rank" + std::to_string(i));
  }
  world.sim.run();
}

TEST(Barrier, NoRankLeavesBeforeTheLastArrives) {
  RingWorld world = make_ring(4);
  auto libs = world.build<MpLite>();
  std::vector<sim::SimTime> entered(4), left(4);
  for (int i = 0; i < 4; ++i) {
    world.sim.spawn(
        [](RingWorld& w, Comm comm, sim::SimTime& in,
           sim::SimTime& out) -> sim::Task<void> {
          // Stagger arrivals: rank i shows up at i * 2 ms.
          co_await w.sim.delay(sim::milliseconds(2.0 * comm.rank));
          in = w.sim.now();
          co_await ring_barrier(comm);
          out = w.sim.now();
        }(world, comm_for(libs, i), entered[static_cast<std::size_t>(i)],
          left[static_cast<std::size_t>(i)]),
        "rank" + std::to_string(i));
  }
  world.sim.run();
  const sim::SimTime last_entry =
      *std::max_element(entered.begin(), entered.end());
  for (int i = 0; i < 4; ++i) {
    EXPECT_GE(left[static_cast<std::size_t>(i)], last_entry) << "rank " << i;
  }
}

TEST(Broadcast, DeliversFromEveryRoot) {
  for (int root = 0; root < 3; ++root) {
    RingWorld world = make_ring(3);
    auto libs = world.build<MpLite>();
    int completed = 0;
    for (int i = 0; i < 3; ++i) {
      world.sim.spawn(
          [](Comm comm, int root, int& done) -> sim::Task<void> {
            co_await ring_broadcast(comm, root, 300000);
            ++done;
          }(comm_for(libs, i), root, completed),
          "rank" + std::to_string(i));
    }
    world.sim.run();
    EXPECT_EQ(completed, 3) << "root " << root;
  }
}

TEST(Broadcast, PipeliningKeepsLargeBroadcastsNearPointToPoint) {
  // A pipelined 4-rank ring broadcast of 1 MB should take well under
  // 3 x the point-to-point time for 1 MB (naive store-and-forward
  // would be ~3x).
  auto p2p_time = [] {
    RingWorld world = make_ring(2);
    auto libs = world.build<MpLite>();
    world.sim.spawn(
        [](Library& l) -> sim::Task<void> { co_await l.send(1, 1 << 20, 1); }(
            *libs[0]),
        "tx");
    world.sim.spawn(
        [](Library& l) -> sim::Task<void> { co_await l.recv(0, 1 << 20, 1); }(
            *libs[1]),
        "rx");
    world.sim.run();
    return world.sim.now();
  }();
  auto bcast_time = [] {
    RingWorld world = make_ring(4);
    auto libs = world.build<MpLite>();
    for (int i = 0; i < 4; ++i) {
      world.sim.spawn(
          [](Comm comm) -> sim::Task<void> {
            co_await ring_broadcast(comm, 0, 1 << 20);
          }(comm_for(libs, i)),
          "rank" + std::to_string(i));
    }
    world.sim.run();
    return world.sim.now();
  }();
  EXPECT_LT(bcast_time, 2 * p2p_time);
}

TEST(Allreduce, CompletesOnAllRanksForVariousSizes) {
  for (std::uint64_t bytes : {1024ull, 100000ull, 1ull << 20}) {
    RingWorld world = make_ring(4);
    auto libs = world.build<MpLite>();
    int completed = 0;
    for (int i = 0; i < 4; ++i) {
      world.sim.spawn(
          [](Comm comm, std::uint64_t n, int& done) -> sim::Task<void> {
            co_await ring_allreduce(comm, n);
            ++done;
          }(comm_for(libs, i), bytes, completed),
          "rank" + std::to_string(i));
    }
    world.sim.run();
    EXPECT_EQ(completed, 4) << bytes << " bytes";
  }
}

TEST(Allreduce, BandwidthOptimalNotLinearInRanks) {
  auto time_for = [](int n) {
    RingWorld world = make_ring(n);
    auto libs = world.build<MpLite>();
    for (int i = 0; i < n; ++i) {
      world.sim.spawn(
          [](Comm comm) -> sim::Task<void> {
            co_await ring_allreduce(comm, 2 << 20);
          }(comm_for(libs, i)),
          "rank" + std::to_string(i));
    }
    world.sim.run();
    return world.sim.now();
  };
  // Ring allreduce moves 2(N-1)/N of the data per rank: going from 2 to
  // 6 ranks costs ~1.7x, nowhere near 3x.
  EXPECT_LT(time_for(6), 2.2 * time_for(2));
}

TEST(Allgather, CompletesAndScalesWithBlockCount) {
  RingWorld world = make_ring(4);
  auto libs = world.build<MpLite>();
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    world.sim.spawn(
        [](Comm comm, int& done) -> sim::Task<void> {
          co_await ring_allgather(comm, 64 << 10);
          ++done;
        }(comm_for(libs, i), completed),
        "rank" + std::to_string(i));
  }
  world.sim.run();
  EXPECT_EQ(completed, 4);
}

TEST(Collectives, WorkOverMpichToo) {
  RingWorld world = make_ring(3);
  MpichOptions opt;
  opt.p4_sockbufsize = 256 << 10;
  auto libs = world.build<Mpich>(opt);
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    world.sim.spawn(
        [](Comm comm, int& done) -> sim::Task<void> {
          co_await ring_barrier(comm);
          co_await ring_broadcast(comm, 0, 500000);
          co_await ring_allreduce(comm, 200000);
          ++done;
        }(comm_for(libs, i), completed),
        "rank" + std::to_string(i));
  }
  world.sim.run();
  EXPECT_EQ(completed, 3);
}

// Property: collectives complete for any ring size.
class RingSizes : public ::testing::TestWithParam<int> {};

TEST_P(RingSizes, BarrierAndAllreduceComplete) {
  const int n = GetParam();
  RingWorld world = make_ring(n);
  auto libs = world.build<MpLite>();
  int completed = 0;
  for (int i = 0; i < n; ++i) {
    world.sim.spawn(
        [](Comm comm, int& done) -> sim::Task<void> {
          co_await ring_barrier(comm);
          co_await ring_allreduce(comm, 123457);
          co_await ring_barrier(comm);
          ++done;
        }(comm_for(libs, i), completed),
        "rank" + std::to_string(i));
  }
  world.sim.run();
  EXPECT_EQ(completed, n);
}

INSTANTIATE_TEST_SUITE_P(Rings, RingSizes, ::testing::Values(2, 3, 4, 5, 8));

// ---------------------------------------------------------------------------
// Eager communicator validation (error paths)
// ---------------------------------------------------------------------------

TEST(Validation, NullLibraryThrowsAtTheCallSite) {
  const Comm bad{nullptr, 0, 4};
  EXPECT_THROW(ring_barrier(bad), std::invalid_argument);
  EXPECT_THROW(ring_broadcast(bad, 0, 100), std::invalid_argument);
  EXPECT_THROW(ring_allreduce(bad, 100), std::invalid_argument);
  EXPECT_THROW(ring_allgather(bad, 100), std::invalid_argument);
  EXPECT_THROW(tree_broadcast(bad, 0, 100), std::invalid_argument);
  EXPECT_THROW(dissemination_barrier(bad), std::invalid_argument);
  EXPECT_THROW(dissemination_allgather(bad, 100), std::invalid_argument);
  EXPECT_THROW(doubling_allreduce(bad, 100), std::invalid_argument);
}

TEST(Validation, BadSizeAndRankThrow) {
  RingWorld world = make_ring(2);
  auto libs = world.build<MpLite>();
  Library* lib = libs[0].get();
  EXPECT_THROW(ring_barrier(Comm{lib, 0, 0}), std::invalid_argument);
  EXPECT_THROW(ring_barrier(Comm{lib, 0, -3}), std::invalid_argument);
  EXPECT_THROW(ring_barrier(Comm{lib, 2, 2}), std::invalid_argument);
  EXPECT_THROW(ring_barrier(Comm{lib, -1, 2}), std::invalid_argument);
  EXPECT_THROW(doubling_allreduce(Comm{lib, 5, 2}, 64),
               std::invalid_argument);
  // Roots are validated too.
  EXPECT_THROW(ring_broadcast(Comm{lib, 0, 2}, 2, 100),
               std::invalid_argument);
  EXPECT_THROW(tree_broadcast(Comm{lib, 0, 2}, -1, 100),
               std::invalid_argument);
  // The throw is eager — no coroutine ran, so the world is untouched
  // and a valid collective still works afterwards.
  int completed = 0;
  for (int i = 0; i < 2; ++i) {
    world.sim.spawn(
        [](Comm comm, int& done) -> sim::Task<void> {
          co_await ring_barrier(comm);
          ++done;
        }(comm_for(libs, i), completed),
        "rank" + std::to_string(i));
  }
  world.sim.run();
  EXPECT_EQ(completed, 2);
}

// ---------------------------------------------------------------------------
// Cross-algorithm audit-ledger oracles over the switch fabric
// ---------------------------------------------------------------------------

struct LedgerRun {
  audit::Summary summary;
  sim::SimTime elapsed = 0;
  int completed = 0;
};

/// Runs `per_rank` on every rank of an N-node fabric under a delivery
/// auditor and closes the ledger as a completed run.
LedgerRun audited_fabric_run(
    int ranks, const std::function<sim::Task<void>(Comm)>& per_rank) {
  audit::Auditor aud;
  FabricWorldOptions opt;
  opt.shards = 1;
  opt.host = hw::presets::pentium4_pc();
  opt.auditor = &aud;
  FabricWorld world(ranks, opt);
  LedgerRun out;
  for (int r = 0; r < ranks; ++r) {
    world.spawn(r,
                [](const std::function<sim::Task<void>(Comm)>& body,
                   Comm comm, int& done) -> sim::Task<void> {
                  co_await body(comm);
                  ++done;
                }(per_rank, world.comm(r), out.completed),
                "rank" + std::to_string(r));
  }
  world.run();
  out.elapsed = world.simulator(0).now();
  out.summary = aud.finalize(audit::RunOutcome::kCompleted);
  return out;
}

void expect_clean_ledger(const LedgerRun& run, int ranks,
                         const char* what) {
  EXPECT_EQ(run.completed, ranks) << what;
  EXPECT_EQ(run.summary.violations, 0u) << what;
  EXPECT_EQ(run.summary.unaccounted, 0u) << what;
  EXPECT_EQ(run.summary.delivered, run.summary.injected) << what;
  EXPECT_GT(run.summary.injected, 0u) << what;
}

class FabricCollectives : public ::testing::TestWithParam<int> {};

TEST_P(FabricCollectives, TreeBroadcastLedgerMatchesRing) {
  const int n = GetParam();
  const std::uint64_t bytes = 32 << 10;
  const LedgerRun ring = audited_fabric_run(n, [&](Comm c) {
    return ring_broadcast(c, 1 % n, bytes);
  });
  const LedgerRun tree = audited_fabric_run(n, [&](Comm c) {
    return tree_broadcast(c, 1 % n, bytes);
  });
  expect_clean_ledger(ring, n, "ring_broadcast");
  expect_clean_ledger(tree, n, "tree_broadcast");
  // Both algorithms move the identical payload total: N-1 full copies.
  EXPECT_EQ(tree.summary.injected_bytes, ring.summary.injected_bytes);
  EXPECT_EQ(ring.summary.injected_bytes,
            static_cast<std::uint64_t>(n - 1) * bytes);
}

TEST_P(FabricCollectives, DisseminationBarrierLedgerMatchesRing) {
  const int n = GetParam();
  const LedgerRun ring =
      audited_fabric_run(n, [](Comm c) { return ring_barrier(c); });
  const LedgerRun diss = audited_fabric_run(
      n, [](Comm c) { return dissemination_barrier(c); });
  expect_clean_ledger(ring, n, "ring_barrier");
  expect_clean_ledger(diss, n, "dissemination_barrier");
  // O(log N) rounds beat the O(N) token ring once the ring is long.
  if (n >= 64) {
    EXPECT_LT(diss.elapsed, ring.elapsed);
  }
}

TEST_P(FabricCollectives, DisseminationAllgatherLedgerMatchesRing) {
  const int n = GetParam();
  const std::uint64_t block = 2048;
  const LedgerRun ring = audited_fabric_run(
      n, [&](Comm c) { return ring_allgather(c, block); });
  const LedgerRun diss = audited_fabric_run(
      n, [&](Comm c) { return dissemination_allgather(c, block); });
  expect_clean_ledger(ring, n, "ring_allgather");
  expect_clean_ledger(diss, n, "dissemination_allgather");
  // Same total payload either way: every rank ends with N-1 new blocks.
  EXPECT_EQ(diss.summary.injected_bytes, ring.summary.injected_bytes);
}

TEST_P(FabricCollectives, DoublingAllreduceLedgerIsCleanLikeRing) {
  const int n = GetParam();
  const std::uint64_t bytes = 8 << 10;
  const LedgerRun ring = audited_fabric_run(
      n, [&](Comm c) { return ring_allreduce(c, bytes); });
  const LedgerRun dbl = audited_fabric_run(
      n, [&](Comm c) { return doubling_allreduce(c, bytes); });
  expect_clean_ledger(ring, n, "ring_allreduce");
  expect_clean_ledger(dbl, n, "doubling_allreduce");
}

INSTANTIATE_TEST_SUITE_P(Ns, FabricCollectives, ::testing::Values(4, 8, 64));

// Odd sizes exercise the recursive-doubling fold/unfold preamble.
TEST(FabricCollectives, DoublingAllreduceHandlesNonPowerOfTwo) {
  for (int n : {3, 5, 6, 7}) {
    const LedgerRun run = audited_fabric_run(
        n, [](Comm c) { return doubling_allreduce(c, 4096); });
    expect_clean_ledger(run, n, "doubling_allreduce non-pow2");
  }
}

// ---------------------------------------------------------------------------
// Fault-plan leg: lossy fabric completes or fails by decision
// ---------------------------------------------------------------------------

TEST(FabricCollectives, LossyFabricCompletesOrFailsByDecisionNeverHangs) {
  int failures = 0;
  int completions = 0;
  for (double loss : {0.0, 0.02, 0.3}) {
    audit::Auditor aud;
    FabricWorldOptions opt;
    opt.shards = 1;
    opt.host = hw::presets::pentium4_pc();
    opt.auditor = &aud;
    opt.lib.delivery_timeout = sim::milliseconds(2);
    FabricWorld world(8, opt);
    if (loss > 0) world.fabric().set_loss(loss);
    for (int r = 0; r < 8; ++r) {
      world.spawn(r,
                  [](Comm comm) -> sim::Task<void> {
                    co_await doubling_allreduce(comm, 16 << 10);
                    co_await dissemination_barrier(comm);
                  }(world.comm(r)),
                  "rank" + std::to_string(r));
    }
    audit::RunOutcome outcome = audit::RunOutcome::kCompleted;
    try {
      world.run();
      ++completions;
    } catch (const sim::ProtocolFailure&) {
      // The receive watchdog decided: a clean failure, not a hang.
      ++failures;
      outcome = audit::RunOutcome::kFailed;
    }
    // Any other exception type (DeadlockError, budget) fails the test.
    const audit::Summary& s = aud.finalize(outcome);
    EXPECT_EQ(s.violations, 0u) << "loss " << loss;
    EXPECT_EQ(s.injected, s.delivered + s.failed_by_decision)
        << "loss " << loss;
  }
  EXPECT_GE(completions, 1);  // the lossless leg always completes
  EXPECT_GE(failures, 1);     // 30% loss cannot sneak through
}

// ---------------------------------------------------------------------------
// FabricLib point-to-point size contract
// ---------------------------------------------------------------------------

/// Rank 0 sends `sent` bytes to rank 1, which posts a `posted`-byte
/// receive after `recv_delay` (0 = posted before the message lands).
void fabric_one_way(std::uint64_t sent, std::uint64_t posted,
                    sim::SimTime recv_delay) {
  FabricWorldOptions opt;
  opt.shards = 1;
  opt.host = hw::presets::pentium4_pc();
  FabricWorld world(2, opt);
  world.spawn(0,
              [](FabricLib& l, std::uint64_t n) -> sim::Task<void> {
                co_await l.send(1, n, 7);
              }(world.lib(0), sent),
              "tx");
  world.spawn(1,
              [](FabricLib& l, std::uint64_t n,
                 sim::SimTime delay) -> sim::Task<void> {
                co_await l.node().simulator().delay(delay);
                co_await l.recv(0, n, 7);
              }(world.lib(1), posted, recv_delay),
              "rx");
  world.run();
}

TEST(FabricLib, MessageLongerThanTheReceiveRaisesLengthError) {
  EXPECT_THROW(fabric_one_way(4096, 1024, 0), std::length_error);
  EXPECT_THROW(fabric_one_way(4096, 1024, sim::milliseconds(1)),
               std::length_error);
}

TEST(FabricLib, MessageShorterThanTheReceiveIsLegal) {
  EXPECT_NO_THROW(fabric_one_way(1024, 4096, 0));
  EXPECT_NO_THROW(fabric_one_way(1024, 4096, sim::milliseconds(1)));
}

}  // namespace
}  // namespace pp::mp
