// Tests for the OS-bypass endpoint core (src/bypass), run once per stack
// personality: GM in polling and blocking mode, VIA on Giganet cLAN
// hardware and M-VIA on SysKonnect. Covers fragment-boundary delivery,
// zero-byte messages, unexpected-arrival staging, the receive size
// contract, hardware duplicate filtering, the per-message watchdog
// reset, crash/restart replay of parked messages under the new power
// epoch, and timers that outlive a torn-down fabric.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "bypass/endpoint.h"
#include "faults/plan.h"
#include "gmsim/gm.h"
#include "simhw/presets.h"
#include "viasim/via.h"

namespace pp {
namespace {

namespace presets = hw::presets;

enum class Stack { kGmPolling, kGmBlocking, kViaGiganet, kMvia };

std::string stack_name(const ::testing::TestParamInfo<Stack>& info) {
  switch (info.param) {
    case Stack::kGmPolling: return "gm_polling";
    case Stack::kGmBlocking: return "gm_blocking";
    case Stack::kViaGiganet: return "via_giganet";
    case Stack::kMvia: return "mvia";
  }
  return "unknown";
}

/// Two nodes and the stack's connected endpoint pair; `recovery` carries
/// the watchdog settings shared by every personality.
struct Bed {
  explicit Bed(Stack stack, const bypass::EndpointConfig& recovery = {})
      : cluster(sim),
        a(cluster.add_node(presets::pentium4_pc())),
        b(cluster.add_node(presets::pentium4_pc())) {
    if (stack == Stack::kGmPolling || stack == Stack::kGmBlocking) {
      gm::GmConfig cfg;
      static_cast<bypass::EndpointConfig&>(cfg) = recovery;
      cfg.recv_mode = stack == Stack::kGmBlocking ? gm::RecvMode::kBlocking
                                                  : gm::RecvMode::kPolling;
      gm_fabric = std::make_unique<gm::GmFabric>(
          cluster, a, b, presets::myrinet_pci64a(), presets::back_to_back(),
          cfg);
      return;
    }
    const bool giganet = stack == Stack::kViaGiganet;
    via::ViaConfig cfg;
    static_cast<bypass::EndpointConfig&>(cfg) = recovery;
    cfg.personality = giganet ? via::ViaPersonality::giganet()
                              : via::ViaPersonality::mvia_sk98lin();
    via_fabric = std::make_unique<via::ViaFabric>(
        cluster, a, b,
        giganet ? presets::giganet_clan() : presets::syskonnect_mvia(),
        giganet ? presets::switched() : presets::back_to_back(), cfg);
  }

  bypass::Endpoint& end_a() {
    return gm_fabric ? gm_fabric->port_a() : via_fabric->end_a();
  }
  bypass::Endpoint& end_b() {
    return gm_fabric ? gm_fabric->port_b() : via_fabric->end_b();
  }

  /// Ping-pongs `bytes` `reps` times; returns the finish time (0 = the
  /// exchange never completed).
  sim::SimTime pingpong(std::uint64_t bytes, int reps = 1) {
    sim::SimTime done = 0;
    sim.spawn(
        [](bypass::Endpoint& p, std::uint64_t n, int reps, sim::Simulator& s,
           sim::SimTime& out) -> sim::Task<void> {
          for (int i = 0; i < reps; ++i) {
            co_await p.send(n, 1);
            co_await p.recv(n, 1);
          }
          out = s.now();
        }(end_a(), bytes, reps, sim, done),
        "ping");
    sim.spawn(
        [](bypass::Endpoint& p, std::uint64_t n, int reps) -> sim::Task<void> {
          for (int i = 0; i < reps; ++i) {
            co_await p.recv(n, 1);
            co_await p.send(n, 1);
          }
        }(end_b(), bytes, reps),
        "pong");
    sim.run();
    return done;
  }

  /// a sends `sent` bytes; b posts a `posted`-byte receive after
  /// `recv_delay` (0 = posted before the message lands). Returns b's
  /// receive duration.
  sim::SimTime one_way(std::uint64_t sent, std::uint64_t posted,
                       sim::SimTime recv_delay) {
    sim::SimTime took = 0;
    sim.spawn(
        [](bypass::Endpoint& p, std::uint64_t n) -> sim::Task<void> {
          co_await p.send(n, 9);
        }(end_a(), sent),
        "tx");
    sim.spawn(
        [](bypass::Endpoint& p, std::uint64_t n, sim::SimTime delay,
           sim::Simulator& s, sim::SimTime& out) -> sim::Task<void> {
          co_await s.delay(delay);
          const sim::SimTime t0 = s.now();
          co_await p.recv(n, 9);
          out = s.now() - t0;
        }(end_b(), posted, recv_delay, sim, took),
        "rx");
    sim.run();
    return took;
  }

  sim::Simulator sim;
  hw::Cluster cluster;
  hw::Node& a;
  hw::Node& b;
  std::unique_ptr<gm::GmFabric> gm_fabric;
  std::unique_ptr<via::ViaFabric> via_fabric;
};

bypass::EndpointConfig watchdog(sim::SimTime timeout) {
  bypass::EndpointConfig c;
  c.delivery_timeout = timeout;
  return c;
}

class BypassCore : public ::testing::TestWithParam<Stack> {};

// Property: every personality moves any size exactly once per
// ping-pong, including fragment-boundary sizes and both sides of VIA's
// RDMA threshold.
TEST_P(BypassCore, PingPongCompletesAtFragmentBoundaries) {
  for (std::uint64_t bytes :
       {1ull, 4095ull, 4096ull, 4097ull, 8191ull, 8192ull, 8193ull, 16384ull,
        16385ull, 65536ull, 1ull << 20}) {
    Bed bed(GetParam());
    EXPECT_GT(bed.pingpong(bytes), 0) << bytes << " B";
    EXPECT_EQ(bed.end_a().messages_received(), 1u) << bytes << " B";
    EXPECT_EQ(bed.end_b().messages_received(), 1u) << bytes << " B";
  }
}

TEST_P(BypassCore, ZeroByteMessagesWork) {
  Bed bed(GetParam());
  EXPECT_GT(bed.pingpong(0, 3), 0);
  EXPECT_EQ(bed.end_a().messages_received(), 3u);
}

TEST_P(BypassCore, UnmatchedArrivalsAreStagedWithCopyCost) {
  // 16 kB stays on the send/recv path of every personality (VIA's RDMA
  // writes land in the receive they were answered for, never staged).
  const std::uint64_t n = 16 << 10;
  Bed late(GetParam());
  const sim::SimTime staged = late.one_way(n, n, sim::milliseconds(5));
  EXPECT_EQ(late.end_b().staged_bytes(), n);
  // The data already arrived; recv pays (only) detection + copy, and the
  // copy is visible.
  EXPECT_GT(staged, late.b.staging_copy_time(n) / 2);
  Bed early(GetParam());
  early.one_way(n, n, 0);
  EXPECT_EQ(early.end_b().staged_bytes(), 0u);  // landed in the posted buffer
}

TEST_P(BypassCore, MessageLongerThanTheReceiveRaisesLengthError) {
  Bed posted_first(GetParam());
  EXPECT_THROW(posted_first.one_way(4096, 1024, 0), std::length_error);
  Bed arrived_first(GetParam());
  EXPECT_THROW(arrived_first.one_way(4096, 1024, sim::milliseconds(1)),
               std::length_error);
}

TEST_P(BypassCore, MessageShorterThanTheReceiveIsLegal) {
  Bed posted_first(GetParam());
  EXPECT_GT(posted_first.one_way(1024, 4096, 0), 0);
  Bed arrived_first(GetParam());
  EXPECT_GT(arrived_first.one_way(1024, 4096, sim::milliseconds(1)), 0);
  EXPECT_EQ(arrived_first.end_b().staged_bytes(), 1024u);
}

TEST_P(BypassCore, DuplicatesAreFilteredInHardware) {
  Bed bed(GetParam());  // no watchdog needed: duplicates only add frames
  faults::LinkFaultConfig cfg;
  cfg.duplicate = 0.05;
  faults::FaultPlan plan;
  plan.seed = 43;
  plan.add_link("", cfg);
  faults::apply(plan, bed.cluster);
  EXPECT_GT(bed.pingpong(256 << 10, 3), 0);
  EXPECT_EQ(bed.end_a().messages_received(), 3u);
  EXPECT_EQ(bed.end_b().messages_received(), 3u);
  EXPECT_GT(bed.cluster.pipes()[0]->packets_duplicated() +
                bed.cluster.pipes()[1]->packets_duplicated(),
            0u);
}

// Regression for the sticky-backoff bug: a message that needed watchdog
// retries must not bequeath its escalated timeout to the *next* message.
// Two beds run the same two-message schedule under the same link flap;
// in one the first message has to retry through a flap window (backing
// its timeout off), in the other it goes out on a quiet link. Message 2
// is sent at the identical instant in both, and the retry machinery is
// RNG-free, so if each message starts from the base timeout the second
// exchange finishes at the *exact same* simulated time in both beds.
sim::SimTime second_exchange_done(Stack stack, sim::SimTime first_at) {
  Bed bed(stack, watchdog(sim::microseconds(500.0)));
  faults::LinkFaultConfig lf;
  lf.flap_period = sim::milliseconds(50.0);
  lf.flap_down = sim::milliseconds(2.0);  // deaf in [0, 2) and [50, 52) ms
  faults::FaultPlan plan;
  plan.add_link("", lf);
  faults::apply(plan, bed.cluster);
  sim::SimTime done = 0;
  bed.sim.spawn(
      [](Bed& b, sim::SimTime first_at, sim::SimTime& out) -> sim::Task<void> {
        bypass::Endpoint& p = b.end_a();
        co_await b.sim.delay_until(first_at);
        co_await p.send(4096, 1);
        co_await p.recv(4096, 1);
        co_await b.sim.delay_until(sim::milliseconds(50.0) +
                                   sim::microseconds(100.0));
        co_await p.send(4096, 2);
        co_await p.recv(4096, 2);
        out = b.sim.now();
      }(bed, first_at, done),
      "ping");
  bed.sim.spawn(
      [](Bed& b) -> sim::Task<void> {
        bypass::Endpoint& p = b.end_b();
        co_await p.recv(4096, 1);
        co_await p.send(4096, 1);
        co_await p.recv(4096, 2);
        co_await p.send(4096, 2);
      }(bed),
      "pong");
  bed.sim.run();
  return done;
}

TEST_P(BypassCore, DeliveryTimeoutResetsToBaseForEachNewMessage) {
  const sim::SimTime backed_off = second_exchange_done(GetParam(), 0);
  const sim::SimTime quiet =
      second_exchange_done(GetParam(), sim::milliseconds(10.0));
  EXPECT_GT(backed_off, 0u);
  EXPECT_EQ(backed_off, quiet);
}

// A message parked in b's unexpected queue dies with b's crash; the
// sender's watchdog, stood down while the message was parked, resumes
// and replays it under b's new power epoch. b's receive for another tag,
// posted before the crash, survives it and is re-registered.
TEST_P(BypassCore, CrashReplaysParkedMessagesUnderTheNewEpoch) {
  Bed bed(GetParam(), watchdog(sim::microseconds(500.0)));
  faults::HostCrashConfig crash;
  crash.at = sim::milliseconds(1.0);
  crash.downtime = sim::milliseconds(1.0);
  faults::FaultPlan plan;
  plan.add_crash(1, crash);
  faults::apply(plan, bed.cluster);
  int received = 0;
  bed.sim.spawn(
      [](Bed& b) -> sim::Task<void> {
        co_await b.end_a().send(4096, 1);  // parked at b until 3 ms
        co_await b.sim.delay_until(sim::milliseconds(5.0));
        co_await b.end_a().send(4096, 2);
      }(bed),
      "tx");
  bed.sim.spawn(
      [](bypass::Endpoint& p, int& n) -> sim::Task<void> {
        co_await p.recv(4096, 2);  // posted across the crash
        ++n;
      }(bed.end_b(), received),
      "rx2");
  bed.sim.spawn(
      [](Bed& b, int& n) -> sim::Task<void> {
        co_await b.sim.delay_until(sim::milliseconds(3.0));
        co_await b.end_b().recv(4096, 1);
        ++n;
      }(bed, received),
      "rx1");
  bed.sim.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(bed.end_b().epoch(), 2u);
  EXPECT_EQ(bed.end_b().reposts(), 1u);
  EXPECT_GT(bed.end_a().delivery_failures(), 0u);
  // Staged once before the crash, delivered again after it, plus tag 2.
  EXPECT_EQ(bed.end_b().messages_received(), 3u);
}

TEST_P(BypassCore, PermanentPeerCrashFailsThePairByDecision) {
  bypass::EndpointConfig cfg = watchdog(sim::microseconds(200.0));
  cfg.max_delivery_attempts = 3;
  Bed bed(GetParam(), cfg);
  faults::HostCrashConfig crash;
  crash.at = sim::microseconds(1.0);
  crash.mode = faults::HostCrashConfig::Mode::kPermanent;
  faults::FaultPlan plan;
  plan.add_crash(1, crash);
  faults::apply(plan, bed.cluster);
  bool recv_failed = false;
  bed.sim.spawn(
      [](bypass::Endpoint& p, bool& failed) -> sim::Task<void> {
        try {
          co_await p.recv(4096, 1);  // woken by the failed pair
        } catch (const bypass::DeliveryFailed&) {
          failed = true;
        }
      }(bed.end_a(), recv_failed),
      "rx");
  bed.sim.spawn(
      [](bypass::Endpoint& p) -> sim::Task<void> {
        co_await p.send(4096, 1);
      }(bed.end_a()),
      "tx");
  bed.sim.run();
  EXPECT_TRUE(recv_failed);
  EXPECT_TRUE(bed.end_a().failed());
  EXPECT_TRUE(bed.end_b().failed());
  EXPECT_EQ(bed.end_a().delivery_failures(), 2u);  // attempts 2 and 3
  // A failed pair refuses new work at once.
  bed.sim.spawn(bed.end_a().send(64, 2), "late");
  EXPECT_THROW(bed.sim.run(), bypass::DeliveryFailed);
}

// Watchdog timers and drop hooks hold only a weak handle on their
// endpoint: tearing the fabric down with a retry timer still queued must
// leave the timer a no-op (the use-after-free this guards against only
// shows under AddressSanitizer).
TEST_P(BypassCore, WatchdogTimersOutliveATornDownFabric) {
  auto bed = std::make_unique<Bed>(GetParam(), watchdog(sim::milliseconds(5)));
  faults::apply(faults::uniform_loss_plan(1.0, 7), bed->cluster);
  bed->sim.spawn(
      [](bypass::Endpoint& p) -> sim::Task<void> {
        co_await p.send(4096, 1);  // every fragment lost; timer at 5 ms
      }(bed->end_a()),
      "tx");
  ASSERT_TRUE(bed->sim.run_until(sim::milliseconds(1.0)));
  EXPECT_GT(bed->end_a().frags_lost(), 0u);
  bed->gm_fabric.reset();
  bed->via_fabric.reset();
  bed->sim.run();
  EXPECT_GE(bed->sim.now(), sim::milliseconds(5.0));
}

INSTANTIATE_TEST_SUITE_P(Personalities, BypassCore,
                         ::testing::Values(Stack::kGmPolling,
                                           Stack::kGmBlocking,
                                           Stack::kViaGiganet, Stack::kMvia),
                         stack_name);

}  // namespace
}  // namespace pp
