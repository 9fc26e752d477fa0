// Tests for the fault-injection subsystem (src/faults) and the recovery
// machinery it exercises: deterministic per-pipe fault streams, the
// null-plan bit-identity guarantee, TCP retransmission/backoff/checksum
// recovery under injected faults for every stream library, the GM and
// VIA delivery watchdogs, the rendezvous handshake watchdog, NIC and
// host injectors, crash/restart recovery with epoch fencing and TCP
// keepalive, pp.faultplan/1 serialization, the ddmin plan minimizer,
// and the sweep runner's degraded-job reporting.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "chaos/chaos.h"
#include "faults/config.h"
#include "faults/minimize.h"
#include "faults/plan.h"
#include "faults/plan_io.h"
#include "gmsim/gm.h"
#include "mp/daemon_relay.h"
#include "mp/lam.h"
#include "mp/mpich.h"
#include "mp/mplite.h"
#include "mp/pvm.h"
#include "mp/stream_lib.h"
#include "mp/tcgmsg.h"
#include "mp/testbed.h"
#include "netpipe/modules.h"
#include "netpipe/runner.h"
#include "simcore/simulator.h"
#include "simhw/cluster.h"
#include "simhw/pipe.h"
#include "simhw/presets.h"
#include "sweep/json_report.h"
#include "sweep/sweep.h"
#include "tcpsim/socket.h"
#include "viasim/via.h"

namespace pp {
namespace {

namespace presets = hw::presets;

// ---- Fixtures --------------------------------------------------------------

/// Two nodes, one duplex link, one connected TCP socket pair.
struct Pair {
  explicit Pair(const tcp::Sysctl& sysctl = tcp::Sysctl::tuned())
      : cluster(sim),
        a(cluster.add_node(presets::pentium4_pc())),
        b(cluster.add_node(presets::pentium4_pc())),
        link(cluster.connect(a, b, presets::netgear_ga620(),
                             presets::back_to_back())),
        stack_a(a, sysctl),
        stack_b(b, sysctl) {
    auto [sa, sb] = tcp::connect(stack_a, stack_b, link);
    sock_a = sa;
    sock_b = sb;
  }

  /// One-way transfer of `bytes` from a to b; returns the finish time.
  sim::SimTime transfer(std::uint64_t bytes) {
    sim::SimTime done = 0;
    sim.spawn(
        [](Pair& f, std::uint64_t n) -> sim::Task<void> {
          co_await f.sock_a.send(n, 42);
        }(*this, bytes),
        "sender");
    sim.spawn(
        [](Pair& f, std::uint64_t n, sim::SimTime& out) -> sim::Task<void> {
          co_await f.sock_b.recv_exact(n);
          out = f.sim.now();
        }(*this, bytes, done),
        "receiver");
    sim.run();
    return done;
  }

  sim::Simulator sim;
  hw::Cluster cluster;
  hw::Node& a;
  hw::Node& b;
  hw::Cluster::Duplex link;
  tcp::TcpStack stack_a;
  tcp::TcpStack stack_b;
  tcp::Socket sock_a;
  tcp::Socket sock_b;
};

struct GmBed {
  explicit GmBed(gm::GmConfig cfg = {})
      : cluster(sim),
        a(cluster.add_node(presets::pentium4_pc())),
        b(cluster.add_node(presets::pentium4_pc())),
        fabric(cluster, a, b, presets::myrinet_pci64a(),
               presets::back_to_back(), cfg) {}
  sim::Simulator sim;
  hw::Cluster cluster;
  hw::Node& a;
  hw::Node& b;
  gm::GmFabric fabric;
};

struct ViaBed {
  explicit ViaBed(via::ViaConfig cfg = {})
      : cluster(sim),
        a(cluster.add_node(presets::pentium4_pc())),
        b(cluster.add_node(presets::pentium4_pc())),
        fabric(cluster, a, b, presets::giganet_clan(), presets::switched(),
               cfg) {}
  sim::Simulator sim;
  hw::Cluster cluster;
  hw::Node& a;
  hw::Node& b;
  via::ViaFabric fabric;
};

sim::SimTime gm_pingpong(GmBed& bed, std::uint64_t bytes, int reps = 1) {
  sim::SimTime done = 0;
  bed.sim.spawn(
      [](gm::GmPort& p, std::uint64_t n, int reps, sim::Simulator& s,
         sim::SimTime& out) -> sim::Task<void> {
        for (int i = 0; i < reps; ++i) {
          co_await p.send(n, 1);
          co_await p.recv(n, 1);
        }
        out = s.now();
      }(bed.fabric.port_a(), bytes, reps, bed.sim, done),
      "ping");
  bed.sim.spawn(
      [](gm::GmPort& p, std::uint64_t n, int reps) -> sim::Task<void> {
        for (int i = 0; i < reps; ++i) {
          co_await p.recv(n, 1);
          co_await p.send(n, 1);
        }
      }(bed.fabric.port_b(), bytes, reps),
      "pong");
  bed.sim.run();
  return done;
}

sim::SimTime via_pingpong(ViaBed& bed, std::uint64_t bytes, int reps = 1) {
  sim::SimTime done = 0;
  bed.sim.spawn(
      [](via::ViEndpoint& p, std::uint64_t n, int reps, sim::Simulator& s,
         sim::SimTime& out) -> sim::Task<void> {
        for (int i = 0; i < reps; ++i) {
          co_await p.send(n, 1);
          co_await p.recv(n, 1);
        }
        out = s.now();
      }(bed.fabric.end_a(), bytes, reps, bed.sim, done),
      "ping");
  bed.sim.spawn(
      [](via::ViEndpoint& p, std::uint64_t n, int reps) -> sim::Task<void> {
        for (int i = 0; i < reps; ++i) {
          co_await p.recv(n, 1);
          co_await p.send(n, 1);
        }
      }(bed.fabric.end_b(), bytes, reps),
      "pong");
  bed.sim.run();
  return done;
}

/// Ping-pongs `bytes` `reps` times over a connected library pair and
/// returns the finish time (0 = the exchange never completed).
template <typename L>
sim::SimTime lib_pingpong(mp::PairBed& bed, L& a, L& b, std::uint64_t bytes,
                          int reps) {
  sim::SimTime done = 0;
  bed.sim.spawn(
      [](L& l, std::uint64_t n, int reps, sim::Simulator& s,
         sim::SimTime& out) -> sim::Task<void> {
        for (int i = 0; i < reps; ++i) {
          co_await l.send(1, n, 1);
          co_await l.recv(1, n, 1);
        }
        out = s.now();
      }(a, bytes, reps, bed.sim, done),
      "ping");
  bed.sim.spawn(
      [](L& l, std::uint64_t n, int reps) -> sim::Task<void> {
        for (int i = 0; i < reps; ++i) {
          co_await l.recv(0, n, 1);
          co_await l.send(0, n, 1);
        }
      }(b, bytes, reps),
      "pong");
  bed.sim.run();
  return done;
}

faults::FaultPlan burst_loss_plan(double good_to_bad, std::uint64_t seed) {
  faults::LinkFaultConfig cfg;
  cfg.ge_good_to_bad = good_to_bad;  // bad state deaf, mean burst 4 frames
  faults::FaultPlan plan;
  plan.seed = seed;
  plan.add_link("", cfg);
  return plan;
}

// ---- Deterministic seeding (satellite: set_loss default-seed fix) ----------

TEST(FaultSeeding, PipesInOneClusterGetDistinctStreams) {
  Pair p;
  // The forward and reverse pipes of one link must never share a drop
  // sequence; their streams derive from the cluster seed and pipe name.
  EXPECT_NE(p.link.forward.fault_seed(), p.link.backward.fault_seed());
  // And the derivation is stable: a second identical cluster gets the
  // same per-pipe seeds.
  Pair q;
  EXPECT_EQ(p.link.forward.fault_seed(), q.link.forward.fault_seed());
  EXPECT_EQ(p.link.backward.fault_seed(), q.link.backward.fault_seed());
}

TEST(FaultSeeding, ClusterSeedSelectsADifferentStreamFamily) {
  sim::Simulator s1, s2;
  hw::Cluster c1(s1, /*seed=*/1), c2(s2, /*seed=*/2);
  auto& a1 = c1.add_node(presets::pentium4_pc());
  auto& b1 = c1.add_node(presets::pentium4_pc());
  auto& a2 = c2.add_node(presets::pentium4_pc());
  auto& b2 = c2.add_node(presets::pentium4_pc());
  auto l1 = c1.connect(a1, b1, presets::netgear_ga620(),
                       presets::back_to_back());
  auto l2 = c2.connect(a2, b2, presets::netgear_ga620(),
                       presets::back_to_back());
  EXPECT_NE(l1.forward.fault_seed(), l2.forward.fault_seed());
}

TEST(FaultSeeding, LossRunsReproduceExactly) {
  auto run = [] {
    Pair p;
    p.link.forward.set_loss(0.03);  // default seed: derived, not shared
    p.link.backward.set_loss(0.03);
    const sim::SimTime done = p.transfer(1 << 20);
    return std::tuple(done, p.link.forward.packets_dropped(),
                      p.link.backward.packets_dropped(),
                      p.sock_a.stats().retransmits);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(std::get<0>(first), 0u);
  EXPECT_GT(std::get<1>(first), 0u);  // data direction saw drops
}

// ---- Null-plan bit-identity (tentpole acceptance) --------------------------

TEST(FaultPlan, EmptyPlanLeavesRunsBitIdentical) {
  auto run = [](bool with_plan) {
    Pair p;
    if (with_plan) {
      faults::FaultPlan plan;
      // A rule whose config is all-default arms nothing either.
      plan.add_link("", faults::LinkFaultConfig{});
      plan.add_nic("", faults::NicFaultConfig{});
      plan.add_host(-1, faults::HostFaultConfig{});
      plan.add_crash(-1, faults::HostCrashConfig{});  // at=0: disarmed
      EXPECT_TRUE(plan.empty());
      faults::apply(plan, p.cluster);
    }
    const sim::SimTime done = p.transfer(512 << 10);
    return std::tuple(done, p.link.forward.packets_delivered(),
                      p.link.forward.packets_dropped(),
                      p.sock_a.stats().retransmits,
                      p.sock_b.stats().bytes_received);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(FaultPlan, ArmedButNeverFiringFaultsAreBitIdentical) {
  // Satellite regression: arming an injector must not itself perturb the
  // run. Probabilities are armed (so the per-frame RNG draws all happen)
  // but astronomically unlikely to fire, and the rx ring is far larger
  // than any backlog the workload can build — the run must be
  // bit-identical to one with no plan at all. In particular the armed
  // ring-slots/irq-stall path must not advance the RxCoalescer regime or
  // shift interrupt times when nothing fires.
  auto run = [](bool with_plan) {
    Pair p;
    if (with_plan) {
      faults::LinkFaultConfig lf;
      lf.duplicate = 1e-12;
      faults::NicFaultConfig nf;
      nf.ring_slots = 1 << 20;
      nf.irq_stall = 1e-12;
      faults::FaultPlan plan;
      plan.seed = 71;
      plan.add_link("", lf);
      plan.add_nic("", nf);
      EXPECT_FALSE(plan.empty());
      faults::apply(plan, p.cluster);
    }
    const sim::SimTime done = p.transfer(512 << 10);
    return std::tuple(done, p.link.forward.packets_delivered(),
                      p.link.forward.packets_dropped(),
                      p.link.forward.packets_duplicated(),
                      p.link.forward.irq_stalls(),
                      p.link.forward.ring_overflow_drops(),
                      p.sock_a.stats().retransmits,
                      p.sock_b.stats().bytes_received);
  };
  const auto armed = run(true);
  EXPECT_EQ(run(false), armed);
  EXPECT_EQ(std::get<3>(armed), 0u);  // nothing actually fired
  EXPECT_EQ(std::get<4>(armed), 0u);
  EXPECT_EQ(std::get<5>(armed), 0u);
}

TEST(FaultPlan, SameSeedReproducesAcrossThreadCounts) {
  // The same plan + seed must give the same fault sequence regardless of
  // sweep parallelism: run three faulted NetPIPE jobs on 1 thread and on
  // 4 and compare results field by field.
  auto faulted_job = [](double loss, std::uint64_t seed) {
    return sweep::JobSpec{
        "loss", [loss, seed] {
          mp::PairBed bed(presets::pentium4_pc(), presets::netgear_ga620(),
                          tcp::Sysctl::tuned());
          faults::apply(faults::uniform_loss_plan(loss, seed), bed.cluster);
          auto [sa, sb] = bed.socket_pair("faulted");
          netpipe::TcpTransport ta(sa), tb(sb);
          netpipe::RunOptions o;
          o.schedule.max_bytes = 16 << 10;
          o.repeats = 1;
          o.warmup = 0;
          return netpipe::run_netpipe(bed.sim, ta, tb, o);
        }};
  };
  sweep::SweepSpec spec;
  spec.name = "repro";
  spec.jobs = {faulted_job(0.01, 1), faulted_job(0.02, 2),
               faulted_job(0.05, 3)};
  sweep::SweepOptions serial, parallel;
  serial.threads = 1;
  parallel.threads = 4;
  const auto r1 = run_sweep(spec, serial);
  const auto r4 = run_sweep(spec, parallel);
  ASSERT_EQ(r1.jobs.size(), r4.jobs.size());
  std::uint64_t total_drops = 0;
  for (std::size_t i = 0; i < r1.jobs.size(); ++i) {
    EXPECT_EQ(r1.jobs[i].result.max_mbps, r4.jobs[i].result.max_mbps);
    EXPECT_EQ(r1.jobs[i].result.counters.wire_drops,
              r4.jobs[i].result.counters.wire_drops);
    EXPECT_EQ(r1.jobs[i].result.counters.retransmits,
              r4.jobs[i].result.counters.retransmits);
    total_drops += r1.jobs[i].result.counters.wire_drops;
  }
  EXPECT_GT(total_drops, 0u);  // the faults actually fired
}

// ---- TCP recovery under burst loss, every stream library (satellite) -------

/// Runs a 200 kB x 2 ping-pong under Gilbert-Elliott burst loss on both
/// link directions and checks the exchange completes through TCP's
/// retransmission machinery (go-back-N rewinds under delayed ACKs).
template <typename L>
void expect_lib_survives_bursts(mp::PairBed& bed, L& a, L& b,
                                std::uint64_t seed) {
  faults::apply(burst_loss_plan(0.01, seed), bed.cluster);
  const sim::SimTime done = lib_pingpong(bed, a, b, 200 << 10, 2);
  EXPECT_GT(done, 0u) << "exchange did not complete under burst loss";
  EXPECT_GT(bed.link.forward.packets_dropped() +
                bed.link.backward.packets_dropped(),
            0u);
  const auto ca = a.protocol_counters();
  const auto cb = b.protocol_counters();
  EXPECT_GT(ca.retransmits + cb.retransmits, 0u);
  EXPECT_GT(ca.wire_drops + cb.wire_drops, 0u);
}

TEST(TcpRecovery, MpichSurvivesBurstLoss) {
  mp::PairBed bed(presets::pentium4_pc(), presets::netgear_ga620(),
                  tcp::Sysctl::tuned());
  auto [a, b] = mp::Mpich::create_pair(bed);
  expect_lib_survives_bursts(bed, *a, *b, 21);
}

TEST(TcpRecovery, LamSurvivesBurstLoss) {
  mp::PairBed bed(presets::pentium4_pc(), presets::netgear_ga620(),
                  tcp::Sysctl::tuned());
  mp::LamOptions o;
  o.mode = mp::LamMode::kC2cO;
  auto [a, b] = mp::Lam::create_pair(bed, o);
  expect_lib_survives_bursts(bed, *a, *b, 22);
}

TEST(TcpRecovery, MpLiteSurvivesBurstLoss) {
  mp::PairBed bed(presets::pentium4_pc(), presets::netgear_ga620(),
                  tcp::Sysctl::tuned());
  auto [a, b] = mp::MpLite::create_pair(bed);
  expect_lib_survives_bursts(bed, *a, *b, 23);
}

TEST(TcpRecovery, PvmSurvivesBurstLoss) {
  mp::PairBed bed(presets::pentium4_pc(), presets::netgear_ga620(),
                  tcp::Sysctl::tuned());
  mp::PvmOptions o;
  o.route = mp::PvmRoute::kDirect;
  auto [a, b] = mp::Pvm::create_pair(bed, o);
  expect_lib_survives_bursts(bed, *a, *b, 24);
}

TEST(TcpRecovery, TcgmsgSurvivesBurstLoss) {
  mp::PairBed bed(presets::pentium4_pc(), presets::netgear_ga620(),
                  tcp::Sysctl::tuned());
  auto [a, b] = mp::Tcgmsg::create_pair(bed, {});
  expect_lib_survives_bursts(bed, *a, *b, 25);
}

TEST(TcpRecovery, RtoBackoffRecoversAcrossLinkFlaps) {
  Pair p;
  faults::LinkFaultConfig cfg;
  // Deaf 1 ms in every 7. The period must not divide the RTO values
  // (40..640 ms are all multiples of 5 ms): after an RTO collapses the
  // window to one segment, a period-locked flap would swallow every
  // single retransmission at the same phase, forever.
  cfg.flap_period = sim::milliseconds(7.0);
  cfg.flap_down = sim::milliseconds(1.0);
  faults::FaultPlan plan;
  plan.add_link("", cfg);
  faults::apply(plan, p.cluster);
  const sim::SimTime done = p.transfer(1 << 20);
  EXPECT_GT(done, 0u);
  EXPECT_EQ(p.sock_b.stats().bytes_received, 1u << 20);
  // The opening flap window swallows whole flights: only the RTO (with
  // exponential backoff) can restart the transfer.
  EXPECT_GT(p.sock_a.stats().rto_timeouts, 0u);
  EXPECT_GT(p.link.forward.flap_drops() + p.link.backward.flap_drops(), 0u);
}

TEST(TcpRecovery, ChecksumDropsCorruptedSegmentsAndRecovers) {
  Pair p;
  faults::LinkFaultConfig cfg;
  cfg.corrupt = 0.02;
  faults::FaultPlan plan;
  plan.seed = 31;
  plan.add_link("", cfg);
  faults::apply(plan, p.cluster);
  const sim::SimTime done = p.transfer(1 << 20);
  EXPECT_GT(done, 0u);
  EXPECT_EQ(p.sock_b.stats().bytes_received, 1u << 20);
  EXPECT_GT(p.link.forward.packets_corrupted(), 0u);
  EXPECT_GT(p.sock_b.stats().checksum_drops, 0u);
  EXPECT_GT(p.sock_a.stats().retransmits, 0u);
}

TEST(TcpRecovery, WireDropsCountBothDirections) {
  Pair p;
  p.link.backward.set_loss(0.05);  // only the ACK path is lossy
  p.transfer(1 << 20);
  // wire_drops() must see reverse-path loss too; tx_wire_drops() is the
  // per-socket outbound share (sock_a sends on the forward pipe only).
  EXPECT_GT(p.sock_a.wire_drops(), 0u);
  EXPECT_EQ(p.sock_a.tx_wire_drops(), 0u);
  EXPECT_EQ(p.sock_a.wire_drops(),
            p.sock_a.tx_wire_drops() + p.sock_b.tx_wire_drops());
}

// Regression for the batched-rx fault contract: the flap verdict is
// recorded when the frame exits the wire, NOT when its coalesced
// interrupt batch flushes. A frame accepted while the link was up must
// deliver even if a flap lands inside the coalescing window, and a
// frame that hit a down window stays dropped even when the flush
// happens after the link came back. Evaluating any fault state at
// flush time would retro-drop (or revive) across the window.
TEST(LinkFaults, FlapInsideCoalescingWindowCannotRetroDropOrRevive) {
  sim::Simulator sim;
  hw::Cluster cluster(sim, 5);
  auto& a = cluster.add_node(presets::pentium4_pc());
  auto& b = cluster.add_node(presets::pentium4_pc());
  hw::NicConfig nic = presets::netgear_ga620();
  // Stretch the coalescing window so the interrupt flush trails the
  // wire exit by ~5 ms — far across a flap edge.
  nic.sparse_irq_delay = sim::milliseconds(5.0);
  nic.busy_irq_delay = sim::milliseconds(5.0);
  auto link = cluster.connect(a, b, nic, presets::back_to_back());

  // Link deaf during [0, 1ms) of every 4 ms: down windows at [0, 1),
  // [4, 5), [8, 9) ms ...
  faults::LinkFaultConfig cfg;
  cfg.flap_period = sim::milliseconds(4.0);
  cfg.flap_down = sim::milliseconds(1.0);
  link.forward.set_link_faults(cfg, link.forward.fault_seed());

  auto inject_at = [&](sim::SimTime at) {
    sim.call_at(at, [&] {
      hw::Packet p;
      p.dma_bytes = 64;
      p.wire_bytes = 64;
      p.desc = sim.packet_arena().make_payload(64);
      link.forward.inject(std::move(p));
    });
  };
  // Exits the wire ~3.5 ms (link up); its flush lands ~8.5 ms — inside
  // the [8, 9) down window. Must deliver anyway.
  inject_at(sim::milliseconds(3.5));
  // Exits the wire ~12.2 ms — inside the [12, 13) down window; its
  // flush would land ~17.2 ms with the link back up. Must stay dropped.
  inject_at(sim::milliseconds(12.2));
  sim.run();

  EXPECT_EQ(link.forward.packets_delivered(), 1u);
  EXPECT_EQ(link.forward.flap_drops(), 1u);
  EXPECT_EQ(link.forward.packets_dropped(), 1u);
  EXPECT_EQ(link.forward.rx_backlog(), 0u);
}

// ---- OS-bypass fabric recovery ---------------------------------------------
// Recovery properties shared by every stack personality (duplicate
// filtering, the per-message watchdog reset, crash replay) are checked
// once per personality in test_bypass.

TEST(GmRecovery, DeliveryWatchdogCompletesPingpongUnderLoss) {
  gm::GmConfig cfg;
  cfg.delivery_timeout = sim::microseconds(500.0);
  GmBed bed(cfg);
  faults::apply(faults::uniform_loss_plan(0.05, 41), bed.cluster);
  const sim::SimTime done = gm_pingpong(bed, 256 << 10, 3);
  EXPECT_GT(done, 0u) << "GM exchange wedged under loss";
  EXPECT_EQ(bed.fabric.port_a().messages_received(), 3u);
  EXPECT_EQ(bed.fabric.port_b().messages_received(), 3u);
  const auto& pa = bed.fabric.port_a();
  const auto& pb = bed.fabric.port_b();
  EXPECT_GT(pa.frags_lost() + pb.frags_lost(), 0u);
  EXPECT_GT(pa.delivery_failures() + pb.delivery_failures(), 0u);
}

TEST(ViaRecovery, RdmaHandshakeRecoversUnderLoss) {
  via::ViaConfig cfg;
  cfg.delivery_timeout = sim::microseconds(500.0);
  ViaBed bed(cfg);
  faults::apply(faults::uniform_loss_plan(0.05, 47), bed.cluster);
  // Well above rdma_threshold: every rep exercises the REQ/ACK handshake
  // and the RDMA payload path under loss.
  const sim::SimTime done = via_pingpong(bed, 256 << 10, 3);
  EXPECT_GT(done, 0u) << "VIA exchange wedged under loss";
  const auto& ea = bed.fabric.end_a();
  const auto& eb = bed.fabric.end_b();
  EXPECT_GT(ea.rdma_transfers() + eb.rdma_transfers(), 0u);
  EXPECT_GT(ea.frags_lost() + eb.frags_lost(), 0u);
  EXPECT_GT(ea.delivery_failures() + eb.delivery_failures(), 0u);
}

TEST(ViaRecovery, SmallMessagesRetryUnderLoss) {
  via::ViaConfig cfg;
  cfg.delivery_timeout = sim::microseconds(500.0);
  ViaBed bed(cfg);
  // 4 kB stays below rdma_threshold; enough reps that the loss stream
  // is certain to hit at least one in-flight fragment.
  faults::apply(faults::uniform_loss_plan(0.15, 53), bed.cluster);
  const sim::SimTime done = via_pingpong(bed, 4 << 10, 40);
  EXPECT_GT(done, 0u);
  EXPECT_GT(bed.fabric.end_a().frags_lost() + bed.fabric.end_b().frags_lost(),
            0u);
  EXPECT_GT(bed.fabric.end_a().delivery_failures() +
                bed.fabric.end_b().delivery_failures(),
            0u);
}

// ---- Rendezvous handshake watchdog -----------------------------------------

TEST(Rendezvous, WatchdogResendsRtsAndStillCompletes) {
  mp::PairBed bed(presets::pentium4_pc(), presets::netgear_ga620(),
                  tcp::Sysctl::tuned());
  mp::StreamConfig cfg;
  cfg.name = "rdv-test";
  cfg.eager_max = 1024;  // force rendezvous for the 64 kB payload
  // Far below the handshake RTT, so the watchdog fires spuriously: the
  // re-sent RTS must be deduplicated and the exchange must still finish
  // with the right byte counts (stall-then-recover, never deadlock).
  cfg.rendezvous_timeout = sim::microseconds(5.0);
  mp::StreamLibrary a(bed.sim, 0, bed.node_a, cfg);
  mp::StreamLibrary b(bed.sim, 1, bed.node_b, cfg);
  auto [sa, sb] = bed.socket_pair("rdv");
  mp::wire_pair(a, b, std::move(sa), std::move(sb));
  const sim::SimTime done = lib_pingpong(bed, a, b, 64 << 10, 2);
  EXPECT_GT(done, 0u) << "rendezvous deadlocked";
  EXPECT_GT(a.rendezvous_retries(), 0u);
  EXPECT_GT(a.rendezvous_count(), 0u);
  EXPECT_EQ(a.protocol_counters().rendezvous_retries,
            a.rendezvous_retries());
}

TEST(Rendezvous, NoTimeoutMeansNoRetries) {
  mp::PairBed bed(presets::pentium4_pc(), presets::netgear_ga620(),
                  tcp::Sysctl::tuned());
  auto [a, b] = mp::Mpich::create_pair(bed);
  const sim::SimTime done = lib_pingpong(bed, *a, *b, 256 << 10, 2);
  EXPECT_GT(done, 0u);
  EXPECT_GT(a->rendezvous_count(), 0u);
  EXPECT_EQ(a->rendezvous_retries(), 0u);
}

// ---- NIC and host injectors ------------------------------------------------

TEST(NicFaults, RingOverflowAndIrqStallsRecoverThroughTcp) {
  Pair p;
  faults::NicFaultConfig nf;
  nf.ring_slots = 2;
  nf.irq_stall = 0.3;
  faults::FaultPlan plan;
  plan.seed = 61;
  plan.add_nic("", nf);
  faults::apply(plan, p.cluster);
  const sim::SimTime done = p.transfer(1 << 20);
  EXPECT_GT(done, 0u);
  EXPECT_EQ(p.sock_b.stats().bytes_received, 1u << 20);
  EXPECT_GT(p.link.forward.irq_stalls(), 0u);
  // Stalled interrupts back the 2-slot ring up until frames overflow.
  EXPECT_GT(p.link.forward.ring_overflow_drops(), 0u);
  EXPECT_GT(p.sock_a.stats().retransmits, 0u);
}

TEST(HostFaults, PauseWindowsSlowTheRunDown) {
  const sim::SimTime clean = Pair().transfer(512 << 10);
  Pair p;
  faults::HostFaultConfig hf;
  hf.pause_period = sim::microseconds(200.0);
  hf.pause_duration = sim::microseconds(100.0);
  faults::FaultPlan plan;
  plan.add_host(-1, hf);
  faults::apply(plan, p.cluster);
  const sim::SimTime paused = p.transfer(512 << 10);
  EXPECT_GT(paused, clean);
  EXPECT_EQ(p.sock_b.stats().bytes_received, 512u << 10);
}

// ---- Crash/restart recovery (tentpole) -------------------------------------

TEST(CrashRecovery, TcpTransferSurvivesCrashRestartOfEitherEnd) {
  // 1 MB takes ~9 ms fault-free, so a crash at 1 ms lands mid-transfer.
  // Whichever end dies, the restarted node re-handshakes under the new
  // power epoch and the transfer must still complete end to end.
  for (const int victim : {0, 1}) {
    Pair p;
    faults::HostCrashConfig cc;
    cc.at = sim::milliseconds(1.0);
    cc.downtime = sim::milliseconds(2.0);
    faults::FaultPlan plan;
    plan.add_crash(victim, cc);
    faults::apply(plan, p.cluster);
    const sim::SimTime done = p.transfer(1 << 20);
    EXPECT_GT(done, cc.at + cc.downtime) << "victim node " << victim;
    EXPECT_EQ(p.cluster.node(static_cast<std::size_t>(victim)).crash_count(),
              1u);
    EXPECT_GE(p.sock_a.stats().reconnects + p.sock_b.stats().reconnects, 1u)
        << "victim node " << victim;
  }
}

TEST(CrashRecovery, CrashRestartRunsAreDeterministic) {
  auto run = [] {
    Pair p;
    faults::HostCrashConfig cc;
    cc.at = sim::milliseconds(1.0);
    cc.downtime = sim::milliseconds(2.0);
    faults::FaultPlan plan;
    plan.add_crash(1, cc);
    faults::apply(plan, p.cluster);
    const sim::SimTime done = p.transfer(1 << 20);
    return std::tuple(done, p.sock_a.stats().retransmits,
                      p.sock_a.stats().reconnects + p.sock_b.stats().reconnects,
                      p.link.forward.packets_dropped());
  };
  const auto first = run();
  EXPECT_EQ(first, run());
  EXPECT_GT(std::get<0>(first), 0u);
}

TEST(CrashRecovery, KeepaliveFailsTheSurvivorOfAPermanentCrash) {
  // The sender dies for good at 1 ms. The receiver ends up parked in
  // recv() with nothing in flight — no RTO will ever fire for it — so
  // only the keepalive probes can discover the peer is gone and turn a
  // would-be hang into a clean ConnectionFailed.
  tcp::Sysctl sysctl = tcp::Sysctl::tuned();
  sysctl.keepalive_interval = sim::milliseconds(5.0);
  Pair p(sysctl);
  faults::HostCrashConfig cc;
  cc.at = sim::milliseconds(1.0);
  cc.mode = faults::HostCrashConfig::Mode::kPermanent;
  faults::FaultPlan plan;
  plan.add_crash(0, cc);
  faults::apply(plan, p.cluster);
  EXPECT_THROW(p.transfer(1 << 20), tcp::ConnectionFailed);
  EXPECT_GT(p.sock_b.stats().keepalive_probes, 0u);
  EXPECT_TRUE(p.sock_b.failed());
}

// ---- Gilbert–Elliott statistics (satellite) --------------------------------

TEST(FaultStats, GilbertElliottMatchesSteadyStateTheory) {
  // 1e6 chain steps against the closed-form answers: steady-state loss
  // P(bad) = g2b / (g2b + b2g) for a deaf bad state, mean burst length
  // 1 / b2g frames (geometric sojourn).
  struct Rng {
    std::uint64_t s = 0x853c49e6748fea9bULL;
    double uniform() {
      s += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = s;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      z ^= z >> 31;
      return static_cast<double>(z >> 11) * 0x1.0p-53;
    }
  } rng;
  faults::LinkFaultConfig cfg;
  cfg.ge_good_to_bad = 0.01;  // defaults: b2g = 0.25, deaf bad state
  faults::GilbertElliott ge;
  const int kTrials = 1'000'000;
  std::int64_t losses = 0, bursts = 0;
  bool in_burst = false;
  for (int i = 0; i < kTrials; ++i) {
    const bool lost = ge.step(cfg, rng);
    losses += lost ? 1 : 0;
    if (lost && !in_burst) ++bursts;
    in_burst = lost;
  }
  const double expected = 0.01 / (0.01 + 0.25);
  EXPECT_NEAR(static_cast<double>(losses) / kTrials, expected,
              0.10 * expected);
  ASSERT_GT(bursts, 0);
  EXPECT_NEAR(static_cast<double>(losses) / static_cast<double>(bursts),
              1.0 / 0.25, 0.5);
}

// ---- pp.faultplan/1 serialization ------------------------------------------

TEST(PlanIo, RoundTripsEveryRuleKind) {
  faults::FaultPlan plan;
  plan.seed = 42;
  faults::LinkFaultConfig lf;
  lf.loss = 0.017;
  lf.ge_good_to_bad = 0.003;
  lf.ge_bad_to_good = 0.21;
  lf.reorder = 0.02;
  lf.reorder_delay = sim::microseconds(75.0);
  lf.duplicate = 0.01;
  lf.corrupt = 1.0 / 3.0;  // not exactly representable in short decimal
  lf.flap_period = sim::milliseconds(3.0);
  lf.flap_down = sim::microseconds(250.0);
  plan.add_link("myri", lf);
  faults::LinkFaultConfig sparse;
  sparse.loss = 0.05;
  plan.add_link("", sparse);
  faults::NicFaultConfig nf;
  nf.ring_slots = 16;
  nf.irq_stall = 0.05;
  plan.add_nic("eth", nf);
  faults::HostFaultConfig hf;
  hf.pause_period = sim::milliseconds(1.0);
  hf.pause_duration = sim::microseconds(100.0);
  plan.add_host(1, hf);
  faults::HostCrashConfig restart;
  restart.at = sim::microseconds(500.0);
  restart.downtime = sim::milliseconds(2.0);
  plan.add_crash(0, restart);
  faults::HostCrashConfig permanent;
  permanent.at = sim::milliseconds(1.0);
  permanent.mode = faults::HostCrashConfig::Mode::kPermanent;
  plan.add_crash(-1, permanent);

  const std::string text = faults::to_text(plan);
  const faults::FaultPlan parsed = faults::from_text(text);
  EXPECT_EQ(faults::to_text(parsed), text);  // fixed point after one trip
  EXPECT_EQ(parsed.seed, 42u);
  ASSERT_EQ(parsed.links.size(), 2u);
  EXPECT_EQ(parsed.links[0].pipe_match, "myri");
  EXPECT_EQ(parsed.links[0].cfg.corrupt, 1.0 / 3.0);  // bit-exact doubles
  EXPECT_EQ(parsed.links[0].cfg.reorder_delay, sim::microseconds(75.0));
  EXPECT_EQ(parsed.links[1].pipe_match, "");
  ASSERT_EQ(parsed.nics.size(), 1u);
  EXPECT_EQ(parsed.nics[0].cfg.ring_slots, 16u);
  ASSERT_EQ(parsed.hosts.size(), 1u);
  EXPECT_EQ(parsed.hosts[0].node, 1);
  ASSERT_EQ(parsed.crashes.size(), 2u);
  EXPECT_TRUE(parsed.crashes[0].cfg.restarts());
  EXPECT_EQ(parsed.crashes[1].node, -1);
  EXPECT_FALSE(parsed.crashes[1].cfg.restarts());
}

TEST(PlanIo, RejectsMalformedInput) {
  EXPECT_THROW(faults::from_text("frob *\n"), std::runtime_error);
  EXPECT_THROW(faults::from_text("link\n"), std::runtime_error);
  EXPECT_THROW(faults::from_text("link * loss=notanumber\n"),
               std::runtime_error);
  EXPECT_THROW(faults::from_text("crash 0 at=oops\n"), std::runtime_error);
  EXPECT_THROW(faults::from_text("seed\n"), std::runtime_error);
}

TEST(PlanIo, RandomChaosPlansRoundTripByTheThousand) {
  // pp.faultplan/1 is the interchange format between the chaos sweep,
  // the ddmin minimizer and netpipe_cli --fault-plan: every plan the
  // chaos generator can emit must survive format -> parse -> format
  // bit-exactly (serialized text is the canonical plan identity).
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const faults::FaultPlan plan = chaos::random_plan(seed);
    const std::string text = faults::to_text(plan);
    faults::FaultPlan parsed;
    ASSERT_NO_THROW(parsed = faults::from_text(text)) << "seed " << seed
                                                      << "\n" << text;
    EXPECT_EQ(faults::to_text(parsed), text) << "seed " << seed;
    EXPECT_EQ(parsed.seed, plan.seed);
    EXPECT_EQ(parsed.links.size(), plan.links.size());
    EXPECT_EQ(parsed.nics.size(), plan.nics.size());
    EXPECT_EQ(parsed.hosts.size(), plan.hosts.size());
    EXPECT_EQ(parsed.crashes.size(), plan.crashes.size());
  }
}

// ---- Daemon-relay hop attribution ------------------------------------------

// A corrupted frame traversing a two-hop daemon-relay chain (A -> B -> C,
// store-and-forward at B) must be discarded by the checksumming receiver
// of the hop it was corrupted on — and the drop must be charged to that
// hop's socket, not smeared over the chain. The transfer still completes:
// TCP retransmits the corrupted segment on the faulted hop alone.
TEST(RelayFaults, CorruptedFrameIsDroppedAtTheRightHop) {
  sim::Simulator s;
  hw::Cluster cluster(s);
  hw::Node& a = cluster.add_node(presets::pentium4_pc());
  hw::Node& b = cluster.add_node(presets::pentium4_pc());
  hw::Node& c = cluster.add_node(presets::pentium4_pc());
  auto link_ab = cluster.connect(a, b, presets::netgear_ga620(),
                                 presets::back_to_back());
  auto link_bc = cluster.connect(b, c, presets::netgear_ga620(),
                                 presets::back_to_back());
  tcp::TcpStack stack_a(a, tcp::Sysctl::tuned());
  tcp::TcpStack stack_b(b, tcp::Sysctl::tuned());
  tcp::TcpStack stack_c(c, tcp::Sysctl::tuned());
  auto [s1a, s1b] = tcp::connect(stack_a, stack_b, link_ab, "hop1");
  auto [s2b, s2c] = tcp::connect(stack_b, stack_c, link_bc, "hop2");
  mp::RelayChannel hop1(a, b, std::move(s1a), std::move(s1b));
  mp::RelayChannel hop2(b, c, std::move(s2b), std::move(s2c));

  // Corrupt only the second hop's forward direction (pipe "ga620[1-2]>").
  faults::LinkFaultConfig corrupt;
  corrupt.corrupt = 0.05;
  faults::FaultPlan plan;
  plan.seed = 17;
  plan.add_link("[1-2]>", corrupt);
  faults::apply(plan, cluster);

  constexpr std::uint64_t kBytes = 512 << 10;
  bool done = false;
  s.spawn(
      [](mp::RelayChannel& r) -> sim::Task<void> {
        co_await r.send(kBytes);
      }(hop1),
      "src-app");
  s.spawn(
      [](mp::RelayChannel& in, mp::RelayChannel& out) -> sim::Task<void> {
        co_await in.recv(kBytes);
        co_await out.send(kBytes);
      }(hop1, hop2),
      "forwarder");
  s.spawn(
      [](mp::RelayChannel& r, bool& flag) -> sim::Task<void> {
        co_await r.recv(kBytes);
        flag = true;
      }(hop2, done),
      "dst-app");
  s.run();

  ASSERT_TRUE(done);  // the chain still delivers everything
  EXPECT_GT(link_bc.forward.packets_corrupted(), 0u);
  // The final checksumming receiver (hop2's destination socket on C)
  // discarded the damage ...
  EXPECT_GT(hop2.dst_socket().stats().checksum_drops, 0u);
  // ... and no other socket of the chain was charged for it.
  EXPECT_EQ(hop1.dst_socket().stats().checksum_drops, 0u);
  EXPECT_EQ(hop1.src_socket().stats().checksum_drops, 0u);
  EXPECT_EQ(hop2.src_socket().stats().checksum_drops, 0u);
  // Recovery stayed local too: only the faulted hop retransmitted.
  EXPECT_GT(hop2.src_socket().stats().retransmits, 0u);
  EXPECT_EQ(hop1.src_socket().stats().retransmits, 0u);
}

// ---- ddmin plan minimization -----------------------------------------------

TEST(Minimize, ShrinksToTheMinimalFailingCore) {
  faults::FaultPlan plan;
  plan.seed = 9;
  for (int i = 0; i < 5; ++i) {
    faults::LinkFaultConfig c;
    c.loss = 0.01 * (i + 1);
    plan.add_link("pipe" + std::to_string(i), c);
  }
  faults::NicFaultConfig nf;
  nf.ring_slots = 8;
  plan.add_nic("nic", nf);
  faults::HostCrashConfig cc;
  cc.at = sim::milliseconds(1.0);
  plan.add_crash(1, cc);

  // The "failure" needs exactly the pipe3 loss rule plus the crash.
  int probes = 0;
  const faults::Oracle oracle = [&probes](const faults::FaultPlan& c) {
    ++probes;
    bool has_pipe3 = false;
    for (const auto& l : c.links) has_pipe3 |= l.pipe_match == "pipe3";
    return has_pipe3 && !c.crashes.empty();
  };
  const faults::MinimizeResult r = faults::minimize(plan, oracle);
  EXPECT_EQ(r.initial_rules, 7u);
  EXPECT_EQ(r.final_rules, 2u);
  EXPECT_EQ(r.probes, probes);
  EXPECT_EQ(r.plan.seed, 9u);  // the seed rides along unchanged
  ASSERT_EQ(r.plan.links.size(), 1u);
  EXPECT_EQ(r.plan.links[0].pipe_match, "pipe3");
  EXPECT_TRUE(r.plan.nics.empty());
  ASSERT_EQ(r.plan.crashes.size(), 1u);
}

TEST(Minimize, RejectsAPlanThatDoesNotFail) {
  const faults::FaultPlan plan = faults::uniform_loss_plan(0.01);
  EXPECT_THROW(
      faults::minimize(plan,
                       [](const faults::FaultPlan&) { return false; }),
      std::invalid_argument);
}

// ---- Sweep watchdog: degrade, never abort ----------------------------------

TEST(SweepWatchdog, HungJobDegradesToAReportedRow) {
  sweep::SweepSpec spec;
  spec.name = "watchdog";
  spec.add("hung", [] {
    sim::Simulator s;  // adopts the sweep's ambient budgets
    s.spawn(
        [](sim::Simulator& s) -> sim::Task<void> {
          for (;;) co_await s.delay(sim::microseconds(1.0));
        }(s),
        "spin");
    s.run();  // never returns on its own; the event budget cuts it off
    return netpipe::RunResult{};
  });
  spec.add("fine", [] { return netpipe::RunResult{}; });

  sweep::SweepOptions opt;
  opt.keep_going = false;  // watchdog kills must not be rethrown even so
  opt.limits.event_budget = 50'000;
  opt.watchdog_retries = 1;
  sweep::SweepResult sr;
  ASSERT_NO_THROW(sr = run_sweep(spec, opt));

  ASSERT_EQ(sr.jobs.size(), 2u);
  EXPECT_FALSE(sr.jobs[0].ok);
  EXPECT_EQ(sr.jobs[0].status, sweep::JobStatus::kWatchdog);
  EXPECT_EQ(sr.jobs[0].retries, 1);  // one doubled-budget re-run
  EXPECT_FALSE(sr.jobs[0].error.empty());
  EXPECT_TRUE(sr.jobs[1].ok);
  EXPECT_EQ(sr.jobs[1].status, sweep::JobStatus::kOk);

  const std::string j = sweep::JsonReporter::to_json({sr});
  EXPECT_NE(j.find("pp.sweep/6"), std::string::npos);
  EXPECT_NE(j.find("\"status\":\"watchdog\""), std::string::npos);
  EXPECT_NE(j.find("\"retries\":1"), std::string::npos);
}

TEST(SweepWatchdog, SimDeadlineAlsoCutsJobsOff) {
  sweep::SweepSpec spec;
  spec.name = "deadline";
  spec.add("slow", [] {
    sim::Simulator s;
    s.spawn(
        [](sim::Simulator& s) -> sim::Task<void> {
          for (;;) co_await s.delay(sim::seconds(1.0));
        }(s),
        "spin");
    s.run();
    return netpipe::RunResult{};
  });
  sweep::SweepOptions opt;
  opt.keep_going = true;
  opt.limits.sim_deadline = sim::seconds(5.0);
  opt.watchdog_retries = 0;
  const auto sr = run_sweep(spec, opt);
  ASSERT_EQ(sr.jobs.size(), 1u);
  EXPECT_EQ(sr.jobs[0].status, sweep::JobStatus::kWatchdog);
  EXPECT_EQ(sr.jobs[0].retries, 0);
}

}  // namespace
}  // namespace pp
