// Switch-fabric property suite: routing reachability on random
// fat-tree shapes, the cut-through vs store-and-forward latency
// invariant, incast backlog conservation at switch output ports, loss
// accounting, and the headline determinism contract — a 64-node fabric
// collective run is bit-identical across shard counts {1,2,8}, both
// event schedulers, and both packet paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mp/collectives.h"
#include "mp/fabric_lib.h"
#include "simcore/event_queue.h"
#include "simcore/packet_arena.h"
#include "simcore/random.h"
#include "simcore/shard.h"
#include "simcore/simulator.h"
#include "simhw/fabric/fabric.h"
#include "simhw/presets.h"

namespace pp {
namespace {

using hw::fabric::ClosShape;
using hw::fabric::Fabric;
using hw::fabric::FabricConfig;
using hw::fabric::FabricFrame;
using hw::fabric::FatTreeShape;
using hw::fabric::ForwardingMode;
using hw::fabric::Topology;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

hw::Packet make_frame(sim::Simulator& sim, std::uint64_t bytes) {
  hw::Packet p;
  p.wire_bytes = bytes;
  p.dma_bytes = bytes;
  p.desc = sim.packet_arena().make<std::uint64_t>(bytes);
  return p;
}

// ---------------------------------------------------------------------------
// Routing properties on randomized shapes
// ---------------------------------------------------------------------------

TEST(FabricTopology, RandomFatTreeShapesAllPairsReachableLoopFree) {
  sim::SplitMix64 rng(0xfab51c);
  for (int trial = 0; trial < 8; ++trial) {
    const int radix = 2 * static_cast<int>(2 + rng.below(3));  // 4, 6, 8
    const int capacity = radix * radix * radix / 4;
    const int hosts =
        2 + static_cast<int>(rng.below(static_cast<std::uint64_t>(capacity - 1)));
    sim::Simulator sim;
    hw::Cluster cluster(sim);
    for (int h = 0; h < hosts; ++h) cluster.add_node(hw::presets::pentium4_pc());
    Fabric fab(cluster, FabricConfig{}, FatTreeShape{radix});
    const Topology& topo = fab.topology();
    // Every ordered pair is reachable, and walking the ECMP pick chain
    // reaches the destination in exactly distance() hops with the
    // remaining distance strictly decreasing — i.e. routes are loop-
    // free (deadlock-free up/down routes) by construction.
    for (int s = 0; s < hosts; ++s) {
      for (int d = 0; d < hosts; ++d) {
        if (s == d) continue;
        const int dist = topo.distance(s, d);
        ASSERT_NE(dist, Topology::kUnreachable)
            << "radix " << radix << " hosts " << hosts << ": " << s
            << " cannot reach " << d;
        ASSERT_LE(dist, 6);  // three-level fat-tree worst case
        hw::fabric::VertexId v = s;
        int hops = 0;
        while (v != d) {
          const auto e = topo.pick(
              v, s, d, static_cast<std::uint32_t>(rng.below(7)));
          ASSERT_EQ(topo.distance(e.to, d), topo.distance(v, d) - 1);
          v = e.to;
          ASSERT_LE(++hops, dist);
        }
        ASSERT_EQ(hops, dist);
      }
    }
  }
}

TEST(FabricTopology, ClosReachableAndShallow) {
  sim::Simulator sim;
  hw::Cluster cluster(sim);
  const int hosts = 12;
  for (int h = 0; h < hosts; ++h) cluster.add_node(hw::presets::pentium4_pc());
  Fabric fab(cluster, FabricConfig{}, ClosShape::fit(hosts));
  const Topology& topo = fab.topology();
  for (int s = 0; s < hosts; ++s) {
    for (int d = 0; d < hosts; ++d) {
      if (s == d) continue;
      const int dist = topo.distance(s, d);
      ASSERT_NE(dist, Topology::kUnreachable);
      ASSERT_LE(dist, 4);  // host-leaf-spine-leaf-host
    }
  }
}

TEST(FabricTopology, EcmpPickIsDeterministicAndSpreadsFlows) {
  sim::Simulator sim;
  hw::Cluster cluster(sim);
  for (int h = 0; h < 16; ++h) cluster.add_node(hw::presets::pentium4_pc());
  Fabric fab(cluster, FabricConfig{}, FatTreeShape{4});
  const Topology& topo = fab.topology();
  // At host 0's edge switch, a cross-pod destination has two equal-cost
  // aggregation uplinks.
  const auto up = topo.out(0);
  ASSERT_EQ(up.size(), 1u);
  const hw::fabric::VertexId edge = up[0].to;
  ASSERT_EQ(topo.candidate_count(edge, 15), 2);
  std::vector<int> seen(2, 0);
  for (std::uint32_t flow = 0; flow < 64; ++flow) {
    const auto first = topo.pick(edge, 0, 15, flow);
    const auto second = topo.pick(edge, 0, 15, flow);
    EXPECT_EQ(first.link, second.link);  // pure function of (src,dst,flow)
    for (int k = 0; k < 2; ++k) {
      if (topo.candidate(edge, 15, k).link == first.link) ++seen[k];
    }
  }
  EXPECT_GT(seen[0], 8);  // both uplinks carry a healthy share
  EXPECT_GT(seen[1], 8);
}

// ---------------------------------------------------------------------------
// Forwarding-mode latency ordering
// ---------------------------------------------------------------------------

sim::SimTime idle_delivery_time(ForwardingMode mode, std::uint64_t bytes) {
  sim::Simulator sim;
  hw::Cluster cluster(sim);
  for (int h = 0; h < 16; ++h) cluster.add_node(hw::presets::pentium4_pc());
  FabricConfig cfg;
  cfg.sw.mode = mode;
  Fabric fab(cluster, cfg, FatTreeShape{4});
  sim::SimTime delivered = -1;
  sim.spawn(
      [](sim::Simulator& s, Fabric& f, std::uint64_t n,
         sim::SimTime& out) -> sim::Task<void> {
        // Host 0 -> host 15 crosses pods: edge, agg, core, agg, edge.
        f.port(0).inject(15, make_frame(s, n));
        FabricFrame got = co_await f.port(15).delivered().pop();
        got.pkt.desc.reset();
        out = s.now();
      }(sim, fab, bytes, delivered),
      "probe");
  sim.run();
  EXPECT_GE(delivered, 0);
  return delivered;
}

TEST(FabricForwarding, CutThroughSavesOneSerializationPerSwitchHop) {
  for (std::uint64_t bytes : {64ull, 1500ull, 4096ull}) {
    const sim::SimTime saf =
        idle_delivery_time(ForwardingMode::kStoreAndForward, bytes);
    const sim::SimTime ct =
        idle_delivery_time(ForwardingMode::kCutThrough, bytes);
    EXPECT_LE(ct, saf) << bytes << " bytes";
    // On an idle path the gap is exactly one serialization per switch
    // hop: 5 switches between cross-pod hosts in a k=4 fat-tree. All
    // links share one rate here, so ser_in == ser_out at every hop.
    FabricConfig cfg;
    const sim::SimTime ser =
        cfg.sw.port_rate.time_for(bytes + cfg.frame_overhead);
    EXPECT_EQ(saf - ct, 5 * ser) << bytes << " bytes";
  }
}

// ---------------------------------------------------------------------------
// Incast contention: backlog, conservation, drops
// ---------------------------------------------------------------------------

struct IncastResult {
  Fabric::Totals totals;
  std::size_t hot_peak = 0;
  std::uint64_t hot_in = 0;
  std::uint64_t hot_delivered = 0;
  std::uint64_t hot_dropped = 0;
  std::string violations;
};

IncastResult run_incast(std::uint32_t queue_frames, double loss,
                        int frames_per_sender) {
  sim::Simulator sim;
  hw::Cluster cluster(sim);
  const int hosts = 16;
  for (int h = 0; h < hosts; ++h) cluster.add_node(hw::presets::pentium4_pc());
  FabricConfig cfg;
  cfg.sw.queue_frames = queue_frames;
  Fabric fab(cluster, cfg, FatTreeShape{4});
  if (loss > 0) fab.set_loss(loss);
  for (int s = 1; s < hosts; ++s) {
    sim.spawn(
        [](sim::Simulator& sm, Fabric& f, int src,
           int frames) -> sim::Task<void> {
          for (int i = 0; i < frames; ++i) {
            f.port(src).inject(0, make_frame(sm, 1500),
                               static_cast<std::uint16_t>(src));
            co_await sm.delay(sim::microseconds(1));
          }
        }(sim, fab, s, frames_per_sender),
        "incast" + std::to_string(s));
  }
  // Drain whatever arrives so descriptors recycle promptly.
  sim.spawn_daemon(
      [](Fabric& f) -> sim::Task<void> {
        for (;;) {
          FabricFrame got = co_await f.port(0).delivered().pop();
          got.pkt.desc.reset();
        }
      }(fab),
      "sink");
  sim.run();
  IncastResult r;
  r.totals = fab.totals();
  r.violations = fab.conservation_violations(sim.now());
  // The hot port is the access link into host 0 (the only out-edge of
  // host 0's edge switch that leads to a host vertex).
  const Topology& topo = fab.topology();
  const auto host_uplink = topo.out(0);
  for (const auto& e : topo.out(host_uplink[0].to)) {
    if (e.to == 0) {
      const auto& hot = fab.link(e.link);
      r.hot_peak = hot.peak_backlog();
      r.hot_in = hot.frames_in();
      r.hot_delivered = hot.frames_delivered();
      r.hot_dropped = hot.frames_dropped();
    }
  }
  return r;
}

TEST(FabricIncast, LosslessBacklogIsConservedAndContended) {
  const IncastResult r = run_incast(/*queue_frames=*/0, /*loss=*/0.0,
                                    /*frames_per_sender=*/20);
  EXPECT_EQ(r.violations, "") << r.violations;
  EXPECT_EQ(r.totals.injected, 15u * 20u);
  EXPECT_EQ(r.totals.dropped, 0u);
  EXPECT_EQ(r.totals.delivered, r.totals.injected);
  // 15 senders share one egress: the output queue really backs up.
  EXPECT_GT(r.hot_peak, 4u);
  EXPECT_EQ(r.hot_in, r.hot_delivered);
}

TEST(FabricIncast, TailDropKeepsPerLinkConservation) {
  const IncastResult r = run_incast(/*queue_frames=*/8, /*loss=*/0.0,
                                    /*frames_per_sender=*/40);
  EXPECT_EQ(r.violations, "") << r.violations;
  EXPECT_GT(r.totals.dropped, 0u);
  EXPECT_EQ(r.totals.delivered + r.totals.dropped, r.totals.injected);
  EXPECT_LE(r.hot_peak, 8u + 1u);  // cap + the frame in serialization
  EXPECT_EQ(r.hot_in, r.hot_delivered);
  EXPECT_EQ(r.hot_in + r.hot_dropped,
            r.totals.injected - (r.totals.dropped - r.hot_dropped));
}

TEST(FabricIncast, BernoulliLossIsCountedAndReproducible) {
  const IncastResult a = run_incast(0, 0.1, 20);
  const IncastResult b = run_incast(0, 0.1, 20);
  EXPECT_GT(a.totals.dropped, 0u);
  EXPECT_EQ(a.totals.delivered + a.totals.dropped, a.totals.injected);
  EXPECT_EQ(a.totals.delivered, b.totals.delivered);  // seeded per link
  EXPECT_EQ(a.totals.dropped, b.totals.dropped);
  EXPECT_EQ(a.violations, "") << a.violations;
}

// ---------------------------------------------------------------------------
// Bit-identity across shards x schedulers x packet paths
// ---------------------------------------------------------------------------

std::uint64_t collective_run_checksum(int shards) {
  const int ranks = 64;
  mp::FabricWorldOptions opt;
  opt.shards = shards;
  opt.host = hw::presets::pentium4_pc();
  mp::FabricWorld world(ranks, opt);
  std::vector<sim::SimTime> done(static_cast<std::size_t>(ranks), 0);
  for (int r = 0; r < ranks; ++r) {
    world.spawn(
        r,
        [](mp::FabricWorld& w, int rank,
           sim::SimTime& out) -> sim::Task<void> {
          const mp::Comm comm = w.comm(rank);
          co_await mp::dissemination_barrier(comm);
          co_await mp::tree_broadcast(comm, 3, 32 << 10);
          co_await mp::doubling_allreduce(comm, 4 << 10);
          co_await mp::ring_allgather(comm, 512);
          out = w.simulator(rank).now();
        }(world, r, done[static_cast<std::size_t>(r)]),
        "rank" + std::to_string(r));
  }
  world.run();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (sim::SimTime t : done) h = fnv1a(h, static_cast<std::uint64_t>(t));
  const Fabric::Totals totals = world.fabric().totals();
  h = fnv1a(h, totals.injected);
  h = fnv1a(h, totals.delivered);
  h = fnv1a(h, totals.switched);
  h = fnv1a(h, totals.dropped);
  for (std::size_t l = 0; l < world.fabric().link_count(); ++l) {
    const auto& link = world.fabric().link(static_cast<std::int32_t>(l));
    h = fnv1a(h, link.frames_in());
    h = fnv1a(h, link.bytes_in());
  }
  return h;
}

TEST(FabricDeterminism, BitIdenticalAcrossShardsSchedulersPacketPaths) {
  const std::uint64_t reference = collective_run_checksum(1);
  for (sim::SchedulerKind sched :
       {sim::SchedulerKind::kCalendar, sim::SchedulerKind::kLegacyHeap}) {
    sim::ScopedScheduler ss(sched);
    for (sim::PacketPathKind path :
         {sim::PacketPathKind::kArena, sim::PacketPathKind::kLegacyHeap}) {
      sim::ScopedPacketPath sp(path);
      for (int shards : {1, 2, 8}) {
        EXPECT_EQ(collective_run_checksum(shards), reference)
            << "shards=" << shards << " sched=" << static_cast<int>(sched)
            << " path=" << static_cast<int>(path);
      }
    }
  }
}

}  // namespace
}  // namespace pp
