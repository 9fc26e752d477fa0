// scaling: collective latency vs node count on the switch fabric, plus
// the incast hotspot.
//
// The paper measures two-node protocol curves; this bench asks what the
// same stacks cost once a fat-tree sits between the endpoints. Three
// sweeps, all over src/simhw/fabric:
//
//   1. Barrier latency vs node count {8..1024} for the O(N) token ring
//      and the O(log N) dissemination algorithm.
//   2. 16 kB allreduce latency vs node count for the bandwidth-optimal
//      ring and recursive doubling.
//   3. The incast hotspot: N-1 senders blast one receiver through the
//      shared egress port, under cut-through and store-and-forward, to
//      quantify output-queue contention (peak backlog, sojourn time).
//
// Every collective job repeats the operation and reports the repeat
// distribution (one DataPoint per iteration, bytes = node count), in
// the spirit of Hunold & Carpen-Amarie's MPI benchmarking guidance:
// a single number hides the warm-up and steady-state split. latency_us
// carries the median iteration.
//
// `--smoke` restricts to the 8/16-node points (and a 16-host incast) so
// the bench doubles as a tier-1 ctest entry; the full run writes the
// complete BENCH_scaling.json (schema pp.sweep/6).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bench/figures.h"
#include "mp/collectives.h"
#include "mp/fabric_lib.h"
#include "netpipe/runner.h"
#include "simhw/presets.h"
#include "sweep/json_report.h"
#include "sweep/sweep.h"

using namespace pp;
using namespace pp::bench;

namespace {

struct Algo {
  const char* name;
  std::function<sim::Task<void>(mp::Comm)> op;
};

std::string job_label(const char* algo, int nodes) {
  return std::string(algo) + " N=" + std::to_string(nodes);
}

/// Repeats `op` on every rank of an N-node fat-tree; iteration latency
/// is last-rank-out minus first-rank-in (collectives self-synchronize,
/// so iterations cannot skew by more than one operation).
netpipe::RunResult collective_job(const char* algo, int nodes, int repeats,
                                  std::function<sim::Task<void>(mp::Comm)> op) {
  mp::FabricWorldOptions opt;
  opt.shards = 1;  // jobs already run one-per-worker-thread
  opt.host = hw::presets::pentium4_pc();
  mp::FabricWorld world(nodes, opt);
  const auto reps = static_cast<std::size_t>(repeats);
  std::vector<sim::SimTime> first_in(reps,
                                     std::numeric_limits<sim::SimTime>::max());
  std::vector<sim::SimTime> last_out(reps, 0);
  for (int r = 0; r < nodes; ++r) {
    world.spawn(
        r,
        [](mp::FabricWorld& w, int rank, int iters,
           const std::function<sim::Task<void>(mp::Comm)>& body,
           std::vector<sim::SimTime>& in,
           std::vector<sim::SimTime>& out) -> sim::Task<void> {
          sim::Simulator& sm = w.simulator(rank);
          const mp::Comm comm = w.comm(rank);
          for (int i = 0; i < iters; ++i) {
            const auto it = static_cast<std::size_t>(i);
            in[it] = std::min(in[it], sm.now());
            co_await body(comm);
            out[it] = std::max(out[it], sm.now());
          }
        }(world, r, repeats, op, first_in, last_out),
        "rank" + std::to_string(r));
  }
  world.run();

  netpipe::RunResult res;
  res.transport = algo;
  std::vector<sim::SimTime> lat(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    lat[i] = last_out[i] - first_in[i];
    res.points.push_back(netpipe::DataPoint{
        static_cast<std::uint64_t>(nodes), lat[i]});
  }
  std::sort(lat.begin(), lat.end());
  res.latency_us = sim::to_microseconds(lat[reps / 2]);
  for (int r = 0; r < nodes; ++r) {
    res.counters += world.lib(r).protocol_counters();
  }
  return res;
}

/// N-1 senders each fire `frames` MTU-sized frames at host 0 with 1 us
/// inter-departure time — far above the shared egress port's drain rate,
/// so the hotspot is the access link into the receiver.
netpipe::RunResult incast_job(const char* mode, hw::fabric::ForwardingMode fm,
                              int hosts, int frames) {
  sim::Simulator sim;
  hw::Cluster cluster(sim);
  for (int h = 0; h < hosts; ++h) {
    cluster.add_node(hw::presets::pentium4_pc());
  }
  hw::fabric::FabricConfig cfg;
  cfg.sw.mode = fm;
  hw::fabric::Fabric fab(cluster, cfg,
                         hw::fabric::FatTreeShape::fit(hosts));
  const std::uint32_t bytes = cfg.mtu;
  sim::SimTime start = 0;
  std::vector<sim::SimTime> sojourns;
  for (int s = 1; s < hosts; ++s) {
    sim.spawn(
        [](sim::Simulator& sm, hw::fabric::Fabric& f, int src, int n,
           std::uint32_t b) -> sim::Task<void> {
          for (int i = 0; i < n; ++i) {
            hw::Packet p;
            p.wire_bytes = b;
            p.dma_bytes = b;
            f.port(src).inject(0, std::move(p),
                               static_cast<std::uint16_t>(src));
            co_await sm.delay(sim::microseconds(1));
          }
        }(sim, fab, s, frames, bytes),
        "incast" + std::to_string(s));
  }
  sim.spawn_daemon(
      [](sim::Simulator& sm, hw::fabric::Fabric& f, sim::SimTime t0,
         std::vector<sim::SimTime>& out) -> sim::Task<void> {
        for (;;) {
          hw::fabric::FabricFrame got = co_await f.port(0).delivered().pop();
          got.pkt.desc.reset();
          out.push_back(sm.now() - t0);
        }
      }(sim, fab, start, sojourns),
      "sink");
  sim.run();

  const hw::fabric::Fabric::Totals t = fab.totals();
  netpipe::RunResult res;
  res.transport = mode;
  sim::SimTime total = 0;
  sim::SimTime last = 0;
  for (sim::SimTime s : sojourns) {
    total += s;
    last = std::max(last, s);
    res.points.push_back(netpipe::DataPoint{bytes, s});
  }
  if (!sojourns.empty()) {
    res.latency_us =
        sim::to_microseconds(total / static_cast<sim::SimTime>(
                                         sojourns.size()));
    // Drain rate of the shared egress over the whole burst.
    res.max_mbps = static_cast<double>(sojourns.size()) * bytes * 8.0 /
                   sim::to_seconds(last) / 1e6;
  }
  res.counters.wire_drops = t.dropped;
  res.counters.relay_fragments = t.switched;

  // Peak backlog on the hot access link (edge switch -> host 0).
  const hw::fabric::Topology& topo = fab.topology();
  std::size_t peak = 0;
  for (const auto& e : topo.out(topo.out(0)[0].to)) {
    if (e.to == 0) peak = fab.link(e.link).peak_backlog();
  }
  std::printf("  incast %-18s N=%-4d delivered %6llu  dropped %4llu"
              "  hot-port peak backlog %3zu frames  mean sojourn %8.1f us\n",
              mode, hosts, static_cast<unsigned long long>(t.delivered),
              static_cast<unsigned long long>(t.dropped), peak,
              res.latency_us);
  return res;
}

void print_latency_table(const char* what, const sweep::SweepResult& sr,
                         const std::vector<int>& nodes, int algos) {
  std::printf("\n%s latency (us, median of repeats) vs node count\n", what);
  std::printf("%-16s", "algorithm");
  for (int n : nodes) std::printf(" %9d", n);
  std::printf("\n");
  for (int a = 0; a < algos; ++a) {
    const std::size_t base = static_cast<std::size_t>(a) * nodes.size();
    std::printf("%-16s", sr.jobs[base].result.transport.c_str());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const sweep::JobResult& jr = sr.jobs[base + i];
      if (jr.ok) {
        std::printf(" %9.1f", jr.result.latency_us);
      } else {
        std::printf(" %9s", sweep::to_string(jr.status));
      }
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::vector<int> nodes =
      smoke ? std::vector<int>{8, 16} : std::vector<int>{8, 16, 64, 256, 1024};
  const int incast_hosts = smoke ? 16 : 64;
  const std::uint64_t allreduce_bytes = 16 << 10;

  auto repeats_for = [smoke](int n) { return smoke || n >= 256 ? 3 : 5; };

  const std::vector<Algo> barriers = {
      {"ring", [](mp::Comm c) { return mp::ring_barrier(c); }},
      {"dissemination",
       [](mp::Comm c) { return mp::dissemination_barrier(c); }},
  };
  const std::vector<Algo> allreduces = {
      {"ring", [=](mp::Comm c) {
         return mp::ring_allreduce(c, allreduce_bytes);
       }},
      {"doubling", [=](mp::Comm c) {
         return mp::doubling_allreduce(c, allreduce_bytes);
       }},
  };

  auto make_sweep = [&](const char* name, const std::vector<Algo>& algos) {
    sweep::SweepSpec spec;
    spec.name = name;
    for (const Algo& a : algos) {
      for (int n : nodes) {
        spec.jobs.push_back(sweep::JobSpec{
            job_label(a.name, n), [&a, n, reps = repeats_for(n)] {
              return collective_job(a.name, n, reps, a.op);
            }});
      }
    }
    return spec;
  };

  sweep::SweepOptions sopt;
  sopt.keep_going = true;
  sopt.limits.sim_deadline = sim::seconds(300.0);
  sopt.limits.event_budget = 4'000'000'000ull;

  const sweep::SweepResult barrier_sr =
      run_sweep(make_sweep("scaling-barrier", barriers), sopt);
  print_sweep_stats(barrier_sr);
  print_latency_table("barrier", barrier_sr, nodes,
                      static_cast<int>(barriers.size()));

  const sweep::SweepResult allreduce_sr =
      run_sweep(make_sweep("scaling-allreduce", allreduces), sopt);
  print_sweep_stats(allreduce_sr);
  print_latency_table("16 kB allreduce", allreduce_sr, nodes,
                      static_cast<int>(allreduces.size()));

  std::printf("\nincast hotspot: %d senders -> host 0\n", incast_hosts - 1);
  sweep::SweepSpec incast;
  incast.name = "scaling-incast";
  const int frames = smoke ? 20 : 40;
  // Sequential on purpose: incast_job prints its own summary line.
  std::vector<sweep::JobResult> incast_jobs;
  for (const auto& [label, fm] :
       {std::pair{"cut-through", hw::fabric::ForwardingMode::kCutThrough},
        std::pair{"store-and-forward",
                  hw::fabric::ForwardingMode::kStoreAndForward}}) {
    incast.jobs.push_back(sweep::JobSpec{
        job_label(label, incast_hosts), [=] {
          return incast_job(label, fm, incast_hosts, frames);
        }});
  }
  sweep::SweepOptions serial = sopt;
  serial.threads = 1;
  const sweep::SweepResult incast_sr = run_sweep(incast, serial);

  sweep::JsonReporter::write("BENCH_scaling.json",
                             {barrier_sr, allreduce_sr, incast_sr});
  std::printf("\nwrote BENCH_scaling.json\n");
  return 0;
}
