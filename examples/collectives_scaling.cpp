// Collectives on rings of growing size: the paper's introduction frames
// the communication rate as "the main limiting factor ... [for] the
// ability of applications to scale to large numbers of processors"; this
// example quantifies it for broadcast/allreduce over two libraries.
//
//   ./collectives_scaling [bytes]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "mp/collectives.h"
#include "mp/mpich.h"
#include "mp/mplite.h"
#include "mp/world.h"
#include "simhw/presets.h"

using namespace pp;

namespace {

template <typename L, typename... Args>
std::pair<double, double> ring_times_ms(int n, std::uint64_t bytes,
                                        Args&&... args) {
  auto run = [&](bool bcast) {
    mp::RingWorld world(n, hw::presets::pentium4_pc(),
                        hw::presets::netgear_ga620(), tcp::Sysctl::tuned());
    auto libs = world.template build<L>(args...);
    // Measure the last rank's completion, not the end of the simulation
    // (retransmission timers idle out ~40 ms after the traffic stops).
    sim::SimTime finished = 0;
    for (int i = 0; i < n; ++i) {
      mp::Comm comm{libs[static_cast<std::size_t>(i)].get(), i, n};
      world.sim.spawn(
          [](mp::Comm c, bool bcast, std::uint64_t b, sim::Simulator& s,
             sim::SimTime& fin) -> sim::Task<void> {
            if (bcast) {
              co_await mp::ring_broadcast(c, 0, b);
            } else {
              co_await mp::ring_allreduce(c, b);
            }
            fin = std::max(fin, s.now());
          }(comm, bcast, bytes, world.sim, finished),
          "rank" + std::to_string(i));
    }
    world.sim.run();
    return sim::to_seconds(finished) * 1e3;
  };
  return {run(true), run(false)};
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t bytes =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : (4u << 20);
  std::printf("ring collectives of %llu bytes on P4/GA620 nodes\n",
              static_cast<unsigned long long>(bytes));
  std::printf("%6s | %12s %12s | %12s %12s\n", "ranks", "MP_Lite bcast",
              "allreduce", "MPICH bcast", "allreduce");
  for (int n : {2, 3, 4, 6, 8}) {
    const auto lite = ring_times_ms<mp::MpLite>(n, bytes);
    mp::MpichOptions opt;
    opt.p4_sockbufsize = 256 << 10;
    const auto mpich = ring_times_ms<mp::Mpich>(n, bytes, opt);
    std::printf("%6d | %9.1f ms %9.1f ms | %9.1f ms %9.1f ms\n", n,
                lite.first, lite.second, mpich.first, mpich.second);
  }
  std::puts(
      "\nreading: the pipelined broadcast stays near the point-to-point\n"
      "time as ranks grow; the ring allreduce approaches 2x one transfer\n"
      "of the vector. MPICH pays its staging-copy tax on every hop, so\n"
      "the gap to MP_Lite widens with the ring — the paper's per-link\n"
      "losses compound at application scale.");
  return 0;
}
