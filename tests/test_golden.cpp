// Golden-figure regression: freshly measured fig1-fig5 curves against
// the .dat files committed under data/golden/.
//
// The goldens pin the *behavior* of the whole stack — hardware models,
// TCP, the message-passing libraries and the event scheduler — at known
// good values. Any change that shifts a curve shows up here as a
// diverging data point, with the figure, curve and message size in the
// failure message. Intentional behavior changes regenerate the files:
//
//   PP_UPDATE_GOLDEN=1 ctest -L golden    # or run test_golden directly
//
// then commit the new data/golden/*.dat. The comparison tolerance is
// relative (kRelTol): the runs themselves are bit-deterministic, the
// slack only absorbs the %.6g formatting of the .dat files.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/figures.h"
#include "mp/collectives.h"
#include "mp/fabric_lib.h"
#include "netpipe/report.h"
#include "sweep/sweep.h"

#ifndef PP_GOLDEN_DIR
#error "build must define PP_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace {

using namespace pp;

constexpr double kRelTol = 1e-4;

/// Golden runs use a reduced schedule so the whole label stays in
/// tier-1 time budgets; the options are part of the golden contract —
/// changing them requires regenerating the files.
netpipe::RunOptions golden_run_options() {
  netpipe::RunOptions o;
  o.schedule.max_bytes = 256 << 10;
  o.repeats = 1;
  o.warmup = 0;
  return o;
}

bool update_mode() {
  const char* v = std::getenv("PP_UPDATE_GOLDEN");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

struct DatRow {
  std::uint64_t bytes = 0;
  double time_us = 0.0;
  double mbps = 0.0;
};

std::vector<DatRow> read_dat(const std::filesystem::path& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "missing golden file " << path
                        << " — run with PP_UPDATE_GOLDEN=1 to create it";
  std::vector<DatRow> rows;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    DatRow r;
    if (is >> r.bytes >> r.time_us >> r.mbps) rows.push_back(r);
  }
  return rows;
}

void expect_close(double golden, double fresh, const std::string& what) {
  const double denom = std::max(std::abs(golden), 1e-12);
  EXPECT_LE(std::abs(fresh - golden) / denom, kRelTol)
      << what << ": golden " << golden << " vs fresh " << fresh;
}

/// Runs one figure spec, then per curve either rewrites or diffs its
/// golden .dat.
void check_figure(const std::string& prefix, sweep::SweepSpec spec,
                  std::size_t curve_limit = 0) {
  const auto sr = sweep::run_sweep(spec);
  const auto curves = bench::curves_of(sr, curve_limit);
  const std::filesystem::path dir(PP_GOLDEN_DIR);

  if (update_mode()) {
    bench::write_figure_dats(dir.string(), prefix, curves);
    GTEST_SKIP() << "regenerated " << curves.size() << " golden curves in "
                 << dir;
  }

  for (const auto& c : curves) {
    const auto path = dir / (prefix + "_" + bench::label_slug(c.label) +
                             ".dat");
    SCOPED_TRACE(path.string());
    const auto golden = read_dat(path);
    if (golden.empty()) continue;  // read_dat already failed the test
    ASSERT_EQ(golden.size(), c.result.points.size())
        << "point count changed for " << c.label;
    for (std::size_t i = 0; i < golden.size(); ++i) {
      const auto& g = golden[i];
      const auto& p = c.result.points[i];
      ASSERT_EQ(g.bytes, p.bytes) << "schedule changed at row " << i;
      const std::string what = c.label + " @ " + std::to_string(g.bytes) +
                               " B";
      expect_close(g.time_us, sim::to_microseconds(p.elapsed),
                   what + " time_us");
      expect_close(g.mbps, p.mbps(), what + " mbps");
    }
  }
}

// ---------------------------------------------------------------------------
// Fabric scaling curves: collective latency vs node count
// ---------------------------------------------------------------------------

/// Median-of-3 latency (last rank out minus first rank in) of one
/// collective on an N-node fat-tree; the golden contract mirrors
/// bench/scaling's measurement.
sim::SimTime scaling_latency(
    int nodes, const std::function<sim::Task<void>(mp::Comm)>& op) {
  constexpr int kIters = 3;
  mp::FabricWorldOptions opt;
  opt.shards = 1;
  opt.host = hw::presets::pentium4_pc();
  mp::FabricWorld world(nodes, opt);
  std::vector<sim::SimTime> first_in(kIters,
                                     std::numeric_limits<sim::SimTime>::max());
  std::vector<sim::SimTime> last_out(kIters, 0);
  for (int r = 0; r < nodes; ++r) {
    world.spawn(
        r,
        [](mp::FabricWorld& w, int rank,
           const std::function<sim::Task<void>(mp::Comm)>& body,
           std::vector<sim::SimTime>& in,
           std::vector<sim::SimTime>& out) -> sim::Task<void> {
          sim::Simulator& sm = w.simulator(rank);
          const mp::Comm comm = w.comm(rank);
          for (int i = 0; i < kIters; ++i) {
            const auto it = static_cast<std::size_t>(i);
            in[it] = std::min(in[it], sm.now());
            co_await body(comm);
            out[it] = std::max(out[it], sm.now());
          }
        }(world, r, op, first_in, last_out),
        "rank" + std::to_string(r));
  }
  world.run();
  std::vector<sim::SimTime> lat(kIters);
  for (int i = 0; i < kIters; ++i) lat[i] = last_out[i] - first_in[i];
  std::sort(lat.begin(), lat.end());
  return lat[kIters / 2];
}

/// One curve = one .dat; rows are "nodes time_us 0" (the throughput
/// column is meaningless for a latency curve and pinned at zero).
void check_scaling_curve(
    const std::string& name, const std::vector<int>& nodes,
    const std::function<sim::Task<void>(mp::Comm)>& op) {
  const std::filesystem::path path =
      std::filesystem::path(PP_GOLDEN_DIR) / ("scaling_" + name + ".dat");
  std::vector<DatRow> fresh;
  for (int n : nodes) {
    fresh.push_back(DatRow{static_cast<std::uint64_t>(n),
                           sim::to_microseconds(scaling_latency(n, op)),
                           0.0});
  }

  if (update_mode()) {
    std::ofstream f(path);
    f << "# nodes time_us mbps — collective latency vs node count\n";
    for (const DatRow& r : fresh) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%llu %.6g %.6g\n",
                    static_cast<unsigned long long>(r.bytes), r.time_us,
                    r.mbps);
      f << buf;
    }
    GTEST_SKIP() << "regenerated " << path;
  }

  SCOPED_TRACE(path.string());
  const auto golden = read_dat(path);
  if (golden.empty()) return;  // read_dat already failed the test
  ASSERT_EQ(golden.size(), fresh.size()) << "node-count set changed";
  for (std::size_t i = 0; i < golden.size(); ++i) {
    ASSERT_EQ(golden[i].bytes, fresh[i].bytes) << "node set changed";
    expect_close(golden[i].time_us, fresh[i].time_us,
                 name + " @ N=" + std::to_string(golden[i].bytes) +
                     " time_us");
  }
}

TEST(Golden, ScalingBarrier) {
  const std::vector<int> nodes = {8, 16, 64};
  check_scaling_curve("barrier_ring", nodes,
                      [](mp::Comm c) { return mp::ring_barrier(c); });
  check_scaling_curve("barrier_dissemination", nodes, [](mp::Comm c) {
    return mp::dissemination_barrier(c);
  });
}

TEST(Golden, ScalingAllreduce) {
  const std::vector<int> nodes = {8, 16, 64};
  constexpr std::uint64_t kBytes = 16 << 10;
  check_scaling_curve("allreduce_ring", nodes, [](mp::Comm c) {
    return mp::ring_allreduce(c, kBytes);
  });
  check_scaling_curve("allreduce_doubling", nodes, [](mp::Comm c) {
    return mp::doubling_allreduce(c, kBytes);
  });
}

TEST(Golden, Figure1) {
  check_figure("fig1", bench::fig1_spec(golden_run_options()));
}

TEST(Golden, Figure2) {
  check_figure("fig2", bench::fig2_spec(golden_run_options()));
}

TEST(Golden, Figure3) {
  check_figure("fig3", bench::fig3_spec(golden_run_options()));
}

TEST(Golden, Figure4) {
  check_figure("fig4", bench::fig4_spec(golden_run_options()),
               bench::fig4_figure_curves());
}

TEST(Golden, Figure5) {
  check_figure("fig5", bench::fig5_spec(golden_run_options()),
               bench::fig5_figure_curves());
}

}  // namespace
