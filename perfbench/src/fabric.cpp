// fabric_collectives: a 256-rank fat-tree FabricWorld running rounds of
// two collective families with comparable host time per round:
//
//   ring        16 kB ring allreduce: 2(N-1) one-fragment messages per
//               rank per iteration, bound by per-message library cost;
//   log-N       16 kB recursive-doubling allreduce (four-fragment
//               messages at MTU 4096 to partners across the core) plus
//               a dissemination barrier, bound by switch forwarding and
//               reassembly.
//
// Each collective gets a world of its own, built in set-up, so its first
// three iterations reproduce bench/scaling's 256-node measurement
// exactly; the warm-up checks them against BENCH_scaling.json (the smoke
// size checks 64 ranks against data/golden/scaling_*.dat instead). Every
// timed round runs on fresh worlds, so its per-iteration simulated
// latencies repeat exactly and are checked against perfbench/ref. The
// inputs are fixed; the seed only shuffles the order of the families in
// a round.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <sstream>

#include "bench.h"
#include "mp/collectives.h"
#include "mp/fabric_lib.h"
#include "simhw/presets.h"

namespace pb {
namespace {

using namespace pp;

using World = mp::FabricWorld;
// The communicator type is whatever the world hands out, so renaming it
// does not touch the benchmark.
using Comm = decltype(std::declval<World&>().comm(0));
using CollectiveOp = std::function<sim::Task<void>(Comm)>;

constexpr std::uint64_t kVectorBytes = 16 << 10;

struct Family {
  const char* name;
  CollectiveOp op;
  // Where the repo records this collective's latency.
  const char* sweep;      ///< BENCH_scaling.json sweep name
  const char* job;        ///< job label prefix there ("ring", ...)
  const char* golden;     ///< data/golden/scaling_<golden>.dat
  int iters_full;         ///< iterations per timed round, 256 ranks
  int iters_smoke;        ///< iterations per timed round, 64 ranks
};

std::vector<Family> families() {
  return {
      {"ring_allreduce",
       [](Comm c) { return mp::ring_allreduce(c, kVectorBytes); },
       "scaling-allreduce", "ring", "allreduce_ring", 1, 1},
      {"doubling_allreduce",
       [](Comm c) { return mp::doubling_allreduce(c, kVectorBytes); },
       "scaling-allreduce", "doubling", "allreduce_doubling", 10, 2},
      {"dissemination_barrier",
       [](Comm c) { return mp::dissemination_barrier(c); },
       "scaling-barrier", "dissemination", "barrier_dissemination", 10, 2},
  };
}

/// One point-to-point call as a collective made it.
struct Op {
  bool send = false;
  int peer = 0;
  std::uint64_t bytes = 0;
  std::uint32_t tag = 0;
};

/// Forwards to the rank's FabricLib and records every call in call
/// order. Used only in the untimed warm-up: it counts library-level
/// messages and captures the traffic pattern the layer rungs replay.
class RecordingLib final : public mp::Library {
 public:
  RecordingLib(mp::Library& inner, std::vector<Op>& log)
      : inner_(inner), log_(log) {}
  sim::Task<void> send(int dst, std::uint64_t b, std::uint32_t t) override {
    log_.push_back({true, dst, b, t});
    return inner_.send(dst, b, t);
  }
  sim::Task<void> recv(int src, std::uint64_t b, std::uint32_t t) override {
    log_.push_back({false, src, b, t});
    return inner_.recv(src, b, t);
  }
  mp::Request isend(int dst, std::uint64_t b, std::uint32_t t) override {
    log_.push_back({true, dst, b, t});
    return inner_.isend(dst, b, t);
  }
  mp::Request irecv(int src, std::uint64_t b, std::uint32_t t) override {
    log_.push_back({false, src, b, t});
    return inner_.irecv(src, b, t);
  }
  hw::Node& node() override { return inner_.node(); }
  int rank() const override { return inner_.rank(); }
  std::string name() const override { return inner_.name(); }

 private:
  mp::Library& inner_;
  std::vector<Op>& log_;
};

/// FabricLib::protocol_counters reuses the two-node counter fields with
/// other meanings. This is the one place the benchmark reads them.
struct FabricLibCounts {
  std::uint64_t frags_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t frags_received = 0;
};
FabricLibCounts fabric_lib_counts(World& w) {
  FabricLibCounts c;
  for (int r = 0; r < w.size(); ++r) {
    const netpipe::ProtocolCounters p = w.lib(r).protocol_counters();
    c.frags_sent += p.data_segments;     // fragments sent
    c.bytes_sent += p.staged_bytes;      // message bytes sent
    c.frags_received += p.relay_fragments;  // fragments received
  }
  return c;
}

/// Fabric and library counters summed over the worlds.
struct Counts {
  std::uint64_t injected = 0;
  std::uint64_t switched = 0;
  FabricLibCounts lib;

  static Counts of(std::vector<std::unique_ptr<World>>& worlds) {
    Counts c;
    for (auto& w : worlds) {
      const auto t = w->fabric().totals();
      c.injected += t.injected;
      c.switched += t.switched;
      const FabricLibCounts l = fabric_lib_counts(*w);
      c.lib.frags_sent += l.frags_sent;
      c.lib.bytes_sent += l.bytes_sent;
      c.lib.frags_received += l.frags_received;
    }
    return c;
  }
};

std::unique_ptr<World> make_world(int ranks) {
  mp::FabricWorldOptions opt;
  opt.shards = 1;
  opt.host = hw::presets::pentium4_pc();
  return std::make_unique<World>(ranks, opt);
}

/// Per-iteration first-rank-in / last-rank-out, in simulated and host
/// time (host stamps only matter when spans are on).
struct IterLog {
  explicit IterLog(int iters)
      : in(static_cast<std::size_t>(iters),
           std::numeric_limits<sim::SimTime>::max()),
        out(static_cast<std::size_t>(iters), 0),
        host_in(static_cast<std::size_t>(iters), 1e300),
        host_out(static_cast<std::size_t>(iters), 0.0) {}
  std::vector<sim::SimTime> in, out;
  std::vector<double> host_in, host_out;
};

sim::Task<void> rank_body(World& w, int rank, const CollectiveOp& op,
                          int iters, IterLog& log, mp::Library* lib) {
  sim::Simulator& sm = w.simulator(rank);
  auto comm = w.comm(rank);
  if (lib != nullptr) comm.lib = lib;
  for (int i = 0; i < iters; ++i) {
    const auto it = static_cast<std::size_t>(i);
    log.in[it] = std::min(log.in[it], sm.now());
    log.host_in[it] = std::min(log.host_in[it], host_now());
    co_await op(comm);
    log.out[it] = std::max(log.out[it], sm.now());
    log.host_out[it] = std::max(log.host_out[it], host_now());
  }
}

/// Runs `iters` iterations of `op` on every rank of `w` to completion.
IterLog run_round(World& w, const CollectiveOp& op, int iters,
                  std::vector<std::unique_ptr<RecordingLib>>* libs = nullptr) {
  IterLog log(iters);
  for (int r = 0; r < w.size(); ++r) {
    mp::Library* lib =
        libs ? (*libs)[static_cast<std::size_t>(r)].get() : nullptr;
    w.spawn(r, rank_body(w, r, op, iters, log, lib), "rank");
  }
  w.run();
  return log;
}

/// Replays recorded point-to-point calls, blocking, in call order. The
/// fabric's sends are eager, so the replay cannot deadlock.
sim::Task<void> replay_p2p(mp::Library& lib, const std::vector<Op>& ops,
                           int repeats) {
  for (int i = 0; i < repeats; ++i) {
    for (const Op& o : ops) {
      if (o.send) {
        co_await lib.send(o.peer, o.bytes, o.tag);
      } else {
        co_await lib.recv(o.peer, o.bytes, o.tag);
      }
    }
  }
}

/// Replays the recorded sends as raw frames through HostPort::inject,
/// fragmented and paced like FabricLib::send, with no library above.
sim::Task<void> replay_frames(sim::Simulator& sm, hw::fabric::Fabric& fab,
                              int host, const std::vector<Op>& ops,
                              int repeats) {
  const std::uint32_t mtu = fab.config().mtu;
  for (int i = 0; i < repeats; ++i) {
    for (const Op& o : ops) {
      if (!o.send) continue;
      sim::SimTime last = sm.now();
      std::uint64_t left = o.bytes;
      do {
        const std::uint64_t chunk = std::min<std::uint64_t>(left, mtu);
        left -= chunk;
        hw::Packet p;
        p.wire_bytes = chunk;
        p.dma_bytes = chunk;
        last = std::max(last, fab.port(host).inject(o.peer, std::move(p)));
      } while (left > 0);
      co_await sm.delay_until(last);
    }
  }
}

sim::Task<void> drain_frames(hw::fabric::HostPort& port) {
  for (;;) co_await port.delivered().pop();
}

struct RungResult {
  double host_s = -1.0;  ///< < 0: not run yet
  std::uint64_t allocs = 0;
  std::uint64_t switched = 0;
};

void keep_faster(RungResult& best, const RungResult& r) {
  if (best.host_s < 0.0 || r.host_s < best.host_s) best = r;
}

class Fabric final : public Workload {
 public:
  explicit Fabric(const Options& opt)
      : opt_(opt), ranks_(opt.smoke ? 64 : 256), fams_(families()) {
    order_.resize(fams_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::mt19937_64 rng(opt.seed);
    std::shuffle(order_.begin(), order_.end(), rng);
  }

  void setup() override { build_worlds(); }

  Unit warmup(Gate& gate) override;
  Unit run_unit(Spans& spans) override;
  void layer_metrics(const Unit& unit, double unit_s, Spans& spans,
                     std::vector<Metric>& out) override;

 private:
  int iters(const Family& f) const {
    return opt_.smoke ? f.iters_smoke : f.iters_full;
  }
  /// Fresh worlds for the next round. A world's simulator keeps a record
  /// of every process it ever spawned (one per nonblocking call), so a
  /// long-lived world grows without bound and its allocation counts
  /// drift with its history; every round therefore gets new worlds,
  /// built and torn down outside the timed region.
  void build_worlds() {
    worlds_.clear();
    for (std::size_t i = 0; i < fams_.size(); ++i) {
      worlds_.push_back(make_world(ranks_));
    }
    worlds_used_ = false;
  }
  double expected_us(const Family& f) const;
  std::string ref_path() const { return opt_.ref_dir + "/fabric.ref"; }
  RungResult rung_frames(std::size_t fam);
  RungResult rung_p2p(std::size_t fam);
  RungResult rung_collective(std::size_t fam);

  Options opt_;
  int ranks_;
  std::vector<Family> fams_;
  std::vector<std::size_t> order_;
  std::vector<std::unique_ptr<World>> worlds_;
  std::vector<std::vector<std::vector<Op>>> pattern_;  ///< [family][rank]
  std::vector<std::uint64_t> msgs_per_iter_;           ///< [family]
  std::vector<std::vector<sim::SimTime>> unit_lat_;    ///< last round
  std::vector<std::vector<double>> iter_host_s_;       ///< traced iterations
  Counts last_counts_;                                 ///< of the last round
  bool worlds_used_ = false;
};

/// The 256-node latency bench/scaling committed for this family, or the
/// 64-node golden point at the smoke size.
double Fabric::expected_us(const Family& f) const {
  if (opt_.smoke) {
    for (const DatRow& r : read_dat(opt_.repo_dir + "/data/golden/scaling_" +
                                    f.golden + ".dat")) {
      if (r.bytes == static_cast<std::uint64_t>(ranks_)) return r.time_us;
    }
    return -1.0;
  }
  const std::string text = read_file(opt_.repo_dir + "/BENCH_scaling.json");
  const auto sweep = text.find(std::string("\"name\":\"") + f.sweep + "\"");
  const auto job =
      sweep == std::string::npos
          ? sweep
          : text.find(std::string("\"label\":\"") + f.job + " N=" +
                          std::to_string(ranks_) + "\"",
                      sweep);
  const std::string us = json_value(text, job, "latency_us");
  return us.empty() ? -1.0 : std::stod(us);
}

Unit Fabric::warmup(Gate& gate) {
  // bench/scaling's measurement on each fresh world: three iterations,
  // median of last-rank-out minus first-rank-in. Run through recording
  // libraries, which count the messages and capture the pattern.
  constexpr int kIters = 3;
  pattern_.assign(fams_.size(), {});
  msgs_per_iter_.assign(fams_.size(), 0);
  for (std::size_t f = 0; f < fams_.size(); ++f) {
    World& w = *worlds_[f];
    std::vector<std::vector<Op>> logs(static_cast<std::size_t>(ranks_));
    std::vector<std::unique_ptr<RecordingLib>> libs;
    for (int r = 0; r < ranks_; ++r) {
      libs.push_back(std::make_unique<RecordingLib>(
          w.lib(r), logs[static_cast<std::size_t>(r)]));
    }
    const IterLog log = run_round(w, fams_[f].op, kIters, &libs);
    std::vector<sim::SimTime> lat;
    for (int i = 0; i < kIters; ++i) {
      lat.push_back(log.out[static_cast<std::size_t>(i)] -
                    log.in[static_cast<std::size_t>(i)]);
    }
    std::sort(lat.begin(), lat.end());
    const double got = sim::to_microseconds(lat[kIters / 2]);
    const double want = expected_us(fams_[f]);
    if (want < 0.0 || !close_rel(want, got)) {
      gate.fail(std::string(fams_[f].name) + " N=" + std::to_string(ranks_) +
                ": median latency " + std::to_string(got) + " us, repo has " +
                std::to_string(want) + " us");
    }
    // One iteration's pattern per rank; every iteration must match.
    std::uint64_t sends = 0;
    for (auto& ops : logs) {
      if (ops.size() % kIters != 0) {
        gate.fail(std::string(fams_[f].name) + ": uneven call log");
        continue;
      }
      ops.resize(ops.size() / kIters);
      for (const Op& o : ops) sends += o.send ? 1 : 0;
    }
    msgs_per_iter_[f] = sends;
    pattern_[f] = std::move(logs);
  }
  worlds_used_ = true;
  Spans off;
  Unit u = run_unit(off);
  // Reference: the per-iteration latencies of a timed round.
  std::ostringstream fresh;
  std::map<std::string, sim::SimTime> ref;
  {
    std::istringstream in(read_file(ref_path()));
    int n = 0, i = 0;
    std::string fam;
    sim::SimTime ns = 0;
    while (in >> n >> fam >> i >> ns) {
      ref[std::to_string(n) + " " + fam + " " + std::to_string(i)] = ns;
    }
  }
  for (std::size_t f = 0; f < fams_.size(); ++f) {
    for (std::size_t i = 0; i < unit_lat_[f].size(); ++i) {
      const std::string key = std::to_string(ranks_) + " " + fams_[f].name +
                              " " + std::to_string(i);
      fresh << key << ' ' << unit_lat_[f][i] << '\n';
      if (opt_.write_ref) continue;
      const auto it = ref.find(key);
      if (it == ref.end() || it->second != unit_lat_[f][i]) {
        gate.fail(key + ": latency " + std::to_string(unit_lat_[f][i]) +
                  " ns, reference " +
                  (it == ref.end() ? std::string("missing")
                                   : std::to_string(it->second)));
      }
    }
  }
  if (opt_.write_ref) {
    // Keep the other size's lines.
    std::string other;
    std::istringstream in(read_file(ref_path()));
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(std::to_string(ranks_) + " ", 0) != 0) {
        other += line + "\n";
      }
    }
    write_file(ref_path(), other + fresh.str());
  }
  return u;
}

Unit Fabric::run_unit(Spans& spans) {
  if (worlds_used_) build_worlds();
  worlds_used_ = true;
  Unit u;
  const int unit_span = spans.open("fabric_collectives unit");
  const std::uint64_t a0 = alloc_count();
  const double t0 = host_now();
  unit_lat_.assign(fams_.size(), {});
  if (iter_host_s_.size() != fams_.size()) iter_host_s_.assign(fams_.size(), {});
  u.parts.assign(fams_.size(), 0.0);
  for (std::size_t f : order_) {
    const Family& fam = fams_[f];
    const int n = iters(fam);
    const double f0 = host_now();
    const int round_span = spans.open(spans.name("round", fam.name), unit_span);
    const IterLog log = run_round(*worlds_[f], fam.op, n);
    spans.close(round_span);
    u.parts[f] = host_now() - f0;
    for (int i = 0; i < n; ++i) {
      const auto it = static_cast<std::size_t>(i);
      unit_lat_[f].push_back(log.out[it] - log.in[it]);
      if (spans.on()) {
        spans.add(spans.name("iteration", fam.name), log.host_in[it],
                  log.host_out[it], round_span);
        iter_host_s_[f].push_back(log.host_out[it] - log.host_in[it]);
      }
    }
    u.msgs += msgs_per_iter_[f] * static_cast<std::uint64_t>(n);
    u.ops += static_cast<std::uint64_t>(n);
  }
  u.wall_s = host_now() - t0;
  u.allocs = alloc_count() - a0;
  spans.close(unit_span);
  // The worlds are fresh, so their counters hold this round alone.
  for (auto& w : worlds_) u.events += w->simulator(0).events_processed();
  last_counts_ = Counts::of(worlds_);
  for (const auto& lat : unit_lat_) {
    for (sim::SimTime t : lat) u.digest = fnv(u.digest, static_cast<std::uint64_t>(t));
  }
  return u;
}

RungResult Fabric::rung_frames(std::size_t fam) {
  sim::Simulator sm;
  hw::Cluster cluster(sm);
  for (int r = 0; r < ranks_; ++r) cluster.add_node(hw::presets::pentium4_pc());
  hw::fabric::Fabric fab(cluster, hw::fabric::FabricConfig{},
                         hw::fabric::FatTreeShape::fit(ranks_));
  for (int r = 0; r < ranks_; ++r) {
    sm.spawn_daemon(drain_frames(fab.port(r)), "drain");
    sm.spawn(replay_frames(sm, fab, r,
                           pattern_[fam][static_cast<std::size_t>(r)],
                           iters(fams_[fam])),
             "replay");
  }
  RungResult res;
  const std::uint64_t a0 = alloc_count();
  res.host_s = timed([&] { sm.run(); });
  res.allocs = alloc_count() - a0;
  res.switched = fab.totals().switched;
  return res;
}

RungResult Fabric::rung_p2p(std::size_t fam) {
  std::unique_ptr<World> w = make_world(ranks_);
  for (int r = 0; r < ranks_; ++r) {
    w->spawn(r,
             replay_p2p(w->lib(r), pattern_[fam][static_cast<std::size_t>(r)],
                        iters(fams_[fam])),
             "replay");
  }
  RungResult res;
  const std::uint64_t a0 = alloc_count();
  res.host_s = timed([&] { w->run(); });
  res.allocs = alloc_count() - a0;
  res.switched = w->fabric().totals().switched;
  return res;
}

RungResult Fabric::rung_collective(std::size_t fam) {
  std::unique_ptr<World> w = make_world(ranks_);
  RungResult res;
  const std::uint64_t a0 = alloc_count();
  res.host_s = timed([&] { run_round(*w, fams_[fam].op, iters(fams_[fam])); });
  res.allocs = alloc_count() - a0;
  res.switched = w->fabric().totals().switched;
  return res;
}

void Fabric::layer_metrics(const Unit& unit, double unit_s,
                           Spans& spans, std::vector<Metric>& out) {
  const double msgs = static_cast<double>(unit.msgs);
  const double events = static_cast<double>(unit.events);
  out.push_back({"simcore.events_per_msg", events / msgs, "count"});
  out.push_back({"simcore.ns_per_event", unit_s * 1e9 / events, "ns"});
  out.push_back({"simcore.allocs_per_event",
                 static_cast<double>(unit.allocs) / events, "count"});

  // Counts of the last round's worlds.
  std::size_t peak = 0;
  std::uint64_t dropped = 0;
  for (auto& w : worlds_) {
    dropped += w->fabric().totals().dropped;
    for (std::size_t l = 0; l < w->fabric().link_count(); ++l) {
      peak = std::max(
          peak, w->fabric().link(static_cast<std::int32_t>(l)).peak_backlog());
    }
  }
  const Counts& c = last_counts_;
  out.push_back({"simhw.frames_per_msg",
                 static_cast<double>(c.injected) / msgs, "count"});
  out.push_back({"fabric.hops_per_frag",
                 static_cast<double>(c.switched) /
                     static_cast<double>(c.injected),
                 "count"});
  out.push_back({"fabric.peak_backlog", static_cast<double>(peak), "count"});
  out.push_back({"fabric.dropped", static_cast<double>(dropped), "count"});
  out.push_back({"fabriclib.frags_per_msg",
                 static_cast<double>(c.lib.frags_sent) / msgs, "count"});

  // The ladder: raw frames through HostPort::inject, then the same
  // traffic as FabricLib point-to-point calls, then the collective
  // itself, each on a fresh world. The three rungs take turns, so each
  // one's fastest time comes from the same stretches of host speed.
  RungResult raw{0.0}, p2p{0.0}, coll{0.0};  // sums over the families
  for (std::size_t f = 0; f < fams_.size(); ++f) {
    Scope s(spans, spans.name("rung", fams_[f].name));
    RungResult a, b, c;
    for (int i = 0; i < kRungRepeats; ++i) {
      keep_faster(a, rung_frames(f));
      keep_faster(b, rung_p2p(f));
      keep_faster(c, rung_collective(f));
    }
    raw.host_s += a.host_s;
    raw.allocs += a.allocs;
    raw.switched += a.switched;
    p2p.host_s += b.host_s;
    p2p.allocs += b.allocs;
    coll.host_s += c.host_s;
  }
  out.push_back({"fabric.ns_per_hop",
                 raw.host_s * 1e9 / static_cast<double>(raw.switched), "ns"});
  out.push_back({"fabriclib.self_ns_per_msg",
                 (p2p.host_s - raw.host_s) * 1e9 / msgs, "ns"});
  out.push_back({"fabriclib.allocs_per_msg",
                 (static_cast<double>(p2p.allocs) -
                  static_cast<double>(raw.allocs)) /
                     msgs,
                 "count"});
  out.push_back({"collectives.self_ns_per_msg",
                 (coll.host_s - p2p.host_s) * 1e9 / msgs, "ns"});
  static const char* const kIterMetric[] = {"collectives.ring_allreduce_ms",
                                            "collectives.doubling_allreduce_ms",
                                            "collectives.barrier_ms"};
  for (std::size_t f = 0; f < fams_.size(); ++f) {
    out.push_back({kIterMetric[f], fastest(iter_host_s_[f]) * 1e3, "ms"});
  }
}

}  // namespace

std::unique_ptr<Workload> make_fabric(const Options& opt) {
  return std::make_unique<Fabric>(opt);
}

}  // namespace pb
