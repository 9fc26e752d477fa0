// paper_pingpong: NetPIPE ping-pong over every curve of the paper's
// Figures 1-5 plus raw VIA on both VIA beds, fault-free, audit off.
//
// The curve table mirrors bench/figures.h (all_figure_specs) curve for
// curve, but builds each bed as an object the benchmark holds, so bed
// construction can be timed apart from the NetPIPE run and the
// simulator's and pipes' counters can be read after it. The warm-up
// checks every curve against data/golden (the options below are the
// golden options), so a table that drifted from bench/figures.h fails
// the gate; the curves without a golden are checked against
// perfbench/ref/pingpong.ref.
#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <sstream>

#include "bench.h"
#include "bench/common.h"
#include "gmsim/gm.h"
#include "mp/gm_mpi.h"
#include "mp/lam.h"
#include "mp/mpich.h"
#include "mp/mpipro.h"
#include "mp/mplite.h"
#include "mp/pvm.h"
#include "mp/tcgmsg.h"
#include "mp/via_mpi.h"
#include "netpipe/modules.h"
#include "viasim/via.h"

namespace pb {
namespace {

using namespace pp;

/// Everything one NetPIPE curve runs on. Subclasses declare their
/// transports after the objects the transports point into, so they are
/// destroyed first (as in bench/figures.h, where they are locals).
class Bed {
 public:
  virtual ~Bed() = default;
  virtual sim::Simulator& sim() = 0;
  virtual hw::Cluster& cluster() = 0;
  virtual netpipe::Transport& a() = 0;
  virtual netpipe::Transport& b() = 0;
};

class TcpBed final : public Bed {
 public:
  TcpBed(const hw::HostConfig& host, const hw::NicConfig& nic,
         const std::function<bench::TransportPair(mp::PairBed&)>& make)
      : bed_(host, nic, tcp::Sysctl::tuned()) {
    auto [ta, tb] = make(bed_);
    ta_ = std::move(ta);
    tb_ = std::move(tb);
  }
  sim::Simulator& sim() override { return bed_.sim; }
  hw::Cluster& cluster() override { return bed_.cluster; }
  netpipe::Transport& a() override { return *ta_; }
  netpipe::Transport& b() override { return *tb_; }

 private:
  mp::PairBed bed_;
  std::unique_ptr<netpipe::Transport> ta_, tb_;
};

/// Two P4 nodes with nothing wired yet (GM, VIA and IP-over-GM beds).
struct TwoNodes {
  sim::Simulator s;
  hw::Cluster c{s};
  hw::Node& na = c.add_node(hw::presets::pentium4_pc());
  hw::Node& nb = c.add_node(hw::presets::pentium4_pc());
};

class GmBed final : public Bed {
 public:
  GmBed(gm::RecvMode mode, std::optional<mp::GmMpiOptions> lib)
      : fab_(n_.c, n_.na, n_.nb, hw::presets::myrinet_pci64a(),
             hw::presets::back_to_back(), config(mode)) {
    if (!lib) {
      ta_ = std::make_unique<mp::GmTransport>(fab_.port_a());
      tb_ = std::make_unique<mp::GmTransport>(fab_.port_b());
      return;
    }
    la_ = std::make_unique<mp::GmMpi>(fab_.port_a(), 0, *lib);
    lb_ = std::make_unique<mp::GmMpi>(fab_.port_b(), 1, *lib);
    ta_ = std::make_unique<mp::LibraryTransport>(*la_, 1);
    tb_ = std::make_unique<mp::LibraryTransport>(*lb_, 0);
  }
  sim::Simulator& sim() override { return n_.s; }
  hw::Cluster& cluster() override { return n_.c; }
  netpipe::Transport& a() override { return *ta_; }
  netpipe::Transport& b() override { return *tb_; }

 private:
  static gm::GmConfig config(gm::RecvMode mode) {
    gm::GmConfig gc;
    gc.recv_mode = mode;
    return gc;
  }
  TwoNodes n_;
  gm::GmFabric fab_;
  std::unique_ptr<mp::GmMpi> la_, lb_;
  std::unique_ptr<netpipe::Transport> ta_, tb_;
};

class IpOverGmBed final : public Bed {
 public:
  IpOverGmBed()
      : link_(n_.c.connect(n_.na, n_.nb, hw::presets::myrinet_ip_over_gm(),
                           hw::presets::back_to_back())),
        sa_(n_.na, tcp::Sysctl::tuned()),
        sb_(n_.nb, tcp::Sysctl::tuned()) {
    auto [xa, xb] = tcp::connect(sa_, sb_, link_);
    for (tcp::Socket* s : {&xa, &xb}) {
      s->set_send_buffer(512 << 10);
      s->set_recv_buffer(512 << 10);
    }
    ta_ = std::make_unique<netpipe::TcpTransport>(xa, "IP over GM");
    tb_ = std::make_unique<netpipe::TcpTransport>(xb, "IP over GM");
  }
  sim::Simulator& sim() override { return n_.s; }
  hw::Cluster& cluster() override { return n_.c; }
  netpipe::Transport& a() override { return *ta_; }
  netpipe::Transport& b() override { return *tb_; }

 private:
  TwoNodes n_;
  hw::Cluster::Duplex link_;
  tcp::TcpStack sa_, sb_;
  std::unique_ptr<netpipe::Transport> ta_, tb_;
};

class ViaBed final : public Bed {
 public:
  ViaBed(bool giganet, std::optional<mp::ViaMpiOptions> lib)
      : fab_(n_.c, n_.na, n_.nb,
             giganet ? hw::presets::giganet_clan()
                     : hw::presets::syskonnect_mvia(),
             giganet ? hw::presets::switched() : hw::presets::back_to_back(),
             config(giganet)) {
    if (!lib) {
      ta_ = std::make_unique<mp::ViaTransport>(fab_.end_a());
      tb_ = std::make_unique<mp::ViaTransport>(fab_.end_b());
      return;
    }
    la_ = std::make_unique<mp::ViaMpi>(fab_.end_a(), 0, *lib);
    lb_ = std::make_unique<mp::ViaMpi>(fab_.end_b(), 1, *lib);
    ta_ = std::make_unique<mp::LibraryTransport>(*la_, 1);
    tb_ = std::make_unique<mp::LibraryTransport>(*lb_, 0);
  }
  sim::Simulator& sim() override { return n_.s; }
  hw::Cluster& cluster() override { return n_.c; }
  netpipe::Transport& a() override { return *ta_; }
  netpipe::Transport& b() override { return *tb_; }

 private:
  static via::ViaConfig config(bool giganet) {
    via::ViaConfig vc;
    vc.personality = giganet ? via::ViaPersonality::giganet()
                             : via::ViaPersonality::mvia_sk98lin();
    return vc;
  }
  TwoNodes n_;
  via::ViaFabric fab_;
  std::unique_ptr<mp::ViaMpi> la_, lb_;
  std::unique_ptr<netpipe::Transport> ta_, tb_;
};

struct CurveDef {
  std::string fig;    ///< fig1..fig5
  std::string label;  ///< as in bench/figures.h
  /// Label of the raw curve on the same bed, for the library-minus-raw
  /// subtraction; empty for raw curves and IP over GM.
  std::string raw;
  hw::NicConfig nic;  ///< for the bare PacketPipe rung
  std::function<std::unique_ptr<Bed>()> build;

  std::string slug() const { return fig + "_" + bench::label_slug(label); }
};

using MakePair = std::function<bench::TransportPair(mp::PairBed&)>;

template <typename Opt, typename Lib>
MakePair lib_pair(Opt o) {
  return [o](mp::PairBed& bed) {
    return bench::hold_pair(Lib::create_pair(bed, o));
  };
}

/// The TCP-based curves of one of Figures 1-3, in figure order; raw TCP
/// is the subtraction base of every library curve on the bed.
std::vector<CurveDef> tcp_figure(
    const std::string& fig, const hw::HostConfig& host,
    const hw::NicConfig& nic,
    const std::vector<std::pair<std::string, MakePair>>& curves) {
  std::vector<CurveDef> out;
  for (const auto& [label, make] : curves) {
    const bool raw = label.rfind("raw TCP", 0) == 0;
    out.push_back(CurveDef{
        fig, label, raw ? "" : "raw TCP", nic,
        [host, nic, make = make] {
          return std::make_unique<TcpBed>(host, nic, make);
        }});
  }
  return out;
}

std::vector<CurveDef> curve_table() {
  mp::MpichOptions mpich;
  mpich.p4_sockbufsize = 256 << 10;
  mp::LamOptions lam;
  lam.mode = mp::LamMode::kC2cO;
  mp::MpiProOptions mpipro;
  mpipro.tcp_long = 128 << 10;
  mp::PvmOptions pvm;
  pvm.route = mp::PvmRoute::kDirect;
  pvm.encoding = mp::PvmEncoding::kInPlace;
  mp::TcgmsgOptions tcg256;
  tcg256.sr_sock_buf_size = 256 << 10;
  mp::TcgmsgOptions tcg128;
  tcg128.sr_sock_buf_size = 128 << 10;
  const MakePair raw = [](mp::PairBed& bed) {
    return bench::raw_tcp_pair(bed, 512 << 10);
  };
  const MakePair mplite = [](mp::PairBed& bed) {
    return bench::hold_pair(mp::MpLite::create_pair(bed));
  };

  std::vector<CurveDef> t;
  auto append = [&t](std::vector<CurveDef> v) {
    for (auto& c : v) t.push_back(std::move(c));
  };
  append(tcp_figure(
      "fig1", hw::presets::pentium4_pc(), hw::presets::netgear_ga620(),
      {{"raw TCP", raw},
       {"MPICH", lib_pair<mp::MpichOptions, mp::Mpich>(mpich)},
       {"LAM/MPI -O", lib_pair<mp::LamOptions, mp::Lam>(lam)},
       {"MPI/Pro", lib_pair<mp::MpiProOptions, mp::MpiPro>(mpipro)},
       {"MP_Lite", mplite},
       {"PVM", lib_pair<mp::PvmOptions, mp::Pvm>(pvm)},
       {"TCGMSG", lib_pair<mp::TcgmsgOptions, mp::Tcgmsg>({})}}));
  append(tcp_figure(
      "fig2", hw::presets::pentium4_pc(), hw::presets::trendnet_teg_pcitx(),
      {{"raw TCP", raw},
       {"raw TCP default",
        [](mp::PairBed& bed) {
          return bench::raw_tcp_pair(bed, 64 << 10, "raw TCP default");
        }},
       {"MPICH", lib_pair<mp::MpichOptions, mp::Mpich>(mpich)},
       {"LAM/MPI -O", lib_pair<mp::LamOptions, mp::Lam>(lam)},
       {"MPI/Pro", lib_pair<mp::MpiProOptions, mp::MpiPro>(mpipro)},
       {"MP_Lite", mplite},
       {"PVM", lib_pair<mp::PvmOptions, mp::Pvm>(pvm)},
       {"TCGMSG", lib_pair<mp::TcgmsgOptions, mp::Tcgmsg>({})},
       {"TCGMSG 256k rebuild",
        lib_pair<mp::TcgmsgOptions, mp::Tcgmsg>(tcg256)}}));
  append(tcp_figure(
      "fig3", hw::presets::compaq_ds20(), hw::presets::syskonnect_sk9843(9000),
      {{"raw TCP", raw},
       {"MPICH", lib_pair<mp::MpichOptions, mp::Mpich>(mpich)},
       {"LAM/MPI -O", lib_pair<mp::LamOptions, mp::Lam>(lam)},
       {"MP_Lite", mplite},
       {"PVM", lib_pair<mp::PvmOptions, mp::Pvm>(pvm)},
       {"TCGMSG", lib_pair<mp::TcgmsgOptions, mp::Tcgmsg>({})},
       {"TCGMSG 128k rebuild",
        lib_pair<mp::TcgmsgOptions, mp::Tcgmsg>(tcg128)},
       {"MPI/Pro (model)",
        lib_pair<mp::MpiProOptions, mp::MpiPro>(mpipro)}}));

  const hw::NicConfig myri = hw::presets::myrinet_pci64a();
  auto gm_curve = [&](std::string label, gm::RecvMode mode,
                      std::optional<mp::GmMpiOptions> lib) {
    const std::string base = lib ? "raw GM" : "";
    t.push_back(CurveDef{"fig4", std::move(label), base, myri, [mode, lib] {
                           return std::make_unique<GmBed>(mode, lib);
                         }});
  };
  gm_curve("raw GM", gm::RecvMode::kPolling, std::nullopt);
  gm_curve("MPICH-GM", gm::RecvMode::kPolling, mp::GmMpi::mpich_gm());
  gm_curve("MPI/Pro-GM", gm::RecvMode::kPolling, mp::GmMpi::mpipro_gm());
  t.push_back(CurveDef{"fig4", "IP over GM", "",
                       hw::presets::myrinet_ip_over_gm(),
                       [] { return std::make_unique<IpOverGmBed>(); }});
  gm_curve("raw GM blocking", gm::RecvMode::kBlocking, std::nullopt);
  gm_curve("raw GM hybrid", gm::RecvMode::kHybrid, std::nullopt);

  auto via_curve = [&](std::string label, bool giganet,
                       std::optional<mp::ViaMpiOptions> lib) {
    std::string base;
    if (lib) base = giganet ? "raw VIA Giganet" : "raw VIA M-VIA/sk";
    const hw::NicConfig nic = giganet ? hw::presets::giganet_clan()
                                      : hw::presets::syskonnect_mvia();
    t.push_back(CurveDef{"fig5", std::move(label), base, nic,
                         [giganet, lib] {
                           return std::make_unique<ViaBed>(giganet, lib);
                         }});
  };
  via_curve("MVICH Giganet", true, mp::ViaMpi::mvich());
  via_curve("MP_Lite Giganet", true, mp::ViaMpi::mplite_via());
  via_curve("MPI/Pro Giganet", true, mp::ViaMpi::mpipro_via());
  via_curve("MVICH M-VIA/sk", false, mp::ViaMpi::mvich());
  via_curve("MP_Lite M-VIA/sk", false, mp::ViaMpi::mplite_via());
  via_curve("MVICH without RPUT", true, mp::ViaMpi::mvich(false));
  // Not in the paper's figures: the raw layer under each VIA bed, so
  // every library curve has a raw curve on its own bed to subtract.
  via_curve("raw VIA Giganet", true, std::nullopt);
  via_curve("raw VIA M-VIA/sk", false, std::nullopt);
  return t;
}

/// The golden options (tests/test_golden.cpp): the warm-up can then be
/// checked point for point against data/golden.
netpipe::RunOptions run_options(bool smoke) {
  netpipe::RunOptions o;
  o.schedule.max_bytes = smoke ? 4 << 10 : 256 << 10;
  o.repeats = 1;
  o.warmup = 0;
  return o;
}

/// What one curve's run left behind, beyond host time.
struct CurveCounts {
  std::uint64_t msgs = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t frames = 0;
  netpipe::ProtocolCounters proto;
  std::uint64_t digest = kFnvBasis;
  std::vector<netpipe::DataPoint> points;
};

class PingPong final : public Workload {
 public:
  explicit PingPong(const Options& opt)
      : opt_(opt), run_opts_(run_options(opt.smoke)), table_(curve_table()) {
    // The seed fixes the order the curves run in; every unit of a run
    // uses the same order.
    order_.resize(table_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::mt19937_64 rng(opt.seed);
    std::shuffle(order_.begin(), order_.end(), rng);
    for (const CurveDef& c : table_) slugs_.push_back(c.slug());
  }

  void setup() override {
    first_pass_.clear();
    for (std::size_t i : order_) first_pass_.push_back(table_[i].build());
  }

  Unit warmup(Gate& gate) override {
    Spans off;
    Unit u = pass(off, &first_pass_);
    first_pass_.clear();
    check_references(gate);
    return u;
  }

  Unit run_unit(Spans& spans) override { return pass(spans, nullptr); }

  void layer_metrics(const Unit& unit, double unit_s, Spans& spans,
                     std::vector<Metric>& out) override;

 private:
  /// One pass over every curve. `prebuilt` holds beds built in set-up
  /// (the warm-up pass); otherwise each bed is built inside the pass.
  Unit pass(Spans& spans, std::vector<std::unique_ptr<Bed>>* prebuilt) {
    Unit u;
    const std::uint64_t a0 = alloc_count();
    const double t0 = host_now();
    const int unit_span = spans.open("paper_pingpong unit");
    counts_.assign(table_.size(), CurveCounts{});
    u.parts.assign(table_.size(), 0.0);
    for (std::size_t k = 0; k < order_.size(); ++k) {
      const std::size_t i = order_[k];
      const CurveDef& c = table_[i];
      const double c0 = host_now();
      std::unique_ptr<Bed> bed;
      {
        Scope s(spans, spans.name("build", slugs_[i]), unit_span);
        bed = prebuilt ? std::move((*prebuilt)[k]) : c.build();
      }
      netpipe::RunResult r;
      {
        Scope s(spans, spans.name("run_netpipe", slugs_[i]), unit_span);
        r = netpipe::run_netpipe(bed->sim(), bed->a(), bed->b(), run_opts_);
      }
      CurveCounts& cc = counts_[i];
      // NetPIPE ping-pong: every point bounces (warmup + repeats) round
      // trips, two library-level messages each.
      const auto per_point =
          static_cast<std::uint64_t>(2 * (run_opts_.warmup + run_opts_.repeats));
      cc.msgs = per_point * r.points.size();
      for (const auto& p : r.points) {
        cc.payload_bytes += per_point * p.bytes;
        cc.digest = fnv(fnv(cc.digest, p.bytes),
                        static_cast<std::uint64_t>(p.elapsed));
      }
      cc.events = bed->sim().events_processed();
      for (hw::PacketPipe* p : bed->cluster().pipes()) {
        cc.frames += p->packets_delivered();
      }
      cc.proto = r.counters;
      cc.points = std::move(r.points);
      {
        Scope s(spans, spans.name("teardown", slugs_[i]), unit_span);
        bed.reset();
      }
      u.parts[i] = host_now() - c0;
      u.msgs += cc.msgs;
      u.events += cc.events;
      u.ops += 1;
    }
    // Hashed in table order, so the digest does not depend on the seed.
    for (const CurveCounts& cc : counts_) u.digest = fnv(u.digest, cc.digest);
    spans.close(unit_span);
    u.wall_s = host_now() - t0;
    u.allocs = alloc_count() - a0;
    return u;
  }

  void check_references(Gate& gate);
  std::string ref_path() const { return opt_.ref_dir + "/pingpong.ref"; }

  Options opt_;
  netpipe::RunOptions run_opts_;
  std::vector<CurveDef> table_;
  std::vector<std::size_t> order_;
  std::vector<std::string> slugs_;  ///< in table order
  std::vector<std::unique_ptr<Bed>> first_pass_;
  std::vector<CurveCounts> counts_;  ///< of the last pass, in table order
};

void PingPong::check_references(Gate& gate) {
  // Curves without a golden file: integer-exact points in pingpong.ref,
  // one "<slug> <bytes> <elapsed_ns>" line per point.
  std::map<std::string, std::vector<std::pair<std::uint64_t, std::int64_t>>>
      ref;
  {
    std::istringstream f(read_file(ref_path()));
    std::string slug;
    std::uint64_t bytes = 0;
    std::int64_t ns = 0;
    while (f >> slug >> bytes >> ns) ref[slug].emplace_back(bytes, ns);
  }
  std::ostringstream fresh_ref;
  for (std::size_t i = 0; i < table_.size(); ++i) {
    const CurveDef& c = table_[i];
    auto pts = counts_[i].points;
    // A smaller smoke schedule is a prefix of the full one, except that
    // its last point ends the run and can differ from the same point
    // measured mid-run; it is left out.
    if (opt_.smoke && !pts.empty()) pts.pop_back();
    const auto golden =
        read_dat(opt_.repo_dir + "/data/golden/" + c.slug() + ".dat");
    if (!golden.empty()) {
      if (pts.size() > golden.size() || (!opt_.smoke && pts.size() != golden.size())) {
        gate.fail(c.slug() + ": " + std::to_string(pts.size()) +
                  " points, golden has " + std::to_string(golden.size()));
        continue;
      }
      for (std::size_t k = 0; k < pts.size(); ++k) {
        const double us = sim::to_microseconds(pts[k].elapsed);
        if (pts[k].bytes != golden[k].bytes ||
            !close_rel(golden[k].time_us, us) ||
            !close_rel(golden[k].mbps, pts[k].mbps())) {
          gate.fail(c.slug() + " @ " + std::to_string(pts[k].bytes) +
                    " B: " + std::to_string(us) + " us, golden " +
                    std::to_string(golden[k].time_us) + " us");
          break;
        }
      }
      continue;
    }
    for (const auto& p : pts) {
      fresh_ref << c.slug() << ' ' << p.bytes << ' ' << p.elapsed << '\n';
    }
    if (opt_.write_ref) continue;
    const auto it = ref.find(c.slug());
    if (it == ref.end() || it->second.size() < pts.size() ||
        (!opt_.smoke && it->second.size() != pts.size())) {
      gate.fail(c.slug() + ": no matching reference in " + ref_path());
      continue;
    }
    for (std::size_t k = 0; k < pts.size(); ++k) {
      if (it->second[k].first != pts[k].bytes ||
          it->second[k].second != pts[k].elapsed) {
        gate.fail(c.slug() + " @ " + std::to_string(pts[k].bytes) +
                  " B: " + std::to_string(pts[k].elapsed) +
                  " ns, reference " + std::to_string(it->second[k].second) +
                  " ns");
        break;
      }
    }
  }
  if (opt_.write_ref && !opt_.smoke) write_file(ref_path(), fresh_ref.str());
}

/// Bare PacketPipe rung: `frames` frames of `bytes` each, one in flight,
/// across a two-node pipe with the curve's NIC. Returns host seconds.
double bare_pipe_rung(const hw::NicConfig& nic, std::uint64_t frames,
                      std::uint64_t bytes) {
  sim::Simulator s;
  hw::Cluster c(s);
  hw::Node& a = c.add_node(hw::presets::pentium4_pc());
  hw::Node& b = c.add_node(hw::presets::pentium4_pc());
  hw::Cluster::Duplex link = c.connect(a, b, nic, hw::presets::back_to_back());
  s.spawn(
      [](hw::PacketPipe& pipe, std::uint64_t n,
         std::uint64_t size) -> sim::Task<void> {
        for (std::uint64_t i = 0; i < n; ++i) {
          hw::Packet p;
          p.dma_bytes = size;
          p.wire_bytes = size;
          pipe.inject(std::move(p));
          co_await pipe.delivered().pop();
        }
      }(link.forward, frames, bytes),
      "bare-pipe");
  return timed([&] { s.run(); });
}

void PingPong::layer_metrics(const Unit& unit, double unit_s,
                             Spans& spans, std::vector<Metric>& out) {
  // Per-curve host time: the fastest over the traced units of each
  // curve's run_netpipe span, and of build + run + teardown.
  std::map<std::string, std::vector<double>> run_s, whole_s;
  std::map<std::string, std::map<int, double>> per_unit_whole;
  for (std::size_t k = 0; k < spans.all().size(); ++k) {
    const Spans::Span& sp = spans.all()[k];
    const auto blank = sp.name.find(' ');
    if (blank == std::string::npos || sp.parent < 0) continue;
    const std::string what = sp.name.substr(0, blank);
    const std::string slug = sp.name.substr(blank + 1);
    const double d = sp.end - sp.start;
    if (what == "run_netpipe") run_s[slug].push_back(d);
    per_unit_whole[slug][sp.parent] += d;
  }
  for (auto& [slug, by_unit] : per_unit_whole) {
    for (auto& [u, d] : by_unit) whole_s[slug].push_back(d);
  }

  std::map<std::string, double> ns_per_msg;  // run_netpipe only
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < table_.size(); ++i) {
    const CurveDef& c = table_[i];
    index[c.fig + "|" + c.label] = i;
    if (run_s.count(c.slug()) && counts_[i].msgs > 0) {
      ns_per_msg[c.slug()] = fastest(run_s[c.slug()]) * 1e9 /
                             static_cast<double>(counts_[i].msgs);
    }
  }

  double msgs = static_cast<double>(unit.msgs);
  std::uint64_t frames = 0, segs = 0, acks = 0, staged = 0, rdv = 0,
                relay = 0;
  for (const CurveCounts& cc : counts_) {
    frames += cc.frames;
    segs += cc.proto.data_segments;
    acks += cc.proto.acks;
    staged += cc.proto.staged_bytes;
    rdv += cc.proto.rendezvous_handshakes;
    relay += cc.proto.relay_fragments;
  }
  const double events = static_cast<double>(unit.events);
  out.push_back({"simcore.events_per_msg", events / msgs, "count"});
  out.push_back({"simcore.ns_per_event", unit_s * 1e9 / events, "ns"});
  out.push_back({"simcore.allocs_per_event",
                 static_cast<double>(unit.allocs) / events, "count"});
  out.push_back({"simhw.frames_per_msg", static_cast<double>(frames) / msgs,
                 "count"});

  // Bare PacketPipe rung: each NIC's frames of this workload at the
  // workload's mean payload per frame on that NIC.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> per_nic;
  std::map<std::string, hw::NicConfig> nics;
  for (std::size_t i = 0; i < table_.size(); ++i) {
    auto& [f, b] = per_nic[table_[i].nic.name];
    f += counts_[i].frames;
    b += counts_[i].payload_bytes;
    nics.emplace(table_[i].nic.name, table_[i].nic);
  }
  double rung_s = 0.0;
  std::uint64_t rung_frames = 0;
  {
    Scope s(spans, "rung bare PacketPipe");
    for (const auto& [name, fb] : per_nic) {
      if (fb.first == 0) continue;
      const std::uint64_t size = std::clamp<std::uint64_t>(
          fb.second / fb.first, 64, nics[name].mtu);
      std::vector<double> t;
      for (int r = 0; r < kRungRepeats; ++r) {
        t.push_back(bare_pipe_rung(nics[name], fb.first, size));
      }
      rung_s += fastest(t);
      rung_frames += fb.first;
    }
  }
  out.push_back({"simhw.ns_per_frame",
                 rung_frames ? rung_s * 1e9 / static_cast<double>(rung_frames)
                             : 0.0,
                 "ns"});

  out.push_back({"tcpsim.segments_per_msg", static_cast<double>(segs) / msgs,
                 "count"});
  out.push_back({"tcpsim.acks_per_segment",
                 segs ? static_cast<double>(acks) / static_cast<double>(segs)
                      : 0.0,
                 "count"});
  {
    double raw_s = 0.0;
    std::uint64_t raw_segs = 0;
    for (std::size_t i = 0; i < table_.size(); ++i) {
      const CurveDef& c = table_[i];
      if (c.label.rfind("raw TCP", 0) != 0 || !run_s.count(c.slug())) continue;
      raw_s += fastest(run_s[c.slug()]);
      raw_segs += counts_[i].proto.data_segments;
    }
    out.push_back({"tcpsim.ns_per_segment",
                   raw_segs ? raw_s * 1e9 / static_cast<double>(raw_segs) : 0.0,
                   "ns"});
  }
  auto raw_ns = [&](std::initializer_list<const char*> slugs) {
    double sum = 0.0;
    int n = 0;
    for (const char* s : slugs) {
      if (ns_per_msg.count(s)) {
        sum += ns_per_msg[s];
        ++n;
      }
    }
    return n ? sum / n : 0.0;
  };
  out.push_back({"gmsim.ns_per_msg", raw_ns({"fig4_raw_gm"}), "ns"});
  out.push_back({"viasim.ns_per_msg",
                 raw_ns({"fig5_raw_via_giganet", "fig5_raw_via_m_via_sk"}),
                 "ns"});

  // The paper's subtraction, on host time: library curve minus the raw
  // curve on the same bed.
  for (const CurveDef& c : table_) {
    if (c.raw.empty()) continue;
    const CurveDef& base = table_[index.at(c.fig + "|" + c.raw)];
    if (!ns_per_msg.count(c.slug()) || !ns_per_msg.count(base.slug())) continue;
    out.push_back({"mp.self_ns_per_msg." + c.slug(),
                   ns_per_msg[c.slug()] - ns_per_msg[base.slug()], "ns"});
  }
  out.push_back({"mp.staged_bytes_per_msg", static_cast<double>(staged) / msgs,
                 "B"});
  out.push_back({"mp.rendezvous_per_msg", static_cast<double>(rdv) / msgs,
                 "count"});
  out.push_back({"mp.relay_frags_per_msg", static_cast<double>(relay) / msgs,
                 "count"});

  for (int f = 1; f <= 5; ++f) {
    const std::string fig = "fig" + std::to_string(f);
    double ms = 0.0;
    for (const CurveDef& c : table_) {
      if (c.fig == fig && whole_s.count(c.slug())) {
        ms += fastest(whole_s[c.slug()]) * 1e3;
      }
    }
    out.push_back({"netpipe." + fig + "_ms", ms, "ms"});
  }
}

}  // namespace

std::vector<std::string> pingpong_library_slugs() {
  std::vector<std::string> out;
  for (const CurveDef& c : curve_table()) {
    if (!c.raw.empty()) out.push_back(c.slug());
  }
  return out;
}

std::unique_ptr<Workload> make_pingpong(const Options& opt) {
  return std::make_unique<PingPong>(opt);
}

}  // namespace pb
