// perfbench: host cost per simulated message, one workload per process.
//
//   perfbench --workload paper_pingpong|fabric_collectives|chaos_audited
//             --seed N --seconds S --trace 0|1
//             [--setup-only] [--smoke] [--write-ref]
//             [--repo-dir DIR] [--ref-dir DIR]
//
// Prints a human summary, then as its last line one JSON object with
// "correct", "attempted", "failed" and "metrics" (end-to-end metrics
// with --trace 0, per-layer metrics with --trace 1). Exits 1 when a
// simulated output differs from the committed references or a count
// fails to repeat, 2 on bad arguments. perfbench/run.py builds this
// binary and is the entry point; see perfbench/README.md.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"

namespace pb {
namespace {

const auto g_start = std::chrono::steady_clock::now();

}  // namespace

double host_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_start)
      .count();
}

int Spans::open(std::string_view name, int parent) {
  if (!on_) return -1;
  spans_.push_back(Span{std::string(name), host_now(), 0.0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Spans::close(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end = host_now();
}

int Spans::add(std::string_view name, double start, double end, int parent) {
  if (!on_) return -1;
  spans_.push_back(Span{std::string(name), start, end, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Spans::write_chrome_json(const std::string& path) const {
  std::ostringstream o;
  o << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d},",
                  s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent);
    o << buf << "\"name\":\"" << s.name << "\"}"
      << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  o << "]}\n";
  write_file(path, o.str());
}

void Gate::fail(const std::string& why) {
  if (errors_.size() < 50) errors_.push_back(why);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream s;
  s << f.rdbuf();
  return s.str();
}

std::vector<DatRow> read_dat(const std::string& path) {
  std::vector<DatRow> rows;
  std::istringstream f(read_file(path));
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    DatRow r;
    if (is >> r.bytes >> r.time_us >> r.mbps) rows.push_back(r);
  }
  return rows;
}

std::string json_value(const std::string& text, std::size_t pos,
                       const std::string& key) {
  const std::string k = "\"" + key + "\":";
  const auto at = text.find(k, pos);
  if (pos == std::string::npos || at == std::string::npos) return {};
  auto b = at + k.size();
  if (b < text.size() && text[b] == '"') ++b;
  const auto e = text.find_first_of(",}\"", b);
  return text.substr(b, e == std::string::npos ? std::string::npos : e - b);
}

void write_file(const std::string& path, const std::string& text) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream(p) << text;
}

namespace {

/// Every per-layer metric, in report order. A traced run prints all of
/// them; a layer a workload leaves idle reads 0.
std::vector<Metric> per_layer_catalog() {
  std::vector<Metric> m = {
      {"trace.overhead_frac", 0, "frac"},
      {"trace.spans", 0, "count"},
      {"simcore.events_per_msg", 0, "count"},
      {"simcore.ns_per_event", 0, "ns"},
      {"simcore.allocs_per_event", 0, "count"},
      {"simhw.frames_per_msg", 0, "count"},
      {"simhw.ns_per_frame", 0, "ns"},
      {"fabric.hops_per_frag", 0, "count"},
      {"fabric.ns_per_hop", 0, "ns"},
      {"fabric.peak_backlog", 0, "count"},
      {"fabric.dropped", 0, "count"},
      {"tcpsim.segments_per_msg", 0, "count"},
      {"tcpsim.acks_per_segment", 0, "count"},
      {"tcpsim.ns_per_segment", 0, "ns"},
      {"tcpsim.retransmits_per_run", 0, "count"},
      {"tcpsim.reconnects", 0, "count"},
      {"gmsim.ns_per_msg", 0, "ns"},
      {"viasim.ns_per_msg", 0, "ns"},
      {"gm_via.delivery_retries_per_run", 0, "count"},
  };
  for (const std::string& slug : pingpong_library_slugs()) {
    m.push_back({"mp.self_ns_per_msg." + slug, 0, "ns"});
  }
  const std::vector<Metric> rest = {
      {"mp.staged_bytes_per_msg", 0, "B"},
      {"mp.rendezvous_per_msg", 0, "count"},
      {"mp.relay_frags_per_msg", 0, "count"},
      {"fabriclib.self_ns_per_msg", 0, "ns"},
      {"fabriclib.allocs_per_msg", 0, "count"},
      {"fabriclib.frags_per_msg", 0, "count"},
      {"collectives.ring_allreduce_ms", 0, "ms"},
      {"collectives.doubling_allreduce_ms", 0, "ms"},
      {"collectives.barrier_ms", 0, "ms"},
      {"collectives.self_ns_per_msg", 0, "ns"},
      {"netpipe.fig1_ms", 0, "ms"},
      {"netpipe.fig2_ms", 0, "ms"},
      {"netpipe.fig3_ms", 0, "ms"},
      {"netpipe.fig4_ms", 0, "ms"},
      {"netpipe.fig5_ms", 0, "ms"},
      {"chaos.run_ms_p50", 0, "ms"},
      {"chaos.run_ms_p99", 0, "ms"},
      {"chaos.run_samples", 0, "count"},
      {"chaos.run_ms.tcp", 0, "ms"},
      {"chaos.run_ms.mpich", 0, "ms"},
      {"chaos.run_ms.gm", 0, "ms"},
      {"chaos.run_ms.via", 0, "ms"},
      {"faults.recovery_ms_per_run", 0, "ms"},
      {"chaos.verdicts.clean", 0, "count"},
      {"chaos.verdicts.recovered", 0, "count"},
      {"chaos.verdicts.degraded", 0, "count"},
      {"chaos.verdicts.failed", 0, "count"},
      {"chaos.verdicts.hung", 0, "count"},
      {"chaos.verdicts.error", 0, "count"},
      {"audit.self_ns_per_msg", 0, "ns"},
      {"audit.msgs_checked", 0, "count"},
      {"audit.violations", 0, "count"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// Host times of the timed units. The unit's cost is estimated as the
/// sum, over its fixed parts, of each part's fastest time: this host's
/// CPU is shared, and slow stretches of several seconds moved the
/// median unit time by up to 40% between otherwise identical runs,
/// while the per-part minimum moved by under 10%.
struct Timings {
  std::vector<double> whole;
  std::vector<std::vector<double>> parts;

  void add(const Unit& u) {
    whole.push_back(u.wall_s);
    if (parts.empty()) parts.resize(u.parts.size());
    for (std::size_t j = 0; j < u.parts.size(); ++j) {
      parts[j].push_back(u.parts[j]);
    }
  }
  std::size_t units() const { return whole.size(); }
  double fastest_unit_s() const {
    double s = 0.0;
    for (const auto& p : parts) s += fastest(p);
    return s;
  }
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--setup-only] [--smoke] "
               "[--write-ref] [--repo-dir D] [--ref-dir D]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (a == "--setup-only") {
        o.setup_only = true;
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--write-ref") {
        o.write_ref = true;
      } else if (a == "--repo-dir") {
        o.repo_dir = value();
      } else if (a == "--ref-dir") {
        o.ref_dir = value();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string cpu_model() {
  std::istringstream in(read_file("/proc/cpuinfo"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  }
  return "unknown";
}

/// This process image's resident high-water mark. getrusage's ru_maxrss
/// would also count the launcher's memory from before exec.
double peak_rss_mb() {
  std::istringstream in(read_file("/proc/self/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Options& opt) {
  std::unique_ptr<Workload> wl;
  if (opt.workload == "paper_pingpong") {
    wl = make_pingpong(opt);
  } else if (opt.workload == "fabric_collectives") {
    wl = make_fabric(opt);
  } else if (opt.workload == "chaos_audited") {
    wl = make_chaos(opt);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }

  const double setup_s = timed([&] { wl->setup(); });
  if (opt.setup_only) {
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return 0;
  }

  std::printf("# host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              PB_COMPILER, PB_BUILD_TYPE);
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.smoke ? 1 : 0);

  Gate gate;
  Unit ref;
  const double warm_s = timed([&] { ref = wl->warmup(gate); });
  std::printf("# warm-up: %.3f s, %llu msgs, %llu events, %llu ops\n", warm_s,
              static_cast<unsigned long long>(ref.msgs),
              static_cast<unsigned long long>(ref.events),
              static_cast<unsigned long long>(ref.ops));

  // Timed phase: repeat the unit until --seconds have passed. A traced
  // run alternates traced and untraced units, so it measures its own
  // overhead under the same conditions.
  Spans spans;
  Timings plain, traced;
  std::uint64_t attempted = 0, failed = 0;
  Unit first;  // first untraced unit: the allocation reference
  bool have_first = false;
  const int min_units = opt.trace ? 4 : 3;
  const double start = host_now();
  for (int n = 0; n < min_units || host_now() - start < opt.seconds; ++n) {
    const bool is_traced = opt.trace && n % 2 == 1;
    spans.set_on(is_traced);
    const Unit u = wl->run_unit(spans);
    if (u.msgs != ref.msgs || u.events != ref.events || u.ops != ref.ops ||
        u.failed != ref.failed || u.digest != ref.digest) {
      gate.fail("unit " + std::to_string(n) +
                " did not repeat the warm-up's outputs and counts");
    }
    attempted += u.ops;
    failed += u.failed;
    (is_traced ? traced : plain).add(u);
    if (is_traced) continue;
    if (!have_first) {
      first = u;
      have_first = true;
    } else if (u.allocs != first.allocs) {
      gate.fail("unit " + std::to_string(n) + " made " +
                std::to_string(u.allocs) + " allocations, the first made " +
                std::to_string(first.allocs));
    }
  }
  spans.set_on(opt.trace);

  const double unit_s = plain.fastest_unit_s();
  const double msgs_per_s = static_cast<double>(first.msgs) / unit_s;
  const double allocs_per_msg =
      static_cast<double>(first.allocs) / static_cast<double>(first.msgs);
  const double fail_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("# timed: %zu units in %.3f s; unit median %.4f s, quartiles "
              "%.4f..%.4f s; sum of per-part fastest %.4f s\n",
              plain.units() + traced.units(), host_now() - start,
              median(plain.whole), quantile(plain.whole, 0.25),
              quantile(plain.whole, 0.75), unit_s);
  std::printf("msgs_per_s      %14.1f msgs/s\n", msgs_per_s);
  std::printf("setup_s         %14.6f s\n", setup_s);
  std::printf("allocs_per_msg  %14.4f count\n", allocs_per_msg);
  std::printf("peak_rss_mb     %14.2f MB\n", peak_rss_mb());
  std::printf("fail_frac       %14.6f frac (%llu of %llu operations)\n",
              fail_frac, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("# counts per unit: msgs=%llu events=%llu allocs=%llu\n",
              static_cast<unsigned long long>(first.msgs),
              static_cast<unsigned long long>(first.events),
              static_cast<unsigned long long>(first.allocs));

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"msgs_per_s", msgs_per_s, "msgs/s"},
        {"setup_s", setup_s, "s"},
        {"allocs_per_msg", allocs_per_msg, "count"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"ok_frac", 1.0 - fail_frac, "frac"},
    };
  } else {
    std::vector<Metric> layer;
    layer.push_back(
        {"trace.overhead_frac", traced.fastest_unit_s() / unit_s - 1.0, "frac"});
    wl->layer_metrics(first, unit_s, spans, layer);
    layer.push_back({"trace.spans", static_cast<double>(spans.all().size()),
                     "count"});
    metrics = per_layer_catalog();
    for (const Metric& m : layer) {
      auto it = std::find_if(metrics.begin(), metrics.end(),
                             [&](const Metric& c) { return c.name == m.name; });
      if (it == metrics.end()) {
        gate.fail("metric " + m.name + " is missing from the catalog");
        continue;
      }
      it->value = m.value;
      if (it->unit != m.unit) gate.fail("metric " + m.name + ": unit mismatch");
    }
    for (const Metric& m : metrics) {
      std::printf("%-40s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    const std::string path = ".bench_build/perfbench/out/spans-" +
                             opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    spans.write_chrome_json(path);
    std::printf("# spans: %zu written to %s\n", spans.all().size(),
                path.c_str());
  }

  for (const std::string& e : gate.errors()) {
    std::fprintf(stderr, "perfbench: MISMATCH %s\n", e.c_str());
  }
  std::fflush(stderr);
  print_json(gate.ok(), attempted, failed, metrics);
  return gate.ok() ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::run(pb::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
