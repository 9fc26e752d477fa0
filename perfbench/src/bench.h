// Shared pieces of the ProtoPipe host-cost benchmark: options, the
// in-memory span recorder, per-unit counts, the correctness gate and the
// workload interface that main.cpp drives.
//
// A workload is split into set-up (timed once, as setup_s), an untimed
// warm-up unit that is checked against the committed references, and a
// timed phase that repeats one deterministic unit until --seconds have
// passed. Every unit must reproduce the warm-up's simulated outputs and
// counts exactly; the host time of each unit is the only thing allowed
// to vary.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

/// Host seconds on the steady clock since the process started.
double host_now();

/// Heap allocations (every operator new form) since the process started;
/// counted by the replacement operators in alloc_count.cpp.
std::uint64_t alloc_count();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  /// Small inputs for the self-tests: every workload in a few seconds.
  bool smoke = false;
  /// Rewrite the committed references under ref_dir from this run.
  bool write_ref = false;
  std::string repo_dir = ".";  ///< holds data/golden and BENCH_scaling.json
  std::string ref_dir = "perfbench/ref";
};

/// In-memory spans (name, host start/end, parent), written at exit as a
/// Chrome trace. Off by default: the untraced run records nothing.
class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// "<what> <detail>" when on, else an empty string: untraced units
  /// allocate nothing for span names.
  std::string name(std::string_view what, std::string_view detail) const {
    if (!on_) return {};
    std::string s(what);
    s += ' ';
    s += detail;
    return s;
  }
  /// Opens a span now; returns its id (or -1 when off).
  int open(std::string_view name, int parent = -1);
  void close(int id);
  /// Records a span whose ends were taken elsewhere (collective
  /// iterations are stamped from inside the rank coroutines).
  int add(std::string_view name, double start, double end, int parent);

  const std::vector<Span>& all() const { return spans_; }
  void write_chrome_json(const std::string& path) const;

 private:
  bool on_ = false;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Spans& s, std::string_view name, int parent = -1)
      : s_(s), id_(s.open(name, parent)) {}
  ~Scope() { s_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Spans& s_;
  int id_;
};

/// One unit of work: host time plus the counts that must repeat exactly.
struct Unit {
  double wall_s = 0.0;
  /// Host seconds of each fixed part of the unit (same partition in
  /// every unit); the timing estimate is built from these.
  std::vector<double> parts;
  std::uint64_t msgs = 0;    ///< library-level messages
  std::uint64_t allocs = 0;  ///< operator new calls inside the unit
  std::uint64_t events = 0;  ///< simulator events (0 where not visible)
  std::uint64_t ops = 0;     ///< operations attempted
  std::uint64_t failed = 0;  ///< operations that failed
  std::uint64_t digest = 0;  ///< FNV-1a over the simulated outputs
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Collects correctness failures; any failure makes the run exit 1.
class Gate {
 public:
  void fail(const std::string& why);
  bool ok() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<std::string> errors_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything the first unit needs (timed as setup_s).
  virtual void setup() = 0;
  /// Runs the untimed warm-up unit and checks its simulated outputs
  /// against the committed references.
  virtual Unit warmup(Gate& gate) = 0;
  /// Runs one timed unit; records spans when `spans` is on.
  virtual Unit run_unit(Spans& spans) = 0;
  /// Traced run only: counts from a counting pass and the layer ladder.
  /// `unit_s` is the timed phase's estimate of one unit's host time.
  virtual void layer_metrics(const Unit& unit, double unit_s,
                             Spans& spans, std::vector<Metric>& out) = 0;
};

std::unique_ptr<Workload> make_pingpong(const Options& opt);
std::unique_ptr<Workload> make_fabric(const Options& opt);
std::unique_ptr<Workload> make_chaos(const Options& opt);

/// "<fig>_<curve>" of every paper_pingpong library curve, for the
/// mp.self_ns_per_msg.<curve> metric names.
std::vector<std::string> pingpong_library_slugs();

// ---- small helpers shared by the workloads --------------------------------

inline std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Within the golden tolerance of tests/test_golden.cpp (1e-4 relative;
/// the .dat files hold %.6g).
inline bool close_rel(double golden, double fresh) {
  const double scale = golden < 0 ? -golden : golden;
  const double diff = fresh > golden ? fresh - golden : golden - fresh;
  return diff <= 1e-4 * (scale > 1e-12 ? scale : 1e-12);
}

double median(std::vector<double> v);
/// Smallest value (0 when empty): the least-disturbed of repeated timings.
double fastest(const std::vector<double>& v);
/// Linear-interpolated quantile q in [0, 1].
double quantile(std::vector<double> v, double q);

/// Times `fn` once and returns host seconds.
template <typename F>
double timed(F&& fn) {
  const double t0 = host_now();
  fn();
  return host_now() - t0;
}

/// One row of a golden .dat file: "bytes time_us mbps" (collective
/// curves store the node count in `bytes`).
struct DatRow {
  std::uint64_t bytes = 0;
  double time_us = 0.0;
  double mbps = 0.0;
};
/// Rows of a .dat file; empty when the file is missing.
std::vector<DatRow> read_dat(const std::string& path);

/// Text of the value after `"key":` at or after `pos` in compact
/// pp.sweep JSON (quotes stripped); empty when absent.
std::string json_value(const std::string& text, std::size_t pos,
                       const std::string& key);

/// Ladder rungs run once each are at the mercy of this host's slow
/// stretches; each is run this many times and its fastest time kept.
inline constexpr int kRungRepeats = 5;

/// Reads a whole text file; empty string when missing.
std::string read_file(const std::string& path);
/// Writes a text file, creating parent directories.
void write_file(const std::string& path, const std::string& text);

}  // namespace pb
