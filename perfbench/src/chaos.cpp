// chaos_audited: chaos::random_plan fault plans run through
// chaos::run_verdict_audited against the tcp, mpich, gm and via stacks.
//
// These are the paper_pingpong stacks on their recovery paths
// (retransmits, RTO and keepalive timers, reconnects, GM/VIA watchdog
// retries, epoch fencing) with the faults and audit hooks on.
//
// The timed unit is bench/chaos's plan set, random_plan(1..250) on every
// scenario, in an order the seed shuffles: BENCH_chaos.json records the
// verdict and ledger of each of these runs, which the warm-up checks.
// Host time per run is heavy-tailed (slow-progress "degraded" TCP runs
// take up to 20 ms against a 0.3 ms median), so a plan set drawn afresh
// per seed moved msgs_per_s by 20% (IQR over five seeds) on plan mix
// alone. The seed still draws fresh plans: an untimed probe of
// seed-derived plans runs in the warm-up and must pass the oracles (an
// acceptable verdict, a balanced ledger, zero violations).
#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <random>

#include "bench.h"
#include "chaos/chaos.h"
#include "faults/config.h"

namespace pb {
namespace {

using namespace pp;

constexpr int kPlansFull = 250;
constexpr int kPlansSmoke = 10;
constexpr int kProbeFull = 25;
constexpr int kProbeSmoke = 3;
constexpr std::size_t kScenarioCount = std::size(chaos::kScenarios);
constexpr std::size_t kVerdicts = 6;
/// Runs per timed part of a unit.
constexpr std::size_t kChunk = 50;

struct RunRecord {
  chaos::Verdict verdict = chaos::Verdict::kError;
  audit::Summary ledger;
};

/// Conservation: every injected message was delivered or failed by
/// decision, nothing is left unaccounted, and no oracle fired.
bool ledger_ok(const audit::Summary& s) {
  return s.unaccounted == 0 && !s.has_violations() &&
         s.injected == s.delivered + s.failed_by_decision;
}

bool run_ok(const RunRecord& r) {
  return chaos::acceptable(r.verdict) && ledger_ok(r.ledger);
}

RunRecord run_one(const faults::FaultPlan& plan, chaos::Scenario sc) {
  RunRecord r;
  r.verdict = chaos::run_verdict_audited(sc, plan, 1, &r.ledger);
  return r;
}

class Chaos final : public Workload {
 public:
  explicit Chaos(const Options& opt)
      : opt_(opt), plans_n_(opt.smoke ? kPlansSmoke : kPlansFull) {}

  void setup() override {
    plans_.clear();
    for (int p = 0; p < plans_n_; ++p) {
      plans_.push_back(chaos::random_plan(static_cast<std::uint64_t>(p + 1)));
    }
    probe_.clear();
    for (int i = 0; i < (opt_.smoke ? kProbeSmoke : kProbeFull); ++i) {
      probe_.push_back(chaos::random_plan(faults::derive_seed(
          opt_.seed, "chaos_audited/probe/" + std::to_string(i))));
    }
    order_.resize(plans_.size() * kScenarioCount);
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::mt19937_64 rng(opt_.seed);
    std::shuffle(order_.begin(), order_.end(), rng);
    // One-time cache the verdicts classify against.
    for (chaos::Scenario sc : chaos::kScenarios) chaos::baseline_mbps(sc);
  }

  Unit warmup(Gate& gate) override;
  Unit run_unit(Spans& spans) override;
  void layer_metrics(const Unit& unit, double unit_s, Spans& spans,
                     std::vector<Metric>& out) override;

 private:
  const faults::FaultPlan& plan_of(std::size_t run) const {
    return plans_[run / kScenarioCount];
  }
  static chaos::Scenario scenario_of(std::size_t run) {
    return chaos::kScenarios[run % kScenarioCount];
  }

  Options opt_;
  int plans_n_;
  std::vector<faults::FaultPlan> plans_;  ///< random_plan(1..plans_n_)
  std::vector<faults::FaultPlan> probe_;  ///< seed-derived, untimed
  std::vector<std::size_t> order_;        ///< run index = plan * 4 + scenario
  std::vector<RunRecord> last_;           ///< of the last unit, by run index
};

Unit Chaos::run_unit(Spans& spans) {
  Unit u;
  last_.assign(order_.size(), RunRecord{});
  const int unit_span = spans.open("chaos_audited unit");
  const std::uint64_t a0 = alloc_count();
  const double t0 = host_now();
  u.parts.assign((order_.size() + kChunk - 1) / kChunk, 0.0);
  double chunk0 = host_now();
  for (std::size_t k = 0; k < order_.size(); ++k) {
    const std::size_t run = order_[k];
    {
      Scope s(spans, spans.name("chaos", chaos::to_string(scenario_of(run))),
              unit_span);
      last_[run] = run_one(plan_of(run), scenario_of(run));
    }
    if ((k + 1) % kChunk == 0 || k + 1 == order_.size()) {
      const double now = host_now();
      u.parts[k / kChunk] = now - chunk0;
      chunk0 = now;
    }
  }
  u.wall_s = host_now() - t0;
  u.allocs = alloc_count() - a0;
  spans.close(unit_span);
  for (const RunRecord& r : last_) {
    u.msgs += r.ledger.injected;
    u.ops += 1;
    u.failed += run_ok(r) ? 0 : 1;
    u.digest = fnv(fnv(fnv(u.digest, static_cast<std::uint64_t>(r.verdict)),
                       r.ledger.injected),
                   r.ledger.delivered);
  }
  return u;
}

Unit Chaos::warmup(Gate& gate) {
  // The first pass in a process runs slower (lazy caches, page faults);
  // it is the untimed warm-up and the reference every timed unit must
  // reproduce.
  Spans off;
  Unit u = run_unit(off);

  // Each run against bench/chaos's record of it.
  const std::string text = read_file(opt_.repo_dir + "/BENCH_chaos.json");
  const auto sweep = text.find("\"name\":\"chaos shards=1 arena\"");
  if (sweep == std::string::npos) {
    gate.fail("BENCH_chaos.json has no 'chaos shards=1 arena' sweep");
    return u;
  }
  for (std::size_t run = 0; run < last_.size(); ++run) {
    const RunRecord& r = last_[run];
    const std::string label = std::string(chaos::to_string(scenario_of(run))) +
                              " seed=" + std::to_string(run / kScenarioCount + 1);
    const auto job = text.find("\"label\":\"" + label + "\"", sweep);
    const std::string verdict = json_value(text, job, "verdict");
    const std::string injected = json_value(text, job, "injected");
    const std::string delivered = json_value(text, job, "delivered");
    if (job == std::string::npos || verdict != chaos::to_string(r.verdict) ||
        injected != std::to_string(r.ledger.injected) ||
        delivered != std::to_string(r.ledger.delivered)) {
      gate.fail(label + ": verdict " + chaos::to_string(r.verdict) + " " +
                std::to_string(r.ledger.injected) + "/" +
                std::to_string(r.ledger.delivered) +
                " injected/delivered, BENCH_chaos.json has " + verdict + " " +
                injected + "/" + delivered);
    }
    if (!ledger_ok(r.ledger)) gate.fail(label + ": ledger does not balance");
  }

  // The seed's probe: fresh plans, oracles only.
  int probe_runs = 0;
  for (std::size_t p = 0; p < probe_.size(); ++p) {
    for (chaos::Scenario sc : chaos::kScenarios) {
      const RunRecord r = run_one(probe_[p], sc);
      ++probe_runs;
      if (!run_ok(r)) {
        gate.fail(std::string("probe plan ") + std::to_string(p) + " on " +
                  chaos::to_string(sc) + ": verdict " +
                  chaos::to_string(r.verdict) + ", " +
                  std::to_string(r.ledger.violations) + " violations");
      }
    }
  }
  std::printf("# seeded probe: %d runs of %zu fresh plans checked\n",
              probe_runs, probe_.size());
  return u;
}

void Chaos::layer_metrics(const Unit& unit, double unit_s,
                          Spans& spans, std::vector<Metric>& out) {
  (void)unit_s;
  const double msgs = static_cast<double>(unit.msgs);
  // Per-run host time from the traced units' spans.
  std::vector<double> all;
  std::map<std::string, std::vector<double>> by_sc;
  for (const Spans::Span& sp : spans.all()) {
    if (sp.name.rfind("chaos ", 0) != 0) continue;
    const double ms = (sp.end - sp.start) * 1e3;
    all.push_back(ms);
    by_sc[sp.name.substr(6)].push_back(ms);
  }
  out.push_back({"chaos.run_ms_p50", quantile(all, 0.50), "ms"});
  out.push_back({"chaos.run_ms_p99", quantile(all, 0.99), "ms"});
  out.push_back({"chaos.run_samples", static_cast<double>(all.size()),
                 "count"});
  std::map<std::string, double> mean_ms;
  for (chaos::Scenario sc : chaos::kScenarios) {
    const std::string name = chaos::to_string(sc);
    const std::vector<double>& v = by_sc[name];
    out.push_back({"chaos.run_ms." + name, median(v), "ms"});
    double sum = 0.0;
    for (double x : v) sum += x;
    mean_ms[name] = v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  }
  std::array<std::uint64_t, kVerdicts> verdicts{};
  std::uint64_t delivered = 0, violations = 0;
  for (const RunRecord& r : last_) {
    ++verdicts[static_cast<std::size_t>(r.verdict)];
    delivered += r.ledger.delivered;
    violations += r.ledger.violations;
  }
  for (std::size_t v = 0; v < kVerdicts; ++v) {
    out.push_back({std::string("chaos.verdicts.") +
                       chaos::to_string(static_cast<chaos::Verdict>(v)),
                   static_cast<double>(verdicts[v]), "count"});
  }
  out.push_back({"audit.msgs_checked", static_cast<double>(delivered),
                 "count"});
  out.push_back({"audit.violations", static_cast<double>(violations),
                 "count"});

  // Recovery rung: each scenario's null-plan run, as often as it ran
  // planned; recovery cost is the planned mean minus the null mean.
  {
    Scope s(spans, "rung null plan");
    double extra_ms = 0.0;
    for (chaos::Scenario sc : chaos::kScenarios) {
      std::vector<double> t;
      for (int r = 0; r < kRungRepeats; ++r) {
        t.push_back(timed([&] {
          for (int i = 0; i < plans_n_; ++i) {
            chaos::run_verdict_audited(sc, faults::FaultPlan{});
          }
        }));
      }
      extra_ms += mean_ms[chaos::to_string(sc)] - fastest(t) * 1e3 / plans_n_;
    }
    out.push_back({"faults.recovery_ms_per_run",
                   extra_ms / static_cast<double>(kScenarioCount), "ms"});
  }

  // Audit rung: the same runs unaudited and audited, taking turns.
  {
    Scope s(spans, "rung audit off/on");
    std::vector<double> off, on;
    for (int i = 0; i < kRungRepeats; ++i) {
      off.push_back(timed([&] {
        for (std::size_t run : order_) {
          chaos::run_verdict(scenario_of(run), plan_of(run));
        }
      }));
      on.push_back(timed([&] {
        for (std::size_t run : order_) {
          chaos::run_verdict_audited(scenario_of(run), plan_of(run));
        }
      }));
    }
    out.push_back({"audit.self_ns_per_msg",
                   (fastest(on) - fastest(off)) * 1e9 / msgs, "ns"});
  }

  // Counting pass: the same jobs through one sweep, for the protocol
  // counters a verdict does not carry. Only runs that completed return
  // counters; a failed run's are lost with its exception.
  {
    Scope s(spans, "counting pass");
    sweep::SweepSpec spec;
    spec.name = "perfbench-chaos";
    for (std::size_t run = 0; run < last_.size(); ++run) {
      spec.jobs.push_back(chaos::scenario_job(
          scenario_of(run), chaos::to_string(scenario_of(run)), plan_of(run)));
    }
    sweep::SweepOptions so = chaos::chaos_sweep_options();
    so.threads = 1;
    so.shards = 1;
    const sweep::SweepResult sr = sweep::run_sweep(spec, so);
    std::uint64_t completed = 0, rtx = 0, reconnects = 0, retries = 0;
    std::uint64_t gm_via_done = 0;
    for (const sweep::JobResult& jr : sr.jobs) {
      if (!jr.ok) continue;
      ++completed;
      const netpipe::ProtocolCounters& c = jr.result.counters;
      rtx += c.retransmits + c.fast_retransmits;
      reconnects += c.reconnects;
      if (jr.label == "gm" || jr.label == "via") {
        ++gm_via_done;
        retries += c.delivery_failures;
      }
    }
    out.push_back({"tcpsim.retransmits_per_run",
                   completed ? static_cast<double>(rtx) / completed : 0.0,
                   "count"});
    out.push_back({"tcpsim.reconnects", static_cast<double>(reconnects),
                   "count"});
    out.push_back({"gm_via.delivery_retries_per_run",
                   gm_via_done ? static_cast<double>(retries) / gm_via_done
                               : 0.0,
                   "count"});
  }
}

}  // namespace

std::unique_ptr<Workload> make_chaos(const Options& opt) {
  return std::make_unique<Chaos>(opt);
}

}  // namespace pb
