// Tests for the delivery-oracle and conservation-audit layer (src/audit):
// the ledger unit semantics (every violation kind, every run outcome),
// the audited chaos scenarios (null plans balance exactly, crash/restart
// recovery stays violation-free, permanent crashes close the ledger as
// failed-by-decision), the injected-bug acceptance pipeline (GM and VIA
// beds with their epoch fence deliberately disabled must be caught by
// the oracle; the GM reproducer ddmin-minimizes to the crash rule), and
// the observe-only contract: audit-on runs are bit-identical to
// audit-off runs in canonical sweep JSON and full Chrome-JSON traces.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "chaos/chaos.h"
#include "faults/config.h"
#include "faults/minimize.h"
#include "faults/plan.h"
#include "faults/plan_io.h"
#include "gmsim/gm.h"
#include "mp/adapters.h"
#include "mp/gm_mpi.h"
#include "mp/via_mpi.h"
#include "mp/mpich.h"
#include "mp/testbed.h"
#include "netpipe/runner.h"
#include "simcore/tracing.h"
#include "simhw/cluster.h"
#include "simhw/presets.h"
#include "sweep/json_report.h"
#include "sweep/sweep.h"
#include "tcpsim/tuning.h"
#include "viasim/via.h"

namespace pp {
namespace {

namespace presets = hw::presets;

// ---- Ledger unit semantics -------------------------------------------------

TEST(AuditLedger, CleanRoundTripBalancesExactly) {
  audit::Auditor aud(7);
  const std::uint32_t s = aud.register_stream("a->b");
  EXPECT_GE(s, 1u);
  std::vector<audit::MsgTag> tags;
  for (std::uint64_t bytes : {64u, 128u, 256u}) {
    tags.push_back(aud.on_inject(s, bytes));
  }
  EXPECT_EQ(tags[0].seq, 0u);
  EXPECT_EQ(tags[1].seq, 1u);
  EXPECT_EQ(tags[2].seq, 2u);
  aud.on_deliver(tags[0], 64);
  aud.on_deliver(tags[1], 128);
  aud.on_deliver(tags[2], 256);
  const audit::Summary& sum = aud.finalize(audit::RunOutcome::kCompleted);
  EXPECT_EQ(sum.streams, 1u);
  EXPECT_EQ(sum.injected, 3u);
  EXPECT_EQ(sum.injected_bytes, 64u + 128u + 256u);
  EXPECT_EQ(sum.delivered, 3u);
  EXPECT_EQ(sum.unaccounted, 0u);
  EXPECT_EQ(sum.violations, 0u);
  EXPECT_FALSE(sum.has_violations());
  EXPECT_TRUE(audit::report_text(sum).empty());
}

TEST(AuditLedger, ChecksumMismatchIsReported) {
  audit::Auditor aud;
  const std::uint32_t s = aud.register_stream("a->b");
  audit::MsgTag tag = aud.on_inject(s, 100);
  tag.check ^= 1;  // a receiver consuming a different payload identity
  aud.on_deliver(tag, 100);
  const audit::Summary& sum = aud.finalize(audit::RunOutcome::kCompleted);
  ASSERT_EQ(sum.reports.size(), 1u);
  EXPECT_EQ(sum.reports[0].kind, audit::ViolationKind::kChecksumMismatch);
  EXPECT_EQ(sum.reports[0].actual, tag.check);
}

TEST(AuditLedger, SizeMismatchIsReported) {
  audit::Auditor aud;
  const std::uint32_t s = aud.register_stream("a->b");
  const audit::MsgTag tag = aud.on_inject(s, 100);
  aud.on_deliver(tag, 90);  // short delivery
  const audit::Summary& sum = aud.finalize(audit::RunOutcome::kCompleted);
  ASSERT_EQ(sum.reports.size(), 1u);
  EXPECT_EQ(sum.reports[0].kind, audit::ViolationKind::kSizeMismatch);
  EXPECT_EQ(sum.reports[0].expected, 100u);
  EXPECT_EQ(sum.reports[0].actual, 90u);
}

TEST(AuditLedger, DuplicateDeliveryIsReported) {
  audit::Auditor aud;
  const std::uint32_t s = aud.register_stream("a->b");
  const audit::MsgTag tag = aud.on_inject(s, 100);
  aud.on_deliver(tag, 100);
  aud.on_deliver(tag, 100);  // consumed twice
  const audit::Summary& sum = aud.finalize(audit::RunOutcome::kCompleted);
  ASSERT_EQ(sum.reports.size(), 1u);
  EXPECT_EQ(sum.reports[0].kind, audit::ViolationKind::kDuplicateDelivery);
  // The duplicate does not inflate the delivered count.
  EXPECT_EQ(sum.delivered, 1u);
}

TEST(AuditLedger, OutOfOrderConsumptionIsAFifoViolation) {
  audit::Auditor aud;
  const std::uint32_t s = aud.register_stream("a->b");
  const audit::MsgTag t0 = aud.on_inject(s, 10);
  const audit::MsgTag t1 = aud.on_inject(s, 20);
  aud.on_deliver(t1, 20);  // advances the watermark past seq 0
  aud.on_deliver(t0, 10);  // behind the watermark: out of order
  const audit::Summary& sum = aud.finalize(audit::RunOutcome::kCompleted);
  ASSERT_EQ(sum.reports.size(), 1u);
  EXPECT_EQ(sum.reports[0].kind, audit::ViolationKind::kFifoViolation);
  EXPECT_EQ(sum.reports[0].seq, 0u);
  // Both messages were still consumed exactly once.
  EXPECT_EQ(sum.delivered, 2u);
  EXPECT_EQ(sum.unaccounted, 0u);
}

TEST(AuditLedger, CompletionAfterTeardownIsReported) {
  audit::Auditor aud;
  const std::uint32_t s = aud.register_stream("a->b");
  const audit::MsgTag tag = aud.on_inject(s, 100);
  aud.on_deliver(tag, 100, /*after_teardown=*/true);
  const audit::Summary& sum = aud.finalize(audit::RunOutcome::kCompleted);
  ASSERT_EQ(sum.reports.size(), 1u);
  EXPECT_EQ(sum.reports[0].kind,
            audit::ViolationKind::kCompletionAfterTeardown);
}

TEST(AuditLedger, OutstandingMessagesOfACompletedRunAreUnaccounted) {
  audit::Auditor aud;
  const std::uint32_t s = aud.register_stream("a->b");
  const audit::MsgTag t0 = aud.on_inject(s, 10);
  (void)aud.on_inject(s, 999);  // never delivered
  aud.on_deliver(t0, 10);
  const audit::Summary& sum = aud.finalize(audit::RunOutcome::kCompleted);
  EXPECT_EQ(sum.unaccounted, 1u);
  ASSERT_EQ(sum.reports.size(), 1u);
  EXPECT_EQ(sum.reports[0].kind, audit::ViolationKind::kUnaccounted);
  EXPECT_EQ(sum.reports[0].expected, 999u);  // the lost byte count
}

TEST(AuditLedger, FailedRunClosesOutstandingAsFailedByDecision) {
  audit::Auditor aud;
  const std::uint32_t s = aud.register_stream("a->b");
  const audit::MsgTag t0 = aud.on_inject(s, 10);
  (void)aud.on_inject(s, 20);  // in flight when the stack gave up
  aud.on_deliver(t0, 10);
  const audit::Summary& sum = aud.finalize(audit::RunOutcome::kFailed);
  EXPECT_EQ(sum.outcome, audit::RunOutcome::kFailed);
  EXPECT_EQ(sum.failed_by_decision, 1u);
  EXPECT_EQ(sum.unaccounted, 0u);
  EXPECT_EQ(sum.violations, 0u);
  // The ledger identity: injected == delivered + failed_by_decision.
  EXPECT_EQ(sum.injected, sum.delivered + sum.failed_by_decision);
}

TEST(AuditLedger, AbortedRunLeavesConservationIndeterminate) {
  audit::Auditor aud;
  const std::uint32_t s = aud.register_stream("a->b");
  (void)aud.on_inject(s, 10);
  const audit::Summary& sum = aud.finalize(audit::RunOutcome::kAborted);
  EXPECT_EQ(sum.outcome, audit::RunOutcome::kAborted);
  EXPECT_EQ(sum.unaccounted, 0u);
  EXPECT_EQ(sum.failed_by_decision, 0u);
  EXPECT_EQ(sum.violations, 0u);
}

TEST(AuditLedger, StaleEpochAndCorruptFragmentsAreReported) {
  audit::Auditor aud;
  const std::uint32_t s = aud.register_stream("gm.a");
  const audit::MsgTag tag = aud.on_inject(s, 100);
  // A fragment stamped with epoch 1 accepted by a receiver on epoch 2,
  // and corrupted to boot: two distinct invariant breaks.
  aud.on_accept_fragment(tag, /*frag_epoch=*/1, /*rx_epoch=*/2,
                         /*corrupted=*/true);
  aud.on_deliver(tag, 100);
  const audit::Summary& sum = aud.finalize(audit::RunOutcome::kCompleted);
  ASSERT_EQ(sum.reports.size(), 2u);
  EXPECT_EQ(sum.reports[0].kind, audit::ViolationKind::kCorruptAccepted);
  EXPECT_EQ(sum.reports[1].kind, audit::ViolationKind::kStaleEpochDelivery);
  EXPECT_EQ(sum.reports[1].expected, 2u);
  EXPECT_EQ(sum.reports[1].actual, 1u);
}

TEST(AuditLedger, TcpContiguityFlagsInEpochGapsOnly) {
  audit::Auditor aud;
  aud.on_tcp_accept("sock-b", /*epoch=*/1, /*seq=*/0, /*payload=*/100);
  aud.on_tcp_accept("sock-b", 1, 100, 50);  // contiguous
  aud.on_tcp_accept("sock-b", 1, 200, 10);  // gap: 150 expected
  // A new connection epoch legitimately resynchronizes the stream.
  aud.on_tcp_accept("sock-b", 2, 0, 10);
  aud.on_tcp_accept("sock-b", 2, 10, 10);
  const audit::Summary& sum = aud.finalize(audit::RunOutcome::kCompleted);
  ASSERT_EQ(sum.reports.size(), 1u);
  EXPECT_EQ(sum.reports[0].kind, audit::ViolationKind::kSequenceRegression);
  EXPECT_EQ(sum.reports[0].expected, 150u);
  EXPECT_EQ(sum.reports[0].actual, 200u);
  EXPECT_EQ(sum.reports[0].detail, "sock-b");
}

TEST(AuditLedger, TcpTokenRoundTripBalancesTheLedger) {
  audit::Auditor aud;
  const std::uint32_t s = aud.register_stream("tcp a->b");
  const audit::MsgTag t0 = aud.on_inject(s, 4096);
  const audit::MsgTag t1 = aud.on_inject(s, 8192);
  aud.on_tcp_token(audit::Auditor::pack_token(t0));
  aud.on_tcp_token(audit::Auditor::pack_token(t1));
  // Replaying a token is a duplicate consumption like any other.
  aud.on_tcp_token(audit::Auditor::pack_token(t1));
  const audit::Summary& sum = aud.finalize(audit::RunOutcome::kCompleted);
  EXPECT_EQ(sum.delivered, 2u);
  EXPECT_EQ(sum.unaccounted, 0u);
  ASSERT_EQ(sum.reports.size(), 1u);
  EXPECT_EQ(sum.reports[0].kind, audit::ViolationKind::kDuplicateDelivery);
}

TEST(AuditLedger, UntaggedMessagesAreInvisible) {
  audit::Auditor aud;
  // Control messages (RTS/CTS/acks) carry the default tag: stream 0.
  const audit::MsgTag none = aud.on_inject(0, 100);
  EXPECT_EQ(none.stream, 0u);
  aud.on_deliver(audit::MsgTag{}, 55);
  aud.on_accept_fragment(audit::MsgTag{}, 1, 2, true);
  aud.on_tcp_token(0);
  const audit::Summary& sum = aud.finalize(audit::RunOutcome::kCompleted);
  EXPECT_EQ(sum.injected, 0u);
  EXPECT_EQ(sum.delivered, 0u);
  EXPECT_EQ(sum.violations, 0u);
}

TEST(AuditLedger, ReportsAreCappedSortedAndEchoThePlan) {
  audit::Auditor aud;
  aud.set_fault_plan("plan pp.faultplan/1\ncrash node=1 at=1000\n");
  const std::uint32_t s = aud.register_stream("a->b");
  std::vector<audit::MsgTag> tags;
  for (int i = 0; i < 100; ++i) tags.push_back(aud.on_inject(s, 10));
  for (const audit::MsgTag& t : tags) aud.on_deliver(t, 10);
  // 100 duplicates, delivered in reverse so the raw report order is
  // descending — finalize must sort them back by seq.
  for (auto it = tags.rbegin(); it != tags.rend(); ++it) {
    aud.on_deliver(*it, 10);
  }
  const audit::Summary& sum = aud.finalize(audit::RunOutcome::kCompleted);
  EXPECT_EQ(sum.violations, 100u);
  ASSERT_EQ(sum.reports.size(), audit::Auditor::kMaxReports);
  for (std::size_t i = 1; i < sum.reports.size(); ++i) {
    EXPECT_LT(sum.reports[i - 1].seq, sum.reports[i].seq);
  }
  const std::string text = audit::report_text(sum);
  EXPECT_NE(text.find("duplicate-delivery"), std::string::npos);
  EXPECT_NE(text.find("more violation(s)"), std::string::npos);
  EXPECT_NE(text.find("fault plan:"), std::string::npos);
  EXPECT_NE(text.find("crash node=1"), std::string::npos);
}

TEST(AuditLedger, FinalizeIsIdempotent) {
  audit::Auditor aud;
  const std::uint32_t s = aud.register_stream("a->b");
  (void)aud.on_inject(s, 10);
  const audit::Summary& first = aud.finalize(audit::RunOutcome::kFailed);
  EXPECT_EQ(first.outcome, audit::RunOutcome::kFailed);
  // A second finalize (even with a different outcome) is a no-op.
  const audit::Summary& second = aud.finalize(audit::RunOutcome::kCompleted);
  EXPECT_EQ(second.outcome, audit::RunOutcome::kFailed);
  EXPECT_EQ(second.failed_by_decision, 1u);
}

TEST(AuditLedger, ChecksumsAreSeeded) {
  audit::Auditor a(1), b(2);
  const std::uint32_t sa = a.register_stream("x");
  const std::uint32_t sb = b.register_stream("x");
  // Same stream, seq and size — different run seed, different identity.
  EXPECT_NE(a.on_inject(sa, 100).check, b.on_inject(sb, 100).check);
}

// ---- Audited chaos scenarios -----------------------------------------------

TEST(AuditChaos, NullPlansBalanceExactlyOnEveryScenario) {
  for (chaos::Scenario sc : chaos::kScenarios) {
    audit::Summary sum;
    const chaos::Verdict v =
        chaos::run_verdict_audited(sc, faults::FaultPlan{}, /*shards=*/1,
                                   &sum);
    EXPECT_EQ(v, chaos::Verdict::kClean) << chaos::to_string(sc);
    EXPECT_EQ(sum.outcome, audit::RunOutcome::kCompleted);
    EXPECT_GT(sum.streams, 0u) << chaos::to_string(sc);
    EXPECT_GT(sum.injected, 0u) << chaos::to_string(sc);
    EXPECT_GT(sum.injected_bytes, 0u);
    EXPECT_EQ(sum.delivered, sum.injected) << chaos::to_string(sc);
    EXPECT_EQ(sum.unaccounted, 0u);
    EXPECT_EQ(sum.violations, 0u) << chaos::to_string(sc) << "\n"
                                  << audit::report_text(sum);
  }
}

TEST(AuditChaos, CrashRestartRecoveryIsViolationFree) {
  faults::HostCrashConfig cc;
  cc.at = sim::milliseconds(1.0);
  cc.downtime = sim::milliseconds(2.0);
  faults::FaultPlan plan;
  plan.add_crash(1, cc);
  for (chaos::Scenario sc : chaos::kScenarios) {
    audit::Summary sum;
    const chaos::Verdict v =
        chaos::run_verdict_audited(sc, plan, /*shards=*/1, &sum);
    EXPECT_TRUE(chaos::acceptable(v))
        << chaos::to_string(sc) << " verdict=" << chaos::to_string(v);
    EXPECT_EQ(sum.violations, 0u) << chaos::to_string(sc) << "\n"
                                  << audit::report_text(sum);
    if (sum.outcome != audit::RunOutcome::kAborted) {
      EXPECT_EQ(sum.injected, sum.delivered + sum.failed_by_decision)
          << chaos::to_string(sc);
    }
  }
}

TEST(AuditChaos, PermanentCrashClosesTheLedgerAsFailedByDecision) {
  faults::HostCrashConfig cc;
  cc.at = sim::microseconds(500.0);
  cc.mode = faults::HostCrashConfig::Mode::kPermanent;
  faults::FaultPlan plan;
  plan.add_crash(1, cc);
  audit::Summary sum;
  const chaos::Verdict v = chaos::run_verdict_audited(
      chaos::Scenario::kGm, plan, /*shards=*/1, &sum);
  EXPECT_EQ(v, chaos::Verdict::kFailed);
  EXPECT_EQ(sum.outcome, audit::RunOutcome::kFailed);
  EXPECT_GT(sum.failed_by_decision, 0u);
  EXPECT_EQ(sum.violations, 0u) << audit::report_text(sum);
  EXPECT_EQ(sum.injected, sum.delivered + sum.failed_by_decision);
}

TEST(AuditChaos, AuditedVerdictsMatchUnauditedOnes) {
  // Observe-only at the verdict level: over a spread of random plans the
  // audited verdict equals the unaudited one (no violations to upgrade).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const faults::FaultPlan plan = chaos::random_plan(seed);
    for (chaos::Scenario sc : chaos::kScenarios) {
      audit::Summary sum;
      const chaos::Verdict plain = chaos::run_verdict(sc, plan);
      const chaos::Verdict audited =
          chaos::run_verdict_audited(sc, plan, /*shards=*/1, &sum);
      EXPECT_EQ(plain, audited)
          << chaos::to_string(sc) << " seed=" << seed;
      EXPECT_EQ(sum.violations, 0u)
          << chaos::to_string(sc) << " seed=" << seed << "\n"
          << audit::report_text(sum);
    }
  }
}

// ---- The injected bug: a disabled epoch fence ------------------------------

// A GM or VIA bed whose receive-side power-epoch fence is optionally
// disabled (bypass::EndpointConfig::unsafe_skip_epoch_fence — the
// deliberate protocol bug), on the crash timing where a watchdog-retry
// fragment train straddles the receiver's restart: the trailing
// fragments arrive stamped with the dead epoch. The intact fence rejects
// them (stale_epoch_drops); the broken bed accepts them, which only the
// oracle can see.
enum class BypassStack { kGm, kVia };

struct BuggyOutcome {
  audit::Summary summary;
  std::uint64_t stale_drops = 0;
  bool completed = false;
};

BuggyOutcome run_buggy(BypassStack stack, const faults::FaultPlan& plan,
                       bool skip_fence) {
  BuggyOutcome out;
  audit::Auditor aud(faults::derive_seed(plan.seed, "audit"));
  aud.set_fault_plan(faults::to_text(plan));
  sim::Simulator s;
  s.set_auditor(&aud);
  hw::Cluster c(s);
  auto& a = c.add_node(presets::pentium4_pc());
  auto& b = c.add_node(presets::pentium4_pc());
  bypass::EndpointConfig recovery;
  recovery.delivery_timeout = sim::microseconds(500.0);
  recovery.max_delivery_attempts = 10;
  recovery.unsafe_skip_epoch_fence = skip_fence;
  std::unique_ptr<gm::GmFabric> gm_fab;
  std::unique_ptr<via::ViaFabric> via_fab;
  std::unique_ptr<netpipe::Transport> ta, tb;
  if (stack == BypassStack::kGm) {
    gm::GmConfig gc;
    static_cast<bypass::EndpointConfig&>(gc) = recovery;
    gm_fab = std::make_unique<gm::GmFabric>(c, a, b, presets::myrinet_pci64a(),
                                            presets::switched(), gc);
    ta = std::make_unique<mp::GmTransport>(gm_fab->port_a());
    tb = std::make_unique<mp::GmTransport>(gm_fab->port_b());
  } else {
    via::ViaConfig vc;
    static_cast<bypass::EndpointConfig&>(vc) = recovery;
    via_fab = std::make_unique<via::ViaFabric>(
        c, a, b, presets::giganet_clan(), presets::switched(), vc);
    ta = std::make_unique<mp::ViaTransport>(via_fab->end_a());
    tb = std::make_unique<mp::ViaTransport>(via_fab->end_b());
  }
  faults::apply(plan, c);
  try {
    netpipe::RunResult r =
        netpipe::run_netpipe(s, *ta, *tb, chaos::chaos_run_options());
    if (r.audit) out.summary = *r.audit;
    out.completed = true;
  } catch (const sim::ProtocolFailure&) {
    out.summary = aud.finalize(audit::RunOutcome::kFailed);
  }
  out.stale_drops = gm_fab ? gm_fab->port_b().stale_epoch_drops()
                           : via_fab->end_b().stale_epoch_drops();
  return out;
}

// Receiver crash with a 510 us downtime: the sender's delivery watchdog
// (500 us) fires during the blackout and its retry is on the wire when
// the node comes back — the stale-fragment race the fence exists for.
// The crash lands at 500 us on GM. On VIA a crash at 500 us leaves no
// retry spanning the restart (found by sweeping the crash instant), so
// VIA's bed crashes at 600 us.
faults::FaultPlan fence_race_plan(BypassStack stack = BypassStack::kGm) {
  faults::FaultPlan plan;
  plan.seed = 11;
  faults::HostCrashConfig cc;
  cc.at = sim::microseconds(stack == BypassStack::kGm ? 500.0 : 600.0);
  cc.downtime = sim::microseconds(510.0);
  plan.add_crash(1, cc);
  return plan;
}

TEST(AuditOracle, IntactFenceDropsTheStaleFragmentCleanly) {
  for (BypassStack stack : {BypassStack::kGm, BypassStack::kVia}) {
    SCOPED_TRACE(stack == BypassStack::kGm ? "gm" : "via");
    const BuggyOutcome got = run_buggy(stack, fence_race_plan(stack), false);
    // Negative control: the race fires (the fence really had work to do)
    // and the oracle stays silent.
    EXPECT_TRUE(got.completed);
    EXPECT_GT(got.stale_drops, 0u);
    EXPECT_EQ(got.summary.violations, 0u) << audit::report_text(got.summary);
    EXPECT_EQ(got.summary.injected,
              got.summary.delivered + got.summary.failed_by_decision);
  }
}

TEST(AuditOracle, SkippedFenceIsCaughtAsStaleEpochDelivery) {
  for (BypassStack stack : {BypassStack::kGm, BypassStack::kVia}) {
    SCOPED_TRACE(stack == BypassStack::kGm ? "gm" : "via");
    const BuggyOutcome got = run_buggy(stack, fence_race_plan(stack), true);
    // The counters look fine — the run even completes — but the oracle
    // sees the stale acceptance.
    ASSERT_TRUE(got.summary.has_violations());
    bool stale = false;
    for (const audit::Violation& v : got.summary.reports) {
      if (v.kind == audit::ViolationKind::kStaleEpochDelivery) stale = true;
    }
    EXPECT_TRUE(stale) << audit::report_text(got.summary);
    // The report is structured and echoes the fault plan for replay.
    const std::string text = audit::report_text(got.summary);
    EXPECT_NE(text.find("stale-epoch-delivery"), std::string::npos);
    EXPECT_NE(text.find("fault plan:"), std::string::npos);
    EXPECT_NE(text.find("crash"), std::string::npos);
  }
}

TEST(AuditOracle, ViolatingPlanMinimizesToTheCrashRule) {
  // The fence-race crash buried in noise rules (they match no pipe of a
  // GM bed, or fire long after the run ends — inert by construction, the
  // shape ddmin exists to strip).
  faults::FaultPlan plan = fence_race_plan();
  faults::LinkFaultConfig loss;
  loss.loss = 0.02;
  plan.add_link("ga620", loss);  // ethernet pipes: absent from a GM bed
  faults::LinkFaultConfig dup;
  dup.duplicate = 0.05;
  plan.add_link("ga620", dup);
  faults::NicFaultConfig nf;
  nf.ring_slots = 8;
  plan.add_nic("ga620", nf);

  const auto violates = [](const faults::FaultPlan& candidate) {
    return run_buggy(BypassStack::kGm, candidate, true)
        .summary.has_violations();
  };
  ASSERT_TRUE(violates(plan));
  const faults::MinimizeResult r = faults::minimize(plan, violates);
  EXPECT_EQ(r.final_rules, 1u);
  ASSERT_EQ(r.plan.crashes.size(), 1u);
  // The 1-minimal reproducer round-trips through pp.faultplan/1, ready
  // for `minimize_plan --target-verdict error` / `netpipe_cli --audit`.
  const faults::FaultPlan reread = faults::from_text(faults::to_text(r.plan));
  EXPECT_EQ(faults::to_text(reread), faults::to_text(r.plan));
}

// ---- The observe-only contract ---------------------------------------------

// Canonical sweep JSON (timing omitted) of a few chaos plans across every
// scenario, with and without the oracle attached, across the shard x
// packet-path execution matrix: all eight reports must be byte-identical.
TEST(AuditDifferential, AuditedRunsAreBitIdenticalInCanonicalJson) {
  const auto canonical = [](bool audited, int shards,
                            sim::PacketPathKind path) {
    sweep::SweepSpec spec;
    spec.name = "audit-diff";
    std::vector<std::shared_ptr<audit::Summary>> sinks;
    for (std::uint64_t seed : {0ull, 2ull, 5ull}) {
      // Seed 0 is the null plan (no faults armed); the others are
      // ordinary random chaos plans.
      const faults::FaultPlan plan =
          seed == 0 ? faults::FaultPlan{} : chaos::random_plan(seed);
      for (chaos::Scenario sc : chaos::kScenarios) {
        auto sink =
            audited ? std::make_shared<audit::Summary>() : nullptr;
        spec.jobs.push_back(chaos::scenario_job(
            sc,
            std::string(chaos::to_string(sc)) + " seed=" +
                std::to_string(seed),
            plan, sink));
        sinks.push_back(std::move(sink));
      }
    }
    sweep::SweepOptions opt = chaos::chaos_sweep_options();
    opt.shards = shards;
    opt.packet_path = path;
    const sweep::SweepResult sr = run_sweep(spec, opt);
    for (const auto& sink : sinks) {
      if (sink) {
        EXPECT_EQ(sink->violations, 0u) << audit::report_text(*sink);
      }
    }
    // The audit block is deliberately NOT stamped into the jobs: the
    // comparison is about the measured simulation, which the oracle must
    // not have perturbed.
    sweep::JsonReporter::Options jo;
    jo.include_timing = false;
    return sweep::JsonReporter::to_json({sr}, jo);
  };

  std::string reference;
  for (int shards : {1, 2}) {
    for (sim::PacketPathKind path :
         {sim::PacketPathKind::kArena, sim::PacketPathKind::kLegacyHeap}) {
      for (bool audited : {false, true}) {
        const std::string j = canonical(audited, shards, path);
        ASSERT_FALSE(j.empty());
        if (reference.empty()) {
          reference = j;
        } else {
          EXPECT_EQ(j, reference)
              << "audited=" << audited << " shards=" << shards
              << " differs from the unaudited serial reference";
        }
      }
    }
  }
}

// Stronger than counters: the full Chrome-JSON trace of a faulted MPICH
// transfer (stream-library tagging path) must not move by a single event
// when the oracle is attached.
TEST(AuditDifferential, TraceTimelinesMatchEventForEvent) {
  const auto traced_run = [](bool audited) {
    audit::Auditor aud(3);
    mp::PairBed bed(presets::pentium4_pc(), presets::netgear_ga620(),
                    tcp::Sysctl::tuned());
    if (audited) bed.sim.set_auditor(&aud);
    faults::LinkFaultConfig loss;
    loss.loss = 0.01;
    faults::FaultPlan plan;
    plan.seed = 3;
    plan.add_link("", loss);
    faults::apply(plan, bed.cluster);
    sim::TraceRecorder rec;
    bed.sim.set_tracer(&rec);
    mp::MpichOptions mo;
    mo.p4_sockbufsize = 32 << 10;
    auto pair = mp::Mpich::create_pair(bed, mo);
    auto shared = std::make_shared<decltype(pair)>(std::move(pair));
    mp::LibraryTransport ta(*shared->first, 1), tb(*shared->second, 0);
    netpipe::RunOptions opts = chaos::chaos_run_options();
    netpipe::run_netpipe(bed.sim, ta, tb, opts);
    if (audited) {
      const audit::Summary& sum = aud.finalize(audit::RunOutcome::kCompleted);
      EXPECT_GT(sum.injected, 0u);
      EXPECT_EQ(sum.violations, 0u) << audit::report_text(sum);
    }
    return rec.to_chrome_json();
  };
  const std::string off = traced_run(false);
  const std::string on = traced_run(true);
  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, on);
}

// ---- pp.sweep/6 audit block ------------------------------------------------

TEST(AuditJson, PerJobAuditBlockLandsInSweepJson) {
  auto sink = std::make_shared<audit::Summary>();
  sweep::SweepSpec spec;
  spec.name = "audited";
  spec.jobs.push_back(chaos::scenario_job(chaos::Scenario::kTcp, "tcp null",
                                          faults::FaultPlan{}, sink));
  sweep::SweepResult sr = run_sweep(spec, chaos::chaos_sweep_options());
  ASSERT_EQ(sr.jobs.size(), 1u);
  ASSERT_TRUE(sr.jobs[0].ok) << sr.jobs[0].error;
  sr.jobs[0].audit = sink;
  const std::string j = sweep::JsonReporter::to_json({sr});
  EXPECT_NE(j.find("\"schema\":\"pp.sweep/6\""), std::string::npos);
  EXPECT_NE(j.find("\"audit\":{\"outcome\":\"completed\""),
            std::string::npos);
  EXPECT_NE(j.find("\"violations\":0"), std::string::npos);
  // Clean runs carry no violation_reports array.
  EXPECT_EQ(j.find("\"violation_reports\""), std::string::npos);
  // Unaudited jobs omit the block entirely.
  sr.jobs[0].audit = nullptr;
  const std::string plain = sweep::JsonReporter::to_json({sr});
  EXPECT_EQ(plain.find("\"audit\""), std::string::npos);
}

}  // namespace
}  // namespace pp
