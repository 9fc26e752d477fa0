// Message-passing endpoint over the switch fabric, plus the world
// builder that wires N ranks through a fat-tree or Clos.
//
// FabricLib implements the common Library interface on top of
// hw::fabric::HostPort: sends fragment messages into MTU-sized frames
// (one arena descriptor per fragment, so frames crossing shard
// boundaries never share refcounted state), receives reassemble by
// (src, msg_seq) and match posted receives by (src, tag) with an
// unexpected queue, exactly like the two-node libraries; a message
// longer than its receive raises std::length_error. A configurable
// delivery watchdog turns a receive starved by lossy links into
// sim::ProtocolFailure — collectives over a faulty fabric complete or
// fail by decision, never hang.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "mp/api.h"
#include "mp/collectives.h"
#include "simcore/shard.h"
#include "simcore/sync.h"
#include "simhw/cluster.h"
#include "simhw/fabric/fabric.h"

namespace pp::mp {

struct FabricLibConfig {
  std::string name = "fabric";
  /// A posted receive still unmatched after this much simulated time
  /// throws sim::ProtocolFailure (fail-by-decision on lossy fabrics).
  /// 0 disables the watchdog.
  sim::SimTime delivery_timeout = 0;
  /// false: one ECMP flow per (src,dst) pair — fragments stay FIFO on a
  /// single path. true: each message hashes to its own flow (spreads
  /// load; reassembly still counts fragments).
  bool flow_per_message = false;
};

class FabricLib : public Library {
 public:
  FabricLib(hw::fabric::Fabric& fab, int rank, FabricLibConfig cfg = {});
  ~FabricLib() override;

  sim::Task<void> send(int dst, std::uint64_t bytes,
                       std::uint32_t tag) override;
  sim::Task<void> recv(int src, std::uint64_t bytes,
                       std::uint32_t tag) override;

  hw::Node& node() override { return port_.node(); }
  int rank() const override { return rank_; }
  std::string name() const override { return cfg_.name; }
  netpipe::ProtocolCounters protocol_counters() const override;

 private:
  /// Arena payload of every fabric fragment.
  struct FragDesc {
    std::uint32_t msg_seq = 0;
    std::uint32_t frag_count = 0;
    std::uint32_t frag_idx = 0;
    std::uint32_t tag = 0;
    std::uint64_t msg_bytes = 0;
    audit::MsgTag audit;
  };
  static_assert(sizeof(FragDesc) <= sim::PacketArena::kPayloadBytes);

  using Key = std::pair<int, std::uint32_t>;  // (peer rank, tag)

  struct ArrivedMsg {
    std::uint64_t bytes = 0;
    audit::MsgTag audit;
  };

  struct PostedRecv {
    std::uint64_t id = 0;
    sim::Trigger done;
    bool failed = false;
    ArrivedMsg msg;
    explicit PostedRecv(sim::Simulator& s) : done(s) {}
  };

  struct Partial {
    std::uint32_t got = 0;
    std::uint32_t want = 0;
    std::uint32_t tag = 0;
    std::uint64_t bytes = 0;
    audit::MsgTag audit;
  };

  sim::Task<void> rx_pump();
  void complete_msg(int src, std::uint32_t tag, ArrivedMsg m);
  void arm_watchdog(std::uint64_t recv_id);

  hw::fabric::Fabric& fab_;
  hw::fabric::HostPort& port_;
  sim::Simulator& sim_;
  int rank_;
  FabricLibConfig cfg_;

  std::map<Key, std::deque<ArrivedMsg>> unexpected_;
  std::map<Key, std::deque<PostedRecv*>> posted_;
  std::map<Key, Partial> partials_;  // keyed by (src, msg_seq)
  std::map<std::uint64_t, Key> watched_;  // recv id -> posted key
  std::vector<std::uint32_t> next_msg_seq_;  // per destination rank
  std::vector<std::uint32_t> audit_out_;     // stream handle per dst; 0=off
  std::uint64_t next_recv_id_ = 1;

  std::uint64_t msgs_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t frags_sent_ = 0;
  std::uint64_t frags_received_ = 0;
  std::uint64_t watchdog_failures_ = 0;
};

/// N ranks on one fabric: shard group, cluster (nodes block-partitioned
/// across shards), the switch topology, and one FabricLib per rank.
struct FabricWorldOptions {
  int shards = 0;  ///< 0 = ambient (PP_SHARDS / ScopedShards), min 1
  hw::HostConfig host;
  hw::fabric::FabricConfig fabric;
  FabricLibConfig lib;
  /// Fat-tree radix; 0 picks the smallest even radix that fits.
  int radix = 0;
  /// Build a two-level leaf-spine Clos instead of the fat-tree.
  bool clos = false;
  /// Delivery oracle installed on every shard before the libraries are
  /// built, so their per-peer streams register at construction.
  audit::Auditor* auditor = nullptr;
};

class FabricWorld {
 public:
  explicit FabricWorld(int ranks, FabricWorldOptions opt = {});
  ~FabricWorld();

  int size() const { return static_cast<int>(libs_.size()); }
  sim::ShardGroup& group() { return *group_; }
  hw::Cluster& cluster() { return *cluster_; }
  hw::fabric::Fabric& fabric() { return *fabric_; }
  FabricLib& lib(int rank) { return *libs_.at(static_cast<std::size_t>(rank)); }
  sim::Simulator& simulator(int rank) {
    return lib(rank).node().simulator();
  }
  Comm comm(int rank) {
    return Comm{&lib(rank), rank, size()};
  }

  /// Spawns a rank's task on that rank's own shard.
  void spawn(int rank, sim::Task<void> task, std::string name) {
    simulator(rank).spawn(std::move(task), std::move(name));
  }

  /// Runs every shard to completion (serial when shards == 1).
  void run() { group_->run(); }

 private:
  std::unique_ptr<sim::ShardGroup> group_;
  std::unique_ptr<hw::Cluster> cluster_;
  std::unique_ptr<hw::fabric::Fabric> fabric_;
  std::vector<std::unique_ptr<FabricLib>> libs_;
};

}  // namespace pp::mp
