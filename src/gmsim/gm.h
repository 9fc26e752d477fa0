// GM: Myricom's OS-bypass message layer for Myrinet (paper §5).
//
// Modelled mechanisms:
//  - user-level send/receive: no kernel protocol cost, no syscalls; the
//    LANai NIC processor does the per-packet work;
//  - message fragmentation into large fabric packets with link-level
//    backpressure (send tokens);
//  - receive modes: Polling (16 us latency in the paper), Blocking
//    (36 us: sleep + interrupt + wakeup), Hybrid (polling results at
//    polling cost without burning the CPU — "should be used in general");
//  - messages land in pre-posted receive buffers; unmatched arrivals are
//    staged and cost a copy when finally matched.
//
// The fragmentation, matching, delivery watchdog and crash handling are
// the shared OS-bypass core (bypass/endpoint.h); GM contributes its API
// costs, token count and receive mode. It never uses the core's RDMA
// handshake.
#pragma once

#include "bypass/endpoint.h"

namespace pp::gm {

enum class RecvMode { kPolling, kBlocking, kHybrid };

/// GM settings; the delivery watchdog and epoch-fence settings come from
/// bypass::EndpointConfig.
struct GmConfig : bypass::EndpointConfig {
  RecvMode recv_mode = RecvMode::kPolling;
  /// Send tokens: fragments allowed in flight before backpressure.
  int send_tokens = 16;
  /// gm_send()/gm_provide_receive_buffer() + completion-queue handling.
  sim::SimTime api_send_cost = sim::microseconds(6.5);
  sim::SimTime api_recv_cost = sim::microseconds(6.5);
  /// Extra completion-detection time per message by receive mode.
  sim::SimTime polling_detect = sim::microseconds(2.0);
  sim::SimTime blocking_wakeup = sim::microseconds(20.0);
};

/// One GM port (endpoint). Create a connected pair with GmFabric.
using GmPort = bypass::Endpoint;

/// Builds a Myrinet link between two nodes and a connected GM port pair
/// ("gm.a", "gm.b").
class GmFabric {
 public:
  GmFabric(hw::Cluster& cluster, hw::Node& a, hw::Node& b,
           const hw::NicConfig& nic, const hw::LinkConfig& link,
           GmConfig config = {});

  GmPort& port_a() { return link_.a(); }
  GmPort& port_b() { return link_.b(); }

 private:
  bypass::Link link_;
};

}  // namespace pp::gm
