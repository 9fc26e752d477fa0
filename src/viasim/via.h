// VIA: the Virtual Interface Architecture (paper §6).
//
// Two personalities of the same API:
//  - hardware VIA (Giganet cLAN): descriptors posted by user-level
//    doorbell writes; the NIC moves data with zero host involvement —
//    ~10 us latency, ~800 Mbps in the paper;
//  - software VIA (M-VIA on the SysKonnect sk98lin driver): the same
//    verbs, but doorbells are kernel traps and every packet costs host
//    CPU in the M-VIA dispatch path — which is why the paper measures
//    only raw-TCP-grade throughput (~425 Mbps, 42 us).
//
// Transfers at or below the RDMA threshold use send/recv descriptors;
// larger ones do an RDMA write after an address-exchange handshake — the
// "small dip at 16 kB ... at the RDMA threshold" in Figure 5.
//
// The descriptors, matching, handshake, delivery watchdog and crash
// handling are the shared OS-bypass core (bypass/endpoint.h); VIA
// contributes its doorbell, completion and per-fragment host costs, its
// credits and its RDMA threshold.
#pragma once

#include <string>

#include "bypass/endpoint.h"

namespace pp::via {

struct ViaPersonality {
  std::string name;
  /// Posting a descriptor: a user-level doorbell write (hardware VIA) or
  /// a kernel trap (M-VIA).
  sim::SimTime doorbell_cost = sim::microseconds(0.8);
  /// Reaping a completion from the CQ.
  sim::SimTime completion_cost = sim::microseconds(0.8);
  /// Host CPU charged per fragment (0 for hardware VIA; the M-VIA
  /// software dispatch path for the rest).
  sim::SimTime per_frag_host_cost = 0;
  /// Default descriptor credits for this implementation (M-VIA's beta
  /// posts far fewer descriptors than the Giganet firmware).
  int default_credits = 16;

  static ViaPersonality giganet();
  static ViaPersonality mvia_sk98lin();
};

/// VIA settings; the delivery watchdog and epoch-fence settings come from
/// bypass::EndpointConfig.
struct ViaConfig : bypass::EndpointConfig {
  ViaPersonality personality = ViaPersonality::giganet();
  /// Send/recv descriptors above this size switch to RDMA write.
  std::uint64_t rdma_threshold = 16 * 1024;
  /// Descriptor credits (fragments in flight); 0 = personality default.
  int credits = 0;
};

/// One VI endpoint; create a connected pair with ViaFabric.
using ViEndpoint = bypass::Endpoint;

/// Builds a VIA link between two nodes and a connected endpoint pair
/// ("via.a", "via.b").
class ViaFabric {
 public:
  ViaFabric(hw::Cluster& cluster, hw::Node& a, hw::Node& b,
            const hw::NicConfig& nic, const hw::LinkConfig& link,
            ViaConfig config = {});

  ViEndpoint& end_a() { return link_.a(); }
  ViEndpoint& end_b() { return link_.b(); }

 private:
  bypass::Link link_;
};

}  // namespace pp::via
