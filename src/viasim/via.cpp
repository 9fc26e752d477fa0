#include "viasim/via.h"

namespace pp::via {

ViaPersonality ViaPersonality::giganet() {
  ViaPersonality p;
  p.name = "Giganet cLAN";
  p.doorbell_cost = sim::microseconds(0.8);
  p.completion_cost = sim::microseconds(0.8);
  p.per_frag_host_cost = 0;
  return p;
}

ViaPersonality ViaPersonality::mvia_sk98lin() {
  ViaPersonality p;
  p.name = "M-VIA/sk98lin";
  // Doorbells are kernel traps and every packet runs through the M-VIA
  // software dispatch path on the host CPU.
  p.doorbell_cost = sim::microseconds(4.0);
  p.completion_cost = sim::microseconds(3.0);
  p.per_frag_host_cost = sim::microseconds(12.0);
  p.default_credits = 8;
  return p;
}

namespace {

bypass::Personality personality(const ViaConfig& c) {
  bypass::Personality p;
  p.post_send_cost = c.personality.doorbell_cost;
  p.post_recv_cost = c.personality.doorbell_cost;
  p.completion_cost = c.personality.completion_cost;
  p.per_frag_host_cost = c.personality.per_frag_host_cost;
  p.credits = c.credits > 0 ? c.credits : c.personality.default_credits;
  p.rdma_threshold = c.rdma_threshold;
  return p;
}

}  // namespace

ViaFabric::ViaFabric(hw::Cluster& cluster, hw::Node& a, hw::Node& b,
                     const hw::NicConfig& nic, const hw::LinkConfig& link,
                     ViaConfig config)
    : link_(cluster, a, b, nic, link, config, personality(config),
            personality(config), "via") {}

}  // namespace pp::via
