#include "gmsim/gm.h"

namespace pp::gm {

namespace {

bypass::Personality personality(const GmConfig& c, const hw::Node& node) {
  bypass::Personality p;
  p.credits = c.send_tokens;
  p.post_send_cost = c.api_send_cost;
  p.post_recv_cost = c.api_recv_cost;
  if (c.recv_mode == RecvMode::kBlocking) {
    // Sleep until the completion interrupt, then pay the host wakeup.
    p.completion_sleep = c.blocking_wakeup;
    p.completion_cost = node.config().wakeup_cost;
  } else {
    // Hybrid delivers polling-grade latency without pinning the CPU
    // ("provides the same results as the Polling mode but should not
    // burden the CPU as much").
    p.completion_cost = c.polling_detect;
  }
  return p;
}

}  // namespace

GmFabric::GmFabric(hw::Cluster& cluster, hw::Node& a, hw::Node& b,
                   const hw::NicConfig& nic, const hw::LinkConfig& link,
                   GmConfig config)
    : link_(cluster, a, b, nic, link, config, personality(config, a),
            personality(config, b), "gm") {}

}  // namespace pp::gm
