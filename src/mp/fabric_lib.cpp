#include "mp/fabric_lib.h"

#include <algorithm>
#include <stdexcept>

namespace pp::mp {

// ------------------------------------------------------------ FabricLib

FabricLib::FabricLib(hw::fabric::Fabric& fab, int rank, FabricLibConfig cfg)
    : fab_(fab),
      port_(fab.port(rank)),
      sim_(port_.node().simulator()),
      rank_(rank),
      cfg_(std::move(cfg)),
      next_msg_seq_(static_cast<std::size_t>(fab.hosts()), 0),
      audit_out_(static_cast<std::size_t>(fab.hosts()), 0) {
  if (audit::Auditor* aud = sim_.auditor()) {
    for (int d = 0; d < fab_.hosts(); ++d) {
      if (d == rank_) continue;
      audit_out_[static_cast<std::size_t>(d)] =
          aud->register_stream(cfg_.name + "#" + std::to_string(rank_) + ">" +
                               std::to_string(d));
    }
  }
  sim_.spawn_daemon(rx_pump(),
                    cfg_.name + "#" + std::to_string(rank_) + ".rx");
}

FabricLib::~FabricLib() = default;

sim::Task<void> FabricLib::send(int dst, std::uint64_t bytes,
                                std::uint32_t tag) {
  if (dst < 0 || dst >= fab_.hosts() || dst == rank_) {
    throw std::invalid_argument("FabricLib::send: bad destination rank");
  }
  audit::MsgTag atag;
  if (audit::Auditor* aud = sim_.auditor()) {
    atag = aud->on_inject(audit_out_[static_cast<std::size_t>(dst)], bytes);
  }
  const std::uint32_t mtu = fab_.config().mtu;
  const std::uint32_t seq = next_msg_seq_[static_cast<std::size_t>(dst)]++;
  const std::uint64_t frags =
      bytes == 0 ? 1 : (bytes + mtu - 1) / mtu;
  const std::uint16_t flow =
      cfg_.flow_per_message ? static_cast<std::uint16_t>(seq + 1) : 0;
  ++msgs_sent_;
  bytes_sent_ += bytes;
  // All fragments are handed to the NIC at once; the access link's
  // output port serializes them, and the local send completes when the
  // last fragment's tail is on the wire (like a blocking send draining
  // a kernel buffer at wire rate). Fragments dropped at the uplink are
  // simply lost — the receiver's watchdog decides the failure.
  sim::SimTime last = sim_.now();
  std::uint64_t left = bytes;
  for (std::uint64_t i = 0; i < frags; ++i) {
    const std::uint64_t chunk = std::min<std::uint64_t>(left, mtu);
    left -= chunk;
    hw::Packet p;
    p.wire_bytes = chunk;
    p.dma_bytes = chunk;
    p.desc = sim_.packet_arena().make<FragDesc>(
        FragDesc{seq, static_cast<std::uint32_t>(frags),
                 static_cast<std::uint32_t>(i), tag, bytes, atag});
    ++frags_sent_;
    const sim::SimTime dep = port_.inject(dst, std::move(p), flow);
    if (dep > last) last = dep;
  }
  co_await sim_.delay_until(last);
}

sim::Task<void> FabricLib::recv(int src, std::uint64_t bytes,
                                std::uint32_t tag) {
  if (src < 0 || src >= fab_.hosts() || src == rank_) {
    throw std::invalid_argument("FabricLib::recv: bad source rank");
  }
  const Key k{src, tag};
  ArrivedMsg m;
  auto it = unexpected_.find(k);
  if (it != unexpected_.end() && !it->second.empty()) {
    m = it->second.front();
    it->second.pop_front();
    if (it->second.empty()) unexpected_.erase(it);
  } else {
    PostedRecv pr(sim_);
    pr.id = next_recv_id_++;
    posted_[k].push_back(&pr);
    if (cfg_.delivery_timeout > 0) {
      watched_[pr.id] = k;
      arm_watchdog(pr.id);
    }
    co_await pr.done.wait();
    if (pr.failed) {
      throw sim::ProtocolFailure(
          cfg_.name + "#" + std::to_string(rank_) + ": recv from rank " +
          std::to_string(src) + " tag " + std::to_string(tag) +
          " starved past the delivery timeout");
    }
    m = pr.msg;
  }
  if (audit::Auditor* aud = sim_.auditor();
      aud != nullptr && m.audit.stream != 0) {
    aud->on_deliver(m.audit, m.bytes);
  }
  // Matching is by (src, tag); the size travels with the frames and may
  // be shorter than the posted receive, never longer.
  if (m.bytes > bytes) {
    throw std::length_error(
        cfg_.name + "#" + std::to_string(rank_) + ": " +
        std::to_string(m.bytes) + "-byte message from rank " +
        std::to_string(src) + " tag " + std::to_string(tag) +
        " truncated by a " + std::to_string(bytes) + "-byte receive");
  }
}

sim::Task<void> FabricLib::rx_pump() {
  for (;;) {
    hw::fabric::FabricFrame f = co_await port_.delivered().pop();
    ++frags_received_;
    const FragDesc d = *f.pkt.desc.get<FragDesc>();
    // The descriptor lives in the *sender's* arena; release it before
    // any suspension (the arena hands remote frees to the owner).
    f.pkt.desc.reset();
    const sim::SimTime rx_cost = fab_.config().host_rx_cost;
    if (rx_cost > 0) co_await port_.node().cpu_cost(rx_cost);
    const Key pk{static_cast<int>(f.src), d.msg_seq};
    Partial& p = partials_[pk];
    if (p.got == 0) {
      p.want = d.frag_count;
      p.tag = d.tag;
      p.bytes = d.msg_bytes;
      p.audit = d.audit;
    }
    ++p.got;
    if (p.got >= p.want) {
      ArrivedMsg m{p.bytes, p.audit};
      const std::uint32_t tag = p.tag;
      partials_.erase(pk);
      complete_msg(static_cast<int>(f.src), tag, m);
    }
  }
}

void FabricLib::complete_msg(int src, std::uint32_t tag, ArrivedMsg m) {
  const Key k{src, tag};
  auto it = posted_.find(k);
  if (it != posted_.end() && !it->second.empty()) {
    PostedRecv* pr = it->second.front();
    it->second.pop_front();
    if (it->second.empty()) posted_.erase(it);
    watched_.erase(pr->id);
    pr->msg = m;
    pr->done.set();
    return;
  }
  unexpected_[k].push_back(m);
}

void FabricLib::arm_watchdog(std::uint64_t recv_id) {
  sim_.call_after(cfg_.delivery_timeout, [this, recv_id] {
    auto w = watched_.find(recv_id);
    if (w == watched_.end()) return;  // matched in time
    const Key k = w->second;
    watched_.erase(w);
    auto it = posted_.find(k);
    if (it == posted_.end()) return;
    auto& queue = it->second;
    for (auto i = queue.begin(); i != queue.end(); ++i) {
      if ((*i)->id != recv_id) continue;
      PostedRecv* pr = *i;
      queue.erase(i);
      if (queue.empty()) posted_.erase(it);
      ++watchdog_failures_;
      pr->failed = true;
      pr->done.set();
      return;
    }
  });
}

netpipe::ProtocolCounters FabricLib::protocol_counters() const {
  netpipe::ProtocolCounters c;
  c.data_segments = frags_sent_;
  c.staged_bytes = bytes_sent_;
  c.relay_fragments = frags_received_;
  c.delivery_failures = watchdog_failures_;
  return c;
}

// ---------------------------------------------------------- FabricWorld

FabricWorld::FabricWorld(int ranks, FabricWorldOptions opt) {
  if (ranks < 2) {
    throw std::invalid_argument("FabricWorld: need at least 2 ranks");
  }
  int shards = opt.shards > 0 ? opt.shards : sim::ambient_shards();
  if (shards < 1) shards = 1;
  if (shards > ranks) shards = ranks;
  group_ = std::make_unique<sim::ShardGroup>(shards);
  if (opt.auditor != nullptr) {
    for (int s = 0; s < shards; ++s) {
      group_->shard(s).set_auditor(opt.auditor);
    }
  }
  cluster_ =
      std::make_unique<hw::Cluster>(group_->shard(0), opt.fabric.seed);
  // Contiguous block partition, same as RelayRing: rank r lives on
  // shard r*shards/ranks.
  for (int r = 0; r < ranks; ++r) {
    const int shard = static_cast<int>(
        static_cast<std::int64_t>(r) * shards / ranks);
    cluster_->add_node(opt.host, group_->shard(shard));
  }
  if (opt.clos) {
    fabric_ = std::make_unique<hw::fabric::Fabric>(
        *cluster_, opt.fabric, hw::fabric::ClosShape::fit(ranks));
  } else {
    const hw::fabric::FatTreeShape shape =
        opt.radix > 0 ? hw::fabric::FatTreeShape{opt.radix}
                      : hw::fabric::FatTreeShape::fit(ranks);
    fabric_ = std::make_unique<hw::fabric::Fabric>(*cluster_, opt.fabric,
                                                   shape);
  }
  libs_.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    libs_.push_back(std::make_unique<FabricLib>(*fabric_, r, opt.lib));
  }
}

FabricWorld::~FabricWorld() = default;

}  // namespace pp::mp
