#include "bypass/endpoint.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "simcore/tracing.h"

namespace pp::bypass {

namespace {
/// Packet header bytes per fragment on the wire (GM and VIA alike).
constexpr std::uint32_t kFragHeader = 8;
/// Bytes of an RDMA address-exchange control message.
constexpr std::uint64_t kCtlBytes = 64;
}  // namespace

Endpoint::Endpoint(sim::Simulator& sim, hw::Node& node, hw::PacketPipe& out,
                   hw::PacketPipe& in, const EndpointConfig& config,
                   const Personality& personality, std::string name)
    : sim_(sim),
      node_(node),
      out_(out),
      in_(in),
      config_(config),
      personality_(personality),
      name_(std::move(name)),
      credits_(sim, static_cast<std::uint64_t>(personality.credits)),
      arrivals_(sim),
      epoch_(node.power_epoch()) {
  // Delivery-oracle stream: one directed channel per sending endpoint.
  // The auditor must be attached before the fabric is built (see
  // Simulator::set_auditor); untagged messages stay stream 0.
  if (audit::Auditor* aud = sim_.auditor()) {
    audit_stream_ = aud->register_stream(name_);
  }
  sim_.spawn_daemon(rx_daemon(), name_ + ".rx");
  // Crash/restart hooks; a run that never crashes only pays the push.
  node_.add_power_listener([this](hw::PowerEvent e) {
    if (e == hw::PowerEvent::kCrash) {
      on_node_crash();
    } else {
      on_node_restart();
    }
  });
}

void Endpoint::on_node_crash() {
  // NIC and bounce-buffer state dies with the host: partial reassembly,
  // staged arrivals, queued RDMA requests and the lost-ack replay set are
  // gone. Senders whose messages/requests were parked here must resume
  // replaying them. posted_ survives: the library re-registers its
  // pre-posted receives at restart (counted below). Our own send-side
  // pending logs and credits survive too — every in-flight fragment
  // returns its credit through the pipe drop hooks.
  trace_instant("endpoint-crash");
  for (const UnexpectedMsg& u : unexpected_) {
    if (peer_) peer_->on_unstaged({Kind::kData, u.msg_seq});
  }
  unexpected_.clear();
  for (const std::uint32_t tag : rdma_reqs_) {
    if (peer_) peer_->on_unstaged({Kind::kRdmaReq, tag});
  }
  rdma_reqs_.clear();
  rdma_acked_.clear();
  partial_.clear();
}

void Endpoint::on_node_restart() {
  // Re-register under the node's new power epoch: fragments stamped with
  // the old epoch are rejected on arrival from now on.
  epoch_ = node_.power_epoch();
  reposts_ += posted_.size();
  trace_instant("endpoint-restart");
}

void Endpoint::on_staged(Key key) {
  auto it = pending_.find(key);
  if (it != pending_.end()) it->second.staged = true;
}

void Endpoint::on_unstaged(Key key) {
  auto it = pending_.find(key);
  if (it == pending_.end() || !it->second.staged) return;
  it->second.staged = false;
  it->second.timeout = config_.delivery_timeout;  // fresh situation
  arm_watchdog(key);
}

void Endpoint::fail_pair(const char* reason) {
  Endpoint* const ends[2] = {this, peer_};
  for (Endpoint* e : ends) {
    if (e == nullptr || e->failed_) continue;
    e->failed_ = true;
    e->fail_reason_ = e->name_ + ": " + reason;
    e->trace_instant("endpoint-failed");
    // Wake everything parked on this endpoint: senders blocked on
    // credits get a poisoned grant, posted receives and RDMA ack waiters
    // fire their triggers, request waiters are notified. All re-check
    // failed_ and raise DeliveryFailed.
    e->credits_.release(1ull << 32);
    for (PostedRecv* pr : e->posted_) pr->done.set();
    e->posted_.clear();
    for (sim::Trigger* t : e->rdma_ack_waiters_) t->set();
    e->rdma_ack_waiters_.clear();
    e->arrivals_.notify_all();
  }
}

void Endpoint::trace_instant(const char* what) {
  if (sim::TraceRecorder* t = sim_.tracer()) {
    t->record_instant(name_, what, sim_.now());
  }
}

sim::Task<void> Endpoint::send(std::uint64_t bytes, std::uint32_t tag) {
  if (failed_) throw DeliveryFailed(fail_reason_);
  if (personality_.post_send_cost > 0) {
    co_await node_.cpu_cost(personality_.post_send_cost);
  }
  trace_instant("doorbell");
  if (bytes > personality_.rdma_threshold) {
    // RDMA write: exchange the target address, then place the data.
    rdma_transfers_ += 1;
    trace_instant("rdma-req");
    sim::Trigger ack(sim_);
    rdma_ack_waiters_.push_back(&ack);
    track({Kind::kRdmaReq, tag}, kCtlBytes, tag, {});
    co_await transmit(Kind::kRdmaReq, tag, tag, kCtlBytes, 0);
    arm_watchdog({Kind::kRdmaReq, tag});
    co_await ack.wait();
    if (failed_) throw DeliveryFailed(fail_reason_);
    if (personality_.post_send_cost > 0) {
      co_await node_.cpu_cost(personality_.post_send_cost);
    }
    trace_instant("doorbell");
  }
  const std::uint64_t seq = next_msg_seq_++;
  audit::MsgTag atag;
  if (audit::Auditor* aud = sim_.auditor()) {
    atag = aud->on_inject(audit_stream_, bytes);
  }
  track({Kind::kData, seq}, bytes, tag, atag);
  co_await transmit(Kind::kData, tag, seq, bytes, 0, atag);
  if (failed_) throw DeliveryFailed(fail_reason_);
  arm_watchdog({Kind::kData, seq});
}

sim::Task<void> Endpoint::transmit(Kind kind, std::uint32_t tag,
                                   std::uint64_t msg_seq, std::uint64_t bytes,
                                   std::uint32_t attempt,
                                   const audit::MsgTag& atag) {
  const std::uint32_t mtu = out_.nic().mtu;
  // One arena descriptor per message attempt, shared by every fragment
  // (a refcounted view, not a clone): the per-fragment byte count is
  // recomputed on the receive side from the frame's own dma_bytes.
  sim::PacketRef desc = sim_.packet_arena().make<Frag>();
  Frag* f = desc.get<Frag>();
  f->dst = peer_;
  f->kind = kind;
  f->tag = tag;
  f->msg_seq = msg_seq;
  f->msg_bytes = bytes;
  f->attempt = attempt;
  f->dst_epoch = peer_ != nullptr ? peer_->epoch_ : 0;
  f->audit_stream = atag.stream;
  f->audit_seq = atag.seq;
  f->audit_check = atag.check;
  // If fault injection discards a fragment anywhere in the pipe, the
  // credit it holds must come home or the endpoint slowly strangles
  // itself (and, with every credit lost, deadlocks). The hook lives once
  // in the shared descriptor and fires once per dropped fragment.
  std::weak_ptr<char> guard = alive_;
  desc.set_drop([this, guard] {
    if (guard.expired()) return;
    credits_.release(1);
    ++frags_lost_;
    trace_instant("frag-drop");
  });
  std::uint64_t left = bytes;
  bool first = true;
  while (first || left > 0) {
    first = false;
    const std::uint64_t frag = std::min<std::uint64_t>(left, mtu);
    left -= frag;
    co_await credits_.acquire(1);
    if (failed_) co_return;  // poisoned grant from fail_pair()
    if (personality_.per_frag_host_cost > 0) {
      co_await node_.cpu_cost(personality_.per_frag_host_cost);
    }
    hw::Packet p;
    p.dma_bytes = frag + kFragHeader;
    p.wire_bytes = frag + kFragHeader + out_.nic().frame_overhead;
    p.desc = desc;
    p.fire_drop = true;  // every fragment holds one credit
    out_.inject(std::move(p));
  }
}

void Endpoint::track(Key key, std::uint64_t bytes, std::uint32_t tag,
                     const audit::MsgTag& atag) {
  if (config_.delivery_timeout <= 0) return;
  // Each new message starts from the BASE timeout: watchdog backoff is
  // per-message state, never inherited from an earlier message's bad
  // luck.
  pending_[key] = Pending{bytes, tag, 0, config_.delivery_timeout, false, atag};
}

sim::Task<void> Endpoint::retry(Key key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) co_return;  // delivered while we were queued
  const Pending p = it->second;
  co_await transmit(key.first, p.tag, key.second, p.bytes, p.attempt, p.audit);
  arm_watchdog(key);
}

void Endpoint::arm_watchdog(Key key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;  // delivered (or watchdog disabled)
  const std::uint32_t attempt = it->second.attempt;
  std::weak_ptr<char> guard = alive_;
  sim_.call_after(it->second.timeout, [this, guard, key, attempt] {
    if (guard.expired() || failed_) return;
    auto pit = pending_.find(key);
    if (pit == pending_.end() || pit->second.attempt != attempt) return;
    Pending& p = pit->second;
    // Parked in the peer's queue: a slow consumer is not a delivery
    // failure. Stand down; a receiver crash re-arms us.
    if (p.staged) return;
    const bool data = key.first == Kind::kData;
    if (config_.max_delivery_attempts > 0 &&
        p.attempt + 1 >= config_.max_delivery_attempts) {
      fail_pair(data ? "delivery-attempts-exhausted"
                     : "rdma-req-attempts-exhausted");
      return;
    }
    // No completion within the timeout: the whole message (or request)
    // goes again as a new attempt, with the interval backed off up to
    // the cap.
    ++delivery_failures_;
    trace_instant(data ? "delivery-retry" : "req-retry");
    p.attempt += 1;
    p.timeout = std::min(p.timeout * 2, config_.delivery_timeout_max);
    sim_.spawn(retry(key), name_ + ".retry");
  });
}

void Endpoint::prune_partials() {
  // Completed markers are kept so late duplicate fragments of a delivered
  // message cannot re-complete it; bound their number so long streaming
  // runs do not accumulate one entry per message forever.
  if (partial_.size() <= 4096) return;
  for (auto it = partial_.begin();
       it != partial_.end() && partial_.size() > 2048;) {
    if (it->second.done) {
      it = partial_.erase(it);
    } else {
      ++it;
    }
  }
}

void Endpoint::complete_message(std::uint32_t tag, std::uint64_t msg_seq,
                                std::uint64_t bytes,
                                const audit::MsgTag& atag) {
  ++messages_received_;
  auto it = std::find_if(posted_.begin(), posted_.end(),
                         [&](PostedRecv* p) { return p->tag == tag; });
  if (it != posted_.end()) {
    PostedRecv* pr = *it;
    posted_.erase(it);
    pr->bytes = bytes;  // landed in the pre-posted buffer: zero-copy
    trace_instant("complete");
    // Consumption point (pre-posted buffer): the oracle verifies
    // intact/exactly-once/FIFO here. A completion into a posted buffer
    // on an already-failed pair is a teardown violation.
    if (audit::Auditor* aud = sim_.auditor()) {
      aud->on_deliver(atag, bytes, /*after_teardown=*/failed_);
    }
    if (peer_) peer_->on_delivered({Kind::kData, msg_seq});
    pr->done.set();
  } else {
    trace_instant("unexpected");
    unexpected_.push_back(UnexpectedMsg{tag, msg_seq, bytes, atag});
    // Staged, not consumed: the sender's watchdog stands down but keeps
    // the message replayable should this node crash before recv(). The
    // oracle deliberately does NOT count staging as delivery — a crash
    // may wipe this queue and the replay is correct, not a duplicate.
    if (peer_) peer_->on_staged({Kind::kData, msg_seq});
    arrivals_.notify_all();
  }
}

void Endpoint::accept_data(const Frag& frag, const hw::Packet& p) {
  PartialMsg& pm = partial_[frag.msg_seq];
  if (pm.done || frag.attempt < pm.attempt) return;  // stale duplicate
  if (frag.attempt > pm.attempt) {
    // A retry superseded a partially-arrived attempt; start over.
    pm.attempt = frag.attempt;
    pm.sofar = 0;
  }
  // Fencing/CRC oracle: this fragment is being ACCEPTED into a partial
  // message. With the rejection ladder intact neither condition can
  // hold; an epoch-fence or checksum bug upstream trips it.
  if (audit::Auditor* aud = sim_.auditor()) {
    aud->on_accept_fragment(frag.audit_tag(), frag.dst_epoch, epoch_,
                            p.corrupted);
  }
  pm.sofar += p.dma_bytes - kFragHeader;
  if (pm.sofar != frag.msg_bytes) return;
  if (config_.delivery_timeout > 0) {
    pm.done = true;
    prune_partials();
  } else {
    partial_.erase(frag.msg_seq);
  }
  rdma_acked_.erase(frag.tag);
  complete_message(frag.tag, frag.msg_seq, frag.msg_bytes, frag.audit_tag());
}

void Endpoint::on_rdma_req(std::uint32_t tag) {
  if (std::find(rdma_reqs_.begin(), rdma_reqs_.end(), tag) !=
      rdma_reqs_.end()) {
    // Retransmitted request whose original is still queued.
    trace_instant("dup-req");
    return;
  }
  if (rdma_acked_.count(tag) > 0) {
    // We already answered this request but the ack was lost; answer
    // again without re-posting the receive.
    trace_instant("ack-resend");
    sim_.spawn(transmit(Kind::kRdmaAck, tag, 0, kCtlBytes, 0),
               name_ + ".ack");
    return;
  }
  if (node_.crash_count() > 0 &&
      std::find_if(posted_.begin(), posted_.end(), [&](PostedRecv* pr) {
        return pr->tag == tag;
      }) != posted_.end()) {
    // A crash wiped the lost-ack replay set, but the posted receive
    // proves this handshake already advanced past the request on our
    // side: our ack (or its memory) died with the node. Re-ack.
    trace_instant("ack-resend");
    rdma_acked_.insert(tag);
    sim_.spawn(transmit(Kind::kRdmaAck, tag, 0, kCtlBytes, 0),
               name_ + ".ack");
    return;
  }
  rdma_reqs_.push_back(tag);
  // Parked until recv() consumes it; the sender's request watchdog
  // stands down meanwhile (re-armed on consumption or our crash).
  if (peer_) peer_->on_staged({Kind::kRdmaReq, tag});
  arrivals_.notify_all();
}

void Endpoint::on_rdma_ack(std::uint32_t tag) {
  if (config_.delivery_timeout > 0 &&
      pending_.erase({Kind::kRdmaReq, tag}) == 0) {
    // Duplicate ack for a request already answered; the FIFO waiter (if
    // any) belongs to a different handshake.
    trace_instant("stale-ack");
    return;
  }
  if (rdma_ack_waiters_.empty()) {
    trace_instant("stale-ack");
    return;
  }
  sim::Trigger* t = rdma_ack_waiters_.front();
  rdma_ack_waiters_.pop_front();
  t->set();
}

sim::Task<void> Endpoint::rx_daemon() {
  for (;;) {
    hw::Packet p = co_await in_.delivered().pop();
    assert(p.desc && "foreign packet on an OS-bypass pipe");
    const Frag* frag = p.desc.get<Frag>();
    assert(frag->dst == this && "foreign packet on an OS-bypass pipe");
    if (p.injected_dup) {
      // NIC-level dedup: an injected duplicate never held a credit and
      // must not touch protocol state.
      trace_instant("dup-filtered");
      continue;
    }
    // The fragment has been deposited; return the sender's credit.
    peer_->credits_.release(1);
    if (frag->dst_epoch != epoch_ && !config_.unsafe_skip_epoch_fence) {
      // Addressed to a previous power epoch of this endpoint: the state
      // it belonged to died with the node. The credit already went home;
      // the sender's watchdog replays under the current epoch.
      ++stale_epoch_drops_;
      trace_instant("stale-epoch");
      continue;
    }
    if (p.corrupted) {
      // CRC failure after the DMA: the fragment is discarded; the message
      // completes via the sender's delivery watchdog.
      trace_instant("crc-drop");
      continue;
    }
    if (personality_.per_frag_host_cost > 0) {
      co_await node_.cpu_cost(personality_.per_frag_host_cost);
    }
    switch (frag->kind) {
      case Kind::kData:
        accept_data(*frag, p);
        break;
      case Kind::kRdmaReq:
        on_rdma_req(frag->tag);
        break;
      case Kind::kRdmaAck:
        on_rdma_ack(frag->tag);
        break;
    }
  }
}

sim::Task<void> Endpoint::recv(std::uint64_t bytes, std::uint32_t tag) {
  if (failed_) throw DeliveryFailed(fail_reason_);
  if (personality_.post_recv_cost > 0) {
    co_await node_.cpu_cost(personality_.post_recv_cost);
  }
  const bool rdma = bytes > personality_.rdma_threshold;
  if (rdma) {
    // Wait for the address request; it is answered once the receive is
    // posted below, and the data then lands directly in it.
    while (true) {
      auto rit = std::find(rdma_reqs_.begin(), rdma_reqs_.end(), tag);
      if (rit != rdma_reqs_.end()) {
        rdma_reqs_.erase(rit);
        // The request leaves its parking spot: the sender's watchdog
        // takes over again (covers a lost ack below).
        if (peer_) peer_->on_unstaged({Kind::kRdmaReq, tag});
        break;
      }
      if (failed_) throw DeliveryFailed(fail_reason_);
      co_await arrivals_.wait();
    }
  }
  std::uint64_t arrived = 0;
  bool staged = false;
  auto uit = rdma ? unexpected_.end()
                  : std::find_if(unexpected_.begin(), unexpected_.end(),
                                 [&](const UnexpectedMsg& u) {
                                   return u.tag == tag;
                                 });
  if (uit != unexpected_.end()) {
    // Now the message is truly consumed: the sender may forget it.
    if (audit::Auditor* aud = sim_.auditor()) {
      aud->on_deliver(uit->audit, uit->bytes, /*after_teardown=*/failed_);
    }
    if (peer_) peer_->on_delivered({Kind::kData, uit->msg_seq});
    arrived = uit->bytes;
    unexpected_.erase(uit);
    staged = true;  // had to be parked in a bounce buffer
  } else {
    trace_instant("post-recv");
    PostedRecv pr(sim_, tag);
    posted_.push_back(&pr);
    if (rdma) {
      trace_instant("rdma-ack");
      rdma_acked_.insert(tag);  // until the data completes: lost-ack replay
      co_await transmit(Kind::kRdmaAck, tag, 0, kCtlBytes, 0);
    }
    co_await pr.done.wait();
    if (failed_) throw DeliveryFailed(fail_reason_);
    arrived = pr.bytes;
  }
  if (arrived > bytes) {
    throw std::length_error(name_ + ": " + std::to_string(arrived) +
                            "-byte message (tag " + std::to_string(tag) +
                            ") truncated by a " + std::to_string(bytes) +
                            "-byte receive");
  }
  if (personality_.completion_sleep > 0) {
    co_await sim_.delay(personality_.completion_sleep);
  }
  if (personality_.completion_cost > 0) {
    co_await node_.cpu_cost(personality_.completion_cost);
  }
  if (staged) {
    staged_bytes_ += arrived;
    trace_instant("staging-copy");
    co_await node_.staging_copy(arrived);
  }
}

Link::Link(hw::Cluster& cluster, hw::Node& a, hw::Node& b,
           const hw::NicConfig& nic, const hw::LinkConfig& link,
           const EndpointConfig& config, const Personality& personality_a,
           const Personality& personality_b, const std::string& stack)
    : duplex_(cluster.connect(a, b, nic, link)) {
  a_ = std::make_unique<Endpoint>(cluster.simulator(), a, duplex_.forward,
                                  duplex_.backward, config, personality_a,
                                  stack + ".a");
  b_ = std::make_unique<Endpoint>(cluster.simulator(), b, duplex_.backward,
                                  duplex_.forward, config, personality_b,
                                  stack + ".b");
  a_->peer_ = b_.get();
  b_->peer_ = a_.get();
}

}  // namespace pp::bypass
