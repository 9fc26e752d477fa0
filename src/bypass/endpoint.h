// The OS-bypass endpoint core shared by GM (gmsim) and VIA (viasim).
//
// Both stacks move tagged messages between two user-level endpoints
// without a kernel protocol stack: the sender fragments a message into
// NIC frames paced by send credits (GM "send tokens", VIA descriptor
// credits), the receiver reassembles fragments and matches the message
// against pre-posted receives or parks it in an unexpected queue, and a
// sender-side delivery watchdog replays messages that fault injection
// lost. Everything below is implemented once here; a stack is a
// Personality (what it charges and when it switches to RDMA) plus the
// recovery settings of EndpointConfig.
//
// The core branches only on those values: a zero cost schedules no
// event (an extra zero-delay event would reorder ties), and a transfer
// above `rdma_threshold` first exchanges the target address with a
// request/ack handshake (VIA's RDMA write; GM never crosses it).
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "audit/audit.h"
#include "simcore/simulator.h"
#include "simcore/sync.h"
#include "simcore/task.h"
#include "simhw/cluster.h"
#include "simhw/node.h"
#include "simhw/pipe.h"

namespace pp::bypass {

/// Recovery settings every OS-bypass stack exposes in its config.
struct EndpointConfig {
  /// Delivery watchdog: when nonzero, a sender retransmits a message (or
  /// an RDMA address request) whose remote delivery has not completed
  /// within this timeout, doubling per retry up to delivery_timeout_max.
  /// 0 disables — the right setting for the paper's lossless fabrics;
  /// enable it whenever a FaultPlan can drop fragments, or a lost
  /// fragment deadlocks the endpoint.
  sim::SimTime delivery_timeout = 0;
  sim::SimTime delivery_timeout_max = sim::milliseconds(10.0);
  /// Delivery attempts (original send + watchdog retries) per message
  /// before the endpoint pair is declared failed and blocked send()/recv()
  /// calls raise DeliveryFailed. 0 = retry forever — the right setting
  /// when the peer is guaranteed to come back; chaos/resilience runs set
  /// a cap so a permanently dead peer yields a clean `failed` verdict.
  std::uint32_t max_delivery_attempts = 0;
  /// TEST ONLY: disables the receive-side power-epoch fence so fragments
  /// from a dead epoch are accepted — the deliberate protocol bug the
  /// audit oracle (audit/audit.h) must catch. Never set outside tests.
  bool unsafe_skip_epoch_fence = false;
};

/// What a stack charges and how it paces; built by gmsim/viasim from
/// their own configs.
struct Personality {
  /// Posting a send or a receive: gm_send()/gm_provide_receive_buffer(),
  /// a VIA doorbell write (hardware) or kernel trap (M-VIA).
  sim::SimTime post_send_cost = 0;
  sim::SimTime post_recv_cost = 0;
  /// Completion detection once a receive is satisfied: an optional sleep
  /// (GM blocking mode) followed by host CPU work.
  sim::SimTime completion_sleep = 0;
  sim::SimTime completion_cost = 0;
  /// Host CPU per fragment on both ends (M-VIA's software dispatch path;
  /// 0 when the NIC processor does the per-packet work).
  sim::SimTime per_frag_host_cost = 0;
  /// Fragments in flight before the sender blocks.
  int credits = 16;
  /// Transfers above this size exchange the target address first.
  std::uint64_t rdma_threshold = std::numeric_limits<std::uint64_t>::max();
};

/// Raised by send()/recv() once an endpoint pair exhausted
/// `EndpointConfig::max_delivery_attempts` (e.g. the peer crashed
/// permanently). Derives from sim::ProtocolFailure so sweep executors
/// classify the run `failed` rather than errored or hung.
class DeliveryFailed : public sim::ProtocolFailure {
 public:
  explicit DeliveryFailed(const std::string& what)
      : sim::ProtocolFailure(what) {}
};

/// One OS-bypass endpoint; create a connected pair with Link.
class Endpoint {
 public:
  Endpoint(sim::Simulator& sim, hw::Node& node, hw::PacketPipe& out,
           hw::PacketPipe& in, const EndpointConfig& config,
           const Personality& personality, std::string name);
  // Timers, drop hooks and the node's power listener hold `this`.
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Sends one tagged message; returns when the NIC has accepted all
  /// fragments (local completion).
  sim::Task<void> send(std::uint64_t bytes, std::uint32_t tag);

  /// Completes when a message with `tag` has fully arrived. If it was
  /// already waiting unmatched, a staging copy is charged. A message
  /// longer than `bytes` raises std::length_error; a shorter one is legal.
  sim::Task<void> recv(std::uint64_t bytes, std::uint32_t tag);

  hw::Node& node() { return node_; }
  const std::string& name() const { return name_; }

  std::uint64_t messages_received() const { return messages_received_; }
  std::uint64_t rdma_transfers() const { return rdma_transfers_; }

  /// Bytes that landed unmatched and paid a staging copy out of the
  /// bounce buffer.
  std::uint64_t staged_bytes() const { return staged_bytes_; }

  /// Watchdog retransmissions (lost messages or RDMA address requests
  /// recovered by timeout).
  std::uint64_t delivery_failures() const { return delivery_failures_; }

  /// Fragments of ours that fault injection discarded (credits reclaimed).
  std::uint64_t frags_lost() const { return frags_lost_; }

  /// Frames dropped on this endpoint's outbound pipe (all causes).
  std::uint64_t wire_drops() const { return out_.packets_dropped(); }

  /// Power epoch this endpoint is registered under (tracks the node's;
  /// every fragment is stamped with the destination's epoch and
  /// stale-epoch arrivals are rejected after their credit is returned).
  std::uint32_t epoch() const { return epoch_; }

  /// Pre-posted receives re-registered across restarts.
  std::uint64_t reposts() const { return reposts_; }

  /// Fragments rejected for carrying a previous power epoch.
  std::uint64_t stale_epoch_drops() const { return stale_epoch_drops_; }

  /// True once the pair exhausted max_delivery_attempts.
  bool failed() const { return failed_; }

 private:
  friend class Link;

  enum class Kind : std::uint8_t { kData, kRdmaReq, kRdmaAck };

  /// Watchdog key: (kData, msg_seq) for a message, (kRdmaReq, tag) for
  /// an RDMA address request.
  using Key = std::pair<Kind, std::uint64_t>;

  /// Per-message descriptor, one arena slot shared by every fragment of
  /// the attempt (the fragment's own byte count is derived from the
  /// frame's dma_bytes on receive).
  struct Frag {
    Endpoint* dst = nullptr;
    Kind kind = Kind::kData;
    std::uint32_t tag = 0;
    std::uint32_t attempt = 0;  ///< 0 = original send, else retry number
    /// Per-sender unique message number; unused by RDMA control
    /// fragments (a request carries its watchdog key, the tag).
    std::uint64_t msg_seq = 0;
    std::uint64_t msg_bytes = 0;
    /// Destination endpoint's power epoch at injection time; the receiver
    /// rejects fragments stamped with a dead epoch (its pre-crash state
    /// is gone, the sender's watchdog replays under the new epoch).
    std::uint32_t dst_epoch = 0;
    /// Delivery-oracle identity (audit/audit.h), laid out as scalars so
    /// the descriptor still fits one 64-byte arena slot. Stream 0 = no
    /// auditor; RDMA control fragments stay untagged. Same across every
    /// attempt of the message.
    std::uint32_t audit_stream = 0;
    std::uint64_t audit_seq = 0;
    std::uint64_t audit_check = 0;

    audit::MsgTag audit_tag() const noexcept {
      return audit::MsgTag{audit_stream, audit_seq, audit_check};
    }
  };

  struct PartialMsg {
    std::uint32_t attempt = 0;
    std::uint64_t sofar = 0;
    bool done = false;  ///< completed; late duplicates must be ignored
  };

  /// A message or address request the watchdog may have to replay.
  struct Pending {
    std::uint64_t bytes = 0;
    std::uint32_t tag = 0;
    std::uint32_t attempt = 0;
    sim::SimTime timeout = 0;  ///< next watchdog interval (backed off)
    /// Parked in the peer's unexpected (or request) queue but not yet
    /// consumed by recv(): the watchdog stands down (a slow consumer is
    /// not a delivery failure), but the entry stays so a receiver crash
    /// can un-stage it and resume replaying.
    bool staged = false;
    audit::MsgTag audit;  ///< replayed verbatim by watchdog retries
  };

  /// Held by raw pointer in posted_ while recv() is suspended.
  struct PostedRecv {
    explicit PostedRecv(sim::Simulator& s, std::uint32_t t) : tag(t), done(s) {}
    std::uint32_t tag = 0;
    std::uint64_t bytes = 0;  ///< size of the message that completed it
    sim::Trigger done;
  };

  /// An arrival staged in the unexpected queue (completed, unmatched).
  struct UnexpectedMsg {
    std::uint32_t tag = 0;
    std::uint64_t msg_seq = 0;
    std::uint64_t bytes = 0;
    audit::MsgTag audit;
  };

  sim::Task<void> rx_daemon();
  /// The credit-paced fragment injection loop shared by send(), the RDMA
  /// handshake and the watchdog's retransmissions.
  sim::Task<void> transmit(Kind kind, std::uint32_t tag, std::uint64_t msg_seq,
                           std::uint64_t bytes, std::uint32_t attempt,
                           const audit::MsgTag& atag = {});
  void accept_data(const Frag& frag, const hw::Packet& p);
  void complete_message(std::uint32_t tag, std::uint64_t msg_seq,
                        std::uint64_t bytes, const audit::MsgTag& atag);
  void on_rdma_req(std::uint32_t tag);
  void on_rdma_ack(std::uint32_t tag);
  void trace_instant(const char* what);

  /// Records `key` for replay when delivery_timeout is set; its timer
  /// starts with arm_watchdog() once the first attempt is on the wire.
  void track(Key key, std::uint64_t bytes, std::uint32_t tag,
             const audit::MsgTag& atag);
  sim::Task<void> retry(Key key);
  void arm_watchdog(Key key);
  /// Peer-side notification that message `key` was consumed (matched a
  /// posted receive or drained from the unexpected queue). An address
  /// request leaves pending_ when its ack arrives instead.
  void on_delivered(Key key) { pending_.erase(key); }
  /// Peer-side notification that `key` is parked in the peer's queue:
  /// stop retrying, but keep the entry replayable.
  void on_staged(Key key);
  /// The peer crashed (or consumed a request) with `key` parked: resume
  /// the watchdog.
  void on_unstaged(Key key);
  void fail_pair(const char* reason);
  void on_node_crash();
  void on_node_restart();
  void prune_partials();

  sim::Simulator& sim_;
  hw::Node& node_;
  hw::PacketPipe& out_;
  hw::PacketPipe& in_;
  EndpointConfig config_;
  Personality personality_;
  std::string name_;

  sim::ByteSemaphore credits_;
  Endpoint* peer_ = nullptr;

  // Send side.
  std::uint32_t audit_stream_ = 0;  ///< delivery-oracle stream (0 = off)
  std::uint64_t next_msg_seq_ = 0;
  std::map<Key, Pending> pending_;  // watchdog state per message/request
  std::uint64_t delivery_failures_ = 0;
  std::uint64_t frags_lost_ = 0;
  std::uint64_t rdma_transfers_ = 0;

  // Receive side.
  std::map<std::uint64_t, PartialMsg> partial_;  // msg_seq -> progress
  std::deque<PostedRecv*> posted_;
  std::deque<UnexpectedMsg> unexpected_;  // completed, unmatched
  // RDMA handshakes: requests seen / acks awaited, FIFO per endpoint.
  std::deque<std::uint32_t> rdma_reqs_;
  std::deque<sim::Trigger*> rdma_ack_waiters_;
  /// Tags we have answered with an ack whose data has not yet completed;
  /// a duplicate request for one of these means the ack was lost and is
  /// simply re-sent.
  std::set<std::uint32_t> rdma_acked_;
  sim::Signal arrivals_;
  std::uint64_t messages_received_ = 0;
  std::uint64_t staged_bytes_ = 0;

  // Crash/restart state.
  std::uint32_t epoch_ = 1;  ///< synced to the node's power epoch
  std::uint64_t reposts_ = 0;
  std::uint64_t stale_epoch_drops_ = 0;
  bool failed_ = false;
  std::string fail_reason_;

  /// Liveness token: watchdog timers and drop callbacks outlive torn-down
  /// endpoints (sweep jobs destroy fabrics with timers queued), so they
  /// hold only a weak handle and become no-ops once the endpoint is gone.
  std::shared_ptr<char> alive_ = std::make_shared<char>(1);
};

/// A link between two nodes with a connected endpoint pair on it, named
/// `<stack>.a` and `<stack>.b`.
class Link {
 public:
  Link(hw::Cluster& cluster, hw::Node& a, hw::Node& b,
       const hw::NicConfig& nic, const hw::LinkConfig& link,
       const EndpointConfig& config, const Personality& personality_a,
       const Personality& personality_b, const std::string& stack);

  Endpoint& a() { return *a_; }
  Endpoint& b() { return *b_; }

 private:
  hw::Cluster::Duplex duplex_;
  std::unique_ptr<Endpoint> a_;
  std::unique_ptr<Endpoint> b_;
};

}  // namespace pp::bypass
