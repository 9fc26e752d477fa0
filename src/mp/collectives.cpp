#include "mp/collectives.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace pp::mp {

namespace {

/// Pipeline chunk for the broadcast (large enough to amortize latency,
/// small enough to overlap the ring hops).
constexpr std::uint64_t kBcastChunk = 64 << 10;

void validate_root(const Comm& comm, int root) {
  if (root < 0 || root >= comm.size) {
    throw std::invalid_argument("collective root " + std::to_string(root) +
                                " outside [0, " + std::to_string(comm.size) +
                                ")");
  }
}

// The public entry points validate eagerly and then delegate to these
// coroutine bodies: a coroutine's statements only run at first resume,
// which would turn a bad communicator into a deferred surprise instead
// of an immediate throw at the call site.

sim::Task<void> ring_broadcast_impl(Comm comm, int root,
                                    std::uint64_t bytes, std::uint32_t tag) {
  if (comm.size <= 1 || bytes == 0) co_return;
  const int dist = (comm.rank - root + comm.size) % comm.size;
  std::uint64_t left_bytes = bytes;
  std::uint32_t chunk_idx = 0;
  while (left_bytes > 0) {
    const std::uint64_t chunk = std::min(left_bytes, kBcastChunk);
    left_bytes -= chunk;
    const std::uint32_t t = tag + chunk_idx++;
    if (dist == 0) {
      co_await comm.lib->send(comm.right(), chunk, t);
    } else {
      co_await comm.lib->recv(comm.left(), chunk, t);
      if (dist != comm.size - 1) {
        co_await comm.lib->send(comm.right(), chunk, t);
      }
    }
  }
}

sim::Task<void> ring_allreduce_impl(Comm comm, std::uint64_t bytes,
                                    std::uint32_t tag) {
  if (comm.size <= 1 || bytes == 0) co_return;
  const std::uint64_t chunk = (bytes + comm.size - 1) / comm.size;
  // Phase 1: reduce-scatter — N-1 steps, each rank combines one chunk.
  for (int step = 0; step < comm.size - 1; ++step) {
    const std::uint32_t t = tag + static_cast<std::uint32_t>(step);
    Request s = comm.lib->isend(comm.right(), chunk, t);
    co_await comm.lib->recv(comm.left(), chunk, t);
    // Local reduction over the received chunk (one arithmetic pass).
    co_await comm.lib->node().staging_copy(chunk);
    co_await s.wait();
  }
  // Phase 2: allgather the reduced chunks.
  for (int step = 0; step < comm.size - 1; ++step) {
    const std::uint32_t t = tag + 0x100 + static_cast<std::uint32_t>(step);
    Request s = comm.lib->isend(comm.right(), chunk, t);
    co_await comm.lib->recv(comm.left(), chunk, t);
    co_await s.wait();
  }
}

sim::Task<void> ring_allgather_impl(Comm comm, std::uint64_t block_bytes,
                                    std::uint32_t tag) {
  if (comm.size <= 1 || block_bytes == 0) co_return;
  for (int step = 0; step < comm.size - 1; ++step) {
    const std::uint32_t t = tag + static_cast<std::uint32_t>(step);
    Request s = comm.lib->isend(comm.right(), block_bytes, t);
    co_await comm.lib->recv(comm.left(), block_bytes, t);
    co_await s.wait();
  }
}

sim::Task<void> ring_barrier_impl(Comm comm, std::uint32_t tag) {
  if (comm.size <= 1) co_return;
  for (int round = 0; round < 2; ++round) {
    const std::uint32_t t = tag + static_cast<std::uint32_t>(round);
    if (comm.rank == 0) {
      co_await comm.lib->send(comm.right(), 1, t);
      co_await comm.lib->recv(comm.left(), 1, t);
    } else {
      co_await comm.lib->recv(comm.left(), 1, t);
      co_await comm.lib->send(comm.right(), 1, t);
    }
  }
}

sim::Task<void> tree_broadcast_impl(Comm comm, int root,
                                    std::uint64_t bytes, std::uint32_t tag) {
  if (comm.size <= 1 || bytes == 0) co_return;
  // Rotate so the root is virtual rank 0; the set bit structure of the
  // virtual rank gives each rank its parent and children.
  const int vrank = (comm.rank - root + comm.size) % comm.size;
  int mask = 1;
  while (mask < comm.size) {
    if ((vrank & mask) != 0) {
      const int vsrc = vrank ^ mask;
      co_await comm.lib->recv((vsrc + root) % comm.size, bytes, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    const int vdst = vrank | mask;
    if (vdst != vrank && vdst < comm.size) {
      co_await comm.lib->send((vdst + root) % comm.size, bytes, tag);
    }
    mask >>= 1;
  }
}

sim::Task<void> dissemination_barrier_impl(Comm comm, std::uint32_t tag) {
  if (comm.size <= 1) co_return;
  std::uint32_t round = 0;
  for (int d = 1; d < comm.size; d <<= 1, ++round) {
    const std::uint32_t t = tag + round;
    const int to = (comm.rank + d) % comm.size;
    const int from = (comm.rank - d + comm.size) % comm.size;
    Request s = comm.lib->isend(to, 1, t);
    co_await comm.lib->recv(from, 1, t);
    co_await s.wait();
  }
}

sim::Task<void> dissemination_allgather_impl(Comm comm,
                                             std::uint64_t block_bytes,
                                             std::uint32_t tag) {
  if (comm.size <= 1 || block_bytes == 0) co_return;
  // Bruck: after round k a rank holds 2^k consecutive blocks; it sends
  // them "down" the ring and receives the next batch from "up", so the
  // exchanged size doubles until the tail round.
  std::uint32_t round = 0;
  for (int d = 1; d < comm.size; d <<= 1, ++round) {
    const std::uint32_t t = tag + round;
    const int to = (comm.rank - d + comm.size) % comm.size;
    const int from = (comm.rank + d) % comm.size;
    const std::uint64_t batch =
        static_cast<std::uint64_t>(std::min(d, comm.size - d)) * block_bytes;
    Request s = comm.lib->isend(to, batch, t);
    co_await comm.lib->recv(from, batch, t);
    co_await s.wait();
  }
}

sim::Task<void> doubling_allreduce_impl(Comm comm, std::uint64_t bytes,
                                        std::uint32_t tag) {
  if (comm.size <= 1 || bytes == 0) co_return;
  int pof2 = 1;
  while (pof2 * 2 <= comm.size) pof2 *= 2;
  const int rem = comm.size - pof2;
  // Fold phase: the first 2*rem ranks pair up so a power-of-two set
  // remains (MPICH's recursive-doubling preamble).
  int vrank;
  if (comm.rank < 2 * rem) {
    if (comm.rank % 2 == 0) {
      co_await comm.lib->send(comm.rank + 1, bytes, tag);
      vrank = -1;
    } else {
      co_await comm.lib->recv(comm.rank - 1, bytes, tag);
      co_await comm.lib->node().staging_copy(bytes);
      vrank = comm.rank / 2;
    }
  } else {
    vrank = comm.rank - rem;
  }
  if (vrank != -1) {
    std::uint32_t round = 0;
    for (int mask = 1; mask < pof2; mask <<= 1, ++round) {
      const int vdst = vrank ^ mask;
      const int dst = vdst < rem ? vdst * 2 + 1 : vdst + rem;
      const std::uint32_t t = tag + 1 + round;
      Request s = comm.lib->isend(dst, bytes, t);
      co_await comm.lib->recv(dst, bytes, t);
      co_await comm.lib->node().staging_copy(bytes);
      co_await s.wait();
    }
  }
  // Unfold: the folded-out even ranks get the result from their pair.
  if (comm.rank < 2 * rem) {
    const std::uint32_t t = tag + 0x80;
    if (comm.rank % 2 == 0) {
      co_await comm.lib->recv(comm.rank + 1, bytes, t);
    } else {
      co_await comm.lib->send(comm.rank - 1, bytes, t);
    }
  }
}

}  // namespace

void validate(const Comm& comm) {
  if (comm.lib == nullptr) {
    throw std::invalid_argument("Comm: null library endpoint");
  }
  if (comm.size <= 0) {
    throw std::invalid_argument("Comm: size " +
                                std::to_string(comm.size) + " <= 0");
  }
  if (comm.rank < 0 || comm.rank >= comm.size) {
    throw std::invalid_argument("Comm: rank " +
                                std::to_string(comm.rank) +
                                " outside [0, " + std::to_string(comm.size) +
                                ")");
  }
}

sim::Task<void> ring_broadcast(Comm comm, int root, std::uint64_t bytes,
                               std::uint32_t tag) {
  validate(comm);
  validate_root(comm, root);
  return ring_broadcast_impl(comm, root, bytes, tag);
}

sim::Task<void> ring_allreduce(Comm comm, std::uint64_t bytes,
                               std::uint32_t tag) {
  validate(comm);
  return ring_allreduce_impl(comm, bytes, tag);
}

sim::Task<void> ring_allgather(Comm comm, std::uint64_t block_bytes,
                               std::uint32_t tag) {
  validate(comm);
  return ring_allgather_impl(comm, block_bytes, tag);
}

sim::Task<void> ring_barrier(Comm comm, std::uint32_t tag) {
  validate(comm);
  return ring_barrier_impl(comm, tag);
}

sim::Task<void> tree_broadcast(Comm comm, int root, std::uint64_t bytes,
                               std::uint32_t tag) {
  validate(comm);
  validate_root(comm, root);
  return tree_broadcast_impl(comm, root, bytes, tag);
}

sim::Task<void> dissemination_barrier(Comm comm, std::uint32_t tag) {
  validate(comm);
  return dissemination_barrier_impl(comm, tag);
}

sim::Task<void> dissemination_allgather(Comm comm,
                                        std::uint64_t block_bytes,
                                        std::uint32_t tag) {
  validate(comm);
  return dissemination_allgather_impl(comm, block_bytes, tag);
}

sim::Task<void> doubling_allreduce(Comm comm, std::uint64_t bytes,
                                   std::uint32_t tag) {
  validate(comm);
  return doubling_allreduce_impl(comm, bytes, tag);
}

}  // namespace pp::mp
