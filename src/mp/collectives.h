// Collective operations over any Library endpoint: the "many common
// global operations" MP_Lite supports (paper §3.4), built portably on
// point-to-point calls like TCGMSG's and PVM's collectives were.
//
// Two algorithm families are selectable side by side:
//  - ring forms (the classic MP_Lite formulations): pipelined
//    broadcast, reduce-scatter+allgather allreduce (bandwidth-optimal),
//    N-1 step allgather, and a token barrier — O(N) latency steps;
//  - tree/dissemination forms (what scalable switch clusters use):
//    binomial-tree broadcast, dissemination barrier and Bruck-style
//    dissemination allgather, and recursive-doubling allreduce — all
//    O(log N) latency steps.
// Reduction arithmetic is charged on the CPU as one pass over the bytes.
//
// Every collective validates its communicator eagerly: a null library,
// size <= 0, or a rank/root outside [0, size) throws
// std::invalid_argument *before* any coroutine is created, so misuse
// fails at the call site rather than hanging a ring.
#pragma once

#include <cstdint>

#include "mp/api.h"
#include "simcore/task.h"

namespace pp::mp {

/// A rank's view of the communicator: its rank, the size and the
/// library endpoint every collective algorithm sends through.
struct Comm {
  Library* lib = nullptr;
  int rank = 0;
  int size = 0;

  int left() const { return (rank + size - 1) % size; }
  int right() const { return (rank + 1) % size; }
};

/// Throws std::invalid_argument unless comm.lib != null, comm.size >= 1
/// and 0 <= comm.rank < comm.size. Called by every collective.
void validate(const Comm& comm);

/// Pipelined ring broadcast of `bytes` from `root`.
sim::Task<void> ring_broadcast(Comm comm, int root, std::uint64_t bytes,
                               std::uint32_t tag = 0x1000);

/// Bandwidth-optimal ring allreduce of a `bytes`-sized vector.
sim::Task<void> ring_allreduce(Comm comm, std::uint64_t bytes,
                               std::uint32_t tag = 0x2000);

/// Ring allgather: every rank contributes `block_bytes` and ends with
/// size * block_bytes.
sim::Task<void> ring_allgather(Comm comm, std::uint64_t block_bytes,
                               std::uint32_t tag = 0x3000);

/// Ring barrier: a token travels the ring twice.
sim::Task<void> ring_barrier(Comm comm, std::uint32_t tag = 0x4000);

/// Binomial-tree broadcast of `bytes` from `root`: ceil(log2 N) rounds,
/// each informed rank forwarding to one new rank per round.
sim::Task<void> tree_broadcast(Comm comm, int root, std::uint64_t bytes,
                               std::uint32_t tag = 0x5000);

/// Dissemination barrier: ceil(log2 N) rounds, rank r signalling
/// r + 2^k and waiting on r - 2^k each round.
sim::Task<void> dissemination_barrier(Comm comm,
                                      std::uint32_t tag = 0x6000);

/// Bruck-style dissemination allgather: ceil(log2 N) rounds of
/// doubling block exchanges; every rank ends with size * block_bytes.
sim::Task<void> dissemination_allgather(Comm comm,
                                        std::uint64_t block_bytes,
                                        std::uint32_t tag = 0x7000);

/// Recursive-doubling allreduce of a `bytes`-sized vector: log2 N
/// full-vector exchanges (latency-optimal for short vectors), with the
/// standard fold to the nearest power of two for non-power-of-2 sizes.
sim::Task<void> doubling_allreduce(Comm comm, std::uint64_t bytes,
                                   std::uint32_t tag = 0x8000);

}  // namespace pp::mp
