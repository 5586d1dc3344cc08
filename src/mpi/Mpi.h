//===- mpi/Mpi.h - Message-passing baseline ---------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MPI baseline of the paper's comparison (MPICH 1.2.6 class): ranks,
/// blocking and non-blocking point-to-point with (source, tag) matching
/// including wildcards, and the collectives the paper names (broadcast,
/// reduction, barrier).  Messages are flat packed buffers -- the paper's
/// Section 2 point that "MPI requires explicit packing and unpacking of
/// messages" is the serial::OutputArchive/InputArchive step the caller
/// performs, in contrast to the remoting stacks' automatic marshalling.
///
/// Costs: MpiFixedPerSide + MpiPerByteNs per wire byte on each side (the
/// lowest-overhead stack, per the paper's 100 us latency and near-wire
/// bandwidth).
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_MPI_MPI_H
#define PARCS_MPI_MPI_H

#include "net/Network.h"
#include "serial/Archive.h"
#include "sim/Channel.h"
#include "sim/Sync.h"
#include "support/Error.h"
#include "vm/Cluster.h"

#include <deque>
#include <functional>
#include <memory>

namespace parcs::mpi {

using serial::Bytes;

/// Matches MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr int AnySource = -1;
inline constexpr int AnyTag = -1;

/// A received message: payload plus its matched envelope.
struct RecvResult {
  int Source = -1;
  int Tag = -1;
  Bytes Data;
};

class MpiWorld;

/// One rank's view of the world (the MPI_COMM_WORLD handle each rank main
/// receives).
class MpiComm {
public:
  MpiComm(MpiWorld &World, int Rank) : World(World), MyRank(Rank) {}

  int rank() const { return MyRank; }
  int size() const;
  vm::Node &node() const;

  /// Blocking standard-mode send (eager: completes when the buffer has
  /// been handed to the network, after the local per-byte cost).
  sim::Task<void> send(int Dst, int Tag, Bytes Data);

  /// Blocking receive matching (\p Src, \p Tag), wildcards allowed.
  sim::Task<RecvResult> recv(int Src, int Tag);

  /// Non-blocking send; await the returned future to complete it
  /// (MPI_Isend + MPI_Wait).
  sim::Future<Unit> isend(int Dst, int Tag, Bytes Data);

  /// Non-blocking receive (MPI_Irecv + MPI_Wait).
  sim::Future<RecvResult> irecv(int Src, int Tag);

  /// Synchronises all ranks (MPI_Barrier); returns when every rank has
  /// entered.
  sim::Task<void> barrier();

  /// Broadcast from \p Root over a binomial tree; every rank returns the
  /// payload.
  sim::Task<Bytes> bcast(int Root, Bytes Data);

  /// Element-wise sum reduction of equal-length double vectors to \p Root
  /// (other ranks get an empty vector back).
  sim::Task<std::vector<double>> reduceSum(int Root,
                                           std::vector<double> Values);

  /// reduceSum to rank 0 followed by a broadcast: every rank gets the
  /// global sum (MPI_Allreduce).
  sim::Task<std::vector<double>> allreduceSum(std::vector<double> Values);

  /// Gathers every rank's buffer at \p Root (MPI_Gatherv flavour: buffers
  /// may differ in size).  Root receives size() buffers indexed by rank;
  /// other ranks get an empty vector.
  sim::Task<std::vector<Bytes>> gather(int Root, Bytes Mine);

  /// Scatters \p Chunks (root only; one per rank) and returns each rank's
  /// chunk (MPI_Scatterv flavour).
  sim::Task<Bytes> scatter(int Root, std::vector<Bytes> Chunks);

  /// Combined send+receive (MPI_Sendrecv): posts the receive first so the
  /// exchange cannot deadlock even pairwise.
  sim::Task<RecvResult> sendRecv(int Dst, int SendTag, Bytes Data, int Src,
                                 int RecvTag);

private:
  /// Tags above this bound are reserved for collectives.
  static constexpr int FirstInternalTag = 1 << 24;

  MpiWorld &World;
  int MyRank;
};

/// Owns the rank placement and matching machinery.
class MpiWorld {
public:
  /// Places \p TotalRanks ranks block-wise over the cluster's nodes
  /// (\p RanksPerNode slots per node, like an MPICH machinefile).
  MpiWorld(vm::Cluster &Cluster, net::Network &Net, int TotalRanks,
           int RanksPerNode = 2);
  MpiWorld(const MpiWorld &) = delete;
  MpiWorld &operator=(const MpiWorld &) = delete;

  int size() const { return static_cast<int>(Ranks.size()); }
  vm::Node &nodeOf(int Rank);

  /// Spawns \p Main once per rank (mpirun).  Drive the simulator to run
  /// the program; completion can be observed via finishedRanks().
  void launch(std::function<sim::Task<void>(MpiComm)> Main);

  /// Ranks whose main returned so far.
  int finishedRanks() const { return Finished; }

private:
  friend class MpiComm;

  struct PendingMessage {
    int Src;
    int Tag;
    Bytes Data;
  };
  struct PostedRecv {
    int Src;
    int Tag;
    sim::Promise<RecvResult> Result;
  };
  struct RankState {
    int NodeId = 0;
    int Port = 0;
    std::deque<PendingMessage> Unexpected;
    std::deque<PostedRecv> Posted;
  };

  sim::Task<void> sendImpl(int SrcRank, int DstRank, int Tag, Bytes Data);
  void postRecv(int Rank, int Src, int Tag, sim::Promise<RecvResult> Result);
  sim::Task<void> matchLoop(int Rank);
  sim::Task<void> rankMain(MpiComm Comm,
                           std::function<sim::Task<void>(MpiComm)> Main);

  static bool matches(const PendingMessage &Msg, int Src, int Tag) {
    return (Src == AnySource || Msg.Src == Src) &&
           (Tag == AnyTag || Msg.Tag == Tag);
  }

  vm::Cluster &Cluster;
  net::Network &Net;
  std::vector<RankState> Ranks;
  int Finished = 0;
};

} // namespace parcs::mpi

#endif // PARCS_MPI_MPI_H
