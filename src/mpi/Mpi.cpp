//===- mpi/Mpi.cpp --------------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "mpi/Mpi.h"

#include "serial/Envelope.h"
#include "vm/Calibration.h"

using namespace parcs;
using namespace parcs::mpi;

namespace {

sim::SimTime mpiSideCost(size_t WireBytes) {
  return calib::MpiFixedPerSide +
         sim::SimTime::fromSecondsF(calib::MpiPerByteNs * 1e-9 *
                                    static_cast<double>(WireBytes));
}

} // namespace

//===----------------------------------------------------------------------===//
// MpiWorld
//===----------------------------------------------------------------------===//

MpiWorld::MpiWorld(vm::Cluster &Cluster, net::Network &Net, int TotalRanks,
                   int RanksPerNode)
    : Cluster(Cluster), Net(Net) {
  // A node's ranks listen on consecutive ports from here.
  constexpr int BasePort = 2100;
  assert(TotalRanks > 0 && "world needs at least one rank");
  assert(RanksPerNode > 0 && "need at least one slot per node");
  assert(TotalRanks <= Cluster.nodeCount() * RanksPerNode &&
         "not enough slots for the requested ranks");
  Ranks.resize(static_cast<size_t>(TotalRanks));
  for (int R = 0; R < TotalRanks; ++R) {
    RankState &State = Ranks[static_cast<size_t>(R)];
    State.NodeId = R / RanksPerNode;
    State.Port = BasePort + R % RanksPerNode;
    Net.bind(State.NodeId, State.Port);
    Cluster.sim().spawn(matchLoop(R));
  }
}

vm::Node &MpiWorld::nodeOf(int Rank) {
  assert(Rank >= 0 && Rank < size() && "rank out of range");
  return Cluster.node(Ranks[static_cast<size_t>(Rank)].NodeId);
}

void MpiWorld::launch(std::function<sim::Task<void>(MpiComm)> Main) {
  for (int R = 0; R < size(); ++R)
    Cluster.sim().spawn(rankMain(MpiComm(*this, R), Main));
}

sim::Task<void>
MpiWorld::rankMain(MpiComm Comm,
                   std::function<sim::Task<void>(MpiComm)> Main) {
  co_await Main(Comm);
  ++Finished;
}

sim::Task<void> MpiWorld::sendImpl(int SrcRank, int DstRank, int Tag,
                                   Bytes Data) {
  assert(DstRank >= 0 && DstRank < size() && "send to invalid rank");
  // Copy the routing scalars out of the rank table before suspending:
  // Ranks may reallocate while this coroutine is parked on the compute
  // queue, and a dangling RankState& would then route the datagram through
  // freed memory.
  int SrcNode = Ranks[static_cast<size_t>(SrcRank)].NodeId;
  int DstNode = Ranks[static_cast<size_t>(DstRank)].NodeId;
  int DstPort = Ranks[static_cast<size_t>(DstRank)].Port;
  serial::OutputArchive Packed;
  Packed.write(static_cast<int32_t>(SrcRank));
  Packed.write(static_cast<int32_t>(Tag));
  Packed.write(static_cast<uint32_t>(Data.size()));
  Packed.writeRaw(Data);
  Bytes Wire =
      serial::encodeEnvelope(serial::WireFormat::MpiPack, "", Packed.bytes());
  co_await Cluster.node(SrcNode).compute(mpiSideCost(Wire.size()));
  Net.send(SrcNode, DstNode, DstPort, std::move(Wire));
}

void MpiWorld::postRecv(int Rank, int Src, int Tag,
                        sim::Promise<RecvResult> Result) {
  RankState &State = Ranks[static_cast<size_t>(Rank)];
  // Try the unexpected-message queue first, in arrival order.
  for (auto It = State.Unexpected.begin(); It != State.Unexpected.end();
       ++It) {
    if (!matches(*It, Src, Tag))
      continue;
    RecvResult Out;
    Out.Source = It->Src;
    Out.Tag = It->Tag;
    Out.Data = std::move(It->Data);
    State.Unexpected.erase(It);
    Result.set(std::move(Out));
    return;
  }
  State.Posted.push_back(PostedRecv{Src, Tag, std::move(Result)});
}

sim::Task<void> MpiWorld::matchLoop(int Rank) {
  RankState &State = Ranks[static_cast<size_t>(Rank)];
  sim::Channel<net::Message> &Inbox = Net.bind(State.NodeId, State.Port);
  vm::Node &Node = Cluster.node(State.NodeId);
  for (;;) {
    net::Message Msg = co_await Inbox.recv();
    // Receiver-side software cost (progress engine + copy out).
    co_await Node.compute(mpiSideCost(Msg.Payload.size()));
    ErrorOr<serial::Envelope> Env =
        serial::decodeEnvelope(serial::WireFormat::MpiPack, Msg.Payload);
    if (!Env)
      continue; // Malformed datagrams are dropped silently.
    serial::InputArchive In(Env->Payload);
    int32_t Src = 0, Tag = 0;
    uint32_t Size = 0;
    PendingMessage Pending;
    if (!In.read(Src) || !In.read(Tag) || !In.read(Size) ||
        !In.readRaw(Pending.Data, Size))
      continue;
    Pending.Src = Src;
    Pending.Tag = Tag;
    // Hand to the oldest matching posted receive, else queue.
    bool Delivered = false;
    for (auto It = State.Posted.begin(); It != State.Posted.end(); ++It) {
      if ((It->Src != AnySource && It->Src != Pending.Src) ||
          (It->Tag != AnyTag && It->Tag != Pending.Tag))
        continue;
      RecvResult Out;
      Out.Source = Pending.Src;
      Out.Tag = Pending.Tag;
      Out.Data = std::move(Pending.Data);
      It->Result.set(std::move(Out));
      State.Posted.erase(It);
      Delivered = true;
      break;
    }
    if (!Delivered)
      State.Unexpected.push_back(std::move(Pending));
  }
}

//===----------------------------------------------------------------------===//
// MpiComm
//===----------------------------------------------------------------------===//

int MpiComm::size() const { return World.size(); }

vm::Node &MpiComm::node() const { return World.nodeOf(MyRank); }

sim::Task<void> MpiComm::send(int Dst, int Tag, Bytes Data) {
  assert(Tag >= 0 && Tag < FirstInternalTag && "tag out of user range");
  return World.sendImpl(MyRank, Dst, Tag, std::move(Data));
}

sim::Task<RecvResult> MpiComm::recv(int Src, int Tag) {
  sim::Future<RecvResult> Result = irecv(Src, Tag);
  RecvResult Out = co_await Result;
  co_return Out;
}

sim::Future<Unit> MpiComm::isend(int Dst, int Tag, Bytes Data) {
  sim::Promise<Unit> Done(World.Cluster.sim());
  struct Sender {
    static sim::Task<void> run(MpiWorld &World, int Src, int Dst, int Tag,
                               Bytes Data, sim::Promise<Unit> Done) {
      co_await World.sendImpl(Src, Dst, Tag, std::move(Data));
      Done.set(Unit());
    }
  };
  World.Cluster.sim().spawn(
      Sender::run(World, MyRank, Dst, Tag, std::move(Data), Done));
  return Done.future();
}

sim::Future<RecvResult> MpiComm::irecv(int Src, int Tag) {
  sim::Promise<RecvResult> Result(World.Cluster.sim());
  World.postRecv(MyRank, Src, Tag, Result);
  return Result.future();
}

sim::Task<void> MpiComm::barrier() {
  // Linear fan-in to rank 0, then fan-out release: O(P) messages, exactly
  // deterministic.
  constexpr int TagEnter = MpiComm::FirstInternalTag + 1;
  constexpr int TagLeave = MpiComm::FirstInternalTag + 2;
  int P = size();
  if (P == 1)
    co_return;
  if (MyRank == 0) {
    for (int I = 1; I < P; ++I)
      (void)co_await recv(AnySource, TagEnter);
    for (int I = 1; I < P; ++I)
      co_await World.sendImpl(MyRank, I, TagLeave, Bytes{});
    co_return;
  }
  co_await World.sendImpl(MyRank, 0, TagEnter, Bytes{});
  (void)co_await recv(0, TagLeave);
}

sim::Task<Bytes> MpiComm::bcast(int Root, Bytes Data) {
  // Binomial tree over relative ranks.
  constexpr int TagBcast = MpiComm::FirstInternalTag + 3;
  int P = size();
  int Rel = (MyRank - Root + P) % P;
  // A non-root rank receives in the round given by its highest set bit,
  // then forwards in every later round; the root forwards from round 0.
  int FirstSendStep = 1;
  if (Rel != 0) {
    RecvResult In = co_await recv(AnySource, TagBcast);
    Data = std::move(In.Data);
    int HighBit = 1;
    while (HighBit * 2 <= Rel)
      HighBit <<= 1;
    FirstSendStep = HighBit << 1;
  }
  for (int Step = FirstSendStep; Step < P; Step <<= 1) {
    if (Rel + Step < P) {
      int Dst = (Rel + Step + Root) % P;
      co_await World.sendImpl(MyRank, Dst, TagBcast, Data);
    }
  }
  co_return Data;
}

sim::Task<std::vector<double>>
MpiComm::allreduceSum(std::vector<double> Values) {
  std::vector<double> Summed = co_await reduceSum(0, std::move(Values));
  serial::OutputArchive Packed;
  if (MyRank == 0)
    Packed.write(Summed);
  Bytes Wire = co_await bcast(0, Packed.take());
  serial::InputArchive In(Wire);
  std::vector<double> Result;
  if (!In.read(Result))
    Result.clear(); // Malformed internal traffic cannot happen in-sim.
  co_return Result;
}

sim::Task<std::vector<Bytes>> MpiComm::gather(int Root, Bytes Mine) {
  constexpr int TagGather = MpiComm::FirstInternalTag + 5;
  int P = size();
  if (MyRank != Root) {
    serial::OutputArchive Out;
    Out.write(static_cast<int32_t>(MyRank));
    Out.write(static_cast<uint32_t>(Mine.size()));
    Out.writeRaw(Mine);
    co_await World.sendImpl(MyRank, Root, TagGather, Out.take());
    co_return std::vector<Bytes>{};
  }
  std::vector<Bytes> All(static_cast<size_t>(P));
  All[static_cast<size_t>(Root)] = std::move(Mine);
  for (int I = 1; I < P; ++I) {
    RecvResult In = co_await recv(AnySource, TagGather);
    serial::InputArchive Ar(In.Data);
    int32_t Sender = 0;
    uint32_t Len = 0;
    Bytes Chunk;
    if (!Ar.read(Sender) || !Ar.read(Len) || !Ar.readRaw(Chunk, Len))
      continue;
    if (Sender >= 0 && Sender < P)
      All[static_cast<size_t>(Sender)] = std::move(Chunk);
  }
  co_return All;
}

sim::Task<Bytes> MpiComm::scatter(int Root, std::vector<Bytes> Chunks) {
  constexpr int TagScatter = MpiComm::FirstInternalTag + 6;
  int P = size();
  if (MyRank == Root) {
    assert(static_cast<int>(Chunks.size()) == P &&
           "scatter needs one chunk per rank");
    for (int Dst = 0; Dst < P; ++Dst) {
      if (Dst == Root)
        continue;
      co_await World.sendImpl(MyRank, Dst, TagScatter,
                              Chunks[static_cast<size_t>(Dst)]);
    }
    co_return Chunks[static_cast<size_t>(Root)];
  }
  RecvResult In = co_await recv(Root, TagScatter);
  co_return std::move(In.Data);
}

sim::Task<RecvResult> MpiComm::sendRecv(int Dst, int SendTag, Bytes Data,
                                        int Src, int RecvTag) {
  // Post the receive before sending so a symmetric pairwise exchange
  // cannot deadlock.
  sim::Future<RecvResult> Posted = irecv(Src, RecvTag);
  co_await send(Dst, SendTag, std::move(Data));
  RecvResult In = co_await Posted;
  co_return In;
}

sim::Task<std::vector<double>>
MpiComm::reduceSum(int Root, std::vector<double> Values) {
  // Binomial fan-in: children send partial sums to parents.
  constexpr int TagReduce = MpiComm::FirstInternalTag + 4;
  int P = size();
  int Rel = (MyRank - Root + P) % P;
  for (int Step = 1; Step < P; Step <<= 1) {
    if (Rel & Step) {
      // Send our partial sum to the parent and leave.
      int ParentRel = Rel & ~Step;
      int Parent = (ParentRel + Root) % P;
      serial::OutputArchive Out;
      Out.write(Values);
      co_await World.sendImpl(MyRank, Parent, TagReduce, Out.take());
      co_return std::vector<double>{};
    }
    if (Rel + Step < P) {
      RecvResult In = co_await recv(AnySource, TagReduce);
      serial::InputArchive Ar(In.Data);
      std::vector<double> Partial;
      if (Ar.read(Partial)) {
        if (Values.size() < Partial.size())
          Values.resize(Partial.size(), 0.0);
        for (size_t I = 0; I < Partial.size(); ++I)
          Values[I] += Partial[I];
      }
    }
  }
  co_return Values;
}
