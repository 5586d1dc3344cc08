//===- net/Network.cpp ----------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "net/Network.h"

#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Trace.h"

using namespace parcs;
using namespace parcs::net;

FaultHook::~FaultHook() = default;

Network::~Network() {
  metrics::Registry &Reg = metrics::Registry::global();
  Reg.counter("net.messages_delivered").add(Delivered);
  // Every drop is the fault hook's.
  Reg.counter("net.messages_dropped").add(Dropped);
  Reg.counter("net.payload_bytes").add(PayloadBytes);
  Reg.counter("net.wire_bytes").add(WireBytes);
  Reg.counter("net.frames").add(Frames);
  Reg.gauge("net.peak_in_flight").noteMax(PeakInFlight);
}

Network::Network(sim::Simulator &Sim, int NodeCount) : Sim(Sim) {
  assert(NodeCount > 0 && "network needs at least one node");
  Nics.resize(static_cast<size_t>(NodeCount));
}

sim::Channel<Message> *Network::findPort(int NodeId, int Port) const {
  for (const auto &[Bound, Chan] : Nics[static_cast<size_t>(NodeId)].Ports)
    if (Bound == Port)
      return Chan.get();
  return nullptr;
}

sim::Channel<Message> &Network::bind(int NodeId, int Port) {
  assert(NodeId >= 0 && NodeId < nodeCount() && "bind: bad node id");
  if (sim::Channel<Message> *Chan = findPort(NodeId, Port))
    return *Chan;
  auto &Ports = Nics[static_cast<size_t>(NodeId)].Ports;
  Ports.emplace_back(Port, std::make_unique<sim::Channel<Message>>(Sim));
  return *Ports.back().second;
}

bool Network::isBound(int NodeId, int Port) const {
  return NodeId >= 0 && NodeId < nodeCount() && findPort(NodeId, Port);
}

sim::SimTime Network::packetTime(size_t Bytes) const {
  double Seconds =
      static_cast<double>(Bytes) * 8.0 / calib::LinkBitsPerSecond;
  return sim::SimTime::fromSecondsF(Seconds);
}

sim::SimTime Network::wireTime(size_t PayloadBytes) const {
  size_t Mss = static_cast<size_t>(calib::MaxSegmentBytes);
  size_t Packets = PayloadBytes == 0 ? 1 : (PayloadBytes + Mss - 1) / Mss;
  size_t TotalBytes =
      PayloadBytes + Packets * static_cast<size_t>(calib::FrameOverheadBytes);
  return packetTime(TotalBytes);
}

sim::SimTime Network::firstPacketTime(size_t PayloadBytes) const {
  size_t Mss = static_cast<size_t>(calib::MaxSegmentBytes);
  size_t FirstPayload = PayloadBytes < Mss ? PayloadBytes : Mss;
  return packetTime(FirstPayload +
                    static_cast<size_t>(calib::FrameOverheadBytes));
}

// PARCS_HOT_BEGIN(net-message): every message is sent, reserved and
// delivered here in one event, with no coroutine frame; the per-NIC queues
// reuse their slots.

void Network::send(int Src, int Dst, int Port, std::vector<uint8_t> Payload,
                   uint64_t TraceCtx) {
  assert(Src >= 0 && Src < nodeCount() && "send: bad source node");
  assert(Dst >= 0 && Dst < nodeCount() && "send: bad destination node");
  assert(isBound(Dst, Port) && "send: destination port not bound");
  if (Hook && !Hook->nodeAlive(Src)) {
    // A crashed node's NIC blackholes: the send vanishes at the source
    // without occupying the wire.
    ++Dropped;
    return;
  }
  Message Msg;
  Msg.Src = Src;
  Msg.Dst = Dst;
  Msg.Port = Port;
  Msg.Id = NextMessageId++;
  // Loopback skips the fabric, so the sender's context passes through
  // unchanged; arrive() replaces it with the net.wire node's id.
  Msg.TraceCtx = TraceCtx;
  Msg.Payload = std::move(Payload);
  if (Src == Dst) {
    // Loopback: no wire, but keep it asynchronous (one event-queue hop) so
    // local and remote sends have the same re-entrancy behaviour.  A plain
    // callback event with no coroutine frame: the capture is the message
    // plus `this`, exactly the 64-byte inline buffer, so the channel is
    // looked up from the message at delivery rather than captured.
    auto Deliver = [this, Msg = std::move(Msg)]() mutable {
      if (Hook && !Hook->nodeAlive(Msg.Dst)) {
        // The node crashed between send and delivery.
        ++Dropped;
        return;
      }
      ++Delivered;
      PayloadBytes += Msg.Payload.size();
      sim::Channel<Message> &Chan = bind(Msg.Dst, Msg.Port);
      Chan.send(std::move(Msg));
    };
    static_assert(sim::EventCallback::fitsInline<decltype(Deliver)>(),
                  "loopback delivery must not heap-allocate its event");
    Sim.schedule(sim::SimTime(), std::move(Deliver));
    return;
  }

  // The async span covers queueing on the source NIC through delivery (or
  // drop); the in-flight series is the fabric's queue depth over time.
  int64_t EnqueueNs = Sim.now().nanosecondsCount();
  trace::asyncBegin(Src, "net.transfer", EnqueueNs, Msg.Id);
  ++InFlight;
  if (InFlight > PeakInFlight)
    PeakInFlight = InFlight;
  trace::counter(-1, "net.in_flight", EnqueueNs, InFlight);

  Nic &Tx = Nics[static_cast<size_t>(Src)];
  if (Tx.TxQueue.empty() && Tx.TxFreeAt <= Sim.now()) {
    transmit(std::move(Msg), EnqueueNs);
    return;
  }
  // Busy uplink: wait in FIFO order.  The head of the queue starts in the
  // slot reserved for the instant the current transmission ends.
  if (Tx.TxQueue.empty())
    Sim.scheduleAtReserved(Tx.TxFreeAt, Tx.TxFreeSeq,
                           [this, Src] { uplinkFreed(Src); });
  Tx.TxQueue.push_back(Queued{std::move(Msg), EnqueueNs});
}

void Network::transmit(Message Msg, int64_t EnqueueNs) {
  Nic &Tx = Nics[static_cast<size_t>(Msg.Src)];
  Nic &Rx = Nics[static_cast<size_t>(Msg.Dst)];
  sim::SimTime Wire = wireTime(Msg.Payload.size());
  sim::SimTime TxStart = Sim.now();

  // DAG leg 1: time queued behind earlier messages on this NIC.
  uint64_t QueueCtx = 0;
  if (trace::enabled()) {
    QueueCtx = trace::mintCausalId();
    trace::completeCtx(Msg.Src, 0, "net.queue", EnqueueNs,
                       TxStart.nanosecondsCount() - EnqueueNs, QueueCtx,
                       Msg.TraceCtx);
  }

  // Reserve the receiver's downlink now (cut-through: the first packet
  // reaches the receiver one packet time + switch latency after transmit
  // starts; later packets pipeline behind it).
  sim::SimTime RxStart = TxStart + firstPacketTime(Msg.Payload.size()) +
                         calib::SwitchLatency;
  if (Rx.RxFreeAt > RxStart)
    RxStart = Rx.RxFreeAt;
  sim::SimTime RxDone = RxStart + Wire;
  Rx.RxFreeAt = RxDone;

  // Occupy the uplink for the transmit time.  A message queued behind
  // this one starts in the event slot reserved here, at the instant the
  // uplink frees.
  Tx.TxFreeAt = TxStart + Wire;
  Tx.TxFreeSeq = Sim.reserveSeq();

  // The last packet drains through the receiver's port at RxDone.  That
  // is after every earlier reservation on this downlink, so the arrival
  // callbacks pop in the FIFO's order.
  int Dst = Msg.Dst;
  Rx.Arrivals.push_back(Reserved{std::move(Msg), RxDone.nanosecondsCount(),
                                 TxStart.nanosecondsCount(), QueueCtx});
  Sim.scheduleAt(RxDone, [this, Dst] { arrive(Dst); });
}

void Network::uplinkFreed(int Src) {
  Nic &Tx = Nics[static_cast<size_t>(Src)];
  Queued Next = Tx.TxQueue.pop_front();
  transmit(std::move(Next.Msg), Next.EnqueueNs);
  if (!Tx.TxQueue.empty())
    Sim.scheduleAtReserved(Tx.TxFreeAt, Tx.TxFreeSeq,
                           [this, Src] { uplinkFreed(Src); });
}

void Network::arrive(int Dst) {
  Reserved R = Nics[static_cast<size_t>(Dst)].Arrivals.pop_front();
  Message &Msg = R.Msg;
  int64_t DoneNs = Sim.now().nanosecondsCount();
  assert(R.ArriveNs == DoneNs && "downlink arrivals out of FIFO order");

  size_t Mss = static_cast<size_t>(calib::MaxSegmentBytes);
  size_t Packets =
      Msg.Payload.empty() ? 1 : (Msg.Payload.size() + Mss - 1) / Mss;
  WireBytes += Msg.Payload.size() +
               Packets * static_cast<size_t>(calib::FrameOverheadBytes);
  Frames += Packets;

  --InFlight;
  trace::counter(-1, "net.in_flight", DoneNs, InFlight);
  trace::asyncEnd(Msg.Src, "net.transfer", DoneNs, Msg.Id);

  // DAG leg 2: transmit start through last-packet drain at the receiver.
  // Delivery below hands the wire node's id to the dispatcher.
  if (trace::enabled()) {
    uint64_t WireCtx = trace::mintCausalId();
    trace::completeCtx(Msg.Src, 0, "net.wire", R.TxStartNs,
                       DoneNs - R.TxStartNs, WireCtx, R.QueueCtx);
    Msg.TraceCtx = WireCtx;
  }

  // Seeded fault injection (src/fault): extra latency first, then the
  // delivery verdict.
  if (Hook) {
    sim::SimTime Extra = Hook->extraLatency(Msg.Src, Msg.Dst);
    if (Extra > sim::SimTime()) {
      auto Late = [this, Msg = std::move(Msg)]() mutable {
        deliver(std::move(Msg));
      };
      static_assert(sim::EventCallback::fitsInline<decltype(Late)>(),
                    "a delayed delivery must not heap-allocate its event");
      Sim.schedule(Extra, std::move(Late));
      return;
    }
  }
  deliver(std::move(Msg));
}

void Network::deliver(Message Msg) {
  // The hook owns its own trace/metric emission; the fabric only accounts
  // the drop.
  if (Hook) {
    FaultHook::Verdict V = Hook->onDeliver(Msg.Src, Msg.Dst, Msg.Payload);
    if (V != FaultHook::Verdict::Deliver) {
      ++Dropped;
      LogNodeScope Scope(Msg.Dst);
      PARCS_LOG(Debug, "net: fault-dropped msg " << Msg.Id << " ("
                                                 << static_cast<int>(V)
                                                 << ")");
      return;
    }
  }

  ++Delivered;
  PayloadBytes += Msg.Payload.size();

  {
    LogNodeScope Scope(Msg.Dst);
    PARCS_LOG(Debug, "net: delivered msg " << Msg.Id << " " << Msg.Src << "->"
                                           << Msg.Dst << ":" << Msg.Port
                                           << " (" << Msg.Payload.size()
                                           << "B)");
  }
  sim::Channel<Message> &Port = bind(Msg.Dst, Msg.Port);
  Port.send(std::move(Msg));
}

// PARCS_HOT_END
