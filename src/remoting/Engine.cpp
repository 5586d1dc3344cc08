//===- remoting/Engine.cpp ------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "remoting/Engine.h"

#include "serial/Crc32.h"
#include "support/Logging.h"
#include "support/PostMortem.h"
#include "support/TelemetrySink.h"
#include "support/Trace.h"

#include <algorithm>
#include <charconv>
#include <iterator>

using namespace parcs;
using namespace parcs::remoting;

namespace {

/// "Mono 1.1.7 (Tcp)" -> "mono_1_1_7_tcp": profile display names become
/// metric-name segments.
std::string profileSlug(std::string_view Name) {
  std::string Slug;
  Slug.reserve(Name.size());
  for (char C : Name) {
    if (C >= 'A' && C <= 'Z')
      Slug += static_cast<char>(C - 'A' + 'a');
    else if ((C >= 'a' && C <= 'z') || (C >= '0' && C <= '9'))
      Slug += C;
    else if (!Slug.empty() && Slug.back() != '_')
      Slug += '_';
  }
  while (!Slug.empty() && Slug.back() == '_')
    Slug.pop_back();
  return Slug;
}

/// Globally unique async-span id for a call: CallId is only unique per
/// endpoint, so mix in the issuing (node, port).
uint64_t callSpanId(int Node, int Port, uint64_t CallId) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(Node + 1)) << 48) ^
         (static_cast<uint64_t>(static_cast<uint32_t>(Port)) << 32) ^ CallId;
}

void appendText(Bytes &Out, std::string_view Text) {
  Out.insert(Out.end(), Text.begin(), Text.end());
}

void appendNumber(Bytes &Out, size_t Value) {
  char Buf[20];
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), Value).ptr;
  Out.insert(Out.end(), Buf, End);
}

/// Realistic HTTP/1.0 request header for the HttpChannel (the bytes are
/// really on the wire; Content-Length is filled in per message).  Appended
/// piecewise to the wire buffer -- no intermediate header string.
void appendHttpRequestHeader(Bytes &Out, size_t ContentLength,
                             std::string_view Action) {
  appendText(Out, "POST /factory.soap HTTP/1.0\r\n");
  appendText(Out,
             "User-Agent: Mozilla/4.0+(compatible; Mono Remoting; MonoCLR)\r\n");
  appendText(Out, "Content-Type: text/xml; charset=\"utf-8\"\r\n");
  appendText(Out, "SOAPAction: \"http://schemas.microsoft.com/clr/");
  appendText(Out, Action);
  appendText(Out, "\"\r\n");
  appendText(Out, "Expect: 100-continue\r\n");
  appendText(Out, "Connection: Keep-Alive\r\n");
  appendText(Out, "Content-Length: ");
  appendNumber(Out, ContentLength);
  appendText(Out, "\r\n\r\n");
}

void appendHttpResponseHeader(Bytes &Out, size_t ContentLength) {
  appendText(Out, "HTTP/1.0 200 OK\r\n");
  appendText(Out, "Server: Mono Remoting Server/1.1\r\n");
  appendText(Out, "Content-Type: text/xml; charset=\"utf-8\"\r\n");
  appendText(Out, "Content-Length: ");
  appendNumber(Out, ContentLength);
  appendText(Out, "\r\n\r\n");
}

/// Upper bound on the headers above (the request header with a long
/// SOAPAction stays comfortably under this).
constexpr size_t MaxHttpHeaderBytes = 320;

} // namespace

CallHandler::~CallHandler() = default;

RpcEndpoint::RpcEndpoint(vm::Node &Host, net::Network &Net,
                         const StackProfile &Profile, int Port,
                         int DispatchWorkers)
    : Host(Host), Net(Net), Profile(Profile), Port(Port),
      Pool(Host, DispatchWorkers),
      MetricsPrefix("rpc." + profileSlug(Profile.Name)) {
  assert(!Net.isBound(Host.id(), Port) &&
         "another endpoint is already bound to this node:port");
  CallLatency = &metrics::Registry::global().histogram(MetricsPrefix +
                                                       ".call_latency_ns");
  // A node crash kills every in-flight handler, so dedup entries that were
  // in progress at that moment can never complete -- left in place they
  // would suppress retries forever.  Restart wipes them (exactly the
  // in-flight state a real server loses when it reboots); finished entries
  // keep their cached replies and at-most-once still holds within one
  // liveness epoch.
  RestartHookId = Host.addRestartHook([this] {
    Dedup.dropInProgress();
    // A crash also kills any in-progress migration on this node: parked
    // calls die with the endpoint's volatile state (their callers' retries
    // re-execute them through the wiped dedup entries above), the park
    // itself lifts, and the executing-handler counts those dead coroutines
    // held are settled.  Moved tombstones survive: they are routing
    // knowledge, not in-flight state, and the destination copy is alive.
    for (auto It = Names.begin(); It != Names.end();) {
      NameRecord &Rec = It->second;
      Rec.Parked = false;
      Rec.ParkedCalls.clear();
      Rec.InFlight = 0;
      It = Rec.idle() ? Names.erase(It) : std::next(It);
    }
    // Queued pool items survived the crash and still decrement the
    // backlog as they run; the executing handlers' decrements died.
    AdmittedBacklog = Pool.queueDepth();
  });
  Net.bind(Host.id(), Port);
  Host.sim().spawn(dispatchLoop());
}

RpcEndpoint::~RpcEndpoint() {
  // Calls still awaiting replies live in frames the simulator reaps later;
  // they must not reach back into this endpoint then.
  Pending.detachAll();
  Host.removeRestartHook(RestartHookId);
  metrics::Registry &Reg = metrics::Registry::global();
  Reg.counter(MetricsPrefix + ".calls_issued").add(Stats.CallsIssued);
  Reg.counter(MetricsPrefix + ".calls_handled").add(Stats.CallsHandled);
  Reg.counter(MetricsPrefix + ".replies_received").add(Stats.RepliesReceived);
  Reg.counter(MetricsPrefix + ".oneway_sent").add(Stats.OneWaySent);
  Reg.counter(MetricsPrefix + ".wire_bytes_sent").add(Stats.WireBytesSent);
  Reg.counter(MetricsPrefix + ".malformed_dropped").add(Stats.MalformedDropped);
  Reg.counter(MetricsPrefix + ".late_replies").add(Stats.LateReplies);
  Reg.counter(MetricsPrefix + ".corrupted_dropped").add(Stats.CorruptedDropped);
  Reg.counter(MetricsPrefix + ".retries").add(Stats.Retries);
  Reg.counter(MetricsPrefix + ".retries_exhausted")
      .add(Stats.RetriesExhausted);
  Reg.counter(MetricsPrefix + ".dedup_hits").add(Stats.DedupHits);
  Reg.counter(MetricsPrefix + ".dedup_suppressed").add(Stats.DedupSuppressed);
  Reg.counter(MetricsPrefix + ".overload_rejected").add(Stats.OverloadRejected);
  Reg.counter(MetricsPrefix + ".overload_shed").add(Stats.OverloadShed);
  Reg.counter(MetricsPrefix + ".overload_deferred").add(Stats.OverloadDeferred);
  Reg.counter(MetricsPrefix + ".overload_exhausted")
      .add(Stats.OverloadExhausted);
  Reg.counter(MetricsPrefix + ".calls_parked").add(Stats.CallsParked);
  Reg.counter(MetricsPrefix + ".calls_forwarded").add(Stats.CallsForwarded);
}

void RpcEndpoint::publish(const std::string &Name,
                          std::shared_ptr<CallHandler> Object) {
  assert(Object && "publishing a null object");
  NameRecord &Rec = Names[Name];
  Rec.Published = true;
  Rec.Mode = WellKnownObjectMode::Singleton;
  Rec.Factory = nullptr;
  Rec.Instance = std::move(Object);
}

void RpcEndpoint::publishWellKnown(const std::string &Name,
                                   HandlerFactory Factory,
                                   WellKnownObjectMode Mode) {
  assert(Factory && "publishing a null factory");
  NameRecord &Rec = Names[Name];
  Rec.Published = true;
  Rec.Mode = Mode;
  Rec.Factory = std::move(Factory);
  Rec.Instance = nullptr;
}

bool RpcEndpoint::unpublish(const std::string &Name) {
  auto It = Names.find(Name);
  if (It == Names.end() || !It->second.Published)
    return false;
  // A name still executing keeps its record (and count) until those calls
  // finish.
  NameRecord &Rec = It->second;
  Rec.Published = false;
  Rec.Factory = nullptr;
  Rec.Instance = nullptr;
  if (Rec.idle())
    Names.erase(It);
  return true;
}

sim::SimTime RpcEndpoint::sideCost(size_t WireBytes) const {
  return Profile.FixedPerSide +
         sim::SimTime::fromSecondsF(Profile.PerByteNs * 1e-9 *
                                    static_cast<double>(WireBytes));
}

// PARCS_HOT_BEGIN(wire-framing): once per RPC in each direction; each
// frame is one buffer, sized up front, that the body is written into, and
// unframing aliases the wire bytes.

template <typename WriteBody>
Bytes RpcEndpoint::frame(MsgKind Kind, std::string_view EnvelopeName,
                         size_t BodySize, WriteBody &&Write) const {
  bool Checksummed = wireChecksums();
  size_t Content =
      1 + serial::envelopeSize(Profile.Format, EnvelopeName.size(), BodySize);
  Bytes Wire;
  Wire.reserve((Profile.HttpFraming ? MaxHttpHeaderBytes : 0) + Content +
               (Checksummed ? 4 : 0));
  if (Profile.HttpFraming) {
    // The HTTP header carries the content length, known up front.
    if (Kind == KindReturn)
      appendHttpResponseHeader(Wire, Content);
    else
      appendHttpRequestHeader(Wire, Content, EnvelopeName);
  }
  Wire.push_back(static_cast<uint8_t>(Kind));
  serial::SpanWriter Body(
      serial::openEnvelope(Profile.Format, EnvelopeName, BodySize, Wire),
      BodySize);
  Write(Body);
  assert(Body.full() && "message body does not fill its declared size");
  serial::closeEnvelope(Profile.Format, EnvelopeName, BodySize, Wire);
  if (Checksummed) {
    // Integrity trailer (only while faults can corrupt frames): CRC32 of
    // everything before it, little-endian.
    uint32_t Crc = serial::crc32(Wire.data(), Wire.size());
    Wire.push_back(static_cast<uint8_t>(Crc));
    Wire.push_back(static_cast<uint8_t>(Crc >> 8));
    Wire.push_back(static_cast<uint8_t>(Crc >> 16));
    Wire.push_back(static_cast<uint8_t>(Crc >> 24));
  }
  return Wire;
}

Bytes RpcEndpoint::frameCall(const CallHeader &H, std::string_view ObjectName,
                             std::string_view Method,
                             std::span<const uint8_t> Args) const {
  size_t Size = 8 + 1 + ((H.Flags & FlagHasContext) ? 16 : 0) +
                ((H.Flags & FlagHasDedup) ? 8 : 0) + 4 + 4 +
                (4 + ObjectName.size()) + (4 + Method.size()) + 4 +
                Args.size();
  return frame(KindCall, Method, Size, [&](serial::SpanWriter &Body) {
    Body.write(H.CallId);
    Body.write(H.Flags);
    if (H.Flags & FlagHasContext) {
      Body.write(H.Ctx);
      Body.write(H.Parent);
    }
    if (H.Flags & FlagHasDedup)
      Body.write(H.DedupId);
    Body.write(H.ReplyNode);
    Body.write(H.ReplyPort);
    Body.write(ObjectName);
    Body.write(Method);
    Body.write(static_cast<uint32_t>(Args.size()));
    Body.writeRaw(Args);
  });
}

Bytes RpcEndpoint::frameReply(uint64_t CallId, uint8_t Status,
                              std::span<const uint8_t> Rest) const {
  return frame(KindReturn, "ret", 8 + 1 + Rest.size(),
               [&](serial::SpanWriter &Body) {
                 Body.write(CallId);
                 Body.write(Status);
                 Body.writeRaw(Rest);
               });
}

ErrorOr<std::span<const uint8_t>> RpcEndpoint::unframe(const Bytes &Wire) const {
  size_t Size = Wire.size();
  if (wireChecksums()) {
    // Verify and strip the integrity trailer before trusting any byte of
    // the frame -- a flipped bit anywhere (header included) must not be
    // mis-decoded.
    if (Size < 5)
      return Error(ErrorCode::ChecksumMismatch,
                   "frame too short for its checksum trailer");
    uint32_t Stored = static_cast<uint32_t>(Wire[Size - 4]) |
                      (static_cast<uint32_t>(Wire[Size - 3]) << 8) |
                      (static_cast<uint32_t>(Wire[Size - 2]) << 16) |
                      (static_cast<uint32_t>(Wire[Size - 1]) << 24);
    if (serial::crc32(Wire.data(), Size - 4) != Stored)
      return Error(ErrorCode::ChecksumMismatch, "frame checksum mismatch");
    Size -= 4;
  }
  if (!Profile.HttpFraming)
    return std::span<const uint8_t>(Wire.data(), Size);
  // Parse the header in place over a view of the wire bytes and honour
  // Content-Length; the returned span aliases the body inside Wire.
  std::string_view Text(reinterpret_cast<const char *>(Wire.data()), Size);
  size_t Split = Text.find("\r\n\r\n");
  if (Split == std::string_view::npos)
    return Error(ErrorCode::MalformedMessage, "http framing: no header end");
  size_t BodyStart = Split + 4;
  size_t LenPos = Text.find("Content-Length: ");
  if (LenPos == std::string_view::npos || LenPos > Split)
    return Error(ErrorCode::MalformedMessage, "http framing: no length");
  size_t Length = 0;
  const char *Digits = Text.data() + LenPos + 16;
  if (std::from_chars(Digits, Text.data() + Text.size(), Length).ec !=
      std::errc())
    return Error(ErrorCode::MalformedMessage, "http framing: bad length");
  if (BodyStart + Length > Size)
    return Error(ErrorCode::MalformedMessage, "http framing: short body");
  return std::span<const uint8_t>(Wire.data() + BodyStart, Length);
}

bool RpcEndpoint::readCallHeader(serial::InputArchive &Body, CallHeader &H) {
  return Body.read(H.CallId) && Body.read(H.Flags) &&
         (!(H.Flags & FlagHasContext) ||
          (Body.read(H.Ctx) && Body.read(H.Parent))) &&
         (!(H.Flags & FlagHasDedup) || Body.read(H.DedupId)) &&
         Body.read(H.ReplyNode) && Body.read(H.ReplyPort);
}

// PARCS_HOT_END

ErrorOr<std::shared_ptr<CallHandler>>
RpcEndpoint::resolveTarget(NameRecord *Rec, std::string_view Name) {
  if (!Rec || !Rec->Published)
    return Error(ErrorCode::UnknownObject,
                 "no object published as '" + std::string(Name) + "'");
  if (Rec->Mode == WellKnownObjectMode::SingleCall) {
    // A fresh instance per call; no state is retained.
    return Rec->Factory();
  }
  if (!Rec->Instance) {
    assert(Rec->Factory && "singleton registration without factory");
    Rec->Instance = Rec->Factory();
  }
  return Rec->Instance;
}

bool RpcEndpoint::firstContact(int DstNode, int DstPort) {
  if (Profile.ConnectSetup.isZero() || DstNode == Host.id())
    return false;
  assert(DstNode >= 0 && "connecting to a negative node id");
  if (static_cast<size_t>(DstNode) >= ConnectedPorts.size())
    ConnectedPorts.resize(static_cast<size_t>(DstNode) + 1);
  std::vector<int> &Ports = ConnectedPorts[static_cast<size_t>(DstNode)];
  if (std::find(Ports.begin(), Ports.end(), DstPort) != Ports.end())
    return false;
  Ports.push_back(DstPort);
  return true;
}

sim::Task<ErrorOr<Bytes>> RpcEndpoint::call(int DstNode, int DstPort,
                                            std::string ObjectName,
                                            std::string Method, Bytes Args,
                                            sim::SimTime Timeout,
                                            uint64_t ParentCtx,
                                            uint64_t DedupId) {
  if (firstContact(DstNode, DstPort))
    co_await Host.sim().delay(Profile.ConnectSetup);
  co_return co_await issue(DstNode, DstPort, ObjectName, Method, Args,
                           Timeout, ParentCtx, DedupId);
}

// PARCS_HOT_BEGIN(rpc-call): the steady-state call after the connect
// check; its only allocation is the request frame, and it awaits the
// reply in its own frame.

sim::Task<ErrorOr<Bytes>>
RpcEndpoint::issue(int DstNode, int DstPort, std::string_view ObjectName,
                   std::string_view Method, std::span<const uint8_t> Args,
                   sim::SimTime Timeout, uint64_t ParentCtx,
                   uint64_t DedupId, uint64_t *RetryAfterNs) {
  // The round trip's causal identity: minted here, carried in the body's
  // optional context header, restored server-side.  0 (and absent from
  // the wire) when tracing is off.
  CallHeader H;
  H.CallId = NextCallId++;
  H.Ctx = trace::mintCausalId();
  H.Parent = ParentCtx;
  H.DedupId = DedupId;
  H.Flags = static_cast<uint8_t>((H.Ctx ? FlagHasContext : 0) |
                                 (DedupId ? FlagHasDedup : 0));
  H.ReplyNode = Host.id();
  H.ReplyPort = Port;
  Bytes Wire = frameCall(H, ObjectName, Method, Args);
  ++Stats.CallsIssued;
  Stats.WireBytesSent += Wire.size();

  int64_t IssuedNs = Host.sim().now().nanosecondsCount();
  uint64_t SpanId = callSpanId(Host.id(), Port, H.CallId);
  trace::asyncBeginCtx(Host.id(), "rpc.call", IssuedNs, SpanId, H.Ctx,
                       ParentCtx);

  PendingCall Reply(*this, H.CallId, H.Ctx, RetryAfterNs);

  // Client-side marshalling + channel sink cost, then hand to the NIC.
  co_await Host.compute(sideCost(Wire.size()));
  uint64_t SendCtx = 0;
  if (H.Ctx) {
    SendCtx = trace::mintCausalId();
    trace::completeCtx(Host.id(), 0, "rpc.send", IssuedNs,
                       Host.sim().now().nanosecondsCount() - IssuedNs,
                       SendCtx, H.Ctx);
  }
  Net.send(Host.id(), DstNode, DstPort, std::move(Wire), SendCtx);

  // If no reply has completed the call by the deadline, the call fails and
  // is forgotten (a late reply is then counted and dropped).
  if (Timeout > sim::SimTime())
    addDeadline(Timeout, H.CallId);

  ErrorOr<Bytes> Result = co_await Reply;
  int64_t DoneNs = Host.sim().now().nanosecondsCount();
  CallLatency->record(DoneNs - IssuedNs);
  telemetry::count(Host.id(), "rpc.calls", DoneNs);
  telemetry::record(Host.id(), "rpc.call.latency", DoneNs, DoneNs - IssuedNs);
  trace::asyncEndCtx(Host.id(), "rpc.call", DoneNs, SpanId, H.Ctx, ParentCtx);
  co_return Result;
}

RpcEndpoint::PendingCall::PendingCall(RpcEndpoint &Endpoint, uint64_t CallId,
                                      uint64_t Ctx, uint64_t *RetryAfterNs)
    : Owner(&Endpoint), CallId(CallId), Ctx(Ctx), RetryAfterNs(RetryAfterNs) {
  Endpoint.Pending.insert(this);
}

RpcEndpoint::PendingCall::~PendingCall() {
  if (Owner)
    Owner->Pending.take(CallId);
}

void RpcEndpoint::complete(PendingCall &Call, ErrorOr<Bytes> Result) {
  Call.Owner = nullptr;
  Call.Result.emplace(std::move(Result));
  if (Call.Waiter)
    Host.sim().scheduleResume(sim::SimTime(), Call.Waiter);
}

void RpcEndpoint::PendingTable::insert(PendingCall *Call) {
  if (2 * (Count + 1) > Slots.size())
    grow();
  size_t Mask = Slots.size() - 1;
  size_t I = Call->CallId & Mask;
  while (Slots[I].Call)
    I = (I + 1) & Mask;
  Slots[I] = Slot{Call->CallId, Call};
  ++Count;
}

size_t RpcEndpoint::PendingTable::slotOf(uint64_t CallId) const {
  if (Slots.empty())
    return 0;
  size_t Mask = Slots.size() - 1;
  for (size_t I = CallId & Mask; Slots[I].Call; I = (I + 1) & Mask)
    if (Slots[I].CallId == CallId)
      return I;
  return Slots.size();
}

RpcEndpoint::PendingCall *
RpcEndpoint::PendingTable::find(uint64_t CallId) const {
  size_t I = slotOf(CallId);
  return I == Slots.size() ? nullptr : Slots[I].Call;
}

RpcEndpoint::PendingCall *RpcEndpoint::PendingTable::take(uint64_t CallId) {
  size_t Hole = slotOf(CallId);
  if (Hole == Slots.size())
    return nullptr;
  size_t Mask = Slots.size() - 1;
  PendingCall *Call = Slots[Hole].Call;
  // Backward-shift deletion, as in the dedup index: pull back every later
  // entry of the probe run whose home does not lie cyclically in
  // (Hole, J], so each stays reachable from its home without a gap.
  for (size_t J = (Hole + 1) & Mask; Slots[J].Call; J = (J + 1) & Mask) {
    size_t Home = Slots[J].CallId & Mask;
    if (((J - Home) & Mask) >= ((J - Hole) & Mask)) {
      Slots[Hole] = Slots[J];
      Hole = J;
    }
  }
  Slots[Hole] = Slot{};
  --Count;
  return Call;
}

// PARCS_HOT_END

void RpcEndpoint::PendingTable::grow() {
  std::vector<Slot> Old = std::move(Slots);
  Slots.assign(Old.empty() ? 16 : 2 * Old.size(), Slot{});
  Count = 0;
  for (const Slot &S : Old)
    if (S.Call)
      insert(S.Call);
}

void RpcEndpoint::PendingTable::detachAll() {
  for (Slot &S : Slots)
    if (S.Call)
      S.Call->Owner = nullptr;
}

// PARCS_HOT_BEGIN(rpc-deadline): every call with a deadline pays one heap
// push here and one pop later; the heap and the timer stack reuse their
// capacity and a timer captures only `this`.

void RpcEndpoint::addDeadline(sim::SimTime Timeout, uint64_t CallId) {
  // Claim the sequence number a timer scheduled right now would take:
  // whenever this deadline's timer is armed, it fires in that slot, so the
  // event stream is the one a timer per call would give, minus the timers
  // of answered calls.
  sim::Simulator &Sim = Host.sim();
  Deadline D{(Sim.now() + Timeout).nanosecondsCount(), Sim.reserveSeq(),
             CallId};
  Deadlines.push_back(D);
  std::push_heap(Deadlines.begin(), Deadlines.end(), laterDeadline);
  if (DeadlineTimers.empty() || laterDeadline(DeadlineTimers.back(), D))
    armDeadlineTimer(D);
}

void RpcEndpoint::armDeadlineTimer(const Deadline &D) {
  DeadlineTimers.push_back(D);
  Host.sim().scheduleAtReserved(sim::SimTime::nanoseconds(D.AtNs), D.Seq,
                                [this] { fireDeadlineTimer(); });
}

void RpcEndpoint::pruneDeadlines() {
  while (!Deadlines.empty() && !Pending.find(Deadlines.front().CallId)) {
    std::pop_heap(Deadlines.begin(), Deadlines.end(), laterDeadline);
    Deadlines.pop_back();
  }
}

void RpcEndpoint::fireDeadlineTimer() {
  // Timers pop in key order and are armed only ahead of every pending one,
  // so the timer firing now is the back of the stack.
  uint64_t Seq = DeadlineTimers.back().Seq;
  DeadlineTimers.pop_back();
  ++DeadlineTimersFired;
  // The heap top is never earlier than this timer; it is this timer's own
  // deadline unless that call was answered and pruned.
  if (!Deadlines.empty() && Deadlines.front().Seq == Seq)
    if (PendingCall *Timed = Pending.take(Deadlines.front().CallId))
      complete(*Timed, Error(ErrorCode::TimedOut,
                             "no reply within the call deadline"));
  pruneDeadlines();
  if (Deadlines.empty())
    return;
  const Deadline &Next = Deadlines.front();
  if (DeadlineTimers.empty() || laterDeadline(DeadlineTimers.back(), Next))
    armDeadlineTimer(Next);
}

// PARCS_HOT_END

sim::Task<ErrorOr<Bytes>> RpcEndpoint::callReliable(int DstNode, int DstPort,
                                                    std::string ObjectName,
                                                    std::string Method,
                                                    Bytes Args,
                                                    uint64_t ParentCtx) {
  if (!Retry.enabled()) {
    // Degraded mode: exactly one plain call -- same frames, same events
    // as code that never heard of retries (AttemptTimeout is zero here
    // unless the caller configured a deadline without retries).
    if (firstContact(DstNode, DstPort))
      co_await Host.sim().delay(Profile.ConnectSetup);
    co_return co_await issue(DstNode, DstPort, ObjectName, Method, Args,
                             Retry.AttemptTimeout, ParentCtx, 0);
  }

  uint64_t DedupId = NextDedupId++;
  if (firstContact(DstNode, DstPort))
    co_await Host.sim().delay(Profile.ConnectSetup);
  sim::SimTime Backoff = BaseBackoff;
  sim::SimTime Deadline = Retry.AttemptTimeout;
  int Attempt = 1;
  int OverloadWaits = 0;
  for (;;) {
    // Every attempt borrows this frame's name, method and arguments; a
    // refusal hands its retry-after hint back through HintNs.
    uint64_t HintNs = 0;
    ErrorOr<Bytes> Result =
        co_await issue(DstNode, DstPort, ObjectName, Method, Args, Deadline,
                       ParentCtx, DedupId, &HintNs);
    if (Result)
      co_return Result;
    ErrorCode Code = Result.error().code();
    if (Code == ErrorCode::Overloaded) {
      // The server refused admission and said when to come back.  The
      // reply proved the network and the server alive, so this does not
      // burn a transport attempt: it waits out the server's deterministic
      // retry-after hint (its own bounded budget) and tries again under
      // the same dedup id.
      if (OverloadWaits >= Retry.MaxOverloadWaits) {
        ++Stats.OverloadExhausted;
        // Distinct post-mortem reason: congestion collapse at the peer,
        // not a dead network -- operators page differently on the two.
        postmortem::fire("overloaded", Host.id(),
                         Host.sim().now().nanosecondsCount());
        co_return Error(ErrorCode::Overloaded,
                        "server overloaded: '" + ObjectName + "." + Method +
                            "' on node " + std::to_string(DstNode));
      }
      ++OverloadWaits;
      ++Stats.OverloadDeferred;
      trace::instant(Host.id(), 0, "rpc.overload_wait",
                     Host.sim().now().nanosecondsCount());
      sim::SimTime Wait =
          HintNs > 0 ? sim::SimTime::nanoseconds(static_cast<int64_t>(HintNs))
                     : Backoff;
      co_await Host.sim().delay(Wait);
      continue;
    }
    if (Code != ErrorCode::TimedOut && Code != ErrorCode::ChecksumMismatch)
      // Unknown object, remote fault, malformed reply...: retrying won't
      // change the answer.
      co_return Result;
    if (Attempt >= Retry.MaxAttempts) {
      ++Stats.RetriesExhausted;
      postmortem::fire("retries_exhausted", Host.id(),
                       Host.sim().now().nanosecondsCount());
      co_return Error(ErrorCode::ConnectionFailed,
                      "retries exhausted: '" + ObjectName + "." + Method +
                          "' on node " + std::to_string(DstNode));
    }
    ++Attempt;
    ++Stats.Retries;
    trace::instant(Host.id(), 0, "rpc.retry",
                   Host.sim().now().nanosecondsCount());
    // PARCS_HOT_BEGIN(rpc-retry): the backoff/deadline schedule is
    // integer arithmetic plus one seeded draw -- no allocation, no
    // wall clock.
    int64_t HalfNs = Backoff.nanosecondsCount() / 2;
    sim::SimTime Jitter = sim::SimTime::nanoseconds(static_cast<int64_t>(
        RetryRng.nextBelow(static_cast<uint64_t>(HalfNs) + 1)));
    sim::SimTime Wait = Backoff + Jitter;
    // The backoff doubles per retry, up to MaxBackoff.
    constexpr double BackoffFactor = 2.0;
    sim::SimTime Next =
        sim::SimTime::fromSecondsF(Backoff.toSecondsF() * BackoffFactor);
    Backoff = Next < Retry.MaxBackoff ? Next : Retry.MaxBackoff;
    if (Retry.TimeoutFactor > 1.0) {
      sim::SimTime Grown = sim::SimTime::fromSecondsF(
          Deadline.toSecondsF() * Retry.TimeoutFactor);
      Deadline = (Retry.MaxAttemptTimeout > sim::SimTime() &&
                  Retry.MaxAttemptTimeout < Grown)
                     ? Retry.MaxAttemptTimeout
                     : Grown;
    }
    // PARCS_HOT_END
    co_await Host.sim().delay(Wait);
  }
}

sim::Task<void> RpcEndpoint::callOneWay(int DstNode, int DstPort,
                                        std::string ObjectName,
                                        std::string Method, Bytes Args,
                                        uint64_t ParentCtx) {
  if (firstContact(DstNode, DstPort))
    co_await Host.sim().delay(Profile.ConnectSetup);
  CallHeader H;
  H.CallId = NextCallId++;
  H.Ctx = trace::mintCausalId();
  H.Parent = ParentCtx;
  H.Flags = static_cast<uint8_t>(FlagOneWay | (H.Ctx ? FlagHasContext : 0));
  H.ReplyNode = Host.id();
  H.ReplyPort = Port;
  Bytes Wire = frameCall(H, ObjectName, Method, Args);
  ++Stats.OneWaySent;
  Stats.WireBytesSent += Wire.size();
  int64_t IssuedNs = Host.sim().now().nanosecondsCount();
  trace::instantCtx(Host.id(), 0, "rpc.oneway", IssuedNs, H.Ctx, ParentCtx);
  co_await Host.compute(sideCost(Wire.size()));
  uint64_t SendCtx = 0;
  if (H.Ctx) {
    SendCtx = trace::mintCausalId();
    trace::completeCtx(Host.id(), 0, "rpc.send", IssuedNs,
                       Host.sim().now().nanosecondsCount() - IssuedNs,
                       SendCtx, H.Ctx);
  }
  Net.send(Host.id(), DstNode, DstPort, std::move(Wire), SendCtx);
}

sim::Task<void> RpcEndpoint::dispatchLoop() {
  // parcs-lint: allow(suspension-ref): the channel lives in Network's bind
  // map, which is stable for the simulation's lifetime.
  sim::Channel<net::Message> &Inbox = Net.bind(Host.id(), Port);
  for (;;) {
    net::Message Msg = co_await Inbox.recv();
    // parcs-lint: allow(suspension-ref): Content aliases Msg.Payload, which
    // this frame owns and does not touch across the compute suspension.
    ErrorOr<std::span<const uint8_t>> Content = unframe(Msg.Payload);
    if (!Content || Content->empty()) {
      if (!Content &&
          Content.error().code() == ErrorCode::ChecksumMismatch) {
        // Fault-injected corruption caught by the wire CRC: counted
        // separately (it is expected under a chaos plan) and dropped
        // before any byte is decoded.  The sender's timeout/retry covers
        // recovery.
        ++Stats.CorruptedDropped;
        trace::instant(Host.id(), 0, "fault.corrupt_dropped",
                       Host.sim().now().nanosecondsCount());
        LogNodeScope Scope(Host.id());
        PARCS_LOG(Debug, "endpoint " << Host.id() << ":" << Port
                                     << " dropped corrupted frame");
        continue;
      }
      ++Stats.MalformedDropped;
      LogNodeScope Scope(Host.id());
      PARCS_LOG(Warn, "endpoint " << Host.id() << ":" << Port
                                  << " dropped malformed message");
      continue;
    }
    uint8_t Kind = Content->front();
    if (Kind == KindReturn) {
      // Replies are decoded on the I/O thread: charge the receive cost,
      // then resolve the pending call.  computeChecked (not compute) so a
      // crash never parks the dispatch loop -- the endpoint must be
      // listening again after a restart.
      int64_t RecvNs = Host.sim().now().nanosecondsCount();
      if (!co_await Host.computeChecked(sideCost(Msg.Payload.size())))
        continue;
      handleReturn(Msg.Payload, *Content, RecvNs, Msg.TraceCtx);
      continue;
    }
    if (Kind == KindCall) {
      // PARCS_HOT_BEGIN(rpc-admission): the admission decision is one
      // integer compare against live backlog -- no allocation; only the
      // (rare) rejection path builds a reply.
      if (Admission.enabled() && AdmittedBacklog >= Admission.MaxPending) {
        // Budget exhausted: refuse before the call touches the pool, so
        // rejected work costs a fixed-size reply rather than an unbounded
        // queue wait.  Handled inline on the dispatch path -- rejection
        // must not itself queue behind the congestion it polices.
        co_await rejectOverloaded(std::move(Msg));
        continue;
      }
      // PARCS_HOT_END
      // Calls are dispatched through the node's (bounded) thread pool;
      // this is where Mono's small pool throttles overlap.
      ++Stats.CallsHandled;
      ++AdmittedBacklog;
      auto Self = this;
      if (!trace::enabled()) {
        // Untraced shape: [this + Message] fits the pool's inline work
        // item exactly; keep it that way (the traced shape below adds the
        // receive timestamp and may spill to the heap, which only traced
        // runs pay).
        Pool.post([Self,
                   Owned = std::move(Msg)]() mutable -> sim::Task<void> {
          return Self->handleCall(std::move(Owned), 0);
        });
        continue;
      }
      int64_t RecvNs = Host.sim().now().nanosecondsCount();
      Pool.post([Self, RecvNs,
                 Owned = std::move(Msg)]() mutable -> sim::Task<void> {
        return Self->handleCall(std::move(Owned), RecvNs);
      });
      continue;
    }
    ++Stats.MalformedDropped;
  }
}

// PARCS_HOT_BEGIN(rpc-return): every reply is parsed in place and its
// result takes over the received frame; the pending call is one probe.

void RpcEndpoint::handleReturn(Bytes &Frame, std::span<const uint8_t> Content,
                               int64_t RecvNs, uint64_t WireCtx) {
  ErrorOr<serial::EnvelopeView> Env = serial::decodeEnvelopeView(
      Profile.Format, Content.data() + 1, Content.size() - 1);
  if (!Env) {
    ++Stats.MalformedDropped;
    return;
  }
  serial::InputArchive Body(Env->Payload);
  uint64_t CallId = 0;
  uint8_t Status = 0;
  if (!Body.read(CallId) || !Body.read(Status)) {
    ++Stats.MalformedDropped;
    return;
  }
  PendingCall *Call = Pending.take(CallId);
  if (!Call) {
    // Call ids are minted here in increasing order, so an id below the
    // next one names a call this endpoint issued: its reply raced the
    // deadline and lost, which is expected under loss plus timeouts.
    // Count it as late, not malformed, and stay quiet.
    if (CallId != 0 && CallId < NextCallId)
      ++Stats.LateReplies;
    else
      ++Stats.MalformedDropped;
    return;
  }
  if (!Deadlines.empty() && Deadlines.front().CallId == CallId)
    pruneDeadlines();
  ++Stats.RepliesReceived;
  if (trace::enabled()) {
    // Reply-side deserialize leg, chained off the reply's wire node; the
    // rpc.link instant grafts it onto the round trip's DAG node so the
    // chain closes client -> server -> client.
    int64_t NowNs = Host.sim().now().nanosecondsCount();
    uint64_t ReplyCtx = trace::mintCausalId();
    trace::completeCtx(Host.id(), 0, "rpc.reply_recv", RecvNs,
                       NowNs - RecvNs, ReplyCtx, WireCtx);
    trace::instantCtx(Host.id(), 0, "rpc.link", NowNs, Call->Ctx, ReplyCtx);
  }
  if (Status == StatusOk) {
    complete(*Call, Env->adopt(Frame, Body.remainingView()));
    return;
  }
  // PARCS_HOT_END
  if (Status == StatusOverloaded) {
    // Admission refusal: a callReliable() attempt takes the server's
    // retry-after hint as a number; a plain call's caller reads it in the
    // error text.
    uint64_t RetryAfterNs = 0;
    Body.read(RetryAfterNs);
    if (Call->RetryAfterNs) {
      *Call->RetryAfterNs = RetryAfterNs;
      complete(*Call, Error(ErrorCode::Overloaded, "overloaded"));
      return;
    }
    complete(*Call, Error(ErrorCode::Overloaded,
                          "server overloaded; retry-after=" +
                              std::to_string(RetryAfterNs) + "ns"));
    return;
  }
  uint8_t Code = 0;
  std::string Message;
  if (!Body.read(Code) || !Body.read(Message)) {
    complete(*Call, Error(ErrorCode::MalformedMessage, "truncated fault"));
    return;
  }
  complete(*Call, Error(static_cast<ErrorCode>(Code), Message));
}

sim::Task<void> RpcEndpoint::rejectOverloaded(net::Message Msg) {
  // Re-parse the minimal body prefix: just enough to know who to answer.
  ErrorOr<std::span<const uint8_t>> Content = unframe(Msg.Payload);
  assert(Content && !Content->empty() && "checked in dispatchLoop");
  ErrorOr<serial::EnvelopeView> Env = serial::decodeEnvelopeView(
      Profile.Format, Content->data() + 1, Content->size() - 1);
  if (!Env) {
    ++Stats.MalformedDropped;
    co_return;
  }
  serial::InputArchive Body(Env->Payload);
  CallHeader H;
  if (!readCallHeader(Body, H)) {
    ++Stats.MalformedDropped;
    co_return;
  }
  int64_t NowNs = Host.sim().now().nanosecondsCount();
  if (H.Flags & FlagOneWay) {
    // No caller is waiting for a reply, so there is nobody to hint: the
    // call is shed and the counter is its only residue.
    ++Stats.OverloadShed;
    telemetry::count(Host.id(), "rpc.overload_shed", NowNs);
    trace::instant(Host.id(), 0, "rpc.overload_shed", NowNs);
    co_return;
  }
  ++Stats.OverloadRejected;
  telemetry::count(Host.id(), "rpc.overload_rejected", NowNs);
  trace::instant(Host.id(), 0, "rpc.overload_reject", NowNs);
  // Deterministic retry-after: linear in how deep past budget the backlog
  // sits, clamped to [RetryAfterBase, RetryAfterMax].  Depth-proportional
  // hints spread a burst of rejected callers over time instead of
  // re-synchronising them onto one future instant.
  constexpr sim::SimTime RetryAfterMax = sim::SimTime::milliseconds(50);
  size_t Overflow = AdmittedBacklog - Admission.MaxPending + 1;
  int64_t BaseNs = RetryAfterBase.nanosecondsCount();
  int64_t MaxNs = RetryAfterMax.nanosecondsCount();
  int64_t HintNs = BaseNs * static_cast<int64_t>(Overflow);
  if (HintNs < BaseNs)
    HintNs = BaseNs;
  if (HintNs > MaxNs)
    HintNs = MaxNs;
  uint8_t Hint[8];
  serial::detail::storeLittleEndian(Hint, static_cast<uint64_t>(HintNs));
  Bytes Wire = frameReply(H.CallId, StatusOverloaded, Hint);
  Stats.WireBytesSent += Wire.size();
  // computeChecked: a crash mid-rejection must not park the dispatch loop.
  if (!co_await Host.computeChecked(sideCost(Wire.size())))
    co_return;
  Net.send(Host.id(), H.ReplyNode, H.ReplyPort, std::move(Wire), 0);
}

// PARCS_HOT_BEGIN(migrate-replay): forwarding rebuilds one frame from
// already-parsed fields and hands it to the NIC -- no re-parse, no
// suspension; cutover itself is surgery on one name record.

void RpcEndpoint::forwardCall(const ParkedCall &P, const MovedRoute &Route) {
  Bytes Wire = frameCall(P.Header, Route.Name, P.Method, P.Args);
  ++Stats.CallsForwarded;
  Stats.WireBytesSent += Wire.size();
  trace::instant(Host.id(), 0, "om.migrate.forward",
                 Host.sim().now().nanosecondsCount());
  Net.send(Host.id(), Route.Node, Route.Port, std::move(Wire), 0);
}

void RpcEndpoint::completeMove(const std::string &Name,
                               const MovedRoute &Dst) {
  // Atomic cutover (no suspension between these lines): from here on no
  // call can slip between "parked" and "forwarded".
  NameRecord &Rec = Names[Name];
  Rec.Parked = false;
  Rec.Moved = Dst;
  std::vector<ParkedCall> Replay = std::move(Rec.ParkedCalls);
  // Replay in arrival order; the original CallId / reply coordinates /
  // dedup id ride along, so replies go straight to the callers and the
  // destination's dedup window absorbs any retransmitted twins.
  for (const ParkedCall &P : Replay)
    forwardCall(P, Dst);
}

void RpcEndpoint::cancelPark(const std::string &Name) {
  auto It = Names.find(Name);
  if (It == Names.end())
    return;
  NameRecord &Rec = It->second;
  Rec.Parked = false;
  std::vector<ParkedCall> Replay = std::move(Rec.ParkedCalls);
  // Aborted migration: the source copy is still published, so re-deliver
  // the parked calls to ourselves over the loopback -- they re-enter the
  // normal dispatch path (admission included) as if the park never
  // happened, in arrival order.
  MovedRoute Self{Host.id(), Port, Name};
  if (Rec.idle())
    Names.erase(It);
  for (const ParkedCall &P : Replay)
    forwardCall(P, Self);
}

// PARCS_HOT_END

// PARCS_HOT_BEGIN(rpc-dedup): every retried call probes the dedup window
// once before its handler and once after; both reuse the ring and index
// sized on first use.

size_t RpcEndpoint::DedupWindow::home(const Key &K) {
  // The caller's (node, port) folded into its logical id, then the
  // splitmix64 finaliser.
  uint64_t Caller =
      (static_cast<uint64_t>(static_cast<uint32_t>(K.Node)) << 32) |
      static_cast<uint32_t>(K.Port);
  uint64_t H = (K.Id * 0x9e3779b97f4a7c15ULL) ^ Caller;
  H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ULL;
  H = (H ^ (H >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<size_t>(H ^ (H >> 31)) & (IndexSize - 1);
}

RpcEndpoint::DedupWindow::Entry *
RpcEndpoint::DedupWindow::find(const Key &K) {
  if (Index.empty())
    return nullptr;
  for (size_t I = home(K);; I = (I + 1) & (IndexSize - 1)) {
    if (Index[I] == 0)
      return nullptr;
    Entry &E = Ring[Index[I] - 1];
    if (E.Call == K)
      return &E;
  }
}

RpcEndpoint::DedupWindow::Probe
RpcEndpoint::DedupWindow::findOrInsert(const Key &K) {
  if (Ring.empty()) {
    // Sized once, on the endpoint's first retried call.
    Ring.resize(Cap);
    Index.assign(IndexSize, 0);
  }
  size_t I = home(K);
  for (; Index[I] != 0; I = (I + 1) & (IndexSize - 1)) {
    size_t Slot = Index[I] - 1;
    if (Ring[Slot].Call == K)
      return Probe{&Ring[Slot], Slot, false};
  }
  bool Evicted = Count == Cap;
  if (Evicted) {
    // Full: the oldest entry goes, and the new one takes its slot.
    unindex(Ring[Head].Call);
    Head = (Head + 1) & (Cap - 1);
    --Count;
  }
  size_t Slot = (Head + Count) & (Cap - 1);
  ++Count;
  Entry &E = Ring[Slot];
  E.Call = K;
  E.Done = false;
  E.ReplyTail.clear();
  if (Evicted)
    // The eviction may have shifted K's probe run; walk it again.
    index(Slot);
  else
    Index[I] = static_cast<uint16_t>(Slot + 1);
  return Probe{&E, Slot, true};
}

RpcEndpoint::DedupWindow::Entry *
RpcEndpoint::DedupWindow::refind(size_t Slot, const Key &K) {
  if (((Slot - Head) & (Cap - 1)) < Count && Ring[Slot].Call == K)
    return &Ring[Slot];
  return find(K);
}

void RpcEndpoint::DedupWindow::index(size_t Slot) {
  size_t I = home(Ring[Slot].Call);
  while (Index[I] != 0)
    I = (I + 1) & (IndexSize - 1);
  Index[I] = static_cast<uint16_t>(Slot + 1);
}

void RpcEndpoint::DedupWindow::unindex(const Key &K) {
  constexpr size_t Mask = IndexSize - 1;
  size_t Hole = home(K);
  while (Ring[Index[Hole] - 1].Call != K)
    Hole = (Hole + 1) & Mask;
  // Backward-shift deletion: walk the rest of the probe run and pull back
  // every entry whose home does not lie cyclically in (Hole, J], so each
  // remaining key stays reachable from its home without a gap.
  for (size_t J = (Hole + 1) & Mask; Index[J] != 0; J = (J + 1) & Mask) {
    size_t Home = home(Ring[Index[J] - 1].Call);
    if (((J - Home) & Mask) >= ((J - Hole) & Mask)) {
      Index[Hole] = Index[J];
      Hole = J;
    }
  }
  Index[Hole] = 0;
}

// PARCS_HOT_END

void RpcEndpoint::DedupWindow::dropInProgress() {
  // Restart-only: compact the finished entries to the ring's front in
  // their arrival order and rebuild the index around them.
  std::vector<Entry> Kept;
  Kept.reserve(Ring.size());
  for (size_t I = 0; I < Count; ++I) {
    Entry &E = Ring[(Head + I) & (Cap - 1)];
    if (E.Done)
      Kept.push_back(std::move(E));
  }
  Head = 0;
  Count = Kept.size();
  Kept.resize(Ring.size());
  Ring = std::move(Kept);
  std::fill(Index.begin(), Index.end(), uint16_t(0));
  for (size_t Slot = 0; Slot < Count; ++Slot)
    index(Slot);
}

sim::Task<void> RpcEndpoint::handleCall(net::Message Msg, int64_t RecvNs) {
  // Thin wrapper settling the admission backlog on normal completion.  A
  // handler that crash-parks never resumes this frame either, so the
  // decrement is simply lost with it -- the restart hook re-bases the
  // count from the surviving pool queue.
  co_await handleCallInner(std::move(Msg), RecvNs);
  if (AdmittedBacklog > 0)
    --AdmittedBacklog;
}

sim::Task<void> RpcEndpoint::handleCallInner(net::Message Msg,
                                             int64_t RecvNs) {
  // Server-side handling as one complete span on the serving node, and as
  // the server leg of the call's async pair (same id the client opened --
  // Perfetto links the legs across node lanes).
  int64_t ServeStartNs = Host.sim().now().nanosecondsCount();

  // Server-side unmarshalling cost for the incoming wire bytes.
  co_await Host.compute(sideCost(Msg.Payload.size()));

  // PARCS_HOT_BEGIN(rpc-serve): the call is parsed in place, its name
  // found in one probe, and its arguments take over the received frame.
  ErrorOr<std::span<const uint8_t>> Content = unframe(Msg.Payload);
  assert(Content && !Content->empty() && "checked in dispatchLoop");
  ErrorOr<serial::EnvelopeView> Env = serial::decodeEnvelopeView(
      Profile.Format, Content->data() + 1, Content->size() - 1);
  if (!Env) {
    ++Stats.MalformedDropped;
    co_return;
  }
  serial::InputArchive Body(Env->Payload);
  CallHeader H;
  std::string_view NameView, MethodView;
  uint32_t ArgsSize = 0;
  std::span<const uint8_t> ArgsView;
  if (!readCallHeader(Body, H) || !Body.readView(NameView) ||
      !Body.readView(MethodView) || !Body.read(ArgsSize) ||
      !Body.readView(ArgsView, ArgsSize)) {
    ++Stats.MalformedDropped;
    co_return;
  }
  // The record is looked up while the name still sits in the frame;
  // then the arguments take the frame over, which ends the views.  From
  // there on the name is the record's own key; only a call for a name
  // with no record copies it, for its error text.
  auto RecIt = Names.find(NameView);
  NameRecord *Rec = RecIt == Names.end() ? nullptr : &RecIt->second;
  std::string UnknownName(Rec ? std::string_view() : NameView);
  std::string_view ObjectName = Rec ? RecIt->first : UnknownName;
  std::string Method(MethodView);
  Bytes Args = Env->adopt(Msg.Payload, ArgsView);
  // PARCS_HOT_END

  // DAG legs on the serving node: time queued between the wire and this
  // handler (the dispatch pool's backlog), then the unmarshal work above.
  // The serve umbrella's declared parent is the restored wire context (the
  // cross-node edge); rpc.link grafts the local timing chain onto it.
  uint64_t ServeCtx = 0;
  if (trace::enabled()) {
    int64_t NowNs = Host.sim().now().nanosecondsCount();
    uint64_t QueueCtx = trace::mintCausalId();
    trace::completeCtx(Host.id(), 0, "rpc.dispatch_queue", RecvNs,
                       ServeStartNs - RecvNs, QueueCtx, Msg.TraceCtx);
    uint64_t UnmarshalCtx = trace::mintCausalId();
    trace::completeCtx(Host.id(), 0, "rpc.unmarshal", ServeStartNs,
                       NowNs - ServeStartNs, UnmarshalCtx, QueueCtx);
    ServeCtx = trace::mintCausalId();
    trace::instantCtx(Host.id(), 0, "rpc.link", NowNs, ServeCtx,
                      UnmarshalCtx);
  }

  // At-most-once: a retransmission of a logical call we have already seen
  // must not execute the method again.  In-progress duplicates are
  // dropped (the original execution's reply, or the client's next retry,
  // covers it); completed ones are answered from the cached reply tail
  // under the retransmission's fresh CallId.  A call the migration below
  // intercepts only looks: a parked call must not squat an entry its own
  // forwarded replay would then trip over.
  bool TwoWay = !(H.Flags & FlagOneWay);
  bool Intercepted = Rec && (Rec->Moved || Rec->Parked);
  DedupWindow::Key Key{H.ReplyNode, H.ReplyPort, H.DedupId};
  size_t DedupSlot = 0;
  if (TwoWay && H.DedupId != 0) {
    DedupWindow::Entry *Dup = nullptr;
    if (Intercepted) {
      Dup = Dedup.find(Key);
    } else {
      DedupWindow::Probe P = Dedup.findOrInsert(Key);
      DedupSlot = P.Slot;
      if (!P.Inserted)
        Dup = P.Found;
    }
    if (Dup) {
      if (!Dup->Done) {
        ++Stats.DedupSuppressed;
        co_return;
      }
      ++Stats.DedupHits;
      std::span<const uint8_t> Tail = Dup->ReplyTail;
      Bytes CachedWire = frameReply(H.CallId, Tail[0], Tail.subspan(1));
      Stats.WireBytesSent += CachedWire.size();
      co_await Host.compute(sideCost(CachedWire.size()));
      Net.send(Host.id(), H.ReplyNode, H.ReplyPort, std::move(CachedWire), 0);
      co_return;
    }
  }

  // Migration interception -- strictly after the dedup lookup: a call this
  // node already answered keeps being answered from the cached reply,
  // never re-executed at the destination.
  if (Intercepted) {
    if (Rec->Moved) {
      // Straggler for a name that migrated away: forward it under the new
      // name; the destination replies straight to the original caller.
      forwardCall(ParkedCall{H, std::move(Method), std::move(Args)},
                  *Rec->Moved);
      co_return;
    }
    // The object's mailbox is frozen mid-migration: hold the parsed call
    // for replay at cutover (or local re-delivery on abort).
    ++Stats.CallsParked;
    trace::instant(Host.id(), 0, "om.migrate.parked",
                   Host.sim().now().nanosecondsCount());
    Rec->ParkedCalls.push_back(
        ParkedCall{H, std::move(Method), std::move(Args)});
    co_return;
  }

  ErrorOr<Bytes> Result(Bytes{});
  ErrorOr<std::shared_ptr<CallHandler>> Target = resolveTarget(Rec, ObjectName);
  if (!Target) {
    Result = Target.error();
  } else {
    // Hand the serve context to the callee: its body up to the first
    // suspension runs synchronously inside this co_await (lazy tasks), so
    // the one-slot hand-off cannot be observed by anything else first.
    // Cleared afterwards in case the target does not claim it.
    if (ServeCtx)
      trace::handoff(ServeCtx);
    // Executing-call count per name: migration drains this to zero after
    // parking, so state capture never races a running method.  The count
    // keeps the record, and the key ObjectName views, alive through the
    // call -- unpublish and other calls only drop idle records -- except
    // across a crash: restart settles the counts of the handlers the
    // crash killed and drops idle records, so a handler that resumes in a
    // later epoch leaves the record alone.
    uint64_t Epoch = Host.epoch();
    ++Rec->InFlight;
    Result = co_await (*Target)->handleCall(Method, Args);
    if (ServeCtx)
      trace::handoff(0);
    if (Host.epoch() != Epoch) {
      Rec = nullptr;
      ObjectName = "(crashed)";
    }
  }

  if (!TwoWay && !Result) {
    LogNodeScope Scope(Host.id());
    PARCS_LOG(Warn, "one-way call '" << ObjectName << "." << Method
                                     << "' faulted: "
                                     << Result.error().str());
  }
  // Last use of ObjectName: the record may go now.
  if (Target && Rec) {
    --Rec->InFlight;
    if (Rec->idle())
      Names.erase(RecIt);
  }

  if (!TwoWay) {
    trace::completeCtx(Host.id(), 0, "rpc.serve", ServeStartNs,
                       Host.sim().now().nanosecondsCount() - ServeStartNs,
                       ServeCtx, H.Ctx);
    co_return;
  }

  int64_t ReplyStartNs = Host.sim().now().nanosecondsCount();
  // PARCS_HOT_BEGIN(rpc-serve)
  uint8_t Status = StatusOk;
  Bytes Fault;
  std::span<const uint8_t> Rest;
  if (Result) {
    Rest = Result.get();
  } else {
    Status = StatusFault;
    serial::OutputArchive Encoded;
    Encoded.write(static_cast<uint8_t>(Result.error().code()));
    Encoded.write(Result.error().message());
    Fault = Encoded.take();
    Rest = Fault;
  }
  if (H.DedupId != 0) {
    // Cache everything after the 8-byte CallId: a retransmission gets the
    // same status + payload under its own attempt's id.  Refound -- the
    // entry may have been FIFO-evicted while the method ran.
    if (DedupWindow::Entry *Dup = Dedup.refind(DedupSlot, Key)) {
      Dup->Done = true;
      Dup->ReplyTail.reserve(1 + Rest.size());
      Dup->ReplyTail.assign(1, Status);
      Dup->ReplyTail.insert(Dup->ReplyTail.end(), Rest.begin(), Rest.end());
    }
  }
  Bytes Wire = frameReply(H.CallId, Status, Rest);
  // PARCS_HOT_END
  Stats.WireBytesSent += Wire.size();
  co_await Host.compute(sideCost(Wire.size()));
  uint64_t ReplySendCtx = 0;
  if (ServeCtx) {
    ReplySendCtx = trace::mintCausalId();
    trace::completeCtx(Host.id(), 0, "rpc.send", ReplyStartNs,
                       Host.sim().now().nanosecondsCount() - ReplyStartNs,
                       ReplySendCtx, ServeCtx);
  }
  Net.send(Host.id(), H.ReplyNode, H.ReplyPort, std::move(Wire),
           ReplySendCtx);
  trace::completeCtx(Host.id(), 0, "rpc.serve", ServeStartNs,
                     Host.sim().now().nanosecondsCount() - ServeStartNs,
                     ServeCtx, H.Ctx);
}
