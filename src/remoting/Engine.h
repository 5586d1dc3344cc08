//===- remoting/Engine.h - Generic RPC endpoint -----------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The RPC engine underneath every remoting flavour in this library.  One
/// RpcEndpoint per (node, stack) plays both roles: it publishes server
/// objects and issues client calls.  The C#-remoting facade (Remoting.h),
/// the Java RMI facade (rmi/) and the Java nio baseline all instantiate
/// this engine with different StackProfiles, which is exactly the paper's
/// framing: same RPC shape, different software stacks.
///
/// Message path and cost accounting (one call):
///   client thread: marshal args -> envelope -> [HTTP frame] -> charge
///     FixedPerSide + PerByteNs * wire bytes of node CPU -> NIC send
///   wire: packetised transfer (net::Network)
///   server: dispatch loop pulls the message, posts it to the node's
///     dispatch thread pool (Mono's bounded pool!); the pooled handler
///     charges FixedPerSide + PerByteNs * wire bytes, decodes, locates the
///     object, runs the method (which charges its own compute), marshals
///     the result and sends the reply symmetrically.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_REMOTING_ENGINE_H
#define PARCS_REMOTING_ENGINE_H

#include "net/Network.h"
#include "remoting/CallHandler.h"
#include "remoting/Profiles.h"
#include "sim/Sync.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "vm/Node.h"
#include "vm/ThreadPool.h"

#include <coroutine>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace parcs::remoting {

/// Statistics an endpoint accumulates (read by benches/tests).
struct EndpointStats {
  uint64_t CallsIssued = 0;
  uint64_t CallsHandled = 0;
  uint64_t RepliesReceived = 0;
  uint64_t OneWaySent = 0;
  uint64_t WireBytesSent = 0;
  uint64_t MalformedDropped = 0;
  /// Replies to calls this endpoint issued that were no longer pending,
  /// i.e. that arrived after their call's deadline fired.  Expected under
  /// loss + timeouts (the reply raced the timer); dropped silently, unlike
  /// MalformedDropped which flags genuinely bogus frames.
  uint64_t LateReplies = 0;
  /// Frames rejected by the wire checksum (fault-injected corruption).
  uint64_t CorruptedDropped = 0;
  /// Attempts beyond the first made by callReliable().
  uint64_t Retries = 0;
  /// callReliable() invocations that failed every attempt.
  uint64_t RetriesExhausted = 0;
  /// Duplicate calls answered from the dedup window's cached reply.
  uint64_t DedupHits = 0;
  /// Duplicate calls dropped because the first attempt was still running.
  uint64_t DedupSuppressed = 0;
  /// Two-way calls refused at admission (StatusOverloaded replies sent).
  uint64_t OverloadRejected = 0;
  /// One-way calls shed at admission (no caller to tell; just dropped).
  uint64_t OverloadShed = 0;
  /// callReliable() waits taken on a server's retry-after hint (these do
  /// not burn retry attempts; see RetryPolicy::MaxOverloadWaits).
  uint64_t OverloadDeferred = 0;
  /// callReliable() invocations that gave up on persistent Overloaded.
  uint64_t OverloadExhausted = 0;
  /// Calls queued against a parked (migrating) name.
  uint64_t CallsParked = 0;
  /// Calls forwarded to a migrated object's new home (parked replays plus
  /// stragglers hitting the moved tombstone).
  uint64_t CallsForwarded = 0;
};

/// Client-side retry configuration for callReliable(): per-attempt
/// deadline plus exponential backoff with deterministic jitter (the jitter
/// stream is seeded, so retry schedules replay exactly).  The default is
/// disabled -- callReliable() then degrades to a single plain call() and
/// the wire/event stream is untouched.
struct RetryPolicy {
  /// Total attempts (first try included).  <= 1 disables retries.
  int MaxAttempts = 1;
  /// Deadline for each individual attempt; zero disables retries.
  sim::SimTime AttemptTimeout;
  /// Per-attempt deadline escalation (TCP-RTO style): attempt k runs
  /// under AttemptTimeout * TimeoutFactor^(k-1), capped by
  /// MaxAttemptTimeout when that is non-zero.  1.0 keeps every window
  /// fixed.  Escalation lets one policy serve both short control calls
  /// (fail fast on loss) and long server-side executions, where the
  /// at-most-once window answers a late retry from the cached reply
  /// once the original execution finishes.
  double TimeoutFactor = 1.0;
  sim::SimTime MaxAttemptTimeout;
  /// Cap on the backoff before a retry, which starts at
  /// RpcEndpoint::BaseBackoff and doubles per retry.
  sim::SimTime MaxBackoff = sim::SimTime::milliseconds(200);
  /// How many StatusOverloaded rejections one logical call absorbs before
  /// callReliable() gives up with ErrorCode::Overloaded.  Rejections wait
  /// out the server's retry-after hint instead of burning MaxAttempts:
  /// the reply proved the network and the server alive, so the transport
  /// budget is the wrong thing to spend.
  int MaxOverloadWaits = 8;

  bool enabled() const {
    return MaxAttempts > 1 && AttemptTimeout > sim::SimTime();
  }
};

/// Server-side admission budget: once the endpoint's dispatch backlog
/// (pool queue + executing handlers) reaches MaxPending, new two-way calls
/// are refused with StatusOverloaded carrying a deterministic retry-after
/// hint, and one-way calls are shed.  Bounding the queue is what keeps an
/// open-loop overload from growing latency without bound -- rejected work
/// costs the server a fixed-size reply instead of an unbounded wait.
/// Disabled by default (MaxPending == 0), so fault-free wire bytes and
/// event streams are exactly the legacy ones.
struct AdmissionPolicy {
  /// Calls admitted concurrently (queued + executing).  0 disables.
  /// The refusal's retry-after hint is
  /// clamp(RpcEndpoint::RetryAfterBase * overflow, RetryAfterBase, 50 ms),
  /// where overflow = backlog - MaxPending + 1: the deeper past budget the
  /// arrival, the further out it is pushed.  Integer arithmetic on
  /// simulation state only -- the hint replays exactly.
  size_t MaxPending = 0;

  bool enabled() const { return MaxPending > 0; }
};

/// A combined client/server RPC endpoint on one node.
class RpcEndpoint {
public:
  /// Binds \p Port on \p Host's node and starts the dispatch loop.
  /// \p DispatchWorkers caps concurrent server-side call handling
  /// (0 = the host VM's thread-pool cap).
  RpcEndpoint(vm::Node &Host, net::Network &Net, const StackProfile &Profile,
              int Port, int DispatchWorkers = 0);
  RpcEndpoint(const RpcEndpoint &) = delete;
  RpcEndpoint &operator=(const RpcEndpoint &) = delete;
  /// Folds the endpoint stats into the global metrics registry under
  /// "rpc.<profile-slug>.*" (one channel per messaging stack).
  ~RpcEndpoint();

  vm::Node &node() { return Host; }
  int port() const { return Port; }
  const StackProfile &profile() const { return Profile; }
  const EndpointStats &stats() const { return Stats; }
  vm::ThreadPool &dispatchPool() { return Pool; }

  /// Publishes \p Object under \p Name (an explicitly instantiated
  /// singleton, like RMI's Naming.rebind of a live object).
  void publish(const std::string &Name, std::shared_ptr<CallHandler> Object);

  /// Publishes a well-known service type: the factory instantiates the
  /// object per .Net semantics (Singleton: first call; SingleCall: every
  /// call).
  void publishWellKnown(const std::string &Name, HandlerFactory Factory,
                        WellKnownObjectMode Mode);

  /// Removes a published name; returns false if it was not published.
  bool unpublish(const std::string &Name);

  /// Returns the live instance published under \p Name (null for unknown
  /// names or not-yet-instantiated well-known singletons).  Used by layers
  /// that can short-circuit local calls (the SCOOPP proxy's intra-grain
  /// path).
  std::shared_ptr<CallHandler> findPublished(const std::string &Name) const {
    const NameRecord *Rec = findName(Name);
    return Rec && Rec->Published ? Rec->Instance : nullptr;
  }
  bool isPublished(const std::string &Name) const {
    const NameRecord *Rec = findName(Name);
    return Rec && Rec->Published;
  }

  /// Every published name, in sorted order (the name table is an ordered
  /// map).  Deterministic iteration for rebalancing policies that pick
  /// migration victims.
  std::vector<std::string> publishedNames() const {
    std::vector<std::string> List;
    for (const auto &[Name, Rec] : Names)
      if (Rec.Published)
        List.push_back(Name);
    return List;
  }

  /// Two-way call: returns the result bytes produced by the remote
  /// handler, or the transported error.  A positive \p Timeout bounds the
  /// wait: if no reply arrives in time the call completes with
  /// ErrorCode::TimedOut (a late reply is then dropped), which is how
  /// callers survive simulated packet loss.
  /// \p ParentCtx is the caller's causal id (trace::mintCausalId); the
  /// call mints its own context, parents it there, and carries it on the
  /// wire so the server restores the chain.  0 (the untraced default)
  /// keeps the body byte-identical to an uninstrumented build.
  /// \p DedupId, when non-zero, rides the wire so the server can detect
  /// retransmissions of the same logical call (see callReliable); 0 (the
  /// default) adds nothing to the frame.
  sim::Task<ErrorOr<Bytes>> call(int DstNode, int DstPort,
                                 std::string ObjectName, std::string Method,
                                 Bytes Args,
                                 sim::SimTime Timeout = sim::SimTime(),
                                 uint64_t ParentCtx = 0,
                                 uint64_t DedupId = 0);

  /// Two-way call with the endpoint's RetryPolicy applied: each attempt
  /// gets the policy's deadline; timed-out attempts are retried with
  /// exponential backoff + deterministic jitter, all attempts sharing one
  /// dedup id so the server executes the method at most once (duplicates
  /// are answered from the cached reply).  With retries disabled (the
  /// default policy) this is exactly one plain call().  Non-transport
  /// errors (unknown object, remote fault, ...) are returned immediately;
  /// exhausting the budget yields ErrorCode::ConnectionFailed.
  sim::Task<ErrorOr<Bytes>> callReliable(int DstNode, int DstPort,
                                         std::string ObjectName,
                                         std::string Method, Bytes Args,
                                         uint64_t ParentCtx = 0);

  /// Seed of every endpoint's retry jitter stream; setRetryPolicy mixes
  /// in the endpoint's (node, port) so endpoints don't retry in lockstep.
  static constexpr uint64_t JitterSeed = 0x7e57ab1eULL;
  /// callReliable()'s backoff before its first retry.
  static constexpr sim::SimTime BaseBackoff = sim::SimTime::milliseconds(2);
  /// The admission budget's retry-after hint per call past the budget.
  static constexpr sim::SimTime RetryAfterBase =
      sim::SimTime::milliseconds(1);

  /// Installs the retry policy used by callReliable() and reseeds the
  /// jitter stream (mixed with this endpoint's node:port).
  void setRetryPolicy(const RetryPolicy &Policy) {
    Retry = Policy;
    RetryRng.reseed(JitterSeed ^
                    (static_cast<uint64_t>(static_cast<uint32_t>(Host.id()))
                     << 32) ^
                    static_cast<uint64_t>(static_cast<uint32_t>(Port)));
  }
  const RetryPolicy &retryPolicy() const { return Retry; }

  /// Installs the admission budget consulted by the dispatch loop.  The
  /// default policy admits everything (legacy behaviour).
  void setAdmissionPolicy(const AdmissionPolicy &Policy) {
    Admission = Policy;
  }
  /// Current dispatch backlog (queued + executing calls): the quantity the
  /// admission budget bounds.
  size_t backlog() const { return AdmittedBacklog; }

  /// Where a migrated name now lives (see completeMove).
  struct MovedRoute {
    int Node = -1;
    int Port = 0;
    std::string Name;
  };

  /// Parks \p Name: calls arriving for it are queued (not executed, not
  /// entered into the dedup window) until completeMove or cancelPark.
  /// First step of a live migration -- the mailbox freezes while the
  /// object's state is captured.
  void parkName(const std::string &Name) { Names[Name].Parked = true; }
  bool isParked(const std::string &Name) const {
    const NameRecord *Rec = findName(Name);
    return Rec && Rec->Parked;
  }
  /// Deadline timer events this endpoint has in the simulator's queue.
  /// Only the earliest pending deadline needs one, so this stays at one
  /// however many calls carry deadlines, unless later calls are issued
  /// with earlier deadlines.
  size_t deadlineTimers() const { return DeadlineTimers.size(); }
  /// Deadline timer events this endpoint has run so far.
  uint64_t deadlineTimersFired() const { return DeadlineTimersFired; }

  /// Calls currently executing against \p Name (migration drains this to
  /// zero before touching state).
  size_t inFlight(const std::string &Name) const {
    const NameRecord *Rec = findName(Name);
    return Rec ? Rec->InFlight : 0;
  }

  /// Atomically (no suspension) finishes a migration: drops the park,
  /// installs the moved tombstone and forwards every parked call -- and,
  /// from now on, every straggler -- to \p Dst under its new name.
  /// Forwarded frames keep the original CallId, reply coordinates and
  /// dedup id, so the destination replies straight to the caller and its
  /// dedup window absorbs retransmissions: exactly-once survives the move.
  void completeMove(const std::string &Name, const MovedRoute &Dst);

  /// Abandons a park (migration aborted): parked calls are re-delivered
  /// locally over the loopback so the still-published source copy serves
  /// them as if the park never happened.
  void cancelPark(const std::string &Name);

  /// One-way (asynchronous, no result) call: returns once the message has
  /// been handed to the NIC; remote faults are dropped, as with .Net
  /// one-way delegate invocations.
  sim::Task<void> callOneWay(int DstNode, int DstPort, std::string ObjectName,
                             std::string Method, Bytes Args,
                             uint64_t ParentCtx = 0);

private:
  enum MsgKind : uint8_t { KindCall = 0xC1, KindReturn = 0xC2 };
  /// FlagHasContext marks a body whose flags byte is followed by the
  /// causal-context header -- the call's causal id and its parent's, two
  /// u64s (the traceparent analogue of W3C trace context) -- present only
  /// on traced runs, so untraced wire bytes are unchanged.  FlagHasDedup
  /// marks a body carrying a dedup id after the (optional) context --
  /// present only on callReliable() attempts, so plain calls are likewise
  /// unchanged.
  enum CallFlags : uint8_t {
    FlagOneWay = 0x01,
    FlagHasContext = 0x02,
    FlagHasDedup = 0x04,
  };
  enum ReturnStatus : uint8_t {
    StatusOk = 0,
    StatusFault = 1,
    /// Admission refused the call; the reply tail is a uint64 retry-after
    /// hint in nanoseconds.
    StatusOverloaded = 2,
  };

  /// The fixed fields of a call body, in wire order: CallId, flags, the
  /// optional causal context and dedup id, and where to reply.  The object
  /// name, method name and argument bytes follow them.
  struct CallHeader {
    uint64_t CallId = 0;
    uint8_t Flags = 0;
    uint64_t Ctx = 0, Parent = 0;
    uint64_t DedupId = 0;
    int32_t ReplyNode = 0, ReplyPort = 0;
  };

  /// A call held back by a park (or replayed to a moved object): the
  /// parsed body fields needed to rebuild an equivalent frame.
  struct ParkedCall {
    CallHeader Header;
    std::string Method;
    Bytes Args;
  };

  /// Everything the endpoint keeps per object name, so a call finds it in
  /// one probe: the registration, a migration's park and the calls it
  /// holds, the moved tombstone, and the executing-call count.  A record
  /// lives while any of these is set.
  struct NameRecord {
    bool Published = false;
    WellKnownObjectMode Mode = WellKnownObjectMode::Singleton;
    HandlerFactory Factory;
    std::shared_ptr<CallHandler> Instance;
    /// Frozen by an in-progress migration.
    bool Parked = false;
    /// Calls held by the park, in arrival order, replayed at completeMove
    /// or cancelPark.
    std::vector<ParkedCall> ParkedCalls;
    /// Tombstone of a name that migrated away: stragglers are forwarded.
    std::optional<MovedRoute> Moved;
    /// Calls currently executing (migration drains these).
    size_t InFlight = 0;

    bool idle() const {
      return !Published && !Parked && ParkedCalls.empty() && !Moved &&
             InFlight == 0;
    }
  };

  const NameRecord *findName(std::string_view Name) const {
    auto It = Names.find(Name);
    return It == Names.end() ? nullptr : &It->second;
  }

  /// Cost of pushing/pulling \p WireBytes through this stack on one side.
  sim::SimTime sideCost(size_t WireBytes) const;

  /// Frames carry a CRC32 trailer only while a fault hook is installed on
  /// the network (corruption is possible); fault-free runs keep the exact
  /// legacy wire bytes.
  bool wireChecksums() const { return Net.faultHook() != nullptr; }

  /// True on first contact with (\p DstNode, \p DstPort) over a stack that
  /// pays a connection setup: marks the destination connected (before the
  /// wait, so concurrent first calls don't each pay the handshake) and the
  /// caller then awaits Profile.ConnectSetup.  Every later call is one
  /// indexed check.
  bool firstContact(int DstNode, int DstPort);

  /// Builds the final wire buffer of a message whose body is \p BodySize
  /// bytes: transport header (HTTP stacks), kind byte, envelope and CRC
  /// trailer around the body, which \p WriteBody writes straight into its
  /// place through a serial::SpanWriter.  One allocation, sized up front.
  template <typename WriteBody>
  Bytes frame(MsgKind Kind, std::string_view EnvelopeName, size_t BodySize,
              WriteBody &&Write) const;
  /// A call frame: \p H, then the names and the argument bytes.
  Bytes frameCall(const CallHeader &H, std::string_view ObjectName,
                  std::string_view Method,
                  std::span<const uint8_t> Args) const;
  /// A reply frame: \p CallId, then \p Status and its \p Rest (the result
  /// bytes, the encoded fault, or the retry-after hint).
  Bytes frameReply(uint64_t CallId, uint8_t Status,
                   std::span<const uint8_t> Rest) const;
  /// Strips transport framing; returns a view of the (kind, envelope)
  /// content inside \p Wire -- headers are parsed in place, nothing is
  /// copied.  The view is valid as long as \p Wire is.
  ErrorOr<std::span<const uint8_t>> unframe(const Bytes &Wire) const;
  /// Reads \p H's fields off the front of a call body.
  static bool readCallHeader(serial::InputArchive &Body, CallHeader &H);

  /// A two-way call awaiting its reply, and the awaitable its issuer
  /// suspends on.  It lives in the issuing call's coroutine frame; the
  /// pending table points at it while Owner is set.  The reply (or the
  /// deadline) takes it out of the table, stores the result and wakes the
  /// waiter through the event queue, in the slot a promise's wake-up
  /// would take.  Destroying a record still in the table -- its frame
  /// reaped while the reply is outstanding -- takes it out; the endpoint's
  /// destructor clears Owner on every record it still holds, so a frame
  /// reaped after its endpoint is gone touches nothing.
  struct PendingCall {
    PendingCall(RpcEndpoint &Endpoint, uint64_t CallId, uint64_t Ctx,
                uint64_t *RetryAfterNs);
    PendingCall(const PendingCall &) = delete;
    PendingCall &operator=(const PendingCall &) = delete;
    ~PendingCall();

    bool await_ready() const noexcept { return Result.has_value(); }
    void await_suspend(std::coroutine_handle<> Handle) noexcept {
      Waiter = Handle;
    }
    ErrorOr<Bytes> await_resume() { return std::move(*Result); }

    RpcEndpoint *Owner;
    uint64_t CallId;
    /// The causal id minted at issue (so the reply links back into the
    /// DAG).
    uint64_t Ctx;
    /// Where an admission refusal's retry-after hint goes, as a number,
    /// for a callReliable() attempt; null for a plain call, whose error
    /// text carries the hint instead.
    uint64_t *RetryAfterNs;
    std::coroutine_handle<> Waiter;
    std::optional<ErrorOr<Bytes>> Result;
  };

  /// Pending calls by CallId: open addressing over a power-of-two slot
  /// table whose home slot is the id's low bits.  Ids are issued in
  /// sequence, so live calls rarely share a home; a lookup compares the
  /// whole id, so a stale id never reaches a slot's newer occupant.  Linear
  /// probing at load <= 1/2 with backward-shift deletion; the table doubles
  /// when it would pass that load and never shrinks.
  class PendingTable {
  public:
    void insert(PendingCall *Call);
    PendingCall *find(uint64_t CallId) const;
    /// Removes the call with \p CallId and returns it (null when absent).
    PendingCall *take(uint64_t CallId);
    /// Clears Owner on every record held (endpoint teardown).
    void detachAll();

  private:
    struct Slot {
      uint64_t CallId = 0;
      PendingCall *Call = nullptr;
    };
    /// Index of \p CallId's slot, or Slots.size() when it is absent.
    size_t slotOf(uint64_t CallId) const;
    void grow();

    std::vector<Slot> Slots;
    size_t Count = 0;
  };

  /// Hands \p Call its result and schedules its waiter, if suspended
  /// (resolving before the issuer awaits needs no event).
  void complete(PendingCall &Call, ErrorOr<Bytes> Result);

  /// A call deadline.  (AtNs, Seq) is the kernel slot a timer scheduled
  /// when the call was sent would have taken; Seq was reserved then, so
  /// the deadline fires in exactly that slot whenever its timer is armed.
  struct Deadline {
    int64_t AtNs = 0;
    uint64_t Seq = 0;
    uint64_t CallId = 0;
  };
  /// Min-heap order on the unique (AtNs, Seq) key.
  static bool laterDeadline(const Deadline &A, const Deadline &B) {
    return A.AtNs != B.AtNs ? B.AtNs < A.AtNs : B.Seq < A.Seq;
  }
  /// Registers the deadline of call \p CallId, \p Timeout from now.
  void addDeadline(sim::SimTime Timeout, uint64_t CallId);
  /// Schedules a timer event in \p D's reserved slot.
  void armDeadlineTimer(const Deadline &D);
  /// Runs in the slot of the earliest armed timer: times out that
  /// deadline's call if it is still pending and arms the next deadline.
  void fireDeadlineTimer();
  /// Pops deadlines of calls that are no longer pending off the heap top.
  void pruneDeadlines();

  /// A two-way call after the connect check: the body of call() and of
  /// each callReliable() attempt.  Borrows its names and arguments from
  /// the awaiting frame, and is done with them before it first suspends.
  /// A non-null \p RetryAfterNs receives an admission refusal's hint.
  sim::Task<ErrorOr<Bytes>> issue(int DstNode, int DstPort,
                                  std::string_view ObjectName,
                                  std::string_view Method,
                                  std::span<const uint8_t> Args,
                                  sim::SimTime Timeout, uint64_t ParentCtx,
                                  uint64_t DedupId,
                                  uint64_t *RetryAfterNs = nullptr);

  sim::Task<void> dispatchLoop();
  /// \p RecvNs is when the dispatch loop pulled the message off the wire
  /// (the rpc.dispatch_queue span start; 0 on untraced runs).
  sim::Task<void> handleCall(net::Message Msg, int64_t RecvNs);
  sim::Task<void> handleCallInner(net::Message Msg, int64_t RecvNs);
  /// Resolves the pending call a reply answers.  \p Content is the
  /// unframed reply inside \p Frame, whose buffer the result takes over.
  void handleReturn(Bytes &Frame, std::span<const uint8_t> Content,
                    int64_t RecvNs, uint64_t WireCtx);

  /// Rebuilds \p P's frame under \p Route's object name and hands it to
  /// the NIC towards Route.Node (the loopback when that is this node).
  void forwardCall(const ParkedCall &P, const MovedRoute &Route);

  /// Runs on the dispatch path for an overload rejection: re-parses the
  /// minimal body prefix and answers StatusOverloaded (or sheds a
  /// one-way call).  Deterministic: the hint is pure backlog arithmetic.
  sim::Task<void> rejectOverloaded(net::Message Msg);

  /// The handler serving \p Rec (null or unpublished: UnknownObject),
  /// instantiating a well-known object as its mode says.
  ErrorOr<std::shared_ptr<CallHandler>> resolveTarget(NameRecord *Rec,
                                                      std::string_view Name);

  vm::Node &Host;
  net::Network &Net;
  const StackProfile &Profile;
  int Port;
  vm::ThreadPool Pool;
  /// Per-name state, ordered by name (transparent, so a call probes it
  /// with the name as it sits in the frame).
  std::map<std::string, NameRecord, std::less<>> Names;
  PendingTable Pending;
  /// Deadlines of calls that may still be pending, as a (AtNs, Seq)
  /// min-heap.  Answered calls leave theirs behind until it reaches the
  /// top; none of them ever occupies the simulator's queue.
  std::vector<Deadline> Deadlines;
  /// The deadline each timer in the simulator's queue was armed for,
  /// latest first.  A timer is only armed ahead of all pending ones, so
  /// the back is always the next to fire and the heap top is never
  /// earlier than it.
  std::vector<Deadline> DeadlineTimers;
  uint64_t DeadlineTimersFired = 0;
  /// Ports this endpoint holds a connection to, indexed by node id.
  std::vector<std::vector<int>> ConnectedPorts;
  uint64_t NextCallId = 1;
  /// Logical-call ids for callReliable(); a separate counter so retries
  /// of one logical call share an id while each attempt keeps a fresh
  /// CallId.
  uint64_t NextDedupId = 1;
  RetryPolicy Retry;
  AdmissionPolicy Admission;
  /// Calls admitted but not yet finished (pool queue + executing): the
  /// backlog the admission budget bounds.  Maintained even with admission
  /// disabled (one integer) so the policy can be enabled mid-run.
  size_t AdmittedBacklog = 0;
  /// Jitter stream for retry backoff (seeded; see setRetryPolicy).
  Rng RetryRng;

  /// Server-side at-most-once window, keyed by the caller's identity plus
  /// its logical-call id.  An entry is born in-progress when the first
  /// attempt starts executing and caches the reply tail (everything after
  /// the CallId) once done.  At most Cap entries are held; the oldest is
  /// evicted first.  Entries sit in a ring in arrival order, found through
  /// an open-addressed index; both are sized on first use, and an evicted
  /// entry's slot (reply-tail capacity included) is reused by the next, so
  /// steady state allocates nothing.
  class DedupWindow {
  public:
    struct Key {
      int32_t Node = 0;
      int32_t Port = 0;
      uint64_t Id = 0;
      bool operator==(const Key &) const = default;
    };
    struct Entry {
      Key Call;
      bool Done = false;
      Bytes ReplyTail;
    };
    static constexpr size_t Cap = 256;

    /// The entry for \p K, or null.  Valid until the next insertion or
    /// dropInProgress.
    Entry *find(const Key &K);
    /// One probe: the entry for \p K and its ring slot, or -- when absent
    /// -- an in-progress entry inserted for it (evicting the oldest entry
    /// when the window is full); Inserted says which.
    struct Probe {
      Entry *Found;
      size_t Slot;
      bool Inserted;
    };
    Probe findOrInsert(const Key &K);
    /// \p K's entry again after a suspension: ring slot \p Slot when it
    /// still holds K, else wherever the index says (null once evicted).
    Entry *refind(size_t Slot, const Key &K);
    /// Drops every in-progress entry; the rest keep their order.
    void dropInProgress();

  private:
    static constexpr size_t IndexSize = 2 * Cap;
    static size_t home(const Key &K);
    /// Records ring slot \p Slot under its key.
    void index(size_t Slot);
    /// Removes \p K (which must be present) from the index.
    void unindex(const Key &K);

    std::vector<Entry> Ring;
    size_t Head = 0;
    size_t Count = 0;
    /// Ring slot + 1 per index slot; 0 marks an empty slot.  Linear
    /// probing at load <= 1/2, with backward-shift deletion.
    std::vector<uint16_t> Index;
  };
  DedupWindow Dedup;
  /// Host restart hook that clears in-progress dedup entries (their
  /// handlers died with the crash and would otherwise block retries).
  uint64_t RestartHookId = 0;
  EndpointStats Stats;
  /// "rpc.<profile-slug>" -- the per-channel metric namespace.
  std::string MetricsPrefix;
  /// Round-trip latency of two-way calls, sampled as calls complete
  /// (registry histograms have stable addresses, so caching is safe).
  metrics::Histogram *CallLatency = nullptr;
};

} // namespace parcs::remoting

#endif // PARCS_REMOTING_ENGINE_H
