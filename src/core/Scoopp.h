//===- core/Scoopp.h - The ParC#/SCOOPP runtime -----------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution: ParC#, an implementation of SCOOPP
/// (Scalable Object Oriented Parallel Programming) on top of the remoting
/// stack.  Section 3's structure maps to this module as follows:
///
///  - *parallel objects* (active objects): a user class is split by the
///    preprocessor (parcgen, or by hand) into a PO class deriving from
///    ProxyBase and an IO class implementing remoting::CallHandler;
///  - *PO (proxy object)*: ProxyBase -- forwards inter-grain calls through
///    remoting and short-circuits intra-grain calls to the local IO;
///    carries the method-call aggregation buffers (Fig. 7);
///  - *IO (implementation object)*: the user implementation wrapped in
///    ImplAdapter, which adds packed-call ("processN") handling and
///    reports grain execution times to the OM;
///  - *SO (server objects)*: the paper notes C# remoting subsumes them --
///    here the RpcEndpoint dispatch loop plays that role;
///  - *OM (object manager)*: one per node; performs placement (load
///    balancing) and grain-size adaptation decisions;
///  - *object factory* (Fig. 6): one per node, published as a well-known
///    object; instantiates IOs on request and returns their names.
///
/// Grain-size adaptation (Section 3.1):
///  - method call aggregation: asynchronous calls are buffered per method
///    and shipped as one packed message;
///  - object agglomeration: new parallel objects are created locally so
///    their calls execute synchronously and serially.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_CORE_SCOOPP_H
#define PARCS_CORE_SCOOPP_H

#include "net/Network.h"
#include "remoting/Engine.h"
#include "remoting/Remoting.h"
#include "support/Random.h"
#include "vm/Cluster.h"

#include <map>
#include <memory>
#include <string>

namespace parcs::scoopp {

using remoting::Bytes;
using remoting::CallHandler;
using remoting::RpcEndpoint;

class ImplAdapter;
class ObjectManager;
class ScooppRuntime;

//===----------------------------------------------------------------------===//
// Class registry (what the preprocessor discovered)
//===----------------------------------------------------------------------===//

/// Everything the runtime needs to know about one parallel class.
struct ParallelClassInfo {
  std::string Name;
  /// Creates the implementation object (IO) on \p Host.  The runtime is
  /// passed so implementations can themselves create parallel objects
  /// (e.g. a pipeline stage creating its successor).
  std::function<std::shared_ptr<CallHandler>(ScooppRuntime &Runtime,
                                             vm::Node &Host)>
      MakeImpl;
};

/// Registry of parallel classes, normally filled by parcgen-generated
/// registration functions before the runtime boots.
class ParallelClassRegistry {
public:
  void registerClass(ParallelClassInfo Info) {
    assert(!Info.Name.empty() && Info.MakeImpl && "incomplete class info");
    Classes[Info.Name] = std::move(Info);
  }
  const ParallelClassInfo *lookup(const std::string &Name) const {
    auto It = Classes.find(Name);
    return It == Classes.end() ? nullptr : &It->second;
  }
  size_t size() const { return Classes.size(); }

private:
  std::map<std::string, ParallelClassInfo> Classes;
};

//===----------------------------------------------------------------------===//
// Policies
//===----------------------------------------------------------------------===//

/// Where newly created parallel objects are placed.
enum class PlacementPolicy {
  RoundRobin,  ///< Cycle over the nodes (the default farm behaviour).
  LeastLoaded, ///< Query every OM's load and pick the minimum.
  Random,      ///< Uniform random node (seeded, deterministic).
  LocalOnly,   ///< Always the creator's node (degenerate/testing).
  /// "Power of two choices": sample two distinct random candidates, query
  /// only their loads, place on the less loaded.  O(1) probes per creation
  /// instead of LeastLoaded's O(nodes) poll, with near-optimal balance
  /// (Mitzenmacher); the scalable default for large clusters.
  PowerOfTwoChoices,
};

/// Grain-size adaptation parameters (Section 3.1 / [9]).
struct GrainPolicy {
  /// Calls packed per aggregate message ("maxCalls" in Fig. 7); 1 turns
  /// aggregation off.
  int MaxCallsPerMessage = 1;
  /// Statically force object agglomeration (all creations local).
  bool AgglomerateObjects = false;
  /// Enable run-time adaptation: classes whose average method execution
  /// time falls below ObjectManager::SmallGrainThreshold get their calls
  /// aggregated (up to MaxCallsPerMessage) and new instances agglomerated.
  bool Adaptive = false;
};

/// Runtime configuration.
struct ScooppConfig {
  remoting::StackKind Stack = remoting::StackKind::MonoRemotingTcp117;
  GrainPolicy Grain;
  PlacementPolicy Placement = PlacementPolicy::RoundRobin;
  /// Per-endpoint dispatch worker cap (0 = the VM's thread-pool cap).
  int DispatchWorkers = 0;
  uint64_t Seed = 1;
  /// Retry policy installed on every endpoint (disabled by default, which
  /// leaves the fault-free event stream untouched).  Enable it when a
  /// FaultPlan is in play so proxies survive loss and crashes.
  remoting::RetryPolicy Retry;
  /// Admission budget installed on every endpoint (disabled by default:
  /// the fault-free wire bytes and event stream stay exactly legacy).
  /// Enable it under open-loop load so saturated nodes refuse work with a
  /// retry-after hint instead of queueing without bound.
  remoting::AdmissionPolicy Admission;
};

//===----------------------------------------------------------------------===//
// Parallel object references
//===----------------------------------------------------------------------===//

/// A location-transparent reference to a parallel object: the paper allows
/// such references to be copied and sent as method arguments.  Always
/// (node, published name); local objects are also published so their refs
/// stay valid remotely.
struct ParallelRef {
  int Node = -1;
  std::string Name;

  bool valid() const { return Node >= 0 && !Name.empty(); }

  void encode(serial::OutputArchive &Out) const {
    Out.write(static_cast<int32_t>(Node));
    Out.write(Name);
  }
  static bool decode(serial::InputArchive &In, ParallelRef &Out) {
    int32_t Node = 0;
    if (!In.read(Node) || !In.read(Out.Name))
      return false;
    Out.Node = Node;
    return true;
  }
  /// Ref packed as call-argument bytes.
  Bytes toBytes() const {
    serial::OutputArchive Out;
    encode(Out);
    return Out.take();
  }
  static bool fromBytes(const Bytes &Data, ParallelRef &Out) {
    serial::InputArchive In(Data);
    return decode(In, Out) && In.atEnd();
  }

  bool operator==(const ParallelRef &) const = default;
  /// By node, then name (the route table's key order).
  auto operator<=>(const ParallelRef &) const = default;
};

//===----------------------------------------------------------------------===//
// Runtime
//===----------------------------------------------------------------------===//

/// Counters used by the experiments.
struct ScooppStats {
  uint64_t RemoteCreations = 0;
  uint64_t LocalCreations = 0; ///< Agglomerated objects.
  uint64_t RemoteSyncCalls = 0;
  uint64_t RemoteAsyncCalls = 0;
  uint64_t LocalCalls = 0; ///< Intra-grain (direct) calls.
  uint64_t PackedMessages = 0;
  uint64_t PackedCalls = 0; ///< Calls shipped inside packed messages.
};

/// Boots one ParC# runtime over an existing cluster + network: per node an
/// RpcEndpoint, an ObjectManager and an object factory.
class ScooppRuntime {
public:
  ScooppRuntime(vm::Cluster &Cluster, net::Network &Net,
                ParallelClassRegistry Registry,
                ScooppConfig Config = ScooppConfig());
  ~ScooppRuntime();
  ScooppRuntime(const ScooppRuntime &) = delete;
  ScooppRuntime &operator=(const ScooppRuntime &) = delete;

  vm::Cluster &cluster() { return Cluster; }
  sim::Simulator &sim() { return Cluster.sim(); }
  int nodeCount() const { return Cluster.nodeCount(); }
  const ScooppConfig &config() const { return Config; }
  const ParallelClassRegistry &registry() const { return Registry; }

  RpcEndpoint &endpoint(int Node);
  ObjectManager &om(int Node);

  /// Instantiates an IO of \p ClassName on \p Node: builds the user impl,
  /// wraps it in ImplAdapter, publishes it under a fresh unique name and
  /// returns (published name, adapter).  Used by the per-node factories
  /// and by the proxy's agglomerated-creation path.
  ErrorOr<std::pair<std::string, std::shared_ptr<ImplAdapter>>>
  instantiateImpl(int Node, const std::string &ClassName);

  ScooppStats &stats() { return Stats; }
  const ScooppStats &stats() const { return Stats; }
  Rng &rng() { return Random; }

  //===--------------------------------------------------------------------===//
  // Node health (failure-aware placement)
  //===--------------------------------------------------------------------===//

  /// True for an error code that indicates the transport (not the remote
  /// method) failed -- the signal node-health tracking keys off.
  static bool transportError(ErrorCode Code) {
    return Code == ErrorCode::TimedOut ||
           Code == ErrorCode::ConnectionFailed ||
           Code == ErrorCode::ChecksumMismatch;
  }

  /// Consecutive transport failures against one node before the runtime
  /// marks it down and steers placement away from it.
  static constexpr int NodeFailureThreshold = 2;

  /// False once \p Node accumulated NodeFailureThreshold consecutive
  /// transport failures (and no success since); placement avoids
  /// unhealthy nodes and proxies fail over.
  bool nodeHealthy(int Node) const {
    return Node < 0 || Node >= static_cast<int>(Down.size()) || !Down[Node];
  }

  /// Feeds one RPC outcome against \p Node into the health tracker.  A
  /// success clears the failure streak (and resurrects a down node).
  void noteCallOutcome(int Node, bool Ok);

  //===--------------------------------------------------------------------===//
  // Backpressure (overload-aware placement)
  //===--------------------------------------------------------------------===//

  /// How long one Overloaded refusal keeps a node marked saturated for
  /// placement purposes (virtual time, so the mark ages deterministically).
  /// A successful call clears it early.
  static constexpr sim::SimTime SaturationTtl = sim::SimTime::milliseconds(2);

  /// Feeds an Overloaded refusal observed against \p Node into the
  /// backpressure tracker: bumps the om.calls_shed counter and marks the
  /// node saturated for SaturationTtl of virtual time, steering placement
  /// away from it.  Distinct from noteCallOutcome -- an overloaded node is
  /// alive (it answered), just refusing work.
  void noteOverloaded(int Node);

  /// True while \p Node is within SaturationTtl of its last Overloaded
  /// refusal (and no success against it since).  Placement and failover
  /// skip saturated nodes; when every candidate is saturated the runtime
  /// degrades fail-static to local placement.
  bool nodeSaturated(int Node) const;

  //===--------------------------------------------------------------------===//
  // URI routes (live migration's location service)
  //===--------------------------------------------------------------------===//

  /// Records that the object published as \p From now lives at \p To
  /// (called at migration cutover).  Existing chains through \p From are
  /// collapsed so every lookup stays one hop.
  void noteMigrated(const ParallelRef &From, const ParallelRef &To);

  /// Follows the route table: the current home of \p Ref (\p Ref itself
  /// when it never migrated).  Proxies refresh their cached refs through
  /// this, which is how callers never observe a move.
  const ParallelRef &resolveRoute(const ParallelRef &Ref) const;

  /// Port of every node's runtime endpoint.
  static constexpr int Port = 1050;

  /// Name under which each node's factory is published ("factory.soap" in
  /// the paper's Fig. 5/6).
  static constexpr const char *FactoryName = "__scoopp_factory";
  static constexpr const char *OmName = "__scoopp_om";

private:
  vm::Cluster &Cluster;
  net::Network &Net;
  ParallelClassRegistry Registry;
  ScooppConfig Config;
  std::vector<std::unique_ptr<RpcEndpoint>> Endpoints;
  std::vector<std::shared_ptr<ObjectManager>> Oms;
  /// Per-node counters for unique IO names.
  std::vector<uint64_t> NextImplId;
  /// Health tracking: consecutive transport failures per node, and the
  /// down flags derived from them.
  std::vector<int> FailStreak;
  std::vector<uint8_t> Down;
  /// Backpressure: sim time of the last Overloaded refusal per node
  /// (-1 = never / cleared by a success).
  std::vector<int64_t> SaturatedAtNs;
  /// The om.calls_shed and om.node_saturated counters, looked up at the
  /// first refusal (so a run without one reports neither).
  metrics::Counter *CallsShed = nullptr;
  metrics::Counter *NodesSaturated = nullptr;
  /// Migration route table: origin -> current home.
  std::map<ParallelRef, ParallelRef> Routes;
  ScooppStats Stats;
  Rng Random;
};

} // namespace parcs::scoopp

#endif // PARCS_CORE_SCOOPP_H
