//===- apps/ray/Farm.cpp --------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "apps/ray/Farm.h"

#include "RayWorkerGen.h"
#include "fault/Injector.h"
#include "mpi/Mpi.h"
#include "net/Network.h"
#include "sim/Sync.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "vm/Cluster.h"

#include <string>

using namespace parcs;
using namespace parcs::apps::ray;

//===----------------------------------------------------------------------===//
// Worker
//===----------------------------------------------------------------------===//

namespace {

/// The worker implementation object: renders line blocks and hands back
/// its accumulated rows.  Serves the ParC# farm as a parallel object and
/// the RMI farm as a unicast remote object.
class RayWorkerImpl : public RayWorkerSkeleton {
public:
  RayWorkerImpl(vm::Node &Host, std::shared_ptr<const RayJob> Job);

  sim::Task<ErrorOr<Unit>> render(int32_t Y0, int32_t Y1) override;
  sim::Task<ErrorOr<std::vector<uint8_t>>> collect() override;

private:
  vm::Node &Host;
  std::shared_ptr<const RayJob> Job;
  /// Rendered rows keyed by Y (map keeps collect output in image order).
  std::map<int32_t, std::vector<uint8_t>> Rows;
  uint64_t ChecksumSum = 0;
  /// This worker's trace lane on its node (0 when tracing is off).
  int TraceTid = 0;
};

} // namespace

RayWorkerImpl::RayWorkerImpl(vm::Node &Host, std::shared_ptr<const RayJob> Job)
    : Host(Host), Job(std::move(Job)) {
  if (trace::enabled()) {
    // One trace lane per worker, numbered in per-run track registration
    // order (deterministic under the single-threaded simulator; the
    // counter resets with the trace registry so repeated traced runs in
    // one process export identical lane names).
    TraceTid = trace::track(Host.id(), "ray.worker#" +
                                           std::to_string(trace::trackCount()));
  }
}

sim::Task<ErrorOr<Unit>> RayWorkerImpl::render(int32_t Y0, int32_t Y1) {
  if (Y0 < 0 || Y1 < Y0 || Y1 > Job->Height)
    co_return Error(ErrorCode::InvalidArgument, "render line range");
  int64_t BlockStartNs = Host.sim().now().nanosecondsCount();
  for (int32_t Y = Y0; Y < Y1; ++Y) {
    // Real rendering; virtual time charged per counted op, scaled by
    // this node's VM (reference = Sun JVM).
    LineResult Line = Job->SceneData.renderLine(Y, Job->Width, Job->Height);
    co_await Host.computeWork(
        vm::WorkKind::FloatingPoint,
        sim::SimTime::fromSecondsF(Job->NsPerOp * 1e-9 *
                                   static_cast<double>(Line.Ops)));
    ChecksumSum += Scene::lineChecksum(Line.Rgb);
    Rows[Y] = std::move(Line.Rgb);
  }
  trace::complete(Host.id(), TraceTid, "ray.render_block", BlockStartNs,
                  Host.sim().now().nanosecondsCount() - BlockStartNs);
  metrics::Registry &Reg = metrics::Registry::global();
  Reg.counter("ray.render_blocks").add(1);
  Reg.counter("ray.lines_rendered").add(static_cast<uint64_t>(Y1 - Y0));
  co_return Unit();
}

sim::Task<ErrorOr<std::vector<uint8_t>>> RayWorkerImpl::collect() {
  trace::instant(Host.id(), TraceTid, "ray.collect",
                 Host.sim().now().nanosecondsCount());
  serial::OutputArchive Out;
  Out.write(ChecksumSum);
  Out.write(static_cast<uint32_t>(Rows.size()));
  for (const auto &[Y, Rgb] : Rows) {
    Out.write(Y);
    Out.write(static_cast<uint32_t>(Rgb.size()));
    Out.writeRaw(Rgb);
  }
  co_return Out.take();
}

void parcs::apps::ray::registerRayWorker(
    scoopp::ParallelClassRegistry &Registry,
    std::shared_ptr<const RayJob> Job) {
  registerRayWorkerClass<RayWorkerImpl>(Registry, std::move(Job));
}

namespace {

/// Decodes a worker's collect() blob into (checksum, pixel bytes).
ErrorOr<std::pair<uint64_t, uint64_t>>
parseCollect(const remoting::Bytes &Raw) {
  serial::InputArchive In(Raw);
  uint64_t Checksum = 0;
  uint32_t RowCount = 0;
  uint64_t PixelBytes = 0;
  if (!In.read(Checksum) || !In.read(RowCount))
    return Error(ErrorCode::MalformedMessage, "collect header");
  for (uint32_t I = 0; I < RowCount; ++I) {
    int32_t Y = 0;
    uint32_t Size = 0;
    remoting::Bytes Rgb;
    if (!In.read(Y) || !In.read(Size) || !In.readRaw(Rgb, Size))
      return Error(ErrorCode::MalformedMessage, "collect row");
    PixelBytes += Size;
  }
  return std::make_pair(Checksum, PixelBytes);
}

/// Row-accurate variant for the SCOOPP master: folds previously unseen
/// rows into \p Out, recomputing each row's checksum locally.  Duplicate
/// deliveries (retries, a worker collected twice across recovery rounds)
/// therefore never double-count, and a partial collect still contributes
/// whatever rows it carries.
bool mergeCollect(const remoting::Bytes &Raw, const RayJob &Job,
                  std::vector<uint8_t> &RowSeen, FarmResult &Out) {
  serial::InputArchive In(Raw);
  uint64_t WorkerChecksum = 0;
  uint32_t RowCount = 0;
  if (!In.read(WorkerChecksum) || !In.read(RowCount))
    return false;
  for (uint32_t I = 0; I < RowCount; ++I) {
    int32_t Y = 0;
    uint32_t Size = 0;
    remoting::Bytes Rgb;
    if (!In.read(Y) || !In.read(Size) || !In.readRaw(Rgb, Size))
      return false;
    if (Y < 0 || Y >= Job.Height || RowSeen[static_cast<size_t>(Y)])
      continue;
    RowSeen[static_cast<size_t>(Y)] = 1;
    Out.Checksum += Scene::lineChecksum(Rgb);
    Out.PixelBytes += Rgb.size();
  }
  return true;
}

/// Assigns line blocks of Job.LinesPerTask to Workers round-robin;
/// returns per-worker block lists.
std::vector<std::vector<std::pair<int32_t, int32_t>>>
assignBlocks(const RayJob &Job, int Workers) {
  std::vector<std::vector<std::pair<int32_t, int32_t>>> Blocks(
      static_cast<size_t>(Workers));
  int Next = 0;
  for (int32_t Y0 = 0; Y0 < Job.Height; Y0 += Job.LinesPerTask) {
    int32_t Y1 = std::min<int32_t>(Y0 + Job.LinesPerTask, Job.Height);
    Blocks[static_cast<size_t>(Next)].push_back({Y0, Y1});
    Next = (Next + 1) % Workers;
  }
  return Blocks;
}

int nodesFor(int Processors) {
  return (Processors + calib::CoresPerNode - 1) / calib::CoresPerNode;
}

//===----------------------------------------------------------------------===//
// ParC# farm
//===----------------------------------------------------------------------===//

/// Upper bound on re-render rounds for rows lost to worker crashes.
constexpr int MaxRecoveryRounds = 3;

sim::Task<void> scooppMaster(scoopp::ScooppRuntime &Runtime,
                             std::shared_ptr<const RayJob> Job, int Workers,
                             FarmResult &Out) {
  sim::Simulator &Sim = Runtime.sim();
  sim::SimTime Start = Sim.now();
  // The master drives everything from node 0; its phases get their own
  // trace lane there.
  int MasterTid = trace::track(0, "ray.master");

  std::vector<std::unique_ptr<RayWorkerProxy>> Proxies;
  Proxies.reserve(static_cast<size_t>(Workers));
  for (int I = 0; I < Workers; ++I) {
    auto Proxy = std::make_unique<RayWorkerProxy>(Runtime, 0);
    Error E = co_await Proxy->create();
    if (E) {
      Out.Complete = false;
      co_return;
    }
    Proxies.push_back(std::move(Proxy));
  }
  trace::complete(0, MasterTid, "ray.create_workers",
                  Start.nanosecondsCount(),
                  Sim.now().nanosecondsCount() - Start.nanosecondsCount());
  int64_t FanoutStartNs = Sim.now().nanosecondsCount();

  // Fan the line blocks out as asynchronous method calls (the ParC#
  // delegate-style invocations of Fig. 4).  Blocks are issued round-robin
  // across workers -- worker-major order would queue several calls for
  // one parallel object back to back, and pool threads blocked on that
  // object's turn would starve the other workers (the paper's thread-pool
  // starvation effect, measured separately in the ablation bench).
  auto Blocks = assignBlocks(*Job, Workers);
  size_t MaxBlocks = 0;
  for (const auto &List : Blocks)
    MaxBlocks = std::max(MaxBlocks, List.size());
  for (size_t Round = 0; Round < MaxBlocks; ++Round)
    for (size_t W = 0; W < Proxies.size(); ++W)
      if (Round < Blocks[W].size())
        co_await Proxies[W]->render(Blocks[W][Round].first,
                                    Blocks[W][Round].second);
  for (auto &Proxy : Proxies)
    co_await Proxy->flush();
  trace::complete(0, MasterTid, "ray.fanout", FanoutStartNs,
                  Sim.now().nanosecondsCount() - FanoutStartNs);
  int64_t CollectStartNs = Sim.now().nanosecondsCount();

  // Synchronous collection (waits for each worker's renders to finish:
  // parallel objects run one method at a time).  A worker whose node died
  // is tolerated here -- its rows are simply missing and the recovery
  // loop below re-renders them elsewhere.
  std::vector<uint8_t> RowSeen(static_cast<size_t>(Job->Height), 0);
  for (auto &Proxy : Proxies) {
    ErrorOr<std::vector<uint8_t>> Blob = co_await Proxy->collect();
    if (!Blob) {
      PARCS_LOG(Warn, "ray: collect failed ("
                          << Blob.error().message() << "); rows from "
                          << Proxy->ref().Name << " will be re-rendered");
      continue;
    }
    mergeCollect(*Blob, *Job, RowSeen, Out);
  }
  trace::complete(0, MasterTid, "ray.collect_results", CollectStartNs,
                  Sim.now().nanosecondsCount() - CollectStartNs);

  // Recovery: gather the rows no surviving worker produced into fresh
  // blocks and re-render them on newly placed workers (health-aware
  // placement steers these away from nodes marked down).
  auto missingBlocks = [&] {
    std::vector<std::pair<int32_t, int32_t>> Blocks;
    int32_t Y = 0;
    while (Y < Job->Height) {
      if (RowSeen[static_cast<size_t>(Y)]) {
        ++Y;
        continue;
      }
      int32_t Y0 = Y;
      while (Y < Job->Height && !RowSeen[static_cast<size_t>(Y)] &&
             Y - Y0 < Job->LinesPerTask)
        ++Y;
      Blocks.push_back({Y0, Y});
    }
    return Blocks;
  };
  auto seenRows = [&] {
    int Count = 0;
    for (uint8_t Seen : RowSeen)
      Count += Seen;
    return Count;
  };
  int SeenBeforeRecovery = seenRows();
  for (int Round = 1; Round <= MaxRecoveryRounds; ++Round) {
    auto Missing = missingBlocks();
    if (Missing.empty())
      break;
    int64_t RecoveryStartNs = Sim.now().nanosecondsCount();
    metrics::Registry::global()
        .counter("ray.blocks_reassigned")
        .add(Missing.size());
    trace::instant(0, MasterTid, "fault.reassign",
                   Sim.now().nanosecondsCount());
    PARCS_LOG(Warn, "ray: recovery round " << Round << ": " << Missing.size()
                                           << " block(s) lost, reassigning");
    auto Spare = std::make_unique<RayWorkerProxy>(Runtime, 0);
    if (co_await Spare->create())
      continue;
    for (auto [Y0, Y1] : Missing)
      co_await Spare->render(Y0, Y1);
    co_await Spare->flush();
    ErrorOr<std::vector<uint8_t>> Blob = co_await Spare->collect();
    if (Blob)
      mergeCollect(*Blob, *Job, RowSeen, Out);
    trace::complete(0, MasterTid, "ray.recovery_round", RecoveryStartNs,
                    Sim.now().nanosecondsCount() - RecoveryStartNs);
  }
  int SeenAfterRecovery = seenRows();
  Out.RowsRecovered = SeenAfterRecovery - SeenBeforeRecovery;
  Out.Complete = SeenAfterRecovery == Job->Height;
  Out.Elapsed = Sim.now() - Start;
}

//===----------------------------------------------------------------------===//
// RMI farm
//===----------------------------------------------------------------------===//

sim::Task<void> rmiWorkerDriver(remoting::RemoteHandle Worker,
                                std::vector<std::pair<int32_t, int32_t>> Work,
                                FarmResult &Out, sim::WaitGroup &Done) {
  for (auto [Y0, Y1] : Work) {
    ErrorOr<Unit> R = co_await Worker.invokeTyped<Unit>("render", Y0, Y1);
    if (!R)
      break;
  }
  ErrorOr<std::vector<uint8_t>> Blob =
      co_await Worker.invokeTyped<std::vector<uint8_t>>("collect");
  if (Blob) {
    auto Parsed = parseCollect(*Blob);
    if (Parsed) {
      Out.Checksum += Parsed->first;
      Out.PixelBytes += Parsed->second;
    }
  }
  Done.done();
}

sim::Task<void> rmiMaster(std::vector<remoting::RemoteHandle> Workers,
                          std::shared_ptr<const RayJob> Job,
                          sim::Simulator &Sim, FarmResult &Out) {
  sim::SimTime Start = Sim.now();
  auto Blocks = assignBlocks(*Job, static_cast<int>(Workers.size()));
  sim::WaitGroup Done(Sim);
  Done.add(static_cast<int64_t>(Workers.size()));
  // "In Java, a similar functionality must be explicitly programmed using
  // threads": one driver per worker.
  for (size_t W = 0; W < Workers.size(); ++W)
    Sim.spawn(rmiWorkerDriver(Workers[W], Blocks[W], Out, Done));
  co_await Done.wait();
  Out.Elapsed = Sim.now() - Start;
}

} // namespace

FarmResult parcs::apps::ray::runScooppRayFarm(std::shared_ptr<const RayJob> Job,
                                              FarmConfig Config,
                                              scoopp::GrainPolicy Grain) {
  assert(Config.Processors >= 1 && "need at least one processor");
  vm::Cluster Machines(nodesFor(Config.Processors), Config.Vm);
  net::Network Net(Machines.sim(), Machines.nodeCount());
  scoopp::ScooppConfig ScooppCfg;
  ScooppCfg.Stack = Config.Stack;
  ScooppCfg.Grain = Grain;
  ScooppCfg.DispatchWorkers = Config.DispatchWorkers;
  // The injector outlives the runtime teardown below; its destructor
  // detaches from the network before folding its counters.
  std::unique_ptr<fault::Injector> Chaos;
  if (!Config.Faults.empty()) {
    Chaos = std::make_unique<fault::Injector>(Machines.sim(), Config.Faults);
    Chaos->attach(Machines, Net);
    // Faults without a retry policy would just hang the farm on the first
    // lost call.  The escalation matters: collect() is synchronous and
    // legitimately waits behind the worker's whole queued render share,
    // so a fixed 50 ms window would time out every attempt of a healthy
    // call.  Growing windows keep loss detection fast while the
    // cumulative schedule (~50 ms * 2^12) comfortably outlasts any farm's
    // collect latency; once the execution finishes, the at-most-once
    // window answers the next retry from the cached reply.
    constexpr remoting::RetryPolicy FaultRetry{
        .MaxAttempts = 12,
        .AttemptTimeout = sim::SimTime::milliseconds(50),
        .TimeoutFactor = 2.0,
        .MaxAttemptTimeout = sim::SimTime::seconds(60),
        .MaxBackoff = sim::SimTime::milliseconds(50)};
    ScooppCfg.Retry = FaultRetry;
  }
  scoopp::ParallelClassRegistry Registry;
  registerRayWorker(Registry, Job);
  scoopp::ScooppRuntime Runtime(Machines, Net, std::move(Registry),
                                ScooppCfg);
  FarmResult Out;
  Machines.sim().spawn(scooppMaster(Runtime, Job, Config.Processors, Out));
  Machines.sim().run();
  return Out;
}

FarmResult parcs::apps::ray::runRmiRayFarm(std::shared_ptr<const RayJob> Job,
                                           int Processors) {
  assert(Processors >= 1 && "need at least one processor");
  vm::Cluster Machines(nodesFor(Processors), vm::VmKind::SunJvm142);
  net::Network Net(Machines.sim(), Machines.nodeCount());
  std::vector<std::unique_ptr<remoting::RpcEndpoint>> Endpoints;
  for (int I = 0; I < Machines.nodeCount(); ++I)
    Endpoints.push_back(std::make_unique<remoting::RpcEndpoint>(
        Machines.node(I), Net,
        remoting::stackProfile(remoting::StackKind::JavaRmi),
        rmi::RegistryPort));
  // One worker per processor, two per dual-CPU node.
  std::vector<remoting::RemoteHandle> Workers;
  for (int W = 0; W < Processors; ++W) {
    int NodeId = W / calib::CoresPerNode;
    std::string Name = "worker" + std::to_string(W);
    Endpoints[static_cast<size_t>(NodeId)]->publish(
        Name, std::make_shared<RayWorkerImpl>(Machines.node(NodeId), Job));
    Workers.emplace_back(*Endpoints[0], NodeId, rmi::RegistryPort, Name);
  }
  FarmResult Out;
  Machines.sim().spawn(
      rmiMaster(std::move(Workers), Job, Machines.sim(), Out));
  Machines.sim().run();
  return Out;
}

namespace {

/// Tags of the MPI farm protocol.
enum MpiFarmTag : int {
  TagWork = 1,   ///< (y0, y1) line block.
  TagDone = 2,   ///< No more work; report results.
  TagResult = 3, ///< (checksum, rowCount, rows...).
};

sim::Task<void> mpiFarmRank(mpi::MpiComm Comm,
                            std::shared_ptr<const RayJob> Job,
                            FarmResult *Out) {
  if (Comm.rank() == 0) {
    // Master: deal blocks round-robin, then collect.
    sim::SimTime Start = Comm.node().sim().now();
    int Workers = Comm.size() - 1;
    auto Blocks = assignBlocks(*Job, Workers);
    size_t MaxBlocks = 0;
    for (const auto &List : Blocks)
      MaxBlocks = std::max(MaxBlocks, List.size());
    for (size_t Round = 0; Round < MaxBlocks; ++Round)
      for (int W = 0; W < Workers; ++W)
        if (Round < Blocks[static_cast<size_t>(W)].size()) {
          auto [Y0, Y1] = Blocks[static_cast<size_t>(W)][Round];
          co_await Comm.send(W + 1, TagWork, serial::encodeValues(Y0, Y1));
        }
    for (int W = 1; W <= Workers; ++W)
      co_await Comm.send(W, TagDone, {});
    for (int W = 0; W < Workers; ++W) {
      mpi::RecvResult In = co_await Comm.recv(mpi::AnySource, TagResult);
      serial::InputArchive Ar(In.Data);
      uint64_t Checksum = 0;
      uint32_t RowBytes = 0;
      remoting::Bytes Rows;
      if (Ar.read(Checksum) && Ar.read(RowBytes) &&
          Ar.readRaw(Rows, RowBytes)) {
        Out->Checksum += Checksum;
        Out->PixelBytes += Rows.size();
      }
    }
    Out->Elapsed = Comm.node().sim().now() - Start;
    co_return;
  }

  // Worker: render blocks until the done marker, then ship the rows
  // (explicitly packed, as the paper contrasts with serialisation).
  uint64_t Checksum = 0;
  std::map<int32_t, std::vector<uint8_t>> Rows;
  for (;;) {
    mpi::RecvResult In = co_await Comm.recv(0, mpi::AnyTag);
    if (In.Tag == TagDone)
      break;
    int32_t Y0 = 0, Y1 = 0;
    if (!serial::decodeValues(In.Data, Y0, Y1))
      continue;
    for (int32_t Y = Y0; Y < Y1 && Y < Job->Height; ++Y) {
      LineResult Line = Job->SceneData.renderLine(Y, Job->Width, Job->Height);
      co_await Comm.node().computeWork(
          vm::WorkKind::FloatingPoint,
          sim::SimTime::fromSecondsF(Job->NsPerOp * 1e-9 *
                                     static_cast<double>(Line.Ops)));
      Checksum += Scene::lineChecksum(Line.Rgb);
      Rows[Y] = std::move(Line.Rgb);
    }
  }
  serial::OutputArchive Packed;
  Packed.write(Checksum);
  serial::OutputArchive RowBuffer;
  for (const auto &[Y, Rgb] : Rows)
    RowBuffer.writeRaw(Rgb);
  Packed.write(static_cast<uint32_t>(RowBuffer.size()));
  Packed.writeRaw(RowBuffer.bytes());
  co_await Comm.send(0, TagResult, Packed.take());
}

} // namespace

FarmResult parcs::apps::ray::runMpiRayFarm(std::shared_ptr<const RayJob> Job,
                                           int Processors) {
  assert(Processors >= 1 && "need at least one processor");
  int Ranks = Processors + 1; // Master + workers.
  int Nodes = nodesFor(Ranks);
  vm::Cluster Machines(Nodes, vm::VmKind::NativeCpp);
  net::Network Net(Machines.sim(), Nodes);
  mpi::MpiWorld World(Machines, Net, Ranks, calib::CoresPerNode);
  FarmResult Out;
  World.launch([Job, &Out](mpi::MpiComm Comm) -> sim::Task<void> {
    return mpiFarmRank(Comm, Job, &Out);
  });
  Machines.sim().run();
  return Out;
}

SequentialResult parcs::apps::ray::sequentialRender(const RayJob &Job,
                                                    vm::VmKind Vm) {
  RenderStats Stats = Job.SceneData.renderWhole(Job.Width, Job.Height);
  SequentialResult Out;
  Out.Checksum = Stats.Checksum;
  Out.Seconds = static_cast<double>(Stats.TotalOps) * Job.NsPerOp * 1e-9 *
                vm::vmCostModel(Vm).FpMultiplier;
  return Out;
}
