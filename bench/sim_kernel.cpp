//===- bench/sim_kernel.cpp - Kernel/message-path throughput (M2) ---------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the raw speed of the substrate everything else in this repo sits
/// on: the discrete-event kernel (events/sec, coroutine resumes/sec) and the
/// remoting message path (RPC calls/sec through the full engine, TCP-binary
/// and HTTP-SOAP stacks, plain, reliable and with the live telemetry plane
/// on).  Each row prints one line: its name, its wall-clock rate and the
/// simulator's counter snapshot.  The rates are for reading on one machine;
/// perfbench is the benchmark of record.
///
/// Each row is also held to deterministic ceilings on its counts -- no
/// callback off the inline buffer, peak queue depth, event nodes recycled
/// (no more allocated than the peak queue depth plus the one a running
/// callback holds), events per call, every echo call answered -- and the
/// binary exits 1, naming the row, when one is broken.  Run with --smoke for
/// tiny iteration counts (the bench_smoke CTest target); the ceilings hold
/// at both sizes.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "net/Network.h"
#include "remoting/Engine.h"
#include "serial/Archive.h"
#include "telemetry/Telemetry.h"
#include "vm/Cluster.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

using namespace parcs;
using namespace parcs::bench;
using serial::Bytes;

namespace {

/// Tiny deterministic RNG for spreading event times (xorshift32).
struct Rng {
  uint32_t State = 0x9e3779b9;
  uint32_t next() {
    State ^= State << 13;
    State ^= State >> 17;
    State ^= State << 5;
    return State;
  }
};

/// The counts one row is held to.  They are deterministic, so they read
/// the same on every machine and in every build type.
struct Ceilings {
  uint64_t PeakQueueDepth = 0;
  /// Events per call (the RPC rows, which pass checkRow their call count).
  double EventsPerCall = 0;
};

/// Exits 1, naming \p Row, when \p Value is above \p Ceiling.  Every check
/// in this bench goes through here rather than assert(), so a build with
/// assertions off still makes it.
void requireAtMost(const char *Row, const char *What, double Value,
                   double Ceiling) {
  if (Value <= Ceiling)
    return;
  std::fprintf(stderr, "%s: %s = %.10g, above its ceiling of %.10g\n", Row,
               What, Value, Ceiling);
  std::exit(1);
}

/// Holds \p Row's simulator to \p Max.  No row may let a callback fall off
/// the inline buffer, and every row must recycle its event nodes: a node is
/// allocated only when the queue reaches a new depth, plus one for the
/// node a running callback holds while it schedules.  \p Calls is the
/// number of calls an RPC row made.
void checkRow(const char *Row, const sim::Simulator &Sim, const Ceilings &Max,
              uint64_t Calls = 0) {
  const sim::SchedulerCounters &C = Sim.counters();
  requireAtMost(Row, "sbo_misses", double(C.SboMisses), 0);
  requireAtMost(Row, "peak_queue_depth", double(C.PeakQueueDepth),
                double(Max.PeakQueueDepth));
  requireAtMost(Row, "nodes_allocated", double(C.NodesAllocated),
                double(C.PeakQueueDepth + 1));
  if (Calls > 0)
    requireAtMost(Row, "events per call",
                  double(Sim.eventsProcessed()) / double(Calls),
                  Max.EventsPerCall);
}

/// \p Sim's event count and scheduler counters as one "name=value" line.
std::string counterLine(const sim::Simulator &Sim) {
  const sim::SchedulerCounters &C = Sim.counters();
  return "events=" + std::to_string(Sim.eventsProcessed()) +
         " callback_events=" + std::to_string(C.CallbackEvents) +
         " resume_events=" + std::to_string(C.ResumeEvents) +
         " peak_queue_depth=" + std::to_string(C.PeakQueueDepth) +
         " sbo_misses=" + std::to_string(C.SboMisses) +
         " nodes_allocated=" + std::to_string(C.NodesAllocated);
}

/// One run of a row: its wall-clock rate and the simulator's counters.
struct RowResult {
  const char *Row = "";
  double PerSec = 0;
  std::string Counters;
};

/// Best of \p Reps runs by rate: on a shared machine a single sample is
/// biased low by neighbours' load alone.  A row's counts do not vary.
template <typename RunFn> RowResult bestOf(int Reps, RunFn Run) {
  RowResult Best;
  for (int R = 0; R < Reps; ++R) {
    RowResult Next = Run();
    if (Next.PerSec > Best.PerSec)
      Best = std::move(Next);
  }
  return Best;
}

/// Prints a row's one line.
void printRow(const RowResult &R, const char *Unit,
              const std::string &Note = "") {
  std::printf("  %-17s %10.0f %s%s  %s\n", R.Row, R.PerSec, Unit,
              Note.c_str(), R.Counters.c_str());
}

/// The kernel rows keep this many events in flight.
constexpr int Population = 64;

/// Raw event throughput: a self-replenishing population of scheduled
/// callbacks with a representative capture size (pointer + counters) and a
/// mix of zero-delay and short-delay events, mimicking channel wake-ups and
/// cost-model delays.
RowResult benchRawEvents(uint64_t Total) {
  sim::Simulator Sim;
  uint64_t Remaining = Total;
  Rng R;
  WallTimer Timer;
  struct Pump {
    sim::Simulator &Sim;
    uint64_t &Remaining;
    Rng &R;
    void operator()() const {
      if (Remaining == 0)
        return;
      --Remaining;
      // Half the events fire "now" (wake-ups), half a few microseconds out
      // (cost-model delays) so the queue sees realistic time spread.
      uint32_t Roll = R.next();
      sim::SimTime Delay = (Roll & 1)
                               ? sim::SimTime()
                               : sim::SimTime::nanoseconds(Roll % 8192);
      Sim.schedule(Delay, Pump{Sim, Remaining, R});
    }
  };
  for (int I = 0; I < Population; ++I)
    Sim.schedule(sim::SimTime::nanoseconds(I), Pump{Sim, Remaining, R});
  Sim.run();
  double Secs = Timer.seconds();
  // The Pump capture fits the inline buffer and the node free list covers
  // the steady-state population: no per-event allocations.
  checkRow("raw-events", Sim, {.PeakQueueDepth = Population});
  return {"raw-events", static_cast<double>(Total) / Secs,
          counterLine(Sim)};
}

/// Coroutine resume throughput: tasks that do nothing but sleep a few
/// nanoseconds of virtual time, i.e. the scheduleResume fast path.
RowResult benchScheduleResume(uint64_t Total) {
  sim::Simulator Sim;
  uint64_t PerTask = Total / Population;
  struct Sleeper {
    static sim::Task<void> run(sim::Simulator &Sim, uint64_t Rounds) {
      for (uint64_t I = 0; I < Rounds; ++I)
        co_await Sim.delay(sim::SimTime::nanoseconds(7));
      co_return;
    }
  };
  WallTimer Timer;
  for (int I = 0; I < Population; ++I)
    Sim.spawn(Sleeper::run(Sim, PerTask));
  Sim.run();
  double Secs = Timer.seconds();
  // The acceptance bar for the resume fast path: raw coroutine handles in
  // recycled nodes, so a steady-state resume allocates nothing.
  checkRow("resumes", Sim, {.PeakQueueDepth = Population});
  return {"resumes", static_cast<double>(PerTask * Population) / Secs,
          counterLine(Sim)};
}

/// Echo service: returns its argument bytes without charging compute, so
/// the measurement isolates the message path (marshal, frame, wire model,
/// dispatch, unframe) rather than application work.
class EchoServer : public remoting::CallHandler {
public:
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view,
                                       const Bytes &Args) override {
    co_return Args;
  }
};

/// Full-path RPC throughput: sequential echo calls between two nodes,
/// checked against \p Max.  With \p WithTelemetry a live telemetry plane
/// rides the same network, so the engine's rpc.* series are windowed,
/// snapshotted and shipped in-band while the bench runs -- pricing what
/// "telemetry on" costs a real workload.  A non-empty \p Retry sends every
/// call through callReliable, so each carries a deadline and a dedup id.
RowResult benchRpc(const char *Row, remoting::StackKind Stack, uint64_t Calls,
                   const Ceilings &Max, bool WithTelemetry = false,
                   const remoting::RetryPolicy &Retry = {}) {
  vm::Cluster Machines(2, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), 2);
  std::unique_ptr<telemetry::Plane> Plane;
  if (WithTelemetry) {
    telemetry::TelemetrySpec Spec; // no Path: keep the export in memory
    Spec.WindowNs = 1'000'000;
    Plane = std::make_unique<telemetry::Plane>(Net, Spec);
  }
  remoting::RpcEndpoint Client(Machines.node(0), Net,
                               remoting::stackProfile(Stack), 1050);
  remoting::RpcEndpoint Server(Machines.node(1), Net,
                               remoting::stackProfile(Stack), 1050);
  Server.publish("echo", std::make_shared<EchoServer>());
  Client.setRetryPolicy(Retry);

  Bytes Args = serial::encodeValues(std::string(64, 'x'));
  uint64_t Answered = 0;
  struct Driver {
    static sim::Task<void> run(remoting::RpcEndpoint &Ep, uint64_t Calls,
                               Bytes Args, uint64_t &Answered) {
      bool Reliable = Ep.retryPolicy().enabled();
      for (uint64_t I = 0; I < Calls; ++I) {
        sim::Task<ErrorOr<Bytes>> Call =
            Reliable ? Ep.callReliable(1, 1050, "echo", "ping", Args)
                     : Ep.call(1, 1050, "echo", "ping", Args);
        ErrorOr<Bytes> Reply = co_await std::move(Call);
        if (Reply)
          ++Answered;
      }
    }
  };

  WallTimer Timer;
  Machines.sim().spawn(Driver::run(Client, Calls, Args, Answered));
  Machines.sim().run();
  double Secs = Timer.seconds();
  requireAtMost(Row, "unanswered echo calls", double(Calls - Answered), 0);
  checkRow(Row, Machines.sim(), Max, Calls);
  if (Retry.enabled()) {
    // Deadline timers are armed per endpoint, not per call: about one
    // fires per AttemptTimeout of virtual time, however many calls ran.
    int64_t Windows = Machines.sim().now().nanosecondsCount() /
                      Retry.AttemptTimeout.nanosecondsCount();
    requireAtMost(Row, "deadline timers fired",
                  double(Client.deadlineTimersFired()),
                  double(2 * (1 + Windows)));
  }
  return {Row, static_cast<double>(Calls) / Secs,
          counterLine(Machines.sim())};
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0) {
      Smoke = true;
    } else {
      std::fprintf(stderr, "unknown option '%s' (supported: --smoke)\n",
                   argv[I]);
      return 2;
    }
  }

  uint64_t EventTotal = Smoke ? 20000 : 4000000;
  uint64_t ResumeTotal = Smoke ? 20000 : 4000000;
  uint64_t RpcCalls = Smoke ? 200 : 40000;

  banner("M2", "simulation kernel + message path throughput");

  int Reps = Smoke ? 1 : 5;
  printRow(bestOf(Reps, [&] { return benchRawEvents(EventTotal); }),
           "events/s");
  printRow(bestOf(Reps, [&] { return benchScheduleResume(ResumeTotal); }),
           "resumes/s");

  // Ceilings at today's counts.  A plane-off echo call runs 11 events
  // (11.04 at --smoke, where start-up is spread over fewer calls) with at
  // most 7 pending; the telemetry plane adds 1.7 events per call and one
  // pending event.
  Ceilings PlaneOff{.PeakQueueDepth = 7, .EventsPerCall = 11.1};
  Ceilings PlaneOn{.PeakQueueDepth = 8, .EventsPerCall = 12.8};
  RowResult Tcp = benchRpc("rpc-tcp", remoting::StackKind::MonoRemotingTcp117,
                           RpcCalls, PlaneOff);
  printRow(Tcp, "calls/s");
  printRow(benchRpc("rpc-http", remoting::StackKind::MonoRemotingHttp117,
                    RpcCalls, PlaneOff),
           "calls/s");
  // The loadgen call path: every call carries a deadline and a dedup id.
  remoting::RetryPolicy Reliable;
  Reliable.MaxAttempts = 3;
  Reliable.AttemptTimeout = sim::SimTime::seconds(2);
  printRow(benchRpc("rpc-tcp-reliable",
                    remoting::StackKind::MonoRemotingTcp117, RpcCalls,
                    PlaneOff, /*WithTelemetry=*/false, Reliable),
           "calls/s");
  // The TCP calls again with the in-band telemetry plane windowing and
  // shipping the engine's rpc.* series over the same network.
  RowResult TcpTel =
      benchRpc("rpc-tcp+tel", remoting::StackKind::MonoRemotingTcp117,
               RpcCalls, PlaneOn, /*WithTelemetry=*/true);
  double OverheadPct = (1.0 - TcpTel.PerSec / Tcp.PerSec) * 100.0;
  printRow(TcpTel, "calls/s", " (" + fmt(OverheadPct, 1) + "% vs rpc-tcp)");
  return 0;
}
