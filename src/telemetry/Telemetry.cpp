//===- telemetry/Telemetry.cpp - In-band cluster telemetry plane ----------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Telemetry.h"

#include "serial/Archive.h"
#include "support/EnvSpec.h"
#include "support/File.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>

namespace parcs::telemetry {

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

bool parseTelemetrySpec(std::string_view SpecText, TelemetrySpec &Out,
                        std::string *BadToken) {
  TelemetrySpec Spec;
  auto Option = [&](std::string_view Key, std::string_view Value) {
    if (Key == "window")
      return parseDurationNs(Value, "ns", Spec.WindowNs) && Spec.WindowNs > 0;
    if (Key == "flush")
      return parseDurationNs(Value, "ns", Spec.FlushNs) && Spec.FlushNs > 0;
    if (Key == "collector")
      return parseInt(Value, Spec.CollectorNode, 0);
    if (Key == "port")
      return parseInt(Value, Spec.Port, 1, 65535);
    if (Key == "model") {
      Spec.ModelPath = std::string(Value);
      return !Value.empty();
    }
    return Key == "slo" && parseSloSpecs(Value, Spec.Slos);
  };
  if (!envspec::parse(SpecText, Spec.Path, Option, BadToken))
    return false;
  Out = std::move(Spec);
  return true;
}

bool envTelemetrySpec(TelemetrySpec &Out) {
  return envspec::readKnob("PARCS_TELEMETRY", Out, parseTelemetrySpec);
}

//===----------------------------------------------------------------------===//
// Plane lifecycle
//===----------------------------------------------------------------------===//

Plane::Plane(net::Network &Net, TelemetrySpec S)
    : Spec(std::move(S)), Net(Net) {
  assert(Spec.WindowNs > 0 && "telemetry window must be positive");
  if (Spec.FlushNs <= 0)
    Spec.FlushNs = Spec.WindowNs;
  int Nodes = Net.nodeCount();
  assert(Spec.CollectorNode >= 0 && Spec.CollectorNode < Nodes &&
         "collector node out of range");
  Agents.resize(size_t(Nodes));
  LastHeartbeatNs.assign(size_t(Nodes), -1);
  Slos.reserve(Spec.Slos.size());
  for (const SloSpec &S : Spec.Slos) {
    SloState St;
    St.Spec = S;
    St.SpanWindows =
        std::max<int64_t>(1, (S.WindowNs + Spec.WindowNs - 1) / Spec.WindowNs);
    Slos.push_back(std::move(St));
  }
  sim::Channel<net::Message> &Chan = Net.bind(Spec.CollectorNode, Spec.Port);
  Net.sim().spawn(collectorLoop(Chan));
  PrevSink = setSink(this);
}

Plane::~Plane() {
  setSink(PrevSink);
  finish();
}

//===----------------------------------------------------------------------===//
// Agent side
//===----------------------------------------------------------------------===//

Plane::SeriesDelta &Plane::deltaFor(int Node, const char *Series,
                                    int64_t AtNs) {
  Agent &A = Agents[size_t(Node)];
  int64_t Window = std::max<int64_t>(0, AtNs) / Spec.WindowNs;
  return A.Pending[Window][Series];
}

void Plane::count(int Node, const char *Series, int64_t AtNs, uint64_t N) {
  if (Node < 0 || Node >= int(Agents.size()))
    return;
  deltaFor(Node, Series, AtNs).Count += N;
  arm(Node, AtNs);
}

void Plane::record(int Node, const char *Series, int64_t AtNs,
                   int64_t Value) {
  if (Node < 0 || Node >= int(Agents.size()))
    return;
  deltaFor(Node, Series, AtNs).Hist.record(Value);
  arm(Node, AtNs);
}

void Plane::arm(int Node, int64_t AtNs) {
  Agent &A = Agents[size_t(Node)];
  if (A.Armed)
    return;
  A.Armed = true;
  // Heartbeats stay on the FlushNs grid, so two runs that record at the
  // same sim-times flush at the same sim-times whatever the interleaving.
  int64_t T = (std::max<int64_t>(0, AtNs) / Spec.FlushNs + 1) * Spec.FlushNs;
  Net.sim().scheduleAt(sim::SimTime::nanoseconds(T),
                       [this, Node, T] { heartbeat(Node, T); });
}

void Plane::heartbeat(int Node, int64_t NowNs) {
  Agent &A = Agents[size_t(Node)];
  // Windows whose end lies at or before NowNs are complete: nothing on
  // this node can record into them anymore (sample times never exceed the
  // node's own now).
  int64_t FirstOpen = NowNs / Spec.WindowNs;
  std::vector<std::pair<int64_t, WindowDeltas>> Closed;
  for (auto It = A.Pending.begin();
       It != A.Pending.end() && It->first < FirstOpen;) {
    Closed.emplace_back(It->first, std::move(It->second));
    It = A.Pending.erase(It);
  }
  // Park when nothing is brewing; the next record() re-arms.  A partial
  // window keeps the agent armed so its data ships next flush and run()
  // still terminates (bounded flushes after the last record).
  A.Armed = !A.Pending.empty();
  if (A.Armed) {
    int64_t T = NowNs + Spec.FlushNs;
    Net.sim().scheduleAt(sim::SimTime::nanoseconds(T),
                         [this, Node, T] { heartbeat(Node, T); });
  }

  serial::OutputArchive Ar;
  Ar.write(int32_t(Node));
  Ar.write(uint64_t(A.NextSeq++));
  Ar.write(int64_t(NowNs));
  Ar.write(uint8_t(A.Armed ? 0 : 1)); // Parked after this heartbeat.
  Ar.write(uint32_t(Closed.size()));
  for (const auto &[Window, Deltas] : Closed) {
    Ar.write(int64_t(Window));
    Ar.write(uint32_t(Deltas.size()));
    for (const auto &[Name, D] : Deltas) {
      Ar.write(Name);
      Ar.write(uint64_t(D.Count));
      Ar.write(uint8_t(D.Hist.Count != 0));
      if (D.Hist.Count != 0) {
        for (uint64_t B : D.Hist.Buckets)
          Ar.write(B);
        Ar.write(uint64_t(D.Hist.Count));
        Ar.write(int64_t(D.Hist.Min));
        Ar.write(int64_t(D.Hist.Max));
        Ar.write(uint64_t(D.Hist.Sum));
      }
    }
  }
  // Ordinary framed traffic: pays wire time, competes with the workload,
  // and is subject to the fault plan like any other message.
  Net.send(Node, Spec.CollectorNode, Spec.Port, Ar.take());
}

//===----------------------------------------------------------------------===//
// Collector side
//===----------------------------------------------------------------------===//

sim::Task<void> Plane::collectorLoop(sim::Channel<net::Message> &Chan) {
  for (;;) {
    net::Message Msg = co_await Chan.recv();
    onSnapshot(Msg);
  }
}

void Plane::onSnapshot(const net::Message &Msg) {
  serial::InputArchive Ar(Msg.Payload);
  int32_t Node = -1;
  uint64_t Seq = 0;
  int64_t NowNs = 0;
  uint8_t ParkedFlag = 0;
  uint32_t NumWindows = 0;
  Ar.read(Node);
  Ar.read(Seq);
  Ar.read(NowNs);
  Ar.read(ParkedFlag);
  Ar.read(NumWindows);
  if (!Ar.ok() || Node < 0 || Node >= int(Agents.size())) {
    ++CorruptSnapshots; // Bit corruption from a fault plan, most likely.
    return;
  }
  for (uint32_t W = 0; W < NumWindows; ++W) {
    int64_t Window = 0;
    uint32_t NumSeries = 0;
    Ar.read(Window);
    Ar.read(NumSeries);
    for (uint32_t S = 0; S < NumSeries; ++S) {
      std::string Name;
      SeriesDelta D;
      uint8_t HasHist = 0;
      Ar.read(Name);
      Ar.read(D.Count);
      Ar.read(HasHist);
      if (HasHist) {
        for (uint64_t &B : D.Hist.Buckets)
          Ar.read(B);
        Ar.read(D.Hist.Count);
        Ar.read(D.Hist.Min);
        Ar.read(D.Hist.Max);
        Ar.read(D.Hist.Sum);
      }
      if (!Ar.ok()) {
        ++CorruptSnapshots;
        return;
      }
      if (Window < FirstOpenWindow) {
        // History already judged by the SLO engine; late data may not
        // rewrite it.  Counted so chaos runs can see the loss.
        ++LateWindows;
        continue;
      }
      auto It = Merged[std::move(Name)].try_emplace(Window);
      It.first->second.merge(D);
    }
  }
  if (!Ar.atEnd()) {
    ++CorruptSnapshots;
    return;
  }
  ++SnapshotsReceived;
  // ParkedFlag rides in the snapshot for post-mortem inspection but does
  // not steer the frontier: parked or not, the heartbeat time alone bounds
  // what the node can still ship.
  (void)ParkedFlag;
  LastHeartbeatNs[size_t(Node)] =
      std::max(LastHeartbeatNs[size_t(Node)], NowNs);
  advanceFrontier();
}

void Plane::advanceFrontier() {
  // Conservative frontier: an *arrived* heartbeat at time H promises that
  // everything the node will ever ship for windows below window(H) has
  // already arrived (parked or armed, its later data lands at or after
  // H).  A node never heard from promises nothing -- it may have a first
  // snapshot in flight right now -- so it pins the frontier at zero and
  // its windows are finalized, still deterministically, by finish().
  // This is what makes the merge immune to arrival interleaving: data can
  // only be "late" once its own node's later heartbeat has landed.
  int64_t Frontier = std::numeric_limits<int64_t>::max();
  for (int64_t H : LastHeartbeatNs)
    Frontier = std::min(Frontier, std::max<int64_t>(H, 0));
  if (LastHeartbeatNs.empty())
    return;
  finalizeThrough(Frontier / Spec.WindowNs);
}

void Plane::finalizeThrough(int64_t NewFirstOpen) {
  for (int64_t W = FirstOpenWindow; W < NewFirstOpen; ++W)
    evaluateSlos(W);
  FirstOpenWindow = std::max(FirstOpenWindow, NewFirstOpen);
}

void Plane::evaluateSlos(int64_t Window) {
  if (Slos.empty())
    return;
  int64_t EndNs = (Window + 1) * Spec.WindowNs;
  for (SloState &S : Slos) {
    auto SeriesIt = Merged.find(S.Spec.Series);
    metrics::Histogram Fast, Slow;
    if (SeriesIt != Merged.end()) {
      auto &Windows = SeriesIt->second;
      for (int64_t W = Window - S.SpanWindows + 1; W <= Window; ++W) {
        auto It = Windows.find(W);
        if (It == Windows.end())
          continue;
        Slow.merge(It->second.Hist);
        if (W == Window)
          Fast.merge(It->second.Hist);
      }
    }
    double FastP = Fast.percentile(S.Spec.Percentile);
    double SlowP = Slow.percentile(S.Spec.Percentile);
    bool FastViolated = FastP > double(S.Spec.ThresholdNs);
    bool SlowViolated = SlowP > double(S.Spec.ThresholdNs);
    if (FastViolated)
      ++S.FastBurnWindows;
    if (SlowViolated)
      ++S.SlowBurnWindows;
    if (SlowViolated != S.InBreach) {
      S.InBreach = SlowViolated;
      trace::instant(Spec.CollectorNode, 0,
                     SlowViolated ? "slo.breach" : "slo.recover", EndNs);
      S.Edges.push_back({Window, EndNs, SlowViolated});
      // Control-plane hook: live edges only.  Edges discovered by the
      // teardown finish() pass are history -- nothing can act on them.
      if (EdgeCallback && !Finished)
        EdgeCallback(S.Spec, SlowViolated, EndNs);
    }
  }
}

//===----------------------------------------------------------------------===//
// Teardown: fold stragglers, finalize, export
//===----------------------------------------------------------------------===//

void Plane::finish() {
  if (Finished)
    return;
  Finished = true;

  // Whatever the agents still hold never made it onto the wire (the run
  // ended first).  Fold it serially in node order -- commutative merges,
  // so this is byte-identical to having shipped it.
  for (Agent &A : Agents) {
    for (auto &[Window, Deltas] : A.Pending) {
      for (auto &[Name, D] : Deltas) {
        if (Window < FirstOpenWindow) {
          ++LateWindows;
          continue;
        }
        auto It = Merged[Name].try_emplace(Window);
        It.first->second.merge(D);
      }
    }
    A.Pending.clear();
    A.Armed = false;
  }

  int64_t MaxOpen = FirstOpenWindow;
  for (const auto &[Name, Windows] : Merged)
    if (!Windows.empty())
      MaxOpen = std::max(MaxOpen, Windows.rbegin()->first + 1);
  finalizeThrough(MaxOpen);

  metrics::Registry &Reg = metrics::Registry::global();
  Reg.counter("telemetry.snapshots").add(SnapshotsReceived);
  Reg.counter("telemetry.late_windows").add(LateWindows);
  Reg.counter("telemetry.corrupt_snapshots").add(CorruptSnapshots);
  for (const SloState &S : Slos) {
    Reg.counter("slo.fast_burn_windows").add(S.FastBurnWindows);
    Reg.counter("slo.slow_burn_windows").add(S.SlowBurnWindows);
    uint64_t Breaches = 0;
    for (const SloState::Edge &E : S.Edges)
      Breaches += E.Breach ? 1 : 0;
    Reg.counter("slo.breaches").add(Breaches);
  }

  auto Write = [](const std::string &Path, const std::string &Body) {
    if (Error E = writeFile(Path, Body))
      std::fprintf(stderr, "[parcs:telemetry] %s\n", E.message().c_str());
  };
  if (!Spec.Path.empty())
    Write(Spec.Path, exportJson());
  if (!Spec.ModelPath.empty())
    Write(Spec.ModelPath, modelPointsJson());
}

std::string Plane::exportJson() {
  finish();
  std::string Out = "{\n  \"window_ns\": ";
  Out += std::to_string(Spec.WindowNs);
  Out += ",\n  \"nodes\": ";
  Out += std::to_string(Agents.size());
  Out += ",\n  \"snapshots\": ";
  Out += std::to_string(SnapshotsReceived);
  Out += ",\n  \"late_windows\": ";
  Out += std::to_string(LateWindows);
  Out += ",\n  \"corrupt_snapshots\": ";
  Out += std::to_string(CorruptSnapshots);

  Out += ",\n  \"series\": {";
  bool FirstSeries = true;
  for (const auto &[Name, Windows] : Merged) {
    Out += FirstSeries ? "\n    " : ",\n    ";
    FirstSeries = false;
    json::appendString(Out, Name);
    bool IsHist = false;
    for (const auto &[W, D] : Windows)
      if (D.Hist.Count != 0)
        IsHist = true;
    Out += IsHist ? ": {\"kind\": \"histogram\", \"windows\": ["
                  : ": {\"kind\": \"counter\", \"windows\": [";
    bool FirstWin = true;
    for (const auto &[W, D] : Windows) {
      Out += FirstWin ? "\n      " : ",\n      ";
      FirstWin = false;
      Out += "{\"w\": ";
      Out += std::to_string(W);
      Out += ", \"start_ns\": ";
      Out += std::to_string(W * Spec.WindowNs);
      if (IsHist) {
        Out += ", \"n\": ";
        Out += std::to_string(D.Hist.Count);
        Out += ", \"mean\": ";
        Out += json::number(D.Hist.mean());
        Out += ", \"min\": ";
        Out += std::to_string(D.Hist.Min);
        Out += ", \"max\": ";
        Out += std::to_string(D.Hist.Max);
        Out += ", \"p50\": ";
        Out += json::number(D.Hist.percentile(50));
        Out += ", \"p90\": ";
        Out += json::number(D.Hist.percentile(90));
        Out += ", \"p99\": ";
        Out += json::number(D.Hist.percentile(99));
        Out += ", \"p999\": ";
        Out += json::number(D.Hist.percentile(99.9));
      } else {
        Out += ", \"n\": ";
        Out += std::to_string(D.Count);
      }
      Out += '}';
    }
    Out += "\n    ]}";
  }
  Out += "\n  }";

  Out += ",\n  \"slos\": [";
  bool FirstSlo = true;
  for (const SloState &S : Slos) {
    Out += FirstSlo ? "\n    " : ",\n    ";
    FirstSlo = false;
    Out += "{\"spec\": ";
    json::appendString(Out, S.Spec.Text);
    Out += ", \"series\": ";
    json::appendString(Out, S.Spec.Series);
    Out += ", \"percentile\": ";
    Out += json::number(S.Spec.Percentile);
    Out += ", \"threshold_ns\": ";
    Out += std::to_string(S.Spec.ThresholdNs);
    Out += ", \"window_ns\": ";
    Out += std::to_string(S.SpanWindows * Spec.WindowNs);
    Out += ", \"fast_burn_windows\": ";
    Out += std::to_string(S.FastBurnWindows);
    Out += ", \"slow_burn_windows\": ";
    Out += std::to_string(S.SlowBurnWindows);
    Out += ", \"events\": [";
    bool FirstEdge = true;
    for (const SloState::Edge &E : S.Edges) {
      Out += FirstEdge ? "" : ", ";
      FirstEdge = false;
      Out += "{\"window\": ";
      Out += std::to_string(E.Window);
      Out += ", \"at_ns\": ";
      Out += std::to_string(E.AtNs);
      Out += E.Breach ? ", \"kind\": \"breach\"}" : ", \"kind\": \"recover\"}";
    }
    Out += "]}";
  }
  Out += "\n  ]\n}\n";
  return Out;
}

std::string Plane::modelPointsJson() {
  finish();
  // The run's extent: the last merged window bounds when anything was
  // recorded.  Rates divide by it, so two runs of different lengths at
  // the same throughput model the same.
  int64_t SpanWindows = 0;
  for (const auto &[Name, Windows] : Merged)
    if (!Windows.empty())
      SpanWindows = std::max(SpanWindows, Windows.rbegin()->first + 1);
  double SpanS = double(SpanWindows) * double(Spec.WindowNs) / 1e9;

  std::string Out = "{\n  \"parcs_sweep\": 1,\n  \"bench\": "
                    "\"telemetry\",\n  \"machine\": \"\",\n  \"points\": [\n"
                    "    {\"params\": {\"nodes\": ";
  Out += std::to_string(Agents.size());
  Out += "}, \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Windows] : Merged) {
    // Whole-run exact summary: merge every window's buckets, then take
    // percentiles -- no window-average approximation.
    metrics::Histogram Hist;
    uint64_t Count = 0;
    for (const auto &[W, D] : Windows) {
      Hist.merge(D.Hist);
      Count += D.Count;
    }
    uint64_t N = Hist.Count ? Hist.Count : Count;
    if (N == 0)
      continue;
    auto Metric = [&](const std::string &Suffix, double V) {
      Out += First ? "\n      " : ",\n      ";
      First = false;
      json::appendString(Out, Name + Suffix);
      Out += ": ";
      Out += json::number(V);
    };
    Metric(".n", double(N));
    if (SpanS > 0)
      Metric(".rate_per_s", double(N) / SpanS);
    if (Hist.Count != 0) {
      Metric(".p50", Hist.percentile(50));
      Metric(".p99", Hist.percentile(99));
      Metric(".p999", Hist.percentile(99.9));
      Metric(".mean", Hist.mean());
    }
  }
  Out += "\n    }}\n  ]\n}\n";
  return Out;
}

} // namespace parcs::telemetry
