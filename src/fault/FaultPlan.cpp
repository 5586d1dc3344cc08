//===- fault/FaultPlan.cpp ------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "fault/FaultPlan.h"

#include "support/StringUtils.h"

#include <cstdio>

using namespace parcs;
using namespace parcs::fault;

namespace {

Error parseError(const std::string &What) {
  return Error(ErrorCode::ParseError, "fault plan: " + What);
}

/// Reads a node id or count; \p Negative names a value below zero.
Error readCount(std::string_view S, int &Out, const char *Negative) {
  if (!parseInt(S, Out))
    return parseError("bad integer '" + std::string(S) + "'");
  return Out < 0 ? parseError(Negative) : Error();
}

/// Reads a time; bare numbers are seconds.
Error readTime(std::string_view S, sim::SimTime &Out) {
  int64_t Ns = 0;
  if (!parseDurationNs(S, "s", Ns))
    return parseError("bad number '" + std::string(S) + "'");
  Out = sim::SimTime::nanoseconds(Ns);
  return Error();
}

/// Reads Args[First] and, when present, Args[First + 1] as a window's
/// start and end; a zero end means "never".  \p Backwards names an end
/// that is not after the start.
Error readWindow(const std::vector<std::string_view> &Args, size_t First,
                 sim::SimTime &From, sim::SimTime &Until,
                 const char *Backwards) {
  for (size_t I = First; I < Args.size() && I < First + 2; ++I)
    if (Error E = readTime(Args[I], I == First ? From : Until))
      return E;
  if (!Until.isZero() && Until <= From)
    return parseError(Backwards);
  return Error();
}

std::string timeStr(sim::SimTime T) {
  return std::to_string(T.nanosecondsCount()) + "ns";
}

std::string probStr(double P) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%g", P);
  return Buf;
}

} // namespace

std::string FaultPlan::str() const {
  std::string Out = "seed(" + std::to_string(Seed) + ")";
  if (DropEveryNth > 0)
    Out += ";dropnth(" + std::to_string(DropEveryNth) + ")";
  for (const CrashEvent &C : Crashes) {
    Out += ";crash(" + std::to_string(C.Node) + "," + timeStr(C.At);
    if (!C.RestartAt.isZero())
      Out += "," + timeStr(C.RestartAt);
    Out += ")";
  }
  for (const Partition &P : Partitions) {
    Out += ";partition(" + std::to_string(P.NodeA) + "," +
           std::to_string(P.NodeB) + "," + timeStr(P.From);
    if (!P.Until.isZero())
      Out += "," + timeStr(P.Until);
    Out += ")";
  }
  for (const LossClause &L : Losses)
    Out += ";loss(" + probStr(L.Probability) + "," + timeStr(L.From) + "," +
           timeStr(L.Until) + ")";
  for (const CorruptClause &C : Corruptions)
    Out += ";corrupt(" + probStr(C.Probability) + "," + timeStr(C.From) +
           "," + timeStr(C.Until) + ")";
  for (const LatencyClause &L : Latencies)
    Out += ";latency(" + timeStr(L.Extra) + "," + timeStr(L.From) + "," +
           timeStr(L.Until) + ")";
  return Out;
}

ErrorOr<FaultPlan> FaultPlan::parse(std::string_view Spec) {
  FaultPlan Plan;
  for (std::string_view Clause : split(Spec, ';')) {
    Clause = trim(Clause);
    if (Clause.empty())
      continue;
    size_t Open = Clause.find('(');
    if (Open == std::string_view::npos || !Clause.ends_with(')'))
      return parseError("clause '" + std::string(Clause) +
                        "' is not name(args)");
    std::string_view Name = trim(Clause.substr(0, Open));
    std::vector<std::string_view> Args =
        split(Clause.substr(Open + 1, Clause.size() - Open - 2), ',');
    for (std::string_view &A : Args)
      A = trim(A);
    auto WantArgs = [&](size_t Lo, size_t Hi) {
      return Args.size() >= Lo && Args.size() <= Hi;
    };

    if (Name == "seed") {
      if (!WantArgs(1, 1))
        return parseError("seed(N)");
      if (!parseInt(Args[0], Plan.Seed))
        return parseError("bad integer '" + std::string(Args[0]) + "'");
    } else if (Name == "dropnth") {
      if (!WantArgs(1, 1))
        return parseError("dropnth(N)");
      if (Error E = readCount(Args[0], Plan.DropEveryNth, "dropnth < 0"))
        return E;
    } else if (Name == "crash") {
      if (!WantArgs(2, 3))
        return parseError("crash(node,at[,restartAt])");
      CrashEvent C;
      if (Error E = readCount(Args[0], C.Node, "crash node < 0"))
        return E;
      if (Error E = readWindow(Args, 1, C.At, C.RestartAt,
                               "restart not after crash"))
        return E;
      Plan.Crashes.push_back(C);
    } else if (Name == "partition") {
      if (!WantArgs(3, 4))
        return parseError("partition(a,b,from[,until])");
      Partition P;
      if (Error E = readCount(Args[0], P.NodeA, "partition node < 0"))
        return E;
      if (Error E = readCount(Args[1], P.NodeB, "partition node < 0"))
        return E;
      if (Error E = readWindow(Args, 2, P.From, P.Until,
                               "partition heals before it starts"))
        return E;
      Plan.Partitions.push_back(P);
    } else if (Name == "loss" || Name == "corrupt") {
      if (!WantArgs(1, 3))
        return parseError(std::string(Name) + "(p[,from[,until]])");
      double P = 0;
      if (!parseDecimal(Args[0], P))
        return parseError("bad number '" + std::string(Args[0]) + "'");
      if (P < 0.0 || P > 1.0)
        return parseError("probability out of [0,1]");
      sim::SimTime From, Until;
      if (Error E =
              readWindow(Args, 1, From, Until, "window ends before it starts"))
        return E;
      if (Name == "loss")
        Plan.Losses.push_back({P, From, Until});
      else
        Plan.Corruptions.push_back({P, From, Until});
    } else if (Name == "latency") {
      if (!WantArgs(1, 3))
        return parseError("latency(extra[,from[,until]])");
      LatencyClause L;
      if (Error E = readTime(Args[0], L.Extra))
        return E;
      if (Error E = readWindow(Args, 1, L.From, L.Until,
                               "window ends before it starts"))
        return E;
      Plan.Latencies.push_back(L);
    } else {
      return parseError("unknown clause '" + std::string(Name) + "'");
    }
  }
  return Plan;
}
