//===- support/Logging.cpp ------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Logging.h"

#include "support/EnvSpec.h"

#include <cstdio>

using namespace parcs;

namespace {

/// PARCS_LOG is a bare level, 0 (off) to 4 (debug).
bool parseLevel(std::string_view Text, LogLevel &Out, std::string *BadToken) {
  int Value = 0;
  if (!parseInt(Text, Value, 0, 4))
    return envspec::reject(Text, BadToken);
  Out = static_cast<LogLevel>(Value);
  return true;
}

LogLevel readInitialLevel() {
  LogLevel Level = LogLevel::Off;
  envspec::readKnob("PARCS_LOG", Level, parseLevel);
  return Level;
}

LogLevel &currentLevel() {
  static LogLevel Level = readInitialLevel();
  return Level;
}

const char *levelName(LogLevel Level) {
  switch (Level) {
  case LogLevel::Off:
    return "off";
  case LogLevel::Error:
    return "error";
  case LogLevel::Warn:
    return "warn";
  case LogLevel::Info:
    return "info";
  case LogLevel::Debug:
    return "debug";
  }
  return "?";
}

LogClock ActiveClock;
int ActiveNode = -1;

} // namespace

void parcs::setLogLevel(LogLevel Level) { currentLevel() = Level; }

LogLevel parcs::logLevel() { return currentLevel(); }

LogClock parcs::setLogClock(LogClock Clock) {
  LogClock Previous = ActiveClock;
  ActiveClock = Clock;
  return Previous;
}

int parcs::setLogNode(int Id) {
  int Previous = ActiveNode;
  ActiveNode = Id;
  return Previous;
}

void parcs::logLine(LogLevel Level, const std::string &Message) {
  if (!ActiveClock.NowNs) {
    std::fprintf(stderr, "[parcs:%s] %s\n", levelName(Level), Message.c_str());
    return;
  }
  long long Now = ActiveClock.NowNs(ActiveClock.Ctx);
  if (ActiveNode >= 0)
    std::fprintf(stderr, "[parcs:%s t=%lldns n=%d] %s\n", levelName(Level),
                 Now, ActiveNode, Message.c_str());
  else
    std::fprintf(stderr, "[parcs:%s t=%lldns] %s\n", levelName(Level), Now,
                 Message.c_str());
}
