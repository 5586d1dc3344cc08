//===- support/Logging.h - Leveled diagnostic logging -----------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny leveled logger.  Logging is off by default so tests and benches
/// stay quiet; set the level with \c setLogLevel or the PARCS_LOG environment
/// variable (0=off, 1=error, 2=warn, 3=info, 4=debug; anything else is
/// ignored with the usual malformed-knob warning, support/EnvSpec.h).
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SUPPORT_LOGGING_H
#define PARCS_SUPPORT_LOGGING_H

#include <sstream>
#include <string>

namespace parcs {

enum class LogLevel { Off = 0, Error = 1, Warn = 2, Info = 3, Debug = 4 };

/// Sets the global log level.
void setLogLevel(LogLevel Level);

/// Returns the current global log level (initialised from PARCS_LOG).
LogLevel logLevel();

/// A virtual-time source the logger prefixes lines with while a simulation
/// is running.  Plain function pointer + context so a Simulator can hand
/// itself over without allocating.
struct LogClock {
  long long (*NowNs)(void *Ctx) = nullptr;
  void *Ctx = nullptr;
};

/// Installs \p Clock as the active time source and returns the previous
/// one, so nested simulators can save/restore it.  A default-constructed
/// LogClock (null NowNs) disables the time prefix.
LogClock setLogClock(LogClock Clock);

/// Marks node \p Id as the one currently executing (-1 = none) and returns
/// the previous value.  Log lines carry "n=<id>" while a node is set.
int setLogNode(int Id);

/// RAII node marker for a synchronous block that logs.  Scope it tightly
/// around non-suspending code: a scope held across a co_await would leak
/// onto whatever coroutine runs next.
class LogNodeScope {
public:
  explicit LogNodeScope(int Id) : Prev(setLogNode(Id)) {}
  ~LogNodeScope() { setLogNode(Prev); }
  LogNodeScope(const LogNodeScope &) = delete;
  LogNodeScope &operator=(const LogNodeScope &) = delete;

private:
  int Prev;
};

/// Writes one formatted line to stderr; used by the PARCS_LOG macro.
/// While a LogClock is installed the line is prefixed with the current
/// sim-time and, when set, the executing node:
/// "[parcs:info t=1500ns n=2] message".
void logLine(LogLevel Level, const std::string &Message);

} // namespace parcs

/// Logs \p Expr (an ostream chain) at \p LevelName if enabled, e.g.
/// PARCS_LOG(Info, "node " << Id << " booted").
#define PARCS_LOG(LevelName, Expr)                                            \
  do {                                                                        \
    if (::parcs::logLevel() >= ::parcs::LogLevel::LevelName) {                \
      std::ostringstream LogOss_;                                             \
      LogOss_ << Expr;                                                        \
      ::parcs::logLine(::parcs::LogLevel::LevelName, LogOss_.str());          \
    }                                                                         \
  } while (false)

#endif // PARCS_SUPPORT_LOGGING_H
