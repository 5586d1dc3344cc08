//===- support/EnvSpec.h - The PARCS_* knob reader --------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one reader behind every environment knob.  PARCS_TRACE,
/// PARCS_METRICS and PARCS_TELEMETRY share the shape
///
///   <path>[,<key>=<value>]...
///
/// (PARCS_LOG is a bare level), and all four share one diagnostics
/// contract: a malformed value is ignored with a stderr warning that
/// quotes the offending token verbatim,
///
///   [parcs:trace] ignoring malformed PARCS_TRACE "t.json,cap=abc": bad
///   token "cap=abc"
///
/// Commas nested inside parentheses stay inside their value (see
/// parcs::split), so option grammars that themselves contain commas --
/// the telemetry knob's slo=slo(series, p99 < 2ms, window=100ms) -- need
/// no escaping.  Durations in option values use the shared grammar
/// (parcs::parseDurationNs) with bare numbers in nanoseconds.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SUPPORT_ENVSPEC_H
#define PARCS_SUPPORT_ENVSPEC_H

#include "support/StringUtils.h"

#include <cstdlib>
#include <string>
#include <string_view>

namespace parcs::envspec {

/// Stores \p Token in \p BadToken (when non-null) and returns false.
bool reject(std::string_view Token, std::string *BadToken);

/// Splits \p Spec into its leading path, stored in \p Path, and its
/// options, each handed to \p Option(Key, Value), which returns false to
/// reject it.  Returns false for an empty path, an option with no '=' or
/// an empty key, or a rejected option; \p BadToken then receives the
/// offending token ("<empty path>" for a missing path).
template <typename OptionFn>
bool parse(std::string_view Spec, std::string &Path, OptionFn &&Option,
           std::string *BadToken) {
  std::vector<std::string_view> Parts = split(Spec, ',');
  if (Parts[0].empty())
    return reject("<empty path>", BadToken);
  Path = std::string(Parts[0]);
  for (size_t I = 1; I < Parts.size(); ++I) {
    size_t Eq = Parts[I].find('=');
    if (Eq == std::string_view::npos || Eq == 0 ||
        !Option(Parts[I].substr(0, Eq), Parts[I].substr(Eq + 1)))
      return reject(Parts[I], BadToken);
  }
  return true;
}

/// Prints the malformed-knob warning for \p Name's \p Value.
void warnMalformed(const char *Name, const char *Value,
                   const std::string &BadToken);

/// Reads environment variable \p Name with \p Parse.  Returns false when
/// it is unset, or -- after the malformed-knob warning -- when \p Parse
/// rejects it.
template <typename SpecT>
bool readKnob(const char *Name, SpecT &Out,
              bool (*Parse)(std::string_view, SpecT &, std::string *)) {
  const char *Value = std::getenv(Name);
  if (!Value)
    return false;
  std::string BadToken;
  if (Parse(Value, Out, &BadToken))
    return true;
  warnMalformed(Name, Value, BadToken);
  return false;
}

} // namespace parcs::envspec

#endif // PARCS_SUPPORT_ENVSPEC_H
