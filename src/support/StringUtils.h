//===- support/StringUtils.h - The shared text readers ----------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One reader per text format, behind every grammar in the repository:
/// fault plans, the PARCS_* knobs, SLO specs, JSON, lint baselines and
/// object URIs.  The number readers go through std::from_chars and must
/// consume their whole token: no locale, no leading whitespace or '+', no
/// hex floats, and nothing outside the caller's range or non-finite.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SUPPORT_STRINGUTILS_H
#define PARCS_SUPPORT_STRINGUTILS_H

#include "support/Error.h"

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace parcs {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view Text);

/// Splits \p Text on \p Sep.  Separators inside parentheses do not split,
/// so "crash(1,2ms);seed(3)" has two ';'-pieces and an option value like
/// "slo=slo(x, p99 < 2ms, window=1ms)" stays one ','-piece.  Adjacent
/// separators produce empty pieces; the empty string yields one.  Pieces
/// are views into \p Text and are not trimmed.
std::vector<std::string_view> split(std::string_view Text, char Sep);

/// Reads all of \p Text as a base-\p Base integer in [\p Min, \p Max].
/// Returns false, leaving \p Out untouched, for anything else.
template <typename T>
bool parseInt(std::string_view Text, T &Out,
              std::type_identity_t<T> Min = std::numeric_limits<T>::min(),
              std::type_identity_t<T> Max = std::numeric_limits<T>::max(),
              int Base = 10) {
  T Value{};
  const char *End = Text.data() + Text.size();
  auto [Stop, Ec] = std::from_chars(Text.data(), End, Value, Base);
  if (Ec != std::errc() || Stop != End || Value < Min || Value > Max)
    return false;
  Out = Value;
  return true;
}

/// Reads all of \p Text as a finite decimal ("0.25", "-3", "1e-3").
bool parseDecimal(std::string_view Text, double &Out);

/// Reads a non-negative duration into nanoseconds: a decimal magnitude
/// with an optional "ns", "us", "ms" or "s" suffix.  A bare number is in
/// \p BareUnit, one of those suffixes: "s" in fault plans, "ns" in the
/// PARCS_* knobs.  Integer magnitudes convert exactly; fractional ones
/// round to the nearest nanosecond.  Values past INT64_MAX ns fail.
bool parseDurationNs(std::string_view Text, std::string_view BareUnit,
                     int64_t &Out);

/// The object address shared by remoting's and RMI's URIs.
struct NodeUri {
  int Node = 0;
  int Port = 0;
  std::string Name;
};

/// Parses the "<host>[:<port>]/<name>" part of \p Uri after its first
/// \p SchemeLength characters ("tcp://").  Hosts are the simulated
/// cluster nodes, node<K> (plus "localhost" = node0); ports are 0..65535.
/// A missing port is \p DefaultPort, or an error when that is negative.
ErrorOr<NodeUri> parseNodeUri(std::string_view Uri, size_t SchemeLength,
                              int DefaultPort);

} // namespace parcs

#endif // PARCS_SUPPORT_STRINGUTILS_H
