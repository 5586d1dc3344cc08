//===- sim/SimTime.h - Virtual time type ------------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Virtual time for the discrete-event simulator.  Time is an integer count
/// of nanoseconds so that event ordering is exact; doubles appear only at
/// the reporting boundary.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SIM_SIMTIME_H
#define PARCS_SIM_SIMTIME_H

#include <cassert>
#include <cstdint>
#include <string>

namespace parcs::sim {

/// A point in (or duration of) virtual time, in integer nanoseconds.
class SimTime {
public:
  constexpr SimTime() = default;

  static constexpr SimTime nanoseconds(int64_t Ns) { return SimTime(Ns); }
  static constexpr SimTime microseconds(int64_t Us) {
    return SimTime(Us * 1000);
  }
  static constexpr SimTime milliseconds(int64_t Ms) {
    return SimTime(Ms * 1000 * 1000);
  }
  static constexpr SimTime seconds(int64_t S) {
    return SimTime(S * 1000 * 1000 * 1000);
  }
  /// Builds a time from fractional seconds, rounding to the nearest
  /// nanosecond.  Handy when cost models produce doubles.
  static SimTime fromSecondsF(double S) {
    return SimTime(static_cast<int64_t>(S * 1e9 + (S >= 0 ? 0.5 : -0.5)));
  }
  static SimTime fromMicrosF(double Us) { return fromSecondsF(Us * 1e-6); }

  constexpr int64_t nanosecondsCount() const { return Ns; }
  constexpr double toSecondsF() const { return static_cast<double>(Ns) * 1e-9; }
  constexpr double toMicrosF() const { return static_cast<double>(Ns) * 1e-3; }

  constexpr bool isZero() const { return Ns == 0; }

  friend constexpr SimTime operator+(SimTime A, SimTime B) {
    return SimTime(A.Ns + B.Ns);
  }
  friend constexpr SimTime operator-(SimTime A, SimTime B) {
    return SimTime(A.Ns - B.Ns);
  }
  SimTime &operator+=(SimTime Other) {
    Ns += Other.Ns;
    return *this;
  }
  SimTime &operator-=(SimTime Other) {
    Ns -= Other.Ns;
    return *this;
  }
  friend constexpr SimTime operator*(SimTime A, int64_t K) {
    return SimTime(A.Ns * K);
  }
  friend constexpr SimTime operator*(int64_t K, SimTime A) { return A * K; }

  friend constexpr bool operator==(SimTime A, SimTime B) {
    return A.Ns == B.Ns;
  }
  friend constexpr bool operator!=(SimTime A, SimTime B) {
    return A.Ns != B.Ns;
  }
  friend constexpr bool operator<(SimTime A, SimTime B) { return A.Ns < B.Ns; }
  friend constexpr bool operator<=(SimTime A, SimTime B) {
    return A.Ns <= B.Ns;
  }
  friend constexpr bool operator>(SimTime A, SimTime B) { return A.Ns > B.Ns; }
  friend constexpr bool operator>=(SimTime A, SimTime B) {
    return A.Ns >= B.Ns;
  }

  /// Renders with an adaptive unit, e.g. "273.0us" or "1.500s".
  std::string str() const;

private:
  constexpr explicit SimTime(int64_t Ns) : Ns(Ns) {}
  int64_t Ns = 0;
};

} // namespace parcs::sim

#endif // PARCS_SIM_SIMTIME_H
