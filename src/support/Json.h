//===- support/Json.h - JSON reader and writer for our exports --*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON reader and the two writer primitives behind every JSON
/// file this repo produces or consumes.
///
/// Writers -- the metrics report, the trace exporter, the telemetry
/// plane, parcs-model's sweeps and fits, parcgen's facts and parcs-lint's
/// findings -- lay out their documents by hand and quote strings with
/// appendString() and render report numbers with number(), so every
/// export escapes and prints alike.
///
/// The reader serves the offline consumers: parcs-prof over trace
/// exports, parcs_top over telemetry exports, the parcs-model ingester
/// over bench sweeps, fitted-model files and telemetry exports, and
/// parcs-lint over parcgen's facts.  It reads back everything the writer
/// emits -- objects, arrays, strings (the common escapes plus \uXXXX for
/// the basic multilingual plane), numbers, bools, null -- and is
/// deliberately not a general-purpose JSON library.
///
/// Object members keep their document order (vector of pairs, not a map):
/// every export in this repo is already deterministically ordered, and
/// consumers that re-render (parcs_top tables, model reports) must not
/// reorder what the writer laid out.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SUPPORT_JSON_H
#define PARCS_SUPPORT_JSON_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace parcs::json {

/// One parsed JSON value; a tagged union kept simple (all alternatives
/// inline) because export files are small.
struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object } K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<Value> Arr;
  /// Members in document order.
  std::vector<std::pair<std::string, Value>> Obj;

  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isNumber() const { return K == Kind::Number; }

  /// The named member (the first, if repeated), or nullptr (also for
  /// non-objects).
  const Value *field(std::string_view Name) const {
    for (const auto &[Key, Member] : Obj)
      if (Key == Name)
        return &Member;
    return nullptr;
  }
  /// The named number member, or \p Default when absent or non-numeric.
  double num(std::string_view Name, double Default = 0) const {
    const Value *V = field(Name);
    return V && V->K == Kind::Number ? V->Num : Default;
  }
  /// The named string member, or an empty view when absent or non-string.
  std::string_view str(std::string_view Name) const {
    const Value *V = field(Name);
    return V && V->K == Kind::String ? std::string_view(V->Str)
                                     : std::string_view();
  }
};

/// Parses \p Text (which must be one complete JSON document) into \p Out.
/// Returns false on any syntax error or trailing garbage.
bool parse(std::string_view Text, Value &Out);

/// Appends \p S to \p Out as a quoted JSON string.  Escapes '"', '\\',
/// '\n', '\r' and '\t' by name and every other byte below 0x20 as
/// \u00XX; all other bytes, UTF-8 sequences included, pass through.
void appendString(std::string &Out, std::string_view S);

/// \p V as a report number: printf's "%.6g".
std::string number(double V);

} // namespace parcs::json

#endif // PARCS_SUPPORT_JSON_H
