//===- support/StringUtils.cpp --------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cassert>
#include <cmath>

using namespace parcs;

std::string_view parcs::trim(std::string_view Text) {
  constexpr std::string_view Space = " \t\n\v\f\r";
  size_t Begin = Text.find_first_not_of(Space);
  if (Begin == std::string_view::npos)
    return {};
  return Text.substr(Begin, Text.find_last_not_of(Space) - Begin + 1);
}

std::vector<std::string_view> parcs::split(std::string_view Text, char Sep) {
  std::vector<std::string_view> Parts;
  int Depth = 0;
  size_t Start = 0;
  for (size_t I = 0; I < Text.size(); ++I) {
    if (Text[I] == '(') {
      ++Depth;
    } else if (Text[I] == ')' && Depth > 0) {
      --Depth;
    } else if (Text[I] == Sep && Depth == 0) {
      Parts.push_back(Text.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  Parts.push_back(Text.substr(Start));
  return Parts;
}

bool parcs::parseDecimal(std::string_view Text, double &Out) {
  double Value = 0;
  const char *End = Text.data() + Text.size();
  auto [Stop, Ec] = std::from_chars(Text.data(), End, Value);
  if (Ec != std::errc() || Stop != End || !std::isfinite(Value))
    return false;
  Out = Value;
  return true;
}

bool parcs::parseDurationNs(std::string_view Text, std::string_view BareUnit,
                            int64_t &Out) {
  struct Unit {
    std::string_view Suffix;
    int64_t Ns;
  };
  // Two-letter suffixes first: they end in 's' too.
  static constexpr Unit Units[] = {
      {"ns", 1}, {"us", 1'000}, {"ms", 1'000'000}, {"s", 1'000'000'000}};
  const Unit *Scale = nullptr;
  for (const Unit &U : Units)
    if (Text.size() > U.Suffix.size() && Text.ends_with(U.Suffix)) {
      Scale = &U;
      Text.remove_suffix(U.Suffix.size());
      break;
    }
  for (const Unit &U : Units)
    if (!Scale && U.Suffix == BareUnit)
      Scale = &U;
  assert(Scale && "the bare unit must be one of the suffixes");

  int64_t Whole = 0;
  if (parseInt(Text, Whole, 0)) {
    if (Whole > std::numeric_limits<int64_t>::max() / Scale->Ns)
      return false;
    Out = Whole * Scale->Ns;
    return true;
  }
  double Value = 0;
  if (!parseDecimal(Text, Value) || Value < 0)
    return false;
  double Ns = Value * double(Scale->Ns) + 0.5;
  if (!(Ns < 0x1p63))
    return false;
  Out = static_cast<int64_t>(Ns);
  return true;
}

ErrorOr<NodeUri> parcs::parseNodeUri(std::string_view Uri, size_t SchemeLength,
                                     int DefaultPort) {
  auto Bad = [&](const char *What) {
    return Error(ErrorCode::InvalidArgument,
                 std::string(What) + ": " + std::string(Uri));
  };
  std::string_view Rest = Uri.substr(SchemeLength);
  size_t Slash = Rest.find('/');
  if (Slash == std::string_view::npos || Slash + 1 >= Rest.size())
    return Bad("uri missing /name");
  NodeUri Result;
  Result.Name = std::string(Rest.substr(Slash + 1));
  std::string_view Host = Rest.substr(0, Slash);
  size_t Colon = Host.find(':');
  Result.Port = DefaultPort;
  if (Colon != std::string_view::npos) {
    if (!parseInt(Host.substr(Colon + 1), Result.Port, 0, 65535))
      return Bad("bad port in uri");
    Host = Host.substr(0, Colon);
  } else if (DefaultPort < 0) {
    return Bad("uri missing :port");
  }
  if (Host != "localhost" &&
      !(Host.starts_with("node") && parseInt(Host.substr(4), Result.Node, 0)))
    return Bad("hosts are node<K> or localhost");
  return Result;
}
