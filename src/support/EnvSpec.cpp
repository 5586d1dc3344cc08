//===- support/EnvSpec.cpp - The PARCS_* knob reader ----------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/EnvSpec.h"

#include <cctype>
#include <cstdio>

namespace parcs::envspec {

bool reject(std::string_view Token, std::string *BadToken) {
  if (BadToken)
    *BadToken = std::string(Token);
  return false;
}

void warnMalformed(const char *Name, const char *Value,
                   const std::string &BadToken) {
  // The tag is the knob's name after "PARCS_", lowercased.
  std::string Tag(std::string_view(Name).substr(6));
  for (char &C : Tag)
    C = char(std::tolower(static_cast<unsigned char>(C)));
  std::fprintf(stderr,
               "[parcs:%s] ignoring malformed %s \"%s\": bad token \"%s\"\n",
               Tag.c_str(), Name, Value, BadToken.c_str());
}

} // namespace parcs::envspec
