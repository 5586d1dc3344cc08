//===- support/File.cpp ---------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/File.h"

#include <cstdio>

using namespace parcs;

ErrorOr<std::string> parcs::readFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Error(ErrorCode::InvalidArgument, "cannot open " + Path);
  std::string Body;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Body.append(Buf, N);
  bool Ok = !std::ferror(F);
  std::fclose(F);
  if (!Ok)
    return Error(ErrorCode::InvalidArgument, "cannot read " + Path);
  return Body;
}

Error parcs::writeFile(const std::string &Path, std::string_view Body) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  bool Ok = F && std::fwrite(Body.data(), 1, Body.size(), F) == Body.size();
  if (F && std::fclose(F) != 0)
    Ok = false;
  if (!Ok)
    return Error(ErrorCode::InvalidArgument, "cannot write " + Path);
  return Error();
}
