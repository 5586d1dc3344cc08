//===- tools/parcs_lint/Main.cpp - parcs-lint CLI -------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver for the lint library.  All rule logic lives in
/// src/lint (filesystem-free, unit-tested); this file owns argument
/// parsing, directory walking and IO.
///
/// Usage:
///   parcs-lint [options] <path>...
///     --root <dir>             repo root; paths are reported and matched
///                              against rule policy relative to it (default:
///                              current directory)
///     --baseline <file>        filter findings through a committed baseline
///     --write-baseline <file>  write current findings as a fresh baseline
///     --update-baseline <file> rewrite <file> in place from current
///                              findings, preserving each surviving entry's
///                              justification comment
///     --facts <file>           parcgen facts JSON (repeatable); enables the
///                              sync-call-deadlock rule
///     --dump-cfg               print per-function CFGs and exit
///     --dump-callgraph         print the call graph and exit
///     --json                   JSON report instead of text
///     --list-rules             print rule names and exit
///
/// Exit codes: 0 clean, 1 findings, 2 usage/IO error.
///
//===----------------------------------------------------------------------===//

#include "lint/Analysis.h"
#include "lint/Facts.h"
#include "lint/Lint.h"
#include "support/File.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using namespace parcs;

namespace {

bool isLintableFile(const fs::path &P) {
  std::string Ext = P.extension().string();
  return Ext == ".h" || Ext == ".hpp" || Ext == ".cpp" || Ext == ".cc";
}

int usageError(const char *Msg) {
  std::cerr << "parcs-lint: " << Msg << "\n"
            << "usage: parcs-lint [--root <dir>] [--baseline <file>] "
               "[--write-baseline <file>] [--update-baseline <file>] "
               "[--facts <file>]... [--dump-cfg] [--dump-callgraph] "
               "[--json] [--list-rules] <path>...\n";
  return 2;
}

/// Reports an IO error and returns the IO exit code.
int ioError(const Error &E) {
  std::cerr << "parcs-lint: " << E.message() << "\n";
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Root = ".";
  std::string BaselinePath;
  std::string WriteBaselinePath;
  std::string UpdateBaselinePath;
  std::vector<std::string> FactsPaths;
  bool Json = false;
  bool DumpCfg = false;
  bool DumpCallGraph = false;
  std::vector<std::string> Paths;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto NextValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::cerr << "parcs-lint: " << Flag << " needs a value\n";
        return nullptr;
      }
      return Argv[++I];
    };
    if (Arg == "--root") {
      const char *V = NextValue("--root");
      if (!V)
        return 2;
      Root = V;
    } else if (Arg == "--baseline") {
      const char *V = NextValue("--baseline");
      if (!V)
        return 2;
      BaselinePath = V;
    } else if (Arg == "--write-baseline") {
      const char *V = NextValue("--write-baseline");
      if (!V)
        return 2;
      WriteBaselinePath = V;
    } else if (Arg == "--update-baseline") {
      const char *V = NextValue("--update-baseline");
      if (!V)
        return 2;
      UpdateBaselinePath = V;
    } else if (Arg == "--facts") {
      const char *V = NextValue("--facts");
      if (!V)
        return 2;
      FactsPaths.push_back(V);
    } else if (Arg == "--dump-cfg") {
      DumpCfg = true;
    } else if (Arg == "--dump-callgraph") {
      DumpCallGraph = true;
    } else if (Arg == "--json") {
      Json = true;
    } else if (Arg == "--list-rules") {
      for (const std::string &R : lint::allRules())
        std::cout << R << "\n";
      return 0;
    } else if (Arg == "-h" || Arg == "--help") {
      usageError("help");
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usageError(("unknown option '" + Arg + "'").c_str());
    } else {
      Paths.push_back(Arg);
    }
  }
  if (Paths.empty())
    return usageError("no paths given");

  std::error_code Ec;
  fs::path RootPath = fs::canonical(Root, Ec);
  if (Ec)
    return usageError(("bad --root '" + Root + "': " + Ec.message()).c_str());

  // Collect files: explicit files as-is, directories recursively.  Sorted by
  // repo-relative path so reports (and the JSON byte stream) are stable
  // regardless of directory-entry order.
  std::vector<std::pair<std::string, fs::path>> Files; // (rel, abs)
  auto AddFile = [&](const fs::path &Abs) {
    std::error_code RelEc;
    fs::path Rel = fs::relative(Abs, RootPath, RelEc);
    std::string RelStr = RelEc ? Abs.generic_string() : Rel.generic_string();
    Files.emplace_back(std::move(RelStr), Abs);
  };
  for (const std::string &P : Paths) {
    fs::path Abs = fs::path(P).is_absolute() ? fs::path(P) : RootPath / P;
    Abs = fs::canonical(Abs, Ec);
    if (Ec) {
      std::cerr << "parcs-lint: cannot resolve '" << P << "': " << Ec.message()
                << "\n";
      return 2;
    }
    if (fs::is_directory(Abs)) {
      for (const fs::directory_entry &E :
           fs::recursive_directory_iterator(Abs)) {
        if (E.is_regular_file() && isLintableFile(E.path()))
          AddFile(E.path());
      }
    } else if (fs::is_regular_file(Abs)) {
      AddFile(Abs);
    } else {
      std::cerr << "parcs-lint: not a file or directory: '" << P << "'\n";
      return 2;
    }
  }
  std::sort(Files.begin(), Files.end());
  Files.erase(std::unique(Files.begin(), Files.end()), Files.end());

  lint::FactsDb Facts;
  for (const std::string &FP : FactsPaths) {
    ErrorOr<std::string> Text = readFile(FP);
    if (!Text)
      return ioError(Text.error());
    std::string Error;
    if (!lint::parseFacts(*Text, Facts, Error)) {
      std::cerr << "parcs-lint: " << FP << ": " << Error << "\n";
      return 2;
    }
  }

  // Each file is read once; the same source feeds the per-file rules and
  // the whole-program layer.
  lint::LintConfig Config;
  lint::Program Prog;
  std::vector<lint::Finding> Findings;
  for (const auto &[Rel, Abs] : Files) {
    ErrorOr<std::string> Source = readFile(Abs.string());
    if (!Source)
      return ioError(Source.error());
    std::vector<lint::Finding> FileFindings =
        lint::lintSource(Rel, *Source, Config);
    Findings.insert(Findings.end(), FileFindings.begin(), FileFindings.end());
    Prog.addFile(Rel, Source.take(), Config);
  }

  if (DumpCfg || DumpCallGraph) {
    if (DumpCfg)
      std::cout << Prog.dumpCfgs();
    if (DumpCallGraph)
      std::cout << Prog.dumpCallGraph();
    return 0;
  }

  std::vector<lint::Finding> ProgramFindings = Prog.analyze(Facts, Config);
  Findings.insert(Findings.end(), ProgramFindings.begin(),
                  ProgramFindings.end());
  std::sort(Findings.begin(), Findings.end());

  if (!WriteBaselinePath.empty()) {
    if (Error E =
            writeFile(WriteBaselinePath, lint::Baseline::write(Findings)))
      return ioError(E);
    std::cerr << "parcs-lint: wrote " << Findings.size() << " entr"
              << (Findings.size() == 1 ? "y" : "ies") << " to "
              << WriteBaselinePath << "\n";
    return 0;
  }

  if (!UpdateBaselinePath.empty()) {
    ErrorOr<std::string> OldText = readFile(UpdateBaselinePath);
    if (!OldText)
      return ioError(OldText.error());
    if (Error E = writeFile(UpdateBaselinePath,
                            lint::Baseline::update(*OldText, Findings)))
      return ioError(E);
    std::cerr << "parcs-lint: updated " << UpdateBaselinePath << " ("
              << Findings.size() << " entr"
              << (Findings.size() == 1 ? "y" : "ies") << ")\n";
    return 0;
  }

  if (!BaselinePath.empty()) {
    ErrorOr<std::string> Text = readFile(BaselinePath);
    if (!Text)
      return ioError(Text.error());
    std::vector<std::string> Errors;
    lint::Baseline B = lint::Baseline::parse(*Text, Errors);
    if (!Errors.empty()) {
      for (const std::string &E : Errors)
        std::cerr << "parcs-lint: " << BaselinePath << ": " << E << "\n";
      return 2;
    }
    Findings = lint::applyBaseline(Findings, B);
  }

  std::cout << (Json ? lint::renderJson(Findings)
                     : lint::renderText(Findings));
  return Findings.empty() ? 0 : 1;
}
