//===- lint/Lint.cpp - Rule engine, suppressions, baseline, reports -------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"

#include "lint/Cfg.h"
#include "lint/CppScanner.h"
#include "lint/Dataflow.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <map>

using namespace parcs;
using namespace parcs::lint;

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

namespace {

bool matchesAnyPrefix(std::string_view Path,
                      const std::vector<std::string> &Prefixes) {
  for (const std::string &P : Prefixes)
    if (Path.starts_with(P))
      return true;
  return false;
}

bool isExactMatch(std::string_view Path,
                  const std::vector<std::string> &Files) {
  for (const std::string &F : Files)
    if (Path == F)
      return true;
  return false;
}

/// A parsed PARCS_HOT region (inclusive line range; the marker comment lines
/// themselves are inside the region, which is harmless -- they are comments).
struct HotRegion {
  int BeginLine = 0;
  int EndLine = 0;
  std::string Name;
};

/// Everything the rules need about one file, computed once.
struct FileCtx {
  std::string RelPath;
  const LintConfig *Config = nullptr;
  std::vector<CppToken> Toks;
  std::vector<CppComment> Comments;
  /// Line -> rules suppressed on that line via `// parcs-lint: allow(...)`.
  std::map<int, std::set<std::string>> Suppressed;
  std::vector<HotRegion> HotRegions;
  std::vector<Finding> Findings;

  const CppToken &tok(size_t I) const {
    return I < Toks.size() ? Toks[I] : Toks.back(); // back() is EndOfFile
  }

  bool inHotRegion(int Line) const {
    for (const HotRegion &R : HotRegions)
      if (Line >= R.BeginLine && Line <= R.EndLine)
        return true;
    return false;
  }

  void report(const char *Rule, int Line, int Col, std::string Message) {
    Finding F;
    F.Rule = Rule;
    F.File = RelPath;
    F.Line = Line;
    F.Col = Col;
    F.Message = std::move(Message);
    Findings.push_back(std::move(F));
  }

  void report(const char *Rule, const CppToken &At, std::string Message) {
    report(Rule, At.Line, At.Col, std::move(Message));
  }
};

/// True when no token starts on \p Line before column \p Col (i.e. a comment
/// at (Line, Col) stands alone on its line and its directives apply to the
/// *next* line).
bool commentAloneOnLine(const std::vector<CppToken> &Toks, int Line, int Col) {
  for (const CppToken &T : Toks) {
    if (T.Line > Line)
      break; // Tokens are in source order.
    if (T.Line == Line && T.Col < Col)
      return false;
  }
  return true;
}

/// Line of the first token after \p Line -- the line a standalone directive
/// comment applies to.  Skipping over intervening comment-only lines lets a
/// justification span several comment lines.
int nextCodeLine(const std::vector<CppToken> &Toks, int Line) {
  for (const CppToken &T : Toks)
    if (T.Line > Line && !T.is(TokKind::EndOfFile))
      return T.Line;
  return Line + 1;
}

//===----------------------------------------------------------------------===//
// Directive parsing: suppressions and PARCS_HOT regions
//===----------------------------------------------------------------------===//

void parseDirectives(FileCtx &Ctx) {
  Ctx.Suppressed = collectSuppressions(Ctx.Toks, Ctx.Comments);
  std::vector<std::pair<int, std::string>> OpenRegions; // (line, name)
  for (const CppComment &C : Ctx.Comments) {
    std::string_view T = C.Text;

    if (T.starts_with("parcs-lint:")) {
      // collectSuppressions recorded the well-formed ones; only diagnose
      // malformed directives here.
      std::string_view Rest =
          trim(T.substr(std::string_view("parcs-lint:").size()));
      if (!Rest.starts_with("allow(")) {
        Ctx.report(rules::HotPathRegion, C.Line, C.Col,
                   "malformed parcs-lint directive (expected "
                   "'parcs-lint: allow(<rule>[, <rule>...])')");
      } else if (Rest.find(')') == std::string_view::npos) {
        Ctx.report(rules::HotPathRegion, C.Line, C.Col,
                   "unterminated parcs-lint allow(...) directive");
      }
      continue;
    }

    if (T.starts_with("PARCS_HOT_BEGIN")) {
      std::string Name;
      std::string_view Rest = T.substr(std::string_view("PARCS_HOT_BEGIN").size());
      if (Rest.starts_with("(")) {
        size_t Close = Rest.find(')');
        if (Close != std::string_view::npos)
          Name = std::string(trim(Rest.substr(1, Close - 1)));
      }
      OpenRegions.emplace_back(C.Line, std::move(Name));
      continue;
    }

    if (T.starts_with("PARCS_HOT_END")) {
      if (OpenRegions.empty()) {
        Ctx.report(rules::HotPathRegion, C.Line, C.Col,
                   "PARCS_HOT_END without a matching PARCS_HOT_BEGIN");
        continue;
      }
      HotRegion R;
      R.BeginLine = OpenRegions.back().first;
      R.Name = std::move(OpenRegions.back().second);
      R.EndLine = C.Line;
      OpenRegions.pop_back();
      Ctx.HotRegions.push_back(std::move(R));
      continue;
    }
  }

  for (const auto &[Line, Name] : OpenRegions)
    Ctx.report(rules::HotPathRegion, Line, 1,
               "PARCS_HOT_BEGIN" + (Name.empty() ? std::string() : "(" + Name + ")") +
                   " is never closed with PARCS_HOT_END");
}

//===----------------------------------------------------------------------===//
// Rule: determinism-wall-clock
//===----------------------------------------------------------------------===//

/// Clock/randomness *types*: any mention is a finding (declaring a variable
/// of such a type is already a determinism bug in waiting).
constexpr std::string_view BannedClockTypes[] = {
    "system_clock",
    "steady_clock",
    "high_resolution_clock",
    "random_device",
};

/// Clock/randomness *functions*: flagged when called (identifier directly
/// followed by '('), either unqualified or std-qualified.  Member calls
/// (`sim.time()`) are someone else's API and stay legal.
constexpr std::string_view BannedClockCalls[] = {
    "time",   "rand",          "srand",
    "clock",  "gettimeofday",  "clock_gettime",
    "timespec_get",
};

/// True when Toks[I] looks like a call of a banned *free* function: next
/// token is '(' and the name is not a member access; `std::` qualification
/// is banned, any other qualifier (`mylib::time`) is not ours to judge.
bool isFreeFunctionCall(const FileCtx &Ctx, size_t I) {
  if (!Ctx.tok(I + 1).isPunct("("))
    return false;
  if (I == 0)
    return true;
  const CppToken &Prev = Ctx.tok(I - 1);
  if (Prev.isPunct(".") || Prev.isPunct("->"))
    return false;
  if (Prev.isPunct("::"))
    return I >= 2 && Ctx.tok(I - 2).isIdent("std");
  return true;
}

void checkWallClock(FileCtx &Ctx) {
  if (isExactMatch(Ctx.RelPath, Ctx.Config->WallClockAllowedFiles))
    return;
  for (size_t I = 0; I < Ctx.Toks.size(); ++I) {
    const CppToken &T = Ctx.Toks[I];
    if (!T.is(TokKind::Identifier))
      continue;
    for (std::string_view Banned : BannedClockTypes) {
      if (T.Text == Banned) {
        Ctx.report(rules::WallClock, T,
                   "'" + std::string(Banned) +
                       "' breaks run-to-run determinism; use the simulation "
                       "clock, or bench::WallTimer / support::Random from the "
                       "allowlisted facades");
        break;
      }
    }
    for (std::string_view Banned : BannedClockCalls) {
      if (T.Text == Banned && isFreeFunctionCall(Ctx, I)) {
        Ctx.report(rules::WallClock, T,
                   "call to '" + std::string(Banned) +
                       "' reads ambient time/randomness and breaks "
                       "determinism; use the simulation clock or "
                       "support::Random");
        break;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Rule: determinism-unordered-iteration
//===----------------------------------------------------------------------===//

constexpr std::string_view UnorderedContainers[] = {
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
};

/// Given Toks[I] == '<', returns the index one past the matching '>'.  The
/// scanner emits '>>' as one token, which closes two levels.
size_t skipTemplateArgs(const FileCtx &Ctx, size_t I) {
  int Depth = 0;
  for (; I < Ctx.Toks.size(); ++I) {
    const CppToken &T = Ctx.Toks[I];
    if (T.isPunct("<"))
      ++Depth;
    else if (T.isPunct(">"))
      --Depth;
    else if (T.isPunct(">>"))
      Depth -= 2;
    else if (T.isPunct(";") || T.is(TokKind::EndOfFile))
      return I; // Malformed / not a template after all; bail.
    if (Depth <= 0)
      return I + 1;
  }
  return I;
}

void checkUnorderedIteration(FileCtx &Ctx) {
  if (!matchesAnyPrefix(Ctx.RelPath, Ctx.Config->UnorderedExportPrefixes))
    return;

  // Pass 1: names declared with an unordered container type anywhere in the
  // file (locals, members, params).  Purely syntactic: a `using` alias of an
  // unordered container is not traced through.
  std::set<std::string, std::less<>> UnorderedVars;
  for (size_t I = 0; I < Ctx.Toks.size(); ++I) {
    const CppToken &T = Ctx.Toks[I];
    bool IsContainer = false;
    for (std::string_view C : UnorderedContainers)
      IsContainer = IsContainer || T.isIdent(C);
    if (!IsContainer || !Ctx.tok(I + 1).isPunct("<"))
      continue;
    size_t J = skipTemplateArgs(Ctx, I + 1);
    while (Ctx.tok(J).isPunct("&") || Ctx.tok(J).isPunct("*"))
      ++J;
    if (Ctx.tok(J).is(TokKind::Identifier))
      UnorderedVars.insert(std::string(Ctx.tok(J).Text));
  }
  if (UnorderedVars.empty())
    return;

  auto IsUnorderedVar = [&](const CppToken &T) {
    return T.is(TokKind::Identifier) && UnorderedVars.count(T.Text) != 0;
  };

  for (size_t I = 0; I < Ctx.Toks.size(); ++I) {
    const CppToken &T = Ctx.Toks[I];

    // Range-for whose range expression mentions an unordered container.
    if (T.isIdent("for") && Ctx.tok(I + 1).isPunct("(")) {
      int Depth = 0;
      bool SawColon = false;
      for (size_t J = I + 1; J < Ctx.Toks.size(); ++J) {
        const CppToken &U = Ctx.Toks[J];
        if (U.isPunct("("))
          ++Depth;
        else if (U.isPunct(")")) {
          if (--Depth == 0)
            break;
        } else if (Depth == 1 && U.isPunct(":"))
          SawColon = true;
        else if (SawColon && Depth >= 1 && IsUnorderedVar(U)) {
          Ctx.report(rules::UnorderedIteration, U,
                     "range-for over unordered container '" +
                         std::string(U.Text) +
                         "' in export-producing code: iteration order is "
                         "hash-dependent; copy to a vector and sort first");
          break;
        }
      }
    }

    // Explicit iteration: Var.begin() / Var.cbegin() (also via ->).
    if (IsUnorderedVar(T) &&
        (Ctx.tok(I + 1).isPunct(".") || Ctx.tok(I + 1).isPunct("->")) &&
        (Ctx.tok(I + 2).isIdent("begin") || Ctx.tok(I + 2).isIdent("cbegin")) &&
        Ctx.tok(I + 3).isPunct("(")) {
      Ctx.report(rules::UnorderedIteration, T,
                 "iteration over unordered container '" + std::string(T.Text) +
                     "' in export-producing code: iteration order is "
                     "hash-dependent; copy to a vector and sort first");
    }
  }
}

//===----------------------------------------------------------------------===//
// Rule: hot-path-alloc
//===----------------------------------------------------------------------===//

void checkHotPathAlloc(FileCtx &Ctx) {
  if (Ctx.HotRegions.empty())
    return;
  for (size_t I = 0; I < Ctx.Toks.size(); ++I) {
    const CppToken &T = Ctx.Toks[I];
    if (!T.is(TokKind::Identifier) || !Ctx.inHotRegion(T.Line))
      continue;

    if (T.Text == "new") {
      // `operator new` declarations are not allocations.
      if (I > 0 && Ctx.tok(I - 1).isIdent("operator"))
        continue;
      Ctx.report(rules::HotPathAlloc, T,
                 "'new' inside a PARCS_HOT region; hot paths must recycle "
                 "(free list / preallocated pool)");
      continue;
    }
    if (T.Text == "make_shared" || T.Text == "make_unique") {
      Ctx.report(rules::HotPathAlloc, T,
                 "'" + std::string(T.Text) +
                     "' allocates inside a PARCS_HOT region");
      continue;
    }
    if (T.Text == "function" && I >= 2 && Ctx.tok(I - 1).isPunct("::") &&
        Ctx.tok(I - 2).isIdent("std")) {
      Ctx.report(rules::HotPathAlloc, T,
                 "std::function inside a PARCS_HOT region may heap-allocate "
                 "on construction; use support::InlineFunction");
      continue;
    }
    if (T.Text == "string" && I >= 2 && Ctx.tok(I - 1).isPunct("::") &&
        Ctx.tok(I - 2).isIdent("std") &&
        (Ctx.tok(I + 1).isPunct("(") || Ctx.tok(I + 1).isPunct("{"))) {
      Ctx.report(rules::HotPathAlloc, T,
                 "std::string temporary inside a PARCS_HOT region; use "
                 "std::string_view or a preallocated buffer");
      continue;
    }
    if (T.Text == "to_string" && Ctx.tok(I + 1).isPunct("(")) {
      Ctx.report(rules::HotPathAlloc, T,
                 "std::to_string allocates inside a PARCS_HOT region");
      continue;
    }
    if ((T.Text == "malloc" || T.Text == "calloc" || T.Text == "realloc" ||
         T.Text == "strdup") &&
        Ctx.tok(I + 1).isPunct("(")) {
      Ctx.report(rules::HotPathAlloc, T,
                 "'" + std::string(T.Text) +
                     "' inside a PARCS_HOT region");
      continue;
    }
  }
}

//===----------------------------------------------------------------------===//
// Rule: suspension-ref (v2: path-sensitive, over the CFG from lint/Cfg.h)
//===----------------------------------------------------------------------===//

/// Per-declaration dataflow bits.  A use is flagged iff DECLARED and SUSP
/// hold (some path suspends between the live declaration and this use) and
/// -- for frame-local-rooted references -- the root container may have been
/// structurally mutated in between (MUT).
constexpr uint8_t SuspDeclared = 1; ///< The declaration is live.
constexpr uint8_t SuspSuspended = 2; ///< A suspension happened since.
constexpr uint8_t SuspRootMutated = 4; ///< The rooting container mutated.

void suspensionStep(DeclStates &S, const CfgEvent &E) {
  switch (E.Kind) {
  case CfgEventKind::Decl:
  case CfgEventKind::Assign:
    // A (re)binding: fresh referent, nothing suspended it yet.  Loop
    // headers re-execute the Decl each pass, which is exactly the
    // per-iteration re-declaration semantics.
    if (E.DeclId >= 0 && static_cast<size_t>(E.DeclId) < S.size())
      S[static_cast<size_t>(E.DeclId)] = SuspDeclared;
    break;
  case CfgEventKind::Suspend:
    for (uint8_t &B : S)
      if (B & SuspDeclared)
        B |= SuspSuspended;
    break;
  case CfgEventKind::RootMutate:
    if (E.DeclId >= 0 && static_cast<size_t>(E.DeclId) < S.size() &&
        (S[static_cast<size_t>(E.DeclId)] & SuspDeclared))
      S[static_cast<size_t>(E.DeclId)] |= SuspRootMutated;
    break;
  case CfgEventKind::Use:
    break;
  }
}

void checkSuspensionRef(FileCtx &Ctx) {
  CfgConfig CC;
  CC.StableTypes = Ctx.Config->SuspensionStableTypes;
  std::vector<FunctionCfg> Fns = buildFileCfgs(Ctx.Toks, CC);
  for (const FunctionCfg &Fn : Fns) {
    if (!Fn.HasSuspension || Fn.Decls.empty())
      continue;

    std::vector<DeclStates> In = solveForward(Fn, suspensionStep);

    // Replay each block from its fixpoint entry state; remember the
    // earliest violating use of every declaration (one finding per decl).
    std::vector<std::pair<int, int>> FirstUse(Fn.Decls.size(),
                                              {INT_MAX, INT_MAX});
    for (size_t B = 0; B < Fn.Blocks.size(); ++B) {
      DeclStates S = In[B];
      for (const CfgEvent &E : Fn.Blocks[B].Events) {
        if (E.Kind == CfgEventKind::Use && E.DeclId >= 0 &&
            static_cast<size_t>(E.DeclId) < Fn.Decls.size()) {
          const CfgDecl &D = Fn.Decls[static_cast<size_t>(E.DeclId)];
          uint8_t St = S[static_cast<size_t>(E.DeclId)];
          bool Dangles = (St & SuspDeclared) && (St & SuspSuspended) &&
                         (!D.FrameLocalRoot || (St & SuspRootMutated));
          if (Dangles) {
            auto &FU = FirstUse[static_cast<size_t>(E.DeclId)];
            if (std::pair<int, int>(E.Line, E.Col) < FU)
              FU = {E.Line, E.Col};
          }
        }
        suspensionStep(S, E);
      }
    }

    for (size_t D = 0; D < Fn.Decls.size(); ++D) {
      if (FirstUse[D].first == INT_MAX)
        continue;
      const CfgDecl &Decl = Fn.Decls[D];
      // A suppression on the declaration line covers every later use:
      // "this local refers to storage that is stable across suspensions"
      // is a property of the declaration.
      auto DeclSupp = Ctx.Suppressed.find(Decl.Line);
      if (DeclSupp != Ctx.Suppressed.end() &&
          DeclSupp->second.count(rules::SuspensionRef) != 0)
        continue;
      Ctx.report(rules::SuspensionRef, FirstUse[D].first, FirstUse[D].second,
                 Decl.What + " '" + Decl.Name + "' (declared line " +
                     std::to_string(Decl.Line) +
                     ") used after a suspension point; the storage it "
                     "refers to may have moved or been freed while "
                     "suspended");
    }
  }
}

//===----------------------------------------------------------------------===//
// Rule: nonreentrant-call
//===----------------------------------------------------------------------===//

constexpr std::string_view NonreentrantFns[] = {
    "strtok",
    "gmtime",
    "localtime",
    "setenv",
};

void checkNonreentrant(FileCtx &Ctx) {
  if (!matchesAnyPrefix(Ctx.RelPath, Ctx.Config->NonreentrantPrefixes))
    return;
  for (size_t I = 0; I < Ctx.Toks.size(); ++I) {
    const CppToken &T = Ctx.Toks[I];
    if (!T.is(TokKind::Identifier))
      continue;
    for (std::string_view Banned : NonreentrantFns) {
      if (T.Text == Banned && isFreeFunctionCall(Ctx, I)) {
        Ctx.report(rules::NonreentrantCall, T,
                   "'" + std::string(Banned) +
                       "' is non-reentrant (hidden static state) and unsafe "
                       "with the thread pool; use a reentrant alternative");
        break;
      }
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

const std::vector<std::string> &parcs::lint::allRules() {
  static const std::vector<std::string> Rules = {
      rules::WallClock,        rules::UnorderedIteration,
      rules::HotPathAlloc,     rules::SuspensionRef,
      rules::NonreentrantCall, rules::HotPathRegion,
      rules::SyncCallDeadlock, rules::DeterminismTaint,
  };
  return Rules;
}

std::map<int, std::set<std::string>>
parcs::lint::collectSuppressions(const std::vector<CppToken> &Toks,
                                 const std::vector<CppComment> &Comments) {
  std::map<int, std::set<std::string>> Out;
  for (const CppComment &C : Comments) {
    std::string_view T = C.Text;
    if (!T.starts_with("parcs-lint:"))
      continue;
    std::string_view Rest =
        trim(T.substr(std::string_view("parcs-lint:").size()));
    if (!Rest.starts_with("allow("))
      continue; // Malformed; parseDirectives diagnoses it.
    size_t Close = Rest.find(')');
    if (Close == std::string_view::npos)
      continue;
    std::string_view List = Rest.substr(6, Close - 6);
    int Target = commentAloneOnLine(Toks, C.Line, C.Col)
                     ? nextCodeLine(Toks, C.Line)
                     : C.Line;
    while (!List.empty()) {
      size_t Comma = List.find(',');
      std::string_view Rule = trim(List.substr(0, Comma));
      if (!Rule.empty())
        Out[Target].insert(std::string(Rule));
      if (Comma == std::string_view::npos)
        break;
      List.remove_prefix(Comma + 1);
    }
  }
  return Out;
}

uint32_t parcs::lint::fnv1a(std::string_view S) {
  uint32_t H = 2166136261u;
  for (char C : S) {
    H ^= static_cast<uint8_t>(C);
    H *= 16777619u;
  }
  return H;
}

uint32_t parcs::lint::flaggedLineHash(std::string_view Source, int Line) {
  if (Line <= 0)
    return 0;
  int Cur = 1;
  size_t Begin = 0;
  while (Cur < Line) {
    size_t Eol = Source.find('\n', Begin);
    if (Eol == std::string_view::npos)
      return 0;
    Begin = Eol + 1;
    ++Cur;
  }
  size_t Eol = Source.find('\n', Begin);
  std::string_view Content = Source.substr(
      Begin, Eol == std::string_view::npos ? std::string_view::npos
                                           : Eol - Begin);
  return fnv1a(trim(Content));
}

bool Finding::operator<(const Finding &O) const {
  if (File != O.File)
    return File < O.File;
  if (Line != O.Line)
    return Line < O.Line;
  if (Col != O.Col)
    return Col < O.Col;
  if (Rule != O.Rule)
    return Rule < O.Rule;
  return Message < O.Message;
}

bool Finding::operator==(const Finding &O) const {
  return Rule == O.Rule && File == O.File && Line == O.Line && Col == O.Col &&
         Message == O.Message;
}

std::vector<Finding> parcs::lint::lintSource(std::string_view RelPath,
                                             std::string_view Source,
                                             const LintConfig &Config) {
  FileCtx Ctx;
  Ctx.RelPath = std::string(RelPath);
  Ctx.Config = &Config;
  CppScanner Scanner(Source);
  Scanner.scanAll(Ctx.Toks, Ctx.Comments);

  parseDirectives(Ctx);

  auto Enabled = [&](const char *Rule) {
    return Config.DisabledRules.count(Rule) == 0;
  };
  if (Enabled(rules::WallClock))
    checkWallClock(Ctx);
  if (Enabled(rules::UnorderedIteration))
    checkUnorderedIteration(Ctx);
  if (Enabled(rules::HotPathAlloc))
    checkHotPathAlloc(Ctx);
  if (Enabled(rules::SuspensionRef))
    checkSuspensionRef(Ctx);
  if (Enabled(rules::NonreentrantCall))
    checkNonreentrant(Ctx);
  if (!Enabled(rules::HotPathRegion)) {
    Ctx.Findings.erase(
        std::remove_if(Ctx.Findings.begin(), Ctx.Findings.end(),
                       [](const Finding &F) {
                         return F.Rule == rules::HotPathRegion;
                       }),
        Ctx.Findings.end());
  }

  // Apply inline suppressions, then stamp every survivor with the hash of
  // the line it points at (for the shift-resilient baseline keying).
  std::vector<Finding> Kept;
  Kept.reserve(Ctx.Findings.size());
  for (Finding &F : Ctx.Findings) {
    auto It = Ctx.Suppressed.find(F.Line);
    if (It != Ctx.Suppressed.end() && It->second.count(F.Rule) != 0)
      continue;
    F.LineHash = flaggedLineHash(Source, F.Line);
    Kept.push_back(std::move(F));
  }
  std::sort(Kept.begin(), Kept.end());
  return Kept;
}

//===----------------------------------------------------------------------===//
// Baseline
//===----------------------------------------------------------------------===//

namespace {

/// Formats a 32-bit hash as the 8 lowercase hex digits used in baselines.
std::string hash8(uint32_t H) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "%08x", H);
  return Buf;
}

/// One baseline entry matches one finding with the same rule, file and
/// line hash: an entry on the finding's own line first, then the entry
/// nearest to it (a pure line shift).  Returns, for each finding (in the
/// given order), the index of its consumed entry or -1.  Findings are
/// visited in sorted order so the result is independent of caller
/// ordering.
std::vector<int> matchEntries(const std::vector<Finding> &Findings,
                              const std::vector<Baseline::Entry> &Entries) {
  std::vector<int> Matched(Findings.size(), -1);
  std::vector<char> Consumed(Entries.size(), 0);

  std::vector<size_t> Order(Findings.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Findings[A] < Findings[B];
  });

  // Pass 0 takes same-line entries, pass 1 the nearest shifted ones.
  for (int Pass = 0; Pass < 2; ++Pass) {
    for (size_t FI : Order) {
      if (Matched[FI] >= 0)
        continue;
      const Finding &F = Findings[FI];
      int Best = -1;
      long BestDist = 0;
      for (size_t E = 0; E < Entries.size(); ++E) {
        const Baseline::Entry &En = Entries[E];
        if (Consumed[E] || En.Hash != F.LineHash || En.Rule != F.Rule ||
            En.File != F.File)
          continue;
        long Dist = En.Line > F.Line ? En.Line - F.Line : F.Line - En.Line;
        if (Pass == 0 && Dist != 0)
          continue;
        if (Best < 0 || Dist < BestDist ||
            (Dist == BestDist &&
             En.Line < Entries[static_cast<size_t>(Best)].Line)) {
          Best = static_cast<int>(E);
          BestDist = Dist;
        }
      }
      if (Best >= 0) {
        Consumed[static_cast<size_t>(Best)] = 1;
        Matched[FI] = Best;
      }
    }
  }
  return Matched;
}

} // namespace

Baseline Baseline::parse(std::string_view Text,
                         std::vector<std::string> &Errors) {
  Baseline B;
  int LineNo = 0;
  std::vector<std::string> Pending; // Comment block being accumulated.
  while (!Text.empty()) {
    size_t Eol = Text.find('\n');
    std::string_view Line = trim(Text.substr(0, Eol));
    Text.remove_prefix(Eol == std::string_view::npos ? Text.size() : Eol + 1);
    ++LineNo;
    if (Line.empty()) {
      Pending.clear(); // A blank line detaches the block above it.
      continue;
    }
    if (Line.front() == '#') {
      Pending.emplace_back(Line);
      continue;
    }
    std::vector<std::string_view> Fields = split(Line, '|');
    for (std::string_view &F : Fields)
      F = trim(F);
    Entry En;
    if (Fields.size() != 4 || Fields[0].empty() || Fields[1].empty() ||
        !parseInt(Fields[2], En.Line, 1) || Fields[3].size() != 8 ||
        !parseInt(Fields[3], En.Hash, 0, UINT32_MAX, 16)) {
      Errors.push_back("baseline line " + std::to_string(LineNo) +
                       ": expected '<rule>|<file>|<line>|<hash8>'");
      Pending.clear();
      continue;
    }
    En.Rule = std::string(Fields[0]);
    En.File = std::string(Fields[1]);
    En.Comments = std::move(Pending);
    Pending.clear();
    B.Entries.push_back(std::move(En));
  }
  return B;
}

std::string Baseline::write(const std::vector<Finding> &Findings) {
  return update(
      "# parcs-lint baseline: grandfathered findings.\n"
      "# Format: <rule>|<file>|<line>|<hash8>, where <hash8> is the\n"
      "# FNV-1a hash of the trimmed flagged source line.  Entries match\n"
      "# on (rule, file, hash), so pure line shifts keep matching, while\n"
      "# any edit to the flagged line itself forces a re-audit.  Keep\n"
      "# the justification comment above each entry up to date; refresh\n"
      "# lines and hashes with `parcs-lint --update-baseline <file>`.\n",
      Findings);
}

std::string Baseline::update(std::string_view OldText,
                             const std::vector<Finding> &Findings) {
  std::vector<std::string> Errors;
  Baseline Old = parse(OldText, Errors);

  // The file header: every line above the first entry's comment block
  // (all of the old text when it has no entry).
  std::string Header;
  std::string Pending; // Comment block that may belong to an entry.
  while (!OldText.empty()) {
    size_t Eol = OldText.find('\n');
    std::string_view Raw = OldText.substr(0, Eol);
    std::string_view Line = trim(Raw);
    OldText.remove_prefix(Eol == std::string_view::npos ? OldText.size()
                                                        : Eol + 1);
    if (!Line.empty() && Line.front() != '#') {
      Pending.clear(); // The first entry (or junk) owns the block above it.
      break;
    }
    Pending += std::string(Raw) + "\n";
    if (Line.empty()) {
      Header += Pending;
      Pending.clear();
    }
  }
  Header += Pending;
  // Drop trailing blank lines; entry blocks add their own separation.
  while (Header.ends_with("\n\n"))
    Header.pop_back();

  std::vector<Finding> Sorted = Findings;
  std::sort(Sorted.begin(), Sorted.end());
  std::vector<int> Matched = matchEntries(Sorted, Old.Entries);

  std::string Out = Header;
  for (size_t I = 0; I < Sorted.size(); ++I) {
    const Finding &F = Sorted[I];
    Out += "\n";
    if (Matched[I] >= 0 &&
        !Old.Entries[static_cast<size_t>(Matched[I])].Comments.empty()) {
      for (const std::string &C :
           Old.Entries[static_cast<size_t>(Matched[I])].Comments)
        Out += C + "\n";
    } else {
      Out += "# JUSTIFY: " + F.Message + "\n";
    }
    Out += F.Rule + "|" + F.File + "|" + std::to_string(F.Line) + "|" +
           hash8(F.LineHash) + "\n";
  }
  return Out;
}

void Baseline::add(const Finding &F) {
  Entry En;
  En.Rule = F.Rule;
  En.File = F.File;
  En.Line = F.Line;
  En.Hash = F.LineHash;
  Entries.push_back(std::move(En));
}

std::vector<Finding> parcs::lint::applyBaseline(
    const std::vector<Finding> &Findings, const Baseline &B) {
  std::vector<int> Matched = matchEntries(Findings, B.Entries);
  std::vector<Finding> Kept;
  Kept.reserve(Findings.size());
  for (size_t I = 0; I < Findings.size(); ++I)
    if (Matched[I] < 0)
      Kept.push_back(Findings[I]);
  return Kept;
}

//===----------------------------------------------------------------------===//
// Reporters
//===----------------------------------------------------------------------===//

std::string parcs::lint::renderText(std::vector<Finding> Findings) {
  std::sort(Findings.begin(), Findings.end());
  std::string Out;
  for (const Finding &F : Findings) {
    Out += F.File + ":" + std::to_string(F.Line) + ":" +
           std::to_string(F.Col) + ": warning: [" + F.Rule + "] " + F.Message +
           "\n";
  }
  if (Findings.empty())
    Out += "parcs-lint: no findings\n";
  else
    Out += "parcs-lint: " + std::to_string(Findings.size()) + " finding" +
           (Findings.size() == 1 ? "" : "s") + "\n";
  return Out;
}

std::string parcs::lint::renderJson(std::vector<Finding> Findings) {
  std::sort(Findings.begin(), Findings.end());
  std::string Out;
  Out += "{\n  \"findings\": [";
  for (size_t I = 0; I < Findings.size(); ++I) {
    const Finding &F = Findings[I];
    Out += I == 0 ? "\n" : ",\n";
    Out += "    {\"rule\": ";
    json::appendString(Out, F.Rule);
    Out += ", \"file\": ";
    json::appendString(Out, F.File);
    Out += ", \"line\": " + std::to_string(F.Line);
    Out += ", \"col\": " + std::to_string(F.Col);
    Out += ", \"message\": ";
    json::appendString(Out, F.Message);
    Out += '}';
  }
  Out += Findings.empty() ? "]" : "\n  ]";
  Out += ",\n  \"count\": " + std::to_string(Findings.size()) + "\n}\n";
  return Out;
}
