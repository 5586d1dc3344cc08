//===- lint/Analysis.cpp - Interprocedural deadlock & taint rules ---------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "lint/Analysis.h"

#include <algorithm>

using namespace parcs;
using namespace parcs::lint;

namespace {

/// Free-function determinism sources (the same spellings the per-file
/// wall-clock rule bans; kept local so the program layer does not reach
/// into the rule engine's internals).
constexpr std::string_view SourceCalls[] = {
    "time",   "rand",         "srand",         "clock",
    "gettimeofday", "clock_gettime", "timespec_get",
};

bool isSourceCallName(std::string_view Name) {
  for (std::string_view S : SourceCalls)
    if (Name == S)
      return true;
  return false;
}

size_t matchForwardTok(const std::vector<CppToken> &Toks, size_t I,
                       const char *Open, const char *Close) {
  int Depth = 0;
  for (; I < Toks.size(); ++I) {
    if (Toks[I].is(TokKind::EndOfFile))
      break;
    if (Toks[I].isPunct(Open))
      ++Depth;
    else if (Toks[I].isPunct(Close) && --Depth == 0)
      return I;
  }
  return Toks.empty() ? 0 : Toks.size() - 1;
}

/// Class/struct body ranges in one file, for attributing inline method
/// definitions to their enclosing class.
struct ClassRange {
  std::string Name;
  size_t Begin = 0; ///< Index of the '{'.
  size_t End = 0;   ///< Index of the matching '}'.
};

std::vector<ClassRange> findClassRanges(const std::vector<CppToken> &Toks) {
  std::vector<ClassRange> Out;
  for (size_t I = 0; I < Toks.size(); ++I) {
    const CppToken &T = Toks[I];
    if (!T.isIdent("class") && !T.isIdent("struct"))
      continue;
    if (I > 0 && Toks[I - 1].isIdent("enum"))
      continue; // enum class: no methods inside.
    if (I + 1 >= Toks.size() || !Toks[I + 1].is(TokKind::Identifier))
      continue;
    // `template <class T>`: the name is a template parameter, not a class.
    if (I + 2 < Toks.size() &&
        (Toks[I + 2].isPunct(">") || Toks[I + 2].isPunct(",") ||
         Toks[I + 2].isPunct(">>")))
      continue;
    std::string Name(Toks[I + 1].Text);
    // Scan to the body '{' (over `final` and the base clause) or give up at
    // ';' (forward declaration) / '=' (alias-ish) / EOF.
    size_t J = I + 2;
    bool Found = false;
    for (; J < Toks.size() && J < I + 64; ++J) {
      if (Toks[J].isPunct("{")) {
        Found = true;
        break;
      }
      if (Toks[J].isPunct(";") || Toks[J].isPunct("=") ||
          Toks[J].is(TokKind::EndOfFile))
        break;
    }
    if (!Found)
      continue;
    ClassRange R;
    R.Name = std::move(Name);
    R.Begin = J;
    R.End = matchForwardTok(Toks, J, "{", "}");
    Out.push_back(std::move(R));
  }
  return Out;
}

/// Strips the quotes from a string-literal token's text.
std::string_view literalValue(const CppToken &T) {
  std::string_view S = T.Text;
  if (S.size() >= 2 && S.front() == '"' && S.back() == '"')
    return S.substr(1, S.size() - 2);
  return S;
}

/// Matches a C++ scope name against a facts class: the class itself or the
/// `<Class>Impl` convention used for servant implementations.
bool scopeImplementsClass(std::string_view Scope, std::string_view Class) {
  if (Scope == Class)
    return true;
  return Scope.size() == Class.size() + 4 &&
         Scope.substr(0, Class.size()) == Class &&
         Scope.substr(Class.size()) == "Impl";
}

struct FnRef {
  const FileUnit *Unit = nullptr;
  const FunctionCfg *Fn = nullptr;
  const std::string *Scope = nullptr; ///< Attributed scope (may be empty).
};

/// One sync-invoke edge target with the call site that created it.
struct EdgeSite {
  std::string File;
  int Line = 0;
  int Col = 0;
  std::string Spelling; ///< "Proxy->norm()" style description.
};

bool isSuppressedAt(const FileUnit &U, int Line, const char *Rule) {
  auto It = U.Suppressed.find(Line);
  return It != U.Suppressed.end() &&
         (It->second.count(Rule) != 0 || It->second.count("*") != 0);
}

} // namespace

//===----------------------------------------------------------------------===//
// Program assembly
//===----------------------------------------------------------------------===//

void Program::addFile(std::string RelPath, std::string Source,
                      const LintConfig &Config) {
  auto Unit = std::make_unique<FileUnit>();
  Unit->RelPath = std::move(RelPath);
  Unit->Source = std::move(Source);
  CppScanner Scanner(Unit->Source);
  Scanner.scanAll(Unit->Toks, Unit->Comments);
  Unit->Suppressed = collectSuppressions(Unit->Toks, Unit->Comments);

  CfgConfig CC;
  CC.StableTypes = Config.SuspensionStableTypes;
  Unit->Fns = buildFileCfgs(Unit->Toks, CC);

  // Attribute inline method bodies to their innermost enclosing class.
  std::vector<ClassRange> Classes = findClassRanges(Unit->Toks);
  Unit->FnScopes.reserve(Unit->Fns.size());
  for (const FunctionCfg &Fn : Unit->Fns) {
    std::string Scope = Fn.Scope;
    if (Scope.empty()) {
      size_t BestSize = static_cast<size_t>(-1);
      for (const ClassRange &R : Classes) {
        if (Fn.BodyBegin > R.Begin && Fn.BodyBegin < R.End &&
            R.End - R.Begin < BestSize) {
          BestSize = R.End - R.Begin;
          Scope = R.Name;
        }
      }
    }
    Unit->FnScopes.push_back(std::move(Scope));
  }

  Units.push_back(std::move(Unit));
}

std::vector<Finding> Program::analyze(const FactsDb &Facts,
                                      const LintConfig &Config) const {
  std::vector<Finding> Out;
  auto Enabled = [&](const char *Rule) {
    return Config.DisabledRules.count(Rule) == 0;
  };
  if (!Facts.empty() && Enabled(rules::SyncCallDeadlock)) {
    std::vector<Finding> F = analyzeDeadlocks(Facts);
    Out.insert(Out.end(), F.begin(), F.end());
  }
  if (Enabled(rules::DeterminismTaint)) {
    std::vector<Finding> F = analyzeTaint(Config);
    Out.insert(Out.end(), F.begin(), F.end());
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

//===----------------------------------------------------------------------===//
// sync-call-deadlock
//===----------------------------------------------------------------------===//

std::vector<Finding> Program::analyzeDeadlocks(const FactsDb &Facts) const {
  // Sync method name -> classes declaring it (active classes only).
  std::map<std::string, std::vector<std::string>, std::less<>> SyncMethods;
  for (const FactsDb::Module &M : Facts.Modules)
    for (const FactsClass &C : M.Classes) {
      if (C.Passive)
        continue;
      for (const FactsMethod &F : C.Methods)
        if (F.Sync)
          SyncMethods[F.Name].push_back(C.Name);
    }
  if (SyncMethods.empty())
    return {};

  // Flatten functions; index by unqualified name for helper propagation.
  std::vector<FnRef> Fns;
  std::map<std::string, std::vector<size_t>, std::less<>> ByName;
  for (const auto &U : Units)
    for (size_t I = 0; I < U->Fns.size(); ++I) {
      FnRef R{U.get(), &U->Fns[I], &U->FnScopes[I]};
      ByName[U->Fns[I].Name].push_back(Fns.size());
      Fns.push_back(R);
    }

  // SyncTargets[f]: classes function f sync-invokes (directly or through
  // helpers), with the call site that first contributed each class.
  std::vector<std::map<std::string, EdgeSite>> SyncTargets(Fns.size());

  auto SpellCall = [](const CfgCallSite &C) {
    std::string S;
    if (!C.Receiver.empty())
      S += C.Receiver + (C.Member ? "->" : "");
    else if (!C.Qualifier.empty())
      S += C.Qualifier + "::";
    S += C.Callee + "()";
    return S;
  };

  // Direct edges.
  for (size_t F = 0; F < Fns.size(); ++F) {
    const FnRef &R = Fns[F];
    for (const CfgCallSite &C : R.Fn->Calls) {
      std::vector<std::string> Targets;
      if (C.Member && C.Receiver != "this") {
        auto It = SyncMethods.find(C.Callee);
        if (It != SyncMethods.end())
          Targets = It->second;
      }
      if (C.Callee == "invokeSync" || C.Callee == "invokeSyncTyped") {
        // The invoked method is the first string-literal argument.
        for (size_t I = C.ArgsBegin;
             I < C.ArgsEnd && I < R.Unit->Toks.size(); ++I) {
          if (!R.Unit->Toks[I].is(TokKind::String))
            continue;
          auto It = SyncMethods.find(literalValue(R.Unit->Toks[I]));
          if (It != SyncMethods.end())
            Targets.insert(Targets.end(), It->second.begin(),
                           It->second.end());
          break;
        }
      }
      for (const std::string &Class : Targets)
        SyncTargets[F].emplace(
            Class, EdgeSite{R.Unit->RelPath, C.Line, C.Col, SpellCall(C)});
    }
  }

  // Helper propagation: f inherits the targets of every program function
  // its call sites resolve to by name, anchored at f's own call site.
  bool Changed = true;
  size_t Passes = 0;
  while (Changed && Passes++ < Fns.size() + 8) {
    Changed = false;
    for (size_t F = 0; F < Fns.size(); ++F) {
      const FnRef &R = Fns[F];
      for (const CfgCallSite &C : R.Fn->Calls) {
        // Helpers are free calls or `this->helper()`: a member call on
        // another object is a remote invoke (already a direct edge, when
        // sync), not a local helper to inline.
        if (C.Member && C.Receiver != "this")
          continue;
        auto It = ByName.find(C.Callee);
        if (It == ByName.end())
          continue;
        for (size_t Callee : It->second) {
          if (Callee == F)
            continue;
          for (const auto &[Class, Site] : SyncTargets[Callee]) {
            (void)Site;
            auto [Pos, Inserted] = SyncTargets[F].emplace(
                Class,
                EdgeSite{R.Unit->RelPath, C.Line, C.Col, SpellCall(C)});
            Changed = Changed || Inserted;
            (void)Pos;
          }
        }
      }
    }
  }

  // Project onto the class graph: A -> B when a method attributed to A
  // sync-invokes B.
  std::set<std::string> ClassNames;
  for (const FactsDb::Module &M : Facts.Modules)
    for (const FactsClass &C : M.Classes)
      if (!C.Passive)
        ClassNames.insert(C.Name);
  std::map<std::string, std::map<std::string, EdgeSite>> ClassEdges;
  for (size_t F = 0; F < Fns.size(); ++F) {
    if (SyncTargets[F].empty())
      continue;
    const FnRef &R = Fns[F];
    for (const std::string &Class : ClassNames) {
      if (!scopeImplementsClass(*R.Scope, Class))
        continue;
      for (const auto &[Target, Site] : SyncTargets[F])
        ClassEdges[Class].emplace(Target, Site);
    }
  }

  // Cycle detection: a class is cyclic when it can reach itself.  The
  // graph is tiny (one node per parallel class), so transitive closure by
  // repeated relaxation is plenty.
  std::map<std::string, std::set<std::string>> Reach;
  for (const auto &[From, Edges] : ClassEdges)
    for (const auto &[To, Site] : Edges) {
      (void)Site;
      Reach[From].insert(To);
    }
  bool Grew = true;
  while (Grew) {
    Grew = false;
    for (auto &[From, Tos] : Reach) {
      std::set<std::string> Add;
      for (const std::string &Mid : Tos) {
        auto It = Reach.find(Mid);
        if (It == Reach.end())
          continue;
        for (const std::string &To : It->second)
          if (Tos.count(To) == 0)
            Add.insert(To);
      }
      if (!Add.empty()) {
        Tos.insert(Add.begin(), Add.end());
        Grew = true;
      }
    }
  }

  // Report every edge that sits on a cycle: From -> To where To reaches
  // From (covers self-edges, To == From).  One finding per edge, anchored
  // at the contributing call site.
  std::vector<Finding> Out;
  for (const auto &[From, Edges] : ClassEdges) {
    for (const auto &[To, Site] : Edges) {
      bool OnCycle =
          To == From || (Reach.count(To) != 0 && Reach.at(To).count(From) != 0);
      if (!OnCycle)
        continue;
      // Describe the cycle deterministically: From -> To -> ... -> From.
      std::string Cycle = From + " -> " + To;
      if (To != From)
        Cycle += " -> ... -> " + From;
      Finding F;
      F.Rule = rules::SyncCallDeadlock;
      F.File = Site.File;
      F.Line = Site.Line;
      F.Col = Site.Col;
      F.Message = "synchronous invoke '" + Site.Spelling +
                  "' closes a sync-call cycle between parallel classes (" +
                  Cycle +
                  "); each side blocks waiting for the other's reply and "
                  "neither active object can serve it -- make one leg async "
                  "or split the shared state";
      Out.push_back(std::move(F));
    }
  }

  // Inline suppressions; survivors carry their line's hash for baselines.
  std::vector<Finding> Kept;
  for (Finding &F : Out) {
    const FileUnit *U = nullptr;
    for (const auto &Candidate : Units)
      if (Candidate->RelPath == F.File) {
        U = Candidate.get();
        break;
      }
    if (U && isSuppressedAt(*U, F.Line, rules::SyncCallDeadlock))
      continue;
    if (U)
      F.LineHash = flaggedLineHash(U->Source, F.Line);
    Kept.push_back(std::move(F));
  }
  return Kept;
}

//===----------------------------------------------------------------------===//
// determinism-taint
//===----------------------------------------------------------------------===//

namespace {

/// Per-function taint facts, recomputed on every global pass.
struct FnTaint {
  std::set<std::string, std::less<>> Tainted;   ///< Taint-carrying locals.
  std::set<std::string, std::less<>> SourceVars; ///< Source-typed locals.
  std::set<std::string, std::less<>> UnorderedVars;
  bool ReturnsTaint = false;
};

constexpr std::string_view UnorderedTypes[] = {
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
};

class TaintEngine {
public:
  TaintEngine(const std::vector<std::unique_ptr<FileUnit>> &Units,
              const LintConfig &Config)
      : Units(Units), Config(Config) {}

  std::vector<Finding> run() {
    // Flatten.
    for (const auto &U : Units)
      for (const FunctionCfg &Fn : U->Fns) {
        Refs.push_back({U.get(), &Fn, nullptr});
        States.emplace_back();
      }

    // Global fixpoint over taint-returning functions.
    bool Changed = true;
    size_t Passes = 0;
    while (Changed && Passes++ < Refs.size() + 8) {
      Changed = false;
      for (size_t F = 0; F < Refs.size(); ++F) {
        FnTaint Fresh = computeLocal(F);
        if (Fresh.ReturnsTaint && !States[F].ReturnsTaint) {
          TaintReturning.insert(std::string(Refs[F].Fn->Name));
          Changed = true;
        }
        States[F] = std::move(Fresh);
      }
    }

    // Sinks.
    std::vector<Finding> Out;
    for (size_t F = 0; F < Refs.size(); ++F)
      reportSinks(F, Out);
    return Out;
  }

private:
  bool isSinkQualifier(std::string_view Q) const {
    for (const std::string &S : Config.TaintSinkQualifiers)
      if (Q == S)
        return true;
    return false;
  }
  bool isSourceType(std::string_view T) const {
    for (const std::string &S : Config.TaintSourceTypes)
      if (T == S)
        return true;
    return false;
  }

  const CppToken &tok(const FileUnit &U, size_t I) const {
    return I < U.Toks.size() ? U.Toks[I] : U.Toks.back();
  }

  /// Does the token at \p I start a determinism source inside \p State?
  /// (banned free call, member call on a source-typed local, call of a
  /// taint-returning function, or read of a tainted local)
  bool tokenTainted(const FileUnit &U, const FnTaint &State, size_t I) const {
    const CppToken &T = U.Toks[I];
    if (!T.is(TokKind::Identifier))
      return false;
    if (State.Tainted.count(T.Text) != 0)
      return true;
    if (State.SourceVars.count(T.Text) != 0 &&
        (tok(U, I + 1).isPunct(".") || tok(U, I + 1).isPunct("->")))
      return true;
    if (tok(U, I + 1).isPunct("(")) {
      bool FreeCall =
          I == 0 || (!tok(U, I - 1).isPunct(".") &&
                     !tok(U, I - 1).isPunct("->") &&
                     (!tok(U, I - 1).isPunct("::") ||
                      (I >= 2 && tok(U, I - 2).isIdent("std"))));
      if (FreeCall && isSourceCallName(T.Text))
        return true;
      if (TaintReturning.count(T.Text) != 0)
        return true;
    }
    return false;
  }

  bool rangeTainted(const FileUnit &U, const FnTaint &State, size_t Begin,
                    size_t End) const {
    for (size_t I = Begin; I < End && I < U.Toks.size(); ++I)
      if (tokenTainted(U, State, I))
        return true;
    return false;
  }

  FnTaint computeLocal(size_t F) const {
    const FileUnit &U = *Refs[F].Unit;
    const FunctionCfg &Fn = *Refs[F].Fn;
    FnTaint State;
    size_t Begin = Fn.BodyBegin + 1;
    size_t End = Fn.BodyEnd > 0 ? Fn.BodyEnd - 1 : Fn.BodyBegin;

    // Pass 0: source-typed and unordered locals (`WallTimer T;`,
    // `unordered_map<K, V> M;`).
    for (size_t I = Begin; I < End && I < U.Toks.size(); ++I) {
      const CppToken &T = U.Toks[I];
      if (!T.is(TokKind::Identifier))
        continue;
      if (isSourceType(T.Text) && tok(U, I + 1).is(TokKind::Identifier))
        State.SourceVars.insert(std::string(tok(U, I + 1).Text));
      for (std::string_view UT : UnorderedTypes)
        if (T.Text == UT && tok(U, I + 1).isPunct("<")) {
          // Skip the template arguments to the declared name.
          int Depth = 0;
          size_t J = I + 1;
          for (; J < End; ++J) {
            if (U.Toks[J].isPunct("<"))
              ++Depth;
            else if (U.Toks[J].isPunct(">"))
              --Depth;
            else if (U.Toks[J].isPunct(">>"))
              Depth -= 2;
            else if (U.Toks[J].isPunct(";"))
              break;
            if (Depth <= 0) {
              ++J;
              break;
            }
          }
          while (tok(U, J).isPunct("&") || tok(U, J).isPunct("*"))
            ++J;
          if (tok(U, J).is(TokKind::Identifier))
            State.UnorderedVars.insert(std::string(tok(U, J).Text));
        }
    }

    // Passes 1..n: propagate through `X = <tainted expr>` assignments
    // (covers `auto X = ...` declarations too -- the name precedes '=')
    // until the tainted set stops growing.  Flow-insensitive on purpose:
    // one byte of precision traded for never missing a flow.
    bool Changed = true;
    size_t Guard = 0;
    while (Changed && Guard++ < 16) {
      Changed = false;
      for (size_t I = Begin; I < End && I < U.Toks.size(); ++I) {
        const CppToken &T = U.Toks[I];
        if (!T.is(TokKind::Identifier) || !tok(U, I + 1).isPunct("="))
          continue;
        // RHS: to the statement-ending ';' at bracket depth 0.
        size_t J = I + 2;
        int Depth = 0;
        for (; J < End && J < U.Toks.size(); ++J) {
          const CppToken &R = U.Toks[J];
          if (R.isPunct("(") || R.isPunct("[") || R.isPunct("{"))
            ++Depth;
          else if (R.isPunct(")") || R.isPunct("]") || R.isPunct("}")) {
            if (Depth == 0)
              break;
            --Depth;
          } else if (Depth == 0 && R.isPunct(";"))
            break;
        }
        if (State.Tainted.count(T.Text) == 0 &&
            rangeTainted(U, State, I + 2, J)) {
          State.Tainted.insert(std::string(T.Text));
          Changed = true;
        }
      }
    }

    // Returns-taint: `return <tainted>` / `co_return <tainted>`.
    for (size_t I = Begin; I < End && I < U.Toks.size(); ++I) {
      const CppToken &T = U.Toks[I];
      if (!T.isIdent("return") && !T.isIdent("co_return"))
        continue;
      size_t J = I + 1;
      int Depth = 0;
      for (; J < End && J < U.Toks.size(); ++J) {
        const CppToken &R = U.Toks[J];
        if (R.isPunct("(") || R.isPunct("[") || R.isPunct("{"))
          ++Depth;
        else if (R.isPunct(")") || R.isPunct("]") || R.isPunct("}")) {
          if (Depth == 0)
            break;
          --Depth;
        } else if (Depth == 0 && R.isPunct(";"))
          break;
      }
      if (rangeTainted(U, State, I + 1, J)) {
        State.ReturnsTaint = true;
        break;
      }
    }
    return State;
  }

  void reportSinks(size_t F, std::vector<Finding> &Out) const {
    const FileUnit &U = *Refs[F].Unit;
    const FunctionCfg &Fn = *Refs[F].Fn;
    const FnTaint &State = States[F];
    for (const CfgCallSite &C : Fn.Calls) {
      if (!isSinkQualifier(C.Qualifier))
        continue;
      // Find the offending argument token for a precise diagnostic.
      for (size_t I = C.ArgsBegin; I < C.ArgsEnd && I < U.Toks.size(); ++I) {
        const CppToken &T = U.Toks[I];
        if (!T.is(TokKind::Identifier))
          continue;
        bool IsUnordered = State.UnorderedVars.count(T.Text) != 0;
        if (!IsUnordered && !tokenTainted(U, State, I))
          continue;
        if (isSuppressedAt(U, C.Line, rules::DeterminismTaint) ||
            isSuppressedAt(U, T.Line, rules::DeterminismTaint))
          break;
        Finding Fd;
        Fd.Rule = rules::DeterminismTaint;
        Fd.File = U.RelPath;
        Fd.Line = C.Line;
        Fd.Col = C.Col;
        Fd.LineHash = flaggedLineHash(U.Source, C.Line);
        if (IsUnordered)
          Fd.Message = "unordered container '" + std::string(T.Text) +
                       "' passed to export sink '" + C.Qualifier +
                       "::" + C.Callee +
                       "'; iteration order is hash-dependent and leaks into "
                       "the export -- copy to a vector and sort first";
        else
          Fd.Message = "value derived from wall-clock/randomness ('" +
                       std::string(T.Text) + "') flows into export sink '" +
                       C.Qualifier + "::" + C.Callee +
                       "'; exports must be bit-stable across runs -- derive "
                       "from the simulation clock instead";
        Out.push_back(std::move(Fd));
        break; // One finding per sink call site.
      }
    }
  }

  const std::vector<std::unique_ptr<FileUnit>> &Units;
  const LintConfig &Config;
  std::vector<FnRef> Refs;
  std::vector<FnTaint> States;
  std::set<std::string, std::less<>> TaintReturning;
};

} // namespace

std::vector<Finding> Program::analyzeTaint(const LintConfig &Config) const {
  TaintEngine Engine(Units, Config);
  return Engine.run();
}

//===----------------------------------------------------------------------===//
// Dumps
//===----------------------------------------------------------------------===//

std::string Program::dumpCfgs() const {
  std::string Out;
  for (const auto &U : Units)
    for (const FunctionCfg &Fn : U->Fns)
      Out += renderCfg(Fn, U->RelPath);
  return Out;
}

std::string Program::dumpCallGraph() const {
  std::string Out;
  for (const auto &U : Units)
    for (size_t I = 0; I < U->Fns.size(); ++I) {
      const FunctionCfg &Fn = U->Fns[I];
      const std::string &Scope = U->FnScopes[I];
      Out += "fn " + U->RelPath + ":" + std::to_string(Fn.Line) + " " +
             (Scope.empty() ? Fn.Name : Scope + "::" + Fn.Name) + "\n";
      for (const CfgCallSite &C : Fn.Calls) {
        Out += "  call ";
        if (!C.Receiver.empty())
          Out += C.Receiver + (C.Member ? "->" : ".");
        else if (C.Member)
          Out += ".";
        else if (!C.Qualifier.empty())
          Out += C.Qualifier + "::";
        Out += C.Callee + " @" + std::to_string(C.Line) + ":" +
               std::to_string(C.Col) + "\n";
      }
    }
  return Out;
}
