//===- tests/LintTest.cpp - parcs-lint analyzer tests ---------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "lint/Analysis.h"
#include "lint/Cfg.h"
#include "lint/CppScanner.h"
#include "lint/Facts.h"
#include "lint/Lint.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

using namespace parcs::lint;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

std::string readWholeFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Lints a fixture under tests/lint/.  \p RelPath doubles as the path used
/// for per-path rule policy, so fixtures live in a miniature repo layout
/// (src/..., src/serial/...).
std::vector<Finding> lintFixture(const std::string &RelPath,
                                 const LintConfig &Config = LintConfig()) {
  std::string Abs = std::string(PARCS_LINT_FIXTURE_DIR) + "/" + RelPath;
  std::vector<Finding> Findings;
  std::string Error;
  EXPECT_TRUE(lintFile(Abs, RelPath, Config, Findings, Error)) << Error;
  return Findings;
}

bool hasFinding(const std::vector<Finding> &Findings, const std::string &Rule,
                int Line) {
  for (const Finding &F : Findings)
    if (F.Rule == Rule && F.Line == Line)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Scanner
//===----------------------------------------------------------------------===//

TEST(CppScannerTest, TokensAndComments) {
  CppScanner Scanner("int x = 42; // trailing\n/* block */ x += 2;\n");
  std::vector<CppToken> Toks;
  std::vector<CppComment> Comments;
  Scanner.scanAll(Toks, Comments);

  ASSERT_GE(Toks.size(), 9u);
  EXPECT_TRUE(Toks[0].isIdent("int"));
  EXPECT_TRUE(Toks[1].isIdent("x"));
  EXPECT_TRUE(Toks[2].isPunct("="));
  EXPECT_EQ(Toks[3].Kind, TokKind::Number);
  EXPECT_EQ(Toks[3].Text, "42");
  EXPECT_TRUE(Toks[4].isPunct(";"));
  EXPECT_TRUE(Toks[6].isPunct("+="));

  ASSERT_EQ(Comments.size(), 2u);
  EXPECT_EQ(Comments[0].Text, "trailing");
  EXPECT_FALSE(Comments[0].Block);
  EXPECT_EQ(Comments[0].Line, 1);
  EXPECT_EQ(Comments[1].Text, "block");
  EXPECT_TRUE(Comments[1].Block);
  EXPECT_EQ(Comments[1].Line, 2);
}

TEST(CppScannerTest, RawStringsAndDirectives) {
  CppScanner Scanner("#include <map>\n"
                     "auto S = R\"(has // no comment)\";\n"
                     "#define WIDE \\\n  1\n"
                     "int y;\n");
  std::vector<CppToken> Toks;
  std::vector<CppComment> Comments;
  Scanner.scanAll(Toks, Comments);

  EXPECT_TRUE(Comments.empty()) << "raw string must not open a comment";
  ASSERT_GE(Toks.size(), 2u);
  EXPECT_EQ(Toks[0].Kind, TokKind::Directive);
  // The continued #define collapses to one directive token on line 3.
  bool SawDefine = false;
  for (const CppToken &T : Toks)
    if (T.Kind == TokKind::Directive && T.Line == 3)
      SawDefine = true;
  EXPECT_TRUE(SawDefine);
  // 'y' survives after the continued directive.
  bool SawY = false;
  for (const CppToken &T : Toks)
    if (T.isIdent("y"))
      SawY = true;
  EXPECT_TRUE(SawY);
}

TEST(CppScannerTest, NestedTemplateCloses) {
  CppScanner Scanner(
      "std::map<int, std::vector<std::pair<int, int>>> M;\nint after = 1;\n");
  std::vector<CppToken> Toks;
  std::vector<CppComment> Comments;
  Scanner.scanAll(Toks, Comments);

  // '>>' lexes as one punctuator; the declaration still terminates and the
  // next statement is visible.
  bool SawShiftShift = false, SawAfter = false;
  for (const CppToken &T : Toks) {
    if (T.isPunct(">>"))
      SawShiftShift = true;
    if (T.isIdent("after"))
      SawAfter = true;
  }
  EXPECT_TRUE(SawShiftShift);
  EXPECT_TRUE(SawAfter);
}

TEST(CppScannerTest, RawStringCustomDelimiter) {
  // The d-char sequence guards the close: an embedded `)"` must not end the
  // literal, and nothing inside may open a comment.
  CppScanner Scanner("auto S = R\"sep(quote )\" slash // and /* block)sep\";\n"
                     "int after = 2;\n");
  std::vector<CppToken> Toks;
  std::vector<CppComment> Comments;
  Scanner.scanAll(Toks, Comments);

  EXPECT_TRUE(Comments.empty());
  bool SawAfter = false;
  for (const CppToken &T : Toks)
    if (T.isIdent("after") && T.Line == 2)
      SawAfter = true;
  EXPECT_TRUE(SawAfter);
}

TEST(CppScannerTest, PreprocessorLineContinuations) {
  // The continued #if spans three physical lines; the identifier after it
  // must land on the correct line number.
  CppScanner Scanner("#if defined(A) || \\\n    defined(B) || \\\n"
                     "    defined(C)\n"
                     "int inside;\n"
                     "#endif\n");
  std::vector<CppToken> Toks;
  std::vector<CppComment> Comments;
  Scanner.scanAll(Toks, Comments);

  bool SawInside = false;
  for (const CppToken &T : Toks)
    if (T.isIdent("inside")) {
      SawInside = true;
      EXPECT_EQ(T.Line, 4);
    }
  EXPECT_TRUE(SawInside);
}

TEST(CppScannerTest, IfConstexprScansAsPlainTokens) {
  CppScanner Scanner("template <typename T> int f(T V) {\n"
                     "  if constexpr (sizeof(T) == 4) { return 1; }\n"
                     "  else { return 2; }\n"
                     "}\n");
  std::vector<CppToken> Toks;
  std::vector<CppComment> Comments;
  Scanner.scanAll(Toks, Comments);

  bool SawIf = false, SawConstexpr = false;
  for (size_t I = 0; I + 1 < Toks.size(); ++I)
    if (Toks[I].isIdent("if") && Toks[I + 1].isIdent("constexpr")) {
      SawIf = true;
      SawConstexpr = true;
    }
  EXPECT_TRUE(SawIf && SawConstexpr);

  // The construct must also survive CFG building (branch + join, no
  // suspension) without derailing the brace classifier.
  std::vector<FunctionCfg> Fns = buildFileCfgs(Toks, CfgConfig());
  for (const FunctionCfg &Fn : Fns)
    EXPECT_FALSE(Fn.HasSuspension);
}

TEST(CppScannerTest, MalformedInputDoesNotThrow) {
  CppScanner Scanner("\"unterminated\n/* unterminated block\nchar c = '");
  std::vector<CppToken> Toks;
  std::vector<CppComment> Comments;
  EXPECT_NO_THROW(Scanner.scanAll(Toks, Comments));
  ASSERT_FALSE(Toks.empty());
  EXPECT_EQ(Toks.back().Kind, TokKind::EndOfFile);
}

//===----------------------------------------------------------------------===//
// CFG construction
//===----------------------------------------------------------------------===//

std::vector<FunctionCfg> buildCfgs(std::string_view Source,
                                   const CfgConfig &Config = CfgConfig()) {
  CppScanner Scanner(Source);
  std::vector<CppToken> Toks;
  std::vector<CppComment> Comments;
  Scanner.scanAll(Toks, Comments);
  return buildFileCfgs(Toks, Config);
}

TEST(CfgTest, BranchAndLoopStructure) {
  std::vector<FunctionCfg> Fns = buildCfgs("int f(int N) {\n"
                                           "  int S = 0;\n"
                                           "  if (N > 0) { S = 1; }\n"
                                           "  else { S = 2; }\n"
                                           "  while (N > 0) { N = N - 1; }\n"
                                           "  return S;\n"
                                           "}\n");
  ASSERT_EQ(Fns.size(), 1u);
  const FunctionCfg &Fn = Fns[0];
  EXPECT_EQ(Fn.Name, "f");
  EXPECT_FALSE(Fn.HasSuspension);
  // Entry, exit, then/else arms and the loop need their own blocks.
  EXPECT_GE(Fn.Blocks.size(), 5u);
  // Some block must have two successors (a branch).
  bool SawBranch = false;
  for (const CfgBlock &B : Fn.Blocks)
    if (B.Succs.size() >= 2)
      SawBranch = true;
  EXPECT_TRUE(SawBranch);
}

TEST(CfgTest, SuspensionPointsAndRender) {
  std::vector<FunctionCfg> Fns =
      buildCfgs("int g() {\n"
                "  int X = co_await tick();\n"
                "  scheduleResume();\n"
                "  return X;\n"
                "}\n");
  ASSERT_EQ(Fns.size(), 1u);
  EXPECT_TRUE(Fns[0].HasSuspension);

  std::string Render = renderCfg(Fns[0], "src/g.cpp");
  EXPECT_NE(Render.find("[suspends]"), std::string::npos);
  EXPECT_NE(Render.find("suspend @"), std::string::npos);
  EXPECT_NE(Render.find("cfg src/g.cpp:1 g"), std::string::npos);
}

TEST(CfgTest, OutOfLineScopeAndCallSites) {
  std::vector<FunctionCfg> Fns =
      buildCfgs("int Widget::poke() {\n"
                "  helper();\n"
                "  Peer.nudge(1);\n"
                "  trace::counter(\"k\", 2);\n"
                "  return 0;\n"
                "}\n");
  ASSERT_EQ(Fns.size(), 1u);
  EXPECT_EQ(Fns[0].Scope, "Widget");
  EXPECT_EQ(Fns[0].qualifiedName(), "Widget::poke");

  bool SawFree = false, SawMember = false, SawQualified = false;
  for (const CfgCallSite &C : Fns[0].Calls) {
    if (C.Callee == "helper" && !C.Member && C.Qualifier.empty())
      SawFree = true;
    if (C.Callee == "nudge" && C.Member && C.Receiver == "Peer")
      SawMember = true;
    if (C.Callee == "counter" && C.Qualifier == "trace")
      SawQualified = true;
  }
  EXPECT_TRUE(SawFree);
  EXPECT_TRUE(SawMember);
  EXPECT_TRUE(SawQualified);
}

//===----------------------------------------------------------------------===//
// Fixture goldens: each fixture's rendered report is compared byte-for-byte
// against a committed expected file.
//===----------------------------------------------------------------------===//

void expectGolden(const std::string &FixtureRel, const std::string &Expected) {
  std::vector<Finding> Findings = lintFixture(FixtureRel);
  std::string Golden = readWholeFile(std::string(PARCS_LINT_FIXTURE_DIR) +
                                     "/expected/" + Expected);
  EXPECT_EQ(renderText(Findings), Golden) << "fixture " << FixtureRel;
}

TEST(LintGoldenTest, WallClock) {
  expectGolden("src/wall_clock.cpp", "wall_clock.txt");
}

TEST(LintGoldenTest, UnorderedIteration) {
  expectGolden("src/serial/unordered_iter.cpp", "unordered_iter.txt");
}

TEST(LintGoldenTest, HotPathAlloc) {
  expectGolden("src/hot_alloc.cpp", "hot_alloc.txt");
}

TEST(LintGoldenTest, SuspensionRef) {
  expectGolden("src/suspension_ref.cpp", "suspension_ref.txt");
}

TEST(LintGoldenTest, Nonreentrant) {
  expectGolden("src/nonreentrant.cpp", "nonreentrant.txt");
}

TEST(LintGoldenTest, SuspensionRefV2) {
  expectGolden("src/suspension_ref_v2.cpp", "suspension_ref_v2.txt");
}

//===----------------------------------------------------------------------===//
// Rule behaviour on fixtures (independent of exact message wording)
//===----------------------------------------------------------------------===//

TEST(LintRuleTest, WallClockFiresAndSuppresses) {
  std::vector<Finding> Findings = lintFixture("src/wall_clock.cpp");
  EXPECT_TRUE(hasFinding(Findings, rules::WallClock, 18)); // steady_clock
  EXPECT_TRUE(hasFinding(Findings, rules::WallClock, 23)); // std::time
  EXPECT_TRUE(hasFinding(Findings, rules::WallClock, 24)); // rand()
  EXPECT_FALSE(hasFinding(Findings, rules::WallClock, 10)) // suppressed decl
      << "declaration-line suppression must hold";
  EXPECT_FALSE(hasFinding(Findings, rules::WallClock, 26)); // member call
  EXPECT_FALSE(hasFinding(Findings, rules::WallClock, 27)); // mylib::time
  EXPECT_FALSE(hasFinding(Findings, rules::WallClock, 33)); // suppressed
}

TEST(LintRuleTest, WallClockAllowlistedFileIsExempt) {
  LintConfig Config;
  Config.WallClockAllowedFiles = {"src/wall_clock.cpp"};
  std::vector<Finding> Findings = lintFixture("src/wall_clock.cpp", Config);
  for (const Finding &F : Findings)
    EXPECT_NE(F.Rule, rules::WallClock) << "allowlisted file at line "
                                        << F.Line;
}

TEST(LintRuleTest, UnorderedIterationFiresOnlyUnderExportPrefixes) {
  std::vector<Finding> Findings =
      lintFixture("src/serial/unordered_iter.cpp");
  EXPECT_TRUE(hasFinding(Findings, rules::UnorderedIteration, 10)); // range-for
  EXPECT_TRUE(hasFinding(Findings, rules::UnorderedIteration, 17)); // begin()
  EXPECT_FALSE(hasFinding(Findings, rules::UnorderedIteration, 23)); // find()
  EXPECT_FALSE(hasFinding(Findings, rules::UnorderedIteration, 32)); // allowed
  EXPECT_FALSE(hasFinding(Findings, rules::UnorderedIteration, 34)); // std::map

  // The same source outside an export prefix is clean.
  std::string Source = readWholeFile(std::string(PARCS_LINT_FIXTURE_DIR) +
                                     "/src/serial/unordered_iter.cpp");
  std::vector<Finding> Elsewhere =
      lintSource("src/sim/unordered_iter.cpp", Source, LintConfig());
  for (const Finding &F : Elsewhere)
    EXPECT_NE(F.Rule, rules::UnorderedIteration);
}

TEST(LintRuleTest, HotPathAllocFiresOnlyInsideRegions) {
  std::vector<Finding> Findings = lintFixture("src/hot_alloc.cpp");
  EXPECT_FALSE(hasFinding(Findings, rules::HotPathAlloc, 7)); // cold
  EXPECT_TRUE(hasFinding(Findings, rules::HotPathAlloc, 14)); // new
  EXPECT_TRUE(hasFinding(Findings, rules::HotPathAlloc, 15)); // make_shared
  EXPECT_TRUE(hasFinding(Findings, rules::HotPathAlloc, 16)); // std::function
  EXPECT_TRUE(hasFinding(Findings, rules::HotPathAlloc, 17)); // string temp
  EXPECT_TRUE(hasFinding(Findings, rules::HotPathAlloc, 18)); // to_string
  EXPECT_FALSE(hasFinding(Findings, rules::HotPathAlloc, 27)); // suppressed
  EXPECT_TRUE(hasFinding(Findings, rules::HotPathRegion, 35)); // unclosed
}

TEST(LintRuleTest, SuspensionRefFiresAtUseSite) {
  std::vector<Finding> Findings = lintFixture("src/suspension_ref.cpp");
  EXPECT_TRUE(hasFinding(Findings, rules::SuspensionRef, 27)); // reference
  EXPECT_TRUE(hasFinding(Findings, rules::SuspensionRef, 33)); // string_view
  EXPECT_TRUE(hasFinding(Findings, rules::SuspensionRef, 39)); // iterator
  EXPECT_FALSE(hasFinding(Findings, rules::SuspensionRef, 44)) // use before
      << "use before the suspension point is safe";
  EXPECT_FALSE(hasFinding(Findings, rules::SuspensionRef, 52)) // decl after
      << "declaration after the suspension point is safe";
  EXPECT_FALSE(hasFinding(Findings, rules::SuspensionRef, 60)) // suppressed
      << "declaration-site suppression must cover the later use";
}

TEST(LintRuleTest, NonreentrantFiresOnlyUnderSrc) {
  std::vector<Finding> Findings = lintFixture("src/nonreentrant.cpp");
  EXPECT_FALSE(hasFinding(Findings, rules::NonreentrantCall, 10)) // decl
      << "declaration-line suppression must hold";
  EXPECT_TRUE(hasFinding(Findings, rules::NonreentrantCall, 14)); // strtok
  EXPECT_FALSE(hasFinding(Findings, rules::NonreentrantCall, 16)); // member
  EXPECT_TRUE(hasFinding(Findings, rules::NonreentrantCall, 21)); // gmtime
  EXPECT_TRUE(hasFinding(Findings, rules::NonreentrantCall, 22)); // localtime
  EXPECT_TRUE(hasFinding(Findings, rules::NonreentrantCall, 27)); // setenv
  EXPECT_FALSE(hasFinding(Findings, rules::NonreentrantCall, 32)); // allowed

  // The same source under bench/ is out of scope for the rule.
  std::string Source = readWholeFile(std::string(PARCS_LINT_FIXTURE_DIR) +
                                     "/src/nonreentrant.cpp");
  std::vector<Finding> Bench =
      lintSource("bench/nonreentrant.cpp", Source, LintConfig());
  for (const Finding &F : Bench)
    EXPECT_NE(F.Rule, rules::NonreentrantCall);
}

//===----------------------------------------------------------------------===//
// suspension-ref v2: flow-sensitive refinements (one per fixture function;
// the golden pins the exact report, these pin the intent)
//===----------------------------------------------------------------------===//

TEST(SuspensionRefV2Test, RefinementsOnFixture) {
  std::vector<Finding> Findings = lintFixture("src/suspension_ref_v2.cpp");
  // Only the two seeded bugs fire...
  EXPECT_TRUE(hasFinding(Findings, rules::SuspensionRef, 34)); // may-path use
  EXPECT_TRUE(hasFinding(Findings, rules::SuspensionRef, 52)); // root mutated
  // ...and every refinement holds as a true negative.
  for (const Finding &F : Findings)
    EXPECT_TRUE(F.Line == 34 || F.Line == 52)
        << "unexpected finding at line " << F.Line << ": " << F.Message;
}

TEST(SuspensionRefV2Test, StableTypesAreConfigurable) {
  std::string Source = "int f() {\n"
                       "  Simulator &Sim = simOf();\n"
                       "  int X = co_await tick();\n"
                       "  Sim.step();\n"
                       "  return X;\n"
                       "}\n";
  EXPECT_TRUE(lintSource("src/x.cpp", Source, LintConfig()).empty())
      << "Simulator is audited-stable by default";

  LintConfig NoStable;
  NoStable.SuspensionStableTypes.clear();
  std::vector<Finding> Findings = lintSource("src/x.cpp", Source, NoStable);
  EXPECT_TRUE(hasFinding(Findings, rules::SuspensionRef, 4))
      << "without the audit entry the reference is risky again";
}

//===----------------------------------------------------------------------===//
// parcgen facts
//===----------------------------------------------------------------------===//

TEST(FactsTest, ParseWellFormed) {
  FactsDb Db;
  std::string Error;
  ASSERT_TRUE(parseFacts(readWholeFile(std::string(PARCS_LINT_FIXTURE_DIR) +
                                       "/deadlock/facts.json"),
                         Db, Error))
      << Error;
  ASSERT_EQ(Db.Modules.size(), 1u);
  EXPECT_EQ(Db.Modules[0].Name, "fixtures.deadlock");
  ASSERT_EQ(Db.Modules[0].Classes.size(), 3u);

  const FactsClass *Ponger = Db.findClass("Ponger");
  ASSERT_NE(Ponger, nullptr);
  ASSERT_EQ(Ponger->Methods.size(), 2u);
  EXPECT_TRUE(Ponger->Methods[0].Sync);      // pong
  EXPECT_FALSE(Ponger->Methods[1].Sync);     // fire
  EXPECT_EQ(Db.classWithSyncMethod("pong"), Ponger);
  EXPECT_EQ(Db.classWithSyncMethod("fire"), nullptr);
}

TEST(FactsTest, MalformedInputsAreRejected) {
  FactsDb Db;
  std::string Error;
  EXPECT_FALSE(parseFacts("not json", Db, Error));
  EXPECT_FALSE(parseFacts("{\"classes\": []}", Db, Error))
      << "module name is required";
  EXPECT_FALSE(parseFacts("{\"module\": \"m\"}", Db, Error))
      << "classes array is required";
  EXPECT_FALSE(parseFacts(
      "{\"module\": \"m\", \"classes\": [{\"methods\": []}]}", Db, Error))
      << "class name is required";
}

//===----------------------------------------------------------------------===//
// Whole-program analyses (lint/Analysis.h)
//===----------------------------------------------------------------------===//

std::string fixturePath(const std::string &Rel) {
  return std::string(PARCS_LINT_FIXTURE_DIR) + "/" + Rel;
}

void addFixture(Program &P, const std::string &Rel,
                const LintConfig &Config = LintConfig()) {
  P.addFile(Rel, readWholeFile(fixturePath(Rel)), Config);
}

TEST(DeadlockTest, SeededCycleFixtureIsCaught) {
  Program P;
  addFixture(P, "deadlock/ping_cycle.cpp");
  FactsDb Facts;
  std::string Error;
  ASSERT_TRUE(
      parseFacts(readWholeFile(fixturePath("deadlock/facts.json")), Facts,
                 Error))
      << Error;
  std::vector<Finding> Findings = P.analyze(Facts, LintConfig());
  EXPECT_EQ(renderText(Findings),
            readWholeFile(fixturePath("expected/deadlock.txt")));
}

TEST(DeadlockTest, AsyncLegBreaksTheCycle) {
  Program P;
  addFixture(P, "deadlock/ping_cycle.cpp");
  // Same classes, but Ponger.pong is async: replies queue instead of
  // blocking, so the Pinger/Ponger cycle dissolves.  Loopback's self-cycle
  // remains.
  FactsDb Facts;
  std::string Error;
  ASSERT_TRUE(parseFacts(
      "{\"module\": \"m\", \"classes\": ["
      "{\"name\": \"Pinger\", \"methods\": ["
      "{\"name\": \"ping\", \"kind\": \"sync\", \"returns\": \"int\"}]},"
      "{\"name\": \"Ponger\", \"methods\": ["
      "{\"name\": \"pong\", \"kind\": \"async\", \"returns\": \"int\"}]},"
      "{\"name\": \"Loopback\", \"methods\": ["
      "{\"name\": \"depth\", \"kind\": \"sync\", \"returns\": \"int\"}]}"
      "]}",
      Facts, Error))
      << Error;
  std::vector<Finding> Findings = P.analyze(Facts, LintConfig());
  ASSERT_EQ(Findings.size(), 1u) << renderText(Findings);
  EXPECT_NE(Findings[0].Message.find("Loopback -> Loopback"),
            std::string::npos);
}

TEST(DeadlockTest, SkippedEntirelyWithoutFacts) {
  Program P;
  addFixture(P, "deadlock/ping_cycle.cpp");
  for (const Finding &F : P.analyze(FactsDb(), LintConfig()))
    EXPECT_NE(F.Rule, rules::SyncCallDeadlock);
}

TEST(TaintTest, FlowsMatchGolden) {
  Program P;
  addFixture(P, "src/taint_flow.cpp");
  std::vector<Finding> Findings = P.analyze(FactsDb(), LintConfig());
  EXPECT_EQ(renderText(Findings),
            readWholeFile(fixturePath("expected/taint_flow.txt")));
}

TEST(TaintTest, SinkQualifiersAreConfigurable) {
  Program P;
  addFixture(P, "src/taint_flow.cpp");
  LintConfig NoSinks;
  NoSinks.TaintSinkQualifiers.clear();
  EXPECT_TRUE(P.analyze(FactsDb(), NoSinks).empty())
      << "with no sink qualifiers nothing can be flagged";
}

TEST(ProgramTest, DumpsAreDeterministic) {
  auto Render = [] {
    Program P;
    addFixture(P, "deadlock/ping_cycle.cpp");
    addFixture(P, "src/taint_flow.cpp");
    return P.dumpCfgs() + P.dumpCallGraph();
  };
  std::string A = Render();
  EXPECT_EQ(A, Render());
  EXPECT_NE(A.find("cfg deadlock/ping_cycle.cpp"), std::string::npos);
  EXPECT_NE(A.find("fn src/taint_flow.cpp"), std::string::npos);
  EXPECT_NE(A.find("call trace::counter"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Suppression semantics
//===----------------------------------------------------------------------===//

TEST(LintSuppressionTest, SameLineAndNextCodeLine) {
  LintConfig Config;
  std::string Source = "int a = rand(); // parcs-lint: allow("
                       "determinism-wall-clock): same line.\n"
                       "// parcs-lint: allow(determinism-wall-clock): next\n"
                       "// line, with a justification that keeps going.\n"
                       "int b = rand();\n"
                       "int c = rand();\n";
  std::vector<Finding> Findings = lintSource("src/x.cpp", Source, Config);
  ASSERT_EQ(Findings.size(), 1u) << renderText(Findings);
  EXPECT_EQ(Findings[0].Line, 5) << "only the unsuppressed call survives";
}

TEST(LintSuppressionTest, MultiRuleSuppression) {
  std::string Source =
      "// parcs-lint: allow(determinism-wall-clock, nonreentrant-call): x.\n"
      "int a = rand() + (setenv(\"K\", \"V\", 1));\n";
  std::vector<Finding> Findings =
      lintSource("src/x.cpp", Source, LintConfig());
  EXPECT_TRUE(Findings.empty()) << renderText(Findings);
}

TEST(LintSuppressionTest, MalformedDirectiveIsItselfAFinding) {
  std::string Source = "// parcs-lint: allow(\n"
                       "int a = 1;\n";
  std::vector<Finding> Findings =
      lintSource("src/x.cpp", Source, LintConfig());
  ASSERT_EQ(Findings.size(), 1u);
  EXPECT_EQ(Findings[0].Rule, rules::HotPathRegion);
}

TEST(LintSuppressionTest, DisabledRuleReportsNothing) {
  LintConfig Config;
  Config.DisabledRules.insert(rules::WallClock);
  std::vector<Finding> Findings =
      lintSource("src/x.cpp", "int a = rand();\n", Config);
  EXPECT_TRUE(Findings.empty());
}

//===----------------------------------------------------------------------===//
// Baseline
//===----------------------------------------------------------------------===//

TEST(LintBaselineTest, RoundTrip) {
  std::vector<Finding> Findings =
      lintSource("src/x.cpp", "int a = rand();\nint b = rand();\n",
                 LintConfig());
  ASSERT_EQ(Findings.size(), 2u);

  std::string Text = Baseline::write(Findings);
  std::vector<std::string> Errors;
  Baseline B = Baseline::parse(Text, Errors);
  EXPECT_TRUE(Errors.empty());
  EXPECT_EQ(B.size(), 2u);
  EXPECT_TRUE(applyBaseline(Findings, B).empty())
      << "a freshly written baseline must absorb its own findings";
}

TEST(LintBaselineTest, HashedEntryTracksLineShift) {
  std::vector<Finding> Findings =
      lintSource("src/x.cpp", "int pad = 1;\nint a = rand();\n", LintConfig());
  ASSERT_EQ(Findings.size(), 1u);
  EXPECT_NE(Findings[0].LineHash, 0u);

  Baseline B;
  Finding Moved = Findings[0];
  Moved.Line += 7; // grandfathered code shifted; content (hash) unchanged
  B.add(Moved);
  EXPECT_TRUE(applyBaseline(Findings, B).empty())
      << "hash-keyed entries must survive pure line shifts";
}

TEST(LintBaselineTest, EditedLineForcesReaudit) {
  std::vector<Finding> Findings =
      lintSource("src/x.cpp", "int a = rand();\n", LintConfig());
  ASSERT_EQ(Findings.size(), 1u);

  Baseline B;
  Finding Edited = Findings[0];
  Edited.LineHash ^= 0x5a5a5a5au; // same line, different content
  B.add(Edited);
  EXPECT_EQ(applyBaseline(Findings, B).size(), 1u)
      << "an edited flagged line must stop matching its baseline entry";
}

TEST(LintBaselineTest, LegacyEntriesStayLineExact) {
  std::vector<Finding> Findings =
      lintSource("src/x.cpp", "int a = rand();\n", LintConfig());
  ASSERT_EQ(Findings.size(), 1u);

  std::vector<std::string> Errors;
  Baseline Exact =
      Baseline::parse("determinism-wall-clock|src/x.cpp|1\n", Errors);
  EXPECT_TRUE(Errors.empty());
  EXPECT_TRUE(applyBaseline(Findings, Exact).empty());

  Baseline Shifted =
      Baseline::parse("determinism-wall-clock|src/x.cpp|2\n", Errors);
  EXPECT_EQ(applyBaseline(Findings, Shifted).size(), 1u)
      << "3-field entries have no hash to follow the code with";
}

TEST(LintBaselineTest, ConsumptionIsOneEntryPerFinding) {
  std::vector<Finding> Findings = lintSource(
      "src/x.cpp", "int a = rand();\nint b = rand();\n", LintConfig());
  ASSERT_EQ(Findings.size(), 2u);

  // One entry cannot absorb two findings, even when hashes collide
  // (`int a = rand();` vs `int b = rand();` differ, so use line 1's entry).
  Baseline B;
  B.add(Findings[0]);
  EXPECT_EQ(applyBaseline(Findings, B).size(), 1u);
}

TEST(LintBaselineTest, WriteEmitsHashesAndJustifyStubs) {
  std::vector<Finding> Findings =
      lintSource("src/x.cpp", "int a = rand();\n", LintConfig());
  ASSERT_EQ(Findings.size(), 1u);
  std::string Text = Baseline::write(Findings);
  EXPECT_NE(Text.find("# JUSTIFY:"), std::string::npos);
  EXPECT_NE(Text.find("determinism-wall-clock|src/x.cpp|1|"),
            std::string::npos);

  std::vector<std::string> Errors;
  Baseline B = Baseline::parse(Text, Errors);
  EXPECT_TRUE(Errors.empty());
  ASSERT_EQ(B.size(), 1u);
  EXPECT_TRUE(B.entries()[0].HasHash);
  EXPECT_EQ(B.entries()[0].Hash, Findings[0].LineHash);
}

TEST(LintBaselineTest, UpdatePreservesJustificationComments) {
  Finding Kept;
  Kept.Rule = "suspension-ref";
  Kept.File = "src/x.cpp";
  Kept.Line = 14; // was 10: the code shifted
  Kept.Col = 3;
  Kept.Message = "kept finding";
  Kept.LineHash = 0xdeadbeefu;

  Finding Fresh;
  Fresh.Rule = "suspension-ref";
  Fresh.File = "src/y.cpp";
  Fresh.Line = 2;
  Fresh.Col = 1;
  Fresh.Message = "brand new finding";
  Fresh.LineHash = 0x12345678u;

  std::string Old = "# parcs-lint baseline: header to keep.\n"
                    "\n"
                    "# Table outlives the coroutine; audited 2026-08.\n"
                    "suspension-ref|src/x.cpp|10|deadbeef\n"
                    "\n"
                    "# This entry's finding is gone and must be dropped.\n"
                    "suspension-ref|src/z.cpp|99|0badf00d\n";
  std::string New = Baseline::update(Old, {Kept, Fresh});

  EXPECT_NE(New.find("# parcs-lint baseline: header to keep.\n"),
            std::string::npos);
  EXPECT_NE(New.find("# Table outlives the coroutine; audited 2026-08.\n"
                     "suspension-ref|src/x.cpp|14|deadbeef\n"),
            std::string::npos)
      << "matched entry keeps its comment, line refreshed:\n"
      << New;
  EXPECT_EQ(New.find("src/z.cpp"), std::string::npos)
      << "stale entries are dropped";
  EXPECT_NE(New.find("# JUSTIFY: brand new finding\n"
                     "suspension-ref|src/y.cpp|2|12345678\n"),
            std::string::npos)
      << "new findings arrive with a JUSTIFY stub:\n"
      << New;

  // The rewrite must parse back cleanly and absorb both findings.
  std::vector<std::string> Errors;
  Baseline B = Baseline::parse(New, Errors);
  EXPECT_TRUE(Errors.empty());
  EXPECT_EQ(B.size(), 2u);
  EXPECT_TRUE(applyBaseline({Kept, Fresh}, B).empty());
}

TEST(LintBaselineTest, MalformedLinesAreReported) {
  std::vector<std::string> Errors;
  Baseline B = Baseline::parse("# a comment\n"
                               "determinism-wall-clock|src/a.cpp|12\n"
                               "not-an-entry\n"
                               "rule|file|not-a-number\n",
                               Errors);
  EXPECT_EQ(B.size(), 1u);
  EXPECT_EQ(Errors.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Reporters
//===----------------------------------------------------------------------===//

TEST(LintReportTest, TextFormat) {
  std::vector<Finding> Findings =
      lintSource("src/x.cpp", "int a = rand();\n", LintConfig());
  ASSERT_EQ(Findings.size(), 1u);
  std::string Text = renderText(Findings);
  EXPECT_NE(Text.find("src/x.cpp:1:"), std::string::npos);
  EXPECT_NE(Text.find("[determinism-wall-clock]"), std::string::npos);
  EXPECT_NE(Text.find("parcs-lint: 1 finding\n"), std::string::npos);
  EXPECT_EQ(renderText({}), "parcs-lint: no findings\n");
}

TEST(LintReportTest, JsonIsByteIdenticalAcrossRuns) {
  std::string Source = readWholeFile(std::string(PARCS_LINT_FIXTURE_DIR) +
                                     "/src/hot_alloc.cpp");
  std::string A =
      renderJson(lintSource("src/hot_alloc.cpp", Source, LintConfig()));
  std::string B =
      renderJson(lintSource("src/hot_alloc.cpp", Source, LintConfig()));
  EXPECT_EQ(A, B);
  EXPECT_NE(A.find("\"count\":"), std::string::npos);
  EXPECT_NE(A.find("\"rule\":"), std::string::npos);
}

TEST(LintReportTest, JsonEscapesControlCharacters) {
  std::vector<Finding> Findings;
  Findings.push_back(
      {rules::WallClock, "src/\"odd\".cpp", 1, 1, "tab\there\nline"});
  std::string Json = renderJson(Findings);
  EXPECT_NE(Json.find("\\\"odd\\\""), std::string::npos);
  EXPECT_NE(Json.find("\\t"), std::string::npos);
  EXPECT_NE(Json.find("\\n"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Findings ordering
//===----------------------------------------------------------------------===//

TEST(LintOrderTest, FindingsAreSorted) {
  std::vector<Finding> Findings = lintFixture("src/hot_alloc.cpp");
  for (size_t I = 1; I < Findings.size(); ++I)
    EXPECT_FALSE(Findings[I] < Findings[I - 1])
        << "findings must come back sorted";
}

} // namespace
