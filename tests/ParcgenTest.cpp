//===- tests/ParcgenTest.cpp - preprocessor compiler tests ----------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parcgen/CodeGen.h"
#include "parcgen/AstPrinter.h"
#include "parcgen/Driver.h"
#include "parcgen/Lexer.h"
#include "parcgen/Parser.h"
#include "parcgen/Sema.h"

#include <gtest/gtest.h>

using namespace parcs;
using namespace parcs::pcc;

namespace {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

std::vector<TokenKind> kindsOf(std::string_view Source) {
  DiagnosticEngine Diags;
  Lexer Lex(Source, Diags);
  std::vector<TokenKind> Kinds;
  for (const Token &Tok : Lex.lexAll())
    Kinds.push_back(Tok.Kind);
  return Kinds;
}

TEST(PccLexerTest, KeywordsAndPunctuation) {
  auto Kinds = kindsOf("parallel class Foo : Bar { async void f(int[] x); }");
  std::vector<TokenKind> Expected = {
      TokenKind::KwParallel, TokenKind::KwClass,    TokenKind::Identifier,
      TokenKind::Colon,      TokenKind::Identifier, TokenKind::LBrace,
      TokenKind::KwAsync,    TokenKind::KwVoid,     TokenKind::Identifier,
      TokenKind::LParen,     TokenKind::KwInt,      TokenKind::LBracket,
      TokenKind::RBracket,   TokenKind::Identifier, TokenKind::RParen,
      TokenKind::Semicolon,  TokenKind::RBrace,     TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(PccLexerTest, ByteIsAKeyword) {
  EXPECT_EQ(kindsOf("byte[] bytes"),
            (std::vector<TokenKind>{TokenKind::KwByte, TokenKind::LBracket,
                                    TokenKind::RBracket, TokenKind::Identifier,
                                    TokenKind::EndOfFile}));
}

TEST(PccLexerTest, CommentsAreSkipped) {
  auto Kinds = kindsOf("// line\nint /* block\nspanning */ x");
  EXPECT_EQ(Kinds, (std::vector<TokenKind>{TokenKind::KwInt,
                                           TokenKind::Identifier,
                                           TokenKind::EndOfFile}));
}

TEST(PccLexerTest, TracksLocations) {
  DiagnosticEngine Diags;
  Lexer Lex("int\n  foo", Diags);
  Token A = Lex.next();
  Token B = Lex.next();
  EXPECT_EQ(A.Loc.Line, 1);
  EXPECT_EQ(A.Loc.Column, 1);
  EXPECT_EQ(B.Loc.Line, 2);
  EXPECT_EQ(B.Loc.Column, 3);
}

TEST(PccLexerTest, StrayCharacterDiagnosed) {
  DiagnosticEngine Diags;
  Lexer Lex("int $ x", Diags);
  (void)Lex.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccLexerTest, UnterminatedBlockCommentDiagnosed) {
  DiagnosticEngine Diags;
  Lexer Lex("/* never closed", Diags);
  (void)Lex.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccLexerTest, IdentifiersWithUnderscores) {
  DiagnosticEngine Diags;
  Lexer Lex("_private my_name2", Diags);
  Token A = Lex.next();
  Token B = Lex.next();
  EXPECT_EQ(A.Text, "_private");
  EXPECT_EQ(B.Text, "my_name2");
  EXPECT_FALSE(Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

ModuleDecl parseOk(std::string_view Source) {
  DiagnosticEngine Diags;
  Parser P(Source, Diags);
  ModuleDecl Module = P.parseModule();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.render("<test>");
  return Module;
}

size_t parseErrorCount(std::string_view Source) {
  DiagnosticEngine Diags;
  Parser P(Source, Diags);
  (void)P.parseModule();
  return Diags.errorCount();
}

TEST(PccParserTest, ParsesPaperExample) {
  ModuleDecl M = parseOk("module examples.prime;\n"
                         "extern class PrimeFilter;\n"
                         "parallel class PrimeServer : PrimeFilter {\n"
                         "  async void process(int[] num);\n"
                         "  sync int count();\n"
                         "};\n");
  EXPECT_EQ(M.Name, "examples.prime");
  ASSERT_EQ(M.Classes.size(), 2u);
  EXPECT_TRUE(M.Classes[0].IsExtern);
  const ClassDecl &Server = M.Classes[1];
  EXPECT_EQ(Server.Name, "PrimeServer");
  EXPECT_EQ(Server.Base, "PrimeFilter");
  ASSERT_EQ(Server.Methods.size(), 2u);
  EXPECT_EQ(Server.Methods[0].Kind, MethodKind::Async);
  EXPECT_TRUE(Server.Methods[0].Params[0].Type.IsArray);
  EXPECT_EQ(Server.Methods[1].Kind, MethodKind::Sync);
}

TEST(PccParserTest, DefaultKindFollowsScooppRule) {
  ModuleDecl M = parseOk("parallel class A {\n"
                         "  void fire(int x);\n"
                         "  int ask();\n"
                         "}\n");
  EXPECT_EQ(M.Classes[0].Methods[0].Kind, MethodKind::Async);
  EXPECT_FALSE(M.Classes[0].Methods[0].ExplicitKind);
  EXPECT_EQ(M.Classes[0].Methods[1].Kind, MethodKind::Sync);
}

TEST(PccParserTest, ParsesRefTypes) {
  ModuleDecl M = parseOk("parallel class A { sync ref<A> self(); "
                         "async void link(ref<A>[] peers); }");
  const MethodDecl &Self = M.Classes[0].Methods[0];
  EXPECT_EQ(Self.ReturnType.Kind, TypeKind::Ref);
  EXPECT_EQ(Self.ReturnType.RefClass, "A");
  const MethodDecl &Link = M.Classes[0].Methods[1];
  EXPECT_TRUE(Link.Params[0].Type.IsArray);
  EXPECT_EQ(Link.Params[0].Type.Kind, TypeKind::Ref);
}

TEST(PccParserTest, TypeRendering) {
  ModuleDecl M = parseOk("parallel class A { async void f(int[] a, "
                         "ref<A> b, string c); }");
  const auto &Params = M.Classes[0].Methods[0].Params;
  EXPECT_EQ(Params[0].Type.str(), "int[]");
  EXPECT_EQ(Params[0].Type.cppType(), "std::vector<int32_t>");
  EXPECT_EQ(Params[1].Type.str(), "ref<A>");
  EXPECT_EQ(Params[1].Type.cppType(), "parcs::scoopp::ParallelRef");
  EXPECT_EQ(Params[2].Type.cppType(), "std::string");
}

TEST(PccParserTest, ByteTypeRendering) {
  ModuleDecl M = parseOk("parallel class A { sync byte[] f(byte b); }");
  const MethodDecl &F = M.Classes[0].Methods[0];
  EXPECT_EQ(F.ReturnType.Kind, TypeKind::Byte);
  EXPECT_EQ(F.ReturnType.str(), "byte[]");
  EXPECT_EQ(F.ReturnType.cppType(), "std::vector<uint8_t>");
  EXPECT_EQ(F.Params[0].Type.str(), "byte");
  EXPECT_EQ(F.Params[0].Type.cppType(), "uint8_t");
}

TEST(PccParserTest, ParsesByRefParamModifier) {
  ModuleDecl M =
      parseOk("parallel class A { sync int fill(ref int x, int y); }");
  const auto &Params = M.Classes[0].Methods[0].Params;
  ASSERT_EQ(Params.size(), 2u);
  EXPECT_TRUE(Params[0].ByRef);
  EXPECT_EQ(Params[0].Type.Kind, TypeKind::Int);
  EXPECT_FALSE(Params[1].ByRef);
}

TEST(PccParserTest, ByRefModifierDisambiguatesFromRefType) {
  // 'ref<A> w' is a type, 'ref ref<A> v' is the modifier plus a type; one
  // token of lookahead past 'ref' decides.
  ModuleDecl M = parseOk("parallel class A { sync int f(ref<A> w); "
                         "sync int g(ref ref<A> v); }");
  const auto &W = M.Classes[0].Methods[0].Params[0];
  EXPECT_FALSE(W.ByRef);
  EXPECT_EQ(W.Type.Kind, TypeKind::Ref);
  const auto &V = M.Classes[0].Methods[1].Params[0];
  EXPECT_TRUE(V.ByRef);
  EXPECT_EQ(V.Type.Kind, TypeKind::Ref);
  EXPECT_EQ(V.Type.RefClass, "A");
}

TEST(PccParserTest, MissingSemicolonDiagnosed) {
  EXPECT_GE(parseErrorCount("parallel class A { int ask() }"), 1u);
}

TEST(PccParserTest, NestedArraysRejected) {
  EXPECT_GE(parseErrorCount("parallel class A { async void f(int[][] x); }"),
            1u);
}

TEST(PccParserTest, RecoversAndReportsMultipleErrors) {
  // Two broken methods -> at least two distinct diagnostics.
  EXPECT_GE(parseErrorCount("parallel class A {\n"
                            "  int ask(;\n"
                            "  void go(int);\n"
                            "}\n"),
            2u);
}

TEST(PccParserTest, TopLevelGarbageDiagnosed) {
  EXPECT_GE(parseErrorCount("class A {}"), 1u);
}

//===----------------------------------------------------------------------===//
// Sema
//===----------------------------------------------------------------------===//

DiagnosticEngine analyze(std::string_view Source) {
  DiagnosticEngine Diags;
  Parser P(Source, Diags);
  ModuleDecl Module = P.parseModule();
  EXPECT_FALSE(Diags.hasErrors()) << "test source must parse";
  analyzeModule(Module, Diags);
  return Diags;
}

TEST(PccSemaTest, AcceptsCleanModule) {
  DiagnosticEngine Diags =
      analyze("extern class Base;\n"
              "parallel class A : Base { async void f(int x); }\n"
              "parallel class B { sync ref<A> peer(); }\n");
  EXPECT_FALSE(Diags.hasErrors()) << Diags.render("<test>");
}

TEST(PccSemaTest, ByteIsValidWhereverIntIs) {
  DiagnosticEngine Diags =
      analyze("passive class P { byte b; byte[] bs; }\n"
              "parallel class A {\n"
              "  async void put(byte b, byte[] bs, P p);\n"
              "  sync byte[] get();\n"
              "  sync byte one();\n"
              "}\n");
  EXPECT_FALSE(Diags.hasErrors()) << Diags.render("<test>");
  EXPECT_TRUE(Diags.all().empty()) << Diags.render("<test>");
}

TEST(PccSemaTest, AsyncWithValueRejected) {
  DiagnosticEngine Diags =
      analyze("parallel class A { async int bad(); }");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccSemaTest, SyncVoidWarns) {
  DiagnosticEngine Diags = analyze("parallel class A { sync void ping(); }");
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_EQ(Diags.all().size(), 1u);
  EXPECT_EQ(Diags.all()[0].Severity, DiagSeverity::Warning);
}

TEST(PccSemaTest, DuplicateClassRejected) {
  DiagnosticEngine Diags =
      analyze("parallel class A { void f(); } parallel class A { void g(); }");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccSemaTest, DuplicateMethodRejected) {
  DiagnosticEngine Diags =
      analyze("parallel class A { void f(); sync int f(); }");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccSemaTest, DuplicateParamRejected) {
  DiagnosticEngine Diags =
      analyze("parallel class A { void f(int x, double x); }");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccSemaTest, UnknownBaseRejected) {
  DiagnosticEngine Diags = analyze("parallel class A : Missing { void f(); }");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccSemaTest, SelfBaseRejected) {
  DiagnosticEngine Diags = analyze("parallel class A : A { void f(); }");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccSemaTest, RefToUndeclaredRejected) {
  DiagnosticEngine Diags =
      analyze("parallel class A { sync ref<Nope> f(); }");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccSemaTest, RefToExternRejected) {
  DiagnosticEngine Diags = analyze(
      "extern class E; parallel class A { sync ref<E> f(); }");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccSemaTest, RefForwardReferenceAllowed) {
  // B is declared after A but ref<B> inside A must resolve (two-pass).
  DiagnosticEngine Diags =
      analyze("parallel class A { sync ref<B> peer(); }\n"
              "parallel class B { void f(); }\n");
  EXPECT_FALSE(Diags.hasErrors()) << Diags.render("<test>");
}

TEST(PccSemaTest, VoidParamRejected) {
  DiagnosticEngine Diags = analyze("parallel class A { void f(void x); }");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccSemaTest, EmptyClassWarns) {
  DiagnosticEngine Diags = analyze("parallel class A { }");
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_GE(Diags.all().size(), 1u);
}

TEST(PccSemaTest, ByRefOnAsyncRejected) {
  DiagnosticEngine Diags =
      analyze("parallel class A { async void push(ref int x); }");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccSemaTest, ByRefOnSyncWarns) {
  DiagnosticEngine Diags =
      analyze("parallel class A { sync int fill(ref int x); }");
  EXPECT_FALSE(Diags.hasErrors()) << Diags.render("<test>");
  ASSERT_EQ(Diags.all().size(), 1u);
  EXPECT_EQ(Diags.all()[0].Severity, DiagSeverity::Warning);
}

TEST(PccSemaTest, UnusedPassiveClassWarns) {
  DiagnosticEngine Diags =
      analyze("passive class Orphan { int x; }\n"
              "parallel class W { async void f(int x); }\n");
  EXPECT_FALSE(Diags.hasErrors());
  ASSERT_EQ(Diags.all().size(), 1u);
  EXPECT_EQ(Diags.all()[0].Severity, DiagSeverity::Warning);
  EXPECT_NE(Diags.all()[0].Message.find("Orphan"), std::string::npos);
}

TEST(PccSemaTest, UsedPassiveClassIsQuiet) {
  DiagnosticEngine Diags =
      analyze("passive class P { int x; }\n"
              "parallel class W { async void f(P p); }\n");
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.all().empty()) << Diags.render("<test>");
}

//===----------------------------------------------------------------------===//
// CodeGen + full pipeline
//===----------------------------------------------------------------------===//

TEST(PccCodeGenTest, EmitsExpectedDeclarations) {
  CompileResult Result = compilePci("module m;\n"
                                    "parallel class Worker {\n"
                                    "  async void run(int[] data);\n"
                                    "  sync double score();\n"
                                    "}\n");
  ASSERT_TRUE(Result.Success) << Result.Diags.render("<test>");
  const std::string &Code = Result.Code;
  EXPECT_NE(Code.find("class WorkerSkeleton"), std::string::npos);
  EXPECT_NE(Code.find("class WorkerProxy"), std::string::npos);
  EXPECT_NE(Code.find("registerWorkerClass"), std::string::npos);
  EXPECT_NE(Code.find("invokeAsync(\"run\""), std::string::npos);
  EXPECT_NE(Code.find("invokeSyncTyped<double>(\"score\""),
            std::string::npos);
  EXPECT_NE(Code.find("virtual parcs::sim::Task<parcs::ErrorOr<double>> "
                      "score()"),
            std::string::npos);
  EXPECT_NE(Code.find("virtual parcs::sim::Task<parcs::ErrorOr<parcs::Unit>> "
                      "run(std::vector<int32_t> data)"),
            std::string::npos);
  // The proxy takes its arguments by value and moves them into the direct
  // call.
  EXPECT_NE(Code.find("parcs::sim::Task<void> run(std::vector<int32_t> "
                      "data)"),
            std::string::npos);
  EXPECT_NE(Code.find("data = std::move(data)"), std::string::npos);
  // The skeleton takes no runtime.
  EXPECT_EQ(Code.find("ScooppRuntime &Runtime;"), std::string::npos);
  EXPECT_NE(Code.find("namespace m {"), std::string::npos);
  EXPECT_NE(Code.find("#ifndef PARCSGEN_M_H"), std::string::npos);
}

TEST(PccCodeGenTest, ExternClassesEmitNothing) {
  CompileResult Result =
      compilePci("extern class Ext;\n"
                 "parallel class A : Ext { void f(); }\n");
  ASSERT_TRUE(Result.Success);
  EXPECT_EQ(Result.Code.find("ExtSkeleton"), std::string::npos);
  EXPECT_NE(Result.Code.find("ASkeleton"), std::string::npos);
}

TEST(PccCodeGenTest, DefaultModuleNamespace) {
  CompileResult Result = compilePci("parallel class A { void f(); }");
  ASSERT_TRUE(Result.Success);
  EXPECT_NE(Result.Code.find("namespace parcsgen {"), std::string::npos);
}

TEST(PccCodeGenTest, FailedCompileEmitsNoCode) {
  CompileResult Result = compilePci("parallel class A { async int bad(); }");
  EXPECT_FALSE(Result.Success);
  EXPECT_TRUE(Result.Code.empty());
  EXPECT_TRUE(Result.Diags.hasErrors());
}

TEST(PccCodeGenTest, GenerationIsDeterministic) {
  const char *Source = "module x.y;\nparallel class A { sync int f(int a); }";
  EXPECT_EQ(compilePci(Source).Code, compilePci(Source).Code);
}

TEST(PccDriverTest, DiagnosticRendering) {
  CompileResult Result = compilePci("parallel class A { async int bad(); }");
  std::string Rendered = Result.Diags.render("file.pci");
  EXPECT_NE(Rendered.find("file.pci:1:20: error:"), std::string::npos);
}



//===----------------------------------------------------------------------===//
// Passive classes (language level)
//===----------------------------------------------------------------------===//

TEST(PccPassiveTest, ParsesFieldsAndLinks) {
  ModuleDecl M = parseOk("passive class P { double x; P next; int[] ids; }\n"
                         "parallel class W { void f(P p); }\n");
  ASSERT_EQ(M.Classes.size(), 2u);
  const ClassDecl &P = M.Classes[0];
  EXPECT_TRUE(P.IsPassive);
  ASSERT_EQ(P.Fields.size(), 3u);
  EXPECT_EQ(P.Fields[1].Type.Kind, TypeKind::Passive);
  EXPECT_EQ(P.Fields[1].Type.RefClass, "P");
  EXPECT_TRUE(M.Classes[1].Methods[0].Params[0].Type.isPassive());
}

TEST(PccPassiveTest, SemaAcceptsMutualRecursion) {
  DiagnosticEngine Diags = analyze("passive class A { B other; }\n"
                                   "passive class B { A other; }\n");
  EXPECT_FALSE(Diags.hasErrors()) << Diags.render("<test>");
}

TEST(PccPassiveTest, SemaRejectsPassiveReturn) {
  DiagnosticEngine Diags = analyze(
      "passive class P { int x; } parallel class W { sync P get(); }");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccPassiveTest, SemaRejectsPassiveArrayParam) {
  DiagnosticEngine Diags = analyze(
      "passive class P { int x; } parallel class W { void f(P[] ps); }");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccPassiveTest, SemaRejectsUnknownFieldType) {
  DiagnosticEngine Diags = analyze("passive class P { Mystery m; }");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccPassiveTest, SemaRejectsParallelLinkField) {
  DiagnosticEngine Diags = analyze(
      "parallel class W { void f(); } passive class P { W link; }");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccPassiveTest, SemaRejectsRefToPassive) {
  DiagnosticEngine Diags = analyze(
      "passive class P { int x; } parallel class W { sync ref<P> g(); }");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccPassiveTest, SemaRejectsDuplicateField) {
  DiagnosticEngine Diags = analyze("passive class P { int x; double x; }");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccPassiveTest, SemaWarnsEmptyPassiveClass) {
  DiagnosticEngine Diags = analyze("passive class P { }");
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_GE(Diags.all().size(), 1u);
}

TEST(PccPassiveTest, SemaRejectsPassiveBase) {
  DiagnosticEngine Diags = analyze(
      "passive class P { int x; } parallel class W : P { void f(); }");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(PccPassiveTest, CodegenEmitsSerializableClass) {
  CompileResult Result = compilePci(
      "module m;\npassive class Node { int v; Node next; Node[] kids; }\n"
      "parallel class W { void take(Node n); }\n");
  ASSERT_TRUE(Result.Success) << Result.Diags.render("<test>");
  const std::string &Code = Result.Code;
  EXPECT_NE(Code.find("class Node : public "
                      "parcs::serial::SerializableObject"),
            std::string::npos);
  EXPECT_NE(Code.find("\"m.Node\""), std::string::npos);
  EXPECT_NE(Code.find("registerNodePassive"), std::string::npos);
  EXPECT_NE(Code.find("Writer.writeRef(next)"), std::string::npos);
  EXPECT_NE(Code.find("std::vector<Node *> kids"), std::string::npos);
  // Proxy takes a pointer and ships an encoded graph.
  EXPECT_NE(Code.find("take(const Node *n)"), std::string::npos);
  EXPECT_NE(Code.find("encodePassiveGraph(n)"), std::string::npos);
  // Skeleton decodes into a call-scoped pool.
  EXPECT_NE(Code.find("decodePassiveGraph(n_graph, Pool_)"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// AST printer
//===----------------------------------------------------------------------===//

TEST(PccAstPrinterTest, GoldenDump) {
  CompileResult Result = compilePci("module examples.prime;\n"
                                    "extern class PrimeFilter;\n"
                                    "parallel class PrimeServer : "
                                    "PrimeFilter {\n"
                                    "  async void process(int[] num);\n"
                                    "  int count();\n"
                                    "};\n");
  ASSERT_TRUE(Result.Success);
  std::string Dump = dumpAst(Result.Module);
  EXPECT_EQ(Dump,
            "ModuleDecl 'examples.prime'\n"
            "  ExternClassDecl 'PrimeFilter' <2:1>\n"
            "  ClassDecl 'PrimeServer' : 'PrimeFilter' <3:1>\n"
            "    MethodDecl async 'process' 'void (int[])' <4:3>\n"
            "      ParamDecl 'num' 'int[]'\n"
            "    MethodDecl sync (implicit) 'count' 'int ()' <5:3>\n");
}

TEST(PccAstPrinterTest, DefaultModuleNameShown) {
  CompileResult Result = compilePci("parallel class A { void f(); }");
  ASSERT_TRUE(Result.Success);
  EXPECT_NE(dumpAst(Result.Module).find("ModuleDecl '<default>'"),
            std::string::npos);
}

} // namespace
