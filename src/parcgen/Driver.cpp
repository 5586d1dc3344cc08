//===- parcgen/Driver.cpp -------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parcgen/Driver.h"

#include "parcgen/AstPrinter.h"
#include "parcgen/CodeGen.h"
#include "parcgen/Parser.h"
#include "parcgen/Sema.h"
#include "support/File.h"
#include "support/Json.h"

#include <cstdio>

using namespace parcs;
using namespace parcs::pcc;

std::string Diagnostic::str(const std::string &FileName) const {
  std::string Out = FileName + ":" + Loc.str() + ": ";
  Out += Severity == DiagSeverity::Error ? "error: " : "warning: ";
  Out += Message;
  return Out;
}

std::string DiagnosticEngine::render(const std::string &FileName) const {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    Out += D.str(FileName);
    Out += '\n';
  }
  return Out;
}

std::string parcs::pcc::renderFactsJson(const ModuleDecl &Module) {
  std::string Out;
  Out += "{\n";
  Out += "  \"module\": ";
  json::appendString(Out, Module.Name);
  Out += ",\n";
  Out += "  \"classes\": [";
  for (size_t CI = 0; CI < Module.Classes.size(); ++CI) {
    const ClassDecl &C = Module.Classes[CI];
    Out += CI == 0 ? "\n" : ",\n";
    Out += "    {\n";
    Out += "      \"name\": ";
    json::appendString(Out, C.Name);
    Out += ",\n";
    Out += std::string("      \"extern\": ") + (C.IsExtern ? "true" : "false") +
           ",\n";
    Out += std::string("      \"passive\": ") +
           (C.IsPassive ? "true" : "false") + ",\n";
    Out += "      \"methods\": [";
    for (size_t MI = 0; MI < C.Methods.size(); ++MI) {
      const MethodDecl &M = C.Methods[MI];
      Out += MI == 0 ? "\n" : ",\n";
      Out += "        {\"name\": ";
      json::appendString(Out, M.Name);
      Out += M.Kind == MethodKind::Sync ? ", \"kind\": \"sync\""
                                        : ", \"kind\": \"async\"";
      Out += ", \"returns\": ";
      json::appendString(Out, M.ReturnType.str());
      Out += '}';
    }
    Out += C.Methods.empty() ? "]\n" : "\n      ]\n";
    Out += "    }";
  }
  Out += Module.Classes.empty() ? "]\n" : "\n  ]\n";
  Out += "}\n";
  return Out;
}

CompileResult parcs::pcc::compilePci(std::string_view Source) {
  CompileResult Result;
  Parser TheParser(Source, Result.Diags);
  Result.Module = TheParser.parseModule();
  if (Result.Diags.hasErrors())
    return Result;
  if (!analyzeModule(Result.Module, Result.Diags))
    return Result;
  Result.Code = generateCpp(Result.Module);
  Result.Success = true;
  return Result;
}

int parcs::pcc::runParcgenTool(const std::string &InputPath,
                               const std::string &OutputPath,
                               ToolMode Mode) {
  ErrorOr<std::string> Source = readFile(InputPath);
  if (!Source) {
    std::fprintf(stderr, "parcgen: %s\n", Source.error().message().c_str());
    return 1;
  }

  CompileResult Result = compilePci(*Source);
  std::string Rendered = Result.Diags.render(InputPath);
  if (!Rendered.empty())
    std::fputs(Rendered.c_str(), stderr);
  if (Mode == ToolMode::DumpAst) {
    // The AST is printable even when sema failed, as long as parsing
    // produced something.
    std::fputs(dumpAst(Result.Module).c_str(), stdout);
    return Result.Diags.hasErrors() ? 1 : 0;
  }
  if (!Result.Success)
    return 1;
  if (Mode == ToolMode::Check)
    return 0;

  if (Error E = writeFile(OutputPath, Mode == ToolMode::Facts
                                          ? renderFactsJson(Result.Module)
                                          : Result.Code)) {
    std::fprintf(stderr, "parcgen: %s\n", E.message().c_str());
    return 1;
  }
  return 0;
}
