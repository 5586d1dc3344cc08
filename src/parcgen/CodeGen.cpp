//===- parcgen/CodeGen.cpp ------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parcgen/CodeGen.h"

#include "support/StringUtils.h"

#include <cctype>
#include <sstream>

using namespace parcs;
using namespace parcs::pcc;

namespace {

/// "examples.prime" -> {"examples", "prime"}; empty -> {"parcsgen"}.
std::vector<std::string_view> namespaceParts(const ModuleDecl &Module) {
  if (Module.Name.empty())
    return {"parcsgen"};
  return split(Module.Name, '.');
}

std::string includeGuard(const ModuleDecl &Module) {
  std::string Guard = "PARCSGEN_";
  std::string Name = Module.Name.empty() ? "default" : Module.Name;
  for (char C : Name)
    Guard += std::isalnum(static_cast<unsigned char>(C))
                 ? static_cast<char>(std::toupper(C))
                 : '_';
  Guard += "_H";
  return Guard;
}

/// Wire type-name of a passive class ("module.Class").
std::string passiveTypeName(const ModuleDecl &Module,
                            const std::string &Class) {
  std::string Prefix = Module.Name.empty() ? "parcsgen" : Module.Name;
  return Prefix + "." + Class;
}

/// C++ type of a method parameter in the *proxy* signature: by value, so
/// the direct call moves it on to the skeleton.  Passive graphs are read
/// through a pointer and always marshalled.
std::string proxyParamType(const TypeNode &Type) {
  if (Type.isPassive())
    return "const " + Type.RefClass + " *";
  return Type.cppType() + " ";
}

/// C++ type of a method parameter in the *skeleton* signature.
std::string skeletonParamType(const TypeNode &Type) {
  if (Type.isPassive())
    return Type.RefClass + " *";
  return Type.cppType() + " ";
}

/// Parameter list rendering.
std::string paramList(const MethodDecl &Method, bool Proxy) {
  std::string Out;
  for (size_t I = 0; I < Method.Params.size(); ++I) {
    if (I)
      Out += ", ";
    const ParamDecl &Param = Method.Params[I];
    Out += Proxy ? proxyParamType(Param.Type) : skeletonParamType(Param.Type);
    Out += Param.Name;
  }
  return Out;
}

/// True when any parameter is a passive object graph.
bool hasPassiveParam(const MethodDecl &Method) {
  for (const ParamDecl &Param : Method.Params)
    if (Param.Type.isPassive())
      return true;
  return false;
}

/// Argument expressions for the proxy's encodeValues call: passive
/// parameters travel as encoded graphs.
std::string proxyArgExprs(const MethodDecl &Method) {
  std::string Out;
  for (size_t I = 0; I < Method.Params.size(); ++I) {
    if (I)
      Out += ", ";
    const ParamDecl &Param = Method.Params[I];
    if (Param.Type.isPassive())
      Out += "parcs::scoopp::encodePassiveGraph(" + Param.Name + ")";
    else
      Out += Param.Name;
  }
  return Out;
}


//===----------------------------------------------------------------------===//
// Passive classes
//===----------------------------------------------------------------------===//

void emitPassiveDecl(std::ostringstream &Os, const ModuleDecl &Module,
                     const ClassDecl &Class) {
  Os << "/// Passive class " << Class.Name << ": plain serialisable data; "
     << "copies move\n/// between parallel objects.\n";
  Os << "class " << Class.Name
     << " : public parcs::serial::SerializableObject {\n";
  Os << "public:\n";
  Os << "  static constexpr const char *TypeNameStr = \""
     << passiveTypeName(Module, Class.Name) << "\";\n\n";

  for (const FieldDecl &Field : Class.Fields) {
    Os << "  " << Field.Type.cppType();
    if (Field.Type.isPassive() && !Field.Type.IsArray)
      Os << Field.Name << " = nullptr;\n";
    else
      Os << " " << Field.Name << "{};\n";
  }

  Os << "\n  std::string_view typeName() const override {\n";
  Os << "    return TypeNameStr;\n  }\n";
  // Bodies are defined out of line, after every passive class, so that
  // mutually recursive links (A holds B*, B holds A*) compile.
  Os << "  void writeFields(parcs::serial::ObjectWriter &Writer) const "
        "override;\n";
  Os << "  bool readFields(parcs::serial::ObjectReader &Reader) "
        "override;\n";
  Os << "};\n\n";

  Os << "/// Registers " << Class.Name
     << " for graph decoding (call once per registry,\n"
     << "/// e.g. on parcs::serial::TypeRegistry::global()).\n";
  Os << "inline void register" << Class.Name
     << "Passive(parcs::serial::TypeRegistry &Registry) {\n";
  Os << "  Registry.registerType<" << Class.Name << ">();\n";
  Os << "}\n\n";
}

void emitPassiveBodies(std::ostringstream &Os, const ClassDecl &Class) {
  Os << "inline void " << Class.Name
     << "::writeFields(parcs::serial::ObjectWriter &Writer) const {\n";
  if (Class.Fields.empty())
    Os << "  (void)Writer;\n";
  for (const FieldDecl &Field : Class.Fields) {
    if (Field.Type.isPassive() && Field.Type.IsArray) {
      Os << "  Writer.write(static_cast<uint32_t>(" << Field.Name
         << ".size()));\n";
      Os << "  for (const auto *Elem_ : " << Field.Name << ")\n";
      Os << "    Writer.writeRef(Elem_);\n";
      continue;
    }
    if (Field.Type.isPassive()) {
      Os << "  Writer.writeRef(" << Field.Name << ");\n";
      continue;
    }
    Os << "  Writer.write(" << Field.Name << ");\n";
  }
  Os << "}\n\n";

  Os << "inline bool " << Class.Name
     << "::readFields(parcs::serial::ObjectReader &Reader) {\n";
  if (Class.Fields.empty())
    Os << "  (void)Reader;\n";
  for (const FieldDecl &Field : Class.Fields) {
    if (Field.Type.isPassive() && Field.Type.IsArray) {
      Os << "  {\n";
      Os << "    uint32_t Count_ = 0;\n";
      Os << "    if (!Reader.read(Count_))\n      return false;\n";
      Os << "    " << Field.Name << ".clear();\n";
      Os << "    for (uint32_t I_ = 0; I_ < Count_; ++I_) {\n";
      Os << "      " << Field.Type.RefClass << " *Elem_ = nullptr;\n";
      Os << "      if (!Reader.readRefAs(Elem_))\n        return "
            "false;\n";
      Os << "      " << Field.Name << ".push_back(Elem_);\n";
      Os << "    }\n  }\n";
      continue;
    }
    if (Field.Type.isPassive()) {
      Os << "  if (!Reader.readRefAs(" << Field.Name
         << "))\n    return false;\n";
      continue;
    }
    Os << "  if (!Reader.read(" << Field.Name
       << "))\n    return false;\n";
  }
  Os << "  return true;\n}\n\n";
}

//===----------------------------------------------------------------------===//
// Skeleton (IO side)
//===----------------------------------------------------------------------===//

void emitSkeleton(std::ostringstream &Os, const ClassDecl &Class) {
  std::string Skel = Class.Name + "Skeleton";

  Os << "/// Abstract implementation-object (IO) base for parallel class\n";
  Os << "/// " << Class.Name << ".  Derive, implement the methods, and\n";
  Os << "/// register the subclass with register" << Class.Name
     << "Class(), or publish\n/// it on an endpoint as is.  A method's "
        "Error is its caller's result.\n";
  Os << "class " << Skel << " : public parcs::remoting::CallHandler {\n";
  Os << "public:\n";

  for (const MethodDecl &Method : Class.Methods) {
    Os << "  /// " << (Method.Kind == MethodKind::Async ? "Asynchronous"
                                                        : "Synchronous")
       << " method '" << Method.Name << "'.";
    if (hasPassiveParam(Method))
      Os << "  Passive parameters are\n  /// decoded copies owned by the "
            "call (valid until the method returns).";
    Os << "\n";
    Os << "  virtual parcs::sim::Task<parcs::ErrorOr<"
       << Method.ReturnType.cppType() << ">> " << Method.Name << "("
       << paramList(Method, /*Proxy=*/false) << ") = 0;\n";
  }

  Os << "\n  parcs::sim::Task<parcs::ErrorOr<parcs::remoting::Bytes>>\n";
  Os << "  handleCall(std::string_view Method,\n";
  Os << "             const parcs::remoting::Bytes &Args) override {\n";
  for (const MethodDecl &Method : Class.Methods) {
    Os << "    if (Method == \"" << Method.Name << "\") {\n";
    bool HasPassive = false;
    for (const ParamDecl &Param : Method.Params) {
      if (Param.Type.isPassive()) {
        HasPassive = true;
        Os << "      parcs::serial::Bytes " << Param.Name << "_graph{};\n";
      } else {
        Os << "      " << Param.Type.cppType() << " " << Param.Name
           << "{};\n";
      }
    }
    if (!Method.Params.empty()) {
      Os << "      if (!parcs::serial::decodeValues(Args";
      for (const ParamDecl &Param : Method.Params) {
        Os << ", " << Param.Name;
        if (Param.Type.isPassive())
          Os << "_graph";
      }
      Os << "))\n";
    } else {
      Os << "      if (!Args.empty())\n";
    }
    Os << "        co_return parcs::Error(\n";
    Os << "            parcs::ErrorCode::MalformedMessage,\n";
    Os << "            \"arguments of " << Class.Name << "." << Method.Name
       << "\");\n";
    if (HasPassive) {
      Os << "      parcs::serial::ObjectPool Pool_;\n";
      for (const ParamDecl &Param : Method.Params) {
        if (!Param.Type.isPassive())
          continue;
        Os << "      " << Param.Type.RefClass << " *" << Param.Name
           << " = nullptr;\n";
        Os << "      {\n";
        Os << "        auto Decoded_ = parcs::scoopp::decodePassiveGraph("
           << Param.Name << "_graph, Pool_);\n";
        Os << "        if (!Decoded_)\n";
        Os << "          co_return Decoded_.error();\n";
        Os << "        if (*Decoded_) {\n";
        Os << "          " << Param.Name << " = parcs::serial::objectCast<"
           << Param.Type.RefClass << ">(*Decoded_);\n";
        Os << "          if (!" << Param.Name << ")\n";
        Os << "            co_return parcs::Error(\n";
        Os << "                parcs::ErrorCode::MalformedMessage,\n";
        Os << "                \"" << Param.Name << " is not a "
           << Param.Type.RefClass << "\");\n";
        Os << "        }\n";
        Os << "      }\n";
      }
    }
    Os << "      parcs::ErrorOr<" << Method.ReturnType.cppType()
       << "> Result_ = co_await " << Method.Name << "(";
    for (size_t I = 0; I < Method.Params.size(); ++I) {
      if (I)
        Os << ", ";
      const ParamDecl &Param = Method.Params[I];
      if (Param.Type.isPassive())
        Os << Param.Name;
      else
        Os << "std::move(" << Param.Name << ")";
    }
    Os << ");\n";
    Os << "      if (!Result_)\n";
    Os << "        co_return Result_.error();\n";
    Os << "      co_return parcs::serial::encodeValues(*Result_);\n";
    Os << "    }\n";
  }
  Os << "    co_return parcs::Error(parcs::ErrorCode::UnknownMethod,\n";
  Os << "                           std::string(Method));\n";
  Os << "  }\n";
  Os << "};\n\n";
}

//===----------------------------------------------------------------------===//
// Proxy (PO side)
//===----------------------------------------------------------------------===//

/// The direct branch of a proxy method: when the object is agglomerated,
/// call the skeleton's method itself, the by-value arguments moved into
/// the call and on to the method.  \p Ret is invokeLocal's result type.
void emitDirectBranch(std::ostringstream &Os, const MethodDecl &Method,
                      const std::string &Ret) {
  Os << "    if (Local_)\n";
  Os << "      return invokeLocal<" << Ret << ">(\"" << Method.Name
     << "\", [Io_ = Local_";
  for (const ParamDecl &Param : Method.Params)
    Os << ", " << Param.Name << " = std::move(" << Param.Name << ")";
  Os << "]() mutable {\n";
  Os << "        return Io_->" << Method.Name << "(";
  for (size_t I = 0; I < Method.Params.size(); ++I)
    Os << (I ? ", " : "") << "std::move(" << Method.Params[I].Name << ")";
  Os << ");\n";
  Os << "      });\n";
}

void emitProxy(std::ostringstream &Os, const ClassDecl &Class) {
  std::string Proxy = Class.Name + "Proxy";
  // Methods with passive parameters always marshal: pass-by-value of an
  // object graph is its encode/decode copy.
  bool AnyDirect = false;
  for (const MethodDecl &Method : Class.Methods)
    AnyDirect |= !hasPassiveParam(Method);
  Os << "/// Proxy object (PO) for parallel class " << Class.Name << ".\n";
  Os << "class " << Proxy << " : public parcs::scoopp::ProxyBase {\n";
  Os << "public:\n";
  Os << "  static constexpr const char *ClassName = \"" << Class.Name
     << "\";\n";
  Os << "  using ProxyBase::ProxyBase;\n\n";
  Os << "  /// Creates the implementation object per the OM's placement\n";
  Os << "  /// and grain decisions.\n";
  Os << "  parcs::sim::Task<parcs::Error> create() {\n";
  Os << "    return ProxyBase::create(ClassName);\n";
  Os << "  }\n";
  for (const MethodDecl &Method : Class.Methods) {
    Os << "\n";
    bool Direct = !hasPassiveParam(Method);
    if (Method.Kind == MethodKind::Async) {
      Os << "  /// Asynchronous (aggregation-aware) invocation.\n";
      Os << "  parcs::sim::Task<void> " << Method.Name << "("
         << paramList(Method, /*Proxy=*/true) << ") {\n";
      if (Direct)
        emitDirectBranch(Os, Method, "void");
      Os << "    return invokeAsync(\"" << Method.Name
         << "\", parcs::serial::encodeValues(" << proxyArgExprs(Method)
         << "));\n";
      Os << "  }\n";
      continue;
    }
    Os << "  /// Synchronous invocation.\n";
    Os << "  parcs::sim::Task<parcs::ErrorOr<"
       << Method.ReturnType.cppType() << ">> " << Method.Name << "("
       << paramList(Method, /*Proxy=*/true) << ") {\n";
    if (Direct)
      emitDirectBranch(Os, Method,
                       "parcs::ErrorOr<" + Method.ReturnType.cppType() + ">");
    Os << "    return invokeSyncTyped<" << Method.ReturnType.cppType()
       << ">(\"" << Method.Name << "\""
       << (Method.Params.empty() ? "" : ", ") << proxyArgExprs(Method)
       << ");\n";
    Os << "  }\n";
  }
  if (AnyDirect) {
    Os << "\nprivate:\n";
    Os << "  void adoptLocal(parcs::remoting::CallHandler *Io) override {\n";
    Os << "    Local_ = dynamic_cast<" << Class.Name << "Skeleton *>(Io);\n";
    Os << "  }\n\n";
    Os << "  /// The agglomerated IO, when there is one.\n";
    Os << "  " << Class.Name << "Skeleton *Local_ = nullptr;\n";
  }
  Os << "};\n\n";
}

void emitRegistration(std::ostringstream &Os, const ClassDecl &Class) {
  Os << "/// Registers " << Class.Name << " backed by \\p ImplT, a subclass "
     << "of " << Class.Name << "Skeleton.\n";
  Os << "/// Each instance is built from (ScooppRuntime&, vm::Node&, "
        "Args...),\n";
  Os << "/// (vm::Node&, Args...) or (Args...), the first ImplT can be\n";
  Os << "/// constructed from; every instance gets copies of \\p Args.\n";
  Os << "template <typename ImplT, typename... ArgTs>\n";
  Os << "void register" << Class.Name
     << "Class(parcs::scoopp::ParallelClassRegistry &Registry,\n";
  Os << "    ArgTs... Args) {\n";
  Os << "  static_assert(std::is_base_of_v<" << Class.Name
     << "Skeleton, ImplT>,\n";
  Os << "                \"implementation must derive from " << Class.Name
     << "Skeleton\");\n";
  Os << "  Registry.registerClass(\n";
  Os << "      {" << Class.Name << "Proxy::ClassName,\n";
  Os << "       [Args...](parcs::scoopp::ScooppRuntime &Runtime,\n";
  Os << "                 parcs::vm::Node &Host)\n";
  Os << "           -> std::shared_ptr<parcs::remoting::CallHandler> {\n";
  Os << "         if constexpr (std::is_constructible_v<\n";
  Os << "                           ImplT, parcs::scoopp::ScooppRuntime &,\n";
  Os << "                           parcs::vm::Node &, const ArgTs &...>) {\n";
  Os << "           return std::make_shared<ImplT>(Runtime, Host, Args...);\n";
  Os << "         } else if constexpr (std::is_constructible_v<\n";
  Os << "                                  ImplT, parcs::vm::Node &,\n";
  Os << "                                  const ArgTs &...>) {\n";
  Os << "           (void)Runtime;\n";
  Os << "           return std::make_shared<ImplT>(Host, Args...);\n";
  Os << "         } else {\n";
  Os << "           (void)Runtime;\n";
  Os << "           (void)Host;\n";
  Os << "           return std::make_shared<ImplT>(Args...);\n";
  Os << "         }\n";
  Os << "       }});\n";
  Os << "}\n\n";
}

} // namespace

std::string parcs::pcc::generateCpp(const ModuleDecl &Module) {
  std::ostringstream Os;
  std::string Guard = includeGuard(Module);
  Os << "// Generated by parcgen -- do not edit.\n";
  if (!Module.Name.empty())
    Os << "// Module: " << Module.Name << "\n";
  Os << "#ifndef " << Guard << "\n";
  Os << "#define " << Guard << "\n\n";
  Os << "#include \"core/Passive.h\"\n";
  Os << "#include \"core/Proxy.h\"\n";
  Os << "#include \"core/Scoopp.h\"\n";
  Os << "#include \"serial/ObjectGraph.h\"\n\n";
  Os << "#include <cstdint>\n";
  Os << "#include <memory>\n";
  Os << "#include <string>\n";
  Os << "#include <string_view>\n";
  Os << "#include <type_traits>\n";
  Os << "#include <utility>\n";
  Os << "#include <vector>\n\n";

  std::vector<std::string_view> Parts = namespaceParts(Module);
  for (std::string_view Part : Parts)
    Os << "namespace " << Part << " {\n";
  Os << "\n";

  // Passive data classes come first: proxies and skeletons reference them
  // in method signatures.  Forward declarations allow mutually recursive
  // links.
  bool AnyPassive = false;
  for (const ClassDecl &Class : Module.Classes)
    if (Class.IsPassive) {
      Os << "class " << Class.Name << ";\n";
      AnyPassive = true;
    }
  if (AnyPassive)
    Os << "\n";
  for (const ClassDecl &Class : Module.Classes)
    if (Class.IsPassive)
      emitPassiveDecl(Os, Module, Class);
  for (const ClassDecl &Class : Module.Classes)
    if (Class.IsPassive)
      emitPassiveBodies(Os, Class);

  for (const ClassDecl &Class : Module.Classes) {
    if (Class.IsExtern || Class.IsPassive)
      continue;
    emitSkeleton(Os, Class);
    emitProxy(Os, Class);
    emitRegistration(Os, Class);
  }

  for (auto It = Parts.rbegin(); It != Parts.rend(); ++It)
    Os << "} // namespace " << *It << "\n";
  Os << "\n#endif // " << Guard << "\n";
  return Os.str();
}
