//===- parcgen/Ast.cpp ----------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parcgen/Ast.h"

#include "support/Compiler.h"

using namespace parcs;
using namespace parcs::pcc;

static const char *baseName(TypeKind Kind) {
  switch (Kind) {
  case TypeKind::Void:
    return "void";
  case TypeKind::Bool:
    return "bool";
  case TypeKind::Byte:
    return "byte";
  case TypeKind::Int:
    return "int";
  case TypeKind::Long:
    return "long";
  case TypeKind::Double:
    return "double";
  case TypeKind::String:
    return "string";
  case TypeKind::Ref:
    return "ref";
  case TypeKind::Passive:
    return "passive";
  }
  PARCS_UNREACHABLE("unhandled TypeKind");
}

std::string TypeNode::str() const {
  std::string Text;
  if (Kind == TypeKind::Passive)
    Text = RefClass;
  else
    Text = baseName(Kind);
  if (Kind == TypeKind::Ref)
    Text += "<" + RefClass + ">";
  if (IsArray)
    Text += "[]";
  return Text;
}

std::string TypeNode::cppType() const {
  std::string Base;
  switch (Kind) {
  case TypeKind::Void:
    Base = "parcs::Unit";
    break;
  case TypeKind::Bool:
    Base = "bool";
    break;
  case TypeKind::Byte:
    Base = "uint8_t";
    break;
  case TypeKind::Int:
    Base = "int32_t";
    break;
  case TypeKind::Long:
    Base = "int64_t";
    break;
  case TypeKind::Double:
    Base = "double";
    break;
  case TypeKind::String:
    Base = "std::string";
    break;
  case TypeKind::Ref:
    Base = "parcs::scoopp::ParallelRef";
    break;
  case TypeKind::Passive:
    Base = RefClass + " *";
    break;
  }
  if (IsArray)
    return "std::vector<" + Base + ">";
  return Base;
}
