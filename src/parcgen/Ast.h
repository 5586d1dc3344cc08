//===- parcgen/Ast.h - .pci abstract syntax ---------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST of the .pci language.  The surface grammar:
///
/// \code
///   module      ::= ('module' qualified-name ';')? decl*
///   decl        ::= extern-decl | class-decl
///   extern-decl ::= 'extern' 'class' IDENT ';'
///   class-decl  ::= 'parallel' 'class' IDENT (':' IDENT)?
///                   '{' method* '}' ';'?
///   method      ::= ('async' | 'sync')? type IDENT '(' params? ')' ';'
///   params      ::= param (',' param)*
///   param       ::= 'ref'? type IDENT
///   type        ::= base-type ('[' ']')?
///   base-type   ::= 'void' | 'bool' | 'byte' | 'int' | 'long' | 'double'
///                 | 'string' | 'ref' '<' IDENT '>'
/// \endcode
///
/// Method kind defaults follow the SCOOPP rule: methods returning void
/// are asynchronous, methods returning a value are synchronous.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_PARCGEN_AST_H
#define PARCS_PARCGEN_AST_H

#include "parcgen/Token.h"

#include <string>
#include <vector>

namespace parcs::pcc {

/// Scalar kinds of the type system.
enum class TypeKind {
  Void,
  Bool,
  Byte,   ///< Unsigned 8-bit; a byte[] travels as one bulk copy.
  Int,    ///< 32-bit.
  Long,   ///< 64-bit.
  Double,
  String,
  Ref,     ///< ref<ParallelClass>: a parallel-object reference.
  Passive, ///< A passive class named directly: a graph link (pointer).
};

/// A (possibly array) type.
struct TypeNode {
  TypeKind Kind = TypeKind::Void;
  bool IsArray = false;
  /// Target class for TypeKind::Ref / TypeKind::Passive.
  std::string RefClass;
  SourceLocation Loc;

  bool isVoid() const { return Kind == TypeKind::Void && !IsArray; }
  bool isPassive() const { return Kind == TypeKind::Passive; }
  /// Source rendering, e.g. "int[]" or "ref<PrimeServer>".
  std::string str() const;
  /// Generated C++ *value* type, e.g. "std::vector<int32_t>".  Passive
  /// links render as "<Class> *" (or a vector of pointers).
  std::string cppType() const;
};

enum class MethodKind { Async, Sync };

struct ParamDecl {
  TypeNode Type;
  std::string Name;
  /// True for 'ref type name': C#-style by-ref intent.  ParC# marshals
  /// every argument by copy, so sema flags the modifier (error on async
  /// methods, warning on sync ones); codegen ignores it.
  bool ByRef = false;
  SourceLocation Loc;
};

struct MethodDecl {
  MethodKind Kind = MethodKind::Sync;
  /// True when the source spelled the kind explicitly.
  bool ExplicitKind = false;
  TypeNode ReturnType;
  std::string Name;
  std::vector<ParamDecl> Params;
  SourceLocation Loc;
};

/// A data member of a passive class.
struct FieldDecl {
  TypeNode Type;
  std::string Name;
  SourceLocation Loc;
};

struct ClassDecl {
  std::string Name;
  /// Optional base class name (empty = none).
  std::string Base;
  /// True for 'extern class' declarations (no methods, no codegen).
  bool IsExtern = false;
  /// True for 'passive class' declarations (fields, no methods): plain
  /// serialisable data whose *copies* move between parallel objects.
  bool IsPassive = false;
  std::vector<MethodDecl> Methods;
  std::vector<FieldDecl> Fields;
  SourceLocation Loc;
};

struct ModuleDecl {
  /// Dotted module name ("examples.prime"); empty = default.
  std::string Name;
  std::vector<ClassDecl> Classes;
};

} // namespace parcs::pcc

#endif // PARCS_PARCGEN_AST_H
