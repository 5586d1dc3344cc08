//===- parcgen/Token.h - Token definitions ----------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokens of the .pci (parallel class interface) language consumed by
/// parcgen, the reproduction of the paper's preprocessor: "It includes a
/// pre-processor ... [that] analyses the application - retrieving
/// information about the declared parallel objects - and generates code
/// for remote object creation and remote method invocation."
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_PARCGEN_TOKEN_H
#define PARCS_PARCGEN_TOKEN_H

#include <string>

namespace parcs::pcc {

/// A position in the source buffer (1-based).
struct SourceLocation {
  int Line = 1;
  int Column = 1;

  std::string str() const {
    return std::to_string(Line) + ":" + std::to_string(Column);
  }
};

enum class TokenKind {
  // Literals / identifiers.
  Identifier,
  // Keywords.
  KwModule,
  KwParallel,
  KwPassive,
  KwClass,
  KwExtern,
  KwAsync,
  KwSync,
  KwVoid,
  KwBool,
  KwByte,
  KwInt,
  KwLong,
  KwDouble,
  KwString,
  KwRef,
  // Punctuation.
  LBrace,
  RBrace,
  LParen,
  RParen,
  LBracket,
  RBracket,
  Less,
  Greater,
  Colon,
  Semicolon,
  Comma,
  Dot,
  // Sentinels.
  EndOfFile,
  Invalid,
};

/// Stable display name for diagnostics ("'{'", "identifier", ...).
const char *tokenKindName(TokenKind Kind);

struct Token {
  TokenKind Kind = TokenKind::Invalid;
  std::string Text;
  SourceLocation Loc;

  bool is(TokenKind K) const { return Kind == K; }
};

} // namespace parcs::pcc

#endif // PARCS_PARCGEN_TOKEN_H
