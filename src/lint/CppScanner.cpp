//===- lint/CppScanner.cpp ------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "lint/CppScanner.h"

#include "support/StringUtils.h"

#include <cctype>

using namespace parcs;
using namespace parcs::lint;

namespace {

bool isIdentStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}
bool isIdentCont(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

/// Multi-character punctuators the rules care about (so "::" and "->" are
/// single tokens and "&&" never looks like a reference declarator).  Longest
/// match first within each leading character.
constexpr std::string_view TwoCharPuncts[] = {
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=",
};

} // namespace

char CppScanner::advance() {
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    Col = 1;
    AtLineStart = true;
  } else {
    ++Col;
  }
  return C;
}

void CppScanner::skipTrivia(std::vector<CppComment> &Comments) {
  while (!atEnd()) {
    char C = peek();
    if (std::isspace(static_cast<unsigned char>(C))) {
      advance();
      continue;
    }
    if (C == '/' && peekAhead() == '/') {
      CppComment Comment;
      Comment.Line = Line;
      Comment.Col = Col;
      advance();
      advance();
      size_t Begin = Pos;
      while (!atEnd() && peek() != '\n')
        advance();
      Comment.Text = trim(Source.substr(Begin, Pos - Begin));
      Comments.push_back(Comment);
      continue;
    }
    if (C == '/' && peekAhead() == '*') {
      CppComment Comment;
      Comment.Block = true;
      Comment.Line = Line;
      Comment.Col = Col;
      advance();
      advance();
      size_t Begin = Pos;
      size_t End = Pos;
      while (!atEnd()) {
        if (peek() == '*' && peekAhead() == '/') {
          End = Pos;
          advance();
          advance();
          break;
        }
        advance();
        End = Pos;
      }
      Comment.Text = trim(Source.substr(Begin, End - Begin));
      Comments.push_back(Comment);
      continue;
    }
    return;
  }
}

CppToken CppScanner::makeToken(TokKind Kind, size_t Begin, int TokLine,
                               int TokCol) const {
  CppToken Tok;
  Tok.Kind = Kind;
  Tok.Text = Source.substr(Begin, Pos - Begin);
  Tok.Line = TokLine;
  Tok.Col = TokCol;
  return Tok;
}

void CppScanner::lexStringBody(char Quote) {
  while (!atEnd()) {
    char C = advance();
    if (C == '\\' && !atEnd()) {
      advance();
      continue;
    }
    if (C == Quote || C == '\n')
      return; // Unterminated-on-line literals stop at the newline.
  }
}

void CppScanner::lexRawString() {
  // At entry Pos is on the '"' of R"delim( ... )delim".
  advance(); // '"'
  size_t DelimBegin = Pos;
  while (!atEnd() && peek() != '(' && peek() != '\n')
    advance();
  std::string_view Delim = Source.substr(DelimBegin, Pos - DelimBegin);
  if (atEnd() || peek() != '(')
    return; // Malformed; give up gracefully.
  advance(); // '('
  while (!atEnd()) {
    if (peek() == ')' &&
        Source.substr(Pos + 1, Delim.size()) == Delim &&
        Pos + 1 + Delim.size() < Source.size() &&
        Source[Pos + 1 + Delim.size()] == '"') {
      for (size_t I = 0; I < Delim.size() + 2; ++I)
        advance();
      return;
    }
    advance();
  }
}

CppToken CppScanner::lexOne() {
  size_t Begin = Pos;
  int TokLine = Line;
  int TokCol = Col;
  char C = peek();

  // Preprocessor directive: '#' as the first token of a line swallows the
  // whole (continued) line.  Nothing inside feeds any rule.
  if (C == '#' && AtLineStart) {
    AtLineStart = false;
    while (!atEnd()) {
      if (peek() == '\\' && peekAhead() == '\n') {
        advance();
        advance();
        continue;
      }
      if (peek() == '\n')
        break;
      advance();
    }
    return makeToken(TokKind::Directive, Begin, TokLine, TokCol);
  }
  AtLineStart = false;

  if (isIdentStart(C)) {
    // Raw-string prefix?  R"( u8R"( LR"( etc.
    size_t Look = Pos;
    while (Look < Source.size() && isIdentCont(Source[Look]))
      ++Look;
    if (Look < Source.size() && Source[Look] == '"') {
      std::string_view Prefix = Source.substr(Pos, Look - Pos);
      if (!Prefix.empty() && Prefix.back() == 'R' && Prefix.size() <= 3) {
        while (Pos < Look)
          advance();
        lexRawString();
        return makeToken(TokKind::String, Begin, TokLine, TokCol);
      }
      // Encoding prefix of an ordinary string (u8"", L"").
      if (Prefix.size() <= 2) {
        while (Pos < Look)
          advance();
        advance(); // '"'
        lexStringBody('"');
        return makeToken(TokKind::String, Begin, TokLine, TokCol);
      }
    }
    while (!atEnd() && isIdentCont(peek()))
      advance();
    return makeToken(TokKind::Identifier, Begin, TokLine, TokCol);
  }

  if (std::isdigit(static_cast<unsigned char>(C)) ||
      (C == '.' && std::isdigit(static_cast<unsigned char>(peekAhead())))) {
    advance();
    while (!atEnd()) {
      char N = peek();
      if (isIdentCont(N) || N == '.' || N == '\'') {
        advance();
        // Exponent signs: 1e-3, 0x1p+2.
        if ((N == 'e' || N == 'E' || N == 'p' || N == 'P') && !atEnd() &&
            (peek() == '+' || peek() == '-'))
          advance();
        continue;
      }
      break;
    }
    return makeToken(TokKind::Number, Begin, TokLine, TokCol);
  }

  if (C == '"') {
    advance();
    lexStringBody('"');
    return makeToken(TokKind::String, Begin, TokLine, TokCol);
  }
  if (C == '\'') {
    advance();
    lexStringBody('\'');
    return makeToken(TokKind::CharLit, Begin, TokLine, TokCol);
  }

  // Punctuation: longest match over the two-char table, else one char.
  for (std::string_view Two : TwoCharPuncts) {
    if (Source.substr(Pos, 2) == Two) {
      advance();
      advance();
      return makeToken(TokKind::Punct, Begin, TokLine, TokCol);
    }
  }
  advance();
  return makeToken(TokKind::Punct, Begin, TokLine, TokCol);
}

void CppScanner::scanAll(std::vector<CppToken> &Tokens,
                         std::vector<CppComment> &Comments) {
  for (;;) {
    skipTrivia(Comments);
    if (atEnd()) {
      CppToken Eof;
      Eof.Kind = TokKind::EndOfFile;
      Eof.Line = Line;
      Eof.Col = Col;
      Tokens.push_back(Eof);
      return;
    }
    Tokens.push_back(lexOne());
  }
}
