//===- parcgen/Lexer.cpp --------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parcgen/Lexer.h"

#include "support/Compiler.h"

#include <cctype>
#include <map>

using namespace parcs;
using namespace parcs::pcc;

const char *parcs::pcc::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::KwModule:
    return "'module'";
  case TokenKind::KwParallel:
    return "'parallel'";
  case TokenKind::KwPassive:
    return "'passive'";
  case TokenKind::KwClass:
    return "'class'";
  case TokenKind::KwExtern:
    return "'extern'";
  case TokenKind::KwAsync:
    return "'async'";
  case TokenKind::KwSync:
    return "'sync'";
  case TokenKind::KwVoid:
    return "'void'";
  case TokenKind::KwBool:
    return "'bool'";
  case TokenKind::KwByte:
    return "'byte'";
  case TokenKind::KwInt:
    return "'int'";
  case TokenKind::KwLong:
    return "'long'";
  case TokenKind::KwDouble:
    return "'double'";
  case TokenKind::KwString:
    return "'string'";
  case TokenKind::KwRef:
    return "'ref'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Semicolon:
    return "';'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Dot:
    return "'.'";
  case TokenKind::EndOfFile:
    return "end of file";
  case TokenKind::Invalid:
    return "invalid token";
  }
  PARCS_UNREACHABLE("unhandled TokenKind");
}

char Lexer::advance() {
  char C = Source[Pos++];
  if (C == '\n') {
    ++Loc.Line;
    Loc.Column = 1;
  } else {
    ++Loc.Column;
  }
  return C;
}

void Lexer::skipTrivia() {
  while (!atEnd()) {
    char C = peek();
    if (std::isspace(static_cast<unsigned char>(C))) {
      advance();
      continue;
    }
    if (C == '/' && peekAhead() == '/') {
      while (!atEnd() && peek() != '\n')
        advance();
      continue;
    }
    if (C == '/' && peekAhead() == '*') {
      SourceLocation Start = Loc;
      advance();
      advance();
      bool Closed = false;
      while (!atEnd()) {
        if (peek() == '*' && peekAhead() == '/') {
          advance();
          advance();
          Closed = true;
          break;
        }
        advance();
      }
      if (!Closed)
        Diags.error(Start, "unterminated block comment");
      continue;
    }
    return;
  }
}

Token Lexer::next() {
  skipTrivia();
  SourceLocation TokLoc = Loc;
  if (atEnd())
    return Token{TokenKind::EndOfFile, "", TokLoc};

  char C = peek();
  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
    size_t Begin = Pos;
    while (!atEnd() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                        peek() == '_'))
      advance();
    std::string Text(Source.substr(Begin, Pos - Begin));
    static const std::map<std::string, TokenKind> Keywords = {
        {"module", TokenKind::KwModule},   {"parallel", TokenKind::KwParallel},
        {"passive", TokenKind::KwPassive},
        {"class", TokenKind::KwClass},     {"extern", TokenKind::KwExtern},
        {"async", TokenKind::KwAsync},     {"sync", TokenKind::KwSync},
        {"void", TokenKind::KwVoid},       {"bool", TokenKind::KwBool},
        {"byte", TokenKind::KwByte},
        {"int", TokenKind::KwInt},         {"long", TokenKind::KwLong},
        {"double", TokenKind::KwDouble},   {"string", TokenKind::KwString},
        {"ref", TokenKind::KwRef},
    };
    auto It = Keywords.find(Text);
    TokenKind Kind = It == Keywords.end() ? TokenKind::Identifier : It->second;
    return Token{Kind, std::move(Text), TokLoc};
  }

  advance();
  switch (C) {
  case '{':
    return Token{TokenKind::LBrace, "{", TokLoc};
  case '}':
    return Token{TokenKind::RBrace, "}", TokLoc};
  case '(':
    return Token{TokenKind::LParen, "(", TokLoc};
  case ')':
    return Token{TokenKind::RParen, ")", TokLoc};
  case '[':
    return Token{TokenKind::LBracket, "[", TokLoc};
  case ']':
    return Token{TokenKind::RBracket, "]", TokLoc};
  case '<':
    return Token{TokenKind::Less, "<", TokLoc};
  case '>':
    return Token{TokenKind::Greater, ">", TokLoc};
  case ':':
    return Token{TokenKind::Colon, ":", TokLoc};
  case ';':
    return Token{TokenKind::Semicolon, ";", TokLoc};
  case ',':
    return Token{TokenKind::Comma, ",", TokLoc};
  case '.':
    return Token{TokenKind::Dot, ".", TokLoc};
  default:
    Diags.error(TokLoc, std::string("stray character '") + C + "' in input");
    return Token{TokenKind::Invalid, std::string(1, C), TokLoc};
  }
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Tokens;
  for (;;) {
    Tokens.push_back(next());
    if (Tokens.back().is(TokenKind::EndOfFile))
      return Tokens;
  }
}
