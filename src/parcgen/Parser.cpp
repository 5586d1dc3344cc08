//===- parcgen/Parser.cpp -------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "parcgen/Parser.h"

using namespace parcs;
using namespace parcs::pcc;

Token Parser::consume() {
  Token Tok = Current;
  Current = Lex.next();
  return Tok;
}

bool Parser::accept(TokenKind Kind) {
  if (!check(Kind))
    return false;
  consume();
  return true;
}

std::optional<Token> Parser::expect(TokenKind Kind, const char *Context) {
  if (check(Kind))
    return consume();
  Diags.error(Current.Loc, std::string("expected ") + tokenKindName(Kind) +
                               " " + Context + ", found " +
                               tokenKindName(Current.Kind));
  return std::nullopt;
}

void Parser::recover() {
  while (!check(TokenKind::EndOfFile)) {
    if (accept(TokenKind::Semicolon))
      return;
    if (check(TokenKind::RBrace))
      return;
    consume();
  }
}

std::optional<std::string> Parser::parseQualifiedName() {
  std::optional<Token> First = expect(TokenKind::Identifier, "in module name");
  if (!First)
    return std::nullopt;
  std::string Name = First->Text;
  while (accept(TokenKind::Dot)) {
    std::optional<Token> Part =
        expect(TokenKind::Identifier, "after '.' in module name");
    if (!Part)
      return std::nullopt;
    Name += "." + Part->Text;
  }
  return Name;
}

ModuleDecl Parser::parseModule() {
  ModuleDecl Module;
  if (accept(TokenKind::KwModule)) {
    if (std::optional<std::string> Name = parseQualifiedName())
      Module.Name = *Name;
    else
      recover();
    expect(TokenKind::Semicolon, "after module name");
  }

  while (!check(TokenKind::EndOfFile)) {
    if (check(TokenKind::KwExtern)) {
      if (std::optional<ClassDecl> Class = parseExternClass())
        Module.Classes.push_back(std::move(*Class));
      else
        recover();
      continue;
    }
    if (check(TokenKind::KwParallel)) {
      if (std::optional<ClassDecl> Class = parseParallelClass())
        Module.Classes.push_back(std::move(*Class));
      else
        recover();
      continue;
    }
    if (check(TokenKind::KwPassive)) {
      if (std::optional<ClassDecl> Class = parsePassiveClass())
        Module.Classes.push_back(std::move(*Class));
      else
        recover();
      continue;
    }
    Diags.error(Current.Loc,
                std::string("expected 'parallel', 'passive' or 'extern' at "
                            "top level, found ") +
                    tokenKindName(Current.Kind));
    consume();
    recover();
  }
  return Module;
}

std::optional<ClassDecl> Parser::parseExternClass() {
  ClassDecl Class;
  Class.IsExtern = true;
  Class.Loc = Current.Loc;
  consume(); // 'extern'
  if (!expect(TokenKind::KwClass, "after 'extern'"))
    return std::nullopt;
  std::optional<Token> Name = expect(TokenKind::Identifier, "in class name");
  if (!Name)
    return std::nullopt;
  Class.Name = Name->Text;
  if (!expect(TokenKind::Semicolon, "after extern class declaration"))
    return std::nullopt;
  return Class;
}

std::optional<ClassDecl> Parser::parsePassiveClass() {
  ClassDecl Class;
  Class.IsPassive = true;
  Class.Loc = Current.Loc;
  consume(); // 'passive'
  if (!expect(TokenKind::KwClass, "after 'passive'"))
    return std::nullopt;
  std::optional<Token> Name = expect(TokenKind::Identifier, "in class name");
  if (!Name)
    return std::nullopt;
  Class.Name = Name->Text;
  if (!expect(TokenKind::LBrace, "to open the class body"))
    return std::nullopt;
  while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
    if (std::optional<FieldDecl> Field = parseField())
      Class.Fields.push_back(std::move(*Field));
    else
      recover();
  }
  expect(TokenKind::RBrace, "to close the class body");
  accept(TokenKind::Semicolon); // Optional trailing ';'.
  return Class;
}

std::optional<FieldDecl> Parser::parseField() {
  FieldDecl Field;
  Field.Loc = Current.Loc;
  std::optional<TypeNode> Type = parseType();
  if (!Type)
    return std::nullopt;
  Field.Type = *Type;
  std::optional<Token> Name = expect(TokenKind::Identifier, "in field name");
  if (!Name)
    return std::nullopt;
  Field.Name = Name->Text;
  if (!expect(TokenKind::Semicolon, "after field declaration"))
    return std::nullopt;
  return Field;
}

std::optional<ClassDecl> Parser::parseParallelClass() {
  ClassDecl Class;
  Class.Loc = Current.Loc;
  consume(); // 'parallel'
  if (!expect(TokenKind::KwClass, "after 'parallel'"))
    return std::nullopt;
  std::optional<Token> Name = expect(TokenKind::Identifier, "in class name");
  if (!Name)
    return std::nullopt;
  Class.Name = Name->Text;
  if (accept(TokenKind::Colon)) {
    std::optional<Token> Base =
        expect(TokenKind::Identifier, "after ':' in class declaration");
    if (!Base)
      return std::nullopt;
    Class.Base = Base->Text;
  }
  if (!expect(TokenKind::LBrace, "to open the class body"))
    return std::nullopt;
  while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
    if (std::optional<MethodDecl> Method = parseMethod())
      Class.Methods.push_back(std::move(*Method));
    else
      recover();
  }
  expect(TokenKind::RBrace, "to close the class body");
  accept(TokenKind::Semicolon); // Optional trailing ';'.
  return Class;
}

std::optional<MethodDecl> Parser::parseMethod() {
  MethodDecl Method;
  Method.Loc = Current.Loc;
  if (accept(TokenKind::KwAsync)) {
    Method.Kind = MethodKind::Async;
    Method.ExplicitKind = true;
  } else if (accept(TokenKind::KwSync)) {
    Method.Kind = MethodKind::Sync;
    Method.ExplicitKind = true;
  }

  std::optional<TypeNode> Ret = parseType();
  if (!Ret)
    return std::nullopt;
  Method.ReturnType = *Ret;
  if (!Method.ExplicitKind) {
    // SCOOPP default: void methods are asynchronous, value-returning
    // methods are synchronous.
    Method.Kind =
        Method.ReturnType.isVoid() ? MethodKind::Async : MethodKind::Sync;
  }

  std::optional<Token> Name = expect(TokenKind::Identifier, "in method name");
  if (!Name)
    return std::nullopt;
  Method.Name = Name->Text;

  if (!expect(TokenKind::LParen, "to open the parameter list"))
    return std::nullopt;
  if (!check(TokenKind::RParen)) {
    do {
      ParamDecl Param;
      Param.Loc = Current.Loc;
      // 'ref' here is either the by-ref modifier ('ref int x') or the start
      // of a ref<...> type ('ref<Worker> w'); only the next token tells.
      bool ConsumedRef = false;
      if (check(TokenKind::KwRef)) {
        consume();
        ConsumedRef = true;
        if (!check(TokenKind::Less)) {
          Param.ByRef = true;
          ConsumedRef = false;
        }
      }
      std::optional<TypeNode> Type = parseType(/*AfterRef=*/ConsumedRef);
      if (!Type)
        return std::nullopt;
      Param.Type = *Type;
      std::optional<Token> ParamName =
          expect(TokenKind::Identifier, "in parameter name");
      if (!ParamName)
        return std::nullopt;
      Param.Name = ParamName->Text;
      Method.Params.push_back(std::move(Param));
    } while (accept(TokenKind::Comma));
  }
  if (!expect(TokenKind::RParen, "to close the parameter list"))
    return std::nullopt;
  if (!expect(TokenKind::Semicolon, "after method declaration"))
    return std::nullopt;
  return Method;
}

std::optional<TypeNode> Parser::parseType(bool AfterRef) {
  TypeNode Type;
  Type.Loc = Current.Loc;
  if (AfterRef) {
    // The caller consumed 'ref' and saw '<': finish the ref<...> type.
    Type.Kind = TypeKind::Ref;
    if (!expect(TokenKind::Less, "after 'ref'"))
      return std::nullopt;
    std::optional<Token> Target =
        expect(TokenKind::Identifier, "in ref<> target");
    if (!Target)
      return std::nullopt;
    Type.RefClass = Target->Text;
    if (!expect(TokenKind::Greater, "to close ref<>"))
      return std::nullopt;
    if (accept(TokenKind::LBracket)) {
      if (!expect(TokenKind::RBracket, "to close the array type"))
        return std::nullopt;
      Type.IsArray = true;
      if (check(TokenKind::LBracket)) {
        Diags.error(Current.Loc, "nested array types are not supported");
        return std::nullopt;
      }
    }
    return Type;
  }
  switch (Current.Kind) {
  case TokenKind::KwVoid:
    Type.Kind = TypeKind::Void;
    consume();
    break;
  case TokenKind::KwBool:
    Type.Kind = TypeKind::Bool;
    consume();
    break;
  case TokenKind::KwByte:
    Type.Kind = TypeKind::Byte;
    consume();
    break;
  case TokenKind::KwInt:
    Type.Kind = TypeKind::Int;
    consume();
    break;
  case TokenKind::KwLong:
    Type.Kind = TypeKind::Long;
    consume();
    break;
  case TokenKind::KwDouble:
    Type.Kind = TypeKind::Double;
    consume();
    break;
  case TokenKind::KwString:
    Type.Kind = TypeKind::String;
    consume();
    break;
  case TokenKind::KwRef: {
    Type.Kind = TypeKind::Ref;
    consume();
    if (!expect(TokenKind::Less, "after 'ref'"))
      return std::nullopt;
    std::optional<Token> Target =
        expect(TokenKind::Identifier, "in ref<> target");
    if (!Target)
      return std::nullopt;
    Type.RefClass = Target->Text;
    if (!expect(TokenKind::Greater, "to close ref<>"))
      return std::nullopt;
    break;
  }
  case TokenKind::Identifier:
    // A bare class name: a passive-object link (validated by sema).
    Type.Kind = TypeKind::Passive;
    Type.RefClass = Current.Text;
    consume();
    break;
  default:
    Diags.error(Current.Loc, std::string("expected a type, found ") +
                                 tokenKindName(Current.Kind));
    return std::nullopt;
  }

  if (accept(TokenKind::LBracket)) {
    if (!expect(TokenKind::RBracket, "to close the array type"))
      return std::nullopt;
    Type.IsArray = true;
    if (check(TokenKind::LBracket)) {
      Diags.error(Current.Loc, "nested array types are not supported");
      return std::nullopt;
    }
  }
  return Type;
}
