//===- support/Json.cpp - JSON reader and writer --------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/StringUtils.h"

#include <cstdio>

namespace parcs::json {

namespace {

class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  bool parse(Value &Out) {
    if (!value(Out))
      return false;
    skipWs();
    return Pos == Text.size();
  }

private:
  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos >= Text.size() || Text[Pos] != C)
      return false;
    ++Pos;
    return true;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  bool string(std::string &Out) {
    if (!consume('"'))
      return false;
    Out.clear();
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos++];
      if (C == '\\') {
        if (Pos >= Text.size())
          return false;
        char E = Text[Pos++];
        switch (E) {
        case '"': C = '"'; break;
        case '\\': C = '\\'; break;
        case '/': C = '/'; break;
        case 'n': C = '\n'; break;
        case 't': C = '\t'; break;
        case 'r': C = '\r'; break;
        case 'u': {
          unsigned Code = 0;
          if (!hex4(Code))
            return false;
          appendUtf8(Out, Code);
          continue;
        }
        default: return false;
        }
      }
      Out += C;
    }
    return consume('"');
  }

  /// Reads the four hex digits of a \u escape.
  bool hex4(unsigned &Code) {
    if (Text.size() - Pos < 4)
      return false;
    for (int I = 0; I < 4; ++I) {
      char H = Text[Pos++];
      unsigned Digit;
      if (H >= '0' && H <= '9')
        Digit = unsigned(H - '0');
      else if (H >= 'a' && H <= 'f')
        Digit = unsigned(H - 'a' + 10);
      else if (H >= 'A' && H <= 'F')
        Digit = unsigned(H - 'A' + 10);
      else
        return false;
      Code = Code * 16 + Digit;
    }
    return true;
  }

  /// Appends basic-multilingual-plane code point \p Code as UTF-8.
  static void appendUtf8(std::string &Out, unsigned Code) {
    if (Code < 0x80) {
      Out += char(Code);
    } else if (Code < 0x800) {
      Out += char(0xC0 | (Code >> 6));
      Out += char(0x80 | (Code & 0x3F));
    } else {
      Out += char(0xE0 | (Code >> 12));
      Out += char(0x80 | ((Code >> 6) & 0x3F));
      Out += char(0x80 | (Code & 0x3F));
    }
  }

  bool value(Value &Out) {
    skipWs();
    if (Pos >= Text.size())
      return false;
    char C = Text[Pos];
    if (C == '{') {
      ++Pos;
      Out.K = Value::Kind::Object;
      skipWs();
      if (consume('}'))
        return true;
      do {
        std::string Key;
        Value Member;
        if (!string(Key) || !consume(':') || !value(Member))
          return false;
        Out.Obj.emplace_back(std::move(Key), std::move(Member));
      } while (consume(','));
      return consume('}');
    }
    if (C == '[') {
      ++Pos;
      Out.K = Value::Kind::Array;
      skipWs();
      if (consume(']'))
        return true;
      do {
        Value Item;
        if (!value(Item))
          return false;
        Out.Arr.push_back(std::move(Item));
      } while (consume(','));
      return consume(']');
    }
    if (C == '"') {
      Out.K = Value::Kind::String;
      return string(Out.Str);
    }
    if (C == 't') {
      Out.K = Value::Kind::Bool;
      Out.B = true;
      return literal("true");
    }
    if (C == 'f') {
      Out.K = Value::Kind::Bool;
      return literal("false");
    }
    if (C == 'n')
      return literal("null");
    // Number: RFC 8259's grammar, read as a finite double.
    size_t Start = Pos;
    if (!number())
      return false;
    Out.K = Value::Kind::Number;
    return parseDecimal(Text.substr(Start, Pos - Start), Out.Num);
  }

  /// Advances over one number in RFC 8259's grammar: an optional minus,
  /// an integer part with no leading zero, then an optional fraction and
  /// an optional exponent, each with at least one digit.
  bool number() {
    auto Accept = [&](std::string_view Chars) {
      bool Found = Pos < Text.size() &&
                   Chars.find(Text[Pos]) != std::string_view::npos;
      Pos += Found;
      return Found;
    };
    auto Digits = [&] {
      size_t From = Pos;
      while (Accept("0123456789"))
        ;
      return Pos > From;
    };
    Accept("-");
    if (!Accept("0") && !Digits())
      return false;
    if (Accept(".") && !Digits())
      return false;
    if (Accept("eE")) {
      Accept("+-");
      return Digits();
    }
    return true;
  }

  std::string_view Text;
  size_t Pos = 0;
};

} // namespace

bool parse(std::string_view Text, Value &Out) {
  return Parser(Text).parse(Out);
}

void appendString(std::string &Out, std::string_view S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\r': Out += "\\r"; break;
    case '\t': Out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", unsigned(C));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

std::string number(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

} // namespace parcs::json
