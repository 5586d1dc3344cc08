//===- serial/Envelope.cpp ------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "serial/Envelope.h"

#include "support/Compiler.h"

#include <array>
#include <cstring>
#include <iterator>

using namespace parcs;
using namespace parcs::serial;

const char *parcs::serial::wireFormatName(WireFormat Format) {
  switch (Format) {
  case WireFormat::MpiPack:
    return "mpi-pack";
  case WireFormat::NetBinary:
    return "net-binary";
  case WireFormat::JavaStream:
    return "java-stream";
  case WireFormat::NetSoap:
    return "net-soap";
  }
  PARCS_UNREACHABLE("unhandled WireFormat");
}

//===----------------------------------------------------------------------===//
// Base64
//===----------------------------------------------------------------------===//

static const char Base64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

static size_t base64Size(size_t Size) { return (Size + 2) / 3 * 4; }

// PARCS_HOT_BEGIN(base64-encode): runs once per SOAP-framed message body.

/// Encodes \p Size bytes at \p Data into base64Size(Size) characters at
/// \p Out, front to back, reading each group before writing it.  So \p Out
/// may also lie in front of \p Data in the same buffer, ending where Data
/// ends: the SOAP envelope encodes its payload in place that way.
template <typename CharT>
static void base64EncodeRaw(const uint8_t *Data, size_t Size, CharT *Out) {
  size_t I = 0;
  for (; I + 3 <= Size; I += 3) {
    uint32_t Triple = (static_cast<uint32_t>(Data[I]) << 16) |
                      (static_cast<uint32_t>(Data[I + 1]) << 8) |
                      static_cast<uint32_t>(Data[I + 2]);
    *Out++ = static_cast<CharT>(Base64Alphabet[(Triple >> 18) & 0x3f]);
    *Out++ = static_cast<CharT>(Base64Alphabet[(Triple >> 12) & 0x3f]);
    *Out++ = static_cast<CharT>(Base64Alphabet[(Triple >> 6) & 0x3f]);
    *Out++ = static_cast<CharT>(Base64Alphabet[Triple & 0x3f]);
  }
  size_t Rest = Size - I;
  if (Rest == 0)
    return;
  uint32_t Triple = static_cast<uint32_t>(Data[I]) << 16;
  if (Rest == 2)
    Triple |= static_cast<uint32_t>(Data[I + 1]) << 8;
  *Out++ = static_cast<CharT>(Base64Alphabet[(Triple >> 18) & 0x3f]);
  *Out++ = static_cast<CharT>(Base64Alphabet[(Triple >> 12) & 0x3f]);
  *Out++ = static_cast<CharT>(Rest == 2 ? Base64Alphabet[(Triple >> 6) & 0x3f]
                                        : '=');
  *Out = static_cast<CharT>('=');
}

// PARCS_HOT_END

std::string parcs::serial::base64Encode(const Bytes &Data) {
  std::string Out(base64Size(Data.size()), '\0');
  base64EncodeRaw(Data.data(), Data.size(), Out.data());
  return Out;
}

static int base64Value(char C) {
  if (C >= 'A' && C <= 'Z')
    return C - 'A';
  if (C >= 'a' && C <= 'z')
    return C - 'a' + 26;
  if (C >= '0' && C <= '9')
    return C - '0' + 52;
  if (C == '+')
    return 62;
  if (C == '/')
    return 63;
  return -1;
}

ErrorOr<Bytes> parcs::serial::base64Decode(std::string_view Text) {
  if (Text.size() % 4 != 0)
    return Error(ErrorCode::MalformedMessage, "base64 length not 4-aligned");
  Bytes Out;
  Out.reserve(Text.size() / 4 * 3);
  for (size_t I = 0; I < Text.size(); I += 4) {
    int Pad = 0;
    std::array<int, 4> Vals = {0, 0, 0, 0};
    for (size_t J = 0; J < 4; ++J) {
      char C = Text[I + J];
      if (C == '=') {
        // Padding is only legal in the last two positions of the final
        // group.
        if (I + 4 != Text.size() || J < 2)
          return Error(ErrorCode::MalformedMessage, "misplaced base64 pad");
        ++Pad;
        Vals[J] = 0;
        continue;
      }
      if (Pad > 0)
        return Error(ErrorCode::MalformedMessage, "data after base64 pad");
      int V = base64Value(C);
      if (V < 0)
        return Error(ErrorCode::MalformedMessage, "invalid base64 character");
      Vals[J] = V;
    }
    uint32_t Triple = (static_cast<uint32_t>(Vals[0]) << 18) |
                      (static_cast<uint32_t>(Vals[1]) << 12) |
                      (static_cast<uint32_t>(Vals[2]) << 6) |
                      static_cast<uint32_t>(Vals[3]);
    Out.push_back(static_cast<uint8_t>((Triple >> 16) & 0xff));
    if (Pad < 2)
      Out.push_back(static_cast<uint8_t>((Triple >> 8) & 0xff));
    if (Pad < 1)
      Out.push_back(static_cast<uint8_t>(Triple & 0xff));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Envelopes
//===----------------------------------------------------------------------===//

namespace {

/// ".Net binary formatter" header magic.
constexpr uint32_t NetBinaryMagic = 0x4e424631; // "NBF1"
/// Java object stream magic (java.io.ObjectStreamConstants).
constexpr uint16_t JavaStreamMagic = 0xaced;
constexpr uint16_t JavaStreamVersion = 5;
constexpr uint8_t JavaClassDesc = 0x72;    // TC_CLASSDESC
constexpr uint8_t JavaEndBlockData = 0x78; // TC_ENDBLOCKDATA
constexpr uint64_t JavaSuid = 0x123456789abcdef0ULL;
constexpr uint8_t JavaSerializable = 0x02; // SC_SERIALIZABLE
/// A synthetic field table: RMI streams describe each field; we model a
/// fixed three-entry table naming payload/length/checksum.
constexpr std::string_view JavaFields[] = {"payload", "length", "checksum"};

/// The SOAP envelope around the body element <i:Name>base64</i:Name>.
constexpr std::string_view SoapHead =
    "<SOAP-ENV:Envelope xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/"
    "soap/envelope/\" xmlns:i=\"http://www.w3.org/2001/"
    "XMLSchema-instance\">\n"
    "<SOAP-ENV:Body>\n";
constexpr std::string_view SoapTail = "</SOAP-ENV:Body>\n"
                                      "</SOAP-ENV:Envelope>\n";

void appendText(Bytes &Out, std::string_view Text) {
  Out.insert(Out.end(), Text.begin(), Text.end());
}

} // namespace

size_t parcs::serial::envelopeSize(WireFormat Format, size_t NameSize,
                                   size_t PayloadSize) {
  switch (Format) {
  case WireFormat::MpiPack:
    return 4 + PayloadSize;
  case WireFormat::NetBinary:
    return 4 + 1 + (4 + NameSize) + 4 + PayloadSize;
  case WireFormat::JavaStream: {
    size_t Fields = 0;
    for (std::string_view Field : JavaFields)
      Fields += 4 + Field.size();
    return 2 + 2 + 1 + (4 + NameSize) + 8 + 1 + 2 + Fields + 1 + 4 +
           PayloadSize;
  }
  case WireFormat::NetSoap:
    return SoapHead.size() + (3 + NameSize + 1) + base64Size(PayloadSize) +
           (4 + NameSize + 2) + SoapTail.size();
  }
  PARCS_UNREACHABLE("unhandled WireFormat");
}

// PARCS_HOT_BEGIN(envelope-framing): once per message on the send path;
// the envelope is emitted around the payload's place in the caller's wire
// buffer, with no intermediate buffer.

uint8_t *parcs::serial::openEnvelope(WireFormat Format, std::string_view Name,
                                     size_t PayloadSize, Bytes &Out) {
  if (Format == WireFormat::NetSoap) {
    appendText(Out, SoapHead);
    appendText(Out, "<i:");
    appendText(Out, Name);
    appendText(Out, ">");
    // The payload goes at the end of its base64 text's place;
    // closeEnvelope encodes it forward from there.
    Out.resize(Out.size() + base64Size(PayloadSize));
    return Out.data() + Out.size() - PayloadSize;
  }
  OutputArchive Archive(std::move(Out));
  switch (Format) {
  case WireFormat::MpiPack:
    break;
  case WireFormat::NetBinary:
    Archive.write(NetBinaryMagic);
    Archive.write(static_cast<uint8_t>(1)); // Formatter version.
    Archive.write(Name);
    break;
  case WireFormat::JavaStream:
    // The shape (not the exact bytes) of a Java serialisation stream:
    // magic, version, then a class descriptor carrying the class name, a
    // serialVersionUID, flags and a field table before the data itself.
    Archive.write(JavaStreamMagic);
    Archive.write(JavaStreamVersion);
    Archive.write(JavaClassDesc);
    Archive.write(Name);
    Archive.write(JavaSuid);
    Archive.write(JavaSerializable);
    Archive.write(static_cast<uint16_t>(std::size(JavaFields)));
    for (std::string_view Field : JavaFields)
      Archive.write(Field);
    Archive.write(JavaEndBlockData);
    break;
  case WireFormat::NetSoap:
    PARCS_UNREACHABLE("handled above");
  }
  Archive.write(static_cast<uint32_t>(PayloadSize));
  Out = Archive.take();
  Out.resize(Out.size() + PayloadSize);
  return Out.data() + Out.size() - PayloadSize;
}

void parcs::serial::closeEnvelope(WireFormat Format, std::string_view Name,
                                  size_t PayloadSize, Bytes &Out) {
  if (Format != WireFormat::NetSoap)
    return;
  uint8_t *Text = Out.data() + Out.size() - base64Size(PayloadSize);
  base64EncodeRaw(Out.data() + Out.size() - PayloadSize, PayloadSize, Text);
  appendText(Out, "</i:");
  appendText(Out, Name);
  appendText(Out, ">\n");
  appendText(Out, SoapTail);
}

void parcs::serial::encodeEnvelopeInto(WireFormat Format,
                                       std::string_view Name,
                                       const Bytes &Payload, Bytes &Out) {
  uint8_t *At = openEnvelope(Format, Name, Payload.size(), Out);
  if (!Payload.empty())
    std::memcpy(At, Payload.data(), Payload.size());
  closeEnvelope(Format, Name, Payload.size(), Out);
}

// PARCS_HOT_END

Bytes parcs::serial::encodeEnvelope(WireFormat Format, std::string_view Name,
                                    const Bytes &Payload) {
  Bytes Out;
  Out.reserve(envelopeSize(Format, Name.size(), Payload.size()));
  encodeEnvelopeInto(Format, Name, Payload, Out);
  return Out;
}

namespace {

// PARCS_HOT_BEGIN(envelope-decode): every received call and reply is
// parsed here.  The binary formats only point into the frame; NetSoap
// decodes its base64 text into the one buffer the view owns.

ErrorOr<EnvelopeView> decodeMpiPack(InputArchive &Archive) {
  uint32_t Size = 0;
  EnvelopeView View;
  if (!Archive.read(Size) || !Archive.readView(View.Payload, Size))
    return Error(ErrorCode::MalformedMessage, "truncated mpi-pack buffer");
  return View;
}

ErrorOr<EnvelopeView> decodeNetBinary(InputArchive &Archive) {
  uint32_t Magic = 0;
  uint8_t Version = 0;
  uint32_t Size = 0;
  EnvelopeView View;
  if (!Archive.read(Magic) || Magic != NetBinaryMagic)
    return Error(ErrorCode::MalformedMessage, "bad net-binary magic");
  if (!Archive.read(Version) || Version != 1)
    return Error(ErrorCode::MalformedMessage, "bad net-binary version");
  if (!Archive.readView(View.Name) || !Archive.read(Size) ||
      !Archive.readView(View.Payload, Size))
    return Error(ErrorCode::MalformedMessage, "truncated net-binary buffer");
  return View;
}

ErrorOr<EnvelopeView> decodeJavaStream(InputArchive &Archive) {
  uint16_t Magic = 0, Version = 0;
  if (!Archive.read(Magic) || Magic != JavaStreamMagic)
    return Error(ErrorCode::MalformedMessage, "bad java stream magic");
  if (!Archive.read(Version) || Version != JavaStreamVersion)
    return Error(ErrorCode::MalformedMessage, "bad java stream version");
  uint8_t Tag = 0;
  uint64_t Suid = 0;
  uint8_t Flags = 0;
  uint16_t FieldCount = 0;
  EnvelopeView View;
  if (!Archive.read(Tag) || Tag != JavaClassDesc ||
      !Archive.readView(View.Name) || !Archive.read(Suid) ||
      !Archive.read(Flags) || !Archive.read(FieldCount))
    return Error(ErrorCode::MalformedMessage, "bad java class descriptor");
  for (uint16_t I = 0; I < FieldCount; ++I) {
    std::string_view Field;
    if (!Archive.readView(Field))
      return Error(ErrorCode::MalformedMessage, "bad java field table");
  }
  uint8_t End = 0;
  uint32_t Size = 0;
  if (!Archive.read(End) || End != JavaEndBlockData || !Archive.read(Size) ||
      !Archive.readView(View.Payload, Size))
    return Error(ErrorCode::MalformedMessage, "truncated java stream");
  return View;
}

ErrorOr<EnvelopeView> decodeNetSoap(const uint8_t *Data, size_t Size) {
  std::string_view Xml(reinterpret_cast<const char *>(Data), Size);
  size_t OpenStart = Xml.find("<i:");
  if (OpenStart == std::string_view::npos)
    return Error(ErrorCode::MalformedMessage, "soap body element missing");
  size_t OpenEnd = Xml.find('>', OpenStart);
  if (OpenEnd == std::string_view::npos)
    return Error(ErrorCode::MalformedMessage, "soap body tag unterminated");
  EnvelopeView View;
  View.Name = Xml.substr(OpenStart + 3, OpenEnd - OpenStart - 3);
  std::string CloseTag = "</i:";
  CloseTag.append(View.Name).append(">");
  size_t Close = Xml.find(CloseTag, OpenEnd);
  if (Close == std::string_view::npos)
    return Error(ErrorCode::MalformedMessage, "soap close tag missing");
  ErrorOr<Bytes> Decoded =
      base64Decode(Xml.substr(OpenEnd + 1, Close - OpenEnd - 1));
  if (!Decoded)
    return Decoded.error();
  View.Decoded = Decoded.take();
  View.Payload = View.Decoded;
  return View;
}

} // namespace

ErrorOr<EnvelopeView> parcs::serial::decodeEnvelopeView(WireFormat Format,
                                                        const uint8_t *Data,
                                                        size_t Size) {
  InputArchive Archive(Data, Size);
  switch (Format) {
  case WireFormat::MpiPack:
    return decodeMpiPack(Archive);
  case WireFormat::NetBinary:
    return decodeNetBinary(Archive);
  case WireFormat::JavaStream:
    return decodeJavaStream(Archive);
  case WireFormat::NetSoap:
    return decodeNetSoap(Data, Size);
  }
  PARCS_UNREACHABLE("unhandled WireFormat");
}

Bytes EnvelopeView::adopt(Bytes &Frame, std::span<const uint8_t> Part) {
  if (Part.empty())
    return Bytes();
  Bytes &Owner = Decoded.empty() ? Frame : Decoded;
  assert(Part.data() >= Owner.data() &&
         Part.data() + Part.size() <= Owner.data() + Owner.size() &&
         "adopting bytes from outside the envelope's buffer");
  if (Part.data() != Owner.data())
    std::memmove(Owner.data(), Part.data(), Part.size());
  Owner.resize(Part.size());
  return std::move(Owner);
}

// PARCS_HOT_END

ErrorOr<Envelope> parcs::serial::decodeEnvelope(WireFormat Format,
                                                const Bytes &Wire) {
  return decodeEnvelope(Format, Wire.data(), Wire.size());
}

ErrorOr<Envelope> parcs::serial::decodeEnvelope(WireFormat Format,
                                                const uint8_t *Data,
                                                size_t Size) {
  ErrorOr<EnvelopeView> View = decodeEnvelopeView(Format, Data, Size);
  if (!View)
    return View.error();
  Envelope Env;
  Env.Name = View->Name;
  if (!View->Decoded.empty())
    Env.Payload = std::move(View->Decoded);
  else
    Env.Payload.assign(View->Payload.begin(), View->Payload.end());
  return Env;
}
