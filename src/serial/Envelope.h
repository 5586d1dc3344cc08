//===- serial/Envelope.h - Wire formats -------------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Message envelopes of the protocol stacks the paper compares.  Each
/// format really encodes/decodes, so the byte overheads that differentiate
/// the stacks in Fig. 8 are produced by real framing, not fudge factors:
///
///  - MpiPack: a bare length-prefixed buffer (MPI messages are packed flat
///    buffers with out-of-band tag/rank);
///  - NetBinary: the .Net Remoting TcpChannel binary formatter shape --
///    small fixed header plus the method/message name;
///  - JavaStream: the Java object-stream shape used by RMI -- stream magic
///    plus a class-descriptor block naming the type, field count and
///    serialVersionUID; noticeably chattier than NetBinary;
///  - NetSoap: the HttpChannel's SOAP formatter -- a real XML envelope
///    with the binary payload base64-encoded (4/3 inflation plus tags).
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SERIAL_ENVELOPE_H
#define PARCS_SERIAL_ENVELOPE_H

#include "serial/Archive.h"
#include "support/Error.h"

#include <span>
#include <string>
#include <string_view>

namespace parcs::serial {

/// The wire formats used by the modelled stacks.
enum class WireFormat {
  MpiPack,    ///< Flat packed buffer (MPI).
  NetBinary,  ///< .Net Remoting binary formatter (TcpChannel).
  JavaStream, ///< Java object stream (RMI).
  NetSoap,    ///< .Net Remoting SOAP formatter (HttpChannel).
};

const char *wireFormatName(WireFormat Format);

/// A decoded envelope: the message name (empty for MpiPack) and payload.
struct Envelope {
  std::string Name;
  Bytes Payload;
};

/// An envelope decoded in place: Name and Payload point into the bytes it
/// was decoded from -- except a NetSoap payload, which is base64 text on
/// the wire and is decoded into Decoded, which the view owns.
struct EnvelopeView {
  std::string_view Name;
  std::span<const uint8_t> Payload;
  /// NetSoap only: the decoded payload bytes Payload points into.
  Bytes Decoded;

  /// Returns \p Part -- a range of Payload -- as a Bytes of its own without
  /// copying it into fresh storage: takes over the buffer Part lives in
  /// (Decoded, or else \p Frame, the buffer this view was decoded from),
  /// moves Part to its front and trims it.  Ends the view.
  Bytes adopt(Bytes &Frame, std::span<const uint8_t> Part);
};

/// Bytes of \p Format's envelope around a \p PayloadSize-byte payload
/// named by a \p NameSize-byte name.
size_t envelopeSize(WireFormat Format, size_t NameSize, size_t PayloadSize);

/// Appends \p Format's envelope up to its payload to \p Out, makes room
/// for the payload and returns where its \p PayloadSize bytes go.  The
/// caller writes exactly that many bytes there, then calls closeEnvelope:
/// framing code writes a message body straight into the wire buffer.
uint8_t *openEnvelope(WireFormat Format, std::string_view Name,
                      size_t PayloadSize, Bytes &Out);
/// Finishes the envelope openEnvelope began (NetSoap base64-encodes the
/// payload in place and closes its tags; the binary formats end with the
/// payload).
void closeEnvelope(WireFormat Format, std::string_view Name,
                   size_t PayloadSize, Bytes &Out);

/// Wraps \p Payload in \p Format's framing.  \p Name is the logical
/// message/method name carried by the self-describing formats.
Bytes encodeEnvelope(WireFormat Format, std::string_view Name,
                     const Bytes &Payload);

/// Appends \p Payload's envelope to \p Out, which may already hold a
/// prefix (the message kind byte).
void encodeEnvelopeInto(WireFormat Format, std::string_view Name,
                        const Bytes &Payload, Bytes &Out);

/// Parses (\p Data, \p Size) -- the one decoder per format.  The view is
/// valid as long as those bytes are.
ErrorOr<EnvelopeView> decodeEnvelopeView(WireFormat Format,
                                         const uint8_t *Data, size_t Size);

/// Parses a buffer produced by encodeEnvelope into an envelope that owns
/// copies of its name and payload.
ErrorOr<Envelope> decodeEnvelope(WireFormat Format, const Bytes &Wire);
ErrorOr<Envelope> decodeEnvelope(WireFormat Format, const uint8_t *Data,
                                 size_t Size);

/// Base64 used by the SOAP formatter (exposed for tests).
std::string base64Encode(const Bytes &Data);
ErrorOr<Bytes> base64Decode(std::string_view Text);

} // namespace parcs::serial

#endif // PARCS_SERIAL_ENVELOPE_H
