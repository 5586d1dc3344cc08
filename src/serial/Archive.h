//===- serial/Archive.h - Byte-level serialisation --------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary archives: the byte-level layer of the serialisation stack.  All
/// remoting stacks encode calls through these, so wire sizes in the network
/// model are the sizes of real encoded buffers.
///
/// Encoding: little-endian fixed-width integers, IEEE doubles via bit_cast,
/// strings and vectors length-prefixed with uint32.  Reads are
/// bounds-checked: InputArchive never reads past the buffer and turns
/// malformed input into a sticky failure state (checked via ok() or the
/// per-read bool), since wire bytes are *input*, not trusted state.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SERIAL_ARCHIVE_H
#define PARCS_SERIAL_ARCHIVE_H

#include "support/Error.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace parcs::serial {

using Bytes = std::vector<uint8_t>;

namespace detail {
/// Stores \p Value's little-endian bytes at \p Out.
template <typename T> void storeLittleEndian(uint8_t *Out, T Value) {
  auto U = static_cast<std::make_unsigned_t<T>>(Value);
  for (size_t I = 0; I < sizeof(T); ++I)
    Out[I] = static_cast<uint8_t>(U >> (8 * I));
}
} // namespace detail

/// Appends encoded values to a byte buffer.
class OutputArchive {
public:
  OutputArchive() { Buffer.reserve(InitialCapacity); }

  /// Continues an existing buffer: writes append after its current
  /// contents, and take() returns the whole thing.  Lets framing code
  /// encode straight into a reused scratch buffer (capacity survives the
  /// round trip) instead of concatenating intermediate vectors.
  explicit OutputArchive(Bytes &&Seed) : Buffer(std::move(Seed)) {}

  /// Unit (void stand-in) occupies no bytes.
  void write(Unit) {}

  void write(bool Value) { write(static_cast<uint8_t>(Value ? 1 : 0)); }

  /// Writes any non-bool integral type little-endian, as one append.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  void write(T Value) {
    uint8_t Raw[sizeof(T)];
    detail::storeLittleEndian(Raw, Value);
    writeRaw(Raw, sizeof(T));
  }

  void write(double Value) {
    uint64_t Bits;
    std::memcpy(&Bits, &Value, sizeof(Bits));
    write(Bits);
  }

  void write(float Value) {
    uint32_t Bits;
    std::memcpy(&Bits, &Value, sizeof(Bits));
    write(Bits);
  }

  void write(const std::string &Value) { write(std::string_view(Value)); }

  /// Byte-identical to write(const std::string &) -- lets the envelope
  /// encoders write names without materialising a std::string temporary.
  /// Inserts via raw pointers: char iterators here trip a GCC 12
  /// -Wstringop-overflow false positive when inlined into encodeValues.
  void write(std::string_view Value) {
    write(static_cast<uint32_t>(Value.size()));
    const auto *Data = reinterpret_cast<const uint8_t *>(Value.data());
    Buffer.insert(Buffer.end(), Data, Data + Value.size());
  }

  template <typename T> void write(const std::vector<T> &Values) {
    write(static_cast<uint32_t>(Values.size()));
    if constexpr (std::is_same_v<T, uint8_t>) {
      // A byte array is its own encoding: one bulk copy.
      writeRaw(Values.data(), Values.size());
    } else if constexpr (std::is_arithmetic_v<T>) {
      // Hot path for numeric arrays (the ping-pong payloads).
      for (const T &Value : Values)
        write(Value);
    } else {
      for (const T &Value : Values)
        write(Value);
    }
  }

  template <typename A, typename B> void write(const std::pair<A, B> &Value) {
    write(Value.first);
    write(Value.second);
  }

  template <typename K, typename V> void write(const std::map<K, V> &Values) {
    write(static_cast<uint32_t>(Values.size()));
    for (const auto &[Key, Value] : Values) {
      write(Key);
      write(Value);
    }
  }

  /// Structured types opt in by providing `void encode(OutputArchive&)
  /// const` (e.g. scoopp::ParallelRef).
  template <typename T>
    requires requires(const T &Value, OutputArchive &Archive) {
      Value.encode(Archive);
    }
  void write(const T &Value) {
    Value.encode(*this);
  }

  /// Appends raw bytes without a length prefix.
  void writeRaw(const uint8_t *Data, size_t Size) {
    Buffer.insert(Buffer.end(), Data, Data + Size);
  }
  void writeRaw(const Bytes &Data) { writeRaw(Data.data(), Data.size()); }

  size_t size() const { return Buffer.size(); }
  const Bytes &bytes() const { return Buffer; }
  Bytes take() { return std::move(Buffer); }

private:
  /// Capacity a fresh archive starts with: enough for a typical call body
  /// or argument pack, so a small message costs one allocation instead of
  /// a chain of doublings.
  static constexpr size_t InitialCapacity = 64;

  Bytes Buffer;
};

/// Writes OutputArchive's encoding into a region of known size: framing
/// code that sizes a message up front writes its body straight into the
/// wire buffer with it, instead of building the body in an archive of its
/// own and copying it over.
class SpanWriter {
public:
  SpanWriter(uint8_t *Data, size_t Size) : Pos(Data), End(Data + Size) {}

  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  void write(T Value) {
    assert(sizeof(T) <= static_cast<size_t>(End - Pos) && "region overrun");
    detail::storeLittleEndian(Pos, Value);
    Pos += sizeof(T);
  }

  /// Length-prefixed, as OutputArchive::write(std::string_view).
  void write(std::string_view Value) {
    write(static_cast<uint32_t>(Value.size()));
    writeRaw(reinterpret_cast<const uint8_t *>(Value.data()), Value.size());
  }

  void writeRaw(const uint8_t *Data, size_t Size) {
    assert(Size <= static_cast<size_t>(End - Pos) && "region overrun");
    if (Size)
      std::memcpy(Pos, Data, Size);
    Pos += Size;
  }
  void writeRaw(std::span<const uint8_t> Data) {
    writeRaw(Data.data(), Data.size());
  }

  /// True once exactly the whole region has been written.
  bool full() const { return Pos == End; }

private:
  uint8_t *Pos;
  uint8_t *End;
};

/// Reads encoded values back out of a byte buffer.  All reads are
/// bounds-checked; after any failure the archive is sticky-failed and all
/// further reads return defaults.
class InputArchive {
public:
  explicit InputArchive(const Bytes &Buffer)
      : Data(Buffer.data()), Size(Buffer.size()) {}
  InputArchive(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit InputArchive(std::span<const uint8_t> Buffer)
      : Data(Buffer.data()), Size(Buffer.size()) {}

  bool ok() const { return !Failed; }
  size_t remaining() const { return Size - Pos; }
  bool atEnd() const { return Pos == Size; }

  bool read(Unit &) { return !Failed; }

  bool read(bool &Out) {
    uint8_t Raw = 0;
    if (!read(Raw))
      return false;
    Out = Raw != 0;
    return true;
  }

  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  bool read(T &Out) {
    if (!require(sizeof(T)))
      return false;
    std::make_unsigned_t<T> U = 0;
    for (size_t I = 0; I < sizeof(T); ++I)
      U |= static_cast<std::make_unsigned_t<T>>(Data[Pos + I]) << (8 * I);
    Out = static_cast<T>(U);
    Pos += sizeof(T);
    return true;
  }

  bool read(double &Out) {
    uint64_t Bits = 0;
    if (!read(Bits))
      return false;
    std::memcpy(&Out, &Bits, sizeof(Out));
    return true;
  }

  bool read(float &Out) {
    uint32_t Bits = 0;
    if (!read(Bits))
      return false;
    std::memcpy(&Out, &Bits, sizeof(Out));
    return true;
  }

  bool read(std::string &Out) {
    uint32_t Len = 0;
    if (!read(Len) || !require(Len))
      return false;
    Out.assign(reinterpret_cast<const char *>(Data + Pos), Len);
    Pos += Len;
    return true;
  }

  template <typename T> bool read(std::vector<T> &Out) {
    uint32_t Count = 0;
    if (!read(Count))
      return false;
    // Reject counts that cannot possibly fit in the remaining bytes, so a
    // corrupt length cannot trigger a huge allocation.  Every element
    // encoding occupies at least one byte.
    if constexpr (std::is_same_v<T, uint8_t>) {
      return readRaw(Out, Count);
    } else if constexpr (std::is_arithmetic_v<T>) {
      if (!require(static_cast<size_t>(Count) * sizeof(T)))
        return false;
    } else if (Count > remaining()) {
      Failed = true;
      return false;
    }
    Out.clear();
    Out.reserve(Count);
    for (uint32_t I = 0; I < Count; ++I) {
      T Value{};
      if (!read(Value))
        return false;
      Out.push_back(std::move(Value));
    }
    return true;
  }

  template <typename A, typename B> bool read(std::pair<A, B> &Out) {
    return read(Out.first) && read(Out.second);
  }

  template <typename K, typename V> bool read(std::map<K, V> &Out) {
    uint32_t Count = 0;
    if (!read(Count))
      return false;
    if (Count > remaining()) { // Each entry occupies at least one byte.
      Failed = true;
      return false;
    }
    Out.clear();
    for (uint32_t I = 0; I < Count; ++I) {
      K Key{};
      V Value{};
      if (!read(Key) || !read(Value))
        return false;
      Out.emplace(std::move(Key), std::move(Value));
    }
    return true;
  }

  /// Structured types opt in by providing a static
  /// `bool decode(InputArchive&, T&)` (e.g. scoopp::ParallelRef).
  template <typename T>
    requires requires(InputArchive &Archive, T &Out) {
      { T::decode(Archive, Out) } -> std::convertible_to<bool>;
    }
  bool read(T &Out) {
    if (Failed)
      return false;
    if (!T::decode(*this, Out)) {
      Failed = true;
      return false;
    }
    return true;
  }

  /// Reads \p Count raw bytes.
  bool readRaw(Bytes &Out, size_t Count) {
    if (!require(Count))
      return false;
    Out.assign(Data + Pos, Data + Pos + Count);
    Pos += Count;
    return true;
  }

  /// Reads all remaining bytes.
  bool readRemaining(Bytes &Out) { return readRaw(Out, remaining()); }

  /// Zero-copy reads: views into the archive's buffer, valid as long as
  /// it is.  A length-prefixed string, \p Count raw bytes, and the rest.
  bool readView(std::string_view &Out) {
    uint32_t Len = 0;
    if (!read(Len) || !require(Len))
      return false;
    Out = std::string_view(reinterpret_cast<const char *>(Data + Pos), Len);
    Pos += Len;
    return true;
  }
  bool readView(std::span<const uint8_t> &Out, size_t Count) {
    if (!require(Count))
      return false;
    Out = std::span<const uint8_t>(Data + Pos, Count);
    Pos += Count;
    return true;
  }
  std::span<const uint8_t> remainingView() const {
    return std::span<const uint8_t>(Data + Pos, Size - Pos);
  }

private:
  bool require(size_t Count) {
    if (Failed || Count > Size - Pos) {
      Failed = true;
      return false;
    }
    return true;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
};

/// Encodes a fixed sequence of values into one buffer (method-call
/// argument packing).  No values, or Units alone, encode as an empty
/// buffer with no storage: a void reply or a no-argument call.
template <typename... Ts> Bytes encodeValues(const Ts &...Values) {
  if constexpr ((std::is_same_v<Ts, Unit> && ...)) {
    ((void)Values, ...);
    return Bytes{};
  } else {
    OutputArchive Archive;
    (Archive.write(Values), ...);
    return Archive.take();
  }
}

/// Decodes exactly the values encoded by encodeValues; fails on trailing
/// bytes so truncation/corruption cannot pass silently.
template <typename... Ts> bool decodeValues(const Bytes &Data, Ts &...Out) {
  InputArchive Archive(Data);
  bool Ok = (Archive.read(Out) && ...);
  return Ok && Archive.atEnd();
}

/// Decodes a call's result bytes as one \p Ret: a failed call's error
/// passes through, and bytes that do not decode as \p Ret are a
/// MalformedMessage.
template <typename Ret> ErrorOr<Ret> decodeResult(const ErrorOr<Bytes> &Raw) {
  if (!Raw)
    return Raw.error();
  Ret Value{};
  if (!decodeValues(*Raw, Value))
    return Error(ErrorCode::MalformedMessage, "result bytes did not decode");
  return Value;
}

} // namespace parcs::serial

#endif // PARCS_SERIAL_ARCHIVE_H
