//===- tests/SerialTest.cpp - serialisation tests -------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "serial/Archive.h"
#include "serial/Envelope.h"
#include "serial/ObjectGraph.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace parcs;
using namespace parcs::serial;

namespace {

//===----------------------------------------------------------------------===//
// Archive round trips
//===----------------------------------------------------------------------===//

TEST(ArchiveTest, PrimitiveRoundTrip) {
  OutputArchive Out;
  Out.write(static_cast<uint8_t>(0xab));
  Out.write(static_cast<int32_t>(-12345));
  Out.write(static_cast<uint64_t>(0x1122334455667788ULL));
  Out.write(true);
  Out.write(3.14159);
  Out.write(2.5f);
  Out.write(std::string("hello"));

  InputArchive In(Out.bytes());
  uint8_t U8 = 0;
  int32_t I32 = 0;
  uint64_t U64 = 0;
  bool Flag = false;
  double D = 0;
  float F = 0;
  std::string S;
  EXPECT_TRUE(In.read(U8));
  EXPECT_TRUE(In.read(I32));
  EXPECT_TRUE(In.read(U64));
  EXPECT_TRUE(In.read(Flag));
  EXPECT_TRUE(In.read(D));
  EXPECT_TRUE(In.read(F));
  EXPECT_TRUE(In.read(S));
  EXPECT_TRUE(In.atEnd());
  EXPECT_EQ(U8, 0xab);
  EXPECT_EQ(I32, -12345);
  EXPECT_EQ(U64, 0x1122334455667788ULL);
  EXPECT_TRUE(Flag);
  EXPECT_DOUBLE_EQ(D, 3.14159);
  EXPECT_FLOAT_EQ(F, 2.5f);
  EXPECT_EQ(S, "hello");
}

TEST(ArchiveTest, LittleEndianLayout) {
  OutputArchive Out;
  Out.write(static_cast<uint32_t>(0x11223344));
  ASSERT_EQ(Out.size(), 4u);
  EXPECT_EQ(Out.bytes()[0], 0x44);
  EXPECT_EQ(Out.bytes()[3], 0x11);
}

TEST(ArchiveTest, VectorRoundTrip) {
  OutputArchive Out;
  std::vector<int32_t> Ints = {1, -2, 3, -4};
  std::vector<std::string> Names = {"a", "bb", ""};
  Out.write(Ints);
  Out.write(Names);
  InputArchive In(Out.bytes());
  std::vector<int32_t> Ints2;
  std::vector<std::string> Names2;
  EXPECT_TRUE(In.read(Ints2));
  EXPECT_TRUE(In.read(Names2));
  EXPECT_EQ(Ints, Ints2);
  EXPECT_EQ(Names, Names2);
}

TEST(ArchiveTest, TruncatedReadFailsSticky) {
  OutputArchive Out;
  Out.write(static_cast<uint16_t>(7));
  InputArchive In(Out.bytes());
  uint32_t Big = 0;
  EXPECT_FALSE(In.read(Big));
  EXPECT_FALSE(In.ok());
  uint8_t Small = 0;
  EXPECT_FALSE(In.read(Small)); // Sticky: even a fitting read now fails.
}

TEST(ArchiveTest, CorruptLengthDoesNotAllocate) {
  // A vector length of ~4 billion with a 4-byte buffer must fail cleanly.
  OutputArchive Out;
  Out.write(static_cast<uint32_t>(0xffffffff));
  InputArchive In(Out.bytes());
  std::vector<int32_t> V;
  EXPECT_FALSE(In.read(V));
}

TEST(ArchiveTest, CorruptStringLengthFails) {
  OutputArchive Out;
  Out.write(static_cast<uint32_t>(1000)); // Claims 1000 chars, has none.
  InputArchive In(Out.bytes());
  std::string S;
  EXPECT_FALSE(In.read(S));
}

TEST(ArchiveTest, RawBytesRoundTrip) {
  OutputArchive Out;
  Bytes Blob = {9, 8, 7};
  Out.writeRaw(Blob);
  InputArchive In(Out.bytes());
  Bytes Back;
  EXPECT_TRUE(In.readRemaining(Back));
  EXPECT_EQ(Back, Blob);
}

TEST(ArchiveTest, FuzzNeverCrashes) {
  // Random bytes must never crash the reader, only fail.
  Rng R(2026);
  for (int Trial = 0; Trial < 200; ++Trial) {
    Bytes Junk(R.nextBelow(64));
    for (uint8_t &B : Junk)
      B = static_cast<uint8_t>(R.nextBelow(256));
    InputArchive In(Junk);
    std::vector<std::string> V;
    std::string S;
    double D;
    (void)In.read(V);
    (void)In.read(S);
    (void)In.read(D);
  }
  SUCCEED();
}


TEST(ArchiveTest, PairAndMapRoundTrip) {
  OutputArchive Out;
  std::pair<int32_t, std::string> P = {7, "seven"};
  std::map<std::string, std::vector<int32_t>> M = {
      {"a", {1, 2}}, {"b", {}}, {"c", {3}}};
  Out.write(P);
  Out.write(M);
  InputArchive In(Out.bytes());
  std::pair<int32_t, std::string> P2;
  std::map<std::string, std::vector<int32_t>> M2;
  EXPECT_TRUE(In.read(P2));
  EXPECT_TRUE(In.read(M2));
  EXPECT_TRUE(In.atEnd());
  EXPECT_EQ(P2, P);
  EXPECT_EQ(M2, M);
}

TEST(ArchiveTest, CorruptMapCountFails) {
  OutputArchive Out;
  Out.write(static_cast<uint32_t>(1000000)); // Claims a million entries.
  InputArchive In(Out.bytes());
  std::map<int32_t, int32_t> M;
  EXPECT_FALSE(In.read(M));
}

TEST(ArchiveTest, NestedContainersRoundTrip) {
  OutputArchive Out;
  std::vector<std::pair<std::string, double>> V = {{"x", 1.5}, {"y", -2.5}};
  Out.write(V);
  InputArchive In(Out.bytes());
  std::vector<std::pair<std::string, double>> V2;
  EXPECT_TRUE(In.read(V2));
  EXPECT_EQ(V2, V);
}

//===----------------------------------------------------------------------===//
// Object graphs
//===----------------------------------------------------------------------===//

/// A passive object with a value and an optional link (list/cycle node).
class ChainNode : public SerializableObject {
public:
  static constexpr const char *TypeNameStr = "test.ChainNode";

  int32_t Value = 0;
  ChainNode *Next = nullptr;

  std::string_view typeName() const override { return TypeNameStr; }
  void writeFields(ObjectWriter &Writer) const override {
    Writer.write(Value);
    Writer.writeRef(Next);
  }
  bool readFields(ObjectReader &Reader) override {
    return Reader.read(Value) && Reader.readRefAs(Next);
  }
};

/// A second type to exercise heterogeneous graphs and cast failures.
class Label : public SerializableObject {
public:
  static constexpr const char *TypeNameStr = "test.Label";

  std::string Text;

  std::string_view typeName() const override { return TypeNameStr; }
  void writeFields(ObjectWriter &Writer) const override {
    Writer.write(Text);
  }
  bool readFields(ObjectReader &Reader) override {
    return Reader.read(Text);
  }
};

TypeRegistry makeRegistry() {
  TypeRegistry Registry;
  Registry.registerType<ChainNode>();
  Registry.registerType<Label>();
  return Registry;
}

TEST(ObjectGraphTest, NullRoot) {
  Bytes Data = encodeObjectGraph(nullptr);
  TypeRegistry Registry = makeRegistry();
  ObjectPool Pool;
  auto Root = decodeObjectGraph(Data, Registry, Pool);
  ASSERT_TRUE(Root);
  EXPECT_EQ(*Root, nullptr);
}

TEST(ObjectGraphTest, LinearChainRoundTrip) {
  ObjectPool Src;
  ChainNode *A = Src.create<ChainNode>();
  ChainNode *B = Src.create<ChainNode>();
  ChainNode *C = Src.create<ChainNode>();
  A->Value = 1;
  B->Value = 2;
  C->Value = 3;
  A->Next = B;
  B->Next = C;

  Bytes Data = encodeObjectGraph(A);
  TypeRegistry Registry = makeRegistry();
  ObjectPool Pool;
  auto Root = decodeObjectGraph(Data, Registry, Pool);
  ASSERT_TRUE(Root);
  ChainNode *A2 = objectCast<ChainNode>(*Root);
  ASSERT_NE(A2, nullptr);
  EXPECT_EQ(A2->Value, 1);
  ASSERT_NE(A2->Next, nullptr);
  EXPECT_EQ(A2->Next->Value, 2);
  ASSERT_NE(A2->Next->Next, nullptr);
  EXPECT_EQ(A2->Next->Next->Value, 3);
  EXPECT_EQ(A2->Next->Next->Next, nullptr);
  EXPECT_EQ(Pool.size(), 3u);
}

TEST(ObjectGraphTest, CycleRoundTrip) {
  ObjectPool Src;
  ChainNode *A = Src.create<ChainNode>();
  ChainNode *B = Src.create<ChainNode>();
  A->Value = 10;
  B->Value = 20;
  A->Next = B;
  B->Next = A; // Cycle.

  Bytes Data = encodeObjectGraph(A);
  TypeRegistry Registry = makeRegistry();
  ObjectPool Pool;
  auto Root = decodeObjectGraph(Data, Registry, Pool);
  ASSERT_TRUE(Root);
  ChainNode *A2 = objectCast<ChainNode>(*Root);
  ASSERT_NE(A2, nullptr);
  ASSERT_NE(A2->Next, nullptr);
  EXPECT_EQ(A2->Next->Next, A2) << "cycle must close on the same object";
  EXPECT_EQ(Pool.size(), 2u) << "sharing must not duplicate objects";
}

TEST(ObjectGraphTest, SelfLoopRoundTrip) {
  ObjectPool Src;
  ChainNode *A = Src.create<ChainNode>();
  A->Value = 42;
  A->Next = A;
  Bytes Data = encodeObjectGraph(A);
  TypeRegistry Registry = makeRegistry();
  ObjectPool Pool;
  auto Root = decodeObjectGraph(Data, Registry, Pool);
  ASSERT_TRUE(Root);
  ChainNode *A2 = objectCast<ChainNode>(*Root);
  ASSERT_NE(A2, nullptr);
  EXPECT_EQ(A2->Next, A2);
}

TEST(ObjectGraphTest, SharedSubobjectPreserved) {
  ObjectPool Src;
  ChainNode *Shared = Src.create<ChainNode>();
  Shared->Value = 7;
  ChainNode *A = Src.create<ChainNode>();
  ChainNode *B = Src.create<ChainNode>();
  A->Next = Shared;
  B->Next = Shared;
  ChainNode *Root = Src.create<ChainNode>();
  Root->Next = A;
  A->Value = 1;
  // Graph: Root -> A -> Shared, and B -> Shared (B reachable via nothing,
  // so serialise A and B explicitly through a two-field wrapper instead).
  OutputArchive Out;
  ObjectWriter Writer(Out);
  Writer.writeRef(A);
  Writer.writeRef(B);

  TypeRegistry Registry = makeRegistry();
  ObjectPool Pool;
  InputArchive In(Out.bytes());
  ObjectReader Reader(In, Registry, Pool);
  SerializableObject *OA = nullptr, *OB = nullptr;
  ASSERT_TRUE(Reader.readRef(OA));
  ASSERT_TRUE(Reader.readRef(OB));
  ChainNode *A2 = objectCast<ChainNode>(OA);
  ChainNode *B2 = objectCast<ChainNode>(OB);
  ASSERT_NE(A2, nullptr);
  ASSERT_NE(B2, nullptr);
  EXPECT_EQ(A2->Next, B2->Next) << "shared object must decode once";
  EXPECT_EQ(A2->Next->Value, 7);
}

TEST(ObjectGraphTest, UnknownTypeFails) {
  ObjectPool Src;
  Label *L = Src.create<Label>();
  L->Text = "x";
  Bytes Data = encodeObjectGraph(L);
  TypeRegistry Registry; // Empty: Label not registered.
  ObjectPool Pool;
  auto Root = decodeObjectGraph(Data, Registry, Pool);
  ASSERT_FALSE(Root);
  EXPECT_EQ(Root.error().code(), ErrorCode::UnknownType);
}

TEST(ObjectGraphTest, TypeMismatchCastFails) {
  ObjectPool Src;
  Label *L = Src.create<Label>();
  L->Text = "not a chain node";
  Bytes Data = encodeObjectGraph(L);
  TypeRegistry Registry = makeRegistry();
  ObjectPool Pool;
  auto Root = decodeObjectGraph(Data, Registry, Pool);
  ASSERT_TRUE(Root);
  EXPECT_EQ(objectCast<ChainNode>(*Root), nullptr);
  EXPECT_NE(objectCast<Label>(*Root), nullptr);
}

TEST(ObjectGraphTest, TruncatedGraphFails) {
  ObjectPool Src;
  ChainNode *A = Src.create<ChainNode>();
  A->Value = 5;
  Bytes Data = encodeObjectGraph(A);
  Data.resize(Data.size() / 2);
  TypeRegistry Registry = makeRegistry();
  ObjectPool Pool;
  auto Root = decodeObjectGraph(Data, Registry, Pool);
  EXPECT_FALSE(Root);
}

TEST(ObjectGraphTest, GlobalRegistryIsIdempotent) {
  TypeRegistry::global().registerType<ChainNode>();
  TypeRegistry::global().registerType<ChainNode>();
  EXPECT_TRUE(TypeRegistry::global().knows(ChainNode::TypeNameStr));
}

//===----------------------------------------------------------------------===//
// Base64
//===----------------------------------------------------------------------===//

TEST(Base64Test, KnownVectors) {
  EXPECT_EQ(base64Encode({}), "");
  EXPECT_EQ(base64Encode({'f'}), "Zg==");
  EXPECT_EQ(base64Encode({'f', 'o'}), "Zm8=");
  EXPECT_EQ(base64Encode({'f', 'o', 'o'}), "Zm9v");
  EXPECT_EQ(base64Encode({'f', 'o', 'o', 'b', 'a', 'r'}), "Zm9vYmFy");
}

TEST(Base64Test, RoundTripAllSizes) {
  Rng R(7);
  for (size_t Size = 0; Size < 70; ++Size) {
    Bytes Data(Size);
    for (uint8_t &B : Data)
      B = static_cast<uint8_t>(R.nextBelow(256));
    auto Back = base64Decode(base64Encode(Data));
    ASSERT_TRUE(Back) << "size " << Size;
    EXPECT_EQ(*Back, Data);
  }
}

TEST(Base64Test, RejectsBadInput) {
  EXPECT_FALSE(base64Decode("abc").hasValue());  // Not 4-aligned.
  EXPECT_FALSE(base64Decode("ab!d").hasValue()); // Bad character.
  EXPECT_FALSE(base64Decode("=abc").hasValue()); // Pad at front.
  EXPECT_FALSE(base64Decode("a=bc").hasValue()); // Data after pad.
  EXPECT_TRUE(base64Decode("abcd").hasValue());
}

//===----------------------------------------------------------------------===//
// Envelopes
//===----------------------------------------------------------------------===//

class EnvelopeFormatTest : public ::testing::TestWithParam<WireFormat> {};

TEST_P(EnvelopeFormatTest, RoundTripsPayload) {
  Bytes Payload;
  Rng R(42);
  for (int I = 0; I < 1000; ++I)
    Payload.push_back(static_cast<uint8_t>(R.nextBelow(256)));
  Bytes Wire = encodeEnvelope(GetParam(), "ProcessCall", Payload);
  auto Decoded = decodeEnvelope(GetParam(), Wire);
  ASSERT_TRUE(Decoded) << Decoded.error().str();
  EXPECT_EQ(Decoded->Payload, Payload);
  if (GetParam() != WireFormat::MpiPack) {
    EXPECT_EQ(Decoded->Name, "ProcessCall");
  }
}

TEST_P(EnvelopeFormatTest, EmptyPayloadRoundTrips) {
  Bytes Wire = encodeEnvelope(GetParam(), "Ping", {});
  auto Decoded = decodeEnvelope(GetParam(), Wire);
  ASSERT_TRUE(Decoded);
  EXPECT_TRUE(Decoded->Payload.empty());
}

TEST_P(EnvelopeFormatTest, GarbageFailsCleanly) {
  Bytes Junk = {0xde, 0xad, 0xbe, 0xef, 0x01};
  EXPECT_FALSE(decodeEnvelope(GetParam(), Junk));
}

INSTANTIATE_TEST_SUITE_P(AllFormats, EnvelopeFormatTest,
                         ::testing::Values(WireFormat::MpiPack,
                                           WireFormat::NetBinary,
                                           WireFormat::JavaStream,
                                           WireFormat::NetSoap),
                         [](const auto &Info) {
                           std::string Name = wireFormatName(Info.param);
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });


/// Size sweep: every format must round-trip payloads from empty to 64 KB.
class EnvelopeSizeTest
    : public ::testing::TestWithParam<std::tuple<WireFormat, size_t>> {};

TEST_P(EnvelopeSizeTest, RoundTripsAtEverySize) {
  auto [Format, Size] = GetParam();
  Rng R(Size + 17);
  Bytes Payload(Size);
  for (uint8_t &B : Payload)
    B = static_cast<uint8_t>(R.nextBelow(256));
  Bytes Wire = encodeEnvelope(Format, "sweep", Payload);
  auto Back = decodeEnvelope(Format, Wire);
  ASSERT_TRUE(Back.hasValue()) << Back.error().str();
  EXPECT_EQ(Back->Payload, Payload);
  EXPECT_GE(Wire.size(), Payload.size());
  // Sized up front exactly, and the in-place view hands the payload over
  // in the buffer it arrived in (SOAP's in the one it decoded into).
  EXPECT_EQ(Wire.size(), envelopeSize(Format, 5, Payload.size()));
  auto View = decodeEnvelopeView(Format, Wire.data(), Wire.size());
  ASSERT_TRUE(View.hasValue()) << View.error().str();
  EXPECT_EQ(View->Name, Format == WireFormat::MpiPack ? "" : "sweep");
  EXPECT_EQ(View->adopt(Wire, View->Payload), Payload);
}

INSTANTIATE_TEST_SUITE_P(
    FormatsAndSizes, EnvelopeSizeTest,
    ::testing::Combine(::testing::Values(WireFormat::MpiPack,
                                         WireFormat::NetBinary,
                                         WireFormat::JavaStream,
                                         WireFormat::NetSoap),
                       ::testing::Values(0u, 1u, 2u, 3u, 1000u, 65536u)));

TEST(EnvelopeTest, OverheadOrderingMatchesStacks) {
  // Framing overhead per call: MPI < NetBinary < JavaStream << NetSoap.
  Bytes Payload(1000, 0x5a);
  size_t Mpi = encodeEnvelope(WireFormat::MpiPack, "m", Payload).size();
  size_t Bin = encodeEnvelope(WireFormat::NetBinary, "m", Payload).size();
  size_t Java = encodeEnvelope(WireFormat::JavaStream, "m", Payload).size();
  size_t Soap = encodeEnvelope(WireFormat::NetSoap, "m", Payload).size();
  EXPECT_LT(Mpi, Bin);
  EXPECT_LT(Bin, Java);
  EXPECT_LT(Java, Soap);
  // SOAP inflates by at least 4/3 (base64).
  EXPECT_GT(Soap, Payload.size() * 4 / 3);
}

} // namespace
