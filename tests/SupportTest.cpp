//===- tests/SupportTest.cpp - support library tests ----------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Error.h"
#include "support/File.h"
#include "support/Random.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>

using namespace parcs;

//===----------------------------------------------------------------------===//
// Error / ErrorOr
//===----------------------------------------------------------------------===//

TEST(ErrorTest, DefaultIsSuccess) {
  Error E;
  EXPECT_FALSE(E);
  EXPECT_EQ(E.code(), ErrorCode::None);
  EXPECT_EQ(E.str(), "success");
}

TEST(ErrorTest, CarriesCodeAndMessage) {
  Error E(ErrorCode::UnknownObject, "no such uri");
  EXPECT_TRUE(E);
  EXPECT_EQ(E.code(), ErrorCode::UnknownObject);
  EXPECT_EQ(E.message(), "no such uri");
  EXPECT_EQ(E.str(), "unknown object: no such uri");
}

TEST(ErrorTest, AllCodesHaveNames) {
  // Overloaded is the last code.
  std::set<std::string> Names;
  for (int Code = 0; Code <= static_cast<int>(ErrorCode::Overloaded);
       ++Code) {
    const char *Name = errorCodeName(static_cast<ErrorCode>(Code));
    ASSERT_NE(Name, nullptr);
    EXPECT_TRUE(Names.insert(Name).second) << Name;
  }
}

// One message fits libstdc++'s inline string buffer, the other does not.
const std::string ShortMessage = "overloaded";
const std::string LongMessage(100, 'x');

TEST(ErrorTest, FailureKeepsCodeAndMessageThroughMovesAndCopies) {
  for (const std::string &Message : {ShortMessage, LongMessage}) {
    Error Original(ErrorCode::Overloaded, Message);
    Error Copy = Original;
    EXPECT_EQ(Copy.code(), ErrorCode::Overloaded);
    EXPECT_EQ(Copy.message(), Message);
    Error Moved = std::move(Original);
    EXPECT_EQ(Moved.code(), ErrorCode::Overloaded);
    EXPECT_EQ(Moved.message(), Message);
    Error Assigned;
    Assigned = std::move(Moved);
    EXPECT_EQ(Assigned.code(), ErrorCode::Overloaded);
    EXPECT_EQ(Assigned.message(), Message);
    Error CopyAssigned(ErrorCode::TimedOut, "other");
    CopyAssigned = Assigned;
    EXPECT_EQ(CopyAssigned.code(), ErrorCode::Overloaded);
    EXPECT_EQ(CopyAssigned.message(), Message);
    // A success moved over a failure leaves no message behind.
    CopyAssigned = Error();
    EXPECT_FALSE(CopyAssigned);
    EXPECT_EQ(CopyAssigned.message(), "");
  }
}

TEST(ErrorOrTest, HoldsValue) {
  ErrorOr<int> Value(42);
  ASSERT_TRUE(Value);
  EXPECT_EQ(*Value, 42);
  EXPECT_EQ(Value.take(), 42);
}

TEST(ErrorOrTest, HoldsError) {
  ErrorOr<int> Failed(ErrorCode::MalformedMessage, "truncated");
  EXPECT_FALSE(Failed);
  EXPECT_EQ(Failed.error().code(), ErrorCode::MalformedMessage);
}

TEST(ErrorOrTest, FailureKeepsCodeAndMessageThroughMovesAndCopies) {
  for (const std::string &Message : {ShortMessage, LongMessage}) {
    ErrorOr<std::string> Original(ErrorCode::ChecksumMismatch, Message);
    ErrorOr<std::string> Copy = Original;
    ASSERT_FALSE(Copy);
    EXPECT_EQ(Copy.error().code(), ErrorCode::ChecksumMismatch);
    EXPECT_EQ(Copy.error().message(), Message);
    ErrorOr<std::string> Moved = std::move(Original);
    ASSERT_FALSE(Moved);
    EXPECT_EQ(Moved.error().code(), ErrorCode::ChecksumMismatch);
    EXPECT_EQ(Moved.error().message(), Message);
    // Move-assigned over a success, a failure replaces the value.
    ErrorOr<std::string> Assigned(std::string("value"));
    Assigned = std::move(Moved);
    ASSERT_FALSE(Assigned);
    EXPECT_EQ(Assigned.error().code(), ErrorCode::ChecksumMismatch);
    EXPECT_EQ(Assigned.error().message(), Message);
  }
}

TEST(ErrorOrTest, MovesNonCopyableValues) {
  ErrorOr<std::unique_ptr<int>> Value(std::make_unique<int>(7));
  ASSERT_TRUE(Value);
  ErrorOr<std::unique_ptr<int>> Moved = std::move(Value);
  ASSERT_TRUE(Moved);
  ErrorOr<std::unique_ptr<int>> Assigned(ErrorCode::TimedOut, LongMessage);
  Assigned = std::move(Moved);
  ASSERT_TRUE(Assigned);
  std::unique_ptr<int> Taken = Assigned.take();
  EXPECT_EQ(*Taken, 7);
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSeed) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(RngTest, NextBelowStaysInBounds) {
  Rng R(99);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(RngTest, NextBelowCoversRange) {
  Rng R(7);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(R.nextBelow(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng R(5);
  for (int I = 0; I < 1000; ++I) {
    double X = R.nextDouble();
    EXPECT_GE(X, 0.0);
    EXPECT_LT(X, 1.0);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng R(11);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t X = R.nextInRange(-3, 3);
    EXPECT_GE(X, -3);
    EXPECT_LE(X, 3);
    SawLo |= X == -3;
    SawHi |= X == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

//===----------------------------------------------------------------------===//
// Json writer primitives
//===----------------------------------------------------------------------===//

TEST(JsonWriterTest, EveryAsciiByteRoundTrips) {
  std::string All;
  for (int C = 0; C < 0x80; ++C)
    All += char(C);
  std::string Doc;
  json::appendString(Doc, All);
  // The escapes leave no raw control character in the document.
  for (char C : Doc)
    EXPECT_GE(static_cast<unsigned char>(C), 0x20u);
  json::Value Back;
  ASSERT_TRUE(json::parse(Doc, Back)) << Doc;
  ASSERT_EQ(Back.K, json::Value::Kind::String);
  EXPECT_EQ(Back.Str, All);
}

TEST(JsonWriterTest, MultibyteUtf8PassesThrough) {
  // Latin letters with diacritics (two-byte UTF-8) and three CJK
  // ideographs (three bytes each).
  std::string Text = "na\xc3\xafve caf\xc3\xa9, \xe6\x97\xa5\xe6\x9c\xac"
                     "\xe8\xaa\x9e";
  std::string Doc;
  json::appendString(Doc, Text);
  EXPECT_EQ(Doc, '"' + Text + '"');
  json::Value Back;
  ASSERT_TRUE(json::parse(Doc, Back));
  EXPECT_EQ(Back.Str, Text);
  // The reader also decodes \u escapes of the same code points.
  ASSERT_TRUE(json::parse("\"caf\\u00e9 \\u65e5\"", Back));
  EXPECT_EQ(Back.Str, "caf\xc3\xa9 \xe6\x97\xa5");
}

TEST(JsonWriterTest, NumbersPrintLikePercentSixG) {
  for (double V : {0.0, -0.0, 1.0, -2.5, 1.0 / 3.0, 123456.0, 1234567.0,
                   1e-7, 6.02214076e23, 1e300, -123.456789}) {
    char Want[32];
    std::snprintf(Want, sizeof(Want), "%.6g", V);
    EXPECT_EQ(json::number(V), Want) << V;
  }
  EXPECT_EQ(json::number(1234567.0), "1.23457e+06");
  EXPECT_EQ(json::number(0.25), "0.25");
}

//===----------------------------------------------------------------------===//
// Json reader
//===----------------------------------------------------------------------===//

TEST(JsonReaderTest, NumbersReadWhole) {
  json::Value V;
  ASSERT_TRUE(json::parse("[-0.5, 1e3, 2E-2, 0, 12]", V));
  ASSERT_EQ(V.Arr.size(), 5u);
  EXPECT_EQ(V.Arr[0].Num, -0.5);
  EXPECT_EQ(V.Arr[1].Num, 1000.0);
  EXPECT_EQ(V.Arr[2].Num, 0.02);
  EXPECT_EQ(V.Arr[4].Num, 12.0);
  json::Value Edges;
  ASSERT_TRUE(json::parse("[-0, 0.25e+1, 10E-1]", Edges));
  ASSERT_EQ(Edges.Arr.size(), 3u);
  EXPECT_EQ(Edges.Arr[1].Num, 2.5);
  EXPECT_EQ(Edges.Arr[2].Num, 1.0);

  // Runs of number characters that are not one number, and numbers
  // outside RFC 8259's grammar: a leading zero, or a fraction or exponent
  // with no digits on one side of its mark.
  for (const char *Bad : {"-", "[1-2]", "[1e]", "[--3]", "{\"a\": .}",
                          "[+1]", "[1e999]", "[01]", "[-01]", "[.5]", "[5.]",
                          "[-.5]", "[1.e3]", "[1e+]"}) {
    json::Value Out;
    EXPECT_FALSE(json::parse(Bad, Out)) << Bad;
  }
}

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, SplitBasic) {
  auto Parts = split("a,b,c", ',');
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "c");
}

TEST(StringUtilsTest, SplitKeepsEmptyParts) {
  auto Parts = split("a,,c,", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[1], "");
  EXPECT_EQ(Parts[3], "");
}

TEST(StringUtilsTest, SplitEmptyString) {
  auto Parts = split("", ',');
  ASSERT_EQ(Parts.size(), 1u);
  EXPECT_EQ(Parts[0], "");
}

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtilsTest, IntegersReadWholeAndInRange) {
  int V = 7;
  EXPECT_TRUE(parseInt("42", V));
  EXPECT_EQ(V, 42);
  EXPECT_TRUE(parseInt("-3", V));
  EXPECT_EQ(V, -3);
  for (const char *Bad : {"", " 1", "1 ", "+1", "0x10", "1.0", "4294967297"})
    EXPECT_FALSE(parseInt(Bad, V)) << Bad;
  EXPECT_EQ(V, -3) << "a failed read leaves the output alone";
  EXPECT_FALSE(parseInt("0", V, 1, 65535));
  EXPECT_FALSE(parseInt("65536", V, 1, 65535));
  uint32_t H = 0;
  EXPECT_TRUE(parseInt("deadbeef", H, 0, UINT32_MAX, 16));
  EXPECT_EQ(H, 0xdeadbeefu);
}

TEST(StringUtilsTest, DecimalsAreFinite) {
  double D = 0;
  EXPECT_TRUE(parseDecimal("1e-3", D));
  EXPECT_EQ(D, 1e-3);
  EXPECT_TRUE(parseDecimal(".5", D));
  EXPECT_EQ(D, 0.5);
  for (const char *Bad :
       {"", "nan", "inf", "-inf", "1e300000", "0x1p3", "+5", "5 ", "1,5"})
    EXPECT_FALSE(parseDecimal(Bad, D)) << Bad;
}

TEST(StringUtilsTest, DurationsNameTheirBareUnit) {
  int64_t Ns = 0;
  ASSERT_TRUE(parseDurationNs("5", "s", Ns));
  EXPECT_EQ(Ns, 5'000'000'000);
  ASSERT_TRUE(parseDurationNs("5", "ns", Ns));
  EXPECT_EQ(Ns, 5);
  ASSERT_TRUE(parseDurationNs("2ms", "ns", Ns));
  EXPECT_EQ(Ns, 2'000'000);
  ASSERT_TRUE(parseDurationNs("1.5us", "s", Ns));
  EXPECT_EQ(Ns, 1'500);
  ASSERT_TRUE(parseDurationNs("9223372036854775807ns", "s", Ns));
  EXPECT_EQ(Ns, INT64_MAX);
  for (const char *Bad : {"", "ms", "-1ms", "nan", "inf", "1e300", "5 ms",
                          "9223372036854775808", "18446744073709551617ns"})
    EXPECT_FALSE(parseDurationNs(Bad, "ns", Ns)) << Bad;
}

//===----------------------------------------------------------------------===//
// File IO
//===----------------------------------------------------------------------===//

TEST(FileTest, RoundTripsAndNamesThePathOnError) {
  std::string Path = ::testing::TempDir() + "support_file_test.txt";
  std::string Body("a\0b\nc", 5);
  ASSERT_FALSE(writeFile(Path, Body));
  ErrorOr<std::string> Back = readFile(Path);
  ASSERT_TRUE(Back);
  EXPECT_EQ(*Back, Body);
  std::remove(Path.c_str());

  Back = readFile("/nonexistent-dir/x.json");
  ASSERT_FALSE(Back);
  EXPECT_EQ(Back.error().message(), "cannot open /nonexistent-dir/x.json");
  Error E = writeFile("/nonexistent-dir/x.json", "{}");
  ASSERT_TRUE(E);
  EXPECT_EQ(E.message(), "cannot write /nonexistent-dir/x.json");
}
