//===- tests/ParcgenPassiveTest.cpp - generated passive classes -----------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end check of parcgen's passive-class support:
/// tests/data/shapes.pci is compiled by the parcgen tool at build time
/// into ShapesGen.h; this file builds real graphs with the generated
/// classes (mutual recursion, shared vertices, parallel-object refs),
/// round-trips them through the serialiser, and drives the generated
/// parallel class whose method takes a passive parameter.
///
//===----------------------------------------------------------------------===//

#include "ShapesGen.h"
#include "core/ObjectManager.h"
#include "core/World.h"

#include <gtest/gtest.h>

using namespace parcs;
using namespace parcs::sim;
using parcstest::shapes::AreaServerProxy;
using parcstest::shapes::AreaServerSkeleton;
using parcstest::shapes::Point;
using parcstest::shapes::Polygon;
using parcstest::shapes::Tag;

namespace {

void registerShapeTypes(serial::TypeRegistry &Registry) {
  parcstest::shapes::registerPointPassive(Registry);
  parcstest::shapes::registerTagPassive(Registry);
  parcstest::shapes::registerPolygonPassive(Registry);
}

/// Builds a unit square polygon with a labelled first vertex.
Polygon *buildSquare(serial::ObjectPool &Pool, const std::string &Name) {
  Polygon *Poly = Pool.create<Polygon>();
  Poly->name = Name;
  double Coords[4][2] = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  for (auto &C : Coords) {
    Point *P = Pool.create<Point>();
    P->x = C[0];
    P->y = C[1];
    Poly->vertices.push_back(P);
  }
  Tag *Label = Pool.create<Tag>();
  Label->text = Name + ":origin";
  Label->owner = Poly->vertices[0]; // Mutual link Tag <-> Point.
  Poly->vertices[0]->label = Label;
  return Poly;
}

/// Shoelace area of a generated polygon.
double area(const Polygon *Poly) {
  double Sum = 0;
  size_t N = Poly->vertices.size();
  for (size_t I = 0; I < N; ++I) {
    const Point *A = Poly->vertices[I];
    const Point *B = Poly->vertices[(I + 1) % N];
    Sum += A->x * B->y - B->x * A->y;
  }
  return Sum / 2.0;
}

//===----------------------------------------------------------------------===//
// Graph round trips with generated classes
//===----------------------------------------------------------------------===//

TEST(ParcgenPassiveTest, GeneratedClassesRoundTripGraphs) {
  serial::TypeRegistry Registry;
  registerShapeTypes(Registry);

  serial::ObjectPool Mine;
  Polygon *Square = buildSquare(Mine, "sq");
  Polygon *Second = buildSquare(Mine, "sq2");
  Square->next = Second;
  Second->next = Square; // Cycle through the polygon list.

  serial::Bytes Wire = scoopp::encodePassiveGraph(Square);
  serial::ObjectPool Theirs;
  auto Copy = scoopp::decodePassiveGraph(Wire, Theirs, Registry);
  ASSERT_TRUE(Copy.hasValue()) << Copy.error().str();
  auto *Square2 = serial::objectCast<Polygon>(*Copy);
  ASSERT_NE(Square2, nullptr);

  EXPECT_EQ(Square2->name, "sq");
  ASSERT_EQ(Square2->vertices.size(), 4u);
  EXPECT_DOUBLE_EQ(area(Square2), 1.0);
  // The cycle closed on the copy.
  ASSERT_NE(Square2->next, nullptr);
  EXPECT_EQ(Square2->next->next, Square2);
  // The Tag <-> Point mutual link survived as *one* shared pair.
  ASSERT_NE(Square2->vertices[0]->label, nullptr);
  EXPECT_EQ(Square2->vertices[0]->label->owner, Square2->vertices[0]);
  EXPECT_EQ(Square2->vertices[0]->label->text, "sq:origin");
}

TEST(ParcgenPassiveTest, RefFieldTravelsInsidePassiveGraph) {
  serial::TypeRegistry Registry;
  registerShapeTypes(Registry);
  serial::ObjectPool Mine;
  Polygon *Poly = buildSquare(Mine, "p");
  Poly->computedBy = scoopp::ParallelRef{2, "io:AreaServer:5"};

  serial::ObjectPool Theirs;
  auto Copy = scoopp::decodePassiveGraph(scoopp::encodePassiveGraph(Poly),
                                         Theirs, Registry);
  ASSERT_TRUE(Copy.hasValue());
  auto *Poly2 = serial::objectCast<Polygon>(*Copy);
  ASSERT_NE(Poly2, nullptr);
  EXPECT_EQ(Poly2->computedBy.Node, 2);
  EXPECT_EQ(Poly2->computedBy.Name, "io:AreaServer:5");
}

TEST(ParcgenPassiveTest, UnregisteredTypeFailsCleanly) {
  serial::ObjectPool Mine;
  Polygon *Poly = buildSquare(Mine, "p");
  serial::TypeRegistry Empty;
  serial::ObjectPool Theirs;
  auto Copy = scoopp::decodePassiveGraph(scoopp::encodePassiveGraph(Poly),
                                         Theirs, Empty);
  ASSERT_FALSE(Copy.hasValue());
  EXPECT_EQ(Copy.error().code(), ErrorCode::UnknownType);
}

//===----------------------------------------------------------------------===//
// Passive parameters through the generated parallel class
//===----------------------------------------------------------------------===//

/// Implementation of the generated skeleton: accumulates polygon areas.
class AreaServerImpl : public AreaServerSkeleton {
public:
  explicit AreaServerImpl(vm::Node &Host) : Host(Host) {}

  sim::Task<ErrorOr<Unit>> accumulate(Polygon *Poly) override {
    co_await Host.compute(SimTime::microseconds(20));
    for (Polygon *Cursor = Poly; Cursor; Cursor = Cursor->next) {
      Sum += area(Cursor);
      ++Count;
      if (Cursor->next == Poly)
        break; // Cyclic list guard.
    }
    co_return Unit();
  }

  sim::Task<ErrorOr<double>> total() override { co_return Sum; }
  sim::Task<ErrorOr<int32_t>> polygons() override { co_return Count; }

private:
  vm::Node &Host;
  double Sum = 0;
  int32_t Count = 0;
};

TEST(ParcgenPassiveTest, PassiveParameterCrossesTheWire) {
  registerShapeTypes(serial::TypeRegistry::global());
  scoopp::ParallelClassRegistry Registry;
  parcstest::shapes::registerAreaServerClass<AreaServerImpl>(Registry);
  scoopp::ScooppWorld W(3, std::move(Registry));

  bool Done = false;
  W.runMain([&Done](scoopp::ScooppRuntime &Runtime) -> Task<void> {
    AreaServerProxy Server(Runtime, 0);
    Error E = co_await Server.create();
    EXPECT_FALSE(E) << E.str();

    serial::ObjectPool Mine;
    Polygon *A = buildSquare(Mine, "a"); // Area 1.
    Polygon *B = buildSquare(Mine, "b");
    for (Point *V : B->vertices) {       // Scale to area 4.
      V->x *= 2;
      V->y *= 2;
    }
    A->next = B;

    co_await Server.accumulate(A); // One call, two chained polygons.
    co_await Server.flush();
    auto Total = co_await Server.total();
    auto Count = co_await Server.polygons();
    EXPECT_TRUE(Total.hasValue());
    EXPECT_TRUE(Count.hasValue());
    if (Total) {
      EXPECT_DOUBLE_EQ(*Total, 5.0);
    }
    if (Count) {
      EXPECT_EQ(*Count, 2);
    }
    // The originals were not consumed or mutated.
    EXPECT_DOUBLE_EQ(area(A), 1.0);
    Done = true;
  });
  EXPECT_TRUE(Done);
}

TEST(ParcgenPassiveTest, NullPassiveParameterIsDelivered) {
  registerShapeTypes(serial::TypeRegistry::global());
  scoopp::ParallelClassRegistry Registry;
  parcstest::shapes::registerAreaServerClass<AreaServerImpl>(Registry);
  scoopp::ScooppWorld W(2, std::move(Registry));
  W.runMain([](scoopp::ScooppRuntime &Runtime) -> Task<void> {
    AreaServerProxy Server(Runtime, 0);
    (void)co_await Server.create();
    co_await Server.accumulate(nullptr); // Null graph: a no-op call.
    co_await Server.flush();
    auto Count = co_await Server.polygons();
    EXPECT_TRUE(Count.hasValue());
    if (Count) {
      EXPECT_EQ(*Count, 0);
    }
  });
}

} // namespace
