//===- apps/ray/Scene.cpp -------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "apps/ray/Scene.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace parcs::apps::ray;

Vec3 Vec3::normalised() const {
  double Len = std::sqrt(lengthSquared());
  if (Len <= 0.0)
    return {0, 0, 0};
  return {X / Len, Y / Len, Z / Len};
}

Scene Scene::javaGrande(int GridSide) {
  assert(GridSide > 0 && "need at least one sphere");
  Scene S;
  double Spacing = 2.2;
  double Offset = -Spacing * (GridSide - 1) / 2.0;
  int Index = 0;
  for (int X = 0; X < GridSide; ++X) {
    for (int Y = 0; Y < GridSide; ++Y) {
      for (int Z = 0; Z < GridSide; ++Z, ++Index) {
        Sphere Ball;
        Ball.Center = {Offset + X * Spacing, Offset + Y * Spacing,
                       Offset + Z * Spacing - 12.0};
        Ball.Radius = 0.9;
        // Deterministic palette varying over the grid.
        Ball.Color = {0.3 + 0.7 * (X % 3) / 2.0, 0.3 + 0.7 * (Y % 3) / 2.0,
                      0.3 + 0.7 * (Z % 3) / 2.0};
        Ball.Reflect = (Index % 2) ? 0.5 : 0.25;
        S.Spheres.push_back(Ball);
      }
    }
  }
  S.LightPos = {12.0, 14.0, 4.0};
  S.LightColor = {1.0, 1.0, 1.0};
  S.Ambient = {0.12, 0.12, 0.12};
  S.CameraPos = {0.0, 0.0, 6.0};
  S.buildClusters();
  return S;
}

namespace {
/// closestHit computes a cluster's discriminants into stack buffers of
/// 2 * ChunkPairs entries, so it walks a longer run in chunks.
constexpr uint32_t ChunkPairs = 8;
constexpr uint32_t NoSphere = UINT32_MAX;
} // namespace

void Scene::buildClusters() {
  // One level: the octants around the centroid of the sphere centres.
  Vec3 Centroid;
  for (const Sphere &Ball : Spheres)
    Centroid = Centroid + Ball.Center;
  Centroid = Centroid * (1.0 / static_cast<double>(Spheres.size()));
  std::vector<uint32_t> Octants[8];
  for (uint32_t I = 0; I < Spheres.size(); ++I) {
    Vec3 C = Spheres[I].Center;
    Octants[(C.X >= Centroid.X) | (C.Y >= Centroid.Y) << 1 |
            (C.Z >= Centroid.Z) << 2]
        .push_back(I);
  }
  auto Append = [this](Vec3 C, double R2, uint32_t Index) {
    MemberX.push_back(C.X);
    MemberY.push_back(C.Y);
    MemberZ.push_back(C.Z);
    MemberR2.push_back(R2);
    MemberSphere.push_back(Index);
  };
  for (const std::vector<uint32_t> &Members : Octants) {
    if (Members.empty())
      continue;
    Cluster G;
    for (uint32_t I : Members)
      G.Center = G.Center + Spheres[I].Center;
    G.Center = G.Center * (1.0 / static_cast<double>(Members.size()));
    double Radius = 0.0;
    for (uint32_t I : Members) {
      const Sphere &Ball = Spheres[I];
      double Reach =
          std::sqrt((Ball.Center - G.Center).lengthSquared()) + Ball.Radius;
      Radius = std::max(Radius, Reach);
    }
    // The margins the exactness argument above closestHit needs.
    Radius = Radius * (1.0 + 1e-9) + 1e-6;
    G.RadiusSquared = Radius * Radius;
    G.Begin = static_cast<uint32_t>(MemberX.size());
    G.Pairs = static_cast<uint32_t>((Members.size() + 1) / 2);
    for (uint32_t I : Members)
      Append(Spheres[I].Center, Spheres[I].Radius * Spheres[I].Radius, I);
    // Pad to even length with an entry that never hits (its discriminant
    // is -infinity).  An even trip count leaves the vectorized loop no
    // scalar remainder, which GCC needs to vectorize it at -O2.
    if (Members.size() % 2)
      Append(G.Center, -std::numeric_limits<double>::infinity(),
             Members.back());
    Clusters.push_back(G);
  }
}

// Exactness.  closestHit must return what the reference loop returns: test
// every sphere in index order with the discriminant computed below, and
// keep the nearest hit, the first one on a tie.  It skips a cluster when
// the discriminant of the cluster's bounding sphere, computed with the same
// formula, is negative:
//  - Dir is unit length (every caller normalises it), so a discriminant is
//    r^2 - d^2 for the distance d from the centre to the ray's line.  A
//    negative computed bound discriminant, less rounding of about 1e-13 at
//    this scene's magnitudes, puts the line farther than R_g - 1e-12 from
//    the bound's centre c_g.  As R_g = max(|c_i - c_g| + r_i) * (1 + 1e-9)
//    + 1e-6, the triangle inequality puts the ray's line more than
//    r_i + 1e-6 from each member's centre c_i.
//  - Each member's discriminant is then below r_i^2 - (r_i + 1e-6)^2, about
//    -1.8e-6 for r_i = 0.9.  Rounding at these magnitudes is about 1e-13,
//    so the reference loop computes it negative too and skips the member.
//  - The members of the other clusters get the reference's arithmetic,
//    lane by lane.  They are visited out of index order, so a tie in T goes
//    to the lower sphere index, as the reference loop's strict `<` does.
//  - Ops adds Spheres.size() once per call: it keeps counting the
//    reference algorithm's tests, not the tests the host runs.
Scene::Hit Scene::closestHit(Vec3 Origin, Vec3 Dir, uint64_t &Ops) const {
  Ops += Spheres.size();
  double BestT = 0.0;
  uint32_t Best = NoSphere;
  // PARCS_HOT_BEGIN(ray-intersect): every primary, shadow and reflection
  // ray runs these loops; they dominate the ray farm's host time.
  for (const Cluster &G : Clusters) {
    Vec3 Oc = Origin - G.Center;
    double B = Oc.dot(Dir);
    if (B * B - (Oc.lengthSquared() - G.RadiusSquared) < 0.0)
      continue;
    for (uint32_t Done = 0; Done < G.Pairs; Done += ChunkPairs) {
      size_t First = G.Begin + 2 * static_cast<size_t>(Done);
      size_t N = 2 * static_cast<size_t>(std::min(ChunkPairs, G.Pairs - Done));
      const double *X = MemberX.data() + First, *Y = MemberY.data() + First,
                   *Z = MemberZ.data() + First, *R2 = MemberR2.data() + First;
      double Bs[2 * ChunkPairs], Discs[2 * ChunkPairs];
      // GCC vectorizes this loop at the default x86-64 target (SSE2); each
      // lane rounds exactly as the scalar reference does.
      for (size_t K = 0; K < N; ++K) {
        double OcX = Origin.X - X[K], OcY = Origin.Y - Y[K],
               OcZ = Origin.Z - Z[K];
        Bs[K] = OcX * Dir.X + OcY * Dir.Y + OcZ * Dir.Z;
        Discs[K] =
            Bs[K] * Bs[K] - ((OcX * OcX + OcY * OcY + OcZ * OcZ) - R2[K]);
      }
      for (size_t K = 0; K < N; ++K) {
        if (Discs[K] < 0.0)
          continue;
        double Root = std::sqrt(Discs[K]);
        double T = -Bs[K] - Root;
        if (T < 1e-6)
          T = -Bs[K] + Root;
        if (T < 1e-6)
          continue;
        uint32_t Index = MemberSphere[First + K];
        if (Best == NoSphere || T < BestT || (T == BestT && Index < Best)) {
          BestT = T;
          Best = Index;
        }
      }
    }
  }
  // PARCS_HOT_END
  if (Best == NoSphere)
    return {};
  return {BestT, &Spheres[Best]};
}

Vec3 Scene::shade(Vec3 Origin, Vec3 Dir, int Depth, uint64_t &Ops) const {
  Hit H = closestHit(Origin, Dir, Ops);
  if (!H.Object) {
    // Sky gradient.
    double T = 0.5 * (Dir.Y + 1.0);
    return Vec3{0.15, 0.18, 0.3} * (1.0 - T) + Vec3{0.45, 0.55, 0.8} * T;
  }
  Ops += 4; // Shading arithmetic for one hit.
  const Sphere &Ball = *H.Object;
  Vec3 Point = Origin + Dir * H.T;
  Vec3 Normal = (Point - Ball.Center).normalised();
  Vec3 Color = Ambient * Ball.Color;

  Vec3 ToLight = (LightPos - Point).normalised();
  double Facing = Normal.dot(ToLight);
  if (Facing > 0.0) {
    // Shadow ray.
    Hit Blocker = closestHit(Point + Normal * 1e-4, ToLight, Ops);
    double LightDist2 = (LightPos - Point).lengthSquared();
    bool Lit = !Blocker.Object || Blocker.T * Blocker.T > LightDist2;
    if (Lit) {
      Color = Color + Ball.Color * LightColor * (Ball.Diffuse * Facing);
      Vec3 Reflected = Normal * (2.0 * Facing) - ToLight;
      double SpecDot = std::max(0.0, -Reflected.dot(Dir));
      Color = Color + LightColor * (Ball.Specular * std::pow(SpecDot, 16.0));
      Ops += 6;
    }
  }

  if (Depth > 0 && Ball.Reflect > 0.0) {
    Vec3 Bounce = Dir - Normal * (2.0 * Normal.dot(Dir));
    Vec3 Mirror =
        shade(Point + Normal * 1e-4, Bounce.normalised(), Depth - 1, Ops);
    Color = Color + Mirror * Ball.Reflect;
    Ops += 4;
  }
  return Color;
}

LineResult Scene::renderLine(int Y, int Width, int Height,
                             int MaxDepth) const {
  assert(Y >= 0 && Y < Height && "scan line out of frame");
  LineResult Line;
  Line.Rgb.resize(static_cast<size_t>(Width) * 3);
  double Aspect = static_cast<double>(Width) / Height;
  for (int X = 0; X < Width; ++X) {
    double U = (2.0 * (X + 0.5) / Width - 1.0) * Aspect;
    double V = 1.0 - 2.0 * (Y + 0.5) / Height;
    Vec3 Dir = Vec3{U, V, -2.0}.normalised();
    Vec3 Color = shade(CameraPos, Dir, MaxDepth, Line.Ops);
    auto Quantise = [](double C) {
      return static_cast<uint8_t>(std::clamp(C, 0.0, 1.0) * 255.0 + 0.5);
    };
    Line.Rgb[static_cast<size_t>(X) * 3 + 0] = Quantise(Color.X);
    Line.Rgb[static_cast<size_t>(X) * 3 + 1] = Quantise(Color.Y);
    Line.Rgb[static_cast<size_t>(X) * 3 + 2] = Quantise(Color.Z);
  }
  return Line;
}

RenderStats Scene::renderWhole(int Width, int Height, int MaxDepth) const {
  RenderStats Stats;
  for (int Y = 0; Y < Height; ++Y) {
    LineResult Line = renderLine(Y, Width, Height, MaxDepth);
    Stats.TotalOps += Line.Ops;
    Stats.Checksum += lineChecksum(Line.Rgb);
  }
  return Stats;
}

uint64_t Scene::lineChecksum(const std::vector<uint8_t> &Rgb) {
  uint64_t Hash = 1469598103934665603ULL; // FNV-1a offset basis.
  for (uint8_t Byte : Rgb) {
    Hash ^= Byte;
    Hash *= 1099511628211ULL;
  }
  return Hash;
}

double parcs::apps::ray::calibrateNsPerOp(const Scene &S, int Width,
                                          int Height, double TargetSeconds) {
  RenderStats Stats = S.renderWhole(Width, Height);
  assert(Stats.TotalOps > 0 && "scene rendered no work");
  return TargetSeconds * 1e9 / static_cast<double>(Stats.TotalOps);
}
