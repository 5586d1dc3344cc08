//===- model/Pmnf.cpp - PMNF fitting --------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "model/Pmnf.h"

#include "support/Json.h"

#include <cmath>
#include <set>

namespace parcs::model {

namespace {

/// The single-term value x^Exp * log2(x)^Log.
double termValue(double Exp, int Log, double X) {
  double V = Exp == 0 ? 1.0 : std::pow(X, Exp);
  if (Log > 0) {
    double L = std::log2(X);
    V *= Log == 1 ? L : L * L;
  }
  return V;
}

/// Least-squares c0 + c1*g over \p Samples with g = term(Exp, Log).
/// Closed-form normal equations; returns false when the 2x2 system is
/// singular (the term is constant over the xs, e.g. log2(x) on {1}).
bool solveTerm(const std::vector<Sample> &Samples, size_t Skip, double Exp,
               int Log, double &C0, double &C1) {
  double N = 0, Sg = 0, Sgg = 0, Sy = 0, Sgy = 0;
  for (size_t I = 0; I < Samples.size(); ++I) {
    if (I == Skip)
      continue;
    double G = termValue(Exp, Log, Samples[I].X);
    N += 1;
    Sg += G;
    Sgg += G * G;
    Sy += Samples[I].Y;
    Sgy += G * Samples[I].Y;
  }
  double Det = N * Sgg - Sg * Sg;
  // Relative singularity guard: Det is a variance times N, so compare it
  // against the magnitude of its ingredients.
  if (std::abs(Det) <= 1e-12 * (N * Sgg + Sg * Sg + 1e-300))
    return false;
  C1 = (N * Sgy - Sg * Sy) / Det;
  C0 = (Sy - C1 * Sg) / N;
  return std::isfinite(C0) && std::isfinite(C1);
}

/// Mean of y over \p Samples minus the skipped index (the constant model).
double meanY(const std::vector<Sample> &Samples, size_t Skip) {
  double N = 0, Sy = 0;
  for (size_t I = 0; I < Samples.size(); ++I) {
    if (I == Skip)
      continue;
    N += 1;
    Sy += Samples[I].Y;
  }
  return Sy / N;
}

} // namespace

double FittedModel::predict(double X) const {
  return C1 == 0 ? C0 : C0 + C1 * termValue(Exp, Log, X);
}

double FittedModel::bandHalfWidth(double X) const {
  double P = std::abs(predict(X));
  double Band = std::max(4.0 * MaxRelErr * P, 4.0 * CvRmse);
  // Floor: an exact fit still quotes a non-empty band, so "within the
  // band" never degenerates to an equality test on doubles.
  return std::max(Band, 1e-9 * P + 1e-12);
}

std::string FittedModel::functionStr() const {
  std::string Out;
  Out += json::number(C0);
  if (C1 == 0)
    return Out;
  Out += C1 < 0 ? " - " : " + ";
  Out += json::number(std::abs(C1));
  if (Exp != 0) {
    Out += " * ";
    Out += Param;
    if (Exp != 1) {
      Out += '^';
      Out += json::number(Exp);
    }
  }
  if (Log > 0) {
    Out += " * log2(";
    Out += Param;
    Out += ')';
    if (Log > 1) {
      Out += '^';
      Out += json::number(double(Log));
    }
  }
  return Out;
}

ErrorOr<FittedModel> fitPmnf(const std::vector<Sample> &Samples,
                             std::string_view Param,
                             std::string_view Metric) {
  std::string Where = std::string(Metric) + " vs " + std::string(Param);
  if (Samples.size() < 4)
    return Error(ErrorCode::InvalidArgument,
                 Where + ": need at least 4 samples, have " +
                     std::to_string(Samples.size()));
  std::set<double> DistinctX;
  for (const Sample &S : Samples) {
    if (!(S.X > 0) || !std::isfinite(S.X) || !std::isfinite(S.Y))
      return Error(ErrorCode::InvalidArgument,
                   Where + ": parameter values must be finite and > 0");
    DistinctX.insert(S.X);
  }
  if (DistinctX.size() < 3)
    return Error(ErrorCode::InvalidArgument,
                 Where + ": need at least 3 distinct parameter values, have " +
                     std::to_string(DistinctX.size()));

  // The hypothesis lattice, simplest first: the constant model, then one
  // term x^i * log2(x)^j over ascending (i, j).  Selection requires a
  // strictly better (beyond relative epsilon) LOO score, so on ties the
  // earlier -- simpler -- hypothesis wins, deterministically.
  struct Hypothesis {
    bool Constant;
    double Exp;
    int Log;
  };
  std::vector<Hypothesis> Lattice;
  Lattice.push_back({true, 0, 0});
  for (double Exp : {0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0})
    for (int Log : {0, 1, 2}) {
      if (Exp == 0 && Log == 0)
        continue; // That is the constant model.
      Lattice.push_back({false, Exp, Log});
    }

  // Scores below a data-scale floor are numerically "exact": clamping
  // them makes every exact hypothesis tie, and ties go to the simplest,
  // so n^2 data picks n^2 and not n^2 * log2(n) on a 1e-13 residual fluke.
  double YScale = 0;
  for (const Sample &S : Samples)
    YScale = std::max(YScale, std::abs(S.Y));
  double ScoreFloor = 1e-10 * YScale;

  FittedModel Best;
  double BestScore = 0;
  bool HaveBest = false;
  for (const Hypothesis &H : Lattice) {
    // Leave-one-out pass: predict each sample from a fit of the others.
    double SumSq = 0, MaxRel = 0;
    bool Valid = true;
    for (size_t K = 0; K < Samples.size() && Valid; ++K) {
      double C0 = 0, C1 = 0;
      if (H.Constant)
        C0 = meanY(Samples, K);
      else if (!solveTerm(Samples, K, H.Exp, H.Log, C0, C1)) {
        Valid = false;
        break;
      }
      double Pred = C0 + C1 * (H.Constant ? 0.0
                                          : termValue(H.Exp, H.Log,
                                                      Samples[K].X));
      double Err = Pred - Samples[K].Y;
      if (!std::isfinite(Err)) {
        Valid = false;
        break;
      }
      SumSq += Err * Err;
      MaxRel = std::max(MaxRel,
                        std::abs(Err) /
                            std::max(std::abs(Samples[K].Y), 1e-12));
    }
    if (!Valid)
      continue;
    double CvRmse = std::sqrt(SumSq / double(Samples.size()));
    double Score = std::max(CvRmse, ScoreFloor);
    if (HaveBest && Score >= BestScore * (1.0 - 1e-9))
      continue;

    // Final coefficients from the full fit.
    double C0 = 0, C1 = 0;
    if (H.Constant)
      C0 = meanY(Samples, size_t(-1));
    else if (!solveTerm(Samples, size_t(-1), H.Exp, H.Log, C0, C1))
      continue;

    FittedModel M;
    M.Param = std::string(Param);
    M.Metric = std::string(Metric);
    M.C0 = C0;
    M.C1 = H.Constant ? 0 : C1;
    M.Exp = H.Constant ? 0 : H.Exp;
    M.Log = H.Constant ? 0 : H.Log;
    M.Points = Samples.size();
    M.CvRmse = CvRmse;
    M.MaxRelErr = MaxRel;

    double MeanAll = meanY(Samples, size_t(-1));
    double SsRes = 0, SsTot = 0;
    for (const Sample &S : Samples) {
      double R = M.predict(S.X) - S.Y;
      SsRes += R * R;
      double T = S.Y - MeanAll;
      SsTot += T * T;
    }
    M.R2 = SsTot > 0 ? 1.0 - SsRes / SsTot : 1.0;

    Best = std::move(M);
    BestScore = Score;
    HaveBest = true;
  }
  if (!HaveBest)
    return Error(ErrorCode::InvalidArgument,
                 Where + ": no hypothesis could be fitted");
  return Best;
}

} // namespace parcs::model
