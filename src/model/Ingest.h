//===- model/Ingest.h - Sweep and telemetry-export ingestion ----*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns the two measurement sources into DataSets:
///
///  - sweep files, as written by the bench `--sweep-out` emitters and the
///    telemetry plane's `model=` hook (`{"parcs_sweep": 1, "points":
///    [{"params": {...}, "metrics": {...}}, ...]}`);
///  - raw PARCS_TELEMETRY exports: each export becomes one data point at
///    `params: {nodes}` whose metrics summarize every series -- exact
///    totals and rates for counters, per-window percentiles folded into
///    an n-weighted mean for histograms (the export carries window
///    summaries, not buckets; the plane's own `model=` hook emits exact
///    whole-run percentiles and should be preferred when available).
///
/// loadSweep dispatches on the document shape, so the CLI accepts
/// either format anywhere a sweep is expected.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_MODEL_INGEST_H
#define PARCS_MODEL_INGEST_H

#include "model/DataSet.h"
#include "support/Error.h"

#include <string>
#include <string_view>

namespace parcs::model {

/// Parses a sweep file ("points" array shape).
ErrorOr<DataSet> parseSweepJson(std::string_view Json);

/// Summarizes a PARCS_TELEMETRY export ("window_ns"/"series" shape) into
/// one data point (see file comment for the metric synthesis).
ErrorOr<DataSet> pointsFromTelemetryExport(std::string_view Json);

/// Dispatches \p Json, the contents of \p Path (named in errors), on its
/// document shape: sweep files parse via parseSweepJson, telemetry
/// exports via pointsFromTelemetryExport.
ErrorOr<DataSet> loadSweep(std::string_view Json, const std::string &Path);

} // namespace parcs::model

#endif // PARCS_MODEL_INGEST_H
