//===- apps/sieve/Sieve.h - Prime sieve pipeline ----------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's running example (Figs. 4-7): a pipelined sieve of
/// Eratosthenes built from PrimeFilter parallel objects.  Each filter
/// stores up to \c Capacity primes; candidate numbers stream through in
/// batches ("process(int[] num)"); survivors that don't fit are forwarded
/// to the next filter, which the filter itself creates on demand -- so
/// the pipeline grows dynamically and exercises exactly the mechanisms
/// SCOOPP adapts: many small async calls (method-call aggregation) and
/// many small objects (object agglomeration).  The class is declared in
/// prime_filter.pci; its proxy and skeleton are generated at build time
/// (PrimeFilterGen.h), and Sieve.cpp implements the skeleton.
///
/// Correctness engineering: the sieve invariant ("a survivor that fits in
/// this filter is prime") requires batches to be *processed* in
/// generation order, but a bounded dispatch pool may pick up two batches
/// concurrently.  Batches therefore carry sequence numbers and each
/// filter keeps a reorder buffer; end-of-stream is an in-band empty batch
/// that flows the same ordered path.  The driver never issues nested
/// synchronous calls (it walks the chain iteratively), so bounded thread
/// pools cannot deadlock.
///
/// The paper also uses a sequential prime sieve for the VM comparison
/// ("running another application, a prime number sieve, the Mono
/// execution time is about the same as the JVM") -- sequentialSieve below.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_APPS_SIEVE_SIEVE_H
#define PARCS_APPS_SIEVE_SIEVE_H

#include "core/Scoopp.h"

#include <cstdint>

namespace parcs::apps::sieve {

/// Tuning knobs of the pipeline workload.
struct SieveJob {
  int32_t MaxN = 1000;     ///< Sieve primes in [2, MaxN].
  int FilterCapacity = 8;  ///< Primes stored per filter object.
  int BatchSize = 16;      ///< Candidates per process() call.
};

/// Divisibility by a fixed divisor with one multiply and no divide
/// (Lemire, Kaser and Kurz, "Faster remainder by direct computation",
/// 2019).  M is 2^64 / P rounded up, and N is a multiple of P exactly
/// when the low 64 bits of N * M are below M.  Exact for every N < 2^32
/// and every P >= 1; for P = 1, M wraps to 0 and every N passes.
struct Divisor {
  explicit Divisor(uint32_t P) : M(UINT64_MAX / P + 1) {}
  bool divides(uint32_t N) const { return uint64_t(N) * M <= M - 1; }
  uint64_t M;
};

/// Registers the PrimeFilter class backed by \p Job.
void registerSieveClasses(scoopp::ParallelClassRegistry &Registry,
                          std::shared_ptr<const SieveJob> Job);

/// Result of a pipeline run.
struct PipelineResult {
  std::vector<int32_t> Primes; ///< In increasing order.
  int FilterCount = 0;         ///< Pipeline length at completion.
};

/// Drives the full pipeline from \p HomeNode: streams candidates, waits
/// for the end-of-stream marker to reach the tail, then walks the chain
/// collecting primes.
sim::Task<ErrorOr<PipelineResult>>
runSievePipeline(scoopp::ScooppRuntime &Runtime, int HomeNode,
                 std::shared_ptr<const SieveJob> Job);

/// Sequential trial-division sieve with the same counted work; returns
/// primes and the number of divisibility tests (the VM-comparison
/// workload).
struct SequentialSieveResult {
  std::vector<int32_t> Primes;
  uint64_t Tests = 0;
  double Seconds = 0; ///< Under the given VM's integer multiplier.
};
SequentialSieveResult sequentialSieve(const SieveJob &Job, vm::VmKind Vm);

} // namespace parcs::apps::sieve

#endif // PARCS_APPS_SIEVE_SIEVE_H
