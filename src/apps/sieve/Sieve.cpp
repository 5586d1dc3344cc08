//===- apps/sieve/Sieve.cpp -----------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "apps/sieve/Sieve.h"

#include "PrimeFilterGen.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "vm/Calibration.h"
#include "vm/VmKind.h"

#include <map>

using namespace parcs;
using namespace parcs::apps::sieve;
using scoopp::ParallelRef;

namespace {

/// The PrimeFilter implementation object.
class PrimeFilterImpl : public PrimeFilterSkeleton {
public:
  PrimeFilterImpl(scoopp::ScooppRuntime &Runtime, vm::Node &Host,
                  std::shared_ptr<const SieveJob> Job)
      : Runtime(Runtime), Host(Host), Job(std::move(Job)),
        Batches(metrics::Registry::global().counter("sieve.batches")),
        TestsRun(metrics::Registry::global().counter("sieve.tests")) {}

  /// Filters batch \p Seq (empty = end of stream), holding it in the
  /// reorder buffer until every earlier batch has run.
  sim::Task<ErrorOr<Unit>> process(int32_t Seq,
                                   std::vector<int32_t> Numbers) override;
  sim::Task<ErrorOr<std::vector<int32_t>>> primes() override {
    co_return Primes;
  }
  sim::Task<ErrorOr<bool>> eosSeen() override { co_return EosSeen; }
  sim::Task<ErrorOr<std::vector<ParallelRef>>> nextRef() override {
    std::vector<ParallelRef> Link;
    if (Next && Next->created())
      Link.push_back(Next->ref());
    co_return Link;
  }

private:
  /// Runs one in-order batch (empty = end of stream); the survivors stay
  /// in \p Numbers, which moves on to the next filter.
  sim::Task<Error> processInOrder(std::vector<int32_t> Numbers);
  /// Forwards a batch downstream, creating the next filter on first use.
  sim::Task<Error> forward(std::vector<int32_t> Survivors);

  scoopp::ScooppRuntime &Runtime;
  vm::Node &Host;
  std::shared_ptr<const SieveJob> Job;
  /// sieve.batches and sieve.tests, looked up once per filter.
  metrics::Counter &Batches;
  metrics::Counter &TestsRun;
  std::vector<int32_t> Primes;
  /// Divisors[I] tests divisibility by Primes[I].
  std::vector<Divisor> Divisors;
  std::unique_ptr<PrimeFilterProxy> Next;
  /// Reorder machinery.
  int32_t ExpectedSeq = 0;
  std::map<int32_t, std::vector<int32_t>> Stash;
  int32_t ForwardSeq = 0;
  bool EosSeen = false;
};

/// The filter after the one a nextRef() reply came from: invalid at the
/// tail of the chain.
ParallelRef nextLink(std::vector<ParallelRef> &Link) {
  return Link.empty() ? ParallelRef() : std::move(Link.front());
}

} // namespace

sim::Task<Error> PrimeFilterImpl::forward(std::vector<int32_t> Survivors) {
  if (!Next) {
    // Dynamic pipeline growth: the filter itself creates its successor
    // (a parallel object creating a parallel object).
    auto Proxy = std::make_unique<PrimeFilterProxy>(Runtime, Host.id());
    Error E = co_await Proxy->create();
    if (E)
      co_return E;
    Next = std::move(Proxy);
    metrics::Registry::global().counter("sieve.filters_created").add(1);
    trace::instant(Host.id(), 0, "sieve.filter_spawn",
                   Host.sim().now().nanosecondsCount());
  }
  int32_t Seq = ForwardSeq++;
  co_await Next->process(Seq, std::move(Survivors));
  co_return Error();
}

sim::Task<Error>
PrimeFilterImpl::processInOrder(std::vector<int32_t> Numbers) {
  if (Numbers.empty()) {
    // End of stream: push any buffered aggregate downstream, then pass
    // the marker along the same ordered path.
    EosSeen = true;
    if (Next) {
      Error E = co_await forward({});
      if (E)
        co_return E;
      co_await Next->flush();
    }
    co_return Error();
  }
  int64_t BatchStartNs = Host.sim().now().nanosecondsCount();
  // Survivors are compacted to the front of the batch, in order.
  size_t Survivors = 0;
  uint64_t BatchTests = 0;
  for (int32_t N : Numbers) {
    bool Composite = false;
    for (const Divisor &D : Divisors) {
      ++BatchTests;
      if (D.divides(N)) {
        Composite = true;
        break;
      }
    }
    if (Composite)
      continue;
    if (static_cast<int>(Primes.size()) < Job->FilterCapacity) {
      // Batches are processed in generation order, so a survivor that
      // fits here is prime.
      Primes.push_back(N);
      Divisors.emplace_back(N);
      continue;
    }
    Numbers[Survivors++] = N;
  }
  Numbers.resize(Survivors);
  co_await Host.computeWork(
      vm::WorkKind::Integer,
      sim::SimTime::fromSecondsF(calib::SieveNsPerTest * 1e-9 *
                                 static_cast<double>(BatchTests)));
  trace::complete(Host.id(), 0, "sieve.filter_batch", BatchStartNs,
                  Host.sim().now().nanosecondsCount() - BatchStartNs);
  Batches.add(1);
  TestsRun.add(BatchTests);
  if (!Numbers.empty()) {
    Error E = co_await forward(std::move(Numbers));
    if (E)
      co_return E;
  }
  co_return Error();
}

sim::Task<ErrorOr<Unit>>
PrimeFilterImpl::process(int32_t Seq, std::vector<int32_t> Numbers) {
  if (Seq != ExpectedSeq) {
    // Arrived early: hold it in the reorder buffer.
    Stash[Seq] = std::move(Numbers);
    co_return Unit();
  }
  Error E = co_await processInOrder(std::move(Numbers));
  if (E)
    co_return E;
  ++ExpectedSeq;
  // Drain any stashed successors now in order.
  auto It = Stash.find(ExpectedSeq);
  while (It != Stash.end()) {
    std::vector<int32_t> Stashed = std::move(It->second);
    Stash.erase(It);
    Error E2 = co_await processInOrder(std::move(Stashed));
    if (E2)
      co_return E2;
    ++ExpectedSeq;
    It = Stash.find(ExpectedSeq);
  }
  co_return Unit();
}

void parcs::apps::sieve::registerSieveClasses(
    scoopp::ParallelClassRegistry &Registry,
    std::shared_ptr<const SieveJob> Job) {
  registerPrimeFilterClass<PrimeFilterImpl>(Registry, std::move(Job));
}

sim::Task<ErrorOr<PipelineResult>>
parcs::apps::sieve::runSievePipeline(scoopp::ScooppRuntime &Runtime,
                                     int HomeNode,
                                     std::shared_ptr<const SieveJob> Job) {
  PrimeFilterProxy First(Runtime, HomeNode);
  Error E = co_await First.create();
  if (E)
    co_return E;

  // Stream candidates in sequenced batches, then the in-band EOS marker.
  int32_t Seq = 0;
  std::vector<int32_t> Batch;
  Batch.reserve(static_cast<size_t>(Job->BatchSize));
  for (int32_t N = 2; N <= Job->MaxN; ++N) {
    Batch.push_back(N);
    if (static_cast<int>(Batch.size()) == Job->BatchSize) {
      co_await First.process(Seq++, std::move(Batch));
      Batch.clear();
      Batch.reserve(static_cast<size_t>(Job->BatchSize));
    }
  }
  if (!Batch.empty())
    co_await First.process(Seq++, std::move(Batch));
  co_await First.process(Seq++, {});
  co_await First.flush();

  const std::string Class = PrimeFilterProxy::ClassName;

  // Wait for the EOS marker to drain through the (still growing) chain:
  // walk to the tail and check its marker, iteratively -- at most one
  // outstanding synchronous call, so bounded pools cannot deadlock.
  for (;;) {
    ParallelRef Cursor = First.ref();
    ParallelRef Tail = Cursor;
    while (Cursor.valid()) {
      Tail = Cursor;
      PrimeFilterProxy Link(Runtime, HomeNode);
      Link.bind(Class, Cursor);
      ErrorOr<std::vector<ParallelRef>> NextRef = co_await Link.nextRef();
      if (!NextRef)
        co_return NextRef.error();
      Cursor = nextLink(*NextRef);
    }
    PrimeFilterProxy TailProxy(Runtime, HomeNode);
    TailProxy.bind(Class, Tail);
    ErrorOr<bool> Done = co_await TailProxy.eosSeen();
    if (!Done)
      co_return Done.error();
    if (*Done)
      break;
    co_await Runtime.sim().delay(sim::SimTime::milliseconds(1));
  }

  // Collect primes in chain order.
  PipelineResult Result;
  ParallelRef Cursor = First.ref();
  while (Cursor.valid()) {
    PrimeFilterProxy Link(Runtime, HomeNode);
    Link.bind(Class, Cursor);
    ErrorOr<std::vector<int32_t>> Stored = co_await Link.primes();
    if (!Stored)
      co_return Stored.error();
    Result.Primes.insert(Result.Primes.end(), Stored->begin(), Stored->end());
    ++Result.FilterCount;
    ErrorOr<std::vector<ParallelRef>> NextRef = co_await Link.nextRef();
    if (!NextRef)
      co_return NextRef.error();
    Cursor = nextLink(*NextRef);
  }
  co_return Result;
}

SequentialSieveResult parcs::apps::sieve::sequentialSieve(const SieveJob &Job,
                                                          vm::VmKind Vm) {
  SequentialSieveResult Out;
  for (int32_t N = 2; N <= Job.MaxN; ++N) {
    bool Composite = false;
    for (int32_t P : Out.Primes) {
      ++Out.Tests;
      if (static_cast<int64_t>(P) * P > N)
        break;
      if (N % P == 0) {
        Composite = true;
        break;
      }
    }
    if (!Composite)
      Out.Primes.push_back(N);
  }
  Out.Seconds = static_cast<double>(Out.Tests) * calib::SieveNsPerTest *
                1e-9 * vm::vmCostModel(Vm).IntMultiplier;
  return Out;
}
