// Micro-benchmark X4: the cost of a single lm/rm match operation, which
// is the unit of the paper's "# operations" column. Compares
//  * the in-memory binary search (O(d log |S|) comparisons),
//  * a hot B+tree probe over the Indexed Lookup layout, and
//  * a cursor scan positioned from the list head (what a lookup costs
//    if implemented by scanning, motivating the Indexed Lookup design).

#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"
#include "common/rng.h"
#include "slca/keyword_list.h"

namespace xksearch {
namespace bench {
namespace {

// The postings of a planted keyword, decoded out of the packed index.
// Cached per frequency: the benchmarks only need stable addresses, and
// decoding a 100k list on every benchmark registration would dominate
// startup.
const std::vector<DeweyId>& TargetList(uint64_t frequency) {
  static std::map<uint64_t, std::vector<DeweyId>>* cache =
      new std::map<uint64_t, std::vector<DeweyId>>();
  auto it = cache->find(frequency);
  if (it == cache->end()) {
    Corpus& corpus = Corpus::Get();
    const std::string& kw = corpus.KeywordsFor(frequency).front();
    std::vector<DeweyId> list = corpus.system().index().Materialize(kw);
    CheckOk(list.empty() ? Status::Internal("missing planted keyword list")
                         : Status::OK(),
            "TargetList");
    it = cache->emplace(frequency, std::move(list)).first;
  }
  return it->second;
}

// Random probe targets drawn from the corpus's largest planted list.
std::vector<DeweyId> ProbeTargets(size_t count) {
  const std::vector<DeweyId>& list = TargetList(100000);
  Rng rng(13);
  std::vector<DeweyId> probes;
  probes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    probes.push_back(list[rng.Uniform(list.size())]);
  }
  return probes;
}

void MemoryBinarySearch(benchmark::State& state) {
  const uint64_t frequency = static_cast<uint64_t>(state.range(0));
  const std::vector<DeweyId>& list = TargetList(frequency);
  const std::vector<DeweyId> probes = ProbeTargets(1024);
  QueryStats stats;
  VectorKeywordList kl(&list, &stats);
  size_t i = 0;
  DeweyId out;
  for (auto _ : state) {
    Result<bool> found = kl.RightMatch(probes[i++ & 1023], &out);
    benchmark::DoNotOptimize(found.ok());
  }
  state.SetItemsProcessed(state.iterations());
}

void DiskBtreeProbe(benchmark::State& state) {
  const uint64_t frequency = static_cast<uint64_t>(state.range(0));
  Corpus& corpus = Corpus::Get();
  WarmUp(corpus.disk());
  const DiskIndex::TermInfo* info = corpus.disk().index()->FindTerm(
      corpus.KeywordsFor(frequency).front());
  const std::vector<DeweyId> probes = ProbeTargets(1024);
  QueryStats stats;
  DiskKeywordList kl(corpus.disk().index(), info->id, info->frequency,
                     &stats);
  size_t i = 0;
  DeweyId out;
  for (auto _ : state) {
    Result<bool> found = kl.RightMatch(probes[i++ & 1023], &out);
    benchmark::DoNotOptimize(found.ok());
  }
  state.SetItemsProcessed(state.iterations());
}

void FullScanLookup(benchmark::State& state) {
  // What one lookup would cost without the index: stream the scan layout
  // from the head until reaching the target (expected |S|/2 postings).
  const uint64_t frequency = static_cast<uint64_t>(state.range(0));
  Corpus& corpus = Corpus::Get();
  WarmUp(corpus.disk());
  const DiskIndex::TermInfo* info = corpus.disk().index()->FindTerm(
      corpus.KeywordsFor(frequency).front());
  const std::vector<DeweyId> probes = ProbeTargets(64);
  QueryStats stats;
  DiskKeywordList kl(corpus.disk().index(), info->id, info->frequency,
                     &stats);
  size_t i = 0;
  for (auto _ : state) {
    const DeweyId& target = probes[i++ & 63];
    Result<std::unique_ptr<KeywordListIterator>> it = kl.NewIterator();
    CheckOk(it.status(), "NewIterator");
    DeweyId id;
    while ((*it)->Next(&id)) {
      if (id.Compare(target) >= 0) break;
    }
    benchmark::DoNotOptimize(id.depth());
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(MemoryBinarySearch)
    ->Arg(100)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kNanosecond)
    ->MinTime(0.1);
BENCHMARK(DiskBtreeProbe)
    ->Arg(100)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kNanosecond)
    ->MinTime(0.1);
BENCHMARK(FullScanLookup)
    ->Arg(100)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond)
    ->MinTime(0.1);

}  // namespace
}  // namespace bench
}  // namespace xksearch

BENCHMARK_MAIN();
