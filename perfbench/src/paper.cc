// paper_hot and paper_cold: the paper's Figure 8-13 query shapes over the
// planted 100,000-paper corpus, in memory and through the file-backed
// disk index with both buffer pools dropped before every query.

#include <memory>

#include "corpus.h"
#include "engine/disk_searcher.h"
#include "engine/xksearch.h"
#include "storage/disk_index.h"
#include "workloads.h"

namespace perfbench {

using xksearch::AlgorithmChoice;
using xksearch::DiskIndex;
using xksearch::DiskIndexOptions;
using xksearch::DiskSearcher;
using xksearch::Document;
using xksearch::InvertedIndex;
using xksearch::Result;
using xksearch::SearchOptions;
using xksearch::SearchResult;
using xksearch::XKSearch;

namespace {

constexpr size_t kPaperCorpusPapers = 100000;
/// Queries per Figure shape in the pool (44 shapes).
constexpr size_t kQueriesPerShape = 4;

using Query = std::vector<std::string>;

/// One closed-loop client, until it has enough time, samples and passes.
/// A pass runs one query of every shape in a fresh seeded order: pool
/// queries g, g + kQueriesPerShape, ..., with g taking each value in
/// turn. Passes of equal shape mix keep short passes comparable, and
/// short passes let PassSelection::kFastest follow the host's speed.
/// `run_one(i)` runs pool query i and returns its latency (us).
template <typename RunOne>
void MeasurePasses(size_t pool_size, uint64_t seed, double seconds,
                   RunOne&& run_one, RunResult* out) {
  Rng order_rng(SubSeed(seed, "pass-order"));
  Measurement m;
  for (size_t pass = 0; KeepMeasuring(m, seconds); ++pass) {
    std::vector<size_t> order;
    for (size_t i = pass % kQueriesPerShape; i < pool_size;
         i += kQueriesPerShape) {
      order.push_back(i);
    }
    order_rng.Shuffle(&order);
    m.BeginPass();
    for (size_t i : order) m.Record(run_one(i));
    m.EndPass();
  }
  FillE2e(m, PassSelection::kFastest, out);
}

/// The traced replay of the whole pool, in rounds (at least two, until
/// 1.5 s), alternating which side of each query runs first.
void ReplayPool(const std::vector<Query>& pool, const InvertedIndex& index,
                DiskIndex* disk, Tracer* tracer,
                QueryReplay::SearchFn search, RunResult* out) {
  QueryReplay replay(index, pool.size(), tracer, std::move(search));
  double replay_s = 0;
  for (size_t round = 0; KeepReplaying(round, replay_s); ++round) {
    const Clock::time_point r0 = Clock::now();
    for (size_t i = 0; i < pool.size(); ++i) {
      replay.Run(i, pool[i], disk, round * pool.size() + i + 1,
                 /*search_first=*/round % 2 == 1, /*count=*/round == 0);
    }
    replay_s += SecondsBetween(r0, Clock::now());
  }
  replay.Fill(out);
}

}  // namespace

RunResult RunPaperHot(const Args& args, Tracer* tracer) {
  RunResult out;
  const PaperCorpus corpus = MakePaperCorpus(kPaperCorpusPapers, args.seed);
  const std::vector<Query> pool =
      PaperQueryPool(corpus, args.seed, kQueriesPerShape);

  std::unique_ptr<XKSearch> system;
  auto teardown = [&] { system.reset(); };
  auto setup = [&] {
    Document doc = ParseTimed(corpus.xml, tracer);
    ScopedSpan span(tracer, "index.build", 0);
    Result<std::unique_ptr<XKSearch>> built =
        XKSearch::BuildFromDocument(std::move(doc));
    CheckOk(built.status(), "XKSearch::BuildFromDocument");
    system = built.MoveValueUnsafe();
  };
  TimeSetups(teardown, setup, &out);
  out.e2e["index_bytes_per_posting"] = ArenaBytesPerPosting(system->index());
  out.samples["pool_queries"] = static_cast<double>(pool.size());
  out.samples["postings"] =
      static_cast<double>(system->index().total_postings());
  out.samples["nodes"] = static_cast<double>(system->document().node_count());

  // Reference answers: the Stack algorithm, outside the timed region.
  std::vector<uint64_t> reference;
  SearchOptions stack;
  stack.algorithm = AlgorithmChoice::kStack;
  for (const Query& q : pool) {
    Result<SearchResult> r = system->Search(q, stack);
    CheckOk(r.status(), "reference Search");
    reference.push_back(Digest(r->nodes));
  }

  const SearchOptions options;  // kAuto on packed lists
  if (tracer != nullptr) {
    ReplayPool(
        pool, system->index(), nullptr, tracer,
        [&](const Query& q) { return system->Search(q, options); }, &out);
  }

  MeasurePasses(
      pool.size(), args.seed, args.seconds,
      [&](size_t i) {
        const Clock::time_point t0 = Clock::now();
        Result<SearchResult> r = system->Search(pool[i], options);
        const double us = MicrosBetween(t0, Clock::now());
        ++out.attempted;
        if (!r.ok() || Digest(r->nodes) != reference[i]) ++out.failed;
        return us;
      },
      &out);
  // The second window of set-ups, after the measurement.
  TimeSetups(teardown, setup, &out);
  return out;
}

RunResult RunPaperCold(const Args& args, Tracer* tracer) {
  RunResult out;
  const PaperCorpus corpus = MakePaperCorpus(kPaperCorpusPapers, args.seed);
  const std::vector<Query> pool =
      PaperQueryPool(corpus, args.seed, kQueriesPerShape);
  const std::string prefix = args.workdir + "/paper";

  // The in-memory index stays alive as the answer reference; queries go
  // through a DiskSearcher opened on the built files.
  std::unique_ptr<InvertedIndex> index;
  std::unique_ptr<DiskSearcher> searcher;
  auto teardown = [&] {
    searcher.reset();
    index.reset();
    RemoveIndexFiles(prefix);
  };
  auto setup = [&] {
    {
      const Document doc = ParseTimed(corpus.xml, tracer);
      ScopedSpan span(tracer, "index.build", 0);
      index = std::make_unique<InvertedIndex>(InvertedIndex::Build(doc));
    }
    {
      ScopedSpan span(tracer, "storage.build", 0);
      CheckOk(DiskIndex::Build(*index, prefix, DiskIndexOptions()).status(),
              "DiskIndex::Build");
    }
    Result<std::unique_ptr<DiskSearcher>> opened =
        DiskSearcher::Open(prefix, DiskIndexOptions());
    CheckOk(opened.status(), "DiskSearcher::Open");
    searcher = opened.MoveValueUnsafe();
  };
  TimeSetups(teardown, setup, &out);
  DiskIndex* disk = searcher->index();
  out.e2e["index_bytes_per_posting"] =
      IndexFileBytes(prefix) / static_cast<double>(disk->total_postings());
  out.samples["pool_queries"] = static_cast<double>(pool.size());
  out.samples["il_pages"] = disk->il_page_count();
  out.samples["scan_pages"] = disk->scan_page_count();
  out.samples["index_file_bytes"] = IndexFileBytes(prefix);

  std::vector<uint64_t> reference;
  for (const Query& q : pool) reference.push_back(Digest(InMemorySlca(*index, q)));

  auto drop = [&] { CheckOk(disk->DropCaches(), "DropCaches"); };
  const SearchOptions options;
  if (tracer != nullptr) {
    ReplayPool(
        pool, *index, disk, tracer,
        [&](const Query& q) { return searcher->Search(q, options); }, &out);
  }

  MeasurePasses(
      pool.size(), args.seed, args.seconds,
      [&](size_t i) {
        drop();
        const Clock::time_point t0 = Clock::now();
        Result<SearchResult> r = searcher->Search(pool[i], options);
        const double us = MicrosBetween(t0, Clock::now());
        ++out.attempted;
        if (!r.ok() || Digest(r->nodes) != reference[i]) ++out.failed;
        return us;
      },
      &out);
  // The second window of set-ups, after the measurement.
  TimeSetups(teardown, setup, &out);
  searcher.reset();
  RemoveIndexFiles(prefix);
  return out;
}

}  // namespace perfbench
