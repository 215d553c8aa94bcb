// ingest: one thread alternates update batches with cold queries against
// a file-backed index. Every batch commits through the WAL (one fsync),
// then the index is reopened and the batch's postings are checked.

#include <algorithm>
#include <memory>
#include <set>

#include "corpus.h"
#include "engine/disk_searcher.h"
#include "storage/disk_index.h"
#include "workloads.h"

namespace perfbench {

using xksearch::DeweyId;
using xksearch::DiskIndex;
using xksearch::DiskIndexOptions;
using xksearch::DiskIndexUpdater;
using xksearch::DiskSearcher;
using xksearch::Document;
using xksearch::InvertedIndex;
using xksearch::Result;
using xksearch::SearchOptions;
using xksearch::SearchResult;

namespace {

using Query = std::vector<std::string>;

constexpr size_t kIngestPapers = 20000;
/// Keywords the batches rewrite in turn; each always holds kBatchAdds
/// postings once primed, so the index size stays constant.
constexpr size_t kIngestKeywords = 4;
/// Postings added per batch; as many earlier adds are removed.
constexpr size_t kBatchAdds = 100;
/// Cold queries after every batch.
constexpr size_t kQueriesPerBatch = 5;
constexpr size_t kBatchesPerPass = 20;
/// Freshness p95 needs at least 200 batches per run.
constexpr size_t kMinBatches = 200;
/// Batches replayed as layer calls in the traced run.
constexpr size_t kReplayBatches = 30;

/// \brief The batch generator and the state the checks compare against.
class Ingestor {
 public:
  Ingestor(std::string prefix, std::vector<DeweyId> nodes, uint64_t seed)
      : prefix_(std::move(prefix)),
        nodes_(std::move(nodes)),
        rng_(SubSeed(seed, "ingest-batches")),
        current_(kIngestKeywords) {}

  struct BatchTimes {
    double batch_s = 0;       // updater open .. Finish returned
    double freshness_ms = 0;  // first AddPosting .. reopened and checked
    uint64_t postings = 0;    // adds + removes
    bool visible = false;     // adds visible and removes gone
  };

  /// Runs one batch; the searcher is closed during it and reopened after.
  BatchTimes Run(std::unique_ptr<DiskSearcher>* searcher, Tracer* tracer,
                 uint64_t request) {
    const size_t slot = batch_++ % kIngestKeywords;
    const std::string keyword = "ingk" + std::to_string(slot);
    std::vector<DeweyId>& old = current_[slot];
    std::set<size_t> picked;
    while (picked.size() < kBatchAdds) {
      const size_t i = rng_.Uniform(nodes_.size());
      if (!std::binary_search(old.begin(), old.end(), nodes_[i])) {
        picked.insert(i);
      }
    }
    std::vector<DeweyId> fresh;
    for (size_t i : picked) fresh.push_back(nodes_[i]);
    std::sort(fresh.begin(), fresh.end());

    BatchTimes times;
    ScopedSpan op(tracer, "batch", request);
    searcher->reset();
    const Clock::time_point start = Clock::now();
    std::unique_ptr<DiskIndexUpdater> updater = [&] {
      ScopedSpan span(tracer, "storage.updater_open", request, op.id());
      Result<std::unique_ptr<DiskIndexUpdater>> u =
          DiskIndexUpdater::Open(prefix_, DiskIndexOptions());
      CheckOk(u.status(), "DiskIndexUpdater::Open");
      return u.MoveValueUnsafe();
    }();
    const Clock::time_point first_add = Clock::now();
    for (const DeweyId& id : fresh) {
      ScopedSpan span(tracer, "storage.add_posting", request, op.id());
      CheckOk(updater->AddPosting(keyword, id), "AddPosting");
    }
    for (const DeweyId& id : old) {
      ScopedSpan span(tracer, "storage.remove_posting", request, op.id());
      CheckOk(updater->RemovePosting(keyword, id), "RemovePosting");
    }
    {
      ScopedSpan span(tracer, "storage.commit", request, op.id());
      CheckOk(updater->Finish(), "DiskIndexUpdater::Finish");
    }
    times.batch_s = SecondsBetween(start, Clock::now());
    times.postings = fresh.size() + old.size();
    {
      ScopedSpan span(tracer, "storage.reopen", request, op.id());
      Result<std::unique_ptr<DiskSearcher>> reopened =
          DiskSearcher::Open(prefix_, DiskIndexOptions());
      CheckOk(reopened.status(), "DiskSearcher::Open");
      *searcher = reopened.MoveValueUnsafe();
    }
    // A single-keyword query answers exactly the keyword's postings
    // (all title text nodes, none an ancestor of another).
    Result<SearchResult> check = [&] {
      ScopedSpan span(tracer, "storage.visibility_check", request, op.id());
      return (*searcher)->Search({keyword});
    }();
    times.freshness_ms = MicrosBetween(first_add, Clock::now()) / 1000.0;
    times.visible = check.ok() && check->nodes == fresh;
    old = std::move(fresh);
    return times;
  }

  size_t batches() const { return batch_; }

 private:
  std::string prefix_;
  std::vector<DeweyId> nodes_;
  Rng rng_;
  std::vector<std::vector<DeweyId>> current_;
  size_t batch_ = 0;
};

}  // namespace

RunResult RunIngest(const Args& args, Tracer* tracer) {
  RunResult out;
  const PaperCorpus corpus = MakePaperCorpus(kIngestPapers, args.seed);
  // Four queries per shape: with one, p50 was a single query's cost and
  // jumped between seeds.
  const std::vector<Query> pool = PaperQueryPool(corpus, args.seed, 4);
  const std::string prefix = args.workdir + "/ingest";

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
  out.samples["pool_queries"] = static_cast<double>(pool.size());
  out.samples["batch_adds"] = kBatchAdds;
  out.samples["queries_per_batch"] = kQueriesPerBatch;

  // New postings land on existing title text nodes: every paper title
  // carries the 100,000-class keywords (clamped to the paper count).
  Ingestor ingestor(prefix, index->Materialize("kwf100000n0"), args.seed);
  std::vector<uint64_t> reference;
  for (const Query& q : pool) reference.push_back(Digest(InMemorySlca(*index, q)));
  // Priming: every ingest keyword gets its first kBatchAdds postings, so
  // from here on each batch removes as many postings as it adds.
  for (size_t b = 0; b < kIngestKeywords; ++b) {
    if (!ingestor.Run(&searcher, nullptr, 0).visible) {
      Die("priming batch not visible after reopen");
    }
  }

  const SearchOptions options;
  auto cold_query = [&](const Query& q) {
    CheckOk(searcher->index()->DropCaches(), "DropCaches");
    return searcher->Search(q, options);
  };

  if (tracer != nullptr) {
    QueryReplay replay(
        *index, kReplayBatches * kQueriesPerBatch, tracer,
        [&](const Query& q) { return searcher->Search(q, options); });
    double write_bytes = 0, write_syscalls = 0, postings = 0;
    size_t queries = 0;
    for (size_t b = 0; b < kReplayBatches; ++b) {
      const IoCounters io0 = ReadIo();
      const Ingestor::BatchTimes t = ingestor.Run(&searcher, tracer, b + 1);
      const IoCounters io1 = ReadIo();
      if (!t.visible) Die("replayed batch not visible after reopen");
      write_bytes += static_cast<double>(io1.wchar - io0.wchar);
      write_syscalls += static_cast<double>(io1.syscw - io0.syscw);
      postings += static_cast<double>(t.postings);
      for (size_t k = 0; k < kQueriesPerBatch; ++k, ++queries) {
        const Query& q = pool[(b * kQueriesPerBatch + k) % pool.size()];
        // Each query in both orders, as the paper workloads alternate
        // them over rounds.
        for (int order = 0; order < 2; ++order) {
          replay.Run(queries, q, searcher->index(), 1000000 + queries,
                     /*search_first=*/order == 1, /*count=*/order == 0);
        }
      }
    }
    replay.Fill(&out);
    out.layers["storage.add_posting_us"] =
        tracer->MeanUs("storage.add_posting");
    out.layers["storage.commit_ms"] = tracer->MeanUs("storage.commit") / 1000;
    out.layers["storage.reopen_ms"] = tracer->MeanUs("storage.reopen") / 1000;
    out.layers["storage.write_bytes_per_posting"] = write_bytes / postings;
    out.layers["storage.write_syscalls_per_batch"] =
        write_syscalls / static_cast<double>(kReplayBatches);
  }

  // Passes of kBatchesPerPass batches, each followed by its cold queries.
  Measurement m;
  std::vector<double> freshness_ms;
  std::vector<double> pass_posting_rates;
  size_t query = 0;
  const size_t first_batch = ingestor.batches();
  while (KeepMeasuring(m, args.seconds) ||
         freshness_ms.size() < kMinBatches) {
    m.BeginPass();
    double batch_s = 0;
    uint64_t postings = 0;
    for (size_t b = 0; b < kBatchesPerPass; ++b) {
      const Ingestor::BatchTimes t = ingestor.Run(&searcher, nullptr, 0);
      ++out.attempted;
      if (!t.visible) ++out.failed;
      batch_s += t.batch_s;
      postings += t.postings;
      freshness_ms.push_back(t.freshness_ms);
      for (size_t k = 0; k < kQueriesPerBatch; ++k, ++query) {
        const size_t i = query % pool.size();
        const Clock::time_point t0 = Clock::now();
        Result<SearchResult> r = cold_query(pool[i]);
        const double us = MicrosBetween(t0, Clock::now());
        ++out.attempted;
        if (!r.ok() || Digest(r->nodes) != reference[i]) ++out.failed;
        m.Record(us);
      }
      if (ingestor.batches() - first_batch == kMinBatches) {
        // Index size at a fixed point of the batch sequence, so it
        // repeats for a seed however long the run is.
        out.e2e["index_bytes_per_posting"] =
            IndexFileBytes(prefix) /
            static_cast<double>(searcher->index()->total_postings());
      }
    }
    m.EndPass();
    pass_posting_rates.push_back(static_cast<double>(postings) / batch_s);
  }
  FillE2e(m, PassSelection::kAll, &out);
  out.e2e["postings_per_s"] = Median(pass_posting_rates);
  out.e2e["freshness_p50_ms"] = Percentile(freshness_ms, 50);
  out.e2e["freshness_p95_ms"] = Percentile(freshness_ms, 95);
  out.samples["batches"] = static_cast<double>(freshness_ms.size());
  out.context["fsync_policy"] =
      "WAL on: each batch fsyncs the log at commit, then every file the "
      "apply step touched and the truncated log";
  // The second window of set-ups, after the measurement.
  TimeSetups(teardown, setup, &out);
  searcher.reset();
  RemoveIndexFiles(prefix);
  return out;
}

}  // namespace perfbench
