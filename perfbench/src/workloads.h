#ifndef XKSEARCH_PERFBENCH_WORKLOADS_H_
#define XKSEARCH_PERFBENCH_WORKLOADS_H_

#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "dewey/dewey_id.h"
#include "engine/search_types.h"
#include "index/inverted_index.h"
#include "storage/disk_index.h"
#include "xml/document.h"

namespace perfbench {

RunResult RunPaperHot(const Args& args, Tracer* tracer);
RunResult RunPaperCold(const Args& args, Tracer* tracer);
RunResult RunServeZipf(const Args& args, Tracer* tracer);
RunResult RunIngest(const Args& args, Tracer* tracer);

/// The in-memory engine path (PrepareQuery, kAuto resolution,
/// ComputeSlca) over a bare index: the reference the disk workloads'
/// answers are checked against.
std::vector<xksearch::DeweyId> InMemorySlca(const xksearch::InvertedIndex& index,
                                            const std::vector<std::string>& query);

/// Durations of one replayed query's two layer calls.
struct SpanTimes {
  double prepare_us = 0;
  double compute_us = 0;
};

/// Replays one query as two layer calls under `parent`: an
/// "engine.prepare" span (PrepareQuery, on `disk` when non-null, else on
/// `index`) and an "slca.compute" span (ComputeSlca with kAuto's
/// algorithm).
SpanTimes ReplayPrepareCompute(const xksearch::InvertedIndex& index,
                               const xksearch::DiskIndex* disk,
                               const std::vector<std::string>& query,
                               Tracer* tracer, uint64_t request,
                               int64_t parent);

/// \brief The traced replay of single queries that paper_hot, paper_cold
/// and ingest share.
///
/// Run() replays one query twice: as separate layer calls (an "op" span
/// holding ReplayPrepareCompute's spans) and as one whole search under
/// an "engine.search" span, in the order asked for, so neither side
/// always runs on caches the other warmed. On a disk index both start on
/// dropped buffer pools, and the whole search is followed by a warm
/// repeat ("storage.warm_search") for storage.cold_penalty_us. Each run
/// also times the query's in-memory list decodes (TimeDecode).
class QueryReplay {
 public:
  using SearchFn = std::function<xksearch::Result<xksearch::SearchResult>(
      const std::vector<std::string>&)>;

  /// `ops` distinct operations are replayed, each possibly several
  /// times; `search` runs one whole query.
  QueryReplay(const xksearch::InvertedIndex& index, size_t ops,
              Tracer* tracer, SearchFn search);

  /// Replays `query` as operation `op`; `disk` is null for in-memory
  /// queries. `count` adds the search's exact counters (once per op).
  void Run(size_t op, const std::vector<std::string>& query,
           xksearch::DiskIndex* disk, uint64_t request, bool search_first,
           bool count);

  /// The engine, slca, dewey and storage read layers, the exact counts
  /// per op and the traced end-to-end numbers.
  void Fill(RunResult* out) const;

 private:
  const xksearch::InvertedIndex& index_;
  Tracer* tracer_;
  SearchFn search_;
  MinPerOp search_us_, prepare_us_, compute_us_;
  xksearch::QueryStats counts_;
  double decode_ns_ = 0;
  uint64_t decode_postings_ = 0;
};

/// Times PackedDeweyList::Materialize over the query's in-memory lists
/// under a "dewey.decode" span; adds to the running ns / postings sums.
void TimeDecode(const xksearch::InvertedIndex& index,
                const std::vector<std::string>& query, Tracer* tracer,
                uint64_t request, double* ns, uint64_t* postings);

/// Per-query means of the Table 1 counters in `total` over `queries`.
void FillCountLayers(const xksearch::QueryStats& total, size_t queries,
                     RunResult* out);

/// Replay op-span latencies as the traced end-to-end numbers.
void FillTracedE2e(const Tracer& tracer, const char* op_span, RunResult* out);

/// Packed arena bytes per posting of an in-memory index.
double ArenaBytesPerPosting(const xksearch::InvertedIndex& index);

/// Bytes of the il + scan + dict files at `prefix`.
double IndexFileBytes(const std::string& prefix);

/// Removes the index files (and WAL) at `prefix`.
void RemoveIndexFiles(const std::string& prefix);

/// Replay rounds: at least two, then more until 1.5 s of replay (at
/// most ten).
bool KeepReplaying(size_t rounds, double seconds);

/// ParseXml under an "xml.parse" span; dies on a parse error.
xksearch::Document ParseTimed(const std::string& xml, Tracer* tracer);

}  // namespace perfbench

#endif  // XKSEARCH_PERFBENCH_WORKLOADS_H_
