// Helpers the workloads share: reference answers, the layer replay's
// timed calls, and the per-layer and index-size metrics.

#include <filesystem>

#include "engine/query_executor.h"
#include "index/tokenizer.h"
#include "slca/slca.h"
#include "workloads.h"
#include "xml/parser.h"

namespace perfbench {

using xksearch::DeweyId;
using xksearch::DiskIndex;
using xksearch::Document;
using xksearch::InvertedIndex;
using xksearch::PreparedQuery;
using xksearch::QueryStats;
using xksearch::Result;
using xksearch::SearchOptions;

using Query = std::vector<std::string>;

std::vector<DeweyId> InMemorySlca(const InvertedIndex& index,
                                  const Query& query) {
  QueryStats stats;
  Result<PreparedQuery> prepared = xksearch::PrepareQuery(
      index, query, index.options().tokenizer, &stats);
  CheckOk(prepared.status(), "PrepareQuery");
  std::vector<DeweyId> nodes;
  if (prepared->missing) return nodes;
  const xksearch::SlcaAlgorithm algorithm = xksearch::ResolveAlgorithmChoice(
      SearchOptions(), prepared->min_frequency, prepared->max_frequency);
  CheckOk(xksearch::ComputeSlca(algorithm, prepared->list_pointers(), {},
                                &stats,
                                [&](const DeweyId& id) { nodes.push_back(id); }),
          "ComputeSlca");
  return nodes;
}

SpanTimes ReplayPrepareCompute(const InvertedIndex& index,
                               const DiskIndex* disk, const Query& query,
                               Tracer* tracer, uint64_t request,
                               int64_t parent) {
  const SearchOptions options;
  QueryStats stats;
  SpanTimes times;
  ScopedSpan prepare(tracer, "engine.prepare", request, parent);
  Result<PreparedQuery> prepared =
      disk != nullptr
          ? xksearch::PrepareQuery(*disk, query, index.options().tokenizer,
                                   &stats)
          : xksearch::PrepareQuery(index, query, index.options().tokenizer,
                                   &stats);
  tracer->End(prepare.id());
  CheckOk(prepared.status(), "PrepareQuery");
  times.prepare_us = tracer->DurationUs(prepare.id());
  std::vector<DeweyId> nodes;
  ScopedSpan compute(tracer, "slca.compute", request, parent);
  CheckOk(xksearch::ComputeSlca(
              xksearch::ResolveAlgorithmChoice(options,
                                               prepared->min_frequency,
                                               prepared->max_frequency),
              prepared->list_pointers(), {}, &stats,
              [&](const DeweyId& id) { nodes.push_back(id); }),
          "ComputeSlca");
  tracer->End(compute.id());
  times.compute_us = tracer->DurationUs(compute.id());
  return times;
}

void TimeDecode(const InvertedIndex& index, const Query& query,
                Tracer* tracer, uint64_t request, double* ns,
                uint64_t* postings) {
  ScopedSpan span(tracer, "dewey.decode", request);
  for (const std::string& raw : query) {
    const xksearch::PackedDeweyList* list = index.Find(
        xksearch::NormalizeKeyword(raw, index.options().tokenizer));
    if (list == nullptr) continue;
    const Clock::time_point t0 = Clock::now();
    const std::vector<DeweyId> ids = list->Materialize();
    *ns += MicrosBetween(t0, Clock::now()) * 1000.0;
    *postings += ids.size();
  }
}

QueryReplay::QueryReplay(const InvertedIndex& index, size_t ops,
                         Tracer* tracer, SearchFn search)
    : index_(index),
      tracer_(tracer),
      search_(std::move(search)),
      search_us_(ops),
      prepare_us_(ops),
      compute_us_(ops) {}

void QueryReplay::Run(size_t op, const Query& query, DiskIndex* disk,
                      uint64_t request, bool search_first, bool count) {
  auto drop = [&] {
    if (disk != nullptr) CheckOk(disk->DropCaches(), "DropCaches");
  };
  auto replay = [&] {
    drop();
    ScopedSpan span(tracer_, "op", request);
    const SpanTimes t = ReplayPrepareCompute(index_, disk, query, tracer_,
                                             request, span.id());
    prepare_us_.Add(op, t.prepare_us);
    compute_us_.Add(op, t.compute_us);
  };
  auto search = [&] {
    drop();
    ScopedSpan span(tracer_, "engine.search", request);
    Result<xksearch::SearchResult> r = search_(query);
    tracer_->End(span.id());
    search_us_.Add(op, tracer_->DurationUs(span.id()));
    CheckOk(r.status(), "Search");
    if (count) counts_ += r->stats;
    if (disk == nullptr) return;
    ScopedSpan warm(tracer_, "storage.warm_search", request);
    CheckOk(search_(query).status(), "Search");
  };
  if (search_first) {
    search();
    replay();
  } else {
    replay();
    search();
  }
  TimeDecode(index_, query, tracer_, request, &decode_ns_, &decode_postings_);
}

void QueryReplay::Fill(RunResult* out) const {
  FillCountLayers(counts_, search_us_.size(), out);
  out->layers["engine.prepare_us"] = tracer_->MeanUs("engine.prepare");
  out->layers["slca.compute_us"] = tracer_->MeanUs("slca.compute");
  out->layers["engine.search_self_us"] =
      MedianSelfUs(search_us_, prepare_us_, compute_us_);
  if (tracer_->Count("storage.warm_search") > 0) {
    out->layers["storage.cold_penalty_us"] =
        tracer_->MeanUs("engine.search") -
        tracer_->MeanUs("storage.warm_search");
  }
  out->layers["dewey.decode_ns_per_posting"] =
      decode_ns_ / static_cast<double>(decode_postings_);
  FillTracedE2e(*tracer_, "op", out);
}

void FillCountLayers(const QueryStats& total, size_t queries, RunResult* out) {
  const double n = queries == 0 ? 1.0 : static_cast<double>(queries);
  out->layers["slca.match_ops"] = static_cast<double>(total.match_ops) / n;
  out->layers["slca.dewey_comparisons"] =
      static_cast<double>(total.dewey_comparisons) / n;
  out->layers["slca.lca_ops"] = static_cast<double>(total.lca_ops) / n;
  out->layers["slca.results"] = static_cast<double>(total.results) / n;
  out->layers["dewey.postings_read"] =
      static_cast<double>(total.postings_read) / n;
  out->layers["storage.page_reads"] = static_cast<double>(total.page_reads) / n;
  out->layers["storage.page_hits"] = static_cast<double>(total.page_hits) / n;
}

void FillTracedE2e(const Tracer& tracer, const char* op_span, RunResult* out) {
  const std::vector<double> us = tracer.DurationsUs(op_span);
  const double total = tracer.TotalSeconds(op_span);
  out->traced_e2e["ops_per_s"] =
      total > 0 ? static_cast<double>(us.size()) / total : 0;
  out->traced_e2e["latency_p50_us"] = Percentile(us, 50);
  out->traced_e2e["latency_p99_us"] = Percentile(us, 99);
  out->traced_e2e["latency_samples"] = static_cast<double>(us.size());
}

double ArenaBytesPerPosting(const InvertedIndex& index) {
  double bytes = 0;
  for (const std::string& term : index.Terms()) {
    bytes += static_cast<double>(index.Find(term)->arena_bytes());
  }
  return bytes / static_cast<double>(index.total_postings());
}

double IndexFileBytes(const std::string& prefix) {
  double bytes = 0;
  for (const char* ext : {".il", ".scan", ".dict"}) {
    bytes += static_cast<double>(std::filesystem::file_size(prefix + ext));
  }
  return bytes;
}

void RemoveIndexFiles(const std::string& prefix) {
  for (const char* ext : {".il", ".scan", ".dict", ".wal", ".xml"}) {
    std::error_code ec;
    std::filesystem::remove(prefix + ext, ec);
  }
}

bool KeepReplaying(size_t rounds, double seconds) {
  if (rounds < 2) return true;
  return rounds < 10 && seconds < 1.5;
}

Document ParseTimed(const std::string& xml, Tracer* tracer) {
  ScopedSpan span(tracer, "xml.parse", 0);
  Result<Document> doc = xksearch::ParseXml(xml);
  CheckOk(doc.status(), "ParseXml");
  return doc.MoveValueUnsafe();
}

}  // namespace perfbench
