// serve_zipf: QueryService over a 4-shard document-partitioned collection,
// one client thread with one request in flight over a seeded Zipf
// stream drawn from a large pool of distinct queries.

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "corpus.h"
#include "serve/query_service.h"
#include "shard/sharded_collection.h"
#include "workloads.h"

namespace perfbench {

using xksearch::QueryStats;
using xksearch::Result;
using xksearch::SearchOptions;
using xksearch::SearchResult;
using xksearch::serve::QueryResponse;
using xksearch::serve::QueryService;
using xksearch::serve::QueryServiceOptions;
using xksearch::shard::ShardedCollection;
using xksearch::shard::ShardedCollectionOptions;
using xksearch::shard::ShardedResult;

namespace {

using Query = std::vector<std::string>;

constexpr size_t kDocuments = 8;
constexpr size_t kPapersPerDocument = 12500;
constexpr size_t kShards = 4;
/// Document d draws background words from t0 .. t<vocab(d)-1>, so the
/// words above t1000 occur in only some documents and some shards can
/// be pruned.
size_t VocabOf(size_t d) { return 1000 + 250 * d; }
constexpr size_t kMaxVocab = 1000 + 250 * (kDocuments - 1);
/// Distinct queries; with the Zipf exponent and the result-cache budget
/// below, most requests miss the cache.
constexpr size_t kPoolQueries = 20000;
constexpr double kZipfExponent = 0.8;
constexpr size_t kStreamLength = 400000;
constexpr size_t kPassRequests = 2000;
/// Requests replayed as layer calls in the traced run.
constexpr size_t kReplayRequests = 2000;

/// Threads: the client, one request worker and the shard executor's one
/// worker. The executor's queue holds nothing, so it rejects every task
/// and each candidate shard runs inline on the request worker (its
/// documented fallback): a request crosses threads only to the worker
/// and back. Handing shards to the second worker made p50 slower (135
/// against 121 us) and widened p99's run-to-run range under other load
/// (396-913 against 396-608 us); a second request in flight queued
/// behind the first, doubling p50 and amplifying every slow period of
/// the host into p99.
QueryServiceOptions ServiceOptions() {
  QueryServiceOptions options;
  options.pool.workers = 1;
  options.pool.queue_capacity = 256;
  options.cache.capacity_bytes = 1u << 20;
  options.hot_list_bytes = 2u << 20;
  options.shard_exec.workers = 1;
  options.shard_exec.queue_capacity = 0;
  return options;
}

std::vector<Query> MakePool(uint64_t seed) {
  Rng rng(SubSeed(seed, "serve-pool"));
  std::set<Query> seen;
  std::vector<Query> pool;
  while (pool.size() < kPoolQueries) {
    const size_t k = rng.Uniform(10) < 7 ? 2 : 3;
    std::set<std::string> words;
    while (words.size() < k) {
      words.insert("t" + std::to_string(rng.Uniform(kMaxVocab)));
    }
    Query q(words.begin(), words.end());
    if (seen.insert(q).second) pool.push_back(std::move(q));
  }
  return pool;
}

/// Zipf(kZipfExponent) ranks over the pool (rank 0 most popular).
std::vector<uint32_t> MakeStream(uint64_t seed) {
  std::vector<double> cdf(kPoolQueries);
  double total = 0;
  for (size_t i = 0; i < kPoolQueries; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cdf[i] = total;
  }
  Rng rng(SubSeed(seed, "serve-stream"));
  std::vector<uint32_t> stream(kStreamLength);
  for (uint32_t& rank : stream) {
    const double u = rng.UniformDouble() * total;
    rank = static_cast<uint32_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  }
  return stream;
}

}  // namespace

RunResult RunServeZipf(const Args& args, Tracer* tracer) {
  RunResult out;
  std::vector<std::string> xmls;
  for (size_t d = 0; d < kDocuments; ++d) {
    DblpSpec spec;
    spec.papers = kPapersPerDocument;
    spec.venues = 5;
    spec.years_per_venue = 10;
    spec.vocab = VocabOf(d);
    spec.seed = SubSeed(args.seed, "serve-doc") + d;
    xmls.push_back(GenerateDblpXml(spec));
  }
  const std::vector<Query> pool = MakePool(args.seed);
  const std::vector<uint32_t> stream = MakeStream(args.seed);

  std::unique_ptr<ShardedCollection> collection;
  std::unique_ptr<QueryService> service;
  auto teardown = [&] {
    service.reset();
    collection.reset();
  };
  auto setup = [&] {
    ShardedCollectionOptions options;
    options.shards = kShards;
    ShardedCollection::Builder builder(options);
    for (size_t d = 0; d < kDocuments; ++d) {
      CheckOk(builder.Add("doc" + std::to_string(d),
                          ParseTimed(xmls[d], tracer)),
              "Builder::Add");
    }
    ScopedSpan span(tracer, "index.build", 0);
    Result<std::unique_ptr<ShardedCollection>> built =
        std::move(builder).Build();
    CheckOk(built.status(), "ShardedCollection::Build");
    collection = built.MoveValueUnsafe();
    service = std::make_unique<QueryService>(collection.get(),
                                             ServiceOptions());
  };
  TimeSetups(teardown, setup, &out);
  {
    double bytes = 0, postings = 0;
    for (uint32_t s = 0; s < collection->shard_count(); ++s) {
      const xksearch::XKSearch* engine = collection->shard_engine(s);
      if (engine == nullptr) continue;
      const double n = static_cast<double>(engine->index().total_postings());
      bytes += ArenaBytesPerPosting(engine->index()) * n;
      postings += n;
    }
    out.e2e["index_bytes_per_posting"] = bytes / postings;
    out.samples["postings"] = postings;
  }
  out.samples["pool_queries"] = kPoolQueries;
  out.samples["in_flight"] = 1;

  // Reference answers: sequential scatter-gather, outside the timed region.
  std::vector<uint64_t> reference;
  reference.reserve(pool.size());
  for (const Query& q : pool) {
    Result<ShardedResult> r = collection->Search(q);
    CheckOk(r.status(), "reference ShardedCollection::Search");
    reference.push_back(Digest(r->result.nodes));
  }

  const SearchOptions options;
  if (tracer != nullptr) {
    QueryStats counts;
    double executed = 0, pruned = 0, straggler = 0;
    size_t straggler_ops = 0;
    double decode_ns = 0;
    uint64_t decode_postings = 0;
    double replay_s = 0;
    MinPerOp search_us(kReplayRequests), prepare_us(kReplayRequests),
        compute_us(kReplayRequests);
    for (size_t round = 0; KeepReplaying(round, replay_s); ++round) {
      const Clock::time_point r0 = Clock::now();
      for (size_t i = 0; i < kReplayRequests; ++i) {
        const Query& q = pool[stream[i]];
        const uint64_t request = round * kReplayRequests + i + 1;
        Result<ShardedCollection::Plan> routed = collection->PlanQuery(q);
        CheckOk(routed.status(), "PlanQuery");
        const std::vector<uint32_t> candidates = routed->candidates;
        auto scatter = [&] {
          ScopedSpan op(tracer, "op", request);
          Result<ShardedCollection::Plan> plan = [&] {
            ScopedSpan span(tracer, "shard.plan", request, op.id());
            return collection->PlanQuery(q);
          }();
          CheckOk(plan.status(), "PlanQuery");
          std::vector<Result<SearchResult>> outcomes;
          std::vector<double> shard_us;
          for (uint32_t s : candidates) {
            ScopedSpan span(tracer, "shard.search", request, op.id());
            outcomes.push_back(collection->SearchShard(s, q, options));
            tracer->End(span.id());
            shard_us.push_back(tracer->DurationUs(span.id()));
          }
          ScopedSpan gather(tracer, "shard.gather", request, op.id());
          Result<ShardedResult> r =
              collection->Gather(plan.MoveValueUnsafe(), std::move(outcomes));
          CheckOk(r.status(), "Gather");
          double sum = 0;
          for (double us : shard_us) sum += us;
          search_us.Add(i, sum);
          if (round > 0) return;
          counts += r->result.stats;
          executed += static_cast<double>(r->executed_shards());
          pruned += static_cast<double>(r->pruned_shards());
          if (!shard_us.empty()) {
            straggler += *std::max_element(shard_us.begin(), shard_us.end()) /
                         (sum / static_cast<double>(shard_us.size()));
            ++straggler_ops;
          }
        };
        // The engine layers of the same shard queries, as separate calls.
        auto layers = [&] {
          SpanTimes total;
          for (uint32_t s : candidates) {
            ScopedSpan span(tracer, "engine.shard_query", request);
            const SpanTimes t = ReplayPrepareCompute(
                collection->shard_engine(s)->index(), nullptr, q, tracer,
                request, span.id());
            total.prepare_us += t.prepare_us;
            total.compute_us += t.compute_us;
          }
          prepare_us.Add(i, total.prepare_us);
          compute_us.Add(i, total.compute_us);
        };
        if (round % 2 == 0) {
          scatter();
          layers();
        } else {
          layers();
          scatter();
        }
        for (uint32_t s : candidates) {
          TimeDecode(collection->shard_engine(s)->index(), q, tracer, request,
                     &decode_ns, &decode_postings);
        }
      }
      replay_s += SecondsBetween(r0, Clock::now());
    }
    const double n = static_cast<double>(kReplayRequests);
    FillCountLayers(counts, kReplayRequests, &out);
    out.layers["shard.executed_per_query"] = executed / n;
    out.layers["shard.pruned_per_query"] = pruned / n;
    out.layers["shard.straggler_ratio"] =
        straggler_ops == 0 ? 1.0 : straggler / static_cast<double>(straggler_ops);
    const double ops = static_cast<double>(tracer->Count("op"));
    out.layers["shard.plan_us"] = tracer->MeanUs("shard.plan");
    out.layers["shard.search_us"] = tracer->MeanUs("shard.search");
    out.layers["shard.gather_us"] = tracer->MeanUs("shard.gather");
    // Engine layers per request: all of its shard queries together.
    out.layers["engine.prepare_us"] =
        tracer->TotalSeconds("engine.prepare") * 1e6 / ops;
    out.layers["slca.compute_us"] =
        tracer->TotalSeconds("slca.compute") * 1e6 / ops;
    out.layers["engine.search_self_us"] =
        MedianSelfUs(search_us, prepare_us, compute_us);
    out.layers["dewey.decode_ns_per_posting"] =
        decode_postings == 0 ? 0
                             : decode_ns / static_cast<double>(decode_postings);
    FillTracedE2e(*tracer, "op", &out);
  }

  // Closed loop: one client thread, one request in flight.
  Measurement m;
  size_t next = 0;
  double threads = 0;
  while (KeepMeasuring(m, args.seconds)) {
    m.BeginPass();
    for (size_t k = 0; k < kPassRequests; ++k) {
      const uint32_t query = stream[next++ % stream.size()];
      const Clock::time_point submitted = Clock::now();
      Result<QueryResponse> r = service->Search(pool[query], options);
      ++out.attempted;
      if (!r.ok()) {
        ++out.failed;
        m.Record(MicrosBetween(submitted, Clock::now()));
        continue;
      }
      if (Digest(r->result.nodes) != reference[query]) ++out.failed;
      m.Record(std::chrono::duration<double, std::micro>(r->latency).count());
    }
    threads = std::max(threads, static_cast<double>(ThreadCount()));
    m.EndPass();
  }
  FillE2e(m, PassSelection::kFasterHalf, &out);
  out.samples["threads"] = threads;

  if (tracer != nullptr) {
    const auto& metrics = service->metrics();
    const double requests = static_cast<double>(metrics.requests);
    out.layers["serve.cache_hit_ratio"] =
        static_cast<double>(metrics.cache_hits) / requests;
    out.layers["serve.coalesced_ratio"] =
        static_cast<double>(metrics.coalesced_queries) / requests;
    out.layers["serve.rejected_ratio"] =
        static_cast<double>(metrics.rejected) / requests;
    const auto hot = service->hot_list_stats();
    out.layers["serve.hot_list_hit_ratio"] =
        hot.hits + hot.misses == 0
            ? 0
            : static_cast<double>(hot.hits) /
                  static_cast<double>(hot.hits + hot.misses);
    const auto queue = metrics.queue_latency.TakeSnapshot();
    out.layers["serve.queue_wait_p50_us"] =
        static_cast<double>(queue.PercentileNanos(0.50)) / 1000.0;
    out.layers["serve.queue_wait_p99_us"] =
        static_cast<double>(queue.PercentileNanos(0.99)) / 1000.0;
  }
  // The second window of set-ups, after the measurement.
  TimeSetups(teardown, setup, &out);
  service.reset();
  return out;
}

}  // namespace perfbench
