// Shard-count sweep over the sharded collection layer: one closed-loop
// client runs a fixed query pool through ScatterGatherExecutor at shard
// counts 1..8 over the same multi-document DBLP corpus, in two regimes:
//
//   hot   per-shard pools sized to hold both trees, warmed before the
//         sweep: every fetch hits, so the curve isolates fan-out /
//         gather overhead — more shards must not cost throughput when
//         the data is resident.
//   cold  deliberately tiny per-shard pools, a steady-state miss
//         stream: each shard reads a 1/N slice of the corpus in
//         parallel, so latency per query must drop (and qps rise) as
//         shards are added — the scatter-gather analogue of the paper's
//         cold-cache figures.
//
// A final routed section queries each document's planted unique keyword
// ("only<d>"): the Bloom-plus-frequency router must execute exactly one
// shard and prune the rest, demonstrating that keyword-absent shards
// never pay for a query.
//
// Standalone binary (like bench_parallel_cold), not a google-benchmark
// harness: it needs per-configuration collection builds. Prints a table
// plus one JSON line per configuration for tools/bench_to_csv.py.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/xksearch.h"
#include "gen/dblp_generator.h"
#include "gen/query_sampler.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_collection.h"

namespace xksearch {
namespace {

using Clock = std::chrono::steady_clock;

struct Config {
  /// Documents in the corpus; each gets its own seed and one planted
  /// document-unique keyword "only<d>" for the routed section.
  size_t docs = 8;
  /// Papers per document (not total).
  size_t papers = 4000;
  std::vector<size_t> shard_list = {1, 2, 4, 8};
  size_t pool_queries = 128;
  /// Passes over the query pool per configuration.
  size_t rounds = 3;
  /// Frames per pool per shard in the cold regime.
  size_t cold_pool_pages = 64;
  /// Executor threads; 0 = min(shards, hardware).
  size_t workers = 0;
};

Result<std::unique_ptr<shard::ShardedCollection>> BuildCollection(
    const std::vector<Document>& corpus, size_t shards, bool disk, bool hot,
    const Config& config) {
  shard::ShardedCollectionOptions sco;
  sco.shards = shards;
  if (disk) {
    sco.disk.emplace();
    sco.disk->in_memory = true;  // page-identical to files, no FS noise
    sco.disk->scan_pool_pages = hot ? size_t{1} << 18 : config.cold_pool_pages;
  }
  shard::ShardedCollection::Builder builder(std::move(sco));
  for (size_t d = 0; d < corpus.size(); ++d) {
    XKS_RETURN_NOT_OK(
        builder.Add("doc" + std::to_string(d), corpus[d].Clone()));
  }
  return std::move(builder).Build();
}

std::vector<std::vector<std::string>> BuildQueryPool(
    const shard::ShardedCollection& merged, const Config& config) {
  // Sample from the 1-shard build's merged index so every configuration
  // sees the identical pool over the identical corpus.
  QuerySampler sampler(merged.shard_engine(0)->index());
  Rng rng(4242);
  // Two-keyword queries, one low- and one high-frequency target scaled
  // to the corpus (the paper's classic asymmetric-frequency shape).
  const uint64_t corpus_papers =
      static_cast<uint64_t>(config.docs * config.papers);
  const std::vector<uint64_t> targets{
      std::max<uint64_t>(2, corpus_papers / 100),
      std::max<uint64_t>(8, corpus_papers / 10)};
  std::vector<std::vector<std::string>> usable;
  std::set<std::vector<std::string>> seen;
  for (int attempt = 0; attempt < 64 && usable.size() < config.pool_queries;
       ++attempt) {
    std::vector<std::vector<std::string>> batch = sampler.SampleQueries(
        &rng, config.pool_queries, targets, /*tolerance=*/0.9);
    for (auto& query : batch) {
      if (query.empty() || usable.size() >= config.pool_queries) continue;
      std::vector<std::string> canonical = query;
      std::sort(canonical.begin(), canonical.end());
      if (seen.insert(std::move(canonical)).second) {
        usable.push_back(std::move(query));
      }
    }
  }
  return usable;
}

uint64_t ParseU64(const char* text) {
  return static_cast<uint64_t>(std::strtoull(text, nullptr, 10));
}

std::vector<size_t> ParseList(const char* text) {
  std::vector<size_t> out;
  std::string item;
  for (const char* p = text;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!item.empty()) {
        out.push_back(static_cast<size_t>(ParseU64(item.c_str())));
      }
      item.clear();
      if (*p == '\0') break;
    } else {
      item.push_back(*p);
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value("--docs=")) {
      config.docs = ParseU64(v);
    } else if (const char* v = value("--papers=")) {
      config.papers = ParseU64(v);
    } else if (const char* v = value("--shards=")) {
      config.shard_list = ParseList(v);
    } else if (const char* v = value("--pool-queries=")) {
      config.pool_queries = ParseU64(v);
    } else if (const char* v = value("--rounds=")) {
      config.rounds = ParseU64(v);
    } else if (const char* v = value("--cold-pool-pages=")) {
      config.cold_pool_pages = ParseU64(v);
    } else if (const char* v = value("--workers=")) {
      config.workers = ParseU64(v);
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nflags: --docs= --papers= --shards=l "
                   "--pool-queries= --rounds= --cold-pool-pages= "
                   "--workers=\n",
                   arg);
      return 2;
    }
  }

  // Corpus: docs documents, distinct seeds (so vocab overlaps but
  // frequencies differ per document) and one unique plant each.
  std::fprintf(stderr, "generating %zu documents x %zu papers...\n",
               config.docs, config.papers);
  std::vector<Document> corpus;
  for (size_t d = 0; d < config.docs; ++d) {
    DblpOptions gen;
    gen.papers = config.papers;
    gen.seed = 1234 + d;
    gen.zipf_exponent = 1.0;
    gen.plants.push_back(
        {"only" + std::to_string(d),
         std::min<uint64_t>(8, static_cast<uint64_t>(config.papers))});
    Result<Document> doc = GenerateDblp(gen);
    if (!doc.ok()) {
      std::fprintf(stderr, "gen: %s\n", doc.status().ToString().c_str());
      return 1;
    }
    corpus.push_back(doc.MoveValueUnsafe());
  }

  // Memory-only 1-shard build = the merged corpus, used for sampling.
  Result<std::unique_ptr<shard::ShardedCollection>> merged =
      BuildCollection(corpus, 1, /*disk=*/false, /*hot=*/false, config);
  if (!merged.ok()) {
    std::fprintf(stderr, "build: %s\n", merged.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::vector<std::string>> queries =
      BuildQueryPool(**merged, config);
  if (queries.empty()) {
    std::fprintf(stderr, "query pool came out empty; enlarge --papers\n");
    return 1;
  }

  std::printf("%6s %7s %8s %10s %8s %12s %12s %12s\n", "regime", "shards",
              "workers", "qps", "scaling", "reads/query", "exec/query",
              "pruned/query");
  for (const bool hot : {true, false}) {
    double base_qps = 0;
    for (const size_t shards : config.shard_list) {
      std::fprintf(stderr, "building %s %zu-shard collection...\n",
                   hot ? "hot" : "cold", shards);
      Result<std::unique_ptr<shard::ShardedCollection>> built =
          BuildCollection(corpus, shards, /*disk=*/true, hot, config);
      if (!built.ok()) {
        std::fprintf(stderr, "build: %s\n",
                     built.status().ToString().c_str());
        return 1;
      }
      const shard::ShardedCollection& collection = **built;
      if (hot) {
        for (uint32_t s = 0; s < collection.shard_count(); ++s) {
          const DiskSearcher* disk = collection.shard_disk(s);
          if (disk == nullptr) continue;
          const Status warmed = disk->index()->WarmCaches();
          if (!warmed.ok()) {
            std::fprintf(stderr, "warm: %s\n", warmed.ToString().c_str());
            return 1;
          }
        }
      }
      shard::ScatterGatherOptions sgo;
      sgo.workers = config.workers;
      const shard::ScatterGatherExecutor executor(&collection, sgo);
      const SearchOptions so;

      uint64_t ok = 0;
      uint64_t failed = 0;
      uint64_t page_reads = 0;
      uint64_t executed = 0;
      uint64_t pruned = 0;
      const Clock::time_point start = Clock::now();
      for (size_t round = 0; round < config.rounds; ++round) {
        for (const std::vector<std::string>& query : queries) {
          const Result<shard::ShardedResult> r = executor.Search(query, so);
          if (!r.ok()) {
            ++failed;
            continue;
          }
          ++ok;
          page_reads += r->result.stats.page_reads.load();
          executed += r->executed_shards();
          pruned += r->pruned_shards();
        }
      }
      const double seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      const double qps = seconds > 0 ? static_cast<double>(ok) / seconds : 0;
      if (base_qps == 0) base_qps = qps;
      const double per_query = ok == 0 ? 0 : 1.0 / static_cast<double>(ok);
      std::printf("%6s %7zu %8zu %10.0f %7.2fx %12.1f %12.2f %12.2f\n",
                  hot ? "hot" : "cold", shards, executor.workers(), qps,
                  base_qps > 0 ? qps / base_qps : 0.0,
                  static_cast<double>(page_reads) * per_query,
                  static_cast<double>(executed) * per_query,
                  static_cast<double>(pruned) * per_query);
      std::printf(
          "{\"bench\":\"shard_scaling\",\"row\":\"sweep\",\"regime\":\"%s\","
          "\"shards\":%zu,\"docs\":%zu,\"papers_per_doc\":%zu,\"workers\":%zu,"
          "\"qps\":%.1f,\"qps_scaling\":%.3f,\"ok\":%" PRIu64
          ",\"failed\":%" PRIu64 ",\"page_reads\":%" PRIu64
          ",\"executed_shards\":%" PRIu64 ",\"pruned_shards\":%" PRIu64 "}\n",
          hot ? "hot" : "cold", shards, config.docs, config.papers,
          executor.workers(), qps, base_qps > 0 ? qps / base_qps : 0.0, ok,
          failed, page_reads, executed, pruned);
      std::fflush(stdout);
      if (failed != 0) {
        std::fprintf(stderr, "%" PRIu64 " queries failed\n", failed);
        return 1;
      }

      // Routed section (cold only — routing work is identical either
      // way, cold shows the reads it avoids): each document's unique
      // plant must execute one shard and prune the rest. Caches are
      // dropped before every pass so each routed query pays the cold
      // cost of its one shard's 1/N-sized index — the per-query benefit
      // selective queries get from sharding even without parallel
      // hardware.
      if (!hot) {
        uint64_t routed_ok = 0;
        uint64_t routed_executed = 0;
        uint64_t routed_pruned = 0;
        uint64_t routed_reads = 0;
        bool routed_exact = true;
        double routed_seconds = 0;
        for (size_t pass = 0; pass < config.rounds; ++pass) {
          for (uint32_t s = 0; s < collection.shard_count(); ++s) {
            const DiskSearcher* disk = collection.shard_disk(s);
            if (disk == nullptr) continue;
            const Status dropped = disk->index()->DropCaches();
            if (!dropped.ok()) {
              std::fprintf(stderr, "drop: %s\n",
                           dropped.ToString().c_str());
              return 1;
            }
          }
          const Clock::time_point routed_start = Clock::now();
          for (size_t d = 0; d < config.docs; ++d) {
            const Result<shard::ShardedResult> r =
                executor.Search({"only" + std::to_string(d)}, so);
            if (!r.ok()) {
              std::fprintf(stderr, "routed query failed: %s\n",
                           r.status().ToString().c_str());
              return 1;
            }
            ++routed_ok;
            routed_executed += r->executed_shards();
            routed_pruned += r->pruned_shards();
            routed_reads += r->result.stats.page_reads.load();
            if (r->executed_shards() != 1) routed_exact = false;
          }
          routed_seconds += std::chrono::duration<double>(Clock::now() -
                                                          routed_start)
                                .count();
        }
        const double routed_qps =
            routed_seconds > 0
                ? static_cast<double>(routed_ok) / routed_seconds
                : 0;
        const double routed_per =
            routed_ok == 0 ? 0 : 1.0 / static_cast<double>(routed_ok);
        std::printf("%6s %7zu %8s %10.0f %8s %12.1f %12.2f %12.2f\n",
                    "routed", shards, "-", routed_qps, "-",
                    static_cast<double>(routed_reads) * routed_per,
                    static_cast<double>(routed_executed) * routed_per,
                    static_cast<double>(routed_pruned) * routed_per);
        std::printf(
            "{\"bench\":\"shard_scaling\",\"row\":\"routed\",\"regime\":"
            "\"cold\",\"shards\":%zu,\"docs\":%zu,\"queries\":%" PRIu64
            ",\"qps\":%.1f,\"page_reads\":%" PRIu64
            ",\"executed_shards\":%" PRIu64 ",\"pruned_shards\":%" PRIu64
            ",\"single_shard_exact\":%s}\n",
            shards, config.docs, routed_ok, routed_qps, routed_reads,
            routed_executed, routed_pruned,
            routed_exact ? "true" : "false");
        std::fflush(stdout);
        if (!routed_exact) {
          std::fprintf(stderr,
                       "router executed >1 shard for a document-unique "
                       "keyword\n");
          return 1;
        }
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace xksearch

int main(int argc, char** argv) { return xksearch::Main(argc, argv); }
