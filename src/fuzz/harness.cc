#include "fuzz/harness.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "engine/disk_searcher.h"
#include "engine/xksearch.h"
#include "gen/random_tree.h"
#include "serve/query_service.h"
#include "serve/thread_pool.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_collection.h"
#include "slca/brute_force.h"
#include "slca/parallel.h"
#include "storage/disk_index.h"
#include "storage/fault_injection.h"

namespace xksearch {
namespace fuzz {

namespace {

std::string JoinKeywords(const std::vector<std::string>& keywords) {
  std::string out;
  for (const std::string& k : keywords) {
    if (!out.empty()) out += ' ';
    out += k;
  }
  return out;
}

std::string IdsToString(std::vector<DeweyId> ids) {
  std::sort(ids.begin(), ids.end());
  std::string out = "{";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) out += ", ";
    out += ids[i].ToString();
  }
  out += "}";
  return out;
}

bool SameSet(std::vector<DeweyId> a, std::vector<DeweyId> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

/// Shared mutable state of one fuzz case, so the check helpers can file
/// divergences without threading six arguments through every call.
struct CaseContext {
  uint64_t seed;
  FuzzReport* report;
  const std::vector<std::string>* keywords;

  void Diverge(std::string detail) {
    Divergence d;
    d.seed = seed;
    d.keywords = *keywords;
    d.detail = std::move(detail);
    report->divergences.push_back(std::move(d));
  }

  /// Compares one algorithm's answer against the oracle's.
  void Check(const char* label, const Result<SearchResult>& got,
             const std::vector<DeweyId>& expected) {
    ++report->cases;
    if (!got.ok()) {
      Diverge(std::string(label) + " failed: " + got.status().ToString());
      return;
    }
    if (!SameSet(got->nodes, expected)) {
      Diverge(std::string(label) + " = " + IdsToString(got->nodes) +
              ", oracle = " + IdsToString(expected));
    }
  }

  void CheckIds(const char* label, const std::vector<DeweyId>& got,
                const std::vector<DeweyId>& expected) {
    ++report->cases;
    if (!SameSet(got, expected)) {
      Diverge(std::string(label) + " = " + IdsToString(got) + ", oracle = " +
              IdsToString(expected));
    }
  }
};

/// The three paper algorithms, each forced explicitly.
constexpr AlgorithmChoice kAlgorithms[] = {
    AlgorithmChoice::kIndexedLookupEager,
    AlgorithmChoice::kScanEager,
    AlgorithmChoice::kStack,
};

/// Re-bases a single-document answer id [0, rest...] of document `d` to
/// collection coordinates [0, d, rest...] — the convention the sharded
/// collection reports in, so per-document oracle unions compare directly.
DeweyId RebaseToCollection(const DeweyId& id, uint32_t d) {
  std::vector<uint32_t> components;
  components.reserve(id.depth() + 1);
  components.push_back(0);
  components.push_back(d);
  for (size_t i = 1; i < id.depth(); ++i) {
    components.push_back(id.component(i));
  }
  return DeweyId(std::move(components));
}

/// One shard-count configuration under test: the collection, its
/// parallel executor, and the per-shard fault hooks.
/// One shard count's collections: the in-memory one, and beside it (with
/// FuzzOptions::with_disk) one built with a disk index, whose shards
/// answer from their DiskSearchers.
struct ShardedSetup {
  size_t shard_count = 0;
  std::unique_ptr<shard::ShardedCollection> collection;
  std::unique_ptr<shard::ScatterGatherExecutor> executor;
  std::unique_ptr<shard::ShardedCollection> disk_collection;
  std::unique_ptr<shard::ScatterGatherExecutor> disk_executor;
  std::vector<std::vector<FaultInjectingPageStore*>> wrappers;  // per shard
};

// ---------------------------------------------------------------------
// Crash-recovery rounds.
// ---------------------------------------------------------------------

using PostingModel = std::map<std::string, std::vector<DeweyId>>;

bool CopyFileBytes(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  if (!in.good()) return false;
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
  return out.good();
}

void RemoveIndexFiles(const std::string& prefix) {
  for (const char* suffix : {".il", ".scan", ".dict", ".wal"}) {
    std::remove((prefix + suffix).c_str());
  }
}

/// Plans, runs and classifies the seeded crash rounds of one fuzz case;
/// FuzzOptions::crash_rounds documents the contract. Mirrors the
/// exhaustive sweep in tests/crash_recovery_test.cc, but samples the
/// kill point and draws the index, the batch and the queries from the
/// fuzzer's seed — shapes the hand-written sweep fixture cannot reach.
void RunCrashRounds(uint64_t seed, const FuzzOptions& options,
                    const XKSearch& engine, Rng* rng, FuzzReport* report) {
  auto diverge = [&](std::string detail) {
    Divergence d;
    d.seed = seed;
    d.detail = std::move(detail);
    report->divergences.push_back(std::move(d));
  };

  // Pre-batch model, plus the corpus id pool the adds sample from
  // (every pooled id is already encodable by the index's level table).
  PostingModel pre;
  std::vector<DeweyId> id_pool;
  for (const std::string& term : engine.index().Terms()) {
    pre[term] = engine.index().Materialize(term);
    id_pool.insert(id_pool.end(), pre[term].begin(), pre[term].end());
  }
  if (pre.empty() || id_pool.empty()) return;  // degenerate document

  // The batch: seeded removes of existing postings, adds that reuse
  // corpus ids under other — and brand-new — terms. The post model
  // applies removes before adds, the same order the batch runs in.
  struct BatchOp {
    bool is_add;
    std::string term;
    DeweyId id;
  };
  std::vector<BatchOp> ops;
  std::map<std::string, std::set<DeweyId>> post;
  for (const auto& [term, ids] : pre) {
    post[term].insert(ids.begin(), ids.end());
  }
  for (const auto& [term, ids] : pre) {
    if (!rng->Bernoulli(0.6)) continue;
    for (const DeweyId& id : ids) {
      if (!rng->Bernoulli(0.3)) continue;
      ops.push_back({false, term, id});
      post[term].erase(id);
    }
  }
  std::vector<std::string> terms;
  for (const auto& [term, ids] : pre) terms.push_back(term);
  const size_t adds = 1 + rng->Uniform(8);
  for (size_t i = 0; i < adds; ++i) {
    const std::string term =
        rng->Bernoulli(0.3) ? "crashterm" + std::to_string(rng->Uniform(3))
                            : terms[rng->Uniform(terms.size())];
    const DeweyId& id = id_pool[rng->Uniform(id_pool.size())];
    ops.push_back({true, term, id});
    post[term].insert(id);
  }
  PostingModel post_model;
  for (const auto& [term, ids] : post) {
    if (!ids.empty()) post_model[term].assign(ids.begin(), ids.end());
  }

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string dir =
      (tmpdir != nullptr && *tmpdir != '\0') ? tmpdir : "/tmp";
  const std::string tag = std::to_string(seed) + "_" +
                          std::to_string(static_cast<long long>(::getpid()));
  const std::string base_prefix = dir + "/xk_fuzz_crash_base_" + tag;
  const std::string work_prefix = dir + "/xk_fuzz_crash_work_" + tag;
  RemoveIndexFiles(base_prefix);
  RemoveIndexFiles(work_prefix);
  struct Cleanup {
    const std::string& base;
    const std::string& work;
    ~Cleanup() {
      RemoveIndexFiles(base);
      RemoveIndexFiles(work);
    }
  } cleanup{base_prefix, work_prefix};

  {
    Result<std::unique_ptr<DiskIndex>> built =
        DiskIndex::Build(engine.index(), base_prefix);
    if (!built.ok()) {
      diverge("crash-round base build failed: " + built.status().ToString());
      return;
    }
  }
  auto reset_work = [&]() -> bool {
    for (const char* suffix : {".scan", ".dict"}) {
      if (!CopyFileBytes(base_prefix + suffix, work_prefix + suffix)) {
        return false;
      }
    }
    std::remove((work_prefix + ".wal").c_str());
    return true;
  };
  auto run_batch =
      [&](const std::shared_ptr<CrashSchedule>& schedule) -> Status {
    DiskIndexOptions dio;
    dio.store_decorator = [&schedule](std::unique_ptr<PageStore> store,
                                      std::string_view) {
      auto wrapped =
          std::make_unique<FaultInjectingPageStore>(std::move(store), 1);
      wrapped->SetCrashSchedule(schedule);
      return std::unique_ptr<PageStore>(std::move(wrapped));
    };
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(work_prefix, dio);
    if (!updater.ok()) return updater.status();
    for (const BatchOp& op : ops) {
      const Status st = op.is_add
                            ? (*updater)->AddPosting(op.term, op.id)
                            : (*updater)->RemovePosting(op.term, op.id);
      if (!st.ok()) return st;
    }
    return (*updater)->Finish();
  };

  // Fault-free counting run: W = the kill-point domain.
  if (!reset_work()) {
    diverge("crash-round work copy failed");
    return;
  }
  auto counting = std::make_shared<CrashSchedule>();
  const Status counted = run_batch(counting);
  if (!counted.ok()) {
    diverge("crash-round counting run failed: " + counted.ToString());
    return;
  }
  const uint64_t total_ops = counting->operations();
  if (total_ops == 0) {
    diverge("crash-round counting run saw zero durable operations");
    return;
  }

  std::set<std::string> keyword_set;
  for (const auto& [term, ids] : pre) keyword_set.insert(term);
  for (const auto& [term, ids] : post_model) keyword_set.insert(term);
  const std::vector<std::string> keywords(keyword_set.begin(),
                                          keyword_set.end());

  // Reopens the work index (WAL replay at open), reads every keyword
  // list and checks dictionary/list agreement plus zero leaked pins.
  auto read_state = [&](PostingModel* out) -> Status {
    out->clear();
    Result<std::unique_ptr<DiskIndex>> index = DiskIndex::Open(work_prefix);
    if (!index.ok()) return index.status();
    for (const std::string& keyword : keywords) {
      const DiskIndex::TermInfo* info = (*index)->FindTerm(keyword);
      if (info == nullptr) continue;
      Result<DiskIndex::PostingCursor> cursor =
          (*index)->OpenPostings(info->id);
      if (!cursor.ok()) return cursor.status();
      std::vector<DeweyId> ids;
      DeweyId id;
      while (cursor->Next(&id)) ids.push_back(id);
      if (!cursor->status().ok()) return cursor->status();
      if (info->frequency != ids.size()) {
        return Status::Internal(
            "dictionary frequency " + std::to_string(info->frequency) +
            " disagrees with scan layout size " + std::to_string(ids.size()) +
            " for " + keyword);
      }
      (*out)[keyword] = std::move(ids);
    }
    if ((*index)->scan_pool()->DebugTotalPins() != 0) {
      return Status::Internal("recovered index leaked pins");
    }
    return Status::OK();
  };

  for (size_t round = 0; round < options.crash_rounds; ++round) {
    const uint64_t k = 1 + rng->Uniform(total_ops);
    const std::string label = "crash round " + std::to_string(round) +
                              " (kill at op " + std::to_string(k) + "/" +
                              std::to_string(total_ops) + ")";
    if (!reset_work()) {
      diverge(label + ": work copy failed");
      return;
    }
    auto schedule = std::make_shared<CrashSchedule>();
    schedule->CrashAtOperation(k);
    const Status crashed = run_batch(schedule);
    ++report->cases;
    if (crashed.ok()) {
      diverge(label + ": batch survived its kill point");
      continue;
    }
    if (!crashed.IsIoError()) {
      diverge(label + ": died with non-IoError: " + crashed.ToString());
      continue;
    }
    PostingModel state;
    const Status read = read_state(&state);
    if (!read.ok()) {
      diverge(label + ": recovery read failed: " + read.ToString());
      continue;
    }
    const PostingModel* oracle = nullptr;
    if (state == pre) {
      ++report->crash_landed_pre;
      oracle = &pre;
    } else if (state == post_model) {
      ++report->crash_landed_post;
      oracle = &post_model;
    } else {
      diverge(label + ": recovered index is neither pre- nor post-batch");
      continue;
    }

    // Query parity on the recovered index through the real search path
    // against the matching side's brute-force SLCA.
    std::vector<std::string> query;
    std::vector<std::vector<DeweyId>> lists;
    for (int i = 0; i < 2; ++i) {
      const std::string& kw = keywords[rng->Uniform(keywords.size())];
      query.push_back(kw);
      auto it = oracle->find(kw);
      lists.push_back(it == oracle->end() ? std::vector<DeweyId>{}
                                          : it->second);
    }
    Result<std::unique_ptr<DiskSearcher>> searcher =
        DiskSearcher::Open(work_prefix);
    if (!searcher.ok()) {
      diverge(label +
              ": searcher open failed: " + searcher.status().ToString());
      continue;
    }
    Result<SearchResult> got = (*searcher)->Search(query);
    ++report->cases;
    if (!got.ok()) {
      diverge(label + ": recovered query failed: " + got.status().ToString());
      continue;
    }
    const std::vector<DeweyId> expected = BruteForceSlca(lists);
    if (!SameSet(got->nodes, expected)) {
      diverge(label + ": recovered query = " + IdsToString(got->nodes) +
              ", batch-boundary oracle = " + IdsToString(expected));
    }
  }
}

const char* AlgorithmLabel(AlgorithmChoice a, bool disk) {
  switch (a) {
    case AlgorithmChoice::kIndexedLookupEager:
      return disk ? "disk/il-eager" : "mem/il-eager";
    case AlgorithmChoice::kScanEager:
      return disk ? "disk/scan-eager" : "mem/scan-eager";
    case AlgorithmChoice::kStack:
      return disk ? "disk/stack" : "mem/stack";
    default:
      return "auto";
  }
}

}  // namespace

void FuzzReport::Merge(const FuzzReport& other) {
  collections += other.collections;
  cases += other.cases;
  clean_fault_errors += other.clean_fault_errors;
  fault_survivals += other.fault_survivals;
  crash_landed_pre += other.crash_landed_pre;
  crash_landed_post += other.crash_landed_post;
  divergences.insert(divergences.end(), other.divergences.begin(),
                     other.divergences.end());
}

std::string FormatDivergence(const Divergence& d) {
  std::ostringstream os;
  os << "divergence: seed=" << d.seed << " query=\"" << JoinKeywords(d.keywords)
     << "\" — " << d.detail
     << "  (replay: xk_fuzz --seed=" << d.seed << " --cases=1)";
  return os.str();
}

FuzzReport RunFuzzCase(uint64_t seed, const FuzzOptions& options) {
  FuzzReport report;
  report.collections = 1;
  Rng rng(seed);

  // --- Collection: random tree, random shape, shared by every query. ---
  RandomTreeOptions tree;
  tree.node_count = static_cast<size_t>(
      rng.UniformInt(static_cast<int64_t>(options.min_nodes),
                     static_cast<int64_t>(options.max_nodes)));
  tree.max_depth = static_cast<uint32_t>(rng.UniformInt(3, 10));
  tree.max_children = static_cast<uint32_t>(rng.UniformInt(2, 6));
  tree.vocab_size = static_cast<size_t>(
      rng.UniformInt(static_cast<int64_t>(options.min_vocab),
                     static_cast<int64_t>(options.max_vocab)));
  tree.text_probability = 0.4 + 0.5 * rng.UniformDouble();
  Document doc = GenerateRandomDocument(&rng, tree);
  const std::vector<std::string> vocab = RandomTreeVocabulary(tree);

  // Fault wrappers, filled by the decorator when the disk path is built.
  std::vector<FaultInjectingPageStore*> wrappers;

  DiskIndexOptions disk_options;
  if (options.with_disk) {
    disk_options.in_memory = true;
    // Deliberately tiny pools (and sometimes a single shard) so cursor
    // traffic misses constantly: a fuzz case where everything stays
    // cached would never exercise the read path, let alone its faults.
    // Two draws, summed: the frame budget of the former probe and scan
    // pools, and the same draw sequence per seed as when there were two.
    const auto probe_pages = static_cast<size_t>(rng.UniformInt(2, 16));
    disk_options.scan_pool_pages =
        probe_pages + static_cast<size_t>(rng.UniformInt(2, 16));
    disk_options.pool_shards = static_cast<size_t>(rng.UniformInt(1, 4));
    // Tiny scan blocks so even fuzz-sized keyword lists span several
    // blocks — that is what gives the disk chunk planner something to
    // split (block boundaries are its partition units).
    disk_options.scan_block_bytes =
        static_cast<size_t>(rng.UniformInt(48, 512));
    // Discarded: this draw once picked the leaf-readahead depth. Taking
    // it keeps every later draw of a seed, and so the index options and
    // queries that seed builds, unchanged.
    (void)rng.UniformInt(0, 4);
    disk_options.compress_dewey = rng.Bernoulli(0.75);
    disk_options.delta_compress = rng.Bernoulli(0.75);
    disk_options.store_decorator =
        [&wrappers, seed](std::unique_ptr<PageStore> inner,
                          std::string_view /*name*/) {
          auto wrapped = std::make_unique<FaultInjectingPageStore>(
              std::move(inner), seed);
          wrappers.push_back(wrapped.get());
          return std::unique_ptr<PageStore>(std::move(wrapped));
        };
  }

  auto build_failed = [&](const std::string& what, const Status& status) {
    Divergence d;
    d.seed = seed;
    d.detail = what + " failed: " + status.ToString();
    report.divergences.push_back(std::move(d));
    return report;
  };
  Result<std::unique_ptr<XKSearch>> built =
      XKSearch::BuildFromDocument(std::move(doc));
  if (!built.ok()) return build_failed("build", built.status());
  const XKSearch& engine = **built;
  // The disk engine over the same index: every disk check below runs on
  // it, beside the in-memory engine.
  std::unique_ptr<DiskSearcher> disk;
  if (options.with_disk) {
    Result<std::unique_ptr<DiskSearcher>> disk_built =
        DiskSearcher::Build(engine, "", disk_options);
    if (!disk_built.ok()) {
      return build_failed("disk build", disk_built.status());
    }
    disk = disk_built.MoveValueUnsafe();
  }

  // Shared executor for the intra-query chunked runs. Pool and budget
  // deliberately persist across queries and algorithms so chunk tasks
  // from consecutive checks interleave on the same workers.
  std::unique_ptr<serve::ThreadPool> chunk_pool;
  std::unique_ptr<ConcurrencyBudget> chunk_budget;
  if (!options.chunk_counts.empty()) {
    serve::ThreadPool::Options po;
    po.workers = std::max<size_t>(1, options.chunk_workers);
    chunk_pool = std::make_unique<serve::ThreadPool>(po);
    chunk_budget = std::make_unique<ConcurrencyBudget>(po.workers);
  }

  // --- Sharded corpus: the primary document plus sampled extras, each
  // with its own single-index oracle engine, built into one sharded
  // collection (+ executor) per configured shard count. The union of the
  // per-document answers is the sharded ground truth; shard counts above
  // the corpus size exercise empty shards.
  std::vector<const XKSearch*> doc_engines{&engine};
  std::vector<std::unique_ptr<XKSearch>> extra_engines;
  std::deque<ShardedSetup> setups;
  if (!options.shard_counts.empty()) {
    std::vector<Document> corpus;
    corpus.push_back(engine.document().Clone());
    const size_t extras = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(options.max_extra_documents)));
    for (size_t e = 0; e < extras; ++e) {
      RandomTreeOptions extra_tree = tree;
      extra_tree.node_count = static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(options.min_nodes),
                         static_cast<int64_t>(options.max_nodes)));
      // Vocabulary sizes differ per document, so some documents miss
      // some query keywords — that is what shard pruning feeds on.
      extra_tree.vocab_size = static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(options.min_vocab),
                         static_cast<int64_t>(options.max_vocab)));
      Document extra = GenerateRandomDocument(&rng, extra_tree);
      corpus.push_back(extra.Clone());
      Result<std::unique_ptr<XKSearch>> extra_engine =
          XKSearch::BuildFromDocument(std::move(extra));
      if (!extra_engine.ok()) {
        return build_failed("extra doc build", extra_engine.status());
      }
      extra_engines.push_back(extra_engine.MoveValueUnsafe());
      doc_engines.push_back(extra_engines.back().get());
    }
    auto build_collection = [&](shard::ShardedCollectionOptions sco)
        -> Result<std::unique_ptr<shard::ShardedCollection>> {
      shard::ShardedCollection::Builder builder(std::move(sco));
      for (uint32_t d = 0; d < corpus.size(); ++d) {
        XKS_RETURN_NOT_OK(
            builder.Add("doc" + std::to_string(d), corpus[d].Clone()));
      }
      return std::move(builder).Build();
    };
    shard::ScatterGatherOptions sgo;
    sgo.workers = 2;
    for (const size_t n : options.shard_counts) {
      setups.emplace_back();
      ShardedSetup& setup = setups.back();
      setup.shard_count = n;
      setup.wrappers.resize(n);
      const std::string what = "sharded build (n=" + std::to_string(n) + ")";
      shard::ShardedCollectionOptions sco;
      sco.shards = n;
      Result<std::unique_ptr<shard::ShardedCollection>> collection =
          build_collection(sco);
      if (!collection.ok()) return build_failed(what, collection.status());
      setup.collection = collection.MoveValueUnsafe();
      setup.executor = std::make_unique<shard::ScatterGatherExecutor>(
          setup.collection.get(), sgo);
      if (!options.with_disk) continue;
      DiskIndexOptions& disk_shards = sco.disk.emplace();
      disk_shards.in_memory = true;
      // Same rationale as the single-index path — tiny pools so the
      // disk read path actually reads — but with a floor that grows
      // with the corpus: one shard can hold every document merged into
      // a single index whose deeper trees and longer posting runs pin
      // more frames at once than any lone fuzz document, and a 2-frame
      // pool then fails with "all pages pinned" (a capacity error, not
      // a divergence).
      const int64_t floor_pages = 4 + 4 * static_cast<int64_t>(corpus.size());
      // Two draws, summed, as for single-index cases above.
      const auto probe_pages = static_cast<size_t>(
          rng.UniformInt(floor_pages, floor_pages + 12));
      disk_shards.scan_pool_pages =
          probe_pages + static_cast<size_t>(
                            rng.UniformInt(floor_pages, floor_pages + 12));
      disk_shards.pool_shards = static_cast<size_t>(rng.UniformInt(1, 4));
      sco.store_decorator =
          [&setup, seed](std::unique_ptr<PageStore> inner, size_t s,
                         std::string_view /*name*/) {
            auto wrapped = std::make_unique<FaultInjectingPageStore>(
                std::move(inner), seed);
            setup.wrappers[s].push_back(wrapped.get());
            return std::unique_ptr<PageStore>(std::move(wrapped));
          };
      collection = build_collection(std::move(sco));
      if (!collection.ok()) {
        return build_failed("disk " + what, collection.status());
      }
      setup.disk_collection = collection.MoveValueUnsafe();
      setup.disk_executor = std::make_unique<shard::ScatterGatherExecutor>(
          setup.disk_collection.get(), sgo);
    }
  }

  // --- Queries. ---
  // Every sampled query is also remembered for the concurrent-client
  // stage below, which replays them concurrently through a QueryService.
  std::vector<std::vector<std::string>> sampled_queries;
  for (size_t q = 0; q < options.queries_per_collection; ++q) {
    std::vector<std::string> keywords;
    const size_t k = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(options.min_keywords),
                       static_cast<int64_t>(options.max_keywords)));
    for (size_t i = 0; i < k; ++i) {
      if (i > 0 && rng.Bernoulli(0.15)) {
        // Duplicate keyword: slca({S,S,..}) must equal slca over the
        // distinct sets.
        keywords.push_back(keywords[rng.Uniform(keywords.size())]);
      } else if (rng.Bernoulli(0.08)) {
        // Keyword absent from the document: every path must agree on the
        // empty answer.
        keywords.push_back("absentkeyword");
      } else {
        keywords.push_back(vocab[rng.Uniform(vocab.size())]);
      }
    }
    sampled_queries.push_back(keywords);

    CaseContext ctx{seed, &report, &keywords};

    // Re-runs an eager query chunked and asserts the parity contract:
    // identical emission sequence (document order, duplicate-free) and
    // identical match_ops / results counters — both are chunk-invariant
    // by construction, unlike comparison/posting/page counts, which may
    // differ by bounded seam terms. min_chunk_elements is forced to 1 so
    // fuzz-sized lists still split.
    auto check_chunked = [&](const auto& searcher, const std::string& label,
                             const Result<SearchResult>& sequential,
                             const SearchOptions& so, size_t chunks) {
      if (!sequential.ok() || chunk_pool == nullptr) return;
      ParallelExecOptions exec;
      exec.pool = chunk_pool.get();
      exec.budget = chunk_budget.get();
      exec.max_chunks = chunks;
      exec.min_chunk_elements = 1;
      Result<SearchResult> got = searcher.Search(keywords, so, exec);
      ++report.cases;
      if (!got.ok()) {
        ctx.Diverge(label + " failed: " + got.status().ToString());
        return;
      }
      if (got->nodes != sequential->nodes) {
        ctx.Diverge(label + " emitted " + IdsToString(got->nodes) +
                    ", sequential emitted " + IdsToString(sequential->nodes));
        return;
      }
      const uint64_t seq_match = sequential->stats.match_ops;
      const uint64_t got_match = got->stats.match_ops;
      const uint64_t seq_results = sequential->stats.results;
      const uint64_t got_results = got->stats.results;
      if (seq_match != got_match || seq_results != got_results) {
        ctx.Diverge(label + " stats parity broke: match_ops " +
                    std::to_string(got_match) + " vs " +
                    std::to_string(seq_match) + ", results " +
                    std::to_string(got_results) + " vs " +
                    std::to_string(seq_results));
      }
    };

    // Ground truth: linear-time tree oracle, independent of the paper's
    // algorithms, plus the brute-force enumeration as a second opinion.
    Result<std::vector<DeweyId>> oracle_slca =
        OracleSlca(engine.document(), engine.index(), keywords);
    Result<std::vector<DeweyId>> oracle_lca =
        OracleAllLca(engine.document(), engine.index(), keywords);
    Result<std::vector<DeweyId>> oracle_elca =
        OracleElca(engine.document(), engine.index(), keywords);
    if (!oracle_slca.ok() || !oracle_lca.ok() || !oracle_elca.ok()) {
      ctx.Diverge("oracle failed: " + oracle_slca.status().ToString());
      continue;
    }

    // Brute force (the fourth algorithm) over the raw keyword lists.
    // Its cost is the product of the list sizes, so skip it when the
    // enumeration would dwarf everything else the case checks — big
    // collections are covered by the other four paths plus the oracle.
    {
      std::vector<std::vector<DeweyId>> lists;
      bool all_present = true;
      uint64_t combinations = 1;
      for (const std::string& kw : keywords) {
        const PackedDeweyList* list = engine.index().Find(kw);
        if (list == nullptr) {
          all_present = false;
          break;
        }
        combinations *= std::max<uint64_t>(1, list->size());
        lists.push_back(list->Materialize());
      }
      constexpr uint64_t kMaxBruteForceCombinations = 200'000;
      if (!all_present || combinations <= kMaxBruteForceCombinations) {
        const std::vector<DeweyId> brute =
            all_present ? BruteForceSlca(lists) : std::vector<DeweyId>{};
        ctx.CheckIds("brute-force", brute, *oracle_slca);
      }
      // Paper Section 2 identity: slca = removeAncestors(allLca).
      ctx.CheckIds("removeAncestors(allLca)", RemoveAncestors(*oracle_lca),
                   *oracle_slca);
    }

    // In-memory paths: all three algorithms, sequential and chunked
    // (the Stack algorithm has no chunk decomposition —
    // ComputeSlcaParallel falls through to the sequential path, so
    // re-running it would check nothing).
    for (AlgorithmChoice algorithm : kAlgorithms) {
      SearchOptions so;
      so.algorithm = algorithm;
      so.block_size = static_cast<size_t>(rng.UniformInt(1, 4));
      const std::string label = AlgorithmLabel(algorithm, false);
      Result<SearchResult> packed = engine.Search(keywords, so);
      ctx.Check(label.c_str(), packed, *oracle_slca);
      if (algorithm != AlgorithmChoice::kStack) {
        for (const size_t chunks : options.chunk_counts) {
          check_chunked(engine, label + "/chunks=" + std::to_string(chunks),
                        packed, so, chunks);
        }
      }
    }
    {
      SearchOptions so;
      so.semantics = Semantics::kElca;
      ctx.Check("mem/elca", engine.Search(keywords, so), *oracle_elca);
      so.semantics = Semantics::kAllLca;
      ctx.Check("mem/all-lca", engine.Search(keywords, so), *oracle_lca);
    }

    // Sharded paths: every shard count must reproduce the union of the
    // per-document single-index answers (document-partition exactness),
    // sequentially and through the pool-parallel executor alike.
    if (!setups.empty()) {
      // Union of per-document answers, re-based to collection coords.
      auto expected_union =
          [&](const SearchOptions& so) -> Result<std::vector<DeweyId>> {
        std::vector<DeweyId> all;
        for (uint32_t d = 0; d < doc_engines.size(); ++d) {
          Result<SearchResult> r = doc_engines[d]->Search(keywords, so);
          if (!r.ok()) return r.status();
          for (const DeweyId& id : r->nodes) {
            all.push_back(RebaseToCollection(id, d));
          }
        }
        return all;
      };
      auto check_sharded = [&](const std::string& label,
                               const Result<shard::ShardedResult>& got,
                               const std::vector<DeweyId>& expected) {
        ++report.cases;
        if (!got.ok()) {
          ctx.Diverge(label + " failed: " + got.status().ToString());
          return;
        }
        if (!SameSet(got->result.nodes, expected)) {
          ctx.Diverge(label + " = " + IdsToString(got->result.nodes) +
                      ", per-doc union = " + IdsToString(expected));
        }
      };

      Result<std::vector<DeweyId>> expected = expected_union(SearchOptions{});
      if (!expected.ok()) {
        ctx.Diverge("per-doc union failed: " + expected.status().ToString());
        continue;
      }
      for (ShardedSetup& setup : setups) {
        const std::string tag = "sharded[" + std::to_string(setup.shard_count) + "]";
        check_sharded(tag + "/seq", setup.collection->Search(keywords),
                      *expected);
        Result<shard::ShardedResult> par = setup.executor->Search(keywords);
        check_sharded(tag + "/par", par, *expected);
        if (par.ok()) {
          // Aggregation identity: the response totals must be exactly
          // the field-wise sum of the per-shard stats, and pruned
          // shards must contribute nothing.
          QueryStats sum;
          uint64_t contributed = 0;
          for (const shard::ShardQueryStats& s : par->shards) {
            sum += s.stats;
            contributed += s.results;
            if (s.pruned && s.results != 0) {
              ctx.Diverge(tag + " pruned shard " + std::to_string(s.shard) +
                          " reported " + std::to_string(s.results) +
                          " results");
            }
          }
          ++report.cases;
          const QueryStats& total = par->result.stats;
          if (sum.match_ops != total.match_ops ||
              sum.dewey_comparisons != total.dewey_comparisons ||
              sum.lca_ops != total.lca_ops ||
              sum.postings_read != total.postings_read ||
              sum.page_reads != total.page_reads ||
              sum.page_hits != total.page_hits ||
              sum.io_errors != total.io_errors ||
              contributed != par->result.nodes.size()) {
            ctx.Diverge(tag + " stats aggregation broke: shard sum " +
                        sum.ToString() + " vs total " + total.ToString());
          }
        }
      }
      {
        // Semantics parity on the first configuration (the others share
        // the same code path; one is enough per query).
        SearchOptions so;
        so.semantics = Semantics::kElca;
        Result<std::vector<DeweyId>> expected_elca = expected_union(so);
        if (expected_elca.ok()) {
          check_sharded("sharded/elca",
                        setups.front().collection->Search(keywords, so),
                        *expected_elca);
        }
        so.semantics = Semantics::kAllLca;
        Result<std::vector<DeweyId>> expected_lca = expected_union(so);
        if (expected_lca.ok()) {
          check_sharded("sharded/all-lca",
                        setups.front().collection->Search(keywords, so),
                        *expected_lca);
        }
      }
      if (options.with_disk) {
        for (ShardedSetup& setup : setups) {
          check_sharded("sharded[" + std::to_string(setup.shard_count) +
                            "]/disk",
                        setup.disk_executor->Search(keywords), *expected);
        }
      }
      if (options.with_disk && options.with_faults) {
        // Single-shard fault round: arm one seeded-chosen shard's stores
        // and scatter across the full collection. Contract: the query
        // either succeeds with the exact answer or fails with the
        // injected IoError — never a wrong answer, never a leaked pin
        // on ANY shard — and the identical query succeeds once the
        // fault clears.
        ShardedSetup& setup = setups[rng.Uniform(setups.size())];
        std::vector<size_t> faultable;
        for (size_t s = 0; s < setup.wrappers.size(); ++s) {
          if (!setup.wrappers[s].empty()) faultable.push_back(s);
        }
        if (!faultable.empty()) {
          const size_t victim = faultable[rng.Uniform(faultable.size())];
          // Half the rounds (seeded) drop the victim's caches before
          // arming: a pool still warm from the parity checks above can
          // serve the whole query without one read — a guaranteed
          // survival — and the schedule must also be observed firing.
          const bool cold = rng.Bernoulli(0.5);
          const DiskSearcher* victim_disk =
              setup.disk_collection->shard_disk(static_cast<uint32_t>(victim));
          if (cold && victim_disk != nullptr) {
            const Status dropped = victim_disk->index()->DropCaches();
            if (!dropped.ok()) {
              ctx.Diverge("sharded[" + std::to_string(setup.shard_count) +
                          "]/faults DropCaches failed: " + dropped.ToString());
            }
          }
          for (FaultInjectingPageStore* w : setup.wrappers[victim]) {
            w->ClearFaults();
            w->FailReadsWithProbability(options.fault_probability,
                                        options.faults_per_round);
            w->Arm();
          }
          const std::string tag =
              "sharded[" + std::to_string(setup.shard_count) + "]/faults";
          Result<shard::ShardedResult> got =
              setup.disk_executor->Search(keywords);
          ++report.cases;
          if (got.ok()) {
            ++report.fault_survivals;
            if (!SameSet(got->result.nodes, *expected)) {
              ctx.Diverge(tag + " returned wrong answer " +
                          IdsToString(got->result.nodes) +
                          ", per-doc union = " + IdsToString(*expected));
            }
          } else {
            ++report.clean_fault_errors;
            if (!got.status().IsIoError()) {
              ctx.Diverge(tag + " failed with non-IoError: " +
                          got.status().ToString());
            }
          }
          for (FaultInjectingPageStore* w : setup.wrappers[victim]) {
            w->Disarm();
            w->ClearFaults();
          }
          for (uint32_t s = 0; s < setup.disk_collection->shard_count(); ++s) {
            const DiskSearcher* shard_disk =
                setup.disk_collection->shard_disk(s);
            if (shard_disk == nullptr) continue;
            const uint64_t pins =
                shard_disk->index()->scan_pool()->DebugTotalPins();
            if (pins != 0) {
              ctx.Diverge(tag + " leaked pins on shard " + std::to_string(s) +
                          ": " + std::to_string(pins));
            }
          }
          check_sharded(tag + "/recovery",
                        setup.disk_executor->Search(keywords), *expected);
        }
      }
    }

    if (!options.with_disk) continue;

    // Disk paths (fault-free): same checks through pools + B+trees.
    // Beyond matching the oracle, the disk engine and the in-memory
    // engine with the same options must agree on the answer and on the
    // algorithm-level counters — `match_ops` (the lm/rm calls of the
    // paper's Table 1) and `results`: the layout may only change how a
    // match is answered, never how many are asked. Comparison and
    // posting counts depend on the layout and are not compared.
    for (AlgorithmChoice algorithm : kAlgorithms) {
      SearchOptions so;
      so.algorithm = algorithm;
      so.block_size = static_cast<size_t>(rng.UniformInt(1, 4));
      Result<SearchResult> seq = disk->Search(keywords, so);
      ctx.Check(AlgorithmLabel(algorithm, true), seq, *oracle_slca);
      const Result<SearchResult> packed = engine.Search(keywords, so);
      if (seq.ok() && packed.ok()) {
        ++report.cases;
        const uint64_t disk_ops = seq->stats.match_ops;
        const uint64_t packed_ops = packed->stats.match_ops;
        const uint64_t disk_results = seq->stats.results;
        const uint64_t packed_results = packed->stats.results;
        if (seq->nodes != packed->nodes || disk_ops != packed_ops ||
            disk_results != packed_results) {
          ctx.Diverge(std::string(AlgorithmLabel(algorithm, true)) +
                      " vs packed: nodes " + IdsToString(seq->nodes) +
                      " vs " + IdsToString(packed->nodes) + ", match_ops " +
                      std::to_string(disk_ops) + " vs " +
                      std::to_string(packed_ops) + ", results " +
                      std::to_string(disk_results) + " vs " +
                      std::to_string(packed_results));
        }
      }
      if (algorithm != AlgorithmChoice::kStack) {
        for (const size_t chunks : options.chunk_counts) {
          check_chunked(*disk,
                        std::string(AlgorithmLabel(algorithm, true)) +
                            "/chunks=" + std::to_string(chunks),
                        seq, so, chunks);
        }
      }
    }
    {
      SearchOptions so;
      so.semantics = Semantics::kElca;
      ctx.Check("disk/elca", disk->Search(keywords, so), *oracle_elca);
      so.semantics = Semantics::kAllLca;
      ctx.Check("disk/all-lca", disk->Search(keywords, so), *oracle_lca);
    }

    if (!options.with_faults) continue;

    // Fault round: arm a transient probabilistic read-fault schedule and
    // run one disk query per algorithm. Contract: the query either
    // succeeds with the oracle answer (fault missed it) or fails with the
    // injected IoError — never a wrong answer, never a leaked pin. After
    // disarming, the same query must succeed: a fault must not poison the
    // pool.
    for (AlgorithmChoice algorithm : kAlgorithms) {
      for (FaultInjectingPageStore* w : wrappers) {
        w->ClearFaults();
        w->FailReadsWithProbability(options.fault_probability,
                                    options.faults_per_round);
        w->Arm();
      }
      SearchOptions so;
      so.algorithm = algorithm;
      Result<SearchResult> got = disk->Search(keywords, so);
      ++report.cases;
      if (got.ok()) {
        ++report.fault_survivals;
        if (!SameSet(got->nodes, *oracle_slca)) {
          ctx.Diverge(std::string(AlgorithmLabel(algorithm, true)) +
                      " under faults returned wrong answer " +
                      IdsToString(got->nodes) + ", oracle = " +
                      IdsToString(*oracle_slca));
        }
      } else {
        ++report.clean_fault_errors;
        if (!got.status().IsIoError()) {
          ctx.Diverge(std::string(AlgorithmLabel(algorithm, true)) +
                      " under faults failed with non-IoError: " +
                      got.status().ToString());
        }
      }
      for (FaultInjectingPageStore* w : wrappers) {
        w->Disarm();
        w->ClearFaults();
      }
      const uint64_t pins = disk->index()->scan_pool()->DebugTotalPins();
      if (pins != 0) {
        ctx.Diverge(std::string(AlgorithmLabel(algorithm, true)) +
                    " under faults leaked pins: " + std::to_string(pins));
      }
      // Recovery: the identical query, faults disarmed, must succeed.
      ctx.Check("disk/recovery", disk->Search(keywords, so), *oracle_slca);

      // Chunked fault round: same contract with chunk workers hitting
      // the armed stores concurrently — the error must surface as the
      // injected IoError (or the exact answer), with no leaked pins on
      // either pool and a clean chunked retry once disarmed.
      if (algorithm == AlgorithmChoice::kStack || chunk_pool == nullptr) {
        continue;
      }
      const size_t fault_chunks =
          options.chunk_counts[rng.Uniform(options.chunk_counts.size())];
      for (FaultInjectingPageStore* w : wrappers) {
        w->ClearFaults();
        w->FailReadsWithProbability(options.fault_probability,
                                    options.faults_per_round);
        w->Arm();
      }
      ParallelExecOptions exec;
      exec.pool = chunk_pool.get();
      exec.budget = chunk_budget.get();
      exec.max_chunks = fault_chunks;
      exec.min_chunk_elements = 1;
      const std::string fault_label =
          std::string(AlgorithmLabel(algorithm, true)) + "/chunks=" +
          std::to_string(fault_chunks) + " under faults";
      Result<SearchResult> chunked = disk->Search(keywords, so, exec);
      ++report.cases;
      if (chunked.ok()) {
        ++report.fault_survivals;
        if (!SameSet(chunked->nodes, *oracle_slca)) {
          ctx.Diverge(fault_label + " returned wrong answer " +
                      IdsToString(chunked->nodes) + ", oracle = " +
                      IdsToString(*oracle_slca));
        }
      } else {
        ++report.clean_fault_errors;
        if (!chunked.status().IsIoError()) {
          ctx.Diverge(fault_label + " failed with non-IoError: " +
                      chunked.status().ToString());
        }
      }
      for (FaultInjectingPageStore* w : wrappers) {
        w->Disarm();
        w->ClearFaults();
      }
      const uint64_t chunk_pins =
          disk->index()->scan_pool()->DebugTotalPins();
      if (chunk_pins != 0) {
        ctx.Diverge(fault_label + " leaked pins: " +
                    std::to_string(chunk_pins));
      }
      ctx.Check("disk/chunked-recovery", disk->Search(keywords, so, exec),
                *oracle_slca);
    }
  }

  // --- Concurrent-client stage: concurrent_clients threads each submit
  // every sampled query at once through a QueryService, so identical
  // submissions are in flight together and coalesce under single-flight.
  // Serving never changes an answer, so every response must reproduce
  // the sequential engine run exactly: same nodes, same match_ops, same
  // results counter. One worker on purpose — the fuzz pools are
  // deliberately tiny, and serialized execution keeps the pin demand
  // identical to the sequential stages while admission and coalescing
  // run fully concurrently with it.
  if (options.concurrent_clients > 0 && !sampled_queries.empty()) {
    struct ClientRef {
      std::vector<DeweyId> nodes;
      uint64_t match_ops = 0;
      uint64_t results = 0;
      bool ok = false;
    };

    serve::QueryServiceOptions qso;
    qso.pool.workers = 1;
    qso.pool.queue_capacity =
        sampled_queries.size() * options.concurrent_clients + 8;
    qso.enable_cache = false;
    qso.single_flight = true;
    serve::QueryService service(&engine, qso);

    // The stage submits each query in its canonical form (sorted,
    // deduplicated, normalized keywords — none of which changes the
    // answer). Raw forms would make the stats check nondeterministic:
    // single-flight coalesces every raw form of one canonical key onto
    // whichever of them happened to lead, and a duplicated keyword
    // costs its raw run extra match_ops that a deduplicated sibling's
    // run never performs. Raw-form answer invariance is already covered
    // by the in-memory differential stages above.
    std::vector<std::vector<std::string>> canonical(sampled_queries.size());
    for (size_t i = 0; i < sampled_queries.size(); ++i) {
      canonical[i] =
          service.MakeCacheKey(sampled_queries[i], SearchOptions()).keywords();
    }
    auto make_refs = [&](const auto& searcher, const SearchOptions& so) {
      std::vector<ClientRef> refs(sampled_queries.size());
      for (size_t i = 0; i < sampled_queries.size(); ++i) {
        Result<SearchResult> r = searcher.Search(canonical[i], so);
        if (!r.ok()) {
          CaseContext bctx{seed, &report, &sampled_queries[i]};
          bctx.Diverge("client reference run failed: " +
                       r.status().ToString());
          continue;
        }
        refs[i].nodes = r->nodes;
        refs[i].match_ops = r->stats.match_ops;
        refs[i].results = r->stats.results;
        refs[i].ok = true;
      }
      return refs;
    };

    // Every client thread submits every query; the futures are read
    // once all clients have joined.
    using PendingResponse =
        std::pair<size_t, std::future<Result<serve::QueryResponse>>>;
    auto submit_all = [&](serve::QueryService& target,
                          const SearchOptions& so) {
      std::vector<std::vector<PendingResponse>> per_client(
          options.concurrent_clients);
      std::vector<std::thread> clients;
      for (size_t c = 0; c < per_client.size(); ++c) {
        clients.emplace_back([&, c] {
          for (size_t i = 0; i < canonical.size(); ++i) {
            per_client[c].emplace_back(i, target.Submit(canonical[i], so));
          }
        });
      }
      for (std::thread& client : clients) client.join();
      std::vector<PendingResponse> submitted;
      for (std::vector<PendingResponse>& pending : per_client) {
        for (PendingResponse& p : pending) submitted.push_back(std::move(p));
      }
      return submitted;
    };

    // Submits every query from every client and checks each response
    // against its sequential reference.
    auto run_clients = [&](serve::QueryService& target, const char* label,
                           const SearchOptions& so,
                           const std::vector<ClientRef>& refs) {
      std::vector<PendingResponse> submitted = submit_all(target, so);
      for (auto& [i, fut] : submitted) {
        Result<serve::QueryResponse> resp = fut.get();
        if (!refs[i].ok) continue;
        CaseContext bctx{seed, &report, &sampled_queries[i]};
        ++report.cases;
        if (!resp.ok()) {
          bctx.Diverge(std::string(label) +
                       " failed: " + resp.status().ToString());
          continue;
        }
        if (resp->result.nodes != refs[i].nodes) {
          bctx.Diverge(std::string(label) + " emitted " +
                       IdsToString(resp->result.nodes) + ", sequential = " +
                       IdsToString(refs[i].nodes));
          continue;
        }
        const uint64_t got_match = resp->result.stats.match_ops;
        const uint64_t got_results = resp->result.stats.results;
        if (got_match != refs[i].match_ops || got_results != refs[i].results) {
          bctx.Diverge(std::string(label) + " stats parity broke: match_ops " +
                       std::to_string(got_match) + " vs " +
                       std::to_string(refs[i].match_ops) + ", results " +
                       std::to_string(got_results) + " vs " +
                       std::to_string(refs[i].results));
        }
      }
    };

    const SearchOptions so;
    run_clients(service, "clients/mem", so, make_refs(engine, so));
    if (options.with_disk) {
      serve::QueryService disk_service(disk.get(), qso);
      const std::vector<ClientRef> disk_refs = make_refs(*disk, so);
      run_clients(disk_service, "clients/disk", so, disk_refs);

      if (options.with_faults) {
        // Fault round: armed stores under every client at once. Each
        // response is either the exact sequential answer or the injected
        // IoError, never a wrong answer, and nothing leaks a pin.
        for (FaultInjectingPageStore* w : wrappers) {
          w->ClearFaults();
          w->FailReadsWithProbability(options.fault_probability,
                                      options.faults_per_round);
          w->Arm();
        }
        std::vector<PendingResponse> submitted = submit_all(disk_service, so);
        for (auto& [i, fut] : submitted) {
          Result<serve::QueryResponse> resp = fut.get();
          if (!disk_refs[i].ok) continue;
          CaseContext bctx{seed, &report, &sampled_queries[i]};
          ++report.cases;
          if (resp.ok()) {
            ++report.fault_survivals;
            if (!SameSet(resp->result.nodes, disk_refs[i].nodes)) {
              bctx.Diverge("clients/faults returned wrong answer " +
                           IdsToString(resp->result.nodes) + ", sequential = " +
                           IdsToString(disk_refs[i].nodes));
            }
          } else {
            ++report.clean_fault_errors;
            if (!resp.status().IsIoError()) {
              bctx.Diverge("clients/faults failed with non-IoError: " +
                           resp.status().ToString());
            }
          }
        }
        for (FaultInjectingPageStore* w : wrappers) {
          w->Disarm();
          w->ClearFaults();
        }
        const uint64_t pins = disk->index()->scan_pool()->DebugTotalPins();
        if (pins != 0) {
          CaseContext bctx{seed, &report, &sampled_queries[0]};
          bctx.Diverge("clients/faults leaked pins: " + std::to_string(pins));
        }
        // Recovery: the same clients, faults disarmed, must reproduce
        // the sequential answers again.
        run_clients(disk_service, "clients/recovery", so, disk_refs);
      }
      disk_service.Shutdown();
    }
    service.Shutdown();
  }

  if (options.crash_rounds > 0) {
    RunCrashRounds(seed, options, engine, &rng, &report);
  }
  return report;
}

FuzzReport RunFuzz(uint64_t first_seed, uint64_t count,
                   const FuzzOptions& options) {
  FuzzReport total;
  for (uint64_t i = 0; i < count; ++i) {
    total.Merge(RunFuzzCase(first_seed + i, options));
  }
  return total;
}

}  // namespace fuzz
}  // namespace xksearch
