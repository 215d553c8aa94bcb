#include "shard/sharded_collection.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "shard/router.h"
#include "shard/scatter_gather.h"
#include "shard/term_filter.h"
#include "storage/fault_injection.h"
#include "test_util.h"

namespace xksearch {
namespace shard {
namespace {

using testing_util::Id;
using testing_util::Strings;

// Four small documents with partially disjoint vocabularies, so routing
// has shards to prune and answers to attribute.
const char* kDocs[] = {
    "<papers><paper><title>keyword search</title><author>xu</author>"
    "</paper><paper><title>slca algorithms</title><author>xu</author>"
    "</paper></papers>",
    "<books><book><title>keyword indexing</title><author>chen</author>"
    "</book></books>",
    "<notes><note>dewey encoding</note><note>bptree layout</note>"
    "<note>keyword search notes</note></notes>",
    "<memos><memo>standup topics</memo></memos>",
};

std::unique_ptr<ShardedCollection> MakeCollection(
    size_t shards, ShardedCollectionOptions options = {}) {
  options.shards = shards;
  ShardedCollection::Builder builder(std::move(options));
  for (size_t d = 0; d < std::size(kDocs); ++d) {
    XKS_EXPECT_OK(builder.AddXml("doc" + std::to_string(d), kDocs[d]));
  }
  Result<std::unique_ptr<ShardedCollection>> built =
      std::move(builder).Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.ok() ? built.MoveValueUnsafe() : nullptr;
}

// The union of per-document engine answers, re-based to collection
// coordinates — the sharding layer's ground truth.
std::vector<DeweyId> PerDocUnion(const std::vector<std::string>& keywords,
                                 const SearchOptions& options = {}) {
  std::vector<DeweyId> all;
  for (size_t d = 0; d < std::size(kDocs); ++d) {
    Result<std::unique_ptr<XKSearch>> engine = XKSearch::BuildFromXml(kDocs[d]);
    EXPECT_TRUE(engine.ok());
    Result<SearchResult> r = (*engine)->Search(keywords, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    for (const DeweyId& id : r->nodes) {
      std::vector<uint32_t> c;
      c.push_back(0);
      c.push_back(static_cast<uint32_t>(d));
      for (size_t i = 1; i < id.depth(); ++i) c.push_back(id.component(i));
      all.push_back(DeweyId(std::move(c)));
    }
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::vector<DeweyId> Sorted(std::vector<DeweyId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(BalancedPartitionTest, SpreadsWeightAndIsDeterministic) {
  const std::vector<uint64_t> weights = {100, 10, 10, 10, 10, 60, 50};
  const std::vector<uint32_t> a = BalancedPartition(weights, 3);
  const std::vector<uint32_t> b = BalancedPartition(weights, 3);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), weights.size());
  std::vector<uint64_t> load(3, 0);
  for (size_t i = 0; i < weights.size(); ++i) {
    ASSERT_LT(a[i], 3u);
    load[a[i]] += weights[i];
  }
  // LPT on these weights (total 250) keeps every shard within 2x of the
  // ideal 83: the 100 item sits alone-ish, the rest balances out.
  for (const uint64_t l : load) {
    EXPECT_GT(l, 0u);
    EXPECT_LE(l, 120u);
  }
}

TEST(BalancedPartitionTest, SingleShardAndEmptyInput) {
  EXPECT_EQ(BalancedPartition({5, 5, 5}, 1),
            (std::vector<uint32_t>{0, 0, 0}));
  EXPECT_TRUE(BalancedPartition({}, 4).empty());
}

TEST(TermFilterTest, NoFalseNegatives) {
  std::vector<std::string> terms;
  for (int i = 0; i < 500; ++i) terms.push_back("term" + std::to_string(i));
  const TermFilter filter = TermFilter::Build(terms);
  for (const std::string& t : terms) {
    EXPECT_TRUE(filter.MayContain(t)) << t;
  }
}

TEST(TermFilterTest, FalsePositiveRateIsLow) {
  std::vector<std::string> terms;
  for (int i = 0; i < 1000; ++i) terms.push_back("in" + std::to_string(i));
  const TermFilter filter = TermFilter::Build(terms, /*bits_per_term=*/10);
  int false_positives = 0;
  for (int i = 0; i < 1000; ++i) {
    if (filter.MayContain("out" + std::to_string(i))) ++false_positives;
  }
  // ~1% expected at 10 bits/term; 5% is a generous determinism-safe bound.
  EXPECT_LT(false_positives, 50);
}

TEST(TermFilterTest, EmptyFilterContainsNothing) {
  const TermFilter filter = TermFilter::Build({});
  EXPECT_FALSE(filter.MayContain("anything"));
}

TEST(ShardedCollectionTest, BuilderRejectsDuplicatesAndBadInput) {
  ShardedCollectionOptions options;
  options.shards = 2;
  ShardedCollection::Builder builder(options);
  XKS_ASSERT_OK(builder.AddXml("a", "<r>x</r>"));
  EXPECT_TRUE(builder.AddXml("a", "<r>y</r>").IsInvalidArgument());
  EXPECT_TRUE(builder.AddXml("bad", "<r>").IsParseError());
  EXPECT_TRUE(builder.Add("empty", Document()).IsInvalidArgument());

  ShardedCollectionOptions zero;
  zero.shards = 0;
  ShardedCollection::Builder bad(zero);
  Result<std::unique_ptr<ShardedCollection>> built = std::move(bad).Build();
  EXPECT_TRUE(built.status().IsInvalidArgument());
}

TEST(ShardedCollectionTest, MatchesPerDocumentUnionAtEveryShardCount) {
  const std::vector<std::vector<std::string>> queries = {
      {"keyword"}, {"keyword", "search"}, {"xu"}, {"dewey"}, {"nosuchword"},
  };
  for (const size_t n : {1u, 2u, 3u, 4u, 7u}) {
    std::unique_ptr<ShardedCollection> collection = MakeCollection(n);
    ASSERT_NE(collection, nullptr);
    EXPECT_EQ(collection->shard_count(), n);
    EXPECT_EQ(collection->document_count(), std::size(kDocs));
    for (const std::vector<std::string>& q : queries) {
      Result<ShardedResult> got = collection->Search(q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(Strings(Sorted(got->result.nodes)), Strings(PerDocUnion(q)))
          << "shards=" << n;
    }
  }
}

TEST(ShardedCollectionTest, ResultsAreMergedInDocumentOrder) {
  std::unique_ptr<ShardedCollection> collection = MakeCollection(3);
  ASSERT_NE(collection, nullptr);
  Result<ShardedResult> got = collection->Search({"keyword"});
  ASSERT_TRUE(got.ok());
  ASSERT_GE(got->result.nodes.size(), 2u);
  for (size_t i = 1; i < got->result.nodes.size(); ++i) {
    EXPECT_LT(got->result.nodes[i - 1].Compare(got->result.nodes[i]), 0);
  }
}

TEST(ShardedCollectionTest, ResolveAttributesAnswersToDocuments) {
  std::unique_ptr<ShardedCollection> collection = MakeCollection(2);
  ASSERT_NE(collection, nullptr);
  // "dewey" lives only in doc2.
  Result<ShardedResult> got = collection->Search({"dewey"});
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->result.nodes.size(), 1u);
  Result<ShardedCollection::Resolved> where =
      collection->Resolve(got->result.nodes[0]);
  ASSERT_TRUE(where.ok()) << where.status().ToString();
  EXPECT_EQ(where->document, "doc2");
  EXPECT_EQ(where->local.component(0), 0u);

  EXPECT_TRUE(collection->Resolve(Id("0")).status().IsInvalidArgument());
  EXPECT_TRUE(collection->Resolve(Id("0.99.1")).status().IsNotFound());
}

TEST(ShardedCollectionTest, RouterPrunesKeywordAbsentShards) {
  // With one shard per document, "standup" (only in doc3) must execute
  // exactly one shard and prune the rest.
  std::unique_ptr<ShardedCollection> collection =
      MakeCollection(std::size(kDocs));
  ASSERT_NE(collection, nullptr);
  Result<ShardedResult> got = collection->Search({"standup"});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->result.nodes.size(), 1u);
  EXPECT_EQ(got->executed_shards(), 1u);
  EXPECT_EQ(got->pruned_shards(), std::size(kDocs) - 1);
  for (const ShardQueryStats& s : got->shards) {
    if (s.pruned) {
      EXPECT_EQ(s.results, 0u);
      EXPECT_EQ(s.stats.match_ops.load(), 0u);
    }
  }
  // A query whose keywords never co-occur in one document prunes every
  // shard at per-document granularity: no single document can answer it.
  Result<ShardedResult> cross = collection->Search({"standup", "dewey"});
  ASSERT_TRUE(cross.ok());
  EXPECT_TRUE(cross->result.nodes.empty());
  EXPECT_EQ(cross->executed_shards(), 0u);

  // The cumulative counters saw both queries.
  const std::vector<ShardCountersSnapshot> counters =
      collection->CountersSnapshot();
  uint64_t executed = 0;
  uint64_t pruned = 0;
  for (const ShardCountersSnapshot& c : counters) {
    executed += c.executed;
    pruned += c.pruned;
  }
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(pruned, 2 * std::size(kDocs) - 1);
}

TEST(ShardedCollectionTest, DisabledRouterScattersEverywhere) {
  ShardedCollectionOptions options;
  options.router.enabled = false;
  std::unique_ptr<ShardedCollection> collection =
      MakeCollection(std::size(kDocs), std::move(options));
  ASSERT_NE(collection, nullptr);
  Result<ShardedResult> got = collection->Search({"standup"});
  ASSERT_TRUE(got.ok());
  // Same answer, but every (non-empty) shard executed.
  EXPECT_EQ(got->result.nodes.size(), 1u);
  EXPECT_EQ(got->executed_shards(), std::size(kDocs));
}

TEST(ShardedCollectionTest, EmptyShardsWhenMoreShardsThanDocuments) {
  std::unique_ptr<ShardedCollection> collection = MakeCollection(9);
  ASSERT_NE(collection, nullptr);
  size_t with_engine = 0;
  for (uint32_t s = 0; s < collection->shard_count(); ++s) {
    if (collection->shard_engine(s) != nullptr) {
      ++with_engine;
      EXPECT_FALSE(collection->shard_documents(s).empty());
    } else {
      EXPECT_TRUE(collection->shard_documents(s).empty());
    }
  }
  EXPECT_EQ(with_engine, std::size(kDocs));
  Result<ShardedResult> got = collection->Search({"keyword"});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(Strings(Sorted(got->result.nodes)),
            Strings(PerDocUnion({"keyword"})));
}

TEST(ShardedCollectionTest, MirrorsEngineNormalizationContract) {
  std::unique_ptr<ShardedCollection> collection = MakeCollection(2);
  ASSERT_NE(collection, nullptr);
  EXPECT_TRUE(collection->Search({}).status().IsInvalidArgument());
  EXPECT_TRUE(collection->Search({"..."}).status().IsInvalidArgument());
  // Case folding matches the engine tokenizer.
  Result<ShardedResult> upper = collection->Search({"KEYWORD"});
  ASSERT_TRUE(upper.ok());
  EXPECT_EQ(Strings(Sorted(upper->result.nodes)),
            Strings(PerDocUnion({"keyword"})));
}

TEST(ShardedCollectionTest, FrequencyAggregatesAcrossShards) {
  std::unique_ptr<ShardedCollection> collection = MakeCollection(3);
  ASSERT_NE(collection, nullptr);
  EXPECT_EQ(collection->Frequency("keyword"), 3u);
  EXPECT_EQ(collection->Frequency("xu"), 2u);
  EXPECT_EQ(collection->Frequency("nosuchword"), 0u);
}

TEST(ShardedCollectionTest, ElcaAndAllLcaSemanticsMatchPerDocUnion) {
  std::unique_ptr<ShardedCollection> collection = MakeCollection(3);
  ASSERT_NE(collection, nullptr);
  for (const Semantics semantics : {Semantics::kElca, Semantics::kAllLca}) {
    SearchOptions so;
    so.semantics = semantics;
    Result<ShardedResult> got = collection->Search({"keyword", "search"}, so);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Strings(Sorted(got->result.nodes)),
              Strings(PerDocUnion({"keyword", "search"}, so)));
  }
}

TEST(ShardedCollectionTest, StatsAggregationIdentity) {
  std::unique_ptr<ShardedCollection> collection = MakeCollection(3);
  ASSERT_NE(collection, nullptr);
  Result<ShardedResult> got = collection->Search({"keyword", "search"});
  ASSERT_TRUE(got.ok());
  QueryStats sum;
  uint64_t contributed = 0;
  for (const ShardQueryStats& s : got->shards) {
    sum += s.stats;
    contributed += s.results;
  }
  EXPECT_EQ(sum.match_ops.load(), got->result.stats.match_ops.load());
  EXPECT_EQ(sum.postings_read.load(), got->result.stats.postings_read.load());
  EXPECT_EQ(sum.dewey_comparisons.load(),
            got->result.stats.dewey_comparisons.load());
  EXPECT_EQ(contributed, got->result.nodes.size());
}

TEST(ScatterGatherTest, ParallelMatchesSequential) {
  for (const size_t n : {1u, 3u, 7u}) {
    std::unique_ptr<ShardedCollection> collection = MakeCollection(n);
    ASSERT_NE(collection, nullptr);
    ScatterGatherOptions sgo;
    sgo.workers = 4;
    ScatterGatherExecutor executor(collection.get(), sgo);
    const std::vector<std::vector<std::string>> queries = {
        {"keyword"}, {"keyword", "search"}, {"xu"}, {"nosuchword"},
    };
    for (const std::vector<std::string>& q : queries) {
      Result<ShardedResult> seq = collection->Search(q);
      Result<ShardedResult> par = executor.Search(q);
      ASSERT_TRUE(seq.ok());
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      EXPECT_EQ(Strings(seq->result.nodes), Strings(par->result.nodes));
      EXPECT_EQ(seq->result.stats.match_ops.load(),
                par->result.stats.match_ops.load());
      EXPECT_EQ(seq->executed_shards(), par->executed_shards());
    }
    // Error contract parity too.
    EXPECT_TRUE(executor.Search({}).status().IsInvalidArgument());
  }
}

class ShardedDiskTest : public ::testing::Test {
 protected:
  void Build(size_t shards) {
    ShardedCollectionOptions options;
    options.shards = shards;
    options.build.build_disk_index = true;
    options.build.disk.in_memory = true;
    options.build.disk.scan_pool_pages = 8;
    options.store_decorator = [this](std::unique_ptr<PageStore> inner,
                                     size_t shard, std::string_view /*name*/) {
      auto wrapped =
          std::make_unique<FaultInjectingPageStore>(std::move(inner), 7);
      wrappers_.resize(std::max(wrappers_.size(), shard + 1));
      wrappers_[shard].push_back(wrapped.get());
      return std::unique_ptr<PageStore>(std::move(wrapped));
    };
    ShardedCollection::Builder builder(std::move(options));
    for (size_t d = 0; d < std::size(kDocs); ++d) {
      XKS_ASSERT_OK(builder.AddXml("doc" + std::to_string(d), kDocs[d]));
    }
    Result<std::unique_ptr<ShardedCollection>> built =
        std::move(builder).Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    collection_ = built.MoveValueUnsafe();
  }

  void ExpectZeroPins() {
    for (uint32_t s = 0; s < collection_->shard_count(); ++s) {
      const XKSearch* engine = collection_->shard_engine(s);
      if (engine == nullptr || engine->disk_index() == nullptr) continue;
      EXPECT_EQ(engine->disk_index()->scan_pool()->DebugTotalPins(), 0u)
          << "shard " << s;
    }
  }

  std::unique_ptr<ShardedCollection> collection_;
  std::vector<std::vector<FaultInjectingPageStore*>> wrappers_;
};

TEST_F(ShardedDiskTest, DiskPathMatchesPerDocUnion) {
  Build(3);
  SearchOptions so;
  so.use_disk_index = true;
  Result<ShardedResult> got = collection_->Search({"keyword", "search"}, so);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Strings(Sorted(got->result.nodes)),
            Strings(PerDocUnion({"keyword", "search"})));
  EXPECT_GT(got->result.stats.page_reads.load() +
                got->result.stats.page_hits.load(),
            0u);
}

TEST_F(ShardedDiskTest, OneFaultedShardFailsTheQueryCleanlyAndRecovers) {
  Build(std::size(kDocs));
  SearchOptions so;
  so.use_disk_index = true;
  // Find the shard holding doc0 ("xu" queries route only there and to
  // doc1's shard... "keyword" spans doc0/1/2's shards) — simplest: fault
  // the shard of doc 0 and query a keyword that must touch it.
  const uint32_t victim = [&] {
    for (uint32_t s = 0; s < collection_->shard_count(); ++s) {
      const std::vector<uint32_t>& docs = collection_->shard_documents(s);
      if (std::find(docs.begin(), docs.end(), 0u) != docs.end()) return s;
    }
    return uint32_t{0};
  }();
  ASSERT_LT(victim, wrappers_.size());
  ASSERT_FALSE(wrappers_[victim].empty());
  // Cold pools on the victim, so the shard query must actually read
  // through the (failing) store instead of riding cached pages.
  XKS_ASSERT_OK(collection_->shard_engine(victim)->disk_index()->DropCaches());
  for (FaultInjectingPageStore* w : wrappers_[victim]) {
    w->FailReadsWithProbability(1.0, FaultRule::kForever);
    w->Arm();
  }
  Result<ShardedResult> got = collection_->Search({"keyword", "search"}, so);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsIoError()) << got.status().ToString();
  ExpectZeroPins();

  // Parallel executor: same clean failure, still no leaked pins.
  ScatterGatherExecutor executor(collection_.get(), {});
  Result<ShardedResult> par = executor.Search({"keyword", "search"}, so);
  ASSERT_FALSE(par.ok());
  EXPECT_TRUE(par.status().IsIoError()) << par.status().ToString();
  ExpectZeroPins();

  // A query routed away from the faulted shard still succeeds: faults
  // stay contained to the shard that owns the failing store.
  Result<ShardedResult> routed = collection_->Search({"standup"}, so);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed->result.nodes.size(), 1u);

  for (FaultInjectingPageStore* w : wrappers_[victim]) {
    w->Disarm();
    w->ClearFaults();
  }
  Result<ShardedResult> recovered =
      collection_->Search({"keyword", "search"}, so);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Strings(Sorted(recovered->result.nodes)),
            Strings(PerDocUnion({"keyword", "search"})));
  ExpectZeroPins();
}

}  // namespace
}  // namespace shard
}  // namespace xksearch
