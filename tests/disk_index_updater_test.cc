#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "common/rng.h"
#include "engine/disk_searcher.h"
#include "gen/school.h"
#include "gtest/gtest.h"
#include "index/inverted_index.h"
#include "slca/brute_force.h"
#include "storage/disk_index.h"
#include "storage/fault_injection.h"
#include "test_util.h"
#include "xml/parser.h"

namespace xksearch {
namespace {

using testing_util::Id;
using testing_util::Strings;

class DiskIndexUpdaterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = testing_util::UniqueTempPrefix("updater_idx");
    // Base index: two keywords over a small tree.
    source_.AddPosting("apple", Id("0.0.1"));
    source_.AddPosting("apple", Id("0.2.0"));
    source_.AddPosting("banana", Id("0.1"));
    source_.AddPosting("banana", Id("0.2.1"));
    // Widen the level table so updates have room (CanEncode headroom).
    source_.AddPosting("zzfiller", Id("0.7.7.7"));
    Result<std::unique_ptr<DiskIndex>> built =
        DiskIndex::Build(source_, prefix_);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
  }

  void TearDown() override {
    for (const char* suffix : {".il", ".scan", ".dict", ".wal"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }

  // Reads back one keyword list via a freshly opened index.
  std::vector<DeweyId> Postings(const std::string& keyword) {
    Result<std::unique_ptr<DiskIndex>> index = DiskIndex::Open(prefix_);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    std::vector<DeweyId> out;
    const DiskIndex::TermInfo* info = (*index)->FindTerm(keyword);
    if (info == nullptr) return out;
    Result<DiskIndex::PostingCursor> cursor = (*index)->OpenPostings(info->id);
    EXPECT_TRUE(cursor.ok());
    DeweyId id;
    while (cursor->Next(&id)) out.push_back(id);
    XKS_EXPECT_OK(cursor->status());
    // The Indexed Lookup layout must agree with the scan layout.
    DiskIndex::MatchProbe scratch;
    DeweyId got;
    DeweyId probe({0});
    Result<bool> rm = (*index)->RightMatch(info->id, probe, &scratch, &got);
    EXPECT_TRUE(rm.ok());
    if (!out.empty()) {
      EXPECT_TRUE(*rm);
      EXPECT_EQ(got, out.front());
    }
    return out;
  }

  std::string prefix_;
  InvertedIndex source_;
};

TEST_F(DiskIndexUpdaterTest, AddPostingAppears) {
  {
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_);
    ASSERT_TRUE(updater.ok()) << updater.status().ToString();
    XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.1.5")));
    EXPECT_EQ((*updater)->Frequency("apple"), 3u);
    XKS_ASSERT_OK((*updater)->Finish());
  }
  EXPECT_EQ(Strings(Postings("apple")),
            (std::vector<std::string>{"0.0.1", "0.1.5", "0.2.0"}));
}

TEST_F(DiskIndexUpdaterTest, AddIsIdempotent) {
  Result<std::unique_ptr<DiskIndexUpdater>> updater =
      DiskIndexUpdater::Open(prefix_);
  ASSERT_TRUE(updater.ok());
  XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.0.1")));  // existing
  EXPECT_EQ((*updater)->Frequency("apple"), 2u);
  XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.3")));
  XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.3")));  // repeat
  EXPECT_EQ((*updater)->Frequency("apple"), 3u);
  XKS_ASSERT_OK((*updater)->Finish());
  EXPECT_EQ(Postings("apple").size(), 3u);
}

TEST_F(DiskIndexUpdaterTest, NewKeywordGetsFreshTerm) {
  {
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_);
    ASSERT_TRUE(updater.ok());
    XKS_ASSERT_OK((*updater)->AddPosting("cherry", Id("0.4")));
    XKS_ASSERT_OK((*updater)->AddPosting("cherry", Id("0.0.3")));
    XKS_ASSERT_OK((*updater)->Finish());
  }
  EXPECT_EQ(Strings(Postings("cherry")),
            (std::vector<std::string>{"0.0.3", "0.4"}));
  // Existing keywords are untouched.
  EXPECT_EQ(Postings("apple").size(), 2u);
}

TEST_F(DiskIndexUpdaterTest, RemovePostingDisappears) {
  {
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_);
    ASSERT_TRUE(updater.ok());
    XKS_ASSERT_OK((*updater)->RemovePosting("apple", Id("0.0.1")));
    EXPECT_TRUE(
        (*updater)->RemovePosting("apple", Id("0.9.9")).IsNotFound());
    EXPECT_TRUE((*updater)->RemovePosting("nope", Id("0.1")).IsNotFound());
    XKS_ASSERT_OK((*updater)->Finish());
  }
  EXPECT_EQ(Strings(Postings("apple")), (std::vector<std::string>{"0.2.0"}));
}

TEST_F(DiskIndexUpdaterTest, RemovingEveryPostingDropsTheTerm) {
  {
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_);
    ASSERT_TRUE(updater.ok());
    XKS_ASSERT_OK((*updater)->RemovePosting("banana", Id("0.1")));
    XKS_ASSERT_OK((*updater)->RemovePosting("banana", Id("0.2.1")));
    XKS_ASSERT_OK((*updater)->Finish());
  }
  EXPECT_TRUE(Postings("banana").empty());
  Result<std::unique_ptr<DiskIndex>> index = DiskIndex::Open(prefix_);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->FindTerm("banana"), nullptr);
}

TEST_F(DiskIndexUpdaterTest, OutOfRangeIdRejected) {
  Result<std::unique_ptr<DiskIndexUpdater>> updater =
      DiskIndexUpdater::Open(prefix_);
  ASSERT_TRUE(updater.ok());
  // Component 999999 cannot fit the level table built from the corpus.
  EXPECT_TRUE(
      (*updater)->AddPosting("apple", Id("0.999999")).IsInvalidArgument());
  // Such an id was never stored, so removing it finds nothing.
  EXPECT_TRUE((*updater)->RemovePosting("apple", Id("0.999999")).IsNotFound());
  EXPECT_EQ((*updater)->Frequency("apple"), 2u);
}

TEST_F(DiskIndexUpdaterTest, ManyUpdatesSplitBlocksAndStayConsistent) {
  // Push enough postings through one keyword to force several block
  // splits and re-keyings; mirror everything in an in-memory reference.
  std::vector<DeweyId> reference = source_.Materialize("apple");
  {
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_);
    ASSERT_TRUE(updater.ok());
    Rng rng(2024);
    for (int i = 0; i < 3000; ++i) {
      const DeweyId id({0, static_cast<uint32_t>(rng.Uniform(8)),
                        static_cast<uint32_t>(rng.Uniform(8)),
                        static_cast<uint32_t>(rng.Uniform(8))});
      if (rng.Bernoulli(0.25) && !reference.empty()) {
        const size_t pick = rng.Uniform(reference.size());
        XKS_ASSERT_OK((*updater)->RemovePosting("apple", reference[pick]));
        reference.erase(reference.begin() + static_cast<long>(pick));
      } else {
        const Status st = (*updater)->AddPosting("apple", id);
        XKS_ASSERT_OK(st);
        auto pos = std::lower_bound(reference.begin(), reference.end(), id);
        if (pos == reference.end() || *pos != id) reference.insert(pos, id);
      }
    }
    EXPECT_EQ((*updater)->Frequency("apple"), reference.size());
    XKS_ASSERT_OK((*updater)->Finish());
  }
  EXPECT_EQ(Strings(Postings("apple")), Strings(reference));
}

TEST_F(DiskIndexUpdaterTest, UpdatedIndexAnswersQueriesCorrectly) {
  // End to end: mutate the school index, reopen with DiskSearcher, and
  // check the SLCA result tracks the change.
  const std::string prefix = ::testing::TempDir() + "/updater_school";
  Document doc = BuildSchoolDocument();
  InvertedIndex index = InvertedIndex::Build(doc);
  {
    Result<std::unique_ptr<DiskIndex>> built = DiskIndex::Build(index, prefix);
    ASSERT_TRUE(built.ok());
  }
  {
    // Pretend a new document edit put "ben" on the Robotics project lead
    // (node 0.2.0.1.0 is the text "John" under the lead element; use its
    // sibling position 0.2.0.2 as a fresh text node's id).
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix);
    ASSERT_TRUE(updater.ok()) << updater.status().ToString();
    XKS_ASSERT_OK((*updater)->AddPosting("ben", Id("0.2.0.2")));
    XKS_ASSERT_OK((*updater)->Finish());
  }
  Result<std::unique_ptr<DiskSearcher>> searcher = DiskSearcher::Open(prefix);
  ASSERT_TRUE(searcher.ok());
  Result<SearchResult> result = (*searcher)->Search({"john", "ben"});
  ASSERT_TRUE(result.ok());
  // The Robotics project (0.2.0) now contains both names: a 4th answer.
  EXPECT_EQ(Strings(result->nodes),
            (std::vector<std::string>{"0.0.0", "0.0.1", "0.1.0.1", "0.2.0"}));
  for (const char* suffix : {".il", ".scan", ".dict", ".wal"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST_F(DiskIndexUpdaterTest, ReadersKeepPreBatchSnapshotDuringUpdate) {
  // A DiskSearcher opened before the batch must answer from the
  // pre-batch index for as long as the batch is in flight: the updater
  // stages every write (including buffer-pool eviction write-back) in
  // its StagedPageStore overlays, so the inner files only change at the
  // commit point. Readers hammer queries from two threads while the
  // main thread pushes a long batch through the updater; any divergence
  // from the pre-batch answer is a broken snapshot. Readers that should
  // outlive the commit must reopen — same contract as any index swap —
  // so they are stopped before Finish().
  std::vector<std::vector<DeweyId>> pre_lists = {
      source_.Materialize("apple"), source_.Materialize("banana")};
  const std::vector<std::string> expected_pre =
      Strings(BruteForceSlca(pre_lists));
  Result<std::unique_ptr<DiskSearcher>> searcher = DiskSearcher::Open(prefix_);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();

  // Quiesced baseline: no updater exists yet, so this run's algorithm
  // work (the paper's lm/rm match operations) is the reference every
  // mid-batch read must reproduce — the batch may only change WHERE a
  // match is answered from, never how many matches a snapshot query asks.
  Result<SearchResult> quiesced = (*searcher)->Search({"apple", "banana"});
  XKS_ASSERT_OK(quiesced.status());
  ASSERT_EQ(Strings(quiesced->nodes), expected_pre);
  const uint64_t quiesced_match_ops = quiesced->stats.match_ops.load();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<bool> diverged{false};
  auto read_loop = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      Result<SearchResult> result = (*searcher)->Search({"apple", "banana"});
      if (!result.ok() || Strings(result->nodes) != expected_pre ||
          result->stats.match_ops.load() != quiesced_match_ops) {
        diverged.store(true, std::memory_order_release);
      }
      queries.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread reader_a(read_loop);
  std::thread reader_b(read_loop);

  Result<std::unique_ptr<DiskIndexUpdater>> updater =
      DiskIndexUpdater::Open(prefix_);
  ASSERT_TRUE(updater.ok()) << updater.status().ToString();
  XKS_ASSERT_OK((*updater)->RemovePosting("apple", Id("0.0.1")));
  XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.1.0")));
  XKS_ASSERT_OK((*updater)->AddPosting("banana", Id("0.3.1")));
  Rng rng(77);
  for (int i = 0; i < 400; ++i) {
    const DeweyId id({0, static_cast<uint32_t>(rng.Uniform(8)),
                      static_cast<uint32_t>(rng.Uniform(8)),
                      static_cast<uint32_t>(rng.Uniform(8))});
    XKS_ASSERT_OK((*updater)->AddPosting("padding", id));
  }
  // The updater buffers a batch's edits until Finish, so the calls above
  // return quickly: let the readers finish queries against the open
  // batch before stopping them.
  const uint64_t issued = queries.load();
  while (queries.load() < issued + 8) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  reader_a.join();
  reader_b.join();
  EXPECT_GT(queries.load(), 0u);
  EXPECT_FALSE(diverged.load()) << "a concurrent reader saw mid-batch state";

  XKS_ASSERT_OK((*updater)->Finish());
  EXPECT_EQ(Strings(Postings("apple")),
            (std::vector<std::string>{"0.1.0", "0.2.0"}));
  EXPECT_EQ(Postings("banana").size(), 3u);
  EXPECT_EQ(Postings("padding").size(), (*updater)->Frequency("padding"));
}

TEST_F(DiskIndexUpdaterTest, LegacyPathWithoutWalWritesInPlace) {
  auto exists = [](const std::string& path) {
    return std::ifstream(path).good();
  };
  {
    // Default (WAL) mode stages the batch behind <prefix>.wal; the log
    // file survives Finish (reset to empty, ready for the next batch).
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_);
    ASSERT_TRUE(updater.ok());
    XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.1.5")));
    XKS_ASSERT_OK((*updater)->Finish());
  }
  EXPECT_TRUE(exists(prefix_ + ".wal"));
  std::remove((prefix_ + ".wal").c_str());
  {
    // use_wal=false is the legacy in-place path: no log file, same
    // results, no crash-atomicity guarantee.
    DiskIndexOptions options;
    options.use_wal = false;
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_, options);
    ASSERT_TRUE(updater.ok()) << updater.status().ToString();
    XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.3")));
    EXPECT_EQ((*updater)->recovered_batches(), 0u);
    XKS_ASSERT_OK((*updater)->Finish());
  }
  EXPECT_FALSE(exists(prefix_ + ".wal"));
  EXPECT_EQ(Strings(Postings("apple")),
            (std::vector<std::string>{"0.0.1", "0.1.5", "0.2.0", "0.3"}));
}

TEST_F(DiskIndexUpdaterTest, CommittedBatchSurvivesApplyFailure) {
  // Kill the il store on its first write AFTER the commit fsync: the
  // batch is durable in the WAL but the apply pass dies. Finish reports
  // the error; the next updater Open replays the committed batch and
  // reports it through recovered_batches().
  {
    DiskIndexOptions options;
    options.store_decorator = [](std::unique_ptr<PageStore> store,
                                 std::string_view name) -> std::unique_ptr<PageStore> {
      if (name != "il") return store;
      auto wrapped =
          std::make_unique<FaultInjectingPageStore>(std::move(store), 1);
      // In WAL mode the inner il store is only written during the apply
      // pass (all earlier writes land in the overlay), so "first write"
      // = first post-commit apply operation.
      wrapped->FailNthWrite(1);
      wrapped->Arm();
      return wrapped;
    };
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_, options);
    ASSERT_TRUE(updater.ok()) << updater.status().ToString();
    XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.4.2")));
    XKS_ASSERT_OK((*updater)->RemovePosting("banana", Id("0.1")));
    EXPECT_TRUE((*updater)->Finish().IsIoError());
  }
  {
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_);
    ASSERT_TRUE(updater.ok()) << updater.status().ToString();
    EXPECT_EQ((*updater)->recovered_batches(), 1u);
  }
  EXPECT_EQ(Strings(Postings("apple")),
            (std::vector<std::string>{"0.0.1", "0.2.0", "0.4.2"}));
  EXPECT_EQ(Strings(Postings("banana")), (std::vector<std::string>{"0.2.1"}));
}

TEST_F(DiskIndexUpdaterTest, ProbeReadErrorIsReturnedAndCountsNothing) {
  // A read fault during the presence probe must surface, not read as
  // "absent": otherwise an existing posting would be counted again.
  FaultInjectingPageStore* il = nullptr;
  DiskIndexOptions options;
  options.store_decorator = [&il](std::unique_ptr<PageStore> store,
                                  std::string_view name)
      -> std::unique_ptr<PageStore> {
    if (name != "il") return store;
    auto wrapped =
        std::make_unique<FaultInjectingPageStore>(std::move(store), 1);
    il = wrapped.get();
    return wrapped;
  };
  Result<std::unique_ptr<DiskIndexUpdater>> updater =
      DiskIndexUpdater::Open(prefix_, options);
  ASSERT_TRUE(updater.ok()) << updater.status().ToString();
  ASSERT_NE(il, nullptr);
  const uint64_t total = (*updater)->total_postings();
  il->Arm();
  il->FailNthRead(1);
  EXPECT_TRUE((*updater)->AddPosting("apple", Id("0.0.1")).IsIoError());
  EXPECT_EQ((*updater)->Frequency("apple"), 2u);
  EXPECT_EQ((*updater)->total_postings(), total);
  il->ClearFaults();
  il->FailNthRead(1);
  EXPECT_TRUE((*updater)->RemovePosting("apple", Id("0.0.1")).IsIoError());
  EXPECT_EQ((*updater)->Frequency("apple"), 2u);
  EXPECT_EQ((*updater)->total_postings(), total);
  il->Disarm();
  // The faults were transient: the posting is still there, once.
  XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.0.1")));
  EXPECT_EQ((*updater)->Frequency("apple"), 2u);
  EXPECT_EQ((*updater)->total_postings(), total);
  XKS_ASSERT_OK((*updater)->Finish());
  EXPECT_EQ(Strings(Postings("apple")),
            (std::vector<std::string>{"0.0.1", "0.2.0"}));
}

TEST_F(DiskIndexUpdaterTest, UnchangedDictionaryIsNotRewritten) {
  auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string dict_before = read_file(prefix_ + ".dict");
  {
    // First run: the apply step dies on its first il write after the
    // commit, so the log keeps the committed batch for inspection.
    DiskIndexOptions options;
    options.store_decorator = [](std::unique_ptr<PageStore> store,
                                 std::string_view name)
        -> std::unique_ptr<PageStore> {
      if (name != "il") return store;
      auto wrapped =
          std::make_unique<FaultInjectingPageStore>(std::move(store), 1);
      wrapped->FailNthWrite(1);
      wrapped->Arm();
      return wrapped;
    };
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_, options);
    ASSERT_TRUE(updater.ok()) << updater.status().ToString();
    // Each keyword keeps its frequency: apple swaps one posting for
    // another, banana's add and remove cancel.
    XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.3")));
    XKS_ASSERT_OK((*updater)->RemovePosting("apple", Id("0.0.1")));
    XKS_ASSERT_OK((*updater)->AddPosting("banana", Id("0.4")));
    XKS_ASSERT_OK((*updater)->RemovePosting("banana", Id("0.4")));
    EXPECT_TRUE((*updater)->Finish().IsIoError());
  }
  {
    // Replay the log by hand, noting which stores its frames name.
    std::vector<std::unique_ptr<PageStore>> targets;
    for (const char* suffix : {".il", ".scan", ".dict"}) {
      Result<std::unique_ptr<FilePageStore>> store =
          FilePageStore::Open(prefix_ + suffix);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      targets.push_back(store.MoveValueUnsafe());
    }
    Result<std::unique_ptr<FilePageStore>> log_store =
        FilePageStore::Open(prefix_ + ".wal");
    ASSERT_TRUE(log_store.ok()) << log_store.status().ToString();
    Result<std::unique_ptr<Wal>> wal = Wal::Open(log_store.MoveValueUnsafe());
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    std::set<uint8_t> logged;
    Result<WalRecoveryStats> stats =
        (*wal)->Recover([&](uint8_t id) -> PageStore* {
          logged.insert(id);
          return id < targets.size() ? targets[id].get() : nullptr;
        });
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->batches_applied, 1u);
    EXPECT_EQ(logged, (std::set<uint8_t>{0, 1}))  // il and scan only
        << "the unchanged dictionary was logged";
  }
  EXPECT_EQ(read_file(prefix_ + ".dict"), dict_before);
  EXPECT_EQ(Strings(Postings("apple")),
            (std::vector<std::string>{"0.2.0", "0.3"}));

  // Second run, fault-free: the same kind of batch never writes or
  // syncs the dictionary file.
  FaultInjectingPageStore* dict = nullptr;
  DiskIndexOptions options;
  options.store_decorator = [&dict](std::unique_ptr<PageStore> store,
                                    std::string_view name)
      -> std::unique_ptr<PageStore> {
    if (name != "dict") return store;
    auto wrapped =
        std::make_unique<FaultInjectingPageStore>(std::move(store), 1);
    dict = wrapped.get();
    return wrapped;
  };
  Result<std::unique_ptr<DiskIndexUpdater>> updater =
      DiskIndexUpdater::Open(prefix_, options);
  ASSERT_TRUE(updater.ok()) << updater.status().ToString();
  XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.0.1")));
  XKS_ASSERT_OK((*updater)->RemovePosting("apple", Id("0.3")));
  XKS_ASSERT_OK((*updater)->Finish());
  ASSERT_NE(dict, nullptr);
  EXPECT_EQ(dict->writes(), 0u);
  EXPECT_EQ(dict->syncs(), 0u);
  EXPECT_EQ(read_file(prefix_ + ".dict"), dict_before);
  EXPECT_EQ(Strings(Postings("apple")),
            (std::vector<std::string>{"0.0.1", "0.2.0"}));
}

TEST_F(DiskIndexUpdaterTest, InMemoryRejected) {
  DiskIndexOptions mem;
  mem.in_memory = true;
  EXPECT_TRUE(DiskIndexUpdater::Open(prefix_, mem).status().IsInvalidArgument());
}

// Randomized batch parity: every batch mixes adds, removes, re-adds,
// cancelling add/remove pairs, new terms, terms emptied and re-created,
// inserts before a term's first block and dense runs that split one scan
// block and one IL leaf several ways. After each batch the reopened index
// must answer exactly like a fresh Build of the mirrored postings.
class DiskIndexUpdaterParityTest : public ::testing::Test {
 protected:
  using Mirror = std::map<std::string, std::set<DeweyId>>;
  static constexpr size_t kBlockBytes = 48;

  void SetUp() override {
    prefix_ = testing_util::UniqueTempPrefix("updater_parity");
    options_.scan_block_bytes = kBlockBytes;
    // The filler fixes the level table at 0..63 per level for both this
    // index and every fresh build; regular ids use level-1 components
    // >= 8, leaving 0..7 for inserts before a term's first block.
    mirror_["zzfiller"].insert(DeweyId({0, 63, 63, 63}));
    for (int t = 0; t < 6; ++t) {
      for (int i = 0; i < 200; ++i) {
        mirror_["k" + std::to_string(t)].insert(RandomId());
      }
    }
    InvertedIndex source = MirrorIndex();
    Result<std::unique_ptr<DiskIndex>> built =
        DiskIndex::Build(source, prefix_, options_);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    built_blocks_ = ScanBlocks();
  }

  void TearDown() override {
    for (const char* suffix : {".il", ".scan", ".dict", ".wal"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }

  DeweyId RandomId() {
    return DeweyId({0, static_cast<uint32_t>(8 + rng_.Uniform(56)),
                    static_cast<uint32_t>(rng_.Uniform(64)),
                    static_cast<uint32_t>(rng_.Uniform(64))});
  }

  InvertedIndex MirrorIndex() const {
    InvertedIndex index;
    for (const auto& [term, ids] : mirror_) {
      for (const DeweyId& id : ids) index.AddPosting(term, id);
    }
    return index;
  }

  // Every (key, payload) of the scan tree on disk.
  std::set<std::pair<std::string, std::string>> ScanBlocks() const {
    std::set<std::pair<std::string, std::string>> blocks;
    Result<std::unique_ptr<FilePageStore>> store =
        FilePageStore::Open(prefix_ + ".scan");
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    if (!store.ok()) return blocks;
    BufferPool pool(store->get(), 64);
    Result<BPlusTree> tree = BPlusTree::Open(&pool);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    if (!tree.ok()) return blocks;
    BPlusTree::Cursor cursor = tree->NewCursor();
    XKS_EXPECT_OK(cursor.SeekToFirst());
    while (cursor.Valid()) {
      blocks.emplace(std::string(cursor.key()), std::string(cursor.value()));
      XKS_EXPECT_OK(cursor.Next());
    }
    return blocks;
  }

  void Add(DiskIndexUpdater* updater, const std::string& term,
           const DeweyId& id) {
    const Status st = updater->AddPosting(term, id);
    EXPECT_TRUE(st.ok()) << term << " " << id.ToString() << ": "
                         << st.ToString();
    mirror_[term].insert(id);
  }

  void Remove(DiskIndexUpdater* updater, const std::string& term,
              const DeweyId& id) {
    const Status st = updater->RemovePosting(term, id);
    if (mirror_[term].erase(id) > 0) {
      EXPECT_TRUE(st.ok()) << term << " " << id.ToString() << ": "
                           << st.ToString();
    } else {
      EXPECT_TRUE(st.IsNotFound()) << term << " " << st.ToString();
    }
  }

  DeweyId AnyPosting(const std::string& term) {
    const std::set<DeweyId>& ids = mirror_[term];
    auto it = ids.begin();
    std::advance(it, static_cast<long>(rng_.Uniform(ids.size())));
    return *it;
  }

  // One batch; `round` picks which special cases it carries.
  void RunBatch(int round) {
    Result<std::unique_ptr<DiskIndexUpdater>> opened =
        DiskIndexUpdater::Open(prefix_, options_);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    DiskIndexUpdater* updater = opened->get();
    const std::vector<std::string> terms = {"k0", "k1", "k2", "k3", "k4",
                                            "k5", "n0", "n1"};
    for (int op = 0; op < 300; ++op) {
      const std::string& term = terms[rng_.Uniform(terms.size())];
      const uint64_t kind = rng_.Uniform(10);
      const bool has_postings = !mirror_[term].empty();
      if (kind < 4 || !has_postings) {
        Add(updater, term, RandomId());
      } else if (kind < 6) {
        Remove(updater, term, AnyPosting(term));
      } else if (kind == 6) {
        Remove(updater, term, RandomId());  // mostly absent: NotFound
      } else if (kind == 7) {
        Add(updater, term, AnyPosting(term));  // re-add: a no-op
      } else if (kind == 8) {
        const DeweyId id = RandomId();  // add then remove
        Add(updater, term, id);
        Remove(updater, term, id);
      } else {
        const DeweyId id = AnyPosting(term);  // remove then re-add
        Remove(updater, term, id);
        Add(updater, term, id);
      }
    }
    // Before the first block: each round's id sorts below every earlier
    // posting of the term.
    Add(updater, terms[static_cast<size_t>(round) % 6],
        DeweyId({0, static_cast<uint32_t>(7 - round), 5, 5}));
    // A brand-new keyword.
    Add(updater, "new" + std::to_string(round), RandomId());
    // Empty a keyword and re-create it in the same batch.
    const std::string emptied = terms[static_cast<size_t>(round + 3) % 6];
    const std::vector<DeweyId> old(mirror_[emptied].begin(),
                                   mirror_[emptied].end());
    for (const DeweyId& id : old) Remove(updater, emptied, id);
    EXPECT_EQ(updater->Frequency(emptied), 0u);
    for (int i = 0; i < 20; ++i) Add(updater, emptied, RandomId());
    if (round == 2) {
      // A dense run inside one IL leaf's and one scan block's range.
      for (uint32_t a = 0; a < 64; ++a) {
        for (uint32_t b = 0; b < 24; ++b) {
          Add(updater, "k1", DeweyId({0, 40, a, b}));
        }
      }
    }
    uint64_t total = 0;
    for (const auto& [term, ids] : mirror_) {
      EXPECT_EQ(updater->Frequency(term), ids.size()) << term;
      total += ids.size();
    }
    EXPECT_EQ(updater->total_postings(), total);
    XKS_ASSERT_OK(updater->Finish());
  }

  void ExpectSameAnswers(const DiskIndex& updated, const DiskIndex& fresh,
                         const std::string& term, const DeweyId& probe) {
    const DiskIndex::TermInfo* u = updated.FindTerm(term);
    const DiskIndex::TermInfo* f = fresh.FindTerm(term);
    DiskIndex::MatchProbe scratch;
    DeweyId got_u, got_f;
    Result<bool> rm_u = updated.RightMatch(u->id, probe, &scratch, &got_u);
    Result<bool> rm_f = fresh.RightMatch(f->id, probe, &scratch, &got_f);
    ASSERT_TRUE(rm_u.ok() && rm_f.ok());
    EXPECT_EQ(*rm_u, *rm_f) << term << " rm " << probe.ToString();
    if (*rm_u && *rm_f) {
      EXPECT_EQ(got_u, got_f);
    }
    Result<bool> lm_u = updated.LeftMatch(u->id, probe, &scratch, &got_u);
    Result<bool> lm_f = fresh.LeftMatch(f->id, probe, &scratch, &got_f);
    ASSERT_TRUE(lm_u.ok() && lm_f.ok());
    EXPECT_EQ(*lm_u, *lm_f) << term << " lm " << probe.ToString();
    if (*lm_u && *lm_f) {
      EXPECT_EQ(got_u, got_f);
    }
  }

  std::vector<DeweyId> ScanList(const DiskIndex& index, uint32_t term) {
    std::vector<DeweyId> out;
    Result<DiskIndex::PostingCursor> cursor = index.OpenPostings(term);
    EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
    if (!cursor.ok()) return out;
    DeweyId id;
    while (cursor->Next(&id)) out.push_back(id);
    XKS_EXPECT_OK(cursor->status());
    return out;
  }

  void ExpectMatchesFreshBuild() {
    Result<std::unique_ptr<DiskIndex>> updated =
        DiskIndex::Open(prefix_, options_);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    InvertedIndex source = MirrorIndex();
    DiskIndexOptions in_memory = options_;
    in_memory.in_memory = true;
    Result<std::unique_ptr<DiskIndex>> fresh =
        DiskIndex::Build(source, "", in_memory);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ((*updated)->total_postings(), (*fresh)->total_postings());
    EXPECT_EQ((*updated)->term_count(), (*fresh)->term_count());
    for (const auto& [term, ids] : mirror_) {
      SCOPED_TRACE(term);
      const DiskIndex::TermInfo* u = (*updated)->FindTerm(term);
      const DiskIndex::TermInfo* f = (*fresh)->FindTerm(term);
      if (ids.empty()) {
        EXPECT_EQ(u, nullptr);
        EXPECT_EQ(f, nullptr);
        continue;
      }
      ASSERT_NE(u, nullptr);
      ASSERT_NE(f, nullptr);
      EXPECT_EQ(u->frequency, f->frequency);
      EXPECT_EQ(ScanList(**updated, u->id), ScanList(**fresh, f->id));
      EXPECT_EQ(ScanList(**updated, u->id),
                std::vector<DeweyId>(ids.begin(), ids.end()));
      size_t n = 0;
      for (const DeweyId& id : ids) {
        if (n++ % 5 == 0) ExpectSameAnswers(**updated, **fresh, term, id);
      }
      for (int i = 0; i < 20; ++i) {
        ExpectSameAnswers(**updated, **fresh, term, RandomId());
      }
      ExpectSameAnswers(**updated, **fresh, term, DeweyId({0}));
      ExpectSameAnswers(**updated, **fresh, term, DeweyId({0, 63, 63, 63}));
    }
    // Every block the updater wrote is within the budget. (Build closes
    // a block once it reaches the budget, so a block it wrote may pass it
    // by less than one entry; those stay byte-identical until touched.)
    for (const auto& block : ScanBlocks()) {
      if (built_blocks_.count(block) > 0) continue;
      EXPECT_LE(block.second.size(), kBlockBytes);
    }
  }

  std::string prefix_;
  DiskIndexOptions options_;
  Rng rng_{1405};
  Mirror mirror_;
  std::set<std::pair<std::string, std::string>> built_blocks_;
};

TEST_F(DiskIndexUpdaterParityTest, RandomBatchesMatchAFreshBuild) {
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("batch " + std::to_string(round));
    size_t il_pages = 0, k1_blocks = 0;
    if (round == 2) {
      Result<std::unique_ptr<DiskIndex>> before =
          DiskIndex::Open(prefix_, options_);
      ASSERT_TRUE(before.ok());
      il_pages = (*before)->il_page_count();
      Result<std::vector<DiskIndex::ScanBlockRef>> refs =
          (*before)->ScanBlockRefs((*before)->FindTerm("k1")->id);
      ASSERT_TRUE(refs.ok());
      k1_blocks = refs->size();
    }
    ASSERT_NO_FATAL_FAILURE(RunBatch(round));
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesFreshBuild());
    if (round == 2) {
      // The dense run split one IL leaf and one scan block more than
      // twice (pages are never recycled, so new pages are new nodes).
      Result<std::unique_ptr<DiskIndex>> after =
          DiskIndex::Open(prefix_, options_);
      ASSERT_TRUE(after.ok());
      EXPECT_GE((*after)->il_page_count(), il_pages + 3);
      Result<std::vector<DiskIndex::ScanBlockRef>> refs =
          (*after)->ScanBlockRefs((*after)->FindTerm("k1")->id);
      ASSERT_TRUE(refs.ok());
      EXPECT_GE(refs->size(), k1_blocks + 3);
    }
  }
}

}  // namespace
}  // namespace xksearch
