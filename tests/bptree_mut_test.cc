#include "storage/bptree_mut.h"

#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/bptree.h"
#include "storage/node_format.h"
#include "test_util.h"

namespace xksearch {
namespace {

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

std::string Value(int i) { return "value-" + std::to_string(i); }

class BPlusTreeMutTest : public ::testing::Test {
 protected:
  BPlusTreeMutTest() : pool_(&store_, 512) {}

  BPlusTreeMut MakeTree() {
    Result<BPlusTreeMut> tree = BPlusTreeMut::Create(&pool_);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    return tree.MoveValueUnsafe();
  }

  // Flushes and re-opens the store with the read-only reader, checking
  // it sees exactly `expected` via a full cursor scan.
  void ExpectContents(BPlusTreeMut* tree,
                      const std::map<std::string, std::string>& expected) {
    XKS_ASSERT_OK(tree->Flush());
    Result<BPlusTree> reader = BPlusTree::Open(&pool_);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader->entry_count(), expected.size());
    BPlusTree::Cursor cursor = reader->NewCursor();
    XKS_ASSERT_OK(cursor.SeekToFirst());
    auto it = expected.begin();
    while (cursor.Valid()) {
      ASSERT_NE(it, expected.end()) << "extra key " << cursor.key();
      EXPECT_EQ(cursor.key(), it->first);
      EXPECT_EQ(cursor.value(), it->second);
      ++it;
      XKS_ASSERT_OK(cursor.Next());
    }
    EXPECT_EQ(it, expected.end());
    // Backward scan agrees too (prev links stay intact across splits).
    XKS_ASSERT_OK(cursor.SeekToLast());
    auto rit = expected.rbegin();
    while (cursor.Valid()) {
      ASSERT_NE(rit, expected.rend());
      EXPECT_EQ(cursor.key(), rit->first);
      ++rit;
      XKS_ASSERT_OK(cursor.Prev());
    }
    EXPECT_EQ(rit, expected.rend());
  }

  MemPageStore store_;
  BufferPool pool_;
};

TEST_F(BPlusTreeMutTest, EmptyTree) {
  BPlusTreeMut tree = MakeTree();
  EXPECT_EQ(tree.entry_count(), 0u);
  EXPECT_TRUE(tree.Get("x").status().IsNotFound());
  EXPECT_TRUE(tree.Delete("x").IsNotFound());
  ExpectContents(&tree, {});
}

TEST_F(BPlusTreeMutTest, SingleInsertGetDelete) {
  BPlusTreeMut tree = MakeTree();
  XKS_ASSERT_OK(tree.Put("alpha", "1"));
  Result<std::string> v = tree.Get("alpha");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "1");
  EXPECT_EQ(tree.entry_count(), 1u);
  XKS_ASSERT_OK(tree.Delete("alpha"));
  EXPECT_TRUE(tree.Get("alpha").status().IsNotFound());
  EXPECT_EQ(tree.entry_count(), 0u);
  ExpectContents(&tree, {});
}

TEST_F(BPlusTreeMutTest, UpsertOverwrites) {
  BPlusTreeMut tree = MakeTree();
  XKS_ASSERT_OK(tree.Put("k", "old"));
  XKS_ASSERT_OK(tree.Put("k", "new"));
  EXPECT_EQ(tree.entry_count(), 1u);
  Result<std::string> v = tree.Get("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "new");
}

TEST_F(BPlusTreeMutTest, SequentialInsertsSplitLeaves) {
  BPlusTreeMut tree = MakeTree();
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 2000; ++i) {
    XKS_ASSERT_OK(tree.Put(Key(i), Value(i)));
    expected[Key(i)] = Value(i);
  }
  EXPECT_GT(tree.height(), 1u);
  ExpectContents(&tree, expected);
}

TEST_F(BPlusTreeMutTest, ReverseOrderInserts) {
  BPlusTreeMut tree = MakeTree();
  std::map<std::string, std::string> expected;
  for (int i = 2000; i-- > 0;) {
    XKS_ASSERT_OK(tree.Put(Key(i), Value(i)));
    expected[Key(i)] = Value(i);
  }
  ExpectContents(&tree, expected);
}

TEST_F(BPlusTreeMutTest, RandomInsertsMatchStdMap) {
  BPlusTreeMut tree = MakeTree();
  std::map<std::string, std::string> expected;
  Rng rng(17);
  for (int op = 0; op < 4000; ++op) {
    const int k = static_cast<int>(rng.Uniform(1500));
    XKS_ASSERT_OK(tree.Put(Key(k), Value(op)));
    expected[Key(k)] = Value(op);
  }
  EXPECT_EQ(tree.entry_count(), expected.size());
  for (const auto& [k, v] : expected) {
    Result<std::string> got = tree.Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, v);
  }
  ExpectContents(&tree, expected);
}

TEST_F(BPlusTreeMutTest, MixedInsertDeleteMatchesStdMap) {
  BPlusTreeMut tree = MakeTree();
  std::map<std::string, std::string> expected;
  Rng rng(23);
  for (int op = 0; op < 6000; ++op) {
    const int k = static_cast<int>(rng.Uniform(800));
    if (rng.Bernoulli(0.4)) {
      const Status st = tree.Delete(Key(k));
      if (expected.erase(Key(k)) > 0) {
        XKS_EXPECT_OK(st);
      } else {
        EXPECT_TRUE(st.IsNotFound());
      }
    } else {
      XKS_ASSERT_OK(tree.Put(Key(k), Value(op)));
      expected[Key(k)] = Value(op);
    }
  }
  EXPECT_EQ(tree.entry_count(), expected.size());
  ExpectContents(&tree, expected);
}

TEST_F(BPlusTreeMutTest, DeleteEverythingThenReuse) {
  BPlusTreeMut tree = MakeTree();
  for (int i = 0; i < 500; ++i) XKS_ASSERT_OK(tree.Put(Key(i), Value(i)));
  for (int i = 0; i < 500; ++i) XKS_ASSERT_OK(tree.Delete(Key(i)));
  EXPECT_EQ(tree.entry_count(), 0u);
  ExpectContents(&tree, {});
  // The tree is usable again after total erasure.
  XKS_ASSERT_OK(tree.Put("reborn", "yes"));
  ExpectContents(&tree, {{"reborn", "yes"}});
}

TEST_F(BPlusTreeMutTest, VariableLengthEntriesAndOversizeRejected) {
  BPlusTreeMut tree = MakeTree();
  std::map<std::string, std::string> expected;
  Rng rng(31);
  for (int i = 0; i < 300; ++i) {
    const std::string key(1 + rng.Uniform(80), static_cast<char>('a' + i % 26));
    const std::string value(rng.Uniform(200), 'v');
    XKS_ASSERT_OK(tree.Put(key, value));
    expected[key] = value;
  }
  ExpectContents(&tree, expected);
  EXPECT_TRUE(tree.Put("big", std::string(kPageSize, 'x')).IsInvalidArgument());
}

TEST_F(BPlusTreeMutTest, OpenBulkLoadedTreeAndMutate) {
  // Interoperability: bulk load with the builder, mutate here.
  std::map<std::string, std::string> expected;
  {
    BPlusTreeBuilder builder(&store_);
    for (int i = 0; i < 1000; i += 2) {
      XKS_ASSERT_OK(builder.Add(Key(i), Value(i)));
      expected[Key(i)] = Value(i);
    }
    XKS_ASSERT_OK(builder.Finish());
  }
  Result<BPlusTreeMut> tree = BPlusTreeMut::Open(&pool_);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->entry_count(), expected.size());
  // Fill in the odd keys and delete a band of even ones.
  for (int i = 1; i < 1000; i += 2) {
    XKS_ASSERT_OK(tree->Put(Key(i), Value(i)));
    expected[Key(i)] = Value(i);
  }
  for (int i = 100; i < 200; i += 2) {
    XKS_ASSERT_OK(tree->Delete(Key(i)));
    expected.erase(Key(i));
  }
  ExpectContents(&*tree, expected);
}

TEST_F(BPlusTreeMutTest, MetadataPersistsAcrossFlush) {
  BPlusTreeMut tree = MakeTree();
  tree.SetMetadata({9, 8, 7});
  XKS_ASSERT_OK(tree.Put("a", "b"));
  XKS_ASSERT_OK(tree.Flush());
  Result<BPlusTreeMut> reopened = BPlusTreeMut::Open(&pool_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->metadata(), (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_EQ(reopened->entry_count(), 1u);
}

TEST_F(BPlusTreeMutTest, FlushSurvivesPoolDrop) {
  BPlusTreeMut tree = MakeTree();
  for (int i = 0; i < 800; ++i) XKS_ASSERT_OK(tree.Put(Key(i), Value(i)));
  XKS_ASSERT_OK(tree.Flush());
  // Simulate a restart: drop every cached page, then read back.
  XKS_ASSERT_OK(pool_.DropAll());
  Result<BPlusTreeMut> reopened = BPlusTreeMut::Open(&pool_);
  ASSERT_TRUE(reopened.ok());
  Result<std::string> v = reopened->Get(Key(555));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value(555));
}

TEST_F(BPlusTreeMutTest, TinyPoolSpillsDirtyPages) {
  // A pool smaller than the working set forces dirty evictions mid-run.
  BufferPool tiny(&store_, 4);
  Result<BPlusTreeMut> tree = BPlusTreeMut::Create(&tiny);
  ASSERT_TRUE(tree.ok());
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 1500; ++i) {
    XKS_ASSERT_OK(tree->Put(Key(i), Value(i)));
    expected[Key(i)] = Value(i);
  }
  XKS_ASSERT_OK(tree->Flush());
  for (int i = 0; i < 1500; i += 101) {
    Result<std::string> v = tree->Get(Key(i));
    ASSERT_TRUE(v.ok()) << Key(i);
    EXPECT_EQ(*v, Value(i));
  }
}

// Applies one sorted batch to `tree` and mirrors it into `expected`.
Status ApplyBatch(BPlusTreeMut* tree,
                  const std::map<std::string, std::optional<std::string>>& batch,
                  std::map<std::string, std::string>* expected) {
  std::vector<BPlusTreeMut::Edit> edits;
  for (const auto& [key, value] : batch) {
    edits.push_back({key, value.value_or(""), !value.has_value()});
  }
  XKS_RETURN_NOT_OK(tree->Apply(edits));
  for (const auto& [key, value] : batch) {
    if (value.has_value()) {
      (*expected)[key] = *value;
    } else {
      expected->erase(key);
    }
  }
  return Status::OK();
}

void ExpectGets(const BPlusTreeMut& tree,
                const std::map<std::string, std::string>& expected) {
  EXPECT_EQ(tree.entry_count(), expected.size());
  for (const auto& [k, v] : expected) {
    Result<std::string> got = tree.Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, v);
  }
}

TEST_F(BPlusTreeMutTest, ApplySplitsOneLeafManyWays) {
  BPlusTreeMut tree = MakeTree();
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 2000; i += 2) {
    XKS_ASSERT_OK(tree.Put(Key(i), Value(i)));
    expected[Key(i)] = Value(i);
  }
  // 1500 keys that all sort between Key(1000) and Key(1002): one leaf's
  // range, several pages of entries.
  std::map<std::string, std::optional<std::string>> batch;
  for (int j = 0; j < 1500; ++j) {
    batch[Key(1000) + "x" + std::to_string(10000 + j)] = Value(j);
  }
  batch[Key(1000)] = "overwritten";
  const PageId pages_before = store_.page_count();
  XKS_ASSERT_OK(ApplyBatch(&tree, batch, &expected));
  // 1500 entries of ~30 bytes need at least ten new leaves.
  EXPECT_GE(store_.page_count() - pages_before, 10u);
  ExpectGets(tree, expected);
  ExpectContents(&tree, expected);
}

TEST_F(BPlusTreeMutTest, ApplyIntoEmptyTreeBuildsLevels) {
  BPlusTreeMut tree = MakeTree();
  std::map<std::string, std::string> expected;
  std::map<std::string, std::optional<std::string>> batch;
  for (int i = 0; i < 3000; ++i) batch[Key(i)] = Value(i);
  XKS_ASSERT_OK(ApplyBatch(&tree, batch, &expected));
  EXPECT_GT(tree.height(), 1u);
  ExpectGets(tree, expected);
  ExpectContents(&tree, expected);
}

TEST_F(BPlusTreeMutTest, ApplyRunEmptiesAdjacentLeaves) {
  BPlusTreeMut tree = MakeTree();
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 3000; ++i) {
    XKS_ASSERT_OK(tree.Put(Key(i), Value(i)));
    expected[Key(i)] = Value(i);
  }
  // Deleting a long middle run empties every leaf inside it; the leaves
  // at its edges keep a remainder, and one of them also gains a key.
  std::map<std::string, std::optional<std::string>> batch;
  for (int i = 700; i < 2300; ++i) batch[Key(i)] = std::nullopt;
  batch[Key(2300) + "new"] = "fresh";
  XKS_ASSERT_OK(ApplyBatch(&tree, batch, &expected));
  ExpectGets(tree, expected);
  ExpectContents(&tree, expected);
  // Then everything but the last key, and the first leaf's keys again.
  batch.clear();
  for (const auto& [k, v] : expected) batch[k] = std::nullopt;
  batch.erase(std::prev(batch.end()));
  for (int i = 0; i < 50; ++i) batch[Key(i)] = Value(i + 1);
  XKS_ASSERT_OK(ApplyBatch(&tree, batch, &expected));
  ExpectGets(tree, expected);
  ExpectContents(&tree, expected);
  // And the tree can be emptied completely by one batch.
  batch.clear();
  for (const auto& [k, v] : expected) batch[k] = std::nullopt;
  XKS_ASSERT_OK(ApplyBatch(&tree, batch, &expected));
  EXPECT_EQ(tree.entry_count(), 0u);
  ExpectContents(&tree, {});
}

TEST_F(BPlusTreeMutTest, ApplyMissingDeleteIsNotFoundAndChangesNothing) {
  BPlusTreeMut tree = MakeTree();
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 1000; i += 2) {
    XKS_ASSERT_OK(tree.Put(Key(i), Value(i)));
    expected[Key(i)] = Value(i);
  }
  // Valid edits on both sides of the missing key, in other leaves too.
  std::vector<BPlusTreeMut::Edit> edits = {
      {Key(1), "one", false},
      {Key(2), "", true},
      {Key(501), "", true},  // odd keys were never inserted
      {Key(998), "", true},
      {Key(999), "last", false}};
  EXPECT_TRUE(tree.Apply(edits).IsNotFound());
  ExpectGets(tree, expected);
  EXPECT_TRUE(tree.Get(Key(1)).status().IsNotFound());
  ExpectContents(&tree, expected);
  // Unsorted, duplicate and oversized batches are rejected up front too.
  EXPECT_TRUE(tree.Apply({{Key(3), "", false}, {Key(1), "", false}})
                  .IsInvalidArgument());
  EXPECT_TRUE(tree.Apply({{Key(3), "", false}, {Key(3), "", false}})
                  .IsInvalidArgument());
  EXPECT_TRUE(tree.Apply({{Key(1), "", false},
                          {Key(3), std::string(kPageSize, 'x'), false}})
                  .IsInvalidArgument());
  ExpectGets(tree, expected);
}

TEST_F(BPlusTreeMutTest, ApplyRandomBatchesMatchStdMap) {
  BPlusTreeMut tree = MakeTree();
  std::map<std::string, std::string> expected;
  Rng rng(41);
  for (int round = 0; round < 40; ++round) {
    // Mixed batches: scattered edits, plus now and then a dense run
    // that splits or empties whole leaves.
    std::map<std::string, std::optional<std::string>> batch;
    const int scattered = static_cast<int>(rng.Uniform(300));
    for (int e = 0; e < scattered; ++e) {
      const std::string key = Key(static_cast<int>(rng.Uniform(5000)));
      if (expected.count(key) > 0 && rng.Bernoulli(0.5)) {
        batch[key] = std::nullopt;
      } else {
        batch[key] = Value(round * 1000 + e);
      }
    }
    if (rng.Bernoulli(0.3)) {
      const int from = static_cast<int>(rng.Uniform(5000));
      const bool erase = rng.Bernoulli(0.5);
      for (int i = from; i < from + 600 && i < 5000; ++i) {
        if (erase && expected.count(Key(i)) > 0) {
          batch[Key(i)] = std::nullopt;
        } else if (!erase) {
          batch[Key(i)] = Value(i);
        }
      }
    }
    XKS_ASSERT_OK(ApplyBatch(&tree, batch, &expected));
    ExpectGets(tree, expected);
  }
  ExpectContents(&tree, expected);
}

TEST(BPlusTreeMutFileTest, PersistsAcrossProcessStyleReopen) {
  const std::string path = ::testing::TempDir() + "/bptree_mut_file.db";
  {
    Result<std::unique_ptr<FilePageStore>> store = FilePageStore::Create(path);
    ASSERT_TRUE(store.ok());
    BufferPool pool(store->get(), 64);
    Result<BPlusTreeMut> tree = BPlusTreeMut::Create(&pool);
    ASSERT_TRUE(tree.ok());
    for (int i = 0; i < 300; ++i) {
      XKS_ASSERT_OK(tree->Put(Key(i), Value(i)));
    }
    XKS_ASSERT_OK(tree->Flush());
  }
  {
    Result<std::unique_ptr<FilePageStore>> store = FilePageStore::Open(path);
    ASSERT_TRUE(store.ok());
    BufferPool pool(store->get(), 64);
    Result<BPlusTree> reader = BPlusTree::Open(&pool);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader->entry_count(), 300u);
    Result<std::string> v = reader->Get(Key(123));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, Value(123));
  }
  std::remove(path.c_str());
}

TEST(ParsedNodeTest, RoundTripThroughPage) {
  node_format::ParsedNode node;
  node.leaf = true;
  node.link_a = 42;
  node.link_b = 7;
  node.entries = {{"alpha", "1"}, {"beta", std::string(100, 'x')}, {"c", ""}};
  Page page;
  node.WriteTo(&page);
  Result<node_format::ParsedNode> back =
      node_format::ParsedNode::ReadFrom(page);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->leaf, node.leaf);
  EXPECT_EQ(back->link_a, node.link_a);
  EXPECT_EQ(back->link_b, node.link_b);
  EXPECT_EQ(back->entries, node.entries);
  EXPECT_EQ(back->SerializedSize(), node.SerializedSize());
}

TEST(ParsedNodeTest, InternalChildEncoding) {
  node_format::ParsedNode node;
  node.leaf = false;
  node.link_a = 10;
  node.entries = {{"m", node_format::ParsedNode::EncodeChild(11)},
                  {"t", node_format::ParsedNode::EncodeChild(12)}};
  EXPECT_EQ(node.ChildAt(0), 10u);
  EXPECT_EQ(node.ChildAt(1), 11u);
  EXPECT_EQ(node.ChildAt(2), 12u);
}

}  // namespace
}  // namespace xksearch
