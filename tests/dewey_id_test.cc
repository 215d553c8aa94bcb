#include "dewey/dewey_id.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dewey/decode_kernels.h"
#include "engine/search_types.h"
#include "gtest/gtest.h"
#include "serve/query_cache.h"
#include "test_util.h"

namespace xksearch {
namespace {

using testing_util::Id;
using testing_util::Ids;

TEST(DeweyIdTest, ParseRoundTrip) {
  for (const std::string& text :
       {std::string("0"), std::string("0.1.2"), std::string("12.345.6789")}) {
    Result<DeweyId> parsed = DeweyId::Parse(text);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->ToString(), text);
  }
}

TEST(DeweyIdTest, ParseEmptyIsSuperRoot) {
  Result<DeweyId> parsed = DeweyId::Parse("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
  EXPECT_EQ(parsed->ToString(), "");
}

TEST(DeweyIdTest, ParseRejectsMalformed) {
  EXPECT_TRUE(DeweyId::Parse(".1").status().IsInvalidArgument());
  EXPECT_TRUE(DeweyId::Parse("1.").status().IsInvalidArgument());
  EXPECT_TRUE(DeweyId::Parse("1..2").status().IsInvalidArgument());
  EXPECT_TRUE(DeweyId::Parse("a.b").status().IsInvalidArgument());
  EXPECT_TRUE(DeweyId::Parse("1,2").status().IsInvalidArgument());
  EXPECT_TRUE(DeweyId::Parse("99999999999").status().IsInvalidArgument());
}

TEST(DeweyIdTest, DocumentOrderComparison) {
  // The paper's example ordering: 0.1 < 0.1.0 < 0.1.1 < 0.2.
  EXPECT_LT(Id("0.1"), Id("0.1.0"));
  EXPECT_LT(Id("0.1.0"), Id("0.1.1"));
  EXPECT_LT(Id("0.1.1"), Id("0.2"));
  EXPECT_EQ(Id("0.1.2").Compare(Id("0.1.2")), 0);
  EXPECT_GT(Id("0.10"), Id("0.9"));  // numeric, not lexicographic
}

TEST(DeweyIdTest, ComparisonCountsComponentWork) {
  uint64_t count = 0;
  Id("0.1.2.3").Compare(Id("0.1.9"), &count);
  // Two equal components, one differing.
  EXPECT_EQ(count, 3u);
  count = 0;
  Id("0.1").Compare(Id("0.1"), &count);
  EXPECT_EQ(count, 3u);  // both components plus the length tiebreak
}

TEST(DeweyIdTest, AncestorRelations) {
  EXPECT_TRUE(Id("0").IsAncestorOf(Id("0.1.2")));
  EXPECT_TRUE(Id("0.1").IsAncestorOf(Id("0.1.2")));
  EXPECT_FALSE(Id("0.1.2").IsAncestorOf(Id("0.1.2")));
  EXPECT_TRUE(Id("0.1.2").IsAncestorOrSelf(Id("0.1.2")));
  EXPECT_FALSE(Id("0.2").IsAncestorOf(Id("0.1.2")));
  EXPECT_FALSE(Id("0.1.2").IsAncestorOf(Id("0.1")));
  // The empty super-root is an ancestor of everything.
  EXPECT_TRUE(DeweyId().IsAncestorOf(Id("0")));
}

TEST(DeweyIdTest, LcaIsLongestCommonPrefix) {
  // Paper Section 2: lca(0.0.1.0, 0.0.3) has Dewey number 0.0.
  EXPECT_EQ(Id("0.0.1.0").Lca(Id("0.0.3")), Id("0.0"));
  EXPECT_EQ(Id("0.1.2").Lca(Id("0.1.2")), Id("0.1.2"));
  EXPECT_EQ(Id("0.1").Lca(Id("0.1.5")), Id("0.1"));
  EXPECT_EQ(Id("0.1").Lca(Id("1.1")), DeweyId());
  EXPECT_TRUE(Id("0.3").Lca(DeweyId()).empty());
}

TEST(DeweyIdTest, LcaIsCommutativeAndIdempotent) {
  const auto ids = Ids({"0", "0.1", "0.1.2", "0.2.1", "0.1.2.3"});
  for (const DeweyId& a : ids) {
    EXPECT_EQ(a.Lca(a), a);
    for (const DeweyId& b : ids) {
      EXPECT_EQ(a.Lca(b), b.Lca(a));
      EXPECT_TRUE(a.Lca(b).IsAncestorOrSelf(a));
      EXPECT_TRUE(a.Lca(b).IsAncestorOrSelf(b));
    }
  }
}

TEST(DeweyIdTest, ParentChildSibling) {
  EXPECT_EQ(Id("0.1.2").Parent(), Id("0.1"));
  EXPECT_EQ(Id("0").Parent(), DeweyId());
  EXPECT_EQ(DeweyId().Parent(), DeweyId());
  EXPECT_EQ(Id("0.1").Child(4), Id("0.1.4"));
  EXPECT_EQ(DeweyId().Child(0), Id("0"));
  // The "uncle" construction of Section 5.
  EXPECT_EQ(Id("0.1.2").NextSibling(), Id("0.1.3"));
}

TEST(DeweyIdTest, PrefixTruncates) {
  EXPECT_EQ(Id("0.1.2.3").Prefix(2), Id("0.1"));
  EXPECT_EQ(Id("0.1.2.3").Prefix(0), DeweyId());
  EXPECT_EQ(Id("0.1").Prefix(2), Id("0.1"));
}

TEST(DeweyIdTest, CommonPrefixLength) {
  EXPECT_EQ(Id("0.1.2").CommonPrefixLength(Id("0.1.5")), 2u);
  EXPECT_EQ(Id("0.1").CommonPrefixLength(Id("0.1.5")), 2u);
  EXPECT_EQ(Id("1.1").CommonPrefixLength(Id("0.1")), 0u);
}

TEST(DeweyIdTest, TruncateKeepsPrefixAndCapacity) {
  DeweyId x = Id("0.1.2.3");
  const uint32_t* data = x.view().data();
  x.Truncate(4);
  EXPECT_EQ(x, Id("0.1.2.3"));
  x.Truncate(2);
  EXPECT_EQ(x, Id("0.1"));
  x.Truncate(0);
  EXPECT_EQ(x, DeweyId());
  // Growing back within the old depth reuses the same buffer.
  x.AssignFrom(Id("0.7.7").view());
  x.Append(9);
  EXPECT_EQ(x, Id("0.7.7.9"));
  EXPECT_EQ(x.view().data(), data);
}

TEST(DeweyIdTest, SortOrderMatchesPreorder) {
  auto ids = Ids({"0.2", "0", "0.1.1", "0.1", "0.10", "0.1.0", "0.2.0.0"});
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(testing_util::Strings(ids),
            (std::vector<std::string>{"0", "0.1", "0.1.0", "0.1.1", "0.2",
                                      "0.2.0.0", "0.10"}));
}

TEST(DeweyIdTest, HashEqualIdsCollide) {
  DeweyId::Hash hash;
  EXPECT_EQ(hash(Id("0.1.2")), hash(Id("0.1.2")));
  // Different ids should (almost surely) differ.
  EXPECT_NE(hash(Id("0.1.2")), hash(Id("0.2.1")));
}

// --- Inline and heap storage ------------------------------------------

constexpr size_t kInline = DeweyId::kInlineCapacity;

// An id of `depth` components 0, 1, 2, ...
DeweyId OfDepth(size_t depth) {
  DeweyId id;
  for (size_t i = 0; i < depth; ++i) id.Append(static_cast<uint32_t>(i));
  return id;
}

// True when the id's components live inside the object itself.
bool HeldInline(const DeweyId& id) {
  const auto begin = reinterpret_cast<std::uintptr_t>(&id);
  const auto data = reinterpret_cast<std::uintptr_t>(id.view().data());
  return data >= begin && data < begin + sizeof(DeweyId);
}

// Depths on both sides of the inline capacity, the empty id included.
const std::vector<size_t> kDepths = {0, 1, kInline - 1, kInline, kInline + 1,
                                     3 * kInline};

TEST(DeweyIdTest, ShallowIdsAreInlineAndDeepIdsAreNot) {
  EXPECT_TRUE(HeldInline(OfDepth(kInline)));
  EXPECT_FALSE(HeldInline(OfDepth(kInline + 1)));
  EXPECT_TRUE(HeldInline(DeweyId::FromView(OfDepth(kInline + 1).view()
                                               .Prefix(kInline))));
}

TEST(DeweyIdTest, CopyAndMoveAcrossInlineAndHeap) {
  for (size_t from : kDepths) {
    const DeweyId source = OfDepth(from);
    // Construction.
    DeweyId copied(source);
    EXPECT_EQ(copied, source);
    EXPECT_EQ(HeldInline(copied), from <= kInline);
    DeweyId moved_from = source;
    DeweyId moved(std::move(moved_from));
    EXPECT_EQ(moved, source);
    EXPECT_TRUE(moved_from.empty());  // NOLINT(bugprone-use-after-move)
    // Assignment onto every depth, inline to heap and heap to inline.
    for (size_t to : kDepths) {
      DeweyId target = OfDepth(to);
      if (to > 0) target.set_component(0, 77);
      target = source;
      EXPECT_EQ(target, source) << from << " onto " << to;
      DeweyId donor = source;
      DeweyId moved_onto = OfDepth(to);
      moved_onto = std::move(donor);
      EXPECT_EQ(moved_onto, source) << from << " onto " << to;
      EXPECT_TRUE(donor.empty());  // NOLINT(bugprone-use-after-move)
      // A moved-from id is usable again.
      donor = OfDepth(to);
      EXPECT_EQ(donor, OfDepth(to));
    }
  }
}

TEST(DeweyIdTest, SelfCopyAndSelfMoveKeepTheValue) {
  for (size_t depth : kDepths) {
    DeweyId id = OfDepth(depth);
    DeweyId& alias = id;
    id = alias;
    EXPECT_EQ(id, OfDepth(depth));
    id = std::move(alias);
    EXPECT_EQ(id, OfDepth(depth));
  }
}

TEST(DeweyIdTest, TruncateThenAppendRegrowsPastInline) {
  DeweyId id = OfDepth(2);
  for (size_t i = 2; i < 2 * kInline + 1; ++i) {
    id.Append(static_cast<uint32_t>(i));
    EXPECT_EQ(id, OfDepth(i + 1));
  }
  id.Truncate(1);
  EXPECT_EQ(id, OfDepth(1));
  for (size_t i = 1; i < 4 * kInline; ++i) id.Append(static_cast<uint32_t>(i));
  EXPECT_EQ(id, OfDepth(4 * kInline));
  EXPECT_EQ(id.ToString(), OfDepth(4 * kInline).ToString());
}

TEST(DeweyIdTest, AssignFromAPrefixOfItsOwnView) {
  for (size_t depth : kDepths) {
    for (size_t n = 0; n <= depth; ++n) {
      DeweyId id = OfDepth(depth);
      id.AssignFrom(id.view().Prefix(n));
      EXPECT_EQ(id, OfDepth(n)) << depth << " -> " << n;
    }
  }
}

TEST(DeweyIdTest, EqualityHashAndCompareIgnoreTheRepresentation) {
  const DeweyId::Hash hash;
  for (size_t depth : kDepths) {
    // `held` keeps the heap block of a deeper id; `inline_id` was built
    // at its own depth.
    DeweyId held = OfDepth(3 * kInline + 1);
    held.Truncate(depth);
    const DeweyId inline_id = OfDepth(depth);
    ASSERT_FALSE(HeldInline(held));
    EXPECT_EQ(held, inline_id);
    EXPECT_EQ(hash(held), hash(inline_id));
    uint64_t held_count = 0;
    uint64_t inline_count = 0;
    EXPECT_EQ(held.Compare(inline_id, &held_count), 0);
    EXPECT_EQ(inline_id.Compare(held, &inline_count), 0);
    EXPECT_EQ(held_count, depth + 1);
    EXPECT_EQ(inline_count, depth + 1);
    if (depth > 0) {
      EXPECT_LT(held.Parent(), inline_id);
      EXPECT_EQ(held.NextSibling(), inline_id.NextSibling());
      EXPECT_EQ(held.Child(5), inline_id.Child(5));
    }
  }
}

TEST(DeweyIdTest, MaximumDepthRoundTripsThroughTheResultCache) {
  constexpr size_t kDepth = kMaxComponentsPerEntry;
  DeweyId deep;
  for (size_t i = 0; i < kDepth; ++i) {
    deep.Append(static_cast<uint32_t>(i * 2654435761u));
  }
  SearchResult answer;
  answer.algorithm = SlcaAlgorithm::kScanEager;
  answer.keywords = {"deep"};
  answer.nodes = {Id("0.1"), deep, deep.NextSibling()};

  serve::QueryCache::Options options;
  options.shards = 1;
  options.capacity_bytes = 16u << 20;
  serve::QueryCache cache(options);
  const serve::QueryCacheKey key({"deep"}, SearchOptions());
  cache.Insert(key, answer);
  ASSERT_EQ(cache.GetStats().entries, 1u);
  const std::optional<SearchResult> hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->nodes.size(), 3u);
  EXPECT_EQ(hit->nodes[1].depth(), kDepth);
  EXPECT_EQ(hit->nodes, answer.nodes);
}

}  // namespace
}  // namespace xksearch
