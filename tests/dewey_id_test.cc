#include "dewey/dewey_id.h"

#include <algorithm>

#include "gtest/gtest.h"
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

}  // namespace
}  // namespace xksearch
