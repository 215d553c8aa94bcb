#include "dewey/packed_list.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "slca/keyword_list.h"
#include "slca/packed_list.h"
#include "test_util.h"

// --- Counting allocator ---------------------------------------------------
//
// Every global allocation in this binary bumps a counter; the no-alloc
// tests snapshot it around the hot match path. Replacing the sized and
// array forms keeps new/delete internally consistent (all go through
// malloc/free).

namespace {
uint64_t g_alloc_count = 0;
}  // namespace

// GCC can see `free` paired with the replaced (to it, opaque) operator
// new and flags a mismatch; the pairing is fine — both sides go through
// malloc/free below.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow and aligned forms must be replaced too: leaving any form
// on the default (or sanitizer) allocator while delete goes to free()
// is an alloc/dealloc mismatch (std::stable_sort's temporary buffer
// goes through nothrow new, for one).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_alloc_count;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void* operator new(std::size_t size, std::align_val_t al) {
  ++g_alloc_count;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace xksearch {
namespace {

using testing_util::Id;
using testing_util::Ids;
using testing_util::Strings;

// Sorted, unique, non-empty random Dewey ids with controlled depth —
// sibling runs share long prefixes like real document orders do.
std::vector<DeweyId> RandomSortedIds(Rng* rng, size_t count,
                                     uint32_t max_depth) {
  std::vector<DeweyId> ids;
  ids.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t depth = 1 + rng->Uniform(max_depth);
    std::vector<uint32_t> comps;
    for (size_t d = 0; d < depth; ++d) {
      comps.push_back(static_cast<uint32_t>(rng->Uniform(6)));
    }
    ids.push_back(DeweyId(std::move(comps)));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

PackedDeweyList Pack(const std::vector<DeweyId>& ids, size_t block_size) {
  PackedDeweyList list(block_size);
  for (const DeweyId& id : ids) EXPECT_TRUE(list.Append(id));
  return list;
}

TEST(PackedDeweyListTest, RoundTripAcrossBlockSizesAndShapes) {
  Rng rng(42);
  for (size_t block_size : {1u, 2u, 3u, 7u, 32u, 1000u}) {
    for (size_t target : {0u, 1u, 2u, 31u, 32u, 33u, 257u}) {
      const std::vector<DeweyId> ids =
          RandomSortedIds(&rng, target, /*max_depth=*/9);
      const PackedDeweyList list = Pack(ids, block_size);
      EXPECT_EQ(list.size(), ids.size());
      EXPECT_EQ(list.block_count(),
                (ids.size() + block_size - 1) / block_size);
      EXPECT_EQ(Strings(list.Materialize()), Strings(ids))
          << "block_size=" << block_size << " n=" << target;

      // The streaming decoder agrees entry by entry, as views.
      PackedDeweyList::Decoder decoder(&list);
      DeweyView view;
      size_t i = 0;
      while (decoder.NextView(&view)) {
        ASSERT_LT(i, ids.size());
        EXPECT_EQ(DeweyId::FromView(view), ids[i]) << "entry " << i;
        ++i;
      }
      EXPECT_EQ(i, ids.size());
    }
  }
}

TEST(PackedDeweyListTest, AppendDeduplicatesConsecutive) {
  PackedDeweyList list;
  EXPECT_TRUE(list.Append(Id("0.1")));
  EXPECT_FALSE(list.Append(Id("0.1")));
  EXPECT_TRUE(list.Append(Id("0.1.0")));
  EXPECT_FALSE(list.Append(Id("0.1.0")));
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(Strings(list.Materialize()),
            (std::vector<std::string>{"0.1", "0.1.0"}));
}

TEST(PackedDeweyListTest, PackedIsSmallerThanVectors) {
  // The acceptance gate in miniature: on a deep sibling-heavy list the
  // prefix-truncated arena (plus its skip structures) must undercut a
  // std::vector<DeweyId> by well over 2x. That baseline is the id objects
  // themselves plus one heap block for each id too deep to keep its
  // components inline.
  Rng rng(7);
  const std::vector<DeweyId> ids = RandomSortedIds(&rng, 20000, 8);
  const PackedDeweyList list = Pack(ids, PackedDeweyList::kDefaultBlockSize);
  size_t vector_bytes = ids.size() * sizeof(DeweyId);
  for (const DeweyId& id : ids) {
    if (id.depth() > DeweyId::kInlineCapacity) {
      vector_bytes += id.depth() * sizeof(uint32_t);
    }
  }
  EXPECT_LT(list.memory_bytes() * 2, vector_bytes)
      << "packed=" << list.memory_bytes() << " vector=" << vector_bytes;
}

// lm/rm through the PackedKeywordList adapter must agree with the
// classic VectorKeywordList over the same postings: 200+ seeded random
// collections, probing with present ids, absent ids, and boundary
// probes, in both hinted and cold mode.
TEST(PackedKeywordListTest, MatchesVectorListOn200Collections) {
  constexpr int kCollections = 220;
  for (int c = 0; c < kCollections; ++c) {
    Rng rng(40'000 + c);
    const size_t n = 1 + rng.Uniform(400);
    const std::vector<DeweyId> ids =
        RandomSortedIds(&rng, n, 2 + static_cast<uint32_t>(rng.Uniform(8)));
    const size_t block_size = 1 + rng.Uniform(64);
    const PackedDeweyList packed = Pack(ids, block_size);

    for (bool hinted : {true, false}) {
      QueryStats packed_stats, vector_stats;
      PackedKeywordList plist(&packed, &packed_stats, hinted);
      VectorKeywordList vlist(&ids, &vector_stats);

      // Nondecreasing probe sequence with occasional regressions, the
      // shape the eager algorithms generate — plus pure random probes.
      std::vector<DeweyId> probes;
      for (int p = 0; p < 64; ++p) {
        if (rng.Bernoulli(0.5) && !ids.empty()) {
          probes.push_back(ids[rng.Uniform(ids.size())]);
        } else {
          std::vector<uint32_t> comps;
          const size_t depth = 1 + rng.Uniform(9);
          for (size_t d = 0; d < depth; ++d) {
            comps.push_back(static_cast<uint32_t>(rng.Uniform(7)));
          }
          probes.push_back(DeweyId(std::move(comps)));
        }
      }
      std::sort(probes.begin(), probes.end());
      for (int p = 0; p < 16; ++p) {  // regressions exercise the fallback
        probes.push_back(probes[rng.Uniform(probes.size())]);
      }
      probes.push_back(DeweyId({0}));
      probes.push_back(DeweyId({1000000}));

      for (const DeweyId& probe : probes) {
        DeweyId got, want;
        Result<bool> pr = plist.RightMatch(probe, &got);
        Result<bool> vr = vlist.RightMatch(probe, &want);
        ASSERT_TRUE(pr.ok() && vr.ok());
        ASSERT_EQ(*pr, *vr) << "rm(" << probe.ToString() << ") c=" << c;
        if (*pr) {
          ASSERT_EQ(got, want) << "rm(" << probe.ToString() << ")";
        }

        Result<bool> pl = plist.LeftMatch(probe, &got);
        Result<bool> vl = vlist.LeftMatch(probe, &want);
        ASSERT_TRUE(pl.ok() && vl.ok());
        ASSERT_EQ(*pl, *vl) << "lm(" << probe.ToString() << ") c=" << c;
        if (*pl) {
          ASSERT_EQ(got, want) << "lm(" << probe.ToString() << ")";
        }
      }
      EXPECT_GT(packed_stats.dewey_comparisons.load(), 0u);
      EXPECT_GT(vector_stats.dewey_comparisons.load(), 0u);
    }
  }
}

// The gallop hint is an optimization, never a semantic: a hinted probe
// fed any target sequence must return exactly what a cold probe returns,
// including the seek-result flags and both views.
TEST(PackedDeweyListTest, HintedSeekEqualsColdSeek) {
  for (int c = 0; c < 60; ++c) {
    Rng rng(90'000 + c);
    const std::vector<DeweyId> ids =
        RandomSortedIds(&rng, 1 + rng.Uniform(600), 8);
    const PackedDeweyList list = Pack(ids, 1 + rng.Uniform(48));

    PackedDeweyList::Probe hinted_probe;
    for (int p = 0; p < 256; ++p) {
      std::vector<uint32_t> comps;
      const size_t depth = 1 + rng.Uniform(9);
      for (size_t d = 0; d < depth; ++d) {
        comps.push_back(static_cast<uint32_t>(rng.Uniform(6)));
      }
      const DeweyId target(std::move(comps));

      PackedDeweyList::Probe cold_probe;  // fresh: no hint to use
      const PackedDeweyList::SeekResult hot =
          list.Seek(target.view(), /*hinted=*/true, &hinted_probe);
      const PackedDeweyList::SeekResult cold =
          list.Seek(target.view(), /*hinted=*/false, &cold_probe);

      ASSERT_EQ(hot.has_lower_bound, cold.has_lower_bound)
          << "target=" << target.ToString() << " c=" << c;
      ASSERT_EQ(hot.exact, cold.exact) << "target=" << target.ToString();
      if (hot.has_lower_bound) {
        ASSERT_EQ(DeweyId::FromView(list.lower_bound(hinted_probe)),
                  DeweyId::FromView(list.lower_bound(cold_probe)))
            << "target=" << target.ToString();
      }
      if (!hot.exact) {
        ASSERT_EQ(hot.has_predecessor, cold.has_predecessor)
            << "target=" << target.ToString();
        if (hot.has_predecessor) {
          ASSERT_EQ(DeweyId::FromView(list.predecessor(hinted_probe)),
                    DeweyId::FromView(list.predecessor(cold_probe)))
              << "target=" << target.ToString();
        }
      }
    }
  }
}

TEST(DeweyViewTest, FromViewAndPrefixRoundTrip) {
  const DeweyId id = Id("0.3.1.4.1");
  EXPECT_EQ(DeweyId::FromView(id.view()), id);
  EXPECT_EQ(DeweyId::FromView(id.view().Prefix(2)), Id("0.3"));
  EXPECT_EQ(id.view().CommonPrefixLength(Id("0.3.2").view()), 2u);
  EXPECT_EQ(id.view().Compare(Id("0.3.1.4.1").view()), 0);
  EXPECT_LT(id.view().Compare(Id("0.3.2").view()), 0);
  EXPECT_GT(id.view().Compare(Id("0.3.1").view()), 0);
  EXPECT_TRUE(Id("0.3").view().IsAncestorOrSelf(id.view()));
  EXPECT_FALSE(id.view().IsAncestorOrSelf(Id("0.3").view()));
}

// The whole point of the packed layout: steady-state match operations
// allocate nothing. Warm one full ascending pass (growing the probe's
// scratch to the list's maximum depth), then assert the global
// allocation counter does not move across a second pass — views, Seek,
// Compare and CommonPrefixLength included.
TEST(PackedDeweyListTest, SteadyStateSeekDoesNotAllocate) {
  Rng rng(271828);
  const std::vector<DeweyId> ids = RandomSortedIds(&rng, 3000, 10);
  const PackedDeweyList list = Pack(ids, PackedDeweyList::kDefaultBlockSize);

  PackedDeweyList::Probe probe;
  for (const DeweyId& id : ids) {
    (void)list.Seek(id.view(), /*hinted=*/true, &probe);
  }

  uint64_t cmp = 0;
  const uint64_t before = g_alloc_count;
  size_t exact_hits = 0;
  int parity = 0;
  for (const DeweyId& id : ids) {
    const PackedDeweyList::SeekResult r =
        list.Seek(id.view(), /*hinted=*/true, &probe, &cmp);
    exact_hits += r.exact ? 1 : 0;
    const DeweyView lb = list.lower_bound(probe);
    parity += lb.Compare(id.view());
    parity += static_cast<int>(lb.CommonPrefixLength(id.view()));
  }
  const uint64_t after = g_alloc_count;
  EXPECT_EQ(after, before) << "hot match path allocated";
  EXPECT_EQ(exact_hits, ids.size());
  EXPECT_GT(cmp, 0u);
  EXPECT_GT(parity, 0);  // keeps the loop observable
}

}  // namespace
}  // namespace xksearch
