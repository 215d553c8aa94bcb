#ifndef XKSEARCH_INDEX_INVERTED_INDEX_H_
#define XKSEARCH_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "dewey/codec.h"
#include "dewey/dewey_id.h"
#include "dewey/packed_list.h"
#include "index/tokenizer.h"
#include "xml/document.h"

namespace xksearch {

/// \brief Which document parts contribute keywords.
struct IndexOptions {
  TokenizerOptions tokenizer;
  /// Index element tag names (so "title" finds <title> elements).
  bool index_tags = true;
  /// Index attribute values, attributed to the owning element.
  bool index_attributes = true;
  /// Index attribute names as well as values.
  bool index_attribute_names = false;
};

/// \brief In-memory inverted keyword index: keyword -> sorted Dewey list.
///
/// This is the paper's set `S_i` machinery: for every keyword `w`, the
/// keyword list of `w` is the list of nodes whose label directly contains
/// `w`, sorted by id (Section 2). Text tokens are attributed to the text
/// node itself; tag and attribute keywords to the element node. Building
/// walks the document in preorder, so lists come out sorted for free.
///
/// Postings are stored as PackedDeweyLists — one contiguous
/// prefix-truncated arena per keyword with a skip table for block binary
/// search — rather than `std::vector<DeweyId>`, so neither index build
/// nor the lm/rm hot path pays a heap allocation per posting. Callers
/// that need owning ids (tests, oracles) use Materialize().
class InvertedIndex {
 public:
  InvertedIndex() = default;

  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;
  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;

  /// Builds the index over `doc`. Also derives the level table used by the
  /// Dewey compression codec (paper Figure 6's LevelTableBuilder).
  static InvertedIndex Build(const Document& doc,
                             const IndexOptions& options = {});

  /// The packed keyword list of `keyword` (already normalized), or
  /// nullptr if the keyword does not occur in the document.
  const PackedDeweyList* Find(std::string_view keyword) const;

  /// The keyword list decoded into owning ids (empty for unknown
  /// keywords). For oracles and tests; the query path probes the packed
  /// list directly.
  std::vector<DeweyId> Materialize(std::string_view keyword) const;

  /// List size, i.e. the keyword frequency; 0 for unknown keywords.
  /// This is the paper's frequency table, used to pick the smallest list.
  size_t Frequency(std::string_view keyword) const;

  /// Adds a (keyword, node id) posting directly; used by synthetic
  /// workload generators that plant keywords without document text.
  /// Postings for one keyword must be added in nondecreasing Dewey order.
  void AddPosting(std::string_view keyword, const DeweyId& id);

  /// Number of distinct keywords.
  size_t term_count() const { return lists_.size(); }

  /// Sum of all list sizes.
  size_t total_postings() const { return total_postings_; }

  /// All keywords, sorted lexicographically (materialized per call).
  std::vector<std::string> Terms() const;

  /// Level table derived from all observed node ids.
  const LevelTable& level_table() const { return level_table_; }

  /// The options the index was built with (tokenizer normalization in
  /// particular); queries must normalize keywords the same way.
  const IndexOptions& options() const { return options_; }

 private:
  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct TransparentEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  std::unordered_map<std::string, uint32_t, TransparentHash, TransparentEq>
      term_ids_;
  std::vector<PackedDeweyList> lists_;
  LevelTable level_table_;
  size_t total_postings_ = 0;
  IndexOptions options_;
};

}  // namespace xksearch

#endif  // XKSEARCH_INDEX_INVERTED_INDEX_H_
