#ifndef XKSEARCH_ENGINE_DISK_SEARCHER_H_
#define XKSEARCH_ENGINE_DISK_SEARCHER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/xksearch.h"
#include "storage/disk_index.h"

namespace xksearch {

/// \brief Queries a persisted XKSearch index without the source document.
///
/// The original XKSearch server keeps only the B-tree files and the
/// in-memory frequency table between sessions; re-parsing the XML is not
/// needed to answer queries (only to render result subtrees). This class
/// is that mode: open the `<prefix>.scan` tree (posting blocks, which
/// answer both the lm/rm probes and the sequential scans) and the
/// `<prefix>.dict` dictionary produced by a previous
/// `XKSearch::BuildFromDocument(..., build_disk_index=true)` run and
/// search them directly.
class DiskSearcher {
 public:
  /// Opens the index files at `path_prefix`. Query keywords are
  /// normalized with the tokenizer options persisted in the index
  /// metadata, so they match however the index was built. When a
  /// `<prefix>.wal` from a crashed updater is present, the committed
  /// batch is replayed before anything is read, so the searcher always
  /// opens a whole batch boundary — exactly the pre-crash or post-crash
  /// index, never a hybrid.
  static Result<std::unique_ptr<DiskSearcher>> Open(
      const std::string& path_prefix, const DiskIndexOptions& options = {});

  /// Wraps an already-open DiskIndex (not owned).
  DiskSearcher(DiskIndex* index, const TokenizerOptions& tokenizer)
      : index_(index), tokenizer_(tokenizer) {}

  DiskSearcher(const DiskSearcher&) = delete;
  DiskSearcher& operator=(const DiskSearcher&) = delete;

  /// Same semantics as XKSearch::Search, always against the disk index.
  /// `options.use_disk_index` is implied; snippets are unavailable here.
  /// Safe to call from multiple threads, and queries run fully in
  /// parallel: the underlying buffer pools are sharded and thread-safe,
  /// and each query tallies disk accesses into its own result stats.
  Result<SearchResult> Search(const std::vector<std::string>& keywords,
                              const SearchOptions& options = {},
                              const ParallelExecOptions& exec = {}) const;

  /// Streaming variant.
  Result<SearchResult> SearchStreaming(
      const std::vector<std::string>& keywords, const SearchOptions& options,
      const ResultCallback& emit, const ParallelExecOptions& exec = {}) const;

  uint64_t Frequency(std::string_view keyword) const;

  /// Tokenizer options the index was built with, for callers that
  /// pre-normalize keywords (e.g. the serving layer's cache keys).
  const TokenizerOptions& tokenizer() const { return tokenizer_; }

  /// Renders the answer subtree at `id` when the index was built with
  /// persist_document (a `<prefix>.xml` next to the index files);
  /// NotSupported otherwise.
  Result<std::string> Snippet(const DeweyId& id, size_t max_bytes = 0) const;

  /// True iff the persisted document was found and loaded at Open.
  bool has_document() const { return document_.has_value(); }

  DiskIndex* index() const { return index_; }

 private:
  std::unique_ptr<DiskIndex> owned_index_;
  DiskIndex* index_;
  TokenizerOptions tokenizer_;
  std::optional<Document> document_;
};

}  // namespace xksearch

#endif  // XKSEARCH_ENGINE_DISK_SEARCHER_H_
