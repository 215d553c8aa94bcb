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

/// \brief The XKSearch engine over the disk index: answers queries from
/// the B+tree without the source document.
///
/// The original XKSearch server keeps only the B-tree files and the
/// in-memory frequency table between sessions; re-parsing the XML is not
/// needed to answer queries (only to render result subtrees). This class
/// is that mode: it searches the `<prefix>.scan` tree (posting blocks,
/// which answer both the lm/rm probes and the sequential scans) through
/// the `<prefix>.dict` dictionary, written by Build or by an earlier
/// session. Its execution body is XKSearch's; only the lists differ.
class DiskSearcher {
 public:
  /// Writes the disk index of `engine`'s inverted index under
  /// `path_prefix` (ignored when `options.in_memory`, where the pages
  /// stay in memory) and returns a searcher that owns it. With
  /// `persist_document`, the document is also written to
  /// `<path_prefix>.xml`, so searchers that Open the files render
  /// snippets; that needs a file-backed index and is rejected before any
  /// work otherwise.
  static Result<std::unique_ptr<DiskSearcher>> Build(
      const XKSearch& engine, const std::string& path_prefix,
      const DiskIndexOptions& options = {}, bool persist_document = false);

  /// Opens the index files at `path_prefix`. Query keywords are
  /// normalized with the tokenizer options persisted in the index
  /// metadata, so they match however the index was built. When a
  /// `<prefix>.wal` from a crashed updater is present, the committed
  /// batch is replayed before anything is read, so the searcher always
  /// opens a whole batch boundary — exactly the pre-crash or post-crash
  /// index, never a hybrid.
  static Result<std::unique_ptr<DiskSearcher>> Open(
      const std::string& path_prefix, const DiskIndexOptions& options = {});

  DiskSearcher(const DiskSearcher&) = delete;
  DiskSearcher& operator=(const DiskSearcher&) = delete;

  /// Same semantics as XKSearch::Search, against the disk index; "disk
  /// accesses" appear in the returned stats. Safe to call from multiple
  /// threads, and queries run fully in parallel: the underlying buffer
  /// pools are sharded and thread-safe, and each query tallies disk
  /// accesses into its own result stats. DiskIndexUpdater mutation must
  /// not run concurrently with queries.
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
  const TokenizerOptions& tokenizer() const { return index_->tokenizer(); }

  /// Renders the answer subtree at `id` when Open loaded a persisted
  /// document (`<prefix>.xml`, written by Build with persist_document);
  /// NotSupported otherwise.
  Result<std::string> Snippet(const DeweyId& id, size_t max_bytes = 0) const;

  /// True iff the persisted document was found and loaded at Open.
  bool has_document() const { return document_.has_value(); }

  DiskIndex* index() const { return index_.get(); }

 private:
  explicit DiskSearcher(std::unique_ptr<DiskIndex> index)
      : index_(std::move(index)) {}

  std::unique_ptr<DiskIndex> index_;
  std::optional<Document> document_;
};

}  // namespace xksearch

#endif  // XKSEARCH_ENGINE_DISK_SEARCHER_H_
