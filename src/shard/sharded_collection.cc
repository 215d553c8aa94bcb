#include "shard/sharded_collection.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "index/tokenizer.h"
#include "xml/parser.h"

namespace xksearch {
namespace shard {

std::vector<uint32_t> BalancedPartition(const std::vector<uint64_t>& weights,
                                        size_t shards) {
  std::vector<uint32_t> assignment(weights.size(), 0);
  if (shards <= 1 || weights.empty()) return assignment;
  // Longest-processing-time greedy: place items heaviest first onto the
  // lightest shard. Ties break toward the lower index (stable sort, then
  // linear min scan), so the partition is deterministic.
  std::vector<uint32_t> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return weights[a] > weights[b];
  });
  std::vector<uint64_t> load(shards, 0);
  for (const uint32_t item : order) {
    uint32_t lightest = 0;
    for (uint32_t s = 1; s < shards; ++s) {
      if (load[s] < load[lightest]) lightest = s;
    }
    assignment[item] = lightest;
    load[lightest] += weights[item];
  }
  return assignment;
}

size_t ShardedResult::executed_shards() const {
  size_t n = 0;
  for (const ShardQueryStats& s : shards) {
    if (!s.pruned) ++n;
  }
  return n;
}

size_t ShardedResult::pruned_shards() const {
  return shards.size() - executed_shards();
}

Status ShardedCollection::Builder::Add(std::string name, Document doc) {
  if (doc.empty()) {
    return Status::InvalidArgument("document '" + name + "' is empty");
  }
  for (const std::string& existing : names_) {
    if (existing == name) {
      return Status::InvalidArgument("document '" + name +
                                     "' already in collection");
    }
  }
  names_.push_back(std::move(name));
  docs_.push_back(std::move(doc));
  return Status::OK();
}

Status ShardedCollection::Builder::AddXml(std::string name,
                                          std::string_view xml) {
  Result<Document> doc = ParseXml(xml);
  if (!doc.ok()) return doc.status();
  return Add(std::move(name), doc.MoveValueUnsafe());
}

Result<std::unique_ptr<ShardedCollection>>
ShardedCollection::Builder::Build() && {
  if (options_.shards == 0) {
    return Status::InvalidArgument("shard count must be at least 1");
  }
  auto collection =
      std::unique_ptr<ShardedCollection>(new ShardedCollection());
  collection->doc_names_ = std::move(names_);
  collection->shards_.resize(options_.shards);
  collection->counters_ =
      std::vector<Counters>(options_.shards);
  collection->doc_location_.resize(docs_.size());

  std::vector<uint64_t> weights;
  weights.reserve(docs_.size());
  for (const Document& doc : docs_) {
    weights.push_back(doc.node_count());
  }
  const std::vector<uint32_t> assignment =
      BalancedPartition(weights, options_.shards);
  // Iterating documents in global-id order keeps each shard's doc list
  // ascending, which makes the shard-local -> collection re-basing
  // monotone (per-shard result streams stay sorted).
  for (uint32_t d = 0; d < docs_.size(); ++d) {
    Shard& shard = collection->shards_[assignment[d]];
    collection->doc_location_[d] = {assignment[d],
                                    static_cast<uint32_t>(shard.docs.size())};
    shard.docs.push_back(d);
  }

  std::vector<std::vector<std::string>> shard_terms(options_.shards);
  for (uint32_t s = 0; s < collection->shards_.size(); ++s) {
    Shard& shard = collection->shards_[s];
    if (shard.docs.empty()) continue;
    // Splice the shard's documents under a synthetic root. The tag "_"
    // has no alphanumeric characters, so it tokenizes to nothing and is
    // never indexed regardless of IndexOptions::index_tags. The merged
    // arrays are sized for all of them first, and each document is freed
    // once spliced, so the build holds every document once and never
    // regrows the merged tree.
    Document merged;
    const NodeId root = merged.CreateRoot("_");
    size_t nodes = 0, texts = 0, text_bytes = 0;
    for (const uint32_t d : shard.docs) {
      nodes += docs_[d].node_count();
      texts += docs_[d].text_count();
      text_bytes += docs_[d].text_bytes();
    }
    merged.Reserve(nodes, texts, text_bytes);
    for (const uint32_t d : shard.docs) {
      merged.AppendDocument(root, docs_[d]);
      docs_[d] = Document();
    }
    XKS_ASSIGN_OR_RETURN(
        shard.engine,
        XKSearch::BuildFromDocument(std::move(merged), options_.build));
    shard_terms[s] = shard.engine->index().Terms();
    if (!options_.disk.has_value()) continue;
    DiskIndexOptions disk = *options_.disk;
    if (options_.store_decorator) {
      disk.store_decorator =
          [decorator = options_.store_decorator, s](
              std::unique_ptr<PageStore> store,
              std::string_view name) { return decorator(std::move(store), s, name); };
    }
    const std::string prefix =
        options_.disk_path_prefix.empty()
            ? std::string()
            : options_.disk_path_prefix + ".s" + std::to_string(s);
    XKS_ASSIGN_OR_RETURN(shard.disk,
                         DiskSearcher::Build(*shard.engine, prefix, disk));
  }

  for (const Shard& shard : collection->shards_) {
    if (shard.engine != nullptr) {
      collection->index_options_ = shard.engine->index_options();
      break;
    }
  }
  if (std::all_of(collection->shards_.begin(), collection->shards_.end(),
                  [](const Shard& s) { return s.engine == nullptr; })) {
    collection->index_options_ = options_.build.index;
  }
  collection->router_ = ShardRouter::Build(shard_terms, options_.router);
  return collection;
}

Result<ShardedCollection::Plan> ShardedCollection::PlanQuery(
    const std::vector<std::string>& keywords) const {
  if (keywords.empty()) {
    return Status::InvalidArgument("query needs at least one keyword");
  }
  Plan plan;
  plan.normalized.reserve(keywords.size());
  for (const std::string& keyword : keywords) {
    std::string normalized =
        NormalizeKeyword(keyword, index_options_.tokenizer);
    if (normalized.empty()) {
      return Status::InvalidArgument("keyword '" + keyword +
                                     "' has no indexable characters");
    }
    plan.normalized.push_back(std::move(normalized));
  }
  plan.shards.resize(shards_.size());
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    plan.shards[s].shard = s;
    const XKSearch* engine = shards_[s].engine.get();
    bool candidate = engine != nullptr;
    if (candidate && router_.enabled()) {
      candidate = router_.MayServe(s, plan.normalized);
      // The Bloom pass has no false negatives, so this exact dictionary
      // re-check only demotes false positives — making the candidate set
      // (and the pruned-shard counts tests assert on) deterministic.
      for (size_t i = 0; candidate && i < plan.normalized.size(); ++i) {
        candidate = engine->Frequency(plan.normalized[i]) > 0;
      }
    }
    if (candidate) {
      plan.candidates.push_back(s);
    } else {
      plan.shards[s].pruned = true;
    }
  }
  return plan;
}

Result<SearchResult> ShardedCollection::SearchShard(
    uint32_t shard, const std::vector<std::string>& keywords,
    const SearchOptions& options, const ParallelExecOptions& exec) const {
  const Shard& target = shards_[shard];
  if (target.engine == nullptr) {
    return Status::Internal("shard " + std::to_string(shard) +
                            " has no engine (empty shard queried)");
  }
  Result<SearchResult> result =
      target.disk != nullptr ? target.disk->Search(keywords, options, exec)
                             : target.engine->Search(keywords, options, exec);
  if (!result.ok()) return result.status();
  SearchResult rebased = result.MoveValueUnsafe();
  // Re-base shard-local answers [0, pos, rest...] to collection
  // coordinates [0, doc, rest...]; the synthetic shard root [0] itself
  // (an "answer" spanning several documents) is discarded. pos -> doc is
  // strictly increasing, so the stream stays sorted.
  const std::vector<uint32_t>& docs = target.docs;
  size_t kept = 0;
  for (DeweyId& node : rebased.nodes) {
    if (node.depth() < 2) continue;  // the synthetic shard root
    node.set_component(1, docs[node.component(1)]);
    rebased.nodes[kept++] = std::move(node);
  }
  rebased.nodes.resize(kept);
  return rebased;
}

Result<ShardedResult> ShardedCollection::Gather(
    Plan plan, std::vector<Result<SearchResult>> outcomes) const {
  if (outcomes.size() != plan.candidates.size()) {
    return Status::Internal("scatter produced " +
                            std::to_string(outcomes.size()) +
                            " outcomes for " +
                            std::to_string(plan.candidates.size()) +
                            " candidate shards");
  }
  for (uint32_t s = 0; s < plan.shards.size(); ++s) {
    if (plan.shards[s].pruned) ++counters_[s].pruned;
  }
  // Any shard failure fails the whole query; the earliest candidate's
  // error wins so the surfaced status does not depend on completion
  // order. Each shard query cleans up its own pins on error (engine
  // contract), so nothing leaks here.
  Status failure;
  for (size_t i = 0; i < plan.candidates.size(); ++i) {
    const uint32_t s = plan.candidates[i];
    ++counters_[s].executed;
    if (outcomes[i].ok()) continue;
    if (outcomes[i].status().IsIoError()) ++counters_[s].io_errors;
    if (failure.ok()) failure = outcomes[i].status();
  }
  if (!failure.ok()) return failure;

  ShardedResult out;
  out.result.keywords = std::move(plan.normalized);
  out.result.algorithm = SlcaAlgorithm::kIndexedLookupEager;
  for (size_t i = 0; i < plan.candidates.size(); ++i) {
    const uint32_t s = plan.candidates[i];
    SearchResult& shard_result = *outcomes[i];
    if (i == 0) out.result.algorithm = shard_result.algorithm;
    plan.shards[s].results = shard_result.nodes.size();
    plan.shards[s].stats = shard_result.stats;
    out.result.stats += shard_result.stats;
  }
  // k-way merge of the (already sorted) per-shard streams into document
  // order. Shard counts are small, so a linear min scan beats a heap.
  std::vector<size_t> cursor(plan.candidates.size(), 0);
  size_t total = 0;
  for (const Result<SearchResult>& r : outcomes) total += r->nodes.size();
  out.result.nodes.reserve(total);
  while (out.result.nodes.size() < total) {
    size_t best = outcomes.size();
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (cursor[i] >= outcomes[i]->nodes.size()) continue;
      if (best == outcomes.size() ||
          outcomes[i]->nodes[cursor[i]].Compare(
              outcomes[best]->nodes[cursor[best]]) < 0) {
        best = i;
      }
    }
    out.result.nodes.push_back(std::move(outcomes[best]->nodes[cursor[best]]));
    ++cursor[best];
  }
  for (size_t i = 0; i < plan.candidates.size(); ++i) {
    const uint32_t s = plan.candidates[i];
    counters_[s].results += plan.shards[s].results;
  }
  out.shards = std::move(plan.shards);
  return out;
}

Result<ShardedResult> ShardedCollection::Search(
    const std::vector<std::string>& keywords, const SearchOptions& options,
    const ParallelExecOptions& exec) const {
  Result<Plan> plan = PlanQuery(keywords);
  if (!plan.ok()) return plan.status();
  std::vector<Result<SearchResult>> outcomes;
  outcomes.reserve(plan->candidates.size());
  for (const uint32_t s : plan->candidates) {
    outcomes.push_back(SearchShard(s, keywords, options, exec));
  }
  return Gather(plan.MoveValueUnsafe(), std::move(outcomes));
}

Result<ShardedCollection::Resolved> ShardedCollection::Resolve(
    const DeweyId& collection_id) const {
  if (collection_id.depth() < 2 || collection_id.component(0) != 0) {
    return Status::InvalidArgument("'" + collection_id.ToString() +
                                   "' is not a collection node id");
  }
  const uint32_t doc = collection_id.component(1);
  if (doc >= doc_names_.size()) {
    return Status::NotFound("no document " + std::to_string(doc) +
                            " in collection");
  }
  std::vector<uint32_t> local;
  local.reserve(collection_id.depth() - 1);
  local.push_back(0);
  for (size_t i = 2; i < collection_id.depth(); ++i) {
    local.push_back(collection_id.component(i));
  }
  return Resolved{doc_names_[doc], DeweyId(std::move(local))};
}

uint64_t ShardedCollection::Frequency(std::string_view keyword) const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    if (shard.engine != nullptr) total += shard.engine->Frequency(keyword);
  }
  return total;
}

std::vector<ShardCountersSnapshot> ShardedCollection::CountersSnapshot()
    const {
  std::vector<ShardCountersSnapshot> out(counters_.size());
  for (size_t s = 0; s < counters_.size(); ++s) {
    out[s].executed = counters_[s].executed.load();
    out[s].pruned = counters_[s].pruned.load();
    out[s].io_errors = counters_[s].io_errors.load();
    out[s].results = counters_[s].results.load();
  }
  return out;
}

}  // namespace shard
}  // namespace xksearch
