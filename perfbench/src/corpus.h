#ifndef XKSEARCH_PERFBENCH_CORPUS_H_
#define XKSEARCH_PERFBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A keyword planted into exactly `frequency` paper titles.
struct Plant {
  std::string name;
  uint64_t frequency;
};

/// \brief Shape of a DBLP-like document: root -> venue -> year -> paper
/// -> field -> text, as in the paper's Section 6 data.
struct DblpSpec {
  size_t papers = 100000;
  size_t venues = 25;
  size_t years_per_venue = 20;
  /// Background words are "t0" .. "t<vocab-1>", drawn uniformly.
  size_t vocab = 2000;
  uint64_t seed = 1;
  std::vector<Plant> plants;
};

/// Generates the document as XML text. Plant names must not start with
/// 't' (the background vocabulary's prefix).
std::string GenerateDblpXml(const DblpSpec& spec);

/// \brief The planted corpus of the paper workloads: keyword families
/// at the frequencies the paper's Figures 8-13 sweep.
struct PaperCorpus {
  /// (frequency class, keyword variants) pairs. A variant's frequency is
  /// its class (clamped to the paper count) minus a seeded 0-2%.
  std::vector<std::pair<uint64_t, std::vector<std::string>>> families;
  std::string xml;
};

PaperCorpus MakePaperCorpus(size_t papers, uint64_t seed);

/// One paper-shaped query: the frequency classes of its keywords.
using QueryShape = std::vector<uint64_t>;

/// The Fig. 8-10 (hot) / Fig. 11-13 (cold) shapes: small x large pairs,
/// one small list plus k-1 lists of 100,000 for k = 2..5, and k equal
/// frequencies for k = 2..5.
std::vector<QueryShape> PaperShapes();

/// `per_shape` seeded queries for every shape (keywords distinct within
/// a query), shape-major order.
std::vector<std::vector<std::string>> PaperQueryPool(const PaperCorpus& corpus,
                                                     uint64_t seed,
                                                     size_t per_shape);

}  // namespace perfbench

#endif  // XKSEARCH_PERFBENCH_CORPUS_H_
