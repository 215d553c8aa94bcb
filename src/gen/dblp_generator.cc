#include "gen/dblp_generator.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/rng.h"

namespace xksearch {

namespace {

// Background word: "t<index>". Planted keywords must not collide.
std::string BackgroundWord(size_t index) { return "t" + std::to_string(index); }

/// Samples `count` distinct values from [0, n) (Floyd's algorithm).
std::vector<size_t> SampleWithoutReplacement(Rng* rng, size_t n, size_t count) {
  std::unordered_set<size_t> chosen;
  chosen.reserve(count);
  for (size_t j = n - count; j < n; ++j) {
    const size_t t = static_cast<size_t>(rng->Uniform(j + 1));
    if (!chosen.insert(t).second) chosen.insert(j);
  }
  return std::vector<size_t>(chosen.begin(), chosen.end());
}

/// Draws background word indexes; Zipf-distributed via inverse-CDF
/// lookup when an exponent is set, uniform otherwise.
class WordSampler {
 public:
  WordSampler(size_t vocab_size, double zipf_exponent)
      : vocab_size_(vocab_size) {
    if (zipf_exponent > 0) {
      cdf_.reserve(vocab_size);
      double total = 0;
      for (size_t i = 1; i <= vocab_size; ++i) {
        total += 1.0 / std::pow(static_cast<double>(i), zipf_exponent);
        cdf_.push_back(total);
      }
    }
  }

  size_t Draw(Rng* rng) const {
    if (cdf_.empty()) return static_cast<size_t>(rng->Uniform(vocab_size_));
    const double u = rng->UniformDouble() * cdf_.back();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  size_t vocab_size_;
  std::vector<double> cdf_;
};

}  // namespace

Result<Document> GenerateDblp(const DblpOptions& options) {
  if (options.papers == 0 || options.venues == 0 ||
      options.years_per_venue == 0) {
    return Status::InvalidArgument("papers, venues and years must be > 0");
  }
  for (const PlantSpec& plant : options.plants) {
    if (plant.frequency > options.papers) {
      return Status::InvalidArgument(
          "planted frequency " + std::to_string(plant.frequency) +
          " for '" + plant.name + "' exceeds paper count " +
          std::to_string(options.papers));
    }
    if (!plant.name.empty() && plant.name[0] == 't') {
      return Status::InvalidArgument(
          "planted keyword '" + plant.name +
          "' collides with the background vocabulary (reserved prefix 't')");
    }
  }

  Rng rng(options.seed);
  const WordSampler sampler(options.vocab_size, options.zipf_exponent);

  // Decide which papers carry which planted keywords.
  std::vector<std::vector<const std::string*>> plants_per_paper(
      options.papers);
  for (const PlantSpec& plant : options.plants) {
    for (size_t paper : SampleWithoutReplacement(
             &rng, options.papers, static_cast<size_t>(plant.frequency))) {
      plants_per_paper[paper].push_back(&plant.name);
    }
  }

  Document doc;
  const NodeId root = doc.CreateRoot("dblp");

  const size_t groups = options.venues * options.years_per_venue;
  const size_t per_group = (options.papers + groups - 1) / groups;

  size_t paper_index = 0;
  for (size_t v = 0; v < options.venues && paper_index < options.papers; ++v) {
    const NodeId venue =
        doc.AppendElement(root, v % 2 == 0 ? "journal" : "conference");
    doc.AppendText(doc.AppendElement(venue, "name"),
                   "venue" + std::to_string(v));
    for (size_t y = 0;
         y < options.years_per_venue && paper_index < options.papers; ++y) {
      const NodeId year = doc.AppendElement(venue, "year");
      doc.AddAttribute(year, "value", std::to_string(1970 + y));
      for (size_t p = 0; p < per_group && paper_index < options.papers;
           ++p, ++paper_index) {
        const NodeId paper = doc.AppendElement(
            year, paper_index % 3 == 0 ? "article" : "inproceedings");

        std::string title;
        const size_t words = 3 + rng.Uniform(5);
        for (size_t w = 0; w < words; ++w) {
          if (w > 0) title += ' ';
          title += BackgroundWord(sampler.Draw(&rng));
        }
        for (const std::string* plant : plants_per_paper[paper_index]) {
          title += ' ';
          title += *plant;
        }
        doc.AppendText(doc.AppendElement(paper, "title"), title);

        const size_t authors = 1 + rng.Uniform(3);
        for (size_t a = 0; a < authors; ++a) {
          doc.AppendText(
              doc.AppendElement(paper, "author"),
              BackgroundWord(sampler.Draw(&rng)) + " " +
                  BackgroundWord(sampler.Draw(&rng)));
        }
        doc.AppendText(doc.AppendElement(paper, "pages"),
                       std::to_string(1 + rng.Uniform(400)));
      }
    }
  }
  doc.ShrinkToFit();
  return doc;
}

}  // namespace xksearch
