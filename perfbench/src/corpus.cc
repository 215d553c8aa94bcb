#include "corpus.h"

#include <algorithm>

#include "bench_util.h"

namespace perfbench {

namespace {

/// Frequency classes of the paper's evaluation (Section 6).
constexpr uint64_t kFrequencies[] = {10, 100, 1000, 10000, 100000};

/// Distinct keywords per class: enough for k = 5 distinct equal-frequency
/// lists, and for four 100,000 lists beside a small one.
size_t VariantsFor(uint64_t frequency) {
  if (frequency <= 100) return 10;
  if (frequency <= 1000) return 6;
  if (frequency <= 10000) return 5;
  return 4;
}

}  // namespace

std::string GenerateDblpXml(const DblpSpec& spec) {
  Rng rng(spec.seed);
  // Plant placement: a partial Fisher-Yates per keyword picks exactly
  // `frequency` distinct papers.
  std::vector<std::vector<uint32_t>> plants_per_paper(spec.papers);
  std::vector<uint32_t> order(spec.papers);
  for (size_t p = 0; p < spec.papers; ++p) order[p] = static_cast<uint32_t>(p);
  for (uint32_t k = 0; k < spec.plants.size(); ++k) {
    const size_t count =
        std::min<size_t>(spec.plants[k].frequency, spec.papers);
    for (size_t i = 0; i < count; ++i) {
      std::swap(order[i], order[i + rng.Uniform(spec.papers - i)]);
      plants_per_paper[order[i]].push_back(k);
    }
  }

  std::string xml;
  xml.reserve(spec.papers * 120);
  xml += "<dblp>";
  const size_t groups = spec.venues * spec.years_per_venue;
  const size_t per_group = (spec.papers + groups - 1) / groups;
  auto word = [&](std::string* out) {
    *out += 't';
    *out += std::to_string(rng.Uniform(spec.vocab));
  };
  size_t paper = 0;
  for (size_t v = 0; v < spec.venues && paper < spec.papers; ++v) {
    const char* venue = v % 2 == 0 ? "journal" : "conference";
    xml += "<" + std::string(venue) + "><name>venue" + std::to_string(v) +
           "</name>";
    for (size_t y = 0; y < spec.years_per_venue && paper < spec.papers; ++y) {
      xml += "<year value=\"" + std::to_string(1970 + y) + "\">";
      for (size_t p = 0; p < per_group && paper < spec.papers; ++p, ++paper) {
        const char* kind = paper % 3 == 0 ? "article" : "inproceedings";
        xml += "<" + std::string(kind) + "><title>";
        const size_t words = 3 + rng.Uniform(5);
        for (size_t w = 0; w < words; ++w) {
          if (w > 0) xml += ' ';
          word(&xml);
        }
        for (uint32_t k : plants_per_paper[paper]) {
          xml += ' ';
          xml += spec.plants[k].name;
        }
        xml += "</title>";
        const size_t authors = 1 + rng.Uniform(3);
        for (size_t a = 0; a < authors; ++a) {
          xml += "<author>";
          word(&xml);
          xml += ' ';
          word(&xml);
          xml += "</author>";
        }
        xml += "<pages>" + std::to_string(1 + rng.Uniform(400)) + "</pages>";
        xml += "</" + std::string(kind) + ">";
      }
      xml += "</year>";
    }
    xml += "</" + std::string(venue) + ">";
  }
  xml += "</dblp>";
  return xml;
}

PaperCorpus MakePaperCorpus(size_t papers, uint64_t seed) {
  PaperCorpus corpus;
  DblpSpec spec;
  spec.papers = papers;
  spec.seed = SubSeed(seed, "paper-corpus");
  // Each variant sits up to 2% below its class, so list sizes (and the
  // Table 1 counts that follow from them) depend on the seed too, while
  // the work per query barely does.
  Rng jitter(SubSeed(seed, "plant-frequency"));
  for (uint64_t frequency : kFrequencies) {
    const uint64_t capped = std::min<uint64_t>(frequency, papers);
    std::vector<std::string> names;
    for (size_t i = 0; i < VariantsFor(frequency); ++i) {
      std::string name =
          "kwf" + std::to_string(frequency) + "n" + std::to_string(i);
      spec.plants.push_back({name, capped - jitter.Uniform(capped / 50 + 1)});
      names.push_back(std::move(name));
    }
    corpus.families.emplace_back(frequency, std::move(names));
  }
  corpus.xml = GenerateDblpXml(spec);
  return corpus;
}

std::vector<QueryShape> PaperShapes() {
  std::vector<QueryShape> shapes;
  for (uint64_t small : {10, 100, 1000}) {
    for (uint64_t large : {10, 100, 1000, 10000, 100000}) {
      if (large >= small) shapes.push_back({small, large});  // Fig. 8
    }
  }
  for (uint64_t small : {10, 100, 1000, 10000}) {
    for (size_t k = 2; k <= 5; ++k) {
      QueryShape shape{small};  // Fig. 9
      shape.resize(k, 100000);
      shapes.push_back(shape);
    }
  }
  for (uint64_t frequency : {10, 100, 1000, 10000}) {
    for (size_t k = 2; k <= 5; ++k) {
      shapes.push_back(QueryShape(k, frequency));  // Fig. 10
    }
  }
  return shapes;
}

std::vector<std::vector<std::string>> PaperQueryPool(const PaperCorpus& corpus,
                                                     uint64_t seed,
                                                     size_t per_shape) {
  Rng rng(SubSeed(seed, "paper-queries"));
  std::vector<std::vector<std::string>> pool;
  for (const QueryShape& shape : PaperShapes()) {
    for (size_t q = 0; q < per_shape; ++q) {
      std::vector<std::string> query;
      for (uint64_t frequency : shape) {
        const std::vector<std::string>* family = nullptr;
        for (const auto& [f, names] : corpus.families) {
          if (f == frequency) family = &names;
        }
        if (family == nullptr) Die("no keyword family for a query shape");
        // A random variant not already in the query (every shape needs
        // at most as many lists of one class as the class has variants).
        size_t pick = rng.Uniform(family->size());
        while (std::find(query.begin(), query.end(), (*family)[pick]) !=
               query.end()) {
          pick = (pick + 1) % family->size();
        }
        query.push_back((*family)[pick]);
      }
      pool.push_back(std::move(query));
    }
  }
  return pool;
}

}  // namespace perfbench
