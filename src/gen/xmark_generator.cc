#include "gen/xmark_generator.h"

#include <unordered_set>

#include "common/rng.h"

namespace xksearch {

namespace {

std::string BackgroundWord(size_t index) {
  return "x" + std::to_string(index);
}

std::vector<size_t> SampleWithoutReplacement(Rng* rng, size_t n,
                                             size_t count) {
  std::unordered_set<size_t> chosen;
  chosen.reserve(count);
  for (size_t j = n - count; j < n; ++j) {
    const size_t t = static_cast<size_t>(rng->Uniform(j + 1));
    if (!chosen.insert(t).second) chosen.insert(j);
  }
  return std::vector<size_t>(chosen.begin(), chosen.end());
}

}  // namespace

Result<Document> GenerateXmark(const XmarkOptions& options) {
  if (options.items == 0 || options.people == 0 || options.regions == 0) {
    return Status::InvalidArgument("items, people and regions must be > 0");
  }
  for (const PlantSpec& plant : options.plants) {
    if (plant.frequency > options.items) {
      return Status::InvalidArgument(
          "planted frequency for '" + plant.name + "' exceeds item count");
    }
    if (!plant.name.empty() && plant.name[0] == 'x') {
      return Status::InvalidArgument(
          "planted keyword '" + plant.name +
          "' collides with the background vocabulary (reserved prefix 'x')");
    }
  }

  Rng rng(options.seed);

  std::vector<std::vector<const std::string*>> plants_per_item(options.items);
  for (const PlantSpec& plant : options.plants) {
    for (size_t item : SampleWithoutReplacement(
             &rng, options.items, static_cast<size_t>(plant.frequency))) {
      plants_per_item[item].push_back(&plant.name);
    }
  }

  Document doc;
  const NodeId site = doc.CreateRoot("site");

  auto random_text = [&](NodeId parent, size_t words) {
    std::string text;
    for (size_t w = 0; w < words; ++w) {
      if (w > 0) text += ' ';
      text += BackgroundWord(rng.Uniform(options.vocab_size));
    }
    doc.AppendText(parent, text);
  };

  // People.
  const NodeId people = doc.AppendElement(site, "people");
  for (size_t p = 0; p < options.people; ++p) {
    const NodeId person = doc.AppendElement(people, "person");
    doc.AddAttribute(person, "id", "person" + std::to_string(p));
    random_text(doc.AppendElement(person, "name"), 2);
    random_text(doc.AppendElement(person, "emailaddress"), 1);
    if (rng.Bernoulli(0.4)) {
      const NodeId address = doc.AppendElement(person, "address");
      random_text(doc.AppendElement(address, "street"), 2);
      random_text(doc.AppendElement(address, "city"), 1);
      random_text(doc.AppendElement(address, "country"), 1);
    }
  }

  // Regions hold the items; auctions reference them below.
  const NodeId regions = doc.AppendElement(site, "regions");
  std::vector<NodeId> region_nodes;
  static const char* const kRegions[] = {"africa",   "asia",   "australia",
                                         "europe",   "namerica", "samerica"};
  for (size_t r = 0; r < options.regions; ++r) {
    region_nodes.push_back(doc.AppendElement(
        regions, kRegions[r % (sizeof(kRegions) / sizeof(kRegions[0]))]));
  }

  // Recursively nested description markup — the XMark parlist shape.
  // Plants a keyword at a random level when `plant` is non-null.
  struct DescriptionBuilder {
    Document& doc;
    Rng& rng;
    const XmarkOptions& options;

    void Build(NodeId parent, uint32_t depth,
               const std::vector<const std::string*>* plants) {
      if (depth == 0) {
        std::string text;
        const size_t words = 2 + rng.Uniform(5);
        for (size_t w = 0; w < words; ++w) {
          if (w > 0) text += ' ';
          text += BackgroundWord(rng.Uniform(options.vocab_size));
        }
        if (plants != nullptr) {
          for (const std::string* plant : *plants) {
            text += ' ';
            text += *plant;
          }
        }
        doc.AppendText(parent, text);
        return;
      }
      const NodeId parlist = doc.AppendElement(parent, "parlist");
      const size_t listitems = 1 + rng.Uniform(2);
      // The plants ride down exactly one branch so each occurs once.
      const size_t planted_branch = rng.Uniform(listitems);
      for (size_t i = 0; i < listitems; ++i) {
        const NodeId listitem = doc.AppendElement(parlist, "listitem");
        Build(listitem, depth - 1,
              i == planted_branch ? plants : nullptr);
      }
    }
  };
  DescriptionBuilder description{doc, rng, options};

  for (size_t i = 0; i < options.items; ++i) {
    const NodeId region = region_nodes[rng.Uniform(region_nodes.size())];
    const NodeId item = doc.AppendElement(region, "item");
    doc.AddAttribute(item, "id", "item" + std::to_string(i));
    random_text(doc.AppendElement(item, "name"), 2);
    const NodeId desc = doc.AppendElement(item, "description");
    const uint32_t depth =
        options.description_depth == 0
            ? 0
            : static_cast<uint32_t>(rng.Uniform(options.description_depth + 1));
    description.Build(desc, depth, &plants_per_item[i]);
  }

  // Auctions referencing items and people.
  const NodeId open = doc.AppendElement(site, "open_auctions");
  const NodeId closed = doc.AppendElement(site, "closed_auctions");
  for (size_t i = 0; i < options.items; ++i) {
    const bool is_open = i % 2 == 0;
    const NodeId auction =
        doc.AppendElement(is_open ? open : closed,
                          is_open ? "open_auction" : "closed_auction");
    const NodeId ref = doc.AppendElement(auction, "itemref");
    doc.AddAttribute(ref, "item", "item" + std::to_string(i));
    const NodeId seller = doc.AppendElement(auction, "seller");
    doc.AddAttribute(
        seller, "person",
        "person" + std::to_string(rng.Uniform(options.people)));
    doc.AppendText(doc.AppendElement(auction, "price"),
                   std::to_string(1 + rng.Uniform(1000)));
  }

  doc.ShrinkToFit();
  return doc;
}

}  // namespace xksearch
