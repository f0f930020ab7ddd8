#include "mappers/registry.hpp"

#include <algorithm>
#include <functional>
#include <map>

#include "mappers/baseline_mappers.hpp"
#include "mappers/heft_mapper.hpp"
#include "mappers/incremental_mapper.hpp"
#include "mappers/portfolio_mapper.hpp"
#include "mappers/sa_mapper.hpp"
#include "mappers/tabu_mapper.hpp"
#include "mo/nsga2_mapper.hpp"

#include "obs/instrumented_mapper.hpp"

namespace kairos::mappers {

namespace {

using Factory =
    std::function<std::shared_ptr<Mapper>(const MapperOptions&)>;

const std::map<std::string, Factory>& registry() {
  static const std::map<std::string, Factory> table = {
      {"incremental",
       [](const MapperOptions& o) {
         return std::make_shared<IncrementalStrategy>(o);
       }},
      {"first_fit",
       [](const MapperOptions& o) {
         return std::make_shared<FirstFitStrategy>(o.weights, o.bonuses);
       }},
      {"random",
       [](const MapperOptions& o) {
         return std::make_shared<RandomStrategy>(o.seed, o.weights,
                                                 o.bonuses);
       }},
      {"heft",
       [](const MapperOptions& o) { return std::make_shared<HeftMapper>(o); }},
      {"sa",
       [](const MapperOptions& o) { return std::make_shared<SaMapper>(o); }},
      {"tabu",
       [](const MapperOptions& o) { return std::make_shared<TabuMapper>(o); }},
      {"nsga2",
       [](const MapperOptions& o) {
         return std::make_shared<mo::Nsga2Mapper>(o);
       }},
      {"portfolio",
       [](const MapperOptions& o) {
         return std::make_shared<PortfolioMapper>(o);
       }},
  };
  return table;
}

}  // namespace

util::Result<std::shared_ptr<Mapper>> make(const std::string& name,
                                           const MapperOptions& options) {
  const auto& table = registry();
  const auto it = table.find(name);
  if (it == table.end()) {
    // List the registered strategies through available() so the message is
    // deterministic (sorted) regardless of how the registry is stored.
    std::string known;
    for (const auto& n : available()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    return util::Error("unknown mapper strategy '" + name + "' (known: " +
                       known + ")");
  }
  std::shared_ptr<Mapper> mapper = it->second(options);
  // Every registry-built strategy is observable: per-strategy call counters
  // and map-latency histograms, with name() and results passing through
  // untouched. The portfolio builds its racers through make() too, so the
  // per-strategy timing inside a race comes along for free.
  mapper = std::make_shared<obs::InstrumentedMapper>(std::move(mapper));
  return mapper;
}

std::vector<std::string> available() {
  std::vector<std::string> out;
  out.reserve(registry().size());
  for (const auto& [name, _] : registry()) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

bool is_registered(const std::string& name) {
  return registry().count(name) > 0;
}

}  // namespace kairos::mappers
