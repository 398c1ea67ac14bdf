#include "metrics.hpp"

#include <iterator>
#include <map>
#include <stdexcept>

namespace perfbench {

std::vector<Metric> manifestOrder(const std::vector<Metric>& measured, bool trace) {
  const MetricSpec* first = trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricSpec* last = trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::map<std::string, const Metric*> byName;
  for (const Metric& m : measured)
    if (!byName.emplace(m.name, &m).second)
      throw std::logic_error("metric " + m.name + " measured twice");
  std::vector<Metric> out;
  for (const MetricSpec* spec = first; spec != last; ++spec) {
    const auto it = byName.find(spec->name);
    if (it == byName.end()) {
      if (!trace) throw std::logic_error(std::string("end-to-end metric ") + spec->name +
                                         " was not measured");
      out.push_back(Metric{spec->name, 0.0, spec->unit, 0});
      continue;
    }
    if (it->second->unit != spec->unit)
      throw std::logic_error("metric " + it->first + " is in " + it->second->unit +
                             ", the manifest says " + spec->unit);
    out.push_back(*it->second);
    byName.erase(it);
  }
  if (!byName.empty())
    throw std::logic_error("metric " + byName.begin()->first + " is not in the manifest's " +
                           (trace ? "per-layer" : "end-to-end") + " list");
  return out;
}

}  // namespace perfbench
