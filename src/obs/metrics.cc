#include "obs/metrics.h"

#include <sstream>

#include "obs/json.h"

namespace ecomp::obs {

Registry& Registry::global() {
  static Registry r;
  return r;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

SlidingHistogram& Registry::sliding(std::string_view name,
                                    SlidingHistogram::Options opt) {
  std::lock_guard lock(mu_);
  auto it = sliding_.find(name);
  if (it == sliding_.end())
    it = sliding_
             .emplace(std::string(name),
                      std::make_unique<SlidingHistogram>(opt))
             .first;
  return *it->second;
}

void Registry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [_, c] : counters_) c->reset();
  for (auto& [_, g] : gauges_) g->reset();
  for (auto& [_, s] : sliding_) s->reset();
}

std::string Registry::to_json() const {
  std::lock_guard lock(mu_);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << json_quote(name) << ":" << c->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << json_quote(name) << ":" << g->value();
  }
  os << "},\"sliding\":{";
  first = true;
  for (const auto& [name, s] : sliding_) {
    if (!first) os << ",";
    first = false;
    const auto snap = s->snapshot();
    os << json_quote(name) << ":{\"count\":" << snap.total_count
       << ",\"sum\":" << json_number(snap.total_sum)
       << ",\"window_count\":" << snap.window_count
       << ",\"rate_per_s\":" << json_number(snap.rate_per_s)
       << ",\"p50\":" << json_number(snap.p50)
       << ",\"p90\":" << json_number(snap.p90)
       << ",\"p99\":" << json_number(snap.p99)
       << ",\"p999\":" << json_number(snap.p999) << "}";
  }
  os << "}}";
  return os.str();
}

std::map<std::string, std::uint64_t> Registry::counter_values() const {
  std::lock_guard lock(mu_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c->value();
  return out;
}

std::vector<std::pair<std::string, SlidingHistogram::Snapshot>>
Registry::sliding_snapshots() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, SlidingHistogram::Snapshot>> out;
  out.reserve(sliding_.size());
  for (const auto& [name, s] : sliding_) out.emplace_back(name, s->snapshot());
  return out;
}

void Registry::visit_counters(
    const std::function<void(std::string_view, std::uint64_t)>& fn) const {
  std::lock_guard lock(mu_);
  for (const auto& [name, c] : counters_) fn(name, c->value());
}

void Registry::visit_gauges(
    const std::function<void(std::string_view, std::int64_t)>& fn) const {
  std::lock_guard lock(mu_);
  for (const auto& [name, g] : gauges_) fn(name, g->value());
}

void Registry::visit_sliding(
    const std::function<void(std::string_view, const SlidingHistogram&)>& fn)
    const {
  std::lock_guard lock(mu_);
  for (const auto& [name, s] : sliding_) fn(name, *s);
}

}  // namespace ecomp::obs
