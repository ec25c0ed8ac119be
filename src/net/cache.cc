#include "net/cache.h"

namespace ecomp::net {

ContainerCache::Lookup ContainerCache::acquire(const std::string& key) {
  std::shared_ptr<Flight> flight;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = entries_.find(key); it != entries_.end()) {
      // Refresh recency: splice the key to the MRU end.
      lru_.splice(lru_.begin(), lru_, it->second.pos);
      ++stats_.hits;
      return {it->second.data, nullptr};
    }
    if (const auto it = flights_.find(key); it != flights_.end()) {
      flight = it->second;
      ++stats_.waits;
    } else {
      auto fresh = std::make_shared<Flight>();
      fresh->future = fresh->promise.get_future().share();
      flights_.emplace(key, fresh);
      ++stats_.misses;
      return {nullptr, std::unique_ptr<Builder>(
                           new Builder(this, key, std::move(fresh)))};
    }
  }
  // Join the in-flight build outside the lock. A null result means the
  // builder abandoned (its request failed); the caller loops on
  // acquire() and one of the waiters becomes the next builder.
  return {flight->future.get(), nullptr};
}

void ContainerCache::insert_locked(const std::string& key,
                                   std::shared_ptr<const Bytes> data) {
  if (capacity_ == 0) return;
  if (entries_.count(key)) return;  // racing precompress/put; keep first
  lru_.push_front(key);
  entries_[key] = {data, lru_.begin()};
  stats_.bytes += data->size();
  stats_.entries = entries_.size();
  while (stats_.bytes > capacity_ && lru_.size() > 1) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    const auto it = entries_.find(victim);
    stats_.bytes -= it->second.data->size();
    entries_.erase(it);
    ++stats_.evictions;
  }
  stats_.entries = entries_.size();
}

void ContainerCache::finish_flight(const std::string& key,
                                   const std::shared_ptr<Flight>& flight,
                                   std::shared_ptr<const Bytes> data) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // An orphaned flight (invalidate_prefix dropped it) is no longer
    // the key's: its bytes may predate the change, so they stay out.
    const auto it = flights_.find(key);
    const bool current = it != flights_.end() && it->second == flight;
    if (current) flights_.erase(it);
    if (data) {
      if (current) insert_locked(key, data);
      ++stats_.builds;
    }
  }
  // Fulfil outside the lock: waiters wake straight into future.get().
  flight->promise.set_value(std::move(data));
}

void ContainerCache::put(const std::string& key, Bytes data) {
  auto shared = std::make_shared<const Bytes>(std::move(data));
  std::lock_guard<std::mutex> lock(mu_);
  insert_locked(key, std::move(shared));
}

void ContainerCache::invalidate_prefix(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.lower_bound(prefix); it != entries_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    stats_.bytes -= it->second.data->size();
    lru_.erase(it->second.pos);
    it = entries_.erase(it);
  }
  stats_.entries = entries_.size();
  for (auto it = flights_.lower_bound(prefix);
       it != flights_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;)
    it = flights_.erase(it);
}

ContainerCache::Stats ContainerCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

ContainerCache::Builder::~Builder() {
  if (!published_) cache_->finish_flight(key_, flight_, nullptr);
}

std::shared_ptr<const Bytes> ContainerCache::Builder::publish(Bytes data) {
  auto shared = std::make_shared<const Bytes>(std::move(data));
  cache_->finish_flight(key_, flight_, shared);
  published_ = true;
  return shared;
}

}  // namespace ecomp::net
