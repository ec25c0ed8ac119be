// net::ContainerCache — a shared, byte-bounded LRU cache of
// precompressed payloads (selective containers and full-file deflate
// members) with single-flight building: when N concurrent requests
// miss on the same key, exactly one caller compresses while the rest
// wait for the published bytes. This is what makes the worker-pool
// proxy's on-demand mode (§5) survive a thundering herd — the paper's
// "compressed a priori and stored on the proxy" arrangement (§3)
// becomes a warm cache instead of a startup pass.
//
// Protocol between cache and builder:
//   auto lk = cache.acquire(key);
//   if (lk.data)       -> hit (or a concurrent builder finished): serve it.
//   if (lk.builder)    -> this caller must build; call
//                         lk.builder->publish(bytes) on success. If the
//                         Builder dies unpublished (request failed),
//                         waiters are released and retry acquire() —
//                         the next one becomes the builder. Build from
//                         the source as read after acquire(): a change
//                         invalidated after that read orphans the flight.
//
// Entries are immutable once published (shared_ptr<const Bytes>), so
// readers never copy under the lock and invalidation is O(variants).
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "util/bytes.h"

namespace ecomp::net {

class ContainerCache {
  struct Flight;

 public:
  /// Capacity in payload bytes; entries are evicted LRU-first once the
  /// total exceeds it. 0 disables caching entirely (every acquire is a
  /// build, still single-flighted).
  explicit ContainerCache(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  class Builder;

  struct Lookup {
    /// Non-null on a hit (including "waited for a concurrent builder").
    std::shared_ptr<const Bytes> data;
    /// Non-null when this caller owns the build for the key.
    std::unique_ptr<Builder> builder;
  };

  /// Resolve `key`: cached data, or a Builder making this caller the
  /// single flight, or (after a builder failed) neither — callers loop.
  Lookup acquire(const std::string& key);

  /// Drop every key beginning with `prefix` (a PUT invalidating all
  /// cached variants of one name), and orphan every such in-flight
  /// build: it may have read the old bytes, so it still wakes the
  /// waiters that joined it but never lands in the cache, and the next
  /// acquire() builds afresh. Callers invalidate after the store
  /// mutation, which the proxy does under its request ordering.
  void invalidate_prefix(const std::string& prefix);

  /// Insert an already-built payload (precompress startup pass).
  void put(const std::string& key, Bytes data);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;      ///< acquires that started a build
    std::uint64_t waits = 0;       ///< acquires that joined a flight
    std::uint64_t builds = 0;      ///< publishes (successful builds)
    std::uint64_t evictions = 0;
    std::uint64_t bytes = 0;       ///< resident payload bytes
    std::uint64_t entries = 0;
  };
  Stats stats() const;

  /// RAII single-flight token: publish() stores the bytes and wakes the
  /// waiters; destruction without publish wakes them empty-handed so
  /// one of them can retry.
  class Builder {
   public:
    ~Builder();
    Builder(const Builder&) = delete;
    Builder& operator=(const Builder&) = delete;
    std::shared_ptr<const Bytes> publish(Bytes data);

   private:
    friend class ContainerCache;
    Builder(ContainerCache* cache, std::string key,
            std::shared_ptr<Flight> flight)
        : cache_(cache), key_(std::move(key)), flight_(std::move(flight)) {}
    ContainerCache* cache_;
    std::string key_;
    std::shared_ptr<Flight> flight_;  // this build's, even once orphaned
    bool published_ = false;
  };

 private:
  struct Flight {
    std::promise<std::shared_ptr<const Bytes>> promise;
    std::shared_future<std::shared_ptr<const Bytes>> future;
  };

  /// Insert under lock, updating LRU order and evicting to capacity.
  void insert_locked(const std::string& key,
                     std::shared_ptr<const Bytes> data);
  void finish_flight(const std::string& key,
                     const std::shared_ptr<Flight>& flight,
                     std::shared_ptr<const Bytes> data);

  mutable std::mutex mu_;
  std::size_t capacity_;
  /// MRU-first recency list; map values hold an iterator into it.
  std::list<std::string> lru_;
  struct Entry {
    std::shared_ptr<const Bytes> data;
    std::list<std::string>::iterator pos;
  };
  std::map<std::string, Entry> entries_;
  std::map<std::string, std::shared_ptr<Flight>> flights_;
  Stats stats_;
};

}  // namespace ecomp::net
