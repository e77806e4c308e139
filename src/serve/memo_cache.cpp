#include "serve/memo_cache.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "obs/log.hpp"

namespace wm::serve {

MemoCache::MemoCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

bool MemoCache::evict_one() {
  // Every spared entry moves to the young end with its bit cleared, so
  // two laps either find a victim or show every entry is in flight.
  for (std::size_t walked = 0; walked < 2 * entries_.size(); ++walked) {
    const Entries::iterator oldest = entries_.begin();
    if (oldest->ready && !oldest->referenced) {
      index_.erase(oldest->key);
      entries_.erase(oldest);
      ++tally_.evictions;
      WM_COUNT_INFO(serve.cache.evictions);
      if (obs::log_enabled(obs::LogLevel::kDebug)) {
        obs::LogEvent(obs::LogLevel::kDebug, "cache_evict")
            .num_u("live", entries_.size());
      }
      return true;
    }
    oldest->referenced = false;
    entries_.splice(entries_.end(), entries_, oldest);
  }
  return false;
}

MemoCache::Result MemoCache::get_or_compute(
    const std::string& key, const std::function<std::string()>& compute) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = index_.find(key);
  while (it != index_.end() && !it->second->ready) {
    published_.wait(lock);  // single flight: another requester computes
    it = index_.find(key);
  }
  if (it != index_.end()) {
    it->second->referenced = true;
    ++tally_.hits;
    return Result{it->second->value, /*hit=*/true};
  }

  if (entries_.size() >= capacity_ && !evict_one()) {
    ++tally_.bypasses;
    ++tally_.misses;
    lock.unlock();
    WM_COUNT_INFO(serve.cache.bypasses);
    if (obs::log_enabled(obs::LogLevel::kDebug)) {
      obs::LogEvent(obs::LogLevel::kDebug, "cache_bypass");
    }
    return Result{compute(), /*hit=*/false};
  }
  // In-flight entries are never evicted, so `entry` stays valid until
  // this call publishes or removes it.
  const Entries::iterator entry = entries_.emplace(entries_.end());
  entry->key = key;
  index_.emplace(entry->key, entry);
  lock.unlock();

  std::string value;
  try {
    value = compute();
  } catch (...) {
    lock.lock();
    index_.erase(entry->key);
    entries_.erase(entry);
    published_.notify_all();
    throw;
  }
  lock.lock();
  entry->value = value;
  entry->ready = true;
  entry->referenced = true;
  ++tally_.misses;
  published_.notify_all();
  return Result{std::move(value), /*hit=*/false};
}

std::optional<std::string> MemoCache::peek(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end() && it->second->ready) return it->second->value;
  return std::nullopt;
}

MemoCache::Stats MemoCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats st = tally_;
  st.entries = entries_.size();
  st.capacity = capacity_;
  return st;
}

}  // namespace wm::serve
