#include "cache/cache.h"

#include <cstdlib>
#include <cstring>

#include "obs/obs.h"

namespace mfd::cache {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t digest_of(const std::vector<std::uint64_t>& key) {
  std::uint64_t d = 0x2545F4914F6CDD1Dull;
  for (std::uint64_t w : key) d = splitmix64(d ^ w);
  return d;
}

/// Fixed per-entry overhead estimate: list/map node bookkeeping plus the
/// shared_ptr control block. Precision is not the point — the bound is.
constexpr std::size_t kEntryOverhead = 96;

struct Globals {
  std::mutex mu;
  CacheConfig config;
  bool initialized = false;
};

Globals& globals() {
  static Globals g;
  return g;
}

/// Installs `c` (plus the MFD_CACHE_CHECK environment override) as the
/// active configuration and sizes the store to it.
void install_locked(Globals& g, const CacheConfig& c) {
  g.config = c;
  g.initialized = true;
  const char* check = std::getenv("MFD_CACHE_CHECK");
  if (check != nullptr && std::strcmp(check, "0") != 0) g.config.cross_check = true;
  multiplicity_cache().set_capacity(g.config.max_bytes);
}

}  // namespace

void configure(const CacheConfig& config) {
  Globals& g = globals();
  std::lock_guard<std::mutex> lock(g.mu);
  install_locked(g, config);
  multiplicity_cache().clear_all();
}

const CacheConfig& config() {
  Globals& g = globals();
  std::lock_guard<std::mutex> lock(g.mu);
  if (!g.initialized) install_locked(g, g.config);
  return g.config;
}

void clear() { multiplicity_cache().clear_all(); }

// ---------------------------------------------------------------------------
// LruCache
// ---------------------------------------------------------------------------

LruCache::LruCache(std::string counter_prefix, int shards)
    : prefix_(std::move(counter_prefix)) {
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

void LruCache::set_capacity(std::size_t bytes) {
  capacity_per_shard_ = bytes / shards_.size();
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    evict_to_fit(*s);
  }
}

std::shared_ptr<const void> LruCache::lookup(
    const std::vector<std::uint64_t>& key) {
  const std::uint64_t digest = digest_of(key);
  Shard& s = shard_of(digest);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.index.find(digest);
  if (it == s.index.end() || it->second->key != key) {
    obs::add(prefix_ + ".misses");
    return nullptr;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
  obs::add(prefix_ + ".hits");
  return it->second->value;
}

void LruCache::insert(const std::vector<std::uint64_t>& key,
                      std::shared_ptr<const void> value,
                      std::size_t value_bytes) {
  const std::size_t total =
      value_bytes + key.size() * sizeof(std::uint64_t) + kEntryOverhead;
  if (capacity_per_shard_ != 0 && total > capacity_per_shard_) return;
  // Budget accounting (core/budget.h): a flow whose budget caps cache bytes
  // stops publishing once the ceiling is reached — it never evicts another
  // flow's entries to make room, and a full allowance degrades to
  // recomputation, not down the degradation ladder.
  ResourceGovernor* gov = ResourceGovernor::current();
  if (gov != nullptr && !gov->try_charge_cache(total)) {
    obs::add(prefix_ + ".budget_denied");
    return;
  }
  const std::uint64_t digest = digest_of(key);
  Shard& s = shard_of(digest);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.index.find(digest);
  if (it != s.index.end()) {
    // Replace (also the path for a true digest collision: last writer wins —
    // the full-key compare in lookup keeps collisions safe, merely lossy).
    s.bytes -= it->second->bytes;
    s.lru.erase(it->second);
    s.index.erase(it);
  }
  s.lru.push_front(Entry{digest, key, std::move(value), total});
  s.index.emplace(digest, s.lru.begin());
  s.bytes += total;
  evict_to_fit(s);
}

void LruCache::evict_to_fit(Shard& s) {
  if (capacity_per_shard_ == 0) return;
  while (s.bytes > capacity_per_shard_ && !s.lru.empty()) {
    const Entry& tail = s.lru.back();
    s.bytes -= tail.bytes;
    s.index.erase(tail.digest);
    s.lru.pop_back();
    obs::add(prefix_ + ".evictions");
  }
}

void LruCache::clear_all() {
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    s->lru.clear();
    s->index.clear();
    s->bytes = 0;
  }
}

std::size_t LruCache::bytes() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->bytes;
  }
  return total;
}

std::size_t LruCache::entries() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->lru.size();
  }
  return total;
}

LruCache& multiplicity_cache() {
  static LruCache c("cache.multiplicity", /*shards=*/16);
  return c;
}

LruCache& flow_cache() {
  static LruCache c("cache.flow", /*shards=*/4);
  return c;
}

// ---------------------------------------------------------------------------
// Typed helpers
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> multiplicity_key(
    SignatureComputer& sig,
    const std::vector<std::pair<bdd::Edge, bdd::Edge>>& fns,
    const std::vector<int>& bound, std::uint64_t seed) {
  std::vector<std::uint64_t> key;
  key.reserve(3 + fns.size() * 5 + bound.size());
  key.push_back(2);  // key-space tag: multiplicity / candidate evaluations
  key.push_back(seed);
  key.push_back(fns.size());
  for (const auto& f : fns) {
    if (f.second == bdd::kTrue) {
      // Completely specified: normalize polarity. Complementing f
      // complements every cofactor element-wise — a bijection that changes
      // no class count and no joint sharing count, so f and !f share the
      // entry.
      const FunctionSignature s = sig.of_normalized(f.first);
      key.push_back(1);
      key.push_back(s.w0);
      key.push_back(s.w1);
      key.push_back(0);
      key.push_back(0);
    } else {
      const FunctionSignature so = sig.of(f.first);
      const FunctionSignature sc = sig.of(f.second);
      key.push_back(0);
      key.push_back(so.w0);
      key.push_back(so.w1);
      key.push_back(sc.w0);
      key.push_back(sc.w1);
    }
  }
  for (int v : bound) key.push_back(static_cast<std::uint64_t>(v));
  return key;
}

void publish_stats() {
  obs::gauge_set("cache.bytes", static_cast<double>(multiplicity_cache().bytes()));
  obs::gauge_set("cache.entries", static_cast<double>(multiplicity_cache().entries()));
}

}  // namespace mfd::cache
