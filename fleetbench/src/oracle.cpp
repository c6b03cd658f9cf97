#include "oracle.hpp"

#include <algorithm>
#include <cstring>

namespace fleetbench {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t key_seed(const std::string& key) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a, kept local on purpose
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

std::vector<std::uint8_t> derive_value(const std::string& key,
                                       std::uint64_t version,
                                       std::size_t size) {
  std::vector<std::uint8_t> out(size);
  std::uint64_t state = key_seed(key) ^ (version * 0xD6E8FEB86659FD93ULL);
  std::size_t i = 0;
  while (i < size) {
    const std::uint64_t word = splitmix64(state);
    const std::size_t n = std::min<std::size_t>(8, size - i);
    std::memcpy(out.data() + i, &word, n);
    i += n;
  }
  return out;
}

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk: return "ok";
    case Verdict::kCorrupt: return "corrupt";
    case Verdict::kUnknownVersion: return "unknown_version";
    case Verdict::kStale: return "stale";
    case Verdict::kMissing: return "missing";
  }
  return "?";
}

std::uint64_t Model::issue(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  return ++keys_[key].issued;
}

void Model::ack(const std::string& key, std::uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  KeyState& state = keys_[key];
  state.acked = std::max(state.acked, version);
}

void Model::note_ttl(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  ttl_keys_.push_back(key);
}

Verdict Model::judge(const std::string& key,
                     std::optional<std::uint64_t> version,
                     const std::uint8_t* data, std::size_t size,
                     bool require_acked) const {
  KeyState state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = keys_.find(key);
    if (it != keys_.end()) state = it->second;
  }
  if (!version.has_value()) {
    return state.acked > 0 ? Verdict::kMissing : Verdict::kOk;
  }
  if (*version == 0 || *version > state.issued) {
    return Verdict::kUnknownVersion;
  }
  const std::vector<std::uint8_t> expected =
      derive_value(key, *version, value_bytes_);
  if (size != expected.size() ||
      (size > 0 && std::memcmp(data, expected.data(), size) != 0)) {
    return Verdict::kCorrupt;
  }
  if (require_acked && *version < state.acked) return Verdict::kStale;
  return Verdict::kOk;
}

Verdict Model::check_get(const std::string& key,
                         std::optional<std::uint64_t> version,
                         const std::uint8_t* data, std::size_t size) const {
  return judge(key, version, data, size, /*require_acked=*/false);
}

Verdict Model::check_readback(const std::string& key,
                              std::optional<std::uint64_t> version,
                              const std::uint8_t* data,
                              std::size_t size) const {
  return judge(key, version, data, size, /*require_acked=*/true);
}

std::vector<std::string> Model::acked_keys() const {
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(keys_.size());
    for (const auto& [key, state] : keys_) {
      if (state.acked > 0) out.push_back(key);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Model::ttl_keys() const {
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = ttl_keys_;
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fleetbench
