// The benchmark's correctness oracle. It never trusts the program's output:
// every value's bytes are a pure function of (key, version, size), and the
// model records which versions the load generator issued and which the
// fleet acknowledged. Every get reply, every end-of-run read-back and every
// TTL expiry check is judged against that model alone.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace fleetbench {

/// The bytes a put of (key, version) carries. Deterministic and cheap; two
/// different versions of one key differ in (almost) every byte.
std::vector<std::uint8_t> derive_value(const std::string& key,
                                       std::uint64_t version,
                                       std::size_t size);

/// What a get reply turned out to be, in the oracle's eyes.
enum class Verdict : std::uint8_t {
  kOk,              ///< a version the generator issued, with its exact bytes
  kCorrupt,         ///< the bytes differ from the derivation of (key, version)
  kUnknownVersion,  ///< a version the generator never issued for this key
  kStale,           ///< older than the newest acked version (read-back audits)
  kMissing,         ///< no value, but the key was written and acked
};

const char* verdict_name(Verdict verdict);

class Model {
 public:
  explicit Model(std::size_t value_bytes) : value_bytes_(value_bytes) {}

  /// Next version for `key`: 1, 2, 3, ... so every version in
  /// [1, issued] was handed out exactly once.
  std::uint64_t issue(const std::string& key);
  /// The fleet acknowledged the put of (key, version).
  void ack(const std::string& key, std::uint64_t version);
  /// A put carrying a TTL: once its deadline has passed, the key must read
  /// as missing. TTL'd keys are never part of the read-back audits.
  void note_ttl(const std::string& key);

  /// Judges a get reply seen while writes were in flight: any issued
  /// version is acceptable, provided its bytes match.
  [[nodiscard]] Verdict check_get(const std::string& key,
                                  std::optional<std::uint64_t> version,
                                  const std::uint8_t* data,
                                  std::size_t size) const;
  /// Judges a read-back after quiescence: the reply must be the newest
  /// acked version or a newer issued one, with matching bytes.
  [[nodiscard]] Verdict check_readback(const std::string& key,
                                       std::optional<std::uint64_t> version,
                                       const std::uint8_t* data,
                                       std::size_t size) const;
  /// A TTL'd key read after its deadline passes only when it is missing.
  [[nodiscard]] static bool ttl_expired_ok(bool served) { return !served; }

  /// Keys with at least one acked put (excluding TTL'd keys), sorted.
  [[nodiscard]] std::vector<std::string> acked_keys() const;
  /// TTL'd keys, sorted.
  [[nodiscard]] std::vector<std::string> ttl_keys() const;

 private:
  struct KeyState {
    std::uint64_t issued = 0;
    std::uint64_t acked = 0;
  };

  Verdict judge(const std::string& key, std::optional<std::uint64_t> version,
                const std::uint8_t* data, std::size_t size,
                bool require_acked) const;

  std::size_t value_bytes_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, KeyState> keys_;
  std::vector<std::string> ttl_keys_;
};

}  // namespace fleetbench
