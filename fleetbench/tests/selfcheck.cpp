// Self-check of the benchmark's oracle: it must catch a corrupted value, a
// lost acked write and a resurrected TTL'd key, and accept honest replies.
// Run it with `python3 fleetbench/run.py --self-check`.
#include <cstdio>
#include <string>
#include <vector>

#include "oracle.hpp"

namespace {

int failures = 0;

void check(bool condition, const char* what) {
  std::printf("%s %s\n", condition ? "PASS" : "FAIL", what);
  if (!condition) ++failures;
}

}  // namespace

int main() {
  using fleetbench::derive_value;
  using fleetbench::Model;
  using fleetbench::Verdict;

  const std::size_t size = 100;
  check(derive_value("k1", 3, size) == derive_value("k1", 3, size),
        "values derive deterministically from (key, version)");
  check(derive_value("k1", 3, size) != derive_value("k1", 4, size) &&
            derive_value("k1", 3, size) != derive_value("k2", 3, size),
        "different (key, version) pairs derive different bytes");

  Model model(size);
  const std::uint64_t v1 = model.issue("k1");
  const std::uint64_t v2 = model.issue("k1");
  model.ack("k1", v1);
  model.ack("k1", v2);
  const std::vector<std::uint8_t> good = derive_value("k1", v2, size);
  check(model.check_get("k1", v2, good.data(), good.size()) == Verdict::kOk,
        "an honest get reply is accepted");
  check(model.check_readback("k1", v2, good.data(), good.size()) ==
            Verdict::kOk,
        "an honest read-back is accepted");

  std::vector<std::uint8_t> corrupt = good;
  corrupt[size / 2] ^= 0x01;
  check(model.check_get("k1", v2, corrupt.data(), corrupt.size()) ==
            Verdict::kCorrupt,
        "a corrupted value is caught (one flipped bit)");
  const std::vector<std::uint8_t> truncated(good.begin(), good.end() - 1);
  check(model.check_get("k1", v2, truncated.data(), truncated.size()) ==
            Verdict::kCorrupt,
        "a truncated value is caught");
  check(model.check_get("k1", v2 + 5, good.data(), good.size()) ==
            Verdict::kUnknownVersion,
        "a version never issued is caught");

  const std::vector<std::uint8_t> older = derive_value("k1", v1, size);
  check(model.check_get("k1", v1, older.data(), older.size()) == Verdict::kOk,
        "an older issued version is fine while writes are in flight");
  check(model.check_readback("k1", v1, older.data(), older.size()) ==
            Verdict::kStale,
        "a lost acked write is caught: read-back returns an older version");
  check(model.check_readback("k1", std::nullopt, nullptr, 0) ==
            Verdict::kMissing,
        "a lost acked write is caught: read-back finds nothing");

  model.note_ttl("ttl0");
  check(model.acked_keys() == std::vector<std::string>{"k1"},
        "TTL'd keys stay out of the read-back audit");
  check(model.ttl_keys() == std::vector<std::string>{"ttl0"},
        "TTL'd keys are listed for the expiry audit");
  check(!Model::ttl_expired_ok(/*served=*/true),
        "a resurrected TTL'd key (served after its deadline) is caught");
  check(Model::ttl_expired_ok(/*served=*/false),
        "an expired TTL'd key that reads as missing passes");

  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
