#include "replay.hpp"

#include <chrono>
#include <deque>
#include <memory>
#include <unordered_set>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/anti_entropy.hpp"
#include "net/transport.hpp"
#include "oracle.hpp"
#include "store/memstore.hpp"
#include "store/storage_engine.hpp"

namespace fleetbench {
namespace {

using namespace dataflasks;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-process transport: sends queue up and the replay hands each message
/// to the addressed replica's AntiEntropy::handle, timing the call.
class QueueTransport final : public net::Transport {
 public:
  void send(net::Message msg) override { queue.push_back(std::move(msg)); }
  void register_handler(NodeId, Handler) override {}
  void unregister_handler(NodeId) override {}

  std::deque<net::Message> queue;
};

}  // namespace

Json store_replay(const std::vector<ReplayOp>& ops, std::size_t value_bytes,
                  const std::string& dir, bool durable_store) {
  std::unique_ptr<store::Store> primary;
  store::StorageEngine* engine = nullptr;
  if (durable_store) {
    auto durable = std::make_unique<store::StorageEngine>(dir + "/replay");
    if (!durable->open_status().ok()) {
      return Json().add("error", durable->open_status().error().message);
    }
    engine = durable.get();
    primary = std::move(durable);
  } else {
    primary = std::make_unique<store::MemStore>();
  }
  store::MemStore lagging;

  std::size_t puts = 0;
  for (const ReplayOp& op : ops) puts += op.put ? 1 : 0;
  const std::size_t cutoff = puts - puts / 10;

  std::int64_t put_ns = 0, get_ns = 0;
  std::size_t put_n = 0, get_n = 0, misses = 0;
  std::unordered_set<std::string> keys;
  for (const ReplayOp& op : ops) {
    if (op.put) {
      store::Object obj;
      obj.key = op.key;
      obj.version = op.version;
      obj.value = Payload(derive_value(op.key, op.version, value_bytes));
      const std::int64_t t = now_ns();
      const Status status = primary->put(obj);
      put_ns += now_ns() - t;
      if (!status.ok()) ++misses;
      if (put_n < cutoff) (void)lagging.put(obj);
      ++put_n;
      keys.insert(op.key);
    } else {
      const std::int64_t t = now_ns();
      const auto got = primary->get(op.key, std::nullopt);
      get_ns += now_ns() - t;
      if (!got.ok()) ++misses;
      ++get_n;
    }
  }

  // Anti-entropy between the full replica and the lagging one.
  QueueTransport transport;
  MetricsRegistry metrics_a, metrics_b;
  const NodeId a_id(1), b_id(2);
  const auto one_slice = []() { return SliceId{0}; };
  const auto key_slice = [](const Key&) { return SliceId{0}; };
  core::AntiEntropy ae_a(a_id, transport, *primary, Rng(11), {}, one_slice,
                         key_slice,
                         [b_id](std::size_t) { return std::vector<NodeId>{b_id}; },
                         metrics_a);
  core::AntiEntropy ae_b(b_id, transport, lagging, Rng(12), {}, one_slice,
                         key_slice,
                         [a_id](std::size_t) { return std::vector<NodeId>{a_id}; },
                         metrics_b);
  std::int64_t handle_ns = 0;
  std::size_t handled = 0, rounds = 0;
  const auto drain = [&]() {
    while (!transport.queue.empty()) {
      const net::Message msg = std::move(transport.queue.front());
      transport.queue.pop_front();
      core::AntiEntropy& target = msg.dst == a_id ? ae_a : ae_b;
      const std::int64_t t = now_ns();
      (void)target.handle(msg);
      handle_ns += now_ns() - t;
      ++handled;
    }
  };
  // Rounds until the replicas hold the same objects, or until rounds stop
  // repairing anything: summaries that compare equal end the exchange even
  // when entries are missing (an XOR fingerprint can cancel), and that
  // shortfall is reported, not waited out.
  std::size_t idle_rounds = 0;
  while (lagging.object_count() < primary->object_count() && idle_rounds < 5) {
    const std::size_t held = lagging.object_count();
    ae_b.tick();
    drain();
    ae_a.tick();
    drain();
    ++rounds;
    idle_rounds = lagging.object_count() > held ? 0 : idle_rounds + 1;
  }

  const auto mean = [](std::int64_t total, std::size_t n) {
    return n > 0 ? static_cast<double>(total) / static_cast<double>(n) : 0.0;
  };
  Json out;
  out.add("store_put_ns", mean(put_ns, put_n))
      .add("store_get_ns", mean(get_ns, get_n))
      .add("store_misses", static_cast<std::uint64_t>(misses))
      .add("versions_per_key",
           keys.empty() ? 0.0
                        : static_cast<double>(primary->object_count()) /
                              static_cast<double>(keys.size()))
      .add("ae_handle_us", mean(handle_ns, handled) / 1e3)
      .add("ae_messages", static_cast<std::uint64_t>(handled))
      .add("ae_rounds", static_cast<std::uint64_t>(rounds))
      .add("ae_repaired", metrics_b.counter_value("ae.objects_repaired"))
      .add("ae_unrepaired", static_cast<std::uint64_t>(
                                primary->object_count() - lagging.object_count()));

  // Checkpoint, then reopen, a StorageEngine holding the replayed store:
  // the workload's own engine, or a copy of its MemStore.
  std::unique_ptr<store::StorageEngine> copy;
  std::string base = dir + "/replay";
  if (engine == nullptr) {
    base = dir + "/copy";
    copy = std::make_unique<store::StorageEngine>(base);
    if (!copy->open_status().ok()) {
      return Json().add("error", copy->open_status().error().message);
    }
    primary->for_each([&](const store::Object& obj) { (void)copy->put(obj); });
    engine = copy.get();
  }
  std::int64_t t = now_ns();
  const bool checkpointed = engine->checkpoint().ok();
  out.add("checkpoint_ms", static_cast<double>(now_ns() - t) * 1e-6);
  const std::size_t held = engine->object_count();
  copy.reset();
  primary.reset();
  t = now_ns();
  const store::StorageEngine reopened(base);
  out.add("recovery_ms", static_cast<double>(now_ns() - t) * 1e-6)
      .add("recovered", checkpointed && reopened.open_status().ok() &&
                            reopened.object_count() == held);
  return out;
}

}  // namespace fleetbench
