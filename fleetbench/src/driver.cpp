// fleet_driver: the benchmark's load generator. One process, at most two
// client threads, each owning a real-time runtime, a UDP socket and a
// client::Client. The orchestrator (run.py) boots the fleet and sends this
// process one command per line on stdin; every command answers with one
// JSON line on stdout.
//
//   probe                              puts of 8 fresh probe keys
//   load                               put every record key once
//   paced SECONDS RATE GET_SHARE ROUND TTL_MS
//                                      open loop, precise pacing
//   closed SECONDS STREAMS GET_SHARE   closed loop at fixed concurrency:
//                                      STREAMS envelopes of kClosedBatch ops
//                                      in flight per client thread
//   ttl_audit                          every TTL'd key must read as missing,
//                                      a live control key in each envelope
//                                      must read back
//   readback NODES                     every acked put reads back (>= acked)
//   batch COUNT NODES                  fresh writes through NODES only
//   contacts NODES                     restrict contacts (e.g. "0,1")
//   pids PID...                        server processes for CPU accounting
//   codec                              codec replay of the paced ops
//   replay DIR durable|memory          store + anti-entropy replay
//   quit
//
// Every answer is checked against the oracle (oracle.hpp), which derives
// each value's bytes from (key, version) and never trusts the fleet.
#include <dirent.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "client/load_balancer.hpp"
#include "common/rng.hpp"
#include "core/messages.hpp"
#include "json_out.hpp"
#include "net/udp_transport.hpp"
#include "oracle.hpp"
#include "replay.hpp"
#include "runtime/real_time_runtime.hpp"
#include "server/config.hpp"
#include "workload/distributions.hpp"

namespace fleetbench {
namespace {

using namespace dataflasks;

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

/// A phase that cannot finish leaves callbacks pointing into its frame;
/// the run is invalid anyway, so the driver ends at once.
[[noreturn]] void fatal(const char* what) {
  std::fprintf(stderr, "fleet_driver: %s\n", what);
  std::fflush(stdout);
  std::_Exit(3);
}

void sleep_until_ns(std::int64_t deadline) {
  timespec ts{};
  ts.tv_sec = deadline / 1000000000LL;
  ts.tv_nsec = deadline % 1000000000LL;
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// CPU time (ns) of every thread of `pid`, from /proc/<pid>/task/*/schedstat.
std::uint64_t process_cpu_ns(int pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  std::uint64_t total = 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (const dirent* entry = ::readdir(d)) {
    if (entry->d_name[0] == '.') continue;
    const std::string path = dir + "/" + entry->d_name + "/schedstat";
    if (std::FILE* f = std::fopen(path.c_str(), "r")) {
      unsigned long long ns = 0;
      if (std::fscanf(f, "%llu", &ns) == 1) total += ns;
      std::fclose(f);
    }
  }
  ::closedir(d);
  return total;
}

struct DriverOptions {
  std::vector<server::PeerSpec> peers;
  std::size_t value_bytes = 100;
  std::size_t records = 1000;
  std::uint64_t seed = 1;
  std::size_t threads = 2;
  bool zipf = false;
};

enum class Kind : std::uint8_t { kGet, kPut, kTtlPut };

/// Keys per readiness probe: enough that, whatever the server's shard
/// count, every shard's partition almost surely owns one of them.
constexpr std::size_t kProbeKeys = 8;

/// Keyspace load rate (puts/s, open loop). A closed-loop burst of acked
/// puts outruns replication under --shards 2, leaving anti-entropy seconds
/// of repair; a paced load replicates as it goes.
constexpr double kLoadRate = 20000;

/// Ops per envelope in the closed loop.
constexpr std::size_t kClosedBatch = 8;

/// One generated operation, kept for the codec and store replays.
struct GenOp {
  Kind kind = Kind::kGet;
  std::string key;
  std::uint64_t version = 0;  ///< puts only
};

/// Outcome tallies of one phase, owned by one worker thread.
struct PhaseStats {
  std::vector<std::int64_t> get_ns;
  std::vector<std::int64_t> put_ns;
  std::vector<std::int64_t> late_ns;
  std::uint64_t gets_ok = 0, gets_failed = 0;
  std::uint64_t puts_ok = 0, puts_failed = 0;
  std::uint64_t ttl_puts_ok = 0, ttl_puts_failed = 0;
  std::uint64_t wrong = 0;  ///< replies the oracle rejected
  std::uint64_t attempts = 0;
  std::int64_t execute_ns = 0;  ///< time inside Client::execute (open loop)
  std::int64_t last_issue_ns = 0;
  std::string first_wrong;

  void merge(const PhaseStats& o) {
    get_ns.insert(get_ns.end(), o.get_ns.begin(), o.get_ns.end());
    put_ns.insert(put_ns.end(), o.put_ns.begin(), o.put_ns.end());
    late_ns.insert(late_ns.end(), o.late_ns.begin(), o.late_ns.end());
    gets_ok += o.gets_ok;
    gets_failed += o.gets_failed;
    puts_ok += o.puts_ok;
    puts_failed += o.puts_failed;
    ttl_puts_ok += o.ttl_puts_ok;
    ttl_puts_failed += o.ttl_puts_failed;
    wrong += o.wrong;
    attempts += o.attempts;
    execute_ns += o.execute_ns;
    last_issue_ns = std::max(last_issue_ns, o.last_issue_ns);
    if (first_wrong.empty()) first_wrong = o.first_wrong;
  }
  [[nodiscard]] std::uint64_t ok() const {
    return gets_ok + puts_ok + ttl_puts_ok;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return gets_failed + puts_failed + ttl_puts_failed;
  }
};

/// One open-loop op with its intended send time and pre-derived value.
struct Scheduled {
  GenOp op;
  Payload value;
  std::int64_t intended = 0;
};

/// Counts outstanding ops across workers; the main thread waits on it.
class Outstanding {
 public:
  void add(std::size_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    n_ += n;
  }
  void done() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--n_ == 0) cv_.notify_all();
  }
  /// False when ops are still outstanding after `timeout_ms`.
  bool wait(std::int64_t timeout_ms) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [this]() { return n_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t n_ = 0;
};

double quantile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return static_cast<double>(v[std::min(idx, v.size() - 1)]);
}

/// Latency quantiles for the ledger: p10 p25 p50 p75 p90 p95 p99 p99.9.
Json cdf(std::vector<std::int64_t>& v) {
  Json j;
  for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
    char name[16];
    std::snprintf(name, sizeof name, "p%g", q * 100);
    j.add(name, quantile(v, q) / 1e3);
  }
  return j;
}

/// One client thread: runtime, transports and clients live here and are
/// only touched on this thread once it runs.
class Worker {
 public:
  Worker(std::size_t index, const DriverOptions& options, Model& model)
      : model_(model),
        value_bytes_(options.value_bytes),
        rt_(options.seed * 7919 + index),
        udp_(rt_, {}),
        balancer_(all_nodes(options), rt_.rng().fork(1)),
        // 8 attempts of 250 ms: a lost datagram costs a short retry instead
        // of a second, while the budget still outlasts a checkpoint stall.
        client_(client_id(index, 0), udp_, rt_, balancer_, rt_.rng().fork(2),
                client_options(250, 8)),
        // TTL checks expect silence; a short budget keeps the wait short,
        // while a served (unexpired) value still answers within it.
        ttl_client_(client_id(index, 1), udp_, rt_, balancer_,
                    rt_.rng().fork(3), client_options(400, 2)) {
    for (const server::PeerSpec& peer : options.peers) {
      udp_.add_peer(NodeId(peer.id), peer.host, peer.port);
    }
    timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (timer_fd_ < 0) fatal("timerfd_create failed");
    rt_.watch_fd(timer_fd_, [this]() { on_timer(); });
    thread_ = std::thread([this]() { rt_.run(); });
  }
  ~Worker() {
    rt_.stop();
    thread_.join();
    rt_.unwatch_fd(timer_fd_);
    ::close(timer_fd_);
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Runs `fn` on the worker thread and waits for it.
  template <typename Fn>
  void run_sync(Fn fn) {
    std::promise<void> done;
    rt_.post_from_any_thread([&]() {
      fn();
      done.set_value();
    });
    done.get_future().wait();
  }
  void post(std::function<void()> fn) {
    rt_.post_from_any_thread([fn = std::move(fn)]() { fn(); });
  }

  void set_contacts(std::vector<NodeId> nodes) {
    run_sync([&]() { balancer_.set_nodes(nodes); });
  }

  /// Starts an open-loop schedule on this worker: a timerfd with
  /// nanosecond resolution (the runtime's own timers round up to whole
  /// milliseconds) wakes the loop at each op's intended send time.
  /// Latency counts from that intended time.
  void start_paced(std::vector<Scheduled> schedule, std::uint32_t ttl_ms,
                   PhaseStats& stats, Outstanding& outstanding) {
    post([this, schedule = std::move(schedule), ttl_ms, &stats,
          &outstanding]() mutable {
      schedule_ = std::move(schedule);
      cursor_ = 0;
      ttl_ms_ = ttl_ms;
      paced_stats_ = &stats;
      paced_outstanding_ = &outstanding;
      arm_next();
    });
  }

  /// Issues a batch of ops in one envelope (closed loop, load, audits).
  void issue_batch(std::vector<GenOp> batch, PhaseStats& stats,
                   bool readback, std::function<void()> done) {
    std::vector<core::Operation> ops;
    ops.reserve(batch.size());
    for (const GenOp& op : batch) {
      if (op.kind == Kind::kGet) {
        ops.push_back(core::Operation::get(op.key));
      } else {
        ops.push_back(core::Operation::put(
            op.key, op.version,
            Payload(derive_value(op.key, op.version, value_bytes_))));
      }
    }
    const std::int64_t start = now_ns();
    client_.execute(
        std::move(ops), [this, batch = std::move(batch), start, readback,
                         &stats, done = std::move(done)](
                            const std::vector<client::OpResult>& results) {
          const std::int64_t latency = now_ns() - start;
          for (std::size_t i = 0; i < results.size(); ++i) {
            if (readback) {
              record_readback(batch[i], results[i], stats);
            } else {
              record(batch[i], results[i], latency, stats);
            }
          }
          done();
        });
  }

  /// TTL expiry check: the keys must not be served, while `control`, a
  /// live acked key in the same envelope, must be. A fleet that answers
  /// nothing therefore cannot pass for one that expired the keys.
  void check_ttl(std::vector<std::string> keys, std::string control,
                 PhaseStats& stats, std::function<void()> done) {
    std::vector<core::Operation> ops;
    for (const std::string& key : keys) ops.push_back(core::Operation::get(key));
    ops.push_back(core::Operation::get(control));
    ttl_client_.execute(
        std::move(ops), [this, keys = std::move(keys),
                         control = std::move(control), &stats,
                         done = std::move(done)](
                            const std::vector<client::OpResult>& results) {
          for (std::size_t i = 0; i < keys.size(); ++i) {
            if (Model::ttl_expired_ok(results[i].ok)) {
              ++stats.gets_ok;
            } else {
              ++stats.gets_failed;
              if (stats.first_wrong.empty()) {
                stats.first_wrong = "ttl key served after deadline: " + keys[i];
              }
            }
          }
          const Verdict v = readback_verdict(control, results.back());
          if (v != Verdict::kOk) {
            note_wrong(stats, std::string(verdict_name(v)) +
                                  " control get of " + control);
          }
          done();
        });
  }

 private:
  static NodeId client_id(std::size_t index, std::size_t role) {
    const auto pid = static_cast<std::uint64_t>(::getpid());
    return NodeId(0xBE00000000000000ULL | ((pid & 0xFFFFFF) << 16) |
                  (role << 8) | index);
  }
  static std::vector<NodeId> all_nodes(const DriverOptions& options) {
    std::vector<NodeId> out;
    for (const server::PeerSpec& peer : options.peers) out.emplace_back(peer.id);
    return out;
  }
  static client::ClientOptions client_options(std::int64_t timeout_ms,
                                              std::uint32_t attempts) {
    client::ClientOptions o;
    o.request_timeout = timeout_ms * kMillis;
    o.max_attempts = attempts;
    return o;
  }

  void arm_next() {
    if (cursor_ >= schedule_.size()) return;
    itimerspec spec{};
    const std::int64_t at = schedule_[cursor_].intended;
    spec.it_value.tv_sec = at / 1000000000LL;
    spec.it_value.tv_nsec = at % 1000000000LL;
    ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
  }

  /// Issues every op that is due, then re-arms for the next one.
  void on_timer() {
    std::uint64_t expirations = 0;
    while (::read(timer_fd_, &expirations, sizeof expirations) > 0) {
    }
    const std::int64_t now = now_ns();
    while (cursor_ < schedule_.size() && schedule_[cursor_].intended <= now) {
      Scheduled& next = schedule_[cursor_++];
      PhaseStats& stats = *paced_stats_;
      stats.late_ns.push_back(now_ns() - next.intended);
      stats.last_issue_ns = now_ns();
      std::vector<core::Operation> ops;
      if (next.op.kind == Kind::kGet) {
        ops.push_back(core::Operation::get(next.op.key));
      } else {
        ops.push_back(core::Operation::put(
            next.op.key, next.op.version, std::move(next.value),
            next.op.kind == Kind::kTtlPut ? ttl_ms_ : 0));
      }
      const std::int64_t span_start = now_ns();
      client_.execute(
          std::move(ops),
          [this, op = next.op, intended = next.intended, &stats,
           outstanding = paced_outstanding_](
              const std::vector<client::OpResult>& r) {
            record(op, r.front(), now_ns() - intended, stats);
            outstanding->done();
          });
      stats.execute_ns += now_ns() - span_start;
    }
    arm_next();
  }

  void note_wrong(PhaseStats& stats, const std::string& what) {
    ++stats.wrong;
    if (stats.first_wrong.empty()) stats.first_wrong = what;
  }

  void record(const GenOp& op, const client::OpResult& r,
              std::int64_t latency, PhaseStats& stats) {
    stats.attempts += r.attempts;
    if (op.kind == Kind::kGet) {
      if (!r.ok) {
        ++stats.gets_failed;
        return;
      }
      ++stats.gets_ok;
      stats.get_ns.push_back(latency);
      const Verdict v = model_.check_get(op.key, r.object.version,
                                         r.object.value.data(),
                                         r.object.value.size());
      if (v != Verdict::kOk) {
        note_wrong(stats, std::string(verdict_name(v)) + " get of " + op.key);
      }
      return;
    }
    const bool ttl = op.kind == Kind::kTtlPut;
    if (!r.ok) {
      ++(ttl ? stats.ttl_puts_failed : stats.puts_failed);
      return;
    }
    ++(ttl ? stats.ttl_puts_ok : stats.puts_ok);
    stats.put_ns.push_back(latency);
    if (!ttl) model_.ack(op.key, op.version);
  }

  Verdict readback_verdict(const std::string& key, const client::OpResult& r) {
    const std::optional<std::uint64_t> version =
        r.ok ? std::optional<std::uint64_t>(r.object.version) : std::nullopt;
    return model_.check_readback(key, version,
                                 r.ok ? r.object.value.data() : nullptr,
                                 r.ok ? r.object.value.size() : 0);
  }

  void record_readback(const GenOp& op, const client::OpResult& r,
                       PhaseStats& stats) {
    stats.attempts += r.attempts;
    const Verdict v = readback_verdict(op.key, r);
    if (v == Verdict::kOk) {
      ++stats.gets_ok;
    } else {
      ++stats.gets_failed;
      note_wrong(stats, std::string(verdict_name(v)) + " read-back of " +
                            op.key);
    }
  }

  Model& model_;
  std::size_t value_bytes_;
  runtime::RealTimeRuntime rt_;
  net::UdpTransport udp_;
  /// The client library's own policy; the orchestrator narrows its
  /// contacts around crashes.
  client::RandomLoadBalancer balancer_;
  client::Client client_;
  client::Client ttl_client_;
  int timer_fd_ = -1;
  std::vector<Scheduled> schedule_;
  std::size_t cursor_ = 0;
  std::uint32_t ttl_ms_ = 0;
  PhaseStats* paced_stats_ = nullptr;
  Outstanding* paced_outstanding_ = nullptr;
  std::thread thread_;
};

class Driver {
 public:
  explicit Driver(DriverOptions options)
      : options_(std::move(options)),
        model_(options_.value_bytes),
        rng_(options_.seed) {
    if (options_.zipf) {
      dist_ = std::make_unique<workload::ScrambledZipfianDistribution>(
          options_.records);
    } else {
      dist_ = std::make_unique<workload::UniformDistribution>(options_.records);
    }
    for (std::size_t i = 0; i < options_.threads; ++i) {
      workers_.push_back(std::make_unique<Worker>(i, options_, model_));
    }
  }

  std::string handle(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "probe") return batch(kProbeKeys, "", "probe");
    if (cmd == "load") return load();
    if (cmd == "paced") {
      double seconds = 0, rate = 0, get_share = 0;
      std::size_t round = 0;
      std::uint32_t ttl_ms = 0;
      in >> seconds >> rate >> get_share >> round >> ttl_ms;
      return paced(seconds, rate, get_share, round, ttl_ms);
    }
    if (cmd == "closed") {
      double seconds = 0, get_share = 0;
      std::size_t streams = 0;
      in >> seconds >> streams >> get_share;
      return closed(seconds, streams, get_share);
    }
    if (cmd == "ttl_audit") return ttl_audit();
    if (cmd == "readback") {
      std::string nodes;
      in >> nodes;
      return readback(nodes);
    }
    if (cmd == "batch") {
      std::size_t count = 0;
      std::string nodes;
      in >> count >> nodes;
      return batch(count, nodes, "down");
    }
    if (cmd == "contacts") {
      std::string nodes;
      in >> nodes;
      set_contacts(nodes);
      return Json().add("ok", true).str();
    }
    if (cmd == "pids") {
      pids_.clear();
      int pid = 0;
      while (in >> pid) pids_.push_back(pid);
      return Json().add("ok", true).str();
    }
    if (cmd == "codec") return codec_replay(paced_ops_).str();
    if (cmd == "replay") {
      std::string dir, kind;
      in >> dir >> kind;
      return replay(dir, kind == "durable");
    }
    return Json().add("error", "unknown command " + cmd).str();
  }

 private:
  std::uint64_t servers_cpu_ns() const {
    std::uint64_t total = 0;
    for (const int pid : pids_) total += process_cpu_ns(pid);
    return total;
  }

  void set_contacts(const std::string& list) {
    std::vector<NodeId> nodes;
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) nodes.emplace_back(std::stoull(item));
    for (auto& w : workers_) w->set_contacts(nodes);
  }

  std::string record_key(std::uint64_t index) const {
    return "k" + std::to_string(index);
  }

  GenOp next_op(double get_share) {
    GenOp op;
    op.key = record_key(dist_->next(rng_));
    const double u =
        static_cast<double>(rng_.next_u64() >> 11) * 0x1.0p-53;
    if (u < get_share) {
      op.kind = Kind::kGet;
    } else {
      op.kind = Kind::kPut;
      op.version = model_.issue(op.key);
    }
    return op;
  }

  /// Closed loop over `source` until it yields nothing: `streams`
  /// envelopes of up to `batch` ops in flight per worker.
  PhaseStats run_closed(std::size_t streams, std::size_t batch,
                        const std::function<bool(GenOp&)>& source,
                        bool readback, std::int64_t timeout_ms) {
    const std::size_t threads = workers_.size();
    std::vector<std::unique_ptr<PhaseStats>> stats;
    std::mutex source_mu;
    Outstanding outstanding;
    auto take = [&](std::vector<GenOp>& out) {
      std::lock_guard<std::mutex> lock(source_mu);
      GenOp op;
      while (out.size() < batch && source(op)) out.push_back(std::move(op));
      return !out.empty();
    };
    std::vector<std::function<void()>> loops(threads);
    for (std::size_t w = 0; w < threads; ++w) {
      stats.push_back(std::make_unique<PhaseStats>());
    }
    for (std::size_t w = 0; w < threads; ++w) {
      Worker* worker = workers_[w].get();
      PhaseStats* st = stats[w].get();
      std::function<void()>* loop = &loops[w];
      *loop = [&take, &outstanding, worker, st, loop, readback]() {
        std::vector<GenOp> ops;
        if (!take(ops)) {
          outstanding.done();
          return;
        }
        worker->issue_batch(std::move(ops), *st, readback, *loop);
      };
      for (std::size_t s = 0; s < streams; ++s) {
        outstanding.add();
        worker->post(*loop);
      }
    }
    if (!outstanding.wait(timeout_ms)) fatal("closed loop did not drain");
    PhaseStats total;
    for (std::size_t w = 0; w < threads; ++w) {
      workers_[w]->run_sync([&]() { total.merge(*stats[w]); });
    }
    return total;
  }

  /// Puts every record key once, open-loop at kLoadRate puts/s.
  std::string load() {
    std::vector<GenOp> ops(options_.records);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      ops[i].kind = Kind::kPut;
      ops[i].key = record_key(i);
      ops[i].version = model_.issue(ops[i].key);
    }
    const std::int64_t start = now_ns();
    const PhaseStats st = run_schedule(ops, kLoadRate, 0).stats;
    return Json()
        .add("ok", st.failed() == 0 && st.wrong == 0 && st.first_wrong.empty())
        .add("puts_ok", st.puts_ok)
        .add("puts_failed", st.puts_failed)
        .add("attempts", st.attempts)
        .add("seconds", static_cast<double>(now_ns() - start) * 1e-9)
        .add("first_wrong", st.first_wrong)
        .str();
  }

  struct ScheduleRun {
    PhaseStats stats;
    std::int64_t t0 = 0, end = 0;
    std::uint64_t server_cpu_ns = 0, driver_cpu_ns = 0;
  };

  /// Sends `ops` open-loop: op i is due at t0 + i / rate, on worker
  /// i % threads. Values are derived before the clock starts, so the timed
  /// phase only sends. CPU is read right around the phase.
  ScheduleRun run_schedule(const std::vector<GenOp>& ops, double rate,
                           std::uint32_t ttl_ms) {
    const double period_ns = 1e9 / rate;
    std::vector<std::unique_ptr<PhaseStats>> stats;
    std::vector<std::vector<Scheduled>> schedules(workers_.size());
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      stats.push_back(std::make_unique<PhaseStats>());
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
      Scheduled item;
      item.op = ops[i];
      if (item.op.kind != Kind::kGet) {
        item.value = Payload(
            derive_value(item.op.key, item.op.version, options_.value_bytes));
      }
      item.intended =
          static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
      schedules[i % workers_.size()].push_back(std::move(item));
    }
    Outstanding outstanding;
    outstanding.add(ops.size());
    ScheduleRun run;
    const std::uint64_t cpu0 = servers_cpu_ns();
    const std::uint64_t self0 = process_cpu_ns(::getpid());
    run.t0 = now_ns() + 2000000;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      for (Scheduled& item : schedules[w]) item.intended += run.t0;
      workers_[w]->start_paced(std::move(schedules[w]), ttl_ms, *stats[w],
                               outstanding);
    }
    const auto budget_ms = static_cast<std::int64_t>(
        static_cast<double>(ops.size()) / rate * 1000.0);
    if (!outstanding.wait(budget_ms + 30000)) {
      fatal("open-loop phase did not drain");
    }
    run.end = now_ns();
    run.server_cpu_ns = servers_cpu_ns() - cpu0;
    run.driver_cpu_ns = process_cpu_ns(::getpid()) - self0;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      workers_[w]->run_sync([&]() { run.stats.merge(*stats[w]); });
    }
    return run;
  }

  std::string paced(double seconds, double rate, double get_share,
                    std::size_t round, std::uint32_t ttl_ms) {
    const std::size_t rounds = std::max<std::size_t>(
        1, static_cast<std::size_t>(seconds * rate / static_cast<double>(round)));
    const std::size_t total = rounds * round;
    paced_ops_.clear();
    paced_ops_.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      GenOp op;
      if (ttl_ms > 0 && i % round == 0) {
        // One TTL'd put per round on a key of its own: the same keys in
        // every run, whatever the seed.
        op.kind = Kind::kTtlPut;
        op.key = "ttl" + std::to_string(i / round);
        op.version = model_.issue(op.key);
        model_.note_ttl(op.key);
      } else {
        op = next_op(get_share);
      }
      paced_ops_.push_back(std::move(op));
    }
    ScheduleRun run = run_schedule(paced_ops_, rate, ttl_ms);
    PhaseStats& st = run.stats;
    const std::int64_t t0 = run.t0;
    const std::int64_t end = run.end;
    ttl_deadline_ns_ = end + static_cast<std::int64_t>(ttl_ms) * 1000000LL;
    const std::int64_t issue_end = st.last_issue_ns;
    const double offered_s = static_cast<double>(total) / rate;
    const double issue_s = static_cast<double>(issue_end - t0) * 1e-9;
    Json j;
    j.add("ops", static_cast<std::uint64_t>(total))
        .add("rounds", static_cast<std::uint64_t>(rounds))
        .add("gets_ok", st.gets_ok)
        .add("gets_failed", st.gets_failed)
        .add("puts_ok", st.puts_ok)
        .add("puts_failed", st.puts_failed)
        .add("ttl_puts_ok", st.ttl_puts_ok)
        .add("ttl_puts_failed", st.ttl_puts_failed)
        .add("wrong", st.wrong)
        .add("first_wrong", st.first_wrong)
        .add("attempts", st.attempts)
        .add("execute_ns_per_op",
             static_cast<double>(st.execute_ns) / static_cast<double>(total))
        .add("offered_ops_s", rate)
        .add("achieved_ops_s", static_cast<double>(total - 1) / issue_s)
        .add("offered_s", offered_s)
        .add("elapsed_s", static_cast<double>(end - t0) * 1e-9)
        .add("get_p50_us", quantile(st.get_ns, 0.50) / 1e3)
        .add("get_p90_us", quantile(st.get_ns, 0.90) / 1e3)
        .add("get_p99_us", quantile(st.get_ns, 0.99) / 1e3)
        .add("put_p50_us", quantile(st.put_ns, 0.50) / 1e3)
        .add("put_p90_us", quantile(st.put_ns, 0.90) / 1e3)
        .add("put_p99_us", quantile(st.put_ns, 0.99) / 1e3)
        .add("get_cdf_us", cdf(st.get_ns))
        .add("put_cdf_us", cdf(st.put_ns))
        .add("late_p50_us", quantile(st.late_ns, 0.50) / 1e3)
        .add("late_p99_us", quantile(st.late_ns, 0.99) / 1e3)
        .add("late_max_us", quantile(st.late_ns, 1.0) / 1e3)
        .add("server_cpu_ns", run.server_cpu_ns)
        .add("driver_cpu_ns", run.driver_cpu_ns);
    return j.str();
  }

  std::string closed(double seconds, std::size_t streams, double get_share) {
    const std::uint64_t cpu0 = servers_cpu_ns();
    const std::uint64_t self0 = process_cpu_ns(::getpid());
    const std::int64_t start = now_ns();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(seconds * 1e9);
    PhaseStats st = run_closed(
        streams, kClosedBatch,
        [&](GenOp& op) {
          if (now_ns() >= deadline) return false;
          op = next_op(get_share);
          return true;
        },
        false, static_cast<std::int64_t>(seconds * 1000) + 30000);
    const std::int64_t end = now_ns();
    const std::uint64_t cpu1 = servers_cpu_ns();
    const std::uint64_t self1 = process_cpu_ns(::getpid());
    const double elapsed = static_cast<double>(end - start) * 1e-9;
    return Json()
        .add("ops_ok", st.ok())
        .add("ops_failed", st.failed())
        .add("wrong", st.wrong)
        .add("first_wrong", st.first_wrong)
        .add("attempts", st.attempts)
        .add("elapsed_s", elapsed)
        .add("ops_s", static_cast<double>(st.ok()) / elapsed)
        .add("server_cpu_ns", cpu1 - cpu0)
        .add("driver_cpu_ns", self1 - self0)
        .str();
  }

  std::string ttl_audit() {
    const auto keys = model_.ttl_keys();
    const auto controls = model_.acked_keys();
    if (controls.empty()) fatal("TTL audit has no acked key to control with");
    // Read a good while after the last deadline: expiry is judged on the
    // replicas' clocks, and every TTL'd put has been acked by now.
    sleep_until_ns(ttl_deadline_ns_ + 500000000LL);
    std::vector<std::unique_ptr<PhaseStats>> stats;
    Outstanding outstanding;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      stats.push_back(std::make_unique<PhaseStats>());
    }
    constexpr std::size_t kPerEnvelope = 8;
    for (std::size_t i = 0; i < keys.size(); i += kPerEnvelope) {
      std::vector<std::string> chunk(
          keys.begin() + static_cast<std::ptrdiff_t>(i),
          keys.begin() + static_cast<std::ptrdiff_t>(
                             std::min(keys.size(), i + kPerEnvelope)));
      const std::size_t envelope = i / kPerEnvelope;
      std::string control = controls[envelope % controls.size()];
      Worker* worker = workers_[envelope % workers_.size()].get();
      PhaseStats* st = stats[envelope % workers_.size()].get();
      outstanding.add();
      worker->post([worker, chunk = std::move(chunk),
                    control = std::move(control), st, &outstanding]() {
        worker->check_ttl(chunk, control, *st,
                          [&outstanding]() { outstanding.done(); });
      });
    }
    if (!outstanding.wait(30000)) fatal("TTL audit did not drain");
    PhaseStats st;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      workers_[w]->run_sync([&]() { st.merge(*stats[w]); });
    }
    return Json()
        .add("checked", static_cast<std::uint64_t>(keys.size()))
        .add("expired", st.gets_ok)
        .add("served", st.gets_failed)
        .add("controls_wrong", st.wrong)
        .add("first_wrong", st.first_wrong)
        .str();
  }

  std::string readback(const std::string& nodes) {
    set_contacts(nodes);
    const std::vector<std::string> keys = model_.acked_keys();
    std::size_t next = 0;
    PhaseStats st = run_closed(
        8, 16,
        [&](GenOp& op) {
          if (next >= keys.size()) return false;
          op.kind = Kind::kGet;
          op.key = keys[next++];
          return true;
        },
        true, 60000);
    return Json()
        .add("checked", static_cast<std::uint64_t>(keys.size()))
        .add("ok", st.gets_ok)
        .add("failed", st.gets_failed)
        .add("first_wrong", st.first_wrong)
        .str();
  }

  /// `count` puts of fresh keys named after `prefix`; "" keeps contacts.
  std::string batch(std::size_t count, const std::string& nodes,
                    const std::string& prefix) {
    if (!nodes.empty()) set_contacts(nodes);
    const std::size_t tag = batches_++;
    std::size_t next = 0;
    const std::int64_t start = now_ns();
    PhaseStats st = run_closed(
        4, 8,
        [&](GenOp& op) {
          if (next >= count) return false;
          op.kind = Kind::kPut;
          op.key = prefix + std::to_string(tag) + "-" + std::to_string(next++);
          op.version = model_.issue(op.key);
          return true;
        },
        false, 60000);
    return Json()
        .add("puts_ok", st.puts_ok)
        .add("puts_failed", st.puts_failed)
        .add("first_wrong", st.first_wrong)
        .add("seconds", static_cast<double>(now_ns() - start) * 1e-9)
        .str();
  }

  std::string replay(const std::string& dir, bool durable_store) {
    std::vector<ReplayOp> ops;
    ops.reserve(options_.records + paced_ops_.size());
    for (std::uint64_t i = 0; i < options_.records; ++i) {
      ops.push_back({true, record_key(i), 1});
    }
    for (const GenOp& op : paced_ops_) {
      ops.push_back({op.kind != Kind::kGet, op.key, op.version});
    }
    return store_replay(ops, options_.value_bytes, dir, durable_store).str();
  }

  DriverOptions options_;
  Model model_;
  Rng rng_;
  std::unique_ptr<workload::IntegerDistribution> dist_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<int> pids_;
  std::vector<GenOp> paced_ops_;
  std::int64_t ttl_deadline_ns_ = 0;
  std::size_t batches_ = 0;

  Json codec_replay(const std::vector<GenOp>& ops) const;
};

/// Times the op-envelope and reply codecs over the paced phase's ops, one
/// envelope per op as the client sends them.
Json Driver::codec_replay(const std::vector<GenOp>& ops) const {
  std::int64_t enc = 0, dec = 0, reply_dec = 0;
  std::size_t n = 0;
  std::uint64_t seq = 1;
  for (const GenOp& op : ops) {
    core::OpEnvelope env;
    core::RoutedOp routed;
    routed.rid = RequestId{0xBE, seq++};
    const Payload value(derive_value(op.key, op.version, options_.value_bytes));
    routed.op = op.kind == Kind::kGet
                    ? core::Operation::get(op.key)
                    : core::Operation::put(op.key, op.version, value);
    env.ops.push_back(std::move(routed));
    core::OpReplyBatch reply;
    reply.replica = NodeId(1);
    core::OpReply r;
    r.rid = env.ops.front().rid;
    r.type = env.ops.front().op.type;
    r.object.key = op.key;
    r.object.version = op.version == 0 ? 1 : op.version;
    if (op.kind == Kind::kGet) r.object.value = value;
    reply.replies.push_back(std::move(r));
    const Payload reply_bytes = core::encode(reply);

    std::int64_t t = now_ns();
    const Payload bytes = core::encode(env);
    enc += now_ns() - t;
    t = now_ns();
    const auto decoded = core::decode_op_envelope(bytes);
    dec += now_ns() - t;
    t = now_ns();
    const auto decoded_reply = core::decode_op_reply_batch(reply_bytes);
    reply_dec += now_ns() - t;
    if (decoded.has_value() && decoded_reply.has_value()) ++n;
  }
  const double d = n > 0 ? static_cast<double>(n) : 1.0;
  return Json()
      .add("envelopes", static_cast<std::uint64_t>(n))
      .add("envelope_encode_ns", static_cast<double>(enc) / d)
      .add("envelope_decode_ns", static_cast<double>(dec) / d)
      .add("reply_decode_ns", static_cast<double>(reply_dec) / d);
}

int usage() {
  std::fprintf(stderr,
               "usage: fleet_driver --peer ID@HOST:PORT [--peer ...] "
               "[--value-bytes N] [--records N] [--seed N] [--zipf]\n");
  return 2;
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) {
  using namespace fleetbench;
  DriverOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--zipf") {
      options.zipf = true;
    } else if (value == nullptr) {
      return usage();
    } else if (arg == "--peer") {
      dataflasks::server::PeerSpec peer;
      if (!dataflasks::server::parse_peer_spec(value, peer)) return usage();
      options.peers.push_back(peer);
      ++i;
    } else if (arg == "--value-bytes") {
      options.value_bytes = std::strtoull(value, nullptr, 10);
      ++i;
    } else if (arg == "--records") {
      options.records = std::strtoull(value, nullptr, 10);
      ++i;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      ++i;
    } else {
      return usage();
    }
  }
  if (options.peers.empty() || options.records == 0) return usage();

  Driver driver(std::move(options));
  std::cout << Json().add("ready", true).str() << std::endl;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit") break;
    if (line.empty()) continue;
    std::cout << driver.handle(line) << std::endl;
  }
  return 0;
}
