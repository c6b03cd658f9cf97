#!/usr/bin/env python3
"""Fleet benchmark for DataFlasks: boots a fresh 3-process dataflasks_server
fleet on loopback per workload, drives it from one load-generator process
(fleet_driver, which links the client library), checks every answer against
the driver's own model, and prints every metric by name and unit.

    python3 fleetbench/run.py --workload read-mostly --seed 1 --seconds 10 --trace 0
    python3 fleetbench/run.py --self-check

Run it from the root of a checkout. The last line of standard output is the
result object; progress goes to standard error. Each run also writes a
per-run ledger (phase results, counter deltas, spans and replay timings) to
.fleetbench/ledger/. See fleetbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
WORK_DIR = ".fleetbench"
NODES = 3
SETUPS = 3  # fleet set-ups per run; setup_s is their median
RESTARTS = 7  # crash/restart cycles of node 2 per run; medians reported
AE_S = 0.5  # anti-entropy period of every node
# Restart k of node 2 is due RESTART_PERIOD_S after restart k - 1. The period
# outlasts a cycle and is whole anti-entropy periods plus 1/RESTARTS of one,
# so the restarts fall at evenly spaced phases of the anti-entropy timers of
# nodes 0 and 1 (fixed from their boot): catch-up ends on one of their
# rounds, and every run then samples the same phases.
RESTART_PERIOD_S = 3 * AE_S + AE_S / RESTARTS
CLOSED_WINDOW_S = 0.5  # closed-loop window; the rate reported is the median
CATCHUP_TIMEOUT_S = 60.0
# Share of --seconds spent in paced (open-loop) segments. It is split into
# SETUPS + 1 equal segments spread over the whole run: one on each set-up
# fleet torn down early, the main one right after the last set-up, and one
# after the restarts. Server CPU per op is their CPU over their ops.
PACED_SHARE = 0.8
# Round trips per core pair of the host-speed reference (fleet_pingpong),
# measured right before and right after every paced segment.
REF_ROUNDS = 3000
DOWN_WRITES = 200  # puts acked through nodes 0 and 1 while node 2 is down

# Shared by every workload: one slice, gossip 100 ms, AE 500 ms.
FLEET_FLAGS = ["--slices", "1", "--gossip-ms", "100",
               "--ae-ms", str(round(AE_S * 1000)), "--log-level", "warn"]

WORKLOADS = {
    # The op path does nearly all the work; AE sits converged.
    "read-mostly": dict(
        shards=1, store="memory", stream=False, zipf=True,
        records=10000, value_bytes=100, get_share=0.95,
        rate=12000, round=300, ttl_ms=500,
        closed_streams=32),
    # Every put is kept as a version and pushed to all replicas, so
    # replication and AE dominate; ShardGroup routes across 2 shards.
    "update-heavy": dict(
        shards=2, store="memory", stream=False, zipf=False,
        records=5000, value_bytes=100, get_share=0.5,
        rate=5000, round=250, ttl_ms=500,
        closed_streams=8),
    # Journal, checkpoints, snapshot+tail recovery, state transfer and the
    # stream transport do the work.
    "durable-restart": dict(
        shards=1, store="durable", stream=True, zipf=False,
        records=2000, value_bytes=1024, get_share=0.2,
        rate=1000, round=100, ttl_ms=0,
        closed_streams=4, compact_interval_sec=2),
}

# Only the metrics that repeat on a noisy shared host; the paced-phase
# latencies are per-layer (see fleetbench/README.md).
END_TO_END = {"setup_s": "s", "server_cpu_rt_per_op": "rt/op",
              "recovery_s": "s", "catchup_s": "s"}

PER_LAYER = {
    "server.cpu_us_per_op": "us/op",
    "host.round_trip_cpu_us": "us",
    "paced.get_p50_us": "us",
    "paced.put_p50_us": "us",
    "client.closed_loop_ops_s": "ops/s",
    "client.cpu_us_per_op": "us/op",
    "client.execute_ns": "ns",
    "client.attempts_per_op": "attempts/op",
    "codec.envelope_encode_ns": "ns",
    "codec.envelope_decode_ns": "ns",
    "codec.reply_decode_ns": "ns",
    "rh.get_exec_us": "us",
    "rh.put_exec_us": "us",
    "admission.loop_lag_us_max": "us",
    "admission.ops_shed": "count",
    "runtime.queue_depth_max": "count",
    "udp.datagrams_per_op": "datagrams/op",
    "udp.bytes_per_op": "bytes/op",
    "udp.kernel_drops": "count",
    "stream.frames_per_op": "frames/op",
    "stream.bytes_per_op": "bytes/op",
    "stream.catchup_bytes": "bytes",
    "push.objects_per_put": "objects/put",
    "ae.bytes_per_op": "bytes/op",
    "ae.handle_us": "us",
    "ae.replay_unrepaired": "count",
    "ae.converged_summary_ratio": "ratio",
    "ae.pull_entries": "count",
    "st.pages_served": "count",
    "st.bytes": "bytes",
    "store.put_ns": "ns",
    "store.get_ns": "ns",
    "store.versions_per_key": "versions/key",
    "store.checkpoint_ms": "ms",
    "store.checkpoints": "count",
    "store.recovery_ms": "ms",
    "store.disk_bytes_per_live_byte": "ratio",
    "shard.cross_shard_op_ratio": "ratio",
    "shard.forwarded_per_op": "forwards/op",
    "idle.server_cpu_ms_per_s": "ms/s",
}

# An open loop that cannot keep its schedule measures the generator, not
# the fleet: such a run is invalid.
MIN_ACHIEVED_SHARE = 0.98
MAX_LATE_P99_US = 50000.0


class BenchError(Exception):
    """The run cannot produce a valid measurement."""


def log(*parts):
    print("fleetbench:", *parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the server and the driver from source."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise BenchError("no DataFlasks sources here; run from a checkout root")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                    "fleet_driver", "fleet_selfcheck", "fleet_pingpong",
                    "dataflasks_server"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return {
        "server": os.path.join(BUILD_DIR, "dataflasks", "src", "server",
                               "dataflasks_server"),
        "driver": os.path.join(BUILD_DIR, "fleet_driver"),
        "selfcheck": os.path.join(BUILD_DIR, "fleet_selfcheck"),
        "pingpong": os.path.join(BUILD_DIR, "fleet_pingpong"),
    }


def cpu_sets():
    """One core per server (all its shard threads) and one for the load
    generator (plus this orchestrator), so the generator cannot pass for
    server capacity and thread placement is the same in every run. None on
    hosts under 4 cores."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < NODES + 1:
        return None
    sets = {"node%d" % i: {cpus[i]} for i in range(NODES)}
    sets["driver"] = {cpus[-1]}
    return sets


CPUS = cpu_sets()


def pin(pid, role):
    """Pins every thread of `pid` to the role's cores."""
    if CPUS is None:
        return
    for tid in os.listdir("/proc/%d/task" % pid):
        try:
            os.sched_setaffinity(int(tid), CPUS[role])
        except OSError:
            pass


def free_port(kind):
    with socket.socket(socket.AF_INET, kind) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def cpu_ns(pid):
    """CPU time of every thread of `pid`, from /proc schedstat (ns)."""
    total = 0
    task_dir = "/proc/%d/task" % pid
    try:
        tids = os.listdir(task_dir)
    except OSError:
        return 0
    for tid in tids:
        try:
            with open(os.path.join(task_dir, tid, "schedstat")) as f:
                total += int(f.read().split()[0])
        except (OSError, ValueError, IndexError):
            pass
    return total


def udp_rcvbuf_errors():
    """Datagrams the kernel dropped on full socket buffers (whole host
    namespace; only the fleet and the driver use it during a run)."""
    with open("/proc/net/snmp") as f:
        rows = [line.split() for line in f if line.startswith("Udp:")]
    return int(rows[1][rows[0].index("RcvbufErrors")])


def loopback_tx_bytes():
    with open("/proc/net/dev") as f:
        for line in f:
            name, _, rest = line.partition(":")
            if name.strip() == "lo":
                return int(rest.split()[8])
    return 0


def scrape(port):
    """GET /metrics; returns ({sample: value}, bytes on the wire)."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
        request = b"GET /metrics HTTP/1.0\r\n\r\n"
        s.sendall(request)
        chunks = []
        while True:
            data = s.recv(65536)
            if not data:
                break
            chunks.append(data)
    raw = b"".join(chunks)
    return parse_metrics(raw.decode("utf-8", "replace")), len(raw) + len(request)


def parse_metrics(text):
    """Prometheus text (after any HTTP header) -> {sample: value}."""
    samples = {}
    for line in text.split("\r\n\r\n", 1)[-1].splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            samples[name] = float(value)
        except ValueError:
            pass
    return samples


def event(samples, name):
    return samples.get('df_node_events_total{counter="%s"}' % name, 0.0)


class Node:
    """One dataflasks_server process."""

    def __init__(self, index, binary, wl, run_dir):
        self.index = index
        self.binary = binary
        self.wl = wl
        self.udp_port = free_port(socket.SOCK_DGRAM)
        self.metrics_port = free_port(socket.SOCK_STREAM)
        self.stream_port = free_port(socket.SOCK_STREAM) if wl["stream"] else None
        self.data_dir = os.path.join(run_dir, "n%d" % index)
        os.makedirs(self.data_dir, exist_ok=True)
        self.peers = []  # the other nodes, as static --peer maps
        self.proc = None
        self.lines = []
        self.ready = threading.Event()

    def argv(self):
        args = [self.binary, "--id", str(self.index),
                "--listen", "127.0.0.1:%d" % self.udp_port,
                "--metrics-port", str(self.metrics_port),
                "--shards", str(self.wl["shards"])] + FLEET_FLAGS
        for peer in self.peers:
            args += ["--peer", "%d@127.0.0.1:%d" % (peer.index, peer.udp_port)]
        if self.stream_port is not None:
            args += ["--stream-port", str(self.stream_port)]
        if self.wl["store"] == "durable":
            args += ["--store", "durable", "--data-dir", self.data_dir,
                     "--compact-interval-sec",
                     str(self.wl["compact_interval_sec"])]
        return args

    def start(self):
        self.lines = []
        self.ready.clear()
        err = open(os.path.join(self.data_dir, "stderr.log"), "ab")
        # close_fds=False lets CPython use posix_spawn (no fork of this
        # process), so recovery_s carries less spawn jitter; every fd it
        # opens is non-inheritable anyway.
        self.proc = subprocess.Popen(self.argv(), stdout=subprocess.PIPE,
                                     stderr=err, stdin=subprocess.DEVNULL,
                                     close_fds=False)
        err.close()
        pin(self.proc.pid, "node%d" % self.index)
        threading.Thread(target=self._read, args=(self.proc,),
                         daemon=True).start()

    def _read(self, proc):
        for raw in proc.stdout:
            line = raw.decode("utf-8", "replace").rstrip("\n")
            self.lines.append(line)
            if " ready on " in line:
                self.ready_at = time.monotonic()
                self.ready.set()

    def wait_ready(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        while not self.ready.wait(0.05):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                with open(os.path.join(self.data_dir, "stderr.log"), "rb") as f:
                    err = f.read()[-2000:].decode("utf-8", "replace")
                raise BenchError("node %d never printed its ready line (exit %s)"
                                 "\nstdout: %s\nstderr: %s" % (
                                     self.index, self.proc.poll(),
                                     "\n".join(self.lines[-10:]), err))
        pin(self.proc.pid, "node%d" % self.index)  # shard threads started after spawn
        return self.ready_at

    def recovery_ms(self):
        for line in self.lines:
            if "store recovery took" in line:
                return float(line.split("took")[1].split()[0])
        return 0.0

    def scrape(self):
        return scrape(self.metrics_port)[0]

    def kill(self, sig=signal.SIGKILL):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(sig)
            self.proc.wait()

    def stop(self):
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Driver:
    """The fleet_driver process: one JSON command/answer per line."""

    def __init__(self, binary, nodes, wl, seed):
        args = [binary, "--records", str(wl["records"]),
                "--value-bytes", str(wl["value_bytes"]), "--seed", str(seed)]
        for node in nodes:
            args += ["--peer", "%d@127.0.0.1:%d" % (node.index, node.udp_port)]
        if wl["zipf"]:
            args.append("--zipf")
        self.proc = subprocess.Popen(args, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=sys.stderr, text=True)
        self._answer()
        pin(self.proc.pid, "driver")

    def _answer(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("fleet_driver exited (code %s)" % self.proc.wait())
        return json.loads(line)

    def call(self, *words):
        self.proc.stdin.write(" ".join(str(w) for w in words) + "\n")
        self.proc.stdin.flush()
        answer = self._answer()
        if "error" in answer:
            raise BenchError("driver: %s" % answer["error"])
        return answer

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


class Fleet:
    def __init__(self, binaries, wl, run_dir, seed):
        self.binaries = binaries
        self.wl = wl
        self.run_dir = run_dir
        self.seed = seed
        self.nodes = []
        self.driver = None

    def boot_and_load(self):
        """Boots 3 nodes, loads the keyspace, and waits until every replica
        holds it. Returns the elapsed seconds (one set-up)."""
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        start = time.monotonic()
        self.phases = {}
        # Static peer maps, not seed-only joins: with --shards > 1 a seed
        # probe can land on a worker shard's socket and the join stalls
        # (see fleetbench/README.md), which would leave membership to chance.
        self.nodes = [Node(i, self.binaries["server"], self.wl, self.run_dir)
                      for i in range(NODES)]
        for node in self.nodes:
            node.peers = [n for n in self.nodes if n is not node]
        for node in self.nodes:
            node.start()
        for node in self.nodes:
            node.wait_ready()
        self.phases["ready_s"] = time.monotonic() - start
        self.driver = Driver(self.binaries["driver"], self.nodes, self.wl,
                             self.seed)
        self.set_pids()
        probes = self.wait_replicating()
        self.phases["replicating_s"] = time.monotonic() - start
        self.phases["probes"] = probes
        loaded = self.driver.call("load")
        if not loaded["ok"]:
            raise BenchError("load failed: %s" % loaded)
        self.phases["loaded_s"] = time.monotonic() - start
        self.phases["load_attempts"] = loaded["attempts"]
        self.wait_until(lambda counts: min(counts) >= self.wl["records"] + probes,
                        CATCHUP_TIMEOUT_S, "replicas never held the keyspace")
        return time.monotonic() - start

    def wait_replicating(self):
        """Puts batches of probe keys through each node in turn until a
        batch through every contact reaches every replica within 50 ms:
        before the slice views form (on every shard), an acked put lives on
        its contact alone and only anti-entropy, much later, copies it."""
        deadline = time.monotonic() + CATCHUP_TIMEOUT_S
        probes = 0
        for contact in range(NODES):
            self.driver.call("contacts", contact)
            while True:
                if time.monotonic() > deadline:
                    raise BenchError("the fleet never replicated a put to every node")
                answer = self.driver.call("probe")
                if answer["puts_failed"] != 0:
                    raise BenchError("probe put failed")
                probes += answer["puts_ok"]
                if self.wait_until(lambda c: min(c) >= probes, 0.05,
                                   interval=0.005) is not None:
                    break
        self.driver.call("contacts", ",".join(str(i) for i in range(NODES)))
        return probes

    def set_pids(self):
        self.driver.call("pids", *[n.proc.pid for n in self.nodes])

    def objects(self):
        return [n.scrape().get("df_store_objects", 0.0) for n in self.nodes]

    def wait_until(self, predicate, timeout, what=None, interval=0.02):
        """Polls every node's object count until `predicate` holds and
        returns the time it did; past `timeout`, raises `what` (or returns
        None when `what` is None)."""
        deadline = time.monotonic() + timeout
        while True:
            counts = self.objects()
            if predicate(counts):
                return time.monotonic()
            if time.monotonic() > deadline:
                if what is None:
                    return None
                raise BenchError("%s (objects per node: %s)" % (what, counts))
            time.sleep(interval)

    def converged(self, timeout=CATCHUP_TIMEOUT_S):
        return self.wait_until(lambda c: min(c) == max(c) and min(c) > 0,
                               timeout, "replicas never converged")

    def scrape_all(self):
        return [n.scrape() for n in self.nodes]

    def stop(self):
        if self.driver is not None:
            self.driver.close()
            self.driver = None
        for node in self.nodes:
            node.stop()
        self.nodes = []


class Sampler(threading.Thread):
    """Traced runs only: polls every node's gauges during a phase for their
    maxima, and counts the scrape bytes so loopback accounting can drop them."""

    def __init__(self, nodes):
        super().__init__(daemon=True)
        self.nodes = nodes
        self.stop_event = threading.Event()
        self.lag_max = 0.0
        self.queue_max = 0.0
        self.scrape_bytes = 0

    def run(self):
        while not self.stop_event.wait(0.1):
            for node in self.nodes:
                try:
                    samples, nbytes = scrape(node.metrics_port)
                except OSError:
                    continue
                self.scrape_bytes += nbytes
                self.lag_max = max(self.lag_max,
                                   samples.get("df_admission_loop_lag_us", 0.0))
                self.queue_max = max(
                    self.queue_max, samples.get("df_runtime_queue_depth", 0.0),
                    samples.get("df_admission_max_shard_queue_depth", 0.0))

    def finish(self):
        self.stop_event.set()
        self.join()


def delta(before, after, fn):
    return sum(fn(a) - fn(b) for b, a in zip(before, after))


def ratio(num, den):
    return num / den if den else 0.0


def layer_deltas(before, after, ops, puts):
    """Per-layer counters of the fleet over one phase."""
    def hist_mean(op):
        s = delta(before, after, lambda m: m.get('df_op_exec_us_sum{op="%s"}' % op, 0.0))
        n = delta(before, after, lambda m: m.get('df_op_exec_us_count{op="%s"}' % op, 0.0))
        return ratio(s, n)

    summaries = delta(before, after, lambda m: event(m, "ae.summaries_sent"))
    local = delta(before, after, lambda m: event(m, "shard.ops_local"))
    cross = delta(before, after, lambda m: event(m, "shard.ops_cross_shard"))
    stream_bytes = delta(before, after, lambda m: m.get("df_stream_bytes_out_total", 0.0)
                         + m.get("df_stream_bytes_in_total", 0.0))
    return {
        "rh.get_exec_us": hist_mean("get"),
        "rh.put_exec_us": hist_mean("put"),
        "admission.ops_shed": delta(before, after, lambda m: event(m, "admission.client_ops_shed")),
        "udp.datagrams_per_op": ratio(delta(before, after, lambda m: m.get("df_transport_sent_total", 0.0)), ops),
        "stream.frames_per_op": ratio(delta(before, after, lambda m: m.get("df_stream_frames_out_total", 0.0)), ops),
        "stream.bytes_per_op": ratio(stream_bytes, ops),
        "push.objects_per_put": ratio(delta(before, after, lambda m: event(m, "rh.pushes_stored")), puts),
        "ae.bytes_per_op": ratio(delta(before, after, lambda m: event(m, "ae.bytes_sent")), ops),
        "ae.converged_summary_ratio": ratio(
            delta(before, after, lambda m: event(m, "ae.summaries_converged")), summaries),
        "store.checkpoints": delta(before, after, lambda m: event(m, "node.compactions")),
        "shard.cross_shard_op_ratio": ratio(cross, local + cross),
        "shard.forwarded_per_op": ratio(delta(before, after, lambda m: event(m, "shard.forwarded_to_node")), ops),
        "_stream_bytes": stream_bytes,
    }


def dir_bytes(path):
    """Bytes the store keeps under a node's data directory (the node's own
    stderr.log, written by this script, is not the store's)."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            if name == "stderr.log":
                continue
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def round_trip_cpu_us(binaries):
    """CPU (us) that one loopback UDP round trip between two threads costs
    on the servers' cores right now: the host-speed reference."""
    cores = ([str(min(CPUS["node%d" % i])) for i in range(NODES)]
             if CPUS is not None else [])
    out = subprocess.run([binaries["pingpong"], str(REF_ROUNDS)] + cores,
                         check=True, capture_output=True, text=True, timeout=60)
    return json.loads(out.stdout)["cpu_ns_per_round_trip"] / 1e3


def paced_segment(driver, wl, seconds, ttl_ms):
    """One open-loop segment; raises if the generator missed its schedule."""
    paced = driver.call("paced", seconds, wl["rate"], wl["get_share"],
                        wl["round"], ttl_ms)
    if paced["achieved_ops_s"] < MIN_ACHIEVED_SHARE * paced["offered_ops_s"]:
        raise BenchError("generator fell short: %.0f of %.0f ops/s offered" % (
            paced["achieved_ops_s"], paced["offered_ops_s"]))
    if paced["late_p99_us"] > MAX_LATE_P99_US:
        raise BenchError("generator ran late: p99 %.0f us" % paced["late_p99_us"])
    paced["ops_done"] = paced["gets_ok"] + paced["puts_ok"] + paced["ttl_puts_ok"]
    paced["failed"] = (paced["gets_failed"] + paced["puts_failed"]
                       + paced["ttl_puts_failed"])
    # Every server thread's CPU, read by the driver right before the first
    # and after the last op of the segment.
    paced["server_cpu_us_per_op"] = (
        paced["server_cpu_ns"] / 1e3 / max(paced["ops_done"], 1))
    return paced


def referenced_segment(binaries, driver, wl, seconds, ttl_ms):
    """A paced segment with the host-speed reference measured around it."""
    before = round_trip_cpu_us(binaries)
    paced = paced_segment(driver, wl, seconds, ttl_ms)
    paced["round_trip_cpu_us"] = (before + round_trip_cpu_us(binaries)) / 2
    return paced


def segment_summary(paced):
    """The ledger's copy of a segment, without the latency CDFs."""
    return {k: v for k, v in paced.items() if not k.endswith("_cdf_us")}


def run_workload(name, seed, seconds, trace, binaries):
    wl = WORKLOADS[name]
    run_dir = os.path.join(WORK_DIR, "run")
    ledger = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "config": wl}
    checks = []  # (what, passed)

    # ---- set-up, several times; the last fleet stays for the run ----
    # Each fleet torn down early first runs one paced segment.
    segment_s = seconds * PACED_SHARE / (SETUPS + 1)
    setups = []
    setup_phases = []
    segments = []
    fleet = None
    for i in range(SETUPS):
        fleet = Fleet(binaries, wl, run_dir, seed)
        try:
            setups.append(fleet.boot_and_load())
            setup_phases.append(fleet.phases)
            if i < SETUPS - 1:
                segments.append(referenced_segment(binaries, fleet.driver, wl,
                                                   segment_s, 0))
        except BaseException:
            fleet.stop()
            raise
        if i < SETUPS - 1:
            fleet.stop()
    log("%s: set-up %s s" % (name, ["%.3f" % s for s in setups]))
    ledger["setup_s"] = setups
    ledger["setup_phases"] = setup_phases
    checks.append(("set-up fleets' paced replies match the model",
                   all(seg["wrong"] == 0 for seg in segments)))
    try:
        return measure(name, wl, fleet, seed, seconds, trace, run_dir,
                       ledger, checks, setups, segments, segment_s, binaries)
    finally:
        fleet.stop()


def measure(name, wl, fleet, seed, seconds, trace, run_dir, ledger, checks,
            setups, segments, segment_s, binaries):
    nodes = fleet.nodes
    driver = fleet.driver
    layer = {}

    if trace:
        pids = [n.proc.pid for n in nodes]
        cpu0 = sum(cpu_ns(p) for p in pids)
        t0 = time.monotonic()
        time.sleep(1.0)
        layer["idle.server_cpu_ms_per_s"] = (
            (sum(cpu_ns(p) for p in pids) - cpu0) / 1e6 / (time.monotonic() - t0))

    # ---- main paced (open-loop) segment, with the TTL'd puts ----
    # The reference runs outside the loopback and counter accounting.
    round_trip_before = round_trip_cpu_us(binaries)
    before = fleet.scrape_all()
    sampler = Sampler(nodes) if trace else None
    if sampler:
        sampler.start()
    lo0 = loopback_tx_bytes()
    drops0 = udp_rcvbuf_errors()
    paced = paced_segment(driver, wl, segment_s, wl["ttl_ms"])
    lo1 = loopback_tx_bytes()
    drops1 = udp_rcvbuf_errors()
    if sampler:
        sampler.finish()
    after = fleet.scrape_all()
    paced["round_trip_cpu_us"] = (round_trip_before
                                  + round_trip_cpu_us(binaries)) / 2
    segments.append(paced)
    ledger["paced"] = paced
    ops_done = paced["ops_done"]
    puts_done = paced["puts_ok"] + paced["ttl_puts_ok"]
    log("%s: paced %s, server CPU %.1f us/op" % (name, {k: paced[k] for k in (
        "ops", "achieved_ops_s", "get_p50_us", "get_p99_us", "put_p50_us",
        "put_p99_us", "late_p99_us")}, paced["server_cpu_us_per_op"]))
    checks.append(("paced replies match the model", paced["wrong"] == 0))
    if trace:
        d = layer_deltas(before, after, ops_done, puts_done)
        stream_bytes = d.pop("_stream_bytes")
        layer.update(d)
        layer["admission.loop_lag_us_max"] = sampler.lag_max
        layer["runtime.queue_depth_max"] = sampler.queue_max
        layer["udp.bytes_per_op"] = ratio(
            lo1 - lo0 - sampler.scrape_bytes - stream_bytes, ops_done)
        layer["paced.get_p50_us"] = paced["get_p50_us"]
        layer["paced.put_p50_us"] = paced["put_p50_us"]
        layer["client.attempts_per_op"] = ratio(paced["attempts"], ops_done)
        layer["client.execute_ns"] = paced["execute_ns_per_op"]
        layer["udp.kernel_drops"] = drops1 - drops0
        ledger["paced_counters"] = {"before": before, "after": after}

    # ---- closed-loop phase ----
    # Gets only: the store the restarts below must recover then depends on
    # the paced phase alone, not on how fast this phase ran. Several short
    # windows; client.closed_loop_ops_s is their median.
    if trace:
        before = fleet.scrape_all()
    windows = []
    closed_s = seconds * (1 - PACED_SHARE)
    for _ in range(max(1, round(closed_s / CLOSED_WINDOW_S))):
        windows.append(driver.call("closed", CLOSED_WINDOW_S,
                                   wl["closed_streams"], 1.0))
    ledger["closed"] = windows
    closed = {"ops_ok": sum(w["ops_ok"] for w in windows),
              "ops_failed": sum(w["ops_failed"] for w in windows),
              "ops_s": statistics.median(w["ops_s"] for w in windows)}
    checks.append(("closed-loop replies match the model",
                   all(w["wrong"] == 0 for w in windows) and closed["ops_failed"] == 0))
    if trace:
        ledger["closed_counters"] = {"before": before, "after": fleet.scrape_all()}
        layer["client.closed_loop_ops_s"] = closed["ops_s"]
        layer["client.cpu_us_per_op"] = (
            sum(w["driver_cpu_ns"] for w in windows) / 1e3 / max(closed["ops_ok"], 1))

    # ---- TTL expiry audit ----
    ttl = {"checked": 0, "served": 0, "expired": 0}
    if wl["ttl_ms"] > 0:
        ttl = driver.call("ttl_audit")
        ledger["ttl_audit"] = ttl
        checks.append(("TTL audit's live control keys are served",
                       ttl["controls_wrong"] == 0))

    # ---- read-back audit after quiescence ----
    fleet.converged()
    readback = driver.call("readback", "0,1,2")
    ledger["readback"] = readback
    checks.append(("every acked put reads back", readback["failed"] == 0))

    if trace:
        codec = driver.call("codec")
        replay_dir = os.path.abspath(os.path.join(run_dir, "replay"))
        os.makedirs(replay_dir, exist_ok=True)
        replay = driver.call("replay", replay_dir, wl["store"])
        ledger["codec"] = codec
        ledger["replay"] = replay
        layer["codec.envelope_encode_ns"] = codec["envelope_encode_ns"]
        layer["codec.envelope_decode_ns"] = codec["envelope_decode_ns"]
        layer["codec.reply_decode_ns"] = codec["reply_decode_ns"]
        layer["store.put_ns"] = replay["store_put_ns"]
        layer["store.get_ns"] = replay["store_get_ns"]
        layer["store.versions_per_key"] = replay["versions_per_key"]
        layer["store.checkpoint_ms"] = replay["checkpoint_ms"]
        layer["store.recovery_ms"] = replay["recovery_ms"]
        checks.append(("replayed store reopens whole", replay["recovered"]))
        layer["ae.handle_us"] = replay["ae_handle_us"]
        layer["ae.replay_unrepaired"] = replay["ae_unrepaired"]

    # ---- crash and restart of node 2, several times ----
    victim = nodes[2]
    if trace and wl["store"] == "durable":
        live = victim.scrape().get("df_store_live_bytes", 0.0)
        layer["store.disk_bytes_per_live_byte"] = ratio(dir_bytes(victim.data_dir), live)
    cycles = []
    first_restart = time.monotonic()
    for k in range(RESTARTS):
        driver.call("contacts", "0,1")
        victim.kill(signal.SIGKILL)
        down = driver.call("batch", DOWN_WRITES, "0,1")
        checks.append(("writes acked while node 2 was down",
                       down["puts_ok"] == DOWN_WRITES))
        before = [n.scrape() for n in nodes[:2]]
        time.sleep(max(0.0, first_restart + k * RESTART_PERIOD_S - time.monotonic()))
        spawned = time.monotonic()
        victim.start()
        ready = victim.wait_ready()
        # Caught up: node 2 holds as many objects as nodes 0 and 1, which
        # take no writes meanwhile (the batch above included).
        caught = fleet.wait_until(lambda c: c[2] >= c[0] and c[0] == c[1],
                                  CATCHUP_TIMEOUT_S,
                                  "node 2 never caught up", interval=0.01)
        after = fleet.scrape_all()
        fleet.set_pids()
        cycles.append({
            "down_writes": down,
            "recovery_s": ready - spawned,
            "catchup_s": caught - ready,
            "store_recovery_ms": victim.recovery_ms(),
            "st_pages_served": delta(before, after[:2],
                                     lambda m: event(m, "st.pages_served")),
            # node 2's counters restart with its process
            "ae_objects_repaired": event(after[2], "ae.objects_repaired"),
            "st_objects_received": event(after[2], "st.objects_received"),
            "stream_bytes_in": after[2].get("df_stream_bytes_in_total", 0.0),
            "lines": list(victim.lines),
        })
    ledger["restarts"] = cycles
    recovery_s = statistics.median(c["recovery_s"] for c in cycles)
    catchup_s = statistics.median(c["catchup_s"] for c in cycles)
    log("%s: restart recovery %s s, catch-up %s s" % (
        name, ["%.3f" % c["recovery_s"] for c in cycles],
        ["%.3f" % c["catchup_s"] for c in cycles]))
    if trace:
        layer["st.pages_served"] = statistics.mean(
            c["st_pages_served"] for c in cycles)
        layer["ae.pull_entries"] = statistics.mean(
            c["ae_objects_repaired"] for c in cycles)
        # Objects received through state transfer times their encoded
        # size (value + key + version and framing fields).
        layer["stream.catchup_bytes"] = statistics.mean(
            c["stream_bytes_in"] for c in cycles)
        layer["st.bytes"] = statistics.mean(
            c["st_objects_received"] for c in cycles) * (wl["value_bytes"] + 24)

    # ---- last paced segment, after the restarts ----
    driver.call("contacts", ",".join(str(n.index) for n in nodes))
    last = referenced_segment(binaries, driver, wl, segment_s, 0)
    segments.append(last)
    checks.append(("last segment's paced replies match the model",
                   last["wrong"] == 0))
    server_cpu_us_per_op = (sum(seg["server_cpu_ns"] for seg in segments) / 1e3
                            / max(sum(seg["ops_done"] for seg in segments), 1))
    # The host's speed shifts for minutes at a time and moves every CPU
    # figure with it; the reference, measured on the same cores over the
    # same minute, moves the same way, so the ratio keeps what the program
    # costs (see fleetbench/README.md).
    round_trip_us = statistics.mean(seg["round_trip_cpu_us"] for seg in segments)
    server_cpu_rt_per_op = server_cpu_us_per_op / round_trip_us
    ledger["segments"] = [segment_summary(seg) for seg in segments]
    log("%s: server CPU per segment %s us/op, overall %.1f us/op; round trip "
        "%s us; %.3f rt/op" % (
            name, ["%.1f" % seg["server_cpu_us_per_op"] for seg in segments],
            server_cpu_us_per_op,
            ["%.1f" % seg["round_trip_cpu_us"] for seg in segments],
            server_cpu_rt_per_op))
    if trace:
        layer["server.cpu_us_per_op"] = server_cpu_us_per_op
        layer["host.round_trip_cpu_us"] = round_trip_us

    # ---- node 2 alone serves every acked write ----
    fleet.converged()
    for node in nodes[:2]:
        os.kill(node.proc.pid, signal.SIGSTOP)
    try:
        alone = driver.call("readback", "2")
    finally:
        for node in nodes[:2]:
            os.kill(node.proc.pid, signal.SIGCONT)
    ledger["node2_alone"] = alone
    checks.append(("restarted node 2 alone serves every acked write",
                   alone["failed"] == 0))

    # ---- result ----
    ttl_failed = ttl["served"]
    if wl["ttl_ms"] > 0:
        ledger["ttl_failures_are_program_faults"] = wl["shards"] > 1
        checks.append(("TTL expiry holds at --shards 1",
                       wl["shards"] > 1 or ttl_failed == 0))
    attempted = sum(seg["ops"] for seg in segments) + ttl["checked"]
    failed = sum(seg["failed"] for seg in segments) + ttl_failed
    ledger["ops_by_kind"] = {
        "paced_get": [sum(seg["gets_ok"] for seg in segments),
                      sum(seg["gets_failed"] for seg in segments)],
        "paced_put": [sum(seg["puts_ok"] for seg in segments),
                      sum(seg["puts_failed"] for seg in segments)],
        "paced_ttl_put": [paced["ttl_puts_ok"], paced["ttl_puts_failed"]],
        "ttl_expiry_check": [ttl["expired"], ttl["served"]],
        "closed": [closed["ops_ok"], closed["ops_failed"]],
        "readback": [readback["ok"], readback["failed"]],
        "down_write": [sum(c["down_writes"]["puts_ok"] for c in cycles),
                       sum(c["down_writes"]["puts_failed"] for c in cycles)],
        "node2_alone_readback": [alone["ok"], alone["failed"]],
    }
    ledger["checks"] = checks
    if trace:
        values = {k: layer.get(k, 0.0) for k in PER_LAYER}
        units = PER_LAYER
    else:
        values = {"setup_s": statistics.median(setups),
                  "server_cpu_rt_per_op": server_cpu_rt_per_op,
                  "recovery_s": recovery_s, "catchup_s": catchup_s}
        units = END_TO_END
    ledger["metrics"] = values
    return {
        "correct": all(ok for _, ok in checks),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }, ledger


def self_check(binaries):
    code = subprocess.run([binaries["selfcheck"]], stdout=sys.stderr).returncode
    if code != 0:
        raise BenchError("oracle self-check failed")
    from tests import test_run  # noqa: E402  (kept inside the benchmark dir)
    test_run.main()
    log("self-check passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    def on_signal(signum, _frame):
        raise KeyboardInterrupt("signal %d" % signum)
    signal.signal(signal.SIGTERM, on_signal)

    try:
        binaries = build()
        if args.self_check:
            sys.path.insert(0, BENCH_DIR)
            self_check(binaries)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if CPUS is not None:
            os.sched_setaffinity(0, CPUS["driver"])
        result, ledger = run_workload(args.workload, args.seed, args.seconds,
                                      args.trace, binaries)
    except (BenchError, subprocess.CalledProcessError, OSError,
            KeyboardInterrupt) as exc:
        log("run invalid:", exc)
        traceback.print_exc(file=sys.stderr)
        return 1
    ledger_dir = os.path.join(WORK_DIR, "ledger")
    os.makedirs(ledger_dir, exist_ok=True)
    path = os.path.join(ledger_dir, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump({"result": result, "ledger": ledger}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
