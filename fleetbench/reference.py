#!/usr/bin/env python3
"""Reference figures quoted in fleetbench/README.md, measured with the
benchmark's own fleet and driver (run from a checkout root, after one
benchmark run has built the binaries):

    python3 fleetbench/reference.py collapse    # closed loop, 50% puts, --shards 2
    python3 fleetbench/reference.py checkpoint  # 4 KiB puts against 2 s checkpoints
    python3 fleetbench/reference.py disk        # 32 KiB values: disk per live byte, restart

Each prints one JSON object. These are figures about the program, not
metrics of the benchmark: nothing here is compared between runs.
"""

import json
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def fleet_for(base, **overrides):
    wl = dict(run.WORKLOADS[base], **overrides)
    fleet = run.Fleet(run.build(), wl, os.path.join(run.WORK_DIR, "reference"), 1)
    fleet.boot_and_load()
    return fleet, wl


def collapse():
    """Closed-loop throughput, second by second, as versions pile up."""
    fleet, _ = fleet_for("update-heavy")
    try:
        per_second = [fleet.driver.call("closed", 1.0, 8, 0.5)["ops_s"]
                      for _ in range(10)]
        return {"closed_loop_ops_s_per_second": [round(x) for x in per_second],
                "objects_per_node": fleet.objects()}
    finally:
        fleet.stop()


def paced_with_counters(fleet, seconds, rate, get_share):
    before = fleet.scrape_all()
    paced = fleet.driver.call("paced", seconds, rate, get_share, 100, 0)
    after = fleet.scrape_all()
    shed = run.delta(before, after,
                     lambda m: run.event(m, "admission.client_ops_shed"))
    checkpoints = run.delta(before, after,
                            lambda m: run.event(m, "node.compactions"))
    return paced, shed, checkpoints


def checkpoint():
    """4 KiB puts at 2 000 ops/s against 2 s checkpoints for 20 s."""
    fleet, _ = fleet_for("durable-restart", value_bytes=4096)
    try:
        paced, shed, checkpoints = paced_with_counters(fleet, 20, 2000, 0.2)
        return {"put_cdf_us": paced["put_cdf_us"], "ops": paced["ops"],
                "puts_failed": paced["puts_failed"], "ops_shed": shed,
                "checkpoints": checkpoints}
    finally:
        fleet.stop()


def disk():
    """32 KiB values (the largest that fit a client datagram): disk bytes
    per live byte on node 2, then its restart time."""
    fleet, wl = fleet_for("durable-restart", value_bytes=32768, records=500)
    try:
        paced, _, checkpoints = paced_with_counters(fleet, 10, 200, 0.2)
        victim = fleet.nodes[2]
        live = victim.scrape().get("df_store_live_bytes", 0.0)
        on_disk = run.dir_bytes(victim.data_dir)
        victim.kill(signal.SIGKILL)
        spawned = time.monotonic()
        victim.start()
        ready = victim.wait_ready()
        return {"live_bytes": live, "disk_bytes": on_disk,
                "disk_bytes_per_live_byte": on_disk / live if live else 0.0,
                "checkpoints": checkpoints, "recovery_s": ready - spawned,
                "store_recovery_ms": victim.recovery_ms(),
                "puts_ok": paced["puts_ok"], "value_bytes": wl["value_bytes"]}
    finally:
        fleet.stop()


def main():
    figures = {"collapse": collapse, "checkpoint": checkpoint, "disk": disk}
    if len(sys.argv) != 2 or sys.argv[1] not in figures:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(figures[sys.argv[1]]()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
