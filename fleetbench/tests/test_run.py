"""Self-check of the orchestrator's bookkeeping: metric parsing, counter
deltas, and agreement between run.py's metric lists and BENCHMARK.json.
Run with `python3 fleetbench/run.py --self-check` (builds first) or
`python3 -m unittest discover -s fleetbench/tests`."""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402

SCRAPE = """HTTP/1.0 200 OK\r
Content-Type: text/plain\r
\r
# TYPE df_store_objects gauge
df_store_objects 120
df_op_exec_us_sum{op="get"} 300
df_op_exec_us_count{op="get"} 100
df_transport_sent_total 50
df_node_events_total{counter="ae.summaries_sent"} 10
df_node_events_total{counter="ae.summaries_converged"} 4
df_node_events_total{counter="shard.ops_local"} 30
df_node_events_total{counter="shard.ops_cross_shard"} 10
df_node_events_total{counter="rh.pushes_stored"} 40
"""


class ParseTest(unittest.TestCase):
    def test_parses_samples_after_the_http_header(self):
        m = run.parse_metrics(SCRAPE)
        self.assertEqual(m["df_store_objects"], 120.0)
        self.assertEqual(m['df_op_exec_us_count{op="get"}'], 100.0)
        self.assertEqual(run.event(m, "ae.summaries_sent"), 10.0)
        self.assertNotIn("# TYPE df_store_objects gauge", m)


class DeltaTest(unittest.TestCase):
    def test_layer_deltas_are_per_phase_and_summed_over_nodes(self):
        before = [run.parse_metrics(SCRAPE)] * 2
        later = SCRAPE.replace("df_op_exec_us_sum{op=\"get\"} 300",
                               "df_op_exec_us_sum{op=\"get\"} 500")
        later = later.replace("df_op_exec_us_count{op=\"get\"} 100",
                              "df_op_exec_us_count{op=\"get\"} 150")
        later = later.replace("df_transport_sent_total 50",
                              "df_transport_sent_total 80")
        later = later.replace('"ae.summaries_sent"} 10', '"ae.summaries_sent"} 20')
        later = later.replace('"ae.summaries_converged"} 4',
                              '"ae.summaries_converged"} 9')
        later = later.replace('"shard.ops_local"} 30', '"shard.ops_local"} 45')
        later = later.replace('"shard.ops_cross_shard"} 10',
                              '"shard.ops_cross_shard"} 15')
        later = later.replace('"rh.pushes_stored"} 40', '"rh.pushes_stored"} 60')
        after = [run.parse_metrics(later)] * 2
        d = run.layer_deltas(before, after, ops=60, puts=20)
        self.assertAlmostEqual(d["rh.get_exec_us"], 4.0)      # 400 us / 100
        self.assertAlmostEqual(d["udp.datagrams_per_op"], 1.0)  # 60 / 60
        self.assertAlmostEqual(d["ae.converged_summary_ratio"], 0.5)
        self.assertAlmostEqual(d["shard.cross_shard_op_ratio"], 0.25)
        self.assertAlmostEqual(d["push.objects_per_put"], 2.0)
        self.assertEqual(d["store.checkpoints"], 0)


class ContractTest(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("no BENCHMARK.json beside the benchmark")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


def main():
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=2).run(suite)
    if not result.wasSuccessful():
        raise run.BenchError("orchestrator self-check failed")


if __name__ == "__main__":
    unittest.main()
