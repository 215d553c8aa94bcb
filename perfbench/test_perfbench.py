#!/usr/bin/env python3
"""The benchmark's own test: exact per-layer counts repeat for a seed.

For each workload it makes two traced runs with one seed and one with a
second, held-out seed, and asserts that the exact counts
(slca.match_ops, dewey.postings_read, storage.page_reads,
shard.executed_per_query) are bit-identical between the first two and
differ under the second seed wherever the workload exercises them. It
also asserts that every run passed its correctness checks.

    python3 perfbench/test_perfbench.py [workload ...]

Runs take about a minute per workload (the first also builds).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["paper_hot", "paper_cold", "serve_zipf", "ingest"]
EXACT_COUNTS = ["slca.match_ops", "dewey.postings_read", "storage.page_reads",
                "shard.executed_per_query"]
SEED, HELD_OUT_SEED = 101, 202


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    return record, result


class ExactCountsRepeat(unittest.TestCase):
    workloads = WORKLOADS

    def test_counts_repeat_for_a_seed_and_change_for_another(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                runs = [traced_run(workload, SEED), traced_run(workload, SEED),
                        traced_run(workload, HELD_OUT_SEED)]
                for record, result in runs:
                    self.assertTrue(result["correct"], record)
                    self.assertEqual(result["failed"], 0)
                first, again, other = (r[0]["per_layer"] for r in runs)
                exercised = [c for c in EXACT_COUNTS if first[c] != 0]
                self.assertTrue(exercised, "no exact count is exercised")
                for count in EXACT_COUNTS:
                    self.assertEqual(first[count], again[count], count)
                for count in exercised:
                    self.assertNotEqual(first[count], other[count], count)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        ExactCountsRepeat.workloads = sys.argv[1:]
    unittest.main(argv=sys.argv[:1])
