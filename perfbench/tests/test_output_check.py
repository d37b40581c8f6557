"""The benchmark's output check must catch a wrong answer.

Builds the driver if needed, then runs tenant-stream with the seeded
drop-shard bug (mr::MRConfig::injected_bug = kDropShard: reducers lose
map 0's shard), which changes the result of every two-map job.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402

SEED = 1


def drive(*extra):
    cmd = [run.DRIVER, "--workload", "tenant-stream", "--seed", str(SEED), "--verify", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=run.DRIVER_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class OutputCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_clean_run_passes_every_check(self):
        rep = drive()
        self.assertEqual(rep["failed"], 0, rep["failures"])
        self.assertIsNone(run.golden_problem("tenant-stream", SEED, rep))

    def test_dropped_shard_is_caught(self):
        rep = drive("--inject-bug", "drop-shard")
        self.assertGreater(rep["failed"], 0)
        self.assertIn("reference executor", rep["failures"][0])
        self.assertIsNotNone(run.golden_problem("tenant-stream", SEED, rep))


if __name__ == "__main__":
    unittest.main()
