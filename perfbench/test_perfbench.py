#!/usr/bin/env python3
"""Self-test of the benchmark: every workload, untraced and traced, at smoke
sizes, through run.py exactly as a measuring run calls it.

    python3 perfbench/test_perfbench.py

Builds the driver on first use (see run.py). Each run takes a few seconds.
"""

import functools
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 2
# Sources whose smoke-size result is known to differ from the oracle
# (README.md, finding 3): at smoke sizes Q17's filter leaves nothing, and the
# compiled sum over the empty frame is NULL where the eager runtime's is 0.0.
# adhoc_compile leaves Q17 out for this reason; analytics keeps it. When the
# empty sum is fixed this pin fails: drop it and put Q17 back in adhoc_compile.
KNOWN_WRONG = {"analytics": {"Q17"}}


@functools.lru_cache(maxsize=None)
def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def failed_sources(done):
    """Names of the sources of the calls the driver reported as failed."""
    prefix = "perfbench: failed call: "
    names = set()
    for line in done.stderr.splitlines():
        if line.startswith(prefix):
            rest = re.sub(r"^client \d+: ", "", line[len(prefix):])
            names.add(re.split(r"[: ]", rest, maxsplit=1)[0])
    return names


class SmokeTest(unittest.TestCase):
    def check_shape(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        self.assertTrue(any(l.startswith("host ") for l in lines),
                        "no host fingerprint line")
        result = result_of(done)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        # Every failed call is one the driver reported on stderr.
        reported = done.stderr.count("perfbench: failed call: ")
        self.assertEqual(result["failed"], reported, done.stderr[-2000:])
        self.assertEqual(result["correct"], result["failed"] == 0)
        return result["metrics"]

    def test_untraced_shape(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                m = self.check_shape(w, 0)
                if result_of(run(w, 0))["failed"] == 0:
                    self.assertEqual(m["ok_ratio"]["value"], 1)

    def test_traced_layers(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                m = self.check_shape(w, 1)
                self.assertGreater(m["runtime.eager_ms"]["value"], 0)
                self.assertLessEqual(m["obs.unattributed_ratio"]["value"],
                                     0.15)
                if w == "adhoc_compile":
                    # Every call misses the plan cache and compiles.
                    self.assertGreater(m["frontend.compile_ms"]["value"], 0)
                    self.assertEqual(m["core.plan_cache.hit_ratio"]["value"],
                                     0)
                else:
                    # Plans are warm: no frontend work.
                    self.assertEqual(m["frontend.compile_ms"]["value"], 0)
                    self.assertEqual(m["core.plan_cache.hit_ratio"]["value"],
                                     1)

    def test_results_match_oracle(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    done = run(w, trace)
                    self.assertEqual(done.returncode, 0)
                    self.assertEqual(failed_sources(done),
                                     KNOWN_WRONG.get(w, set()),
                                     done.stderr[-2000:])

    def test_rejects_bad_arguments(self):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "nope",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
