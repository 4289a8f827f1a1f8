#!/usr/bin/env python3
"""The benchmark's own tests, at tiny scale (a few seconds in all).

    python3 perfbench/test_perfbench.py

Builds the driver through run.py like a benchmark run does, then checks
that the driver's metric names match BENCHMARK.json, that a wrong
reference digest is reported as a failure, that a second seed runs
clean, and that each workload loads the layers it claims to.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own driver module)


def bench(workload, *extra, seed=0, trace=0):
    """Runs one tiny-scale benchmark; returns (exit code, result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0.01", "--trace",
           str(trace), "--scale", "tiny", *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


def metric(result, name):
    return result["metrics"][name]["value"]


class PerfbenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            cls.spec = json.load(f)
        run.build()

    def test_workload_names_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_metric_names_and_units_match(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            self.assertTrue(all(want.values()), key + ": metric without unit")
            for workload in run.WORKLOADS:
                code, result = bench(workload, trace=trace)
                self.assertEqual(code, 0, workload)
                got = {name: m["unit"]
                       for name, m in result["metrics"].items()}
                self.assertEqual(got, want, f"{workload} --trace {trace}")
                self.assertTrue(result["correct"], workload)

    def test_wrong_reference_digest_is_a_failure(self):
        with open(run.REFERENCE, encoding="utf-8") as f:
            lines = f.read().splitlines()
        target = "tiny trace_serve 0 query.delay "
        bad = []
        for line in lines:
            if line.startswith(target):
                digest = line[len(target):]
                line = target + ("0" if digest[0] != "0" else "1") + digest[1:]
            bad.append(line)
        self.assertNotEqual(bad, lines, "reference has no tiny entry")
        path = os.path.join(run.build_dir(), "test-bad-reference.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(bad) + "\n")
        try:
            code, result = bench("trace_serve", "--reference", path)
        finally:
            os.remove(path)
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_second_seed_runs_clean(self):
        # The driver maps --seed onto the input sets the reference covers;
        # a seed past them wraps around and must still have a reference.
        with open(run.REFERENCE, encoding="utf-8") as f:
            seed_sets = len({line.split()[2] for line in f
                             if line.startswith("tiny clique_paper ")})
        self.assertGreater(seed_sets, 1)
        for workload in run.WORKLOADS:
            for seed in (1, 1 + seed_sets):
                code, result = bench(workload, seed=seed)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"], f"{workload} seed {seed}")
                self.assertEqual(result["failed"], 0)
        # Seeds select different inputs, so their digests differ.
        with open(run.REFERENCE, encoding="utf-8") as f:
            digests = {}
            for line in f:
                if line.startswith("full clique_paper "):
                    _, _, seed_set, op, digest = line.split()
                    digests[(seed_set, op)] = digest
        self.assertNotEqual(digests[("0", "train.cell0")],
                            digests[("1", "train.cell0")])

    def test_workloads_load_the_layers_they_claim(self):
        traced = {w: bench(w, trace=1)[1] for w in run.WORKLOADS}
        for name in ("topo.medium.updates_per_event",
                     "topo.medium.neighborhood_sweeps_per_event",
                     "topo.medium.fire_rearms_per_event"):
            self.assertEqual(metric(traced["clique_paper"], name), 0, name)
            self.assertGreater(metric(traced["grid_lattice"], name), 0, name)
        # The engine encodes every computed repetition, so serve.encode_us
        # is the one serve metric every workload loads.
        for name in traced["trace_serve"]["metrics"]:
            if name.startswith(("serve.", "trace.")) and \
                    name != "serve.encode_us":
                # Non-zero, not positive: write_ns_per_event is a
                # difference of two timed passes and may dip below 0.
                self.assertNotEqual(metric(traced["trace_serve"], name), 0,
                                    name)
                for other in ("clique_paper", "grid_lattice"):
                    self.assertEqual(metric(traced[other], name), 0,
                                     f"{name} on {other}")
        self.assertGreater(metric(traced["clique_paper"],
                                  "core.trains_per_tool_run"), 0)
        for result in traced.values():
            self.assertIn("obs.overhead_frac", result["metrics"])
            self.assertTrue(result["correct"])

    def test_bad_arguments_exit_nonzero(self):
        code, result = bench("clique_paper", "--scale", "huge")
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
