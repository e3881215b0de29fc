"""Tests of the benchmark itself: input generators, negative controls and a
tiny-size smoke run of each workload. Standard library only:

    python3 -m unittest discover -s bench -t bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest

import inputs
import run
from workloads import WORKLOADS, FreeSearch, FreeShatter

run.use_sources()


def first_reports(workload):
    """Set up a workload and return the parsed reports of one pass."""
    workdir = run.WORK / f"test-{workload.name}"
    workdir.mkdir(parents=True, exist_ok=True)
    _, cli, argvs = run.setup(workload, workdir)
    return [run.parse_report(run.call_cli(cli.main, argv)) for argv in argvs]


def failed(workload, reports) -> int:
    tally = run.Tally()
    for check in run.guarded(workload.check, reports):
        tally.check(check)
    return len(tally.failures)


class InputTests(unittest.TestCase):
    def test_antichain_sets_are_leaf_only_tries_of_the_given_size(self):
        rng = random.Random(5)
        for rank, size, verts in ((2, 8, 28), (3, 9, 34)):
            words = inputs.antichain_set(rng, rank, size, verts, 8)
            self.assertEqual(len(set(words)), size)
            for u in words:
                self.assertTrue(all(u[i] != -u[i + 1] for i in range(len(u) - 1)))
                self.assertFalse(any(u != w and w[: len(u)] == u for w in words))
            self.assertGreater(len({w[0] for w in words}), 1)
            self.assertEqual(len({w[:i] for w in words for i in range(len(w) + 1)}), verts)

    def test_antichain_draw_recovers_when_no_word_fits(self):
        # Seed 104 once drew all four one-letter words of F2 into a set of
        # eight, leaving no word that could be added.
        workload = FreeShatter(104)
        self.assertEqual(len(workload.prepare(run.WORK)), workload.items)

    def test_word_text_matches_the_program_format(self):
        from progvc import freegroup as fg

        rng = random.Random(2)
        for _ in range(50):
            word = inputs.reduced_word(rng, 3, rng.randint(0, 9))
            self.assertEqual(inputs.word_text(word), fg.format_word(fg.FWord(3, word)))

    def test_interval_system_has_482_members_on_41_points(self):
        obj = inputs.interval_system(-20, 20)
        self.assertEqual(len(obj["ground"]), 41)
        self.assertEqual(len(obj["family"]), 482)

    def test_inputs_depend_only_on_the_seed(self):
        for name, cls in WORKLOADS.items():
            made = []
            for _ in range(2):
                workdir = run.WORK / f"test-seed-{name}"
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                argvs = cls(7).prepare(workdir)
                made.append((argvs, {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}))
            self.assertEqual(made[0], made[1], name)


class NegativeControls(unittest.TestCase):
    def test_corrupted_search_tally_is_counted_as_failed(self):
        workload = FreeSearch(3, small=True)
        reports = first_reports(workload)
        self.assertEqual(failed(workload, reports), 0)
        reports[0]["result"]["verdicts"]["rejected-leaf"] += 1
        self.assertGreaterEqual(failed(workload, reports), 1)

    def test_corrupted_shatter_witness_is_counted_as_failed(self):
        workload = FreeShatter(3, small=True)
        reports = first_reports(workload)
        self.assertEqual(failed(workload, reports), 0)
        rows = reports[0]["result"]["witnesses"]
        self.assertGreater(len(rows), 1)
        rows[1]["witness"] = rows[0]["witness"]
        self.assertEqual(failed(workload, reports), 1)

    def test_malformed_report_is_counted_as_failed(self):
        workload = FreeShatter(3, small=True)
        reports = first_reports(workload)
        reports[0] = None
        self.assertEqual(failed(workload, reports), 1)


class SmokeRuns(unittest.TestCase):
    def test_every_workload_small_untraced_and_traced(self):
        for name in WORKLOADS:
            for trace, expected in ((False, run.END_TO_END), (True, run.PER_LAYER)):
                with self.subTest(workload=name, trace=trace):
                    result = run.run(name, 3, 0, trace, small=True)["result"]
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), list(expected))
                    if not trace:
                        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_without_the_program_the_runner_fails_and_prints_nothing(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "free-search",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Manifest(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
            {k: v[:2] for k, v in run.PER_LAYER.items()},
        )


if __name__ == "__main__":
    unittest.main()
