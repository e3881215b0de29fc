"""Benchmark of the progvc command line tool.

Run from the root of the repository, with the standard library only:

    python3 bench/run.py --workload free-search --seed 1 --seconds 25 --trace 0

Each pass is preceded by a set-up, which imports ``progvc`` afresh from
``src/`` and makes the workload's inputs from the seed; the median set-up
is reported as ``setup_s``. A pass is every CLI call of the workload, made
in-process and one after another through ``progvc.cli.main``. Passes
repeat until ``--seconds`` have passed (at least three), and the slowest
is reported as ``wall_s``. Every report is checked outside the timed
section, and each later pass must print what the first printed.

``--trace 0`` reports the end-to-end metrics. With ``--trace 1`` each call
is timed as a span and followed by a replay of the same input through the
library's public functions, every call timed from outside; the run reports
the per-layer metrics and writes the spans to ``.bench_work/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is a
CLI call or a check; ``failed`` counts calls with an unexpected exit code
and failed checks.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import WORKLOADS, Check, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 1
MIN_PASSES = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}

# name: (unit, better, the end-to-end metric it should move)
PER_LAYER = {
    "freegroup.minimal_tree.self_s": ("s", "lower", "wall_s on free-search"),
    "freegroup.leaves.self_s": ("s", "lower", "wall_s on free-search"),
    "freegroup.tripod_profile.self_s": ("s", "lower", "wall_s on free-search"),
    "freegroup.dist_rows.self_s": ("s", "lower", "wall_s on free-shatter"),
    "freegroup.is_shattered_free.self_s": ("s", "lower", "wall_s on free-shatter"),
    "freegroup.sets": ("count", "higher", "items_per_s on free-search and free-shatter"),
    "freegroup.tree_vertices": ("count", "lower", "wall_s on free-search and free-shatter"),
    "freegroup.rejected_leaf": ("count", "higher", "wall_s on free-search"),
    "freegroup.rejected_tripod": ("count", "higher", "wall_s on free-search"),
    "freegroup.reached_scan": ("count", "lower", "wall_s on free-search"),
    "freegroup.subsets_tested": ("count", "lower", "wall_s on free-shatter"),
    "freegroup.subsets_cut": ("count", "higher", "wall_s on free-shatter"),
    "freegroup.scan_yield": ("ratio", "higher", "wall_s on free-shatter"),
    "heisenberg.enumerate_progression.self_s": ("s", "lower", "wall_s on heisenberg-verify"),
    "heisenberg.membership.self_s": ("s", "lower", "wall_s on heisenberg-verify"),
    "heisenberg.cells": ("count", "higher", "items_per_s on heisenberg-verify"),
    "heisenberg.points_enumerated": ("count", "lower", "wall_s on heisenberg-verify"),
    "heisenberg.membership_calls": ("count", "lower", "wall_s on heisenberg-verify"),
    "heisenberg.mismatches": ("count", "lower", "none; must stay 0"),
    "setsystem.from_json.self_s": ("s", "lower", "wall_s on setsystem-vc"),
    "setsystem.vc_dimension_exact.self_s": ("s", "lower", "wall_s on setsystem-vc"),
    "setsystem.shatter_function.self_s": ("s", "lower", "wall_s on setsystem-vc"),
    "setsystem.family_size": ("count", "higher", "items_per_s on setsystem-vc"),
    "setsystem.subsets_examined": ("count", "lower", "wall_s on setsystem-vc"),
    "cli.overhead_s": ("s", "lower", "wall_s on free-shatter"),
    "cli.main_s": ("s", "lower", "wall_s on every workload"),
    "trace.replay_s": ("s", "lower", "none; the replay's total, beside cli.main_s"),
}


def use_sources() -> bool:
    """Put the checkout's ``src/`` first on the import path; False if absent."""
    if not (SRC / "progvc" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # The CLI's default thread count comes from this variable; leave it unset.
    os.environ.pop("PROGVC_THREADS", None)
    return True


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


class Tally:
    """Operations attempted and the names of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, argv: list[str], outcome: tuple) -> None:
        self.attempted += 1
        if outcome[0] != 0:
            self.failures.append(f"{' '.join(argv[:2])} exited {outcome[0]!r}: {outcome[2].strip()[-500:]}")

    def check(self, check: Check) -> None:
        self.attempted += 1
        if not check.ok:
            self.failures.append(check.name)


def call_cli(main, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def parse_report(outcome: tuple):
    try:
        return json.loads(outcome[1])
    except ValueError:
        return None


def guarded(fn, *args) -> list[Check]:
    """Run a check function; an exception (a malformed report, say) is one
    failed check rather than a crash."""
    try:
        return list(fn(*args))
    except Exception:
        return [Check(f"{fn.__qualname__} raised: {traceback.format_exc().strip().splitlines()[-1]}", False)]


def setup(workload: Workload, workdir: Path):
    """Import progvc afresh and make the inputs; returns (seconds, cli, argvs)."""
    t0 = perf_counter()
    for mod in [m for m in sys.modules if m == "progvc" or m.startswith("progvc.")]:
        del sys.modules[mod]
    cli = importlib.import_module("progvc.cli")
    argvs = workload.prepare(workdir)
    elapsed = perf_counter() - t0
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"progvc was imported from {cli.__file__}, not from {SRC}")
    return elapsed, cli, argvs


def timed_pass(main, argvs, tally: Tally):
    """One untraced pass over the calls: (wall seconds, outcomes)."""
    t0 = perf_counter()
    outs = [call_cli(main, argv) for argv in argvs]
    wall = perf_counter() - t0
    for argv, outcome in zip(argvs, outs):
        tally.call(argv, outcome)
    return wall, outs


def layer_metrics(tr: Tracer, counts: Counter) -> dict[str, float]:
    self_times = tr.self_times()
    out = {}
    for name, (unit, _, _) in PER_LAYER.items():
        if name.endswith(".self_s"):
            out[name] = self_times.get(name[: -len(".self_s")], 0.0)
        elif unit == "count":
            out[name] = counts[name]
    tested = counts["freegroup.subsets_tested"]
    out["freegroup.scan_yield"] = counts["freegroup.subsets_cut"] / tested if tested else 0.0
    cli_s = tr.total(lambda rec: rec["name"] == "cli.main")
    out["cli.main_s"] = cli_s
    out["cli.overhead_s"] = cli_s - tr.total(lambda rec: rec["entry"])
    out["trace.replay_s"] = tr.total(lambda rec: rec["parent"] is None and rec["name"] != "cli.main")
    return out


def traced_pass(main, workload: Workload, argvs, tally: Tally, tr: Tracer):
    """One traced pass: each call is timed, then replayed, before the next.
    Returns (per-layer metrics, outcomes)."""
    counts: Counter = Counter()
    outs = []
    for i, argv in enumerate(argvs):
        tr.trace = i
        with tr.span("cli.main"):
            outcome = call_cli(main, argv)
        tally.call(argv, outcome)
        outs.append(outcome)
        for check in guarded(workload.replay, tr, i, parse_report(outcome), counts):
            tally.check(check)
    return layer_metrics(tr, counts), outs


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one workload; returns the result object and what the summary prints.

    Each pass is preceded by its own set-up, so set-up and passes sample
    the same stretch of time.
    """
    workload = WORKLOADS[name](seed, small)
    workdir = WORK / f"{name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    setups: list[float] = []
    samples: list = []
    tracers: list[Tracer] = []
    first = None
    start = perf_counter()
    while len(samples) < MIN_PASSES or perf_counter() - start < seconds:
        elapsed, cli, argvs = setup(workload, workdir)
        setups.append(elapsed)
        if trace:
            tracers.append(Tracer(len(tracers)))
            sample, outs = traced_pass(cli.main, workload, argvs, tally, tracers[-1])
        else:
            sample, outs = timed_pass(cli.main, argvs, tally)
        samples.append(sample)
        if first is None:
            first = outs
        else:
            for i, (a, b) in enumerate(zip(first, outs)):
                tally.check(Check(f"call {i}: pass {len(samples)} printed what pass 1 printed", a == b))

    if trace:
        values = {k: statistics.median(s[k] for s in samples) for k in PER_LAYER}
        units = {k: PER_LAYER[k][0] for k in PER_LAYER}
    else:
        # On a shared 2-core VM (Xeon, 2.1 GHz base) the CPU switches, for
        # stretches of seconds to minutes, between a fast state where
        # pass times scatter and a steadier state up to 1.8 times
        # slower. The slowest pass tracks the slow state. Over seven
        # sets of 5 to 10 seeded runs across the four workloads, its
        # quartile spread was 7-21% of the median, against 10-40% for the
        # median pass and 12-28% for the fastest.
        wall = max(samples)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "items_per_s": workload.items / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END

    reports = [parse_report(outcome) for outcome in first]
    for check in guarded(workload.check, reports):
        tally.check(check)
    if seed == DEFAULT_SEED and not small:
        recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
        got = guarded(lambda: [Check(
            "verdicts match those recorded for the default seed",
            json.loads(json.dumps(workload.verdicts(reports))) == recorded,
        )])
        for check in got:
            tally.check(check)

    if trace:
        path = WORK / f"trace-{name}-seed{seed}.json"
        spans = [rec for tr in tracers for rec in tr.spans]
        path.write_text(json.dumps({"env": environment(), "workload": name, "seed": seed, "spans": spans}))

    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return {
        "result": result,
        "failures": tally.failures,
        "items": workload.items,
        "setup_s": setups,
        "pass_s": None if trace else samples,
    }


def record_golden() -> None:
    """Write the verdict fields of every workload at the default seed.

    Record only from a run whose checks all pass."""
    golden = {}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED)
        workdir = WORK / f"{name}-{DEFAULT_SEED}"
        workdir.mkdir(parents=True, exist_ok=True)
        _, cli, argvs = setup(workload, workdir)
        reports = [parse_report(call_cli(cli.main, argv)) for argv in argvs]
        golden[name] = workload.verdicts(reports)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="minimum measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true", help="rewrite golden.json and exit")
    args = parser.parse_args(argv)
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")

    if not use_sources():
        print(f"error: no progvc sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    if args.record_golden:
        record_golden()
        return 0

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = out["result"]
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "items": out["items"], "setup_s": out["setup_s"], "pass_s": out["pass_s"]}))
    for name, metric in result["metrics"].items():
        moves = f"  (should move {PER_LAYER[name][2]})" if name in PER_LAYER else ""
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}{moves}")
    print(f"{'failed_frac':40s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for failure in out["failures"][:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
