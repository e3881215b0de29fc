"""The benchmark's four workloads.

Each workload makes its inputs from the seed, lists the CLI calls that form
its timed section, checks the reports those calls print, names the
verdict-bearing fields recorded for the default seed, and replays the same
inputs through the library's public functions for the traced run.

Library modules are imported inside the methods: the runner imports
``progvc`` afresh during set-up, and these must see that copy.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import inputs
from spans import Tracer


class Check(NamedTuple):
    name: str
    ok: bool


class Workload:
    """One set of inputs and the CLI calls that decide them."""

    name = ""
    # Items decided per pass of the timed section, for ``items_per_s``.
    items = 0

    def __init__(self, seed: int, small: bool = False):
        """``small`` selects tiny inputs, for the benchmark's own tests."""
        self.seed = seed

    def prepare(self, workdir: Path) -> list[list[str]]:
        """Make the inputs, write any input files, return one argv per call."""
        raise NotImplementedError

    def check(self, reports: list[dict]) -> list[Check]:
        """Checks of the reports printed by the calls, in call order."""
        raise NotImplementedError

    def verdicts(self, reports: list[dict]):
        """The verdict-bearing result fields, compared for the default seed."""
        raise NotImplementedError

    def replay(self, tr: Tracer, op: int, report: dict, counts: Counter) -> list[Check]:
        """Replay call ``op`` through the library, adding spans and counts;
        return checks that the replay agrees with the call's report."""
        raise NotImplementedError


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _decide(tr: Tracer, fg, pts: list, counts: Counter, filters: bool, entry: bool):
    """Free-group decision for one point set, one span per layer call.

    With ``filters`` the leaf and tripod filters run first, as in
    ``free search``; a rejected set returns its verdict and no report. The
    public ``tripod_profile`` and ``is_shattered_free`` rebuild the tree
    (and the latter the distance rows) internally, so their self time
    excludes the separately timed tree and rows of the same set.
    """
    counts["freegroup.sets"] += 1
    with tr.span("freegroup.minimal_tree") as tree_span:
        tree = fg.minimal_tree(pts)
    counts["freegroup.tree_vertices"] += len(tree)
    if filters:
        with tr.span("freegroup.leaves"):
            leaf = fg.leaves(tree)
        if leaf != frozenset(pts):
            counts["freegroup.rejected_leaf"] += 1
            return "rejected-leaf", None
        if len(pts) == 3 * pts[0].rank:
            with tr.span("freegroup.tripod_profile", less=(tree_span,)):
                tripod = fg.tripod_profile(pts)
            if tripod is None:
                counts["freegroup.rejected_tripod"] += 1
                return "rejected-tripod", None
    with tr.span("freegroup.dist_rows") as rows_span:
        verts = sorted(tree.vertices, key=fg.word_key)
        _rows = [[fg.dist_vector(h, x) for x in pts] for h in verts]
    with tr.span("freegroup.is_shattered_free", entry=entry, less=(tree_span, rows_span)):
        report = fg.is_shattered_free(pts)
    counts["freegroup.reached_scan"] += 1
    counts["freegroup.subsets_tested"] += 2 ** len(report.target)
    counts["freegroup.subsets_cut"] += len(report.witnesses)
    return ("shattered" if report.shattered else "rejected-scan"), report


class FreeSearch(Workload):
    """One ``free search`` call: random 6-point sets in F2, the path of
    acceptance criterion 08, dominated by the minimal tree and the filters."""

    name = "free-search"
    RANK, SIZE, MAX_LEN = 2, 6, 12

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        self.items = 40 if small else 3000

    def prepare(self, workdir: Path) -> list[list[str]]:
        # The program gets only the seed; PROGVC_THREADS is unset and no
        # --threads is passed, so the CLI's default applies.
        return [
            ["free", "search", "--k", str(self.RANK), "--size", str(self.SIZE),
             "--samples", str(self.items), "--seed", str(self.seed)]
        ]

    def check(self, reports: list[dict]) -> list[Check]:
        from progvc import freegroup as fg

        res = reports[0]["result"]
        listed = res["shattered"]
        return [
            Check("tally sums to the sample count", sum(res["verdicts"].values()) == self.items),
            Check("listed sets match the shattered tally", len(listed) == res["verdicts"]["shattered"]),
            Check(
                "listed sets re-confirmed by is_shattered_free",
                all(fg.is_shattered_free([fg.parse_word(self.RANK, t) for t in s]).shattered for s in listed),
            ),
        ]

    def verdicts(self, reports: list[dict]):
        res = reports[0]["result"]
        return {"verdicts": res["verdicts"], "shattered": res["shattered"]}

    def replay(self, tr: Tracer, op: int, report: dict, counts: Counter) -> list[Check]:
        from progvc import freegroup as fg

        with tr.span("freegroup.search_shattered_sets", entry=True):
            fg.search_shattered_sets(self.RANK, self.SIZE, self.items, self.seed, max_len=self.MAX_LEN)
        rng = random.Random(self.seed)
        with tr.span("freegroup.sample_point_set"):
            sets = [
                sorted(fg.sample_point_set(rng, self.RANK, self.SIZE, self.MAX_LEN), key=fg.word_key)
                for _ in range(self.items)
            ]
        tally = Counter()
        for pts in sets:
            with tr.span("replay.set"):
                tally[_decide(tr, fg, pts, counts, filters=True, entry=False)[0]] += 1
        reported = report["result"]["verdicts"]
        return [Check("replayed verdicts match the report's tally", all(tally[k] == v for k, v in reported.items()))]


class FreeShatter(Workload):
    """``free shatter`` over leaf-only (prefix-antichain) sets, which skip the
    search's filters and fill the full 2^n witness table: the free-group
    layer used the other way round from ``free search``."""

    name = "free-shatter"
    # (rank, set size, trie vertices, number of sets)
    SHAPES = ((2, 8, 28, 12), (2, 9, 34, 12), (3, 9, 34, 12))
    SMALL_SHAPES = ((2, 4, 9, 1), (3, 5, 11, 1))
    MAX_LEN = 8

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        self.shapes = self.SMALL_SHAPES if small else self.SHAPES
        self.items = sum(count for *_, count in self.shapes)

    def prepare(self, workdir: Path) -> list[list[str]]:
        rng = random.Random(self.seed)
        self.sets = [
            (rank, [inputs.word_text(w) for w in inputs.antichain_set(rng, rank, size, verts, self.MAX_LEN)])
            for rank, size, verts, count in self.shapes
            for _ in range(count)
        ]
        return [["free", "shatter", "--k", str(rank), "--points", ",".join(words)] for rank, words in self.sets]

    def check(self, reports: list[dict]) -> list[Check]:
        from progvc import freegroup as fg

        out = []
        for i, ((rank, words), rep) in enumerate(zip(self.sets, reports)):
            res = rep["result"]
            points = {label: fg.parse_word(rank, label) for label in res["target"]}
            out.append(Check(
                f"set {i}: target is the input set",
                set(points.values()) == {fg.parse_word(rank, w) for w in words},
            ))
            rows_ok = True
            for row in res["witnesses"]:
                word, _, rest = row["witness"].rpartition("*P(")
                spec = fg.FProgressionSpec(
                    tuple(int(b) for b in rest.rstrip(")").split(",")), fg.parse_word(rank, word)
                )
                traced = sorted(label for label, x in points.items() if fg.progression_contains(spec, x))
                rows_ok = rows_ok and traced == sorted(row["subset"])
            out.append(Check(f"set {i}: every witness row cuts out its subset", rows_ok))
            subsets = [frozenset(r["subset"]) for r in res["witnesses"]] + [frozenset(m) for m in res["missing"]]
            out.append(Check(
                f"set {i}: witnesses and missing subsets cover all subsets once",
                len(subsets) == len(set(subsets)) == 2 ** len(points)
                and all(s <= points.keys() for s in subsets),
            ))
            out.append(Check(
                f"set {i}: verdict agrees with the missing list",
                res["verdict"] == ("not-shattered" if res["missing"] else "shattered"),
            ))
        return out

    def verdicts(self, reports: list[dict]):
        return [
            {
                "verdict": rep["result"]["verdict"],
                "missing": len(rep["result"]["missing"]),
                "missing_sha256": _digest(sorted(sorted(m) for m in rep["result"]["missing"])),
            }
            for rep in reports
        ]

    def replay(self, tr: Tracer, op: int, report: dict, counts: Counter) -> list[Check]:
        from progvc import freegroup as fg

        rank, words = self.sets[op]
        with tr.span("replay.set"):
            with tr.span("freegroup.parse_word", entry=True):
                pts = [fg.parse_word(rank, w) for w in words]
            _, rep = _decide(tr, fg, pts, counts, filters=False, entry=True)
        res = report["result"]
        return [Check(
            f"set {op}: replayed verdict matches the report",
            rep.verdict == res["verdict"] and len(rep.missing) == len(res["missing"]),
        )]


class HeisenbergVerify(Workload):
    """One ``heisenberg verify`` call: BFS enumeration of every P(n1, n2)
    cell against the membership formula over its box of points."""

    name = "heisenberg-verify"

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        self.nmax, self.cap = (2, 14) if small else (7, 14)
        self.items = sum((2 * n1 + 1) * (2 * n2 + 1) * (2 * n1 * n2 + 3) for n1, n2 in self._cells())

    def _cells(self):
        return [(n1, n2) for n1 in range(self.nmax + 1) for n2 in range(self.nmax + 1)]

    @staticmethod
    def _box(n1: int, n2: int) -> list[tuple[int, int, int]]:
        # The box that verify_cells scans: |a| <= n1, |b| <= n2, |c| <= n1*n2 + 1.
        top = n1 * n2 + 1
        return [
            (a, b, c)
            for a in range(-n1, n1 + 1)
            for b in range(-n2, n2 + 1)
            for c in range(-top, top + 1)
        ]

    def prepare(self, workdir: Path) -> list[list[str]]:
        return [["heisenberg", "verify", "--nmax", str(self.nmax), "--cap", str(self.cap)]]

    def check(self, reports: list[dict]) -> list[Check]:
        res = reports[0]["result"]
        return [
            Check("mismatch_count == 0", res["mismatch_count"] == 0),
            Check("every cell reported", len(res["cells"]) == len(self._cells())),
        ]

    def verdicts(self, reports: list[dict]):
        res = reports[0]["result"]
        return {
            "mismatch_count": res["mismatch_count"],
            "sizes": [[c["n1"], c["n2"], c["size"]] for c in res["cells"]],
        }

    def replay(self, tr: Tracer, op: int, report: dict, counts: Counter) -> list[Check]:
        from progvc import heisenberg as hz

        with tr.span("heisenberg.verify_cells", entry=True):
            hz.verify_cells(self.nmax, cap=self.cap)
        mismatches = 0
        for n1, n2 in self._cells():
            box = self._box(n1, n2)
            spec = hz.HProgressionSpec(n1, n2)
            # One membership span per cell: a single call costs about as
            # much as the span itself would.
            with tr.span("replay.cell"):
                with tr.span("heisenberg.enumerate_progression"):
                    points = hz.enumerate_progression(n1, n2, cap=self.cap)
                with tr.span("heisenberg.membership"):
                    member = [hz.membership(spec, p) for p in box]
            mismatches += sum(m != (p in points) for p, m in zip(box, member))
            mismatches += sum(abs(p[2]) > n1 * n2 + 1 for p in points)
            counts["heisenberg.cells"] += 1
            counts["heisenberg.points_enumerated"] += len(points)
            counts["heisenberg.membership_calls"] += len(box)
        counts["heisenberg.mismatches"] += mismatches
        return [Check("replayed mismatches match the report", mismatches == report["result"]["mismatch_count"])]


class SetSystemVC(Workload):
    """``setsystem vc`` and ``setsystem pi`` over JSON files: the rank-1
    interval trace system and seeded random systems. Grow-until-gap
    ``vc_dimension_exact`` runs beside a full-level ``shatter_function``."""

    name = "setsystem-vc"
    # pi(3) on the intervals and pi(7) on the random systems sit one level
    # above their VC dimension (2, and 6 for 200 random sets of 16 points),
    # where no subset is shattered and the whole level is scanned.
    INTERVAL_PI, RANDOM_PI = 3, 7

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        self.window = (-5, 5) if small else (-20, 20)
        self.randoms, self.ground, self.members = (1, 8, 30) if small else (2, 16, 200)
        self.items = 1 + self.randoms

    def prepare(self, workdir: Path) -> list[list[str]]:
        rng = random.Random(self.seed)
        systems = [("interval", inputs.interval_system(*self.window), self.INTERVAL_PI)] + [
            (f"random-{i}", inputs.random_system(rng, self.ground, self.members), self.RANDOM_PI)
            for i in range(self.randoms)
        ]
        self.ops = []
        for name, obj, n in systems:
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            self.ops += [("vc", name, path, None), ("pi", name, path, n)]
        return [
            ["setsystem", "vc", "--file", str(path)] if kind == "vc"
            else ["setsystem", "pi", "--file", str(path), "--n", str(n)]
            for kind, _, path, n in self.ops
        ]

    def check(self, reports: list[dict]) -> list[Check]:
        from progvc import bounds, setsystem as ss

        out = []
        vc = {}
        for (kind, name, path, n), rep in zip(self.ops, reports):
            res = rep["result"]
            if kind == "vc":
                vc[name] = d = res["vc"]
                system = ss.SetSystem.from_json(json.loads(path.read_text(encoding="utf-8")))
                if name == "interval":
                    out.append(Check("interval: vc == 2", d == 2))
                out.append(Check(f"{name}: pi(vc) == 2^vc", ss.shatter_function(system, d) == 2**d))
            else:
                out.append(Check(f"{name}: pi({n}) <= capital_c(vc, {n})", res["value"] <= bounds.capital_c(vc[name], n)))
        return out

    def verdicts(self, reports: list[dict]):
        return [
            {"command": rep["command"]} | {k: rep["result"][k] for k in ("vc", "ground_size", "family_size", "value") if k in rep["result"]}
            for rep in reports
        ]

    def replay(self, tr: Tracer, op: int, report: dict, counts: Counter) -> list[Check]:
        from progvc import setsystem as ss

        kind, name, path, n = self.ops[op]
        obj = json.loads(path.read_text(encoding="utf-8"))
        with tr.span("replay.call"):
            with tr.span("setsystem.from_json", entry=True):
                system = ss.SetSystem.from_json(obj)
            g = len(system.ground)
            if kind == "vc":
                with tr.span("setsystem.vc_dimension_exact", entry=True):
                    value = ss.vc_dimension_exact(system)
                want = report["result"]["vc"]
                counts["setsystem.family_size"] += len(system)
                # Sizes 1..vc+1 are tried; each level is at most C(g, s) subsets.
                counts["setsystem.subsets_examined"] += sum(math.comb(g, s) for s in range(1, min(value + 1, g) + 1))
            else:
                with tr.span("setsystem.shatter_function", entry=True):
                    value = ss.shatter_function(system, n)
                want = report["result"]["value"]
                counts["setsystem.subsets_examined"] += math.comb(g, n)
        return [Check(f"call {op} ({name} {kind}): replayed value matches the report", value == want)]


WORKLOADS = {cls.name: cls for cls in (FreeSearch, FreeShatter, HeisenbergVerify, SetSystemVC)}
