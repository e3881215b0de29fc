"""End-to-end tests of the command line interface.

Commands are invoked in-process through main(); reports are parsed from
captured stdout. Exit codes: 0 verified/success, 1 failed check, 2 usage
or resource errors.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from progvc.cli import main
from progvc.freegroup import MAX_RANK, MAX_WORD_LEN
from progvc.heisenberg import enumerate_progression

P11_CSV = "\n".join(
    f"{a},{b},{c}"
    for a, b, c in sorted(enumerate_progression(1, 1))
) + "\n"

# sha256 of the report bytes as the unpruned breadth-first enumeration
# produced them; the pruned one must reproduce them exactly. The nmax 7
# digest, the benchmark's size, is as the scan of every box point with the
# membership formula produced it; the column check must reproduce it.
REPORT_DIGESTS = {
    "heisenberg verify --nmax 7":
        "9583f8318a96d6f957f07da7e3791b9e70ca03ed9d22d45ae5b32670528d4832",
    "heisenberg verify --nmax 5":
        "e8a2e50f0a247b46d58bf48036b8e917304b458c43a325d5b18a52efc73c6a02",
    "heisenberg verify --nmax 5 --inject-fault":
        "e9ec3670b866a92409ceec0af2c3a571df6c07fb7c062bc9540129257e0513bb",
    "heisenberg enumerate --n1 3 --n2 2 --format csv":
        "20d7837be96191204deb9e52934ddbf78787e91760c6779312f6ddb047775648",
}


# sha256 of json.dumps(report["result"]) as the level-by-level subset scans
# produced it; "intervals" is the [-20, 20] interval trace system and
# "random" 200 distinct subsets of 16 points drawn with seed 1.
SETSYSTEM_RESULT_DIGESTS = {
    "intervals vc":
        "65b065b48d1e847d65bc6a680f261d12878ff20abd7a99c750b1b44620d66951",
    "intervals pi --n 3":
        "b176fec1ece41ff6cd6296d5c5ecc55026fe9c951e689ebd4122ca3bc64cf58a",
    "intervals shatter --target 0,5,10":
        "0d48e500cd6fdd8e864ad960933277bfff771c7e81cf58941f7703a43d5a4057",
    "random vc":
        "e0470013e2d161ccc4977180e92285d6e9fc974a19efa684e60973726d955a46",
    "random pi --n 7":
        "e0004dcb91120b27fe363a4858c367153a6347f92c3d76907018856fde0235bf",
}


# Leaf-only (prefix-antichain) sets: no point's word is a prefix of another,
# so the whole 2^n witness table is rendered. sha256 of the report bytes as
# the report renderer produced them when it re-formatted every word per
# subset; rendering from per-point lookups must reproduce them exactly.
LEAF_ONLY_SETS = {
    "rank-2 8-point": (
        2,
        "2^-1*1^-1*2^-1*1^-3,2^-1*1^-1*2^-1*1^1*2^-2*1^1,1^-1*2^-1,1^-1*2^1,"
        "1^1*2^-1*1^2,2^1*1^1*2^-1,2^1*1^2,2^2*1^2*2^2*1^1",
    ),
    "rank-2 9-point": (
        2,
        "2^-2*1^-1,2^-1*1^1*2^-1*1^1*2^-2,1^-1*2^-1*1^1*2^1,1^-2,1^-1*2^1*1^2*2^-1*1^2,"
        "1^1*2^-1*1^-1*2^1*1^-1,1^2*2^2,2^1*1^-1,2^4*1^-1",
    ),
    "rank-3 9-point": (
        3,
        "3^-2*1^2*3^3*1^-1,2^-1*1^-1*2^-1*1^-1*3^1,2^-1*3^1*1^-1,1^-3*3^1,"
        "1^1*2^-1*3^-1*2^-1,1^1*2^1*1^1,2^2*3^2,2^1*3^1,3^2*2^-1",
    ),
}
# Two more sets, rendered the same way: the README's shattered rank-2 set,
# and a rank-1 line whose gap leaves subsets uncut.
FREE_SHATTER_SETS = LEAF_ONLY_SETS | {
    "rank-2 shattered": (2, "1^10,2^-10,1^-5,2^5*1^3"),
    "rank-1 gap": (1, "1^0,1^5,1^10"),
}
FREE_SHATTER_DIGESTS = {
    ("rank-2 8-point", "json"):
        "c54123d92616a3a9dde6f5ba9c1c54a74a15908e2f18485dfa458ebddca50c1b",
    ("rank-2 8-point", "text"):
        "1068e5decb4e147e477758ced51ee41496d4f8bac89882b324112ac99b263a49",
    ("rank-2 9-point", "json"):
        "fc2d696084a81cb2fa34820581aa0aadba79fce66d16c3ecfe8f497b93bd3897",
    ("rank-2 9-point", "text"):
        "0def26e5d2c1305a29437859b2e1645e8c4aa977ad7946f5aae2e015ba27d2e7",
    ("rank-3 9-point", "json"):
        "c2388a9f294aa0455aa0d19dafdeda7999ad1df69803cca3a26e5596af7a11a8",
    ("rank-3 9-point", "text"):
        "c81c5dd28404d4ae26f46f9e42c9eb37e33d72a00c05c517f515dc7509ee130d",
    ("rank-2 shattered", "json"):
        "af3aa3d2de450754216c8de3ea223bcba273b0ed8338b0e477dcf4ed53f2bc09",
    ("rank-2 shattered", "text"):
        "bd15aa05af37ba53e6303e8f2cd2cfba5957490dc790a3161cd43ff7eb193a73",
    ("rank-1 gap", "json"):
        "18f20c012b973f3187fea5007e96fce9a6d233bfae1de003a54841d93f64f7a2",
    ("rank-1 gap", "text"):
        "227bdd88c2e44997f4903c8313e626b2beb0d28a96117719b3f331cbc6f0aa90",
}

# A 6-point system whose labels sort differently by str and by repr ("a!"
# comes before "a" by repr, after it by str), with every third subset of
# the ground as a member. sha256 of the `setsystem shatter` report bytes as
# the renderer that sorted every subset produced them.
SORT_LABELS = ["a", "a!", "a b", "a'", "b", "A"]
SETSYSTEM_SHATTER_DIGESTS = {
    "json": "62e94829c8fb5436a034861deeffe9ba80876407140753d648a5b195a4d14a6e",
    "text": "bdc2c92916d22416783521eadb44c5996cb5b58cd912ee8a833129e66b209595",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_bounds_verify_heisenberg(capsys):
    code, report = run_json(capsys, "bounds", "verify-heisenberg")
    assert code == 0
    assert report["schema"] == "progvc/1"
    assert report["command"] == "bounds.verify-heisenberg"
    assert report["params"]["seed"] == 0
    assert report["params"]["threads"] == 1
    assert report["result"]["verified"] is True
    assert report["result"]["translates"]["bound"] == 267
    assert report["result"]["fixed"]["bound"] == 140


def test_bounds_values(capsys):
    assert run_json(capsys, "bounds", "cd", "--d", "2", "--n", "4")[1]["result"]["value"] == 11
    assert run_json(capsys, "bounds", "f", "--d", "2", "--k", "2")[1]["result"]["value"] == 14
    assert run_json(capsys, "bounds", "g", "--d", "1", "--k", "2")[1]["result"]["value"] == 6
    code, report = run_json(capsys, "bounds", "km", "--d", "2", "--l", "5", "--s", "14", "--n", "1")
    assert code == 0
    assert report["result"]["value"] == 13508370


def test_heisenberg_verify(capsys):
    code, report = run_json(capsys, "heisenberg", "verify", "--nmax", "2")
    assert code == 0
    assert len(report["result"]["cells"]) == 9
    assert report["result"]["mismatch_count"] == 0


def test_heisenberg_verify_fault_injection(capsys):
    code, report = run_json(capsys, "heisenberg", "verify", "--nmax", "1", "--inject-fault")
    assert code == 1
    assert report["result"]["mismatch_count"] == 1


def test_heisenberg_verify_benchmark_size_fits_default_cap(capsys):
    code, report = run_json(capsys, "heisenberg", "verify", "--nmax", "7")
    assert code == 0
    assert len(report["result"]["cells"]) == 64
    assert report["result"]["mismatch_count"] == 0


def test_heisenberg_verify_over_cap_exits_2(capsys):
    code = main(["heisenberg", "verify", "--nmax", "7", "--cap", "12"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("resource limit: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(REPORT_DIGESTS))
def test_heisenberg_report_digests(capsys, command):
    _, out = run(capsys, *command.split())
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[command]


def test_heisenberg_member(capsys):
    code, report = run_json(
        capsys, "heisenberg", "member", "--n1", "1", "--n2", "1", "--point", "1,1,1"
    )
    assert code == 0
    assert report["result"]["member"] is True
    code, report = run_json(
        capsys, "heisenberg", "member", "--n1", "1", "--n2", "1", "--point", "1,1,2"
    )
    assert code == 0
    assert report["result"]["member"] is False


def test_heisenberg_member_with_translate(capsys):
    code, report = run_json(
        capsys,
        "heisenberg", "member",
        "--n1", "0", "--n2", "0",
        "--point", "4,5,20",
        "--translate", "4,5,20",
    )
    assert code == 0
    assert report["result"]["member"] is True


def test_heisenberg_enumerate_csv_golden(capsys):
    code, out = run(
        capsys, "heisenberg", "enumerate", "--n1", "1", "--n2", "1", "--format", "csv"
    )
    assert code == 0
    assert out == P11_CSV
    assert len(out.strip().splitlines()) == 13


def test_heisenberg_enumerate_json_sorted(capsys):
    code, report = run_json(capsys, "heisenberg", "enumerate", "--n1", "1", "--n2", "1")
    assert code == 0
    points = [tuple(p) for p in report["result"]["points"]]
    assert points == sorted(points)
    assert report["result"]["size"] == 13


def test_heisenberg_witness(capsys):
    code, report = run_json(
        capsys, "heisenberg", "witness", "--n1", "2", "--n2", "2", "--point", "0,0,1"
    )
    assert code == 0
    assert report["result"]["verified"] is True
    assert report["result"]["letters_a"] <= 2
    assert report["result"]["letters_b"] <= 2


def test_heisenberg_witness_outside_domain(capsys):
    code = main(["heisenberg", "witness", "--n1", "1", "--n2", "1", "--point", "1,1,2"])
    assert code == 2


def test_heisenberg_search_is_gated(capsys):
    assert main(["heisenberg", "search"]) == 2
    assert main(["heisenberg", "search", "--experimental"]) == 2


def test_heisenberg_search_runs_with_window(capsys):
    code, report = run_json(
        capsys,
        "heisenberg", "search",
        "--experimental", "--translate-window", "1",
        "--size", "2", "--samples", "3", "--seed", "11",
        "--nmax", "1", "--point-window", "1",
    )
    assert code == 0
    assert report["result"]["heuristic"] is True
    assert "window" in report["result"]["caveat"]
    assert report["params"]["seed"] == 11


def test_heisenberg_search_rejects_sizes_the_point_window_cannot_hold(capsys):
    # --size 2 with a one-point window used to loop forever drawing points.
    argv = ["heisenberg", "search", "--experimental", "--translate-window", "0"]
    assert main(argv + ["--point-window", "0", "--size", "2"]) == 2
    assert capsys.readouterr().err == "error: --size 2 exceeds the 1 points of the point window\n"
    assert main(argv + ["--point-window=-1"]) == 2
    assert main(argv + ["--size=-1"]) == 2
    assert main(argv + ["--point-window", "0", "--size", "1"]) == 0


def test_free_shatter_interval_gap(capsys):
    code, report = run_json(
        capsys, "free", "shatter", "--k", "1", "--points", "1^0,1^5,1^10"
    )
    assert code == 0
    assert report["result"]["verdict"] == "not-shattered"
    assert ["1^10", "e"] in report["result"]["missing"]


def test_free_shatter_rejects_bad_token(capsys):
    code = main(["free", "shatter", "--k", "1", "--points", "1^0,zap"])
    assert code == 2
    assert "zap" in capsys.readouterr().err


@pytest.mark.parametrize("name, fmt", sorted(FREE_SHATTER_DIGESTS))
def test_free_shatter_report_digests(capsys, name, fmt):
    rank, points = FREE_SHATTER_SETS[name]
    code, out = run(capsys, "free", "shatter", "--k", str(rank), "--points", points, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FREE_SHATTER_DIGESTS[name, fmt]


@pytest.mark.parametrize(
    "points",
    [
        f"1^{MAX_WORD_LEN + 1}",
        f"1^{MAX_WORD_LEN // 2}*2^-{MAX_WORD_LEN // 2 + 1}",
        "1^99999999999999999999",
        "1^" + "9" * 5000,
    ],
    ids=["just-over-cap", "over-cap-across-tokens", "20-digit-exponent", "5000-digit-exponent"],
)
def test_free_shatter_word_over_length_cap_exits_2(capsys, points):
    code = main(["free", "shatter", "--k", "2", "--points", points])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_free_example_f2_reports_failure(capsys):
    code, report = run_json(capsys, "free", "example-f2")
    assert code == 1
    assert report["result"]["rows_ok"] == 13
    assert report["result"]["distances_ok"] == 9
    assert report["result"]["corrections"]["all_ok"] is True


def test_free_example_f2_csv(capsys):
    code, out = run(capsys, "free", "example-f2", "--format", "csv")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "pair,claimed,actual,ok"
    assert len(lines) == 11


def test_free_search_deterministic(capsys):
    argv = ["free", "search", "--k", "2", "--size", "6", "--samples", "20", "--seed", "42"]
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["result"]["seed"] == 42
    assert report["result"]["shattered"] == []
    assert sum(report["result"]["verdicts"].values()) == 20


# sha256 of the report bytes as free search printed them when it sampled
# and decided FWord sets; the size-4 run lists 5 shattered sets.
FREE_SEARCH_DIGESTS = {
    "6": "e0c69358d3e991e0b873091825a13bbd9d43c0f8c625da69e3b8fee2c698f784",
    "4": "ea0873ac9aa264907b2f81e4240c35fe3b9a4556aae3274164efc35e471dd42a",
}


@pytest.mark.parametrize("size", sorted(FREE_SEARCH_DIGESTS))
def test_free_search_report_digests(capsys, size):
    argv = ["free", "search", "--k", "2", "--size", size, "--samples", "3000", "--seed", "1"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FREE_SEARCH_DIGESTS[size]


@pytest.mark.parametrize("k, code", [(MAX_RANK, 0), (MAX_RANK + 1, 2)])
def test_free_rank_cap(capsys, k, code):
    for argv in (
        ["free", "shatter", "--k", str(k), "--points", "1^1,2^1"],
        ["free", "search", "--k", str(k), "--size", "2", "--samples", "2"],
    ):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code:
            assert captured.out == ""
            assert captured.err == f"error: rank {k} exceeds the cap of {MAX_RANK}\n"


def test_free_witness(capsys):
    code, report = run_json(
        capsys, "free", "witness", "--k", "2", "--bounds", "1,1", "--subset", "1"
    )
    assert code == 0
    assert report["result"]["translate"] == "1^1*2^1"
    assert report["result"]["verified"] is True


@pytest.mark.parametrize(
    "flags", [("--bounds", "1,1", "--subset", "x"), ("--bounds", "a")], ids=["subset", "bounds"]
)
def test_free_witness_malformed_integers_exit_2(capsys, flags):
    code = main(["free", "witness", "--k", "2", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_free_tripod(capsys):
    code, report = run_json(
        capsys, "free", "tripod", "--k", "2", "--points", "1^1,2^1,1^-1"
    )
    assert code == 0
    assert report["result"]["found"] is True
    assert report["result"]["center"] == "e"


def cosets_file(tmp_path):
    blob = {"ground": ["0", "1", "2", "3", "4", "5"], "family": [[0, 3], [1, 4], [2, 5]]}
    path = tmp_path / "cosets.json"
    path.write_text(json.dumps(blob))
    return str(path)


def test_setsystem_commands(capsys, tmp_path):
    path = cosets_file(tmp_path)
    code, report = run_json(capsys, "setsystem", "vc", "--file", path)
    assert code == 0
    assert report["result"]["vc"] == 1

    code, report = run_json(capsys, "setsystem", "shatter", "--file", path, "--target", "0,1")
    assert code == 0
    assert report["result"]["verdict"] == "not-shattered"

    code, report = run_json(capsys, "setsystem", "pi", "--file", path, "--n", "2")
    assert code == 0
    assert report["result"]["value"] == 3


def test_setsystem_vc_undefined_for_empty_family(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"ground": ["a"], "family": []}))
    code, report = run_json(capsys, "setsystem", "vc", "--file", str(path))
    assert code == 0
    assert report["result"]["vc"] is None
    assert report["result"]["verdict"] == "undefined"


def interval_trace_system(lo, hi):
    # Traces on [lo, hi] of every translate of [-r, r]: every odd-length
    # interval, every prefix and suffix of the window, and the empty set.
    n = hi - lo + 1
    spans = set()
    for g in range(lo - n, hi + n + 1):
        for r in range(2 * n + 1):
            a, b = max(g - r, lo), min(g + r, hi)
            if a <= b:
                spans.add((a - lo, b - lo))
    family = [[]] + [list(range(a, b + 1)) for a, b in sorted(spans)]
    return {"ground": list(range(lo, hi + 1)), "family": family}


def random_system(seed, ground_size, members):
    rng = random.Random(seed)
    masks = set()
    while len(masks) < members:
        masks.add(rng.getrandbits(ground_size))
    family = [[i for i in range(ground_size) if m >> i & 1] for m in sorted(masks)]
    return {"ground": list(range(ground_size)), "family": family}


@pytest.mark.parametrize("command", sorted(SETSYSTEM_RESULT_DIGESTS))
def test_setsystem_result_digests(capsys, tmp_path, command):
    name, sub, *rest = command.split()
    blob = interval_trace_system(-20, 20) if name == "intervals" else random_system(1, 16, 200)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(blob))
    code, report = run_json(capsys, "setsystem", sub, "--file", str(path), *rest)
    assert code == 0
    digest = hashlib.sha256(json.dumps(report["result"]).encode()).hexdigest()
    assert digest == SETSYSTEM_RESULT_DIGESTS[command]


@pytest.mark.parametrize("fmt", sorted(SETSYSTEM_SHATTER_DIGESTS))
def test_setsystem_shatter_report_digests(capsys, tmp_path, monkeypatch, fmt):
    family = [[i for i in range(6) if m >> i & 1] for m in range(0, 64, 3)]
    (tmp_path / "labels.json").write_text(json.dumps({"ground": SORT_LABELS, "family": family}))
    monkeypatch.chdir(tmp_path)
    target = ",".join(SORT_LABELS)
    code, out = run(capsys, "setsystem", "shatter", "--file", "labels.json", "--target", target, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SETSYSTEM_SHATTER_DIGESTS[fmt]


def test_setsystem_vc_over_cap_names_certified_partial(capsys, tmp_path):
    path = tmp_path / "powerset5.json"
    family = [[i for i in range(5) if m >> i & 1] for m in range(32)]
    path.write_text(json.dumps({"ground": list("abcde"), "family": family}))
    code = main(["setsystem", "vc", "--file", str(path), "--cap", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("resource limit: ") and captured.err.count("\n") == 1
    assert captured.err.rstrip().endswith("(certified partial: 2)")


def test_setsystem_missing_file(capsys):
    assert main(["setsystem", "vc", "--file", "/nonexistent.json"]) == 2


def run_stderr(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("ground", [[[1], [2]], [{"a": 1}, 2]], ids=["list", "object"])
@pytest.mark.parametrize("flags", [["vc"], ["pi", "--n", "1"], ["shatter", "--target", "2"]], ids=lambda f: f[0])
def test_setsystem_rejects_list_and_object_labels(capsys, tmp_path, ground, flags):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"ground": ground, "family": [[0]]}))
    code, out, err = run_stderr(capsys, "setsystem", flags[0], "--file", str(path), *flags[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ground labels") and err.count("\n") == 1


def test_setsystem_shatter_refuses_a_target_label_that_names_two_points(capsys, tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"ground": [1, "1", 2], "family": [[0], [1, 2]]}))
    code, out, err = run_stderr(capsys, "setsystem", "shatter", "--file", str(path), "--target", "2,1")
    assert (code, out) == (2, "")
    assert err == "error: '1' names 2 ground points, not one\n"
    code, report = run_json(capsys, "setsystem", "shatter", "--file", str(path), "--target", "2")
    assert code == 0 and report["result"]["target"] == ["2"]


@pytest.mark.parametrize(
    "family, message",
    [
        ([[True], [False, True]], "error: family index True is not an integer\n"),
        ([[0], 1], "error: family member 1 is not a list of indices\n"),
    ],
    ids=["bool-index", "bare-index"],
)
@pytest.mark.parametrize("flags", [["vc"], ["pi", "--n", "1"], ["shatter", "--target", "a"]], ids=lambda f: f[0])
def test_setsystem_rejects_family_entries_that_are_not_index_lists(capsys, tmp_path, family, message, flags):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"ground": ["a", "b"], "family": family}))
    code, out, err = run_stderr(capsys, "setsystem", flags[0], "--file", str(path), *flags[1:])
    assert (code, out, err) == (2, "", message)


def test_setsystem_shatter_target_as_a_json_array(capsys, tmp_path):
    path = tmp_path / "labels.json"
    ground = [" a", "b,c", "d", 1, "1", None]
    path.write_text(json.dumps({"ground": ground, "family": [[0], [1, 2], [3, 5]]}))
    file = ["setsystem", "shatter", "--file", str(path)]
    code, report = run_json(capsys, *file, "--target", '[" a", "b,c"]')
    assert code == 0 and report["result"]["target"] == [" a", "b,c"]
    assert report["result"]["witnesses"][-1] == {"subset": ["b,c"], "witness": ["b,c", "d"]}
    # JSON values, not their text: 1 and "1" are different labels.
    code, report = run_json(capsys, *file, "--target", "[1, null]")
    assert code == 0 and report["result"]["verdict"] == "not-shattered"
    assert report["result"]["witnesses"] == [
        {"subset": [], "witness": [" a"]},
        {"subset": ["1", "None"], "witness": ["1", "None"]},
    ]
    code, report = run_json(capsys, *file, "--target", ' ["1"]')
    assert code == 0 and report["result"]["missing"] == [["1"]]
    # The comma form strips and splits its tokens, as before.
    code, report = run_json(capsys, *file, "--target", " d ")
    assert code == 0 and report["result"]["target"] == ["d"]
    for target, message in [
        ("b,c", "error: 'b' names 0 ground points, not one\n"),
        ("[2]", "error: 2 is not a ground label\n"),
        ('["1", true]', "error: true is not a ground label\n"),
        ('{"d": 1}', "error: '{\"d\": 1}' names 0 ground points, not one\n"),
    ]:
        assert run_stderr(capsys, *file, "--target", target) == (2, "", message)
    code, out, err = run_stderr(capsys, *file, "--target", "[d]")
    assert (code, out) == (2, "") and err.startswith("error: --target is not a valid JSON array")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["setsystem", "vc", "--file", "missing.json"],
        ["setsystem", "shatter", "--file", "missing.json", "--target", "0"],
        ["free", "shatter", "--k", "2", "--points", "1^1"],
        ["free", "search", "--k", "2", "--size", "3", "--samples", "2"],
        ["heisenberg", "enumerate", "--n1", "1", "--n2", "1"],
        ["heisenberg", "verify", "--nmax", "1"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_negative_cap_is_bad_input_not_a_resource_limit(capsys, tmp_path, argv):
    assert run_stderr(capsys, *argv, "--cap", "-1") == (2, "", "error: --cap must be at least 0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cap": -2}))
    assert run_stderr(capsys, *argv, "--config", str(cfg)) == (2, "", "error: --cap must be at least 0\n")


def test_config_file_supplies_defaults_and_flags_win(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "text"}))
    code, out = run(capsys, "bounds", "cd", "--d", "2", "--n", "4", "--config", str(cfg))
    assert code == 0
    assert out.startswith("schema: progvc/1")

    code, out = run(
        capsys, "bounds", "cd", "--d", "2", "--n", "4", "--config", str(cfg), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["result"]["value"] == 11


def test_threads_env_default(capsys, monkeypatch):
    monkeypatch.setenv("PROGVC_THREADS", "3")
    code, report = run_json(capsys, "bounds", "cd", "--d", "0", "--n", "0")
    assert code == 0
    assert report["params"]["threads"] == 3


def test_threads_env_not_an_integer_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("PROGVC_THREADS", "x")
    code = main(["bounds", "cd", "--d", "1", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err == "error: PROGVC_THREADS must be an integer, got 'x'\n"


def test_consecutive_calls_share_no_state(capsys, monkeypatch, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "text", "threads": 4}))
    code, out = run(capsys, "bounds", "cd", "--d", "2", "--n", "4", "--config", str(cfg))
    assert code == 0
    assert out.startswith("schema: progvc/1") and "  threads: 4\n" in out
    code, report = run_json(capsys, "bounds", "cd", "--d", "2", "--n", "4")
    assert code == 0
    assert report["params"]["threads"] == 1

    monkeypatch.setenv("PROGVC_THREADS", "3")
    assert run_json(capsys, "bounds", "cd", "--d", "0", "--n", "0")[1]["params"]["threads"] == 3
    monkeypatch.setenv("PROGVC_THREADS", "5")
    assert run_json(capsys, "bounds", "cd", "--d", "0", "--n", "0")[1]["params"]["threads"] == 5
    monkeypatch.delenv("PROGVC_THREADS")
    assert run_json(capsys, "bounds", "cd", "--d", "0", "--n", "0")[1]["params"]["threads"] == 1


@pytest.mark.parametrize(
    "config, argv, message",
    [
        (
            {"threads": "x"},
            ["bounds", "cd", "--d", "1", "--n", "2"],
            "error: config 'threads': invalid int value 'x'\n",
        ),
        (
            {"samples": "many"},
            ["free", "search", "--k", "2", "--size", "3", "--samples", "2"],
            "error: config 'samples': invalid int value 'many'\n",
        ),
        (
            {"samples": 2.5},
            ["free", "search", "--k", "2", "--size", "3", "--samples", "2"],
            "error: config 'samples' must be a string or an integer, got 2.5\n",
        ),
    ],
    ids=["threads", "samples", "samples-float"],
)
def test_config_values_are_type_checked(capsys, tmp_path, config, argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main(argv + ["--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize(
    "config, argv, param, value",
    [
        ({"threads": 3}, ["bounds", "cd", "--d", "1", "--n", "2", "--thread", "5"], "threads", 5),
        ({"threads": 3}, ["bounds", "cd", "--d", "1", "--n", "2", "--thr=5"], "threads", 5),
        (
            {"samples": 7},
            ["free", "search", "--k", "2", "--size", "3", "--sam", "2"],
            "samples",
            2,
        ),
        ({"seed": 7}, ["free", "search", "--k", "2", "--size", "3", "--samples", "2"], "seed", 7),
    ],
    ids=["thread", "thr=", "sam", "unnamed"],
)
def test_abbreviated_flags_beat_the_config(capsys, tmp_path, config, argv, param, value):
    # argparse reads a prefix of exactly one long option as that option.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, report = run_json(capsys, *argv, "--config", str(cfg))
    assert code == 0
    assert report["params"][param] == value


def test_config_values_take_the_flag_type(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": "3", "max-len": 4, "func": 1}))
    code, report = run_json(
        capsys, "free", "search", "--k", "2", "--size", "3", "--samples", "2", "--config", str(cfg)
    )
    assert code == 0
    assert report["params"]["threads"] == 3
    assert report["params"]["max_len"] == 4


def test_threads_must_be_positive(capsys):
    assert main(["bounds", "cd", "--d", "0", "--n", "0", "--threads", "0"]) == 2


def test_csv_rejected_for_nested_reports(capsys):
    assert main(["bounds", "cd", "--d", "2", "--n", "4", "--format", "csv"]) == 2


def test_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["bounds", "cd", "--d", "2", "--n", "4", "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["result"]["value"] == 11


@pytest.mark.parametrize("parent", ["missing", "a-file"])
def test_output_into_missing_or_unwritable_directory_exits_2(capsys, tmp_path, parent):
    (tmp_path / "a-file").write_text("")
    target = tmp_path / parent / "x.json"
    code = main(["bounds", "cd", "--d", "2", "--n", "4", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: cannot write ") and captured.err.count("\n") == 1
    assert not target.exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["bounds", "nope"])
    assert err.value.code == 2


def test_reports_are_byte_identical_across_runs(capsys):
    runs = [run(capsys, "heisenberg", "verify", "--nmax", "1")[1] for _ in range(2)]
    assert runs[0] == runs[1]


# ------------------------------------------------------------- argv fuzzing

SMALL = st.integers(-2, 5).map(str)
COUNT = st.integers(-1, 3).map(str)
FREE_WORD = st.one_of(
    st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3)), min_size=1, max_size=3).map(
        lambda runs: "*".join(f"{i}^{e}" for i, e in runs)
    ),
    st.sampled_from(["e", "1", "1^", "^2", "x", " "]),
)
FREE_POINTS = st.lists(FREE_WORD, min_size=1, max_size=4).map(",".join)
INT_LIST = st.lists(st.sampled_from(["-1", "0", "1", "2", "3", "x", ""]), max_size=3).map(",".join)
JSON_LABELS = st.one_of(
    st.lists(st.sampled_from(["0", "3", "x", 0, None, True, [1]]), max_size=3).map(json.dumps),
    st.sampled_from(["[", "[0", "[]", ' ["1"]']),
)
TRIPLE = st.one_of(
    st.lists(st.integers(-2, 2).map(str), min_size=3, max_size=3).map(",".join),
    st.sampled_from(["", "1,2", "a,b,c", "1,2,3,4"]),
)

# Per command: flags it always gets, then flags it may get.
COMMANDS = {
    ("heisenberg", "verify"): ({"--nmax": SMALL}, {"--cap": SMALL, "--inject-fault": None}),
    ("heisenberg", "member"): (
        {"--n1": SMALL, "--n2": SMALL, "--point": TRIPLE}, {"--translate": TRIPLE}
    ),
    ("heisenberg", "enumerate"): ({"--n1": SMALL, "--n2": SMALL}, {"--cap": SMALL}),
    ("heisenberg", "witness"): ({"--n1": SMALL, "--n2": SMALL, "--point": TRIPLE}, {}),
    ("heisenberg", "search"): (
        {},
        {
            "--experimental": None,
            "--translate-window": st.integers(-1, 1).map(str),
            "--size": SMALL,
            "--samples": COUNT,
            "--seed": SMALL,
            "--nmax": st.integers(-1, 2).map(str),
            "--point-window": st.integers(-1, 1).map(str),
        },
    ),
    ("bounds", "cd"): ({"--d": SMALL, "--n": SMALL}, {}),
    ("bounds", "f"): ({"--d": SMALL, "--k": SMALL}, {}),
    ("bounds", "g"): ({"--d": SMALL, "--k": SMALL}, {}),
    ("bounds", "km"): ({"--d": SMALL, "--l": SMALL, "--s": SMALL, "--n": SMALL}, {}),
    ("bounds", "verify-heisenberg"): ({}, {}),
    ("free", "shatter"): ({"--k": SMALL, "--points": FREE_POINTS}, {"--cap": SMALL}),
    ("free", "example-f2"): ({}, {}),
    ("free", "search"): (
        {"--k": SMALL, "--size": SMALL, "--samples": COUNT},
        {"--seed": SMALL, "--max-len": SMALL, "--cap": SMALL},
    ),
    ("free", "witness"): ({"--k": SMALL, "--bounds": INT_LIST}, {"--subset": INT_LIST}),
    ("free", "tripod"): ({"--k": SMALL, "--points": FREE_POINTS}, {}),
    ("setsystem", "vc"): ({"--file": None}, {"--cap": SMALL}),
    ("setsystem", "shatter"): (
        {"--file": None, "--target": st.one_of(INT_LIST, JSON_LABELS)}, {"--cap": SMALL}
    ),
    ("setsystem", "pi"): ({"--file": None, "--n": SMALL}, {}),
}
COMMON = {
    "--format": st.sampled_from(["json", "csv", "text"]),
    "--threads": st.integers(-1, 3).map(str),
}


# A well-formed system, then malformed ones: a list label, a family index
# past the ground, labels 0 and "0" that share their text, bool family
# indices and a family member that is not a list.
FUZZ_SYSTEMS = [
    {"ground": ["0", "1", "2", "3"], "family": [[0, 1], [1, 2], [2, 3], [3]]},
    {"ground": ["0", [1], "2"], "family": [[0, 2]]},
    {"ground": ["0", "1"], "family": [[0, 2]]},
    {"ground": [0, "0", "1"], "family": [[0], [1, 2]]},
    {"ground": ["0", "1"], "family": [[True], [False, True]]},
    {"ground": ["0", "1"], "family": [[0], 1]},
]


@pytest.fixture(scope="module")
def fuzz_systems(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    paths = [str(folder / f"system{i}.json") for i in range(len(FUZZ_SYSTEMS))]
    for path, system in zip(paths, FUZZ_SYSTEMS):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(system, fh)
    return paths + [paths[0] + ".missing"]


@st.composite
def argvs(draw, system_files):
    group, cmd = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[group, cmd]
    chosen = dict(required)
    chosen.update({f: v for f, v in (optional | COMMON).items() if draw(st.booleans())})
    # Malformed argv, which argparse itself rejects or reads: a required flag
    # left out, an unknown one, or a value that starts with "-" after a space.
    fault = draw(st.sampled_from([None, None, "drop", "unknown", "spaced"]))
    if fault == "drop" and required:
        del chosen[draw(st.sampled_from(sorted(required)))]
    valued = sorted(f for f in chosen if f == "--file" or chosen[f] is not None)
    spaced = draw(st.sampled_from(valued)) if fault == "spaced" and valued else None
    argv = [group, cmd]
    for flag, values in chosen.items():
        if flag == "--file":
            values = st.sampled_from(system_files)
        if values is None:
            argv.append(flag)
        elif flag == spaced:
            argv += [flag, "-" + draw(values).lstrip("-")]
        else:
            # flag=value, so that a value like "-1,2" is not read as a flag
            argv.append(f"{flag}={draw(values)}")
    if fault == "unknown":
        unknown = ["--bogus", "--bogus=1", "-z", "extra", "two\nlines", "--s", "--"]
        extra = draw(st.sampled_from(unknown))
        argv.insert(draw(st.integers(2, len(argv))), extra)
    return argv


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_generated_argv_keeps_the_exit_contract(fuzz_systems, data):
    argv = data.draw(argvs(fuzz_systems))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse rejected the argv.
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") <= 1
    assert (code == 2) == bool(err.getvalue())
