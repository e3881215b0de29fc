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
import re
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from progvc import bounds, setsystem
from progvc.bounds import MAX_BITS
from progvc.cli import _json_text, main
from progvc.freegroup import MAX_RANK, MAX_TRIE_SLOTS, MAX_WORD_LEN, _PrefixTrie, is_shattered_free, parse_word
from progvc.heisenberg import HProgressionSpec, enumerate_progression, membership, parse_point

P11_CSV = "\n".join(
    f"{a},{b},{c}"
    for a, b, c in sorted(enumerate_progression(1, 1))
) + "\n"

# The whole-report digests in this file are of progvc/2 reports. The
# schema/2 bump changed only the schema line and the params, so each
# report's command and result are still the bytes named below.
#
# sha256 of the report bytes as the unpruned breadth-first enumeration
# produced them; the pruned one must reproduce them exactly. The nmax 7
# digest, the benchmark's size, is as the scan of every box point with the
# membership formula produced it; the column check must reproduce it.
# The verify digests are of those bytes less the "inject_fault" params
# line, which went with the flag.
REPORT_DIGESTS = {
    "heisenberg verify --nmax 7":
        "3fa4a8496e81b4bb828f0304056384d0256d9f1266232492d422234b5c7cafaf",
    "heisenberg verify --nmax 5":
        "6ffae4cec46d489ffd6f5695943320c80d1537241ae2e02828ec42fa59c652f7",
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
# More sets, rendered the same way: the README's shattered rank-2 set, a
# rank-1 line whose gap leaves subsets uncut, and two sets with points
# inside their minimal tree, where the order in which the points' words
# enter a trie differs most from word_key order: a common prefix that is a
# point, and a point with points in two branches below it.
FREE_SHATTER_SETS = LEAF_ONLY_SETS | {
    "rank-2 shattered": (2, "1^10,2^-10,1^-5,2^5*1^3"),
    "rank-1 gap": (1, "1^0,1^5,1^10"),
    "rank-2 prefix point": (2, "1^1,1^2,1^1*2^1"),
    "rank-2 inner points": (2, "e,2^1,1^3,1^2*2^1,1^1*2^2,1^1*2^1*1^1"),
}
# The text digests are of the rendering that starts every list item with
# "-" and prints an empty list or dict as [] or {}.
FREE_SHATTER_DIGESTS = {
    ("rank-2 8-point", "json"):
        "62c5f346e8dbd9ca3715df08bbb9aa7956082e69c2f4955c48c0e2b2653e4af5",
    ("rank-2 8-point", "text"):
        "1e98e8476a7999eb6028610ab0371c41b0b60704d7b317b7d375b58316b90c13",
    ("rank-2 9-point", "json"):
        "9805ccadd1caf56e634bb39a88de4723f31e088aee4fe4f675488679612af9af",
    ("rank-2 9-point", "text"):
        "33202cf6d3ddb4aa536da454e6e7e2b7ccee3291b795d0218960c5acca35c8d0",
    ("rank-3 9-point", "json"):
        "33932ab77c8e10e76b4fa2b38edb491e3bdc026f332e10727f09a9814838712a",
    ("rank-3 9-point", "text"):
        "cc249f7eb21e1d248d2807f0a1e38c9919920a034d1e2f33d146eb194f0a44a1",
    ("rank-2 shattered", "json"):
        "e8a720a8dc77feb244edceb38c9591fdebc14053778369df9d257da73ffbeba3",
    ("rank-2 shattered", "text"):
        "4bcc01dd7ec2dfebdabdc78ee5c9822ddceb5d65f2a2efbd188423c0233646e1",
    ("rank-1 gap", "json"):
        "0a03d0f0ade94e20a9149ba0615b65331018016e733ad082da7021bfdbade0b5",
    ("rank-1 gap", "text"):
        "b58d86a756a34a07c2c77093261dbff329d2b2818c3231be47017a729a5f2312",
    ("rank-2 prefix point", "json"):
        "932db4e92c6832ae2a33a694c92cb335b606dfe8b71cd373876aa96eec376d93",
    ("rank-2 prefix point", "text"):
        "c3deefce29d48f3c219ab1e9c17b9e8212ed5427ed02aa971c64a6e606f0c8f2",
    ("rank-2 inner points", "json"):
        "d677fe3c8fbb60c6c68c7f26b89831ba1ece76450df36099d0feb9491d5b8cab",
    ("rank-2 inner points", "text"):
        "6c4ece4a251d98922af3a17b16719d48dfa61daee57924af58101aa36c041c3b",
}

# A 6-point system whose labels sort differently by str and by repr ("a!"
# comes before "a" by repr, after it by str), with every third subset of
# the ground as a member. sha256 of the `setsystem shatter` report bytes as
# the renderer that sorted every subset produced them (text: as above).
SORT_LABELS = ["a", "a!", "a b", "a'", "b", "A"]
SETSYSTEM_SHATTER_DIGESTS = {
    "json": "d2d6c793860b4f1b2ee9816a988c7c03d960046e9d9fb9561b69d26d6a7ce232",
    "text": "f8d34bbbc0c0c17928fe4eef483ba07dbef8508532e4f719dd1b241af9117fdf",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_bounds_verify_heisenberg_exits_1_when_a_flip_moves(capsys, monkeypatch):
    # Every count at or over 2**n: the fixed inequality now holds at 36 too.
    monkeypatch.setattr(bounds, "_fixed_pattern_count", lambda n: 2**n)
    code, report = run_json(capsys, "bounds", "verify-heisenberg")
    assert code == 1 and report["result"]["verified"] is False
    assert report["result"]["fixed"]["holds_at"] == [35, 36]
    assert report["result"]["translates"] == {
        "check": "heisenberg-translates", "holds_at": [268], "fails_at": [267], "bound": 267
    }


def test_bounds_verify_heisenberg(capsys):
    code, report = run_json(capsys, "bounds", "verify-heisenberg")
    assert code == 0
    assert report["schema"] == "progvc/2"
    assert report["command"] == "bounds.verify-heisenberg"
    assert report["params"] == {}
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


def test_heisenberg_verify_fault_injection(capsys, verify_faults):
    for plant, nmax, cap, flagged in verify_faults:
        with pytest.MonkeyPatch.context() as mp:
            plant(mp)
            code, report = run_json(capsys, "heisenberg", "verify", f"--nmax={nmax}", f"--cap={cap}")
        cells = report["result"]["cells"]
        assert code == 1
        assert [(c["n1"], c["n2"], c["mismatches"]) for c in cells if c["mismatches"]] == flagged
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


@pytest.mark.parametrize(
    "argv",
    [
        "heisenberg witness --n1 100000000 --n2 100000000 --point 0,0,1",
        "heisenberg witness --n1 400 --n2 400 --point 0,0,1",
        "bounds f --d 300 --k 300",
        "bounds km --d 2 --l 100000 --s 1 --n 100000",
        "bounds cd --d 5000 --n 100000",
        "free search --k 2 --size 1 --samples 3 --max-len 100000000",
        "free witness --k 2 --bounds 100000000,1",
        "free witness --k 2 --bounds 1,100000000 --subset 1",
    ],
)
def test_budgets_past_the_integer_caps_exit_2(capsys, argv):
    code, out, err = run_stderr(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("resource limit: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("n1, n2, vc", [(1, 1, 3), (2, 1, 4), (1, 2, 4)])
def test_heisenberg_vc(capsys, n1, n2, vc):
    code, report = run_json(capsys, "heisenberg", "vc", "--n1", str(n1), "--n2", str(n2))
    assert code == 0
    result = report["result"]
    assert report["params"] == {"n1": n1, "n2": n2}
    assert result["vc"] == vc and result["witness"]["verdict"] == "shattered"
    target = {parse_point(p) for p in result["witness"]["target"]}
    assert len(target) == vc
    for row in result["witness"]["witnesses"]:
        spec = HProgressionSpec(n1, n2, parse_point(row["witness"]))
        assert {p for p in target if membership(spec, p)} == {parse_point(p) for p in row["subset"]}
    assert len(result["witness"]["witnesses"]) == 2**vc


def test_heisenberg_vc_past_the_work_cap_names_the_certified_partial(capsys):
    start = time.perf_counter()
    code, out, err = run_stderr(capsys, "heisenberg", "vc", "--n1", "3", "--n2", "3")
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err.startswith("resource limit: ") and err.count("\n") == 1
    assert err.endswith("(certified partial: 1)\n")


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


def test_text_report_marks_list_items_and_empty_containers(capsys):
    code, out = run(capsys, "free", "shatter", "--k", "2", "--points", "1^1,2^1", "--format", "text")
    assert code == 0
    assert out.split("result:\n")[1] == (
        "  target:\n    - 1^1\n    - 2^1\n  verdict: shattered\n  missing: []\n  witnesses:\n"
        "    -\n      subset: []\n      witness: 1^2*P(0, 0)\n"
        "    -\n      subset:\n        - 1^1\n      witness: e*P(1, 0)\n"
        "    -\n      subset:\n        - 2^1\n      witness: e*P(0, 1)\n"
        "    -\n      subset:\n        - 1^1\n        - 2^1\n      witness: e*P(1, 1)\n"
    )


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


@pytest.mark.parametrize("k, points", [(str(MAX_RANK), "1^1000,10000^-1000")], ids=["rank"])
def test_free_shatter_past_the_trie_slot_budget_exits_2(capsys, k, points):
    # The trie's rows would hold 6 * 10^7 slots: about a gigabyte, or a
    # MemoryError, if stored.
    start = time.perf_counter()
    code, out, err = run_stderr(capsys, "free", "shatter", "--k", k, "--points", points)
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == f"resource limit: the minimal tree needs over {MAX_TRIE_SLOTS} letter and row slots\n"


def test_free_shatter_builds_only_the_witness_words_of_long_words(capsys):
    # The trie's 20,001 vertex words would hold 10^8 letters; the four
    # witnesses name three vertices.
    start = time.perf_counter()
    code, report = run_json(capsys, "free", "shatter", "--k", "1", "--points", "1^10000,1^-10000")
    assert time.perf_counter() - start < 2
    assert code == 0
    assert report["result"]["verdict"] == "shattered"
    assert [row["witness"] for row in report["result"]["witnesses"]] == [
        "1^10001*P(0)",
        "1^-1*P(9999)",
        "1^1*P(9999)",
        "e*P(10000)",
    ]


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
    "6": "ff84fae4a1b5fbf21ec7f865cffecc5676e704872320781840e566cd7267e45a",
    "4": "673f530b1c35c7d8aecbb31b8bb1a87c0c5c163d1698e27e27749a742e294593",
}


@pytest.mark.parametrize("size", sorted(FREE_SEARCH_DIGESTS))
def test_free_search_report_digests(capsys, size):
    argv = ["free", "search", "--k", "2", "--size", size, "--samples", "3000", "--seed", "1"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FREE_SEARCH_DIGESTS[size]


@pytest.mark.parametrize("size", sorted(FREE_SEARCH_DIGESTS))
def test_free_search_builds_no_vertex_words(capsys, monkeypatch, size):
    # The search decides every set from the trie's edges, counts and rows.
    def no_words(trie, c):
        raise AssertionError("vertex words built")

    monkeypatch.setattr(_PrefixTrie, "vertex", no_words)
    with pytest.raises(AssertionError, match="vertex words built"):
        is_shattered_free([parse_word(2, "1^1"), parse_word(2, "2^1")])
    argv = ["free", "search", "--k", "2", "--size", size, "--samples", "3000", "--seed", "1"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FREE_SEARCH_DIGESTS[size]


def test_free_search_builds_a_trie_only_for_sets_that_reach_the_scan(capsys, monkeypatch):
    # The leaf and tripod filters read the sorted code words alone.
    made = []
    init = _PrefixTrie.__init__

    def counted(trie, rank, words):
        made.append(len(words))
        init(trie, rank, words)

    monkeypatch.setattr(_PrefixTrie, "__init__", counted)
    argv = ["free", "search", "--k", "2", "--size", "6", "--samples", "3000", "--seed", "1"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FREE_SEARCH_DIGESTS["6"]
    verdicts = json.loads(out)["result"]["verdicts"]
    assert len(made) == verdicts["rejected-scan"] + verdicts["shattered"] == 106


def test_free_search_answers_for_words_past_the_trie_letter_budget(capsys):
    # Words of up to 10,000 letters: the first two sets' minimal trees have
    # about 14,000 vertices each, whose words would hold over 5 * 10^7
    # letters, five times MAX_TRIE_SLOTS. The digest is that of the report
    # free search printed before it had a trie budget.
    argv = ["free", "search", "--k", "2", "--size", "2", "--samples", "3", "--max-len", str(MAX_WORD_LEN)]
    code, out = run(capsys, *argv, "--seed", "0")
    assert code == 0
    assert json.loads(out)["result"]["verdicts"]["shattered"] == 3
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "536bb21a8b848313966dff2edf4724f3d93cb0c271c3c9f9e62a63c6274997ab"
    )


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


def test_free_witness_reports_a_repeated_index_once(capsys):
    # The translate cuts out the set {a_1}, so the report names index 1 once.
    code, report = run_json(
        capsys, "free", "witness", "--k", "2", "--bounds", "1,1", "--subset", "1,1"
    )
    assert code == 0
    assert report["result"]["subset"] == [1]
    assert report["result"]["translate"] == "1^1*2^1"


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


def test_setsystem_vc_charges_the_nodes_it_walks(capsys, tmp_path, monkeypatch):
    # The walk certifies 6 on this system in 8,206 nodes, within a cap of
    # 10,000 that C(16, 7) = 11,440 candidate 7-subsets would exceed.
    path = tmp_path / "random.json"
    path.write_text(json.dumps(random_system(1, 16, 200)))
    monkeypatch.setattr(setsystem, "WORK_CAP", 10_000)
    code, report = run_json(capsys, "setsystem", "vc", "--file", str(path))
    assert code == 0 and report["result"]["vc"] == 6


def test_setsystem_vc_past_the_work_cap_names_the_certified_partial(capsys, tmp_path, monkeypatch):
    path = tmp_path / "random.json"
    path.write_text(json.dumps(random_system(1, 16, 200)))
    monkeypatch.setattr(setsystem, "WORK_CAP", 8_000)
    code, out, err = run_stderr(capsys, "setsystem", "vc", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == "resource limit: walk needs more than the 8000 nodes left of the work cap (certified partial: 6)\n"


def test_setsystem_missing_file(capsys):
    assert main(["setsystem", "vc", "--file", "/nonexistent.json"]) == 2


def run_stderr(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "ground, message",
    [
        ([[1], [2]], "error: ground labels must be JSON scalars, not lists or objects\n"),
        ([{"a": 1}, 2], "error: ground labels must be JSON scalars, not lists or objects\n"),
        # Iterated, these would be the labels "a", "b" and the keys 1, 2.
        ("ab", "error: set system 'ground' and 'family' must be JSON arrays\n"),
        ({"1": 0, "2": 0}, "error: set system 'ground' and 'family' must be JSON arrays\n"),
    ],
    ids=["list", "object", "string-ground", "object-ground"],
)
@pytest.mark.parametrize("flags", [["vc"], ["pi", "--n", "1"], ["shatter", "--target", "2"]], ids=lambda f: f[0])
def test_setsystem_rejects_list_and_object_labels(capsys, tmp_path, ground, message, flags):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"ground": ground, "family": [[0]]}))
    code, out, err = run_stderr(capsys, "setsystem", flags[0], "--file", str(path), *flags[1:])
    assert (code, out, err) == (2, "", message)


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
    # A label nested 500 deep is named by its first 40 characters.
    code, out, err = run_stderr(capsys, *file, "--target", "[" * 500 + "]" * 500)
    assert (code, out) == (2, "") and err == f"error: {'[' * 40} is not a ground label\n"
    # Bad JSON, nesting too deep to decode, and an integer past the digit limit.
    for target in ["[d]", "[" * 200_000, "[1" + "0" * 5000 + "]"]:
        code, out, err = run_stderr(capsys, *file, "--target", target)
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
    assert out.startswith("schema: progvc/2")

    code, out = run(
        capsys, "bounds", "cd", "--d", "2", "--n", "4", "--config", str(cfg), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["result"]["value"] == 11


def test_consecutive_calls_share_no_state(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "text", "seed": 4}))
    search = ["free", "search", "--k", "2", "--size", "3", "--samples", "2"]
    code, out = run(capsys, *search, "--config", str(cfg))
    assert code == 0
    assert out.startswith("schema: progvc/2") and "  seed: 4\n" in out
    code, report = run_json(capsys, *search)
    assert code == 0
    assert report["params"]["seed"] == 0


@pytest.mark.parametrize(
    "config, argv, message, raises",
    [
        (
            {"cap": "x"},
            ["free", "shatter", "--k", "1", "--points", "1^1"],
            "error: argument --cap: invalid int value: 'x'\n",
            True,
        ),
        (
            {"samples": "many"},
            ["free", "search", "--k", "2", "--size", "3", "--samples", "2"],
            "error: argument --samples: invalid int value: 'many'\n",
            True,
        ),
        (
            {"samples": 2.5},
            ["free", "search", "--k", "2", "--size", "3", "--samples", "2"],
            "error: config 'samples' must be a string or an integer, got 2.5\n",
            False,
        ),
        (
            {"seed": True},
            ["free", "search", "--k", "2", "--size", "3", "--samples", "2"],
            "error: config 'seed' must be a string or an integer, got True\n",
            False,
        ),
    ],
    ids=["cap", "samples", "samples-float", "seed-true"],
)
def test_config_values_are_type_checked(capsys, tmp_path, config, argv, message, raises):
    # A value the flag rejects exits through argparse, as the same value typed
    # would; JSON that no flag's text can spell is refused before that.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    if raises:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg)])
        code = exc.value.code
    else:
        code = main(argv + ["--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize(
    "content",
    [b'{"seed": ', b'{"seed": "\xff"}', b'{"seed": 1' + b"0" * 5000 + b"}", b"[" * 200_000],
    ids=["bad-json", "bad-utf8", "5001-digit-int", "too-deep"],
)
def test_unreadable_config_and_system_files_exit_2(capsys, tmp_path, content):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    search = ["free", "search", "--k", "2", "--size", "3", "--samples", "2"]
    for argv, start in [
        ([*search, "--config", str(path)], f"error: cannot load config {path}: "),
        (["setsystem", "vc", "--file", str(path)], f"error: {path} is not valid JSON: "),
    ]:
        code, out, err = run_stderr(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith(start) and err.count("\n") == 1


def test_config_value_outside_the_flags_choices_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "cd", "--d", "2", "--n", "4", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("error: argument --format: invalid choice: 'xml'")
    assert captured.err.count("\n") == 1


def test_config_ignores_keys_that_name_no_flag_of_the_command(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    # "nmax" is another command's flag; "config" would name a missing file.
    cfg.write_text(json.dumps({"bogus": [1], "func": 1.5, "config": "missing.json", "nmax": "x"}))
    search = ["free", "search", "--k", "2", "--size", "3", "--samples", "2"]
    plain = run(capsys, *search)
    assert plain[0] == 0
    assert run(capsys, *search, "--config", str(cfg)) == plain


@pytest.mark.parametrize(
    "config, argv, param, value",
    [
        ({"seed": 3}, ["free", "search", "--k", "2", "--size", "3", "--samples", "2", "--see", "5"], "seed", 5),
        ({"max-len": 3}, ["free", "search", "--k", "2", "--size", "3", "--samples", "2", "--max=5"], "max_len", 5),
        (
            {"samples": 7},
            ["free", "search", "--k", "2", "--size", "3", "--sam", "2"],
            "samples",
            2,
        ),
        ({"seed": 7}, ["free", "search", "--k", "2", "--size", "3", "--samples", "2"], "seed", 7),
    ],
    ids=["see", "max=", "sam", "unnamed"],
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
    cfg.write_text(json.dumps({"seed": "3", "max-len": 4, "func": 1}))
    code, report = run_json(
        capsys, "free", "search", "--k", "2", "--size", "3", "--samples", "2", "--config", str(cfg)
    )
    assert code == 0
    assert report["params"]["seed"] == 3
    assert report["params"]["max_len"] == 4


def test_params_echo_exactly_the_commands_own_flags(capsys, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"ground": [0, 1], "family": [[0], [1]]}))
    argvs = {
        ("heisenberg", "verify"): ["--nmax", "1"],
        ("heisenberg", "member"): ["--n1", "1", "--n2", "1", "--point", "1,0,0"],
        ("heisenberg", "enumerate"): ["--n1", "1", "--n2", "1"],
        ("heisenberg", "witness"): ["--n1", "1", "--n2", "1", "--point", "1,0,0"],
        ("heisenberg", "vc"): ["--n1", "1", "--n2", "0"],
        ("bounds", "cd"): ["--d", "1", "--n", "2"],
        ("bounds", "f"): ["--d", "1", "--k", "1"],
        ("bounds", "g"): ["--d", "1", "--k", "1"],
        ("bounds", "km"): ["--d", "1", "--l", "1", "--s", "1", "--n", "1"],
        ("bounds", "verify-heisenberg"): [],
        ("free", "shatter"): ["--k", "1", "--points", "1^1"],
        ("free", "example-f2"): [],
        ("free", "search"): ["--k", "2", "--size", "3", "--samples", "1"],
        ("free", "witness"): ["--k", "2", "--bounds", "1,1"],
        ("free", "tripod"): ["--k", "1", "--points", "1^1,1^2,1^3"],
        ("setsystem", "vc"): ["--file", str(path)],
        ("setsystem", "shatter"): ["--file", str(path), "--target", "0"],
        ("setsystem", "pi"): ["--file", str(path), "--n", "1"],
    }
    assert set(argvs) == set(COMMANDS)
    for (group, cmd), argv in argvs.items():
        with pytest.raises(SystemExit):
            main([group, cmd, "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        flags = {f[2:].replace("-", "_") for f in re.findall(r"--[a-z][a-z0-9-]*", usage)}
        code, report = run_json(capsys, group, cmd, *argv)
        assert code in (0, 1)
        assert set(report["params"]) == flags - {"output", "format", "config"}, (group, cmd)
        assert report["command"] == f"{group}.{cmd}"


def readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("progvc ")]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "system.json").write_text(json.dumps({"ground": [0, 1, 2], "family": [[0], [0, 1], [2]]}))
    commands = readme_commands()
    assert len(commands) >= 17
    for argv in commands:
        code, out, err = run_stderr(capsys, *argv)
        # free example-f2 reports the shipped tables' known discrepancies.
        assert code == (1 if argv[:2] == ["free", "example-f2"] else 0), (argv, err)
        assert out and not err, argv
        if "--format" not in argv:
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv


# What a report may hold, with the characters json escapes or must pass
# through: quotes, backslashes, control characters, non-ASCII, astral
# characters and lone surrogates; ints up to the bounds' width, and the bools
# beside 0 and 1.
REPORT_STRINGS = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\xe9", "\u2028", "\ud800", "\udfff", "\U0001f600"]),
        st.characters(exclude_categories=()),
    )
)
REPORT_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1]),
    st.integers(-(2**MAX_BITS), 2**MAX_BITS),
    REPORT_STRINGS,
)
REPORT_TREES = st.recursive(
    REPORT_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(REPORT_STRINGS, kids, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(REPORT_TREES)
def test_json_text_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "obj", [1.5, [0.0], {"a": {"b": float("nan")}}, {1: 2}, {"a": [{None: 1}]}, {(1,): 2}, {1}, b"x", ["a", 0.5]]
)
def test_json_text_refuses_what_a_report_cannot_hold(obj):
    with pytest.raises(TypeError):
        _json_text(obj)


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
UNIT = st.integers(-1, 1).map(str)
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
    ("heisenberg", "verify"): ({"--nmax": SMALL}, {"--cap": SMALL}),
    ("heisenberg", "member"): (
        {"--n1": SMALL, "--n2": SMALL, "--point": TRIPLE}, {"--translate": TRIPLE}
    ),
    ("heisenberg", "enumerate"): ({"--n1": SMALL, "--n2": SMALL}, {"--cap": SMALL}),
    ("heisenberg", "witness"): ({"--n1": SMALL, "--n2": SMALL, "--point": TRIPLE}, {}),
    # Budgets past 1 walk for a second or more; the refusals have their own test.
    ("heisenberg", "vc"): ({"--n1": UNIT, "--n2": UNIT}, {}),
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
}


# A well-formed system, then malformed ones: a list label, a family index
# past the ground, labels 0 and "0" that share their text, bool family
# indices, a family member that is not a list, and a string and an object
# where the ground's array belongs.
FUZZ_SYSTEMS = [
    {"ground": ["0", "1", "2", "3"], "family": [[0, 1], [1, 2], [2, 3], [3]]},
    {"ground": ["0", [1], "2"], "family": [[0, 2]]},
    {"ground": ["0", "1"], "family": [[0, 2]]},
    {"ground": [0, "0", "1"], "family": [[0], [1, 2]]},
    {"ground": ["0", "1"], "family": [[True], [False, True]]},
    {"ground": ["0", "1"], "family": [[0], 1]},
    {"ground": "01", "family": [[0, 1]]},
    {"ground": {"0": 1, "1": 2}, "family": [[0]]},
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
    spaced = draw(st.sampled_from(sorted(chosen))) if fault == "spaced" and chosen else None
    argv = [group, cmd]
    for flag, values in chosen.items():
        if flag == "--file":
            values = st.sampled_from(system_files)
        if flag == spaced:
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


CONFIG_VALUES = st.one_of(
    st.integers(-2, 5),
    st.sampled_from(["", "x", "1", "-1", "json", "text", "csv", "1^1,2^1", "1,0,0", "two\nlines"]),
    st.booleans(),
    st.floats(-2, 2),
    st.lists(st.integers(0, 2), max_size=2),
)
VALID_SEARCH = ["free", "search", "--k", "2", "--size", "3", "--samples", "2"]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_generated_configs_keep_the_exit_contract(fuzz_systems, data):
    argv = data.draw(st.one_of(argvs(fuzz_systems), st.just(VALID_SEARCH)))
    required, optional = COMMANDS[tuple(argv[:2])]
    names = sorted(f[2:] for f in required | optional | COMMON) + ["bogus", "func", "config"]
    keys = data.draw(st.lists(st.sampled_from(names), max_size=4, unique=True))
    config = {key: data.draw(CONFIG_VALUES) for key in keys}
    seed = None
    if argv[:2] == ["free", "search"]:
        # Typed flags come after the config's, so the typed seed must win.
        seed = data.draw(st.integers(0, 9))
        spelling = data.draw(st.sampled_from(["--seed", "--see", "--se"]))
        argv = argv + [f"{spelling}={seed}", "--format=json"]
    cfg = Path(fuzz_systems[0]).with_name("config.json")
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--config", str(cfg)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") <= 1
    assert (code == 2) == bool(err.getvalue())
    if seed is not None and code == 0:
        assert json.loads(out.getvalue())["params"]["seed"] == seed
