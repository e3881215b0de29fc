"""Command line interface.

Every command emits a single report (JSON by default) with a stable schema
version and echoed parameters, so identical inputs produce byte-identical
output. Exit codes: 0 for success or a verified check, 1 for a check that
ran but did not verify, 2 for usage, domain, or resource errors.

A JSON config file may supply defaults for any long flag of the command
(keys without the leading dashes). Its values are parsed as flags placed
before the typed ones, so a typed flag, abbreviated or not, wins, and a
value the flag rejects exits 2 with argparse's one line. Every value must
be a JSON string or integer. A report's ``params`` echo the command's own
flags, with their defaults filled in.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from . import bounds, fixture_f2, freegroup, heisenberg, setsystem
from .errors import DomainError, ResourceLimitError

SCHEMA = "progvc/2"
EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2
# Namespace entries that no config key sets.
_NOT_CONFIGURABLE = ("group", "cmd", "func", "config")
# What json.load and json.loads raise on text they cannot decode: bad JSON
# or UTF-8 and integers past the digit limit raise ValueError, and nesting
# too deep for the decoder raises RecursionError.
_UNDECODABLE = (ValueError, RecursionError)


def _text_lines(obj, pad: str = ""):
    """A dict or list as indented lines: "key:" per dict entry, "-" per list
    item. A non-empty container's entries follow one level deeper; anything
    else, "[]" and "{}" too, follows on the same line."""
    if isinstance(obj, dict):
        entries = ((f"{key}:", value) for key, value in obj.items())
    else:
        entries = (("-", item) for item in obj)
    for head, value in entries:
        if value and isinstance(value, (dict, list)):
            yield pad + head
            yield from _text_lines(value, pad + "  ")
        else:
            yield f"{pad}{head} {value}"


def _json_text(obj, pad: str = "\n") -> str:
    """``obj`` as ``json.dumps`` writes it with an indent of 2 and sorted keys.

    Reports hold only dicts with str keys, lists, tuples, str, int, bool
    and None; anything else, a float too, raises TypeError. ``pad`` is the
    newline and indent before the closing bracket of ``obj``.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = pad + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if isinstance(obj[0], str):
            # A list of strings, the commonest list, takes one map.
            try:
                return f"[{inner}{sep.join(map(encode_basestring_ascii, obj))}{pad}]"
            except TypeError:  # a later item is not a string
                pass
        return f"[{inner}{sep.join([_json_text(item, inner) for item in obj])}{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            items.append(f"{encode_basestring_ascii(key)}: {_json_text(value, inner)}")
        return f"{{{inner}{sep.join(items)}{pad}}}"
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"a report cannot hold {type(obj).__name__}")


def _emit(args, result, flat_rows: Optional[list] = None) -> None:
    """Write the command's report; its params are the command's own flags.

    JSON reports come from ``_json_text``, not ``json.dumps``: given an
    indent, ``json.dumps`` leaves its C encoder for pure-Python generators,
    and that made it the largest cost of ``free shatter``.
    """
    skip = _NOT_CONFIGURABLE + ("output", "format")
    params = {key: value for key, value in vars(args).items() if key not in skip}
    command = f"{args.group}.{args.cmd}"
    report = {"schema": SCHEMA, "command": command, "params": params, "result": result}
    if args.format == "csv":
        if flat_rows is None:
            raise DomainError("csv output is only available for flat tables")
        text = "\n".join(",".join(str(c) for c in row) for row in flat_rows) + "\n"
    elif args.format == "text":
        text = "\n".join(_text_lines(report)) + "\n"
    else:
        text = _json_text(report) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- heisenberg


def cmd_heisenberg_verify(args) -> int:
    result = heisenberg.verify_cells(args.nmax, cap=args.cap)
    _emit(args, result)
    return EXIT_OK if result["mismatch_count"] == 0 else EXIT_FAIL


def cmd_heisenberg_member(args) -> int:
    point = heisenberg.parse_point(args.point)
    translate = heisenberg.parse_point(args.translate)
    spec = heisenberg.HProgressionSpec(args.n1, args.n2, translate)
    result = {
        "point": list(point),
        "translate": list(translate),
        "member": heisenberg.membership(spec, point),
    }
    _emit(args, result)
    return EXIT_OK


def cmd_heisenberg_enumerate(args) -> int:
    points = sorted(heisenberg.enumerate_progression(args.n1, args.n2))
    result = {"size": len(points), "points": [list(p) for p in points]}
    _emit(args, result, flat_rows=[list(p) for p in points])
    return EXIT_OK


def cmd_heisenberg_witness(args) -> int:
    point = heisenberg.parse_point(args.point)
    word = heisenberg.witness_word(point, args.n1, args.n2)
    n_a, n_b = heisenberg.word_counts(word)
    result = {
        "point": list(point),
        "word": word,
        "letters_a": n_a,
        "letters_b": n_b,
        "verified": heisenberg.word_eval(word) == point and n_a <= args.n1 and n_b <= args.n2,
    }
    _emit(args, result)
    return EXIT_OK if result["verified"] else EXIT_FAIL


def cmd_heisenberg_vc(args) -> int:
    try:
        K = sorted(heisenberg.enumerate_progression(args.n1, args.n2))
    except ResourceLimitError as exc:
        # {e} is shattered once the budgets are nonnegative.
        raise ResourceLimitError(str(exc), partial=1) from None
    result = setsystem.translate_vc(K, heisenberg.h_mul, heisenberg.h_inv, heisenberg.IDENTITY)
    found = result["witness"]
    witness = setsystem.ShatterReport(tuple(map(heisenberg.format_point, found.points)), found.traces)
    result["witness"] = witness.to_json(lambda g: None if g is None else heisenberg.format_point(g))
    _emit(args, result)
    return EXIT_OK


# -------------------------------------------------------------------- bounds


def cmd_bounds(args) -> int:
    if args.cmd == "cd":
        value = bounds.capital_c(args.d, args.n)
    elif args.cmd == "f":
        value = bounds.f_bound(args.d, args.k)
    elif args.cmd == "g":
        value = bounds.g_bound(args.d, args.k)
    else:
        value = bounds.km_bound(args.d, args.l, args.s, args.n)
    _emit(args, {"value": value})
    return EXIT_OK


def cmd_bounds_verify_heisenberg(args) -> int:
    translate = bounds.verify_heisenberg_translate_threshold()
    fixed = bounds.verify_heisenberg_fixed_threshold()
    verified = translate.verified and fixed.verified
    _emit(args, {"translates": translate.to_json(), "fixed": fixed.to_json(), "verified": verified})
    return EXIT_OK if verified else EXIT_FAIL


# ---------------------------------------------------------------------- free


def _parse_point_list(rank: int, text: str) -> list:
    words = [freegroup.parse_word(rank, token) for token in text.split(",") if token.strip()]
    if not words:
        raise DomainError("no points given")
    return words


def cmd_free_shatter(args) -> int:
    points = _parse_point_list(args.k, args.points)
    report = freegroup.is_shattered_free(points)
    result = report.to_json(witness_json=str)
    _emit(args, result)
    return EXIT_OK


def cmd_free_example_f2(args) -> int:
    result = fixture_f2.verify_example()
    rows = [["pair", "claimed", "actual", "ok"]] + [
        [
            "|".join(d["pair"]),
            "|".join(map(str, d["claimed"])),
            "|".join(map(str, d["actual"])),
            d["ok"],
        ]
        for d in result["distances"]
    ]
    _emit(args, result, flat_rows=rows)
    return EXIT_OK if result["all_ok"] else EXIT_FAIL


def cmd_free_search(args) -> int:
    result = freegroup.search_shattered_sets(args.k, args.size, args.samples, args.seed, max_len=args.max_len)
    _emit(args, result)
    return EXIT_OK


def _parse_ints(flag: str, text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"{flag} takes comma-separated integers, got {text!r}") from exc


def cmd_free_witness(args) -> int:
    bounds_list = _parse_ints("--bounds", args.bounds)
    subset = _parse_ints("--subset", args.subset)
    spec = freegroup.generator_shatter_witness(args.k, bounds_list, subset)
    result = {
        "translate": str(spec.translate),
        "bounds": list(spec.bounds),
        "subset": sorted(set(subset)),
        "verified": True,
    }
    _emit(args, result)
    return EXIT_OK


def cmd_free_tripod(args) -> int:
    points = _parse_point_list(args.k, args.points)
    profile = freegroup.tripod_profile(points)
    if profile is None:
        result = {"found": False}
    else:
        center, parts = profile
        result = {
            "found": True,
            "center": str(center),
            "branches": [sorted(str(v) for v in part) for part in parts],
        }
    _emit(args, result)
    return EXIT_OK


# ----------------------------------------------------------------- setsystem


def _load_system(path: str) -> setsystem.SetSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    except _UNDECODABLE as exc:
        raise DomainError(f"{path} is not valid JSON: {exc}") from exc
    return setsystem.SetSystem.from_json(obj)


def _resolve_labels(sys_: setsystem.SetSystem, text: str) -> list:
    """Ground points named by ``--target``: a JSON array of ground labels,
    or comma-separated tokens, each stripped and matched to one label's text.
    An error names a label or token by the first 40 characters of its echo."""
    if text.lstrip().startswith("["):
        try:
            names = json.loads(text)
        except _UNDECODABLE as exc:
            raise DomainError(f"--target is not a valid JSON array: {exc}") from None
        # Keyed by JSON text, so 1, "1" and true stay apart.
        by_json = {json.dumps(label): label for label in sys_.ground}
        out = []
        for name in names:
            key = json.dumps(name)
            if key not in by_json:
                raise DomainError(f"{key[:40]} is not a ground label")
            out.append(by_json[key])
        return out
    by_text = {}
    for label in sys_.ground:
        by_text.setdefault(str(label), []).append(label)
    out = []
    for token in map(str.strip, text.split(",")):
        labels = by_text.get(token, [])
        if len(labels) != 1:
            raise DomainError(f"{repr(token)[:40]} names {len(labels)} ground points, not one")
        out += labels
    return out


def cmd_setsystem_vc(args) -> int:
    sys_ = _load_system(args.file)
    value = setsystem.vc_dimension_exact(sys_)
    result = {
        "vc": value,
        "verdict": "undefined" if value is None else str(value),
        "ground_size": len(sys_.ground),
        "family_size": len(sys_),
    }
    _emit(args, result)
    return EXIT_OK


def cmd_setsystem_shatter(args) -> int:
    sys_ = _load_system(args.file)
    target = _resolve_labels(sys_, args.target)
    report = setsystem.shatters(sys_, target)
    _emit(args, report.to_json())
    return EXIT_OK


def cmd_setsystem_pi(args) -> int:
    sys_ = _load_system(args.file)
    result = {"n": args.n, "value": setsystem.shatter_function(sys_, args.n)}
    _emit(args, result)
    return EXIT_OK


# --------------------------------------------------------------------- wiring


class _Parser(argparse.ArgumentParser):
    # One "error:" line on exit 2, as for every usage error; subparsers inherit it.
    def error(self, message):
        print("error: " + " ".join(message.splitlines()), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args fills a fresh namespace and leaves
    # the parser unchanged, and the defaults here depend on nothing that
    # varies between calls.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the report to this path instead of stdout")
    common.add_argument("--format", choices=("json", "csv", "text"), default="json", help="report format")
    common.add_argument("--config", help="JSON file of default flag values (flags win)")
    parser = _Parser(prog="progvc", description=__doc__)
    top = parser.add_subparsers(dest="group", required=True)

    def group(name, help):
        return top.add_parser(name, help=help).add_subparsers(dest="cmd", required=True)

    def command(parent, name, func, help, *ints):
        # A subcommand whose first flags are the required integers ``ints``.
        p = parent.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        for flag in ints:
            p.add_argument(flag, type=int, required=True)
        return p

    h = group("heisenberg", "Heisenberg group progressions")
    p = command(h, "verify", cmd_heisenberg_verify, "membership formula vs enumeration", "--nmax")
    p.add_argument("--cap", type=int, default=heisenberg.DEFAULT_ENUM_CAP)
    p = command(h, "member", cmd_heisenberg_member, "membership test for one point", "--n1", "--n2")
    p.add_argument("--point", required=True, help="point as 'a,b,c'")
    p.add_argument("--translate", default="0,0,0", help="translate as 'a,b,c'")
    command(h, "enumerate", cmd_heisenberg_enumerate, "list all progression points", "--n1", "--n2")
    p = command(h, "witness", cmd_heisenberg_witness, "produce a word evaluating to a point", "--n1", "--n2")
    p.add_argument("--point", required=True, help="point as 'a,b,c'")
    command(h, "vc", cmd_heisenberg_vc, "exact VC dimension of the translates of P(n1,n2)", "--n1", "--n2")

    b = group("bounds", "integer bound functions")
    command(b, "cd", cmd_bounds, "sum of binomials C(n,0..d)", "--d", "--n")
    command(b, "f", cmd_bounds, "intersection bound", "--d", "--k")
    command(b, "g", cmd_bounds, "coset-union bound", "--d", "--k")
    command(b, "km", cmd_bounds, "polynomial sign-pattern bound", "--d", "--l", "--s", "--n")
    command(b, "verify-heisenberg", cmd_bounds_verify_heisenberg, "threshold flip checks")

    f = group("free", "free group progressions")
    p = command(f, "shatter", cmd_free_shatter, "exact shattering report", "--k")
    p.add_argument("--points", required=True, help="comma-separated words like '1^0,1^5,1^10'")
    command(f, "example-f2", cmd_free_example_f2, "verify the bundled 4-point tables")
    p = command(f, "search", cmd_free_search, "random sets, exact verdict each", "--k", "--size", "--samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=int, dest="max_len", default=12)
    p = command(f, "witness", cmd_free_witness, "generator-set cut-out witness", "--k")
    p.add_argument("--bounds", required=True, help="comma-separated bounds, e.g. '1,1'")
    p.add_argument("--subset", default="", help="generator indices to keep, e.g. '1,3'")
    p = command(f, "tripod", cmd_free_tripod, "three-branch profile of a point set", "--k")
    p.add_argument("--points", required=True)

    s = group("setsystem", "finite set systems")
    p = command(s, "vc", cmd_setsystem_vc, "exact VC dimension")
    p.add_argument("--file", required=True, help="SetSystem JSON path")
    p = command(s, "shatter", cmd_setsystem_shatter, "shattering report for a target")
    p.add_argument("--file", required=True)
    p.add_argument("--target", required=True, help="comma-separated ground labels, or a JSON array of them")
    p = command(s, "pi", cmd_setsystem_pi, "shatter function value")
    p.add_argument("--file", required=True)
    p.add_argument("--n", type=int, required=True)

    return parser


def _apply_config(args, argv: list) -> argparse.Namespace:
    """``argv`` parsed again with the config's values as flags placed before
    the typed ones, so argparse checks each value and the typed flag wins."""
    if not args.config:
        return args
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            defaults = json.load(fh)
    except (OSError, *_UNDECODABLE) as exc:
        raise DomainError(f"cannot load config {args.config}: {exc}") from exc
    if not isinstance(defaults, dict):
        raise DomainError("config must be a JSON object of flag defaults")
    tokens = []
    for key, value in defaults.items():
        dest = key.replace("-", "_")
        if dest not in vars(args) or dest in _NOT_CONFIGURABLE:
            continue
        if not isinstance(value, (str, int)) or isinstance(value, bool):
            raise DomainError(f"config {key!r} must be a string or an integer, got {value!r}")
        tokens.append(f"--{dest.replace('_', '-')}={value}")
    # argv[:2] are the group and command: neither level takes flags of its own.
    return _build_parser().parse_args(argv[:2] + tokens + argv[2:])


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    try:
        args = _apply_config(args, argv)
        if getattr(args, "cap", 0) < 0:
            raise DomainError("--cap must be at least 0")
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        partial = "" if exc.partial is None else f" (certified partial: {exc.partial})"
        print(f"resource limit: {exc}{partial}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
