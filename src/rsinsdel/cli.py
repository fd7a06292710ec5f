"""Command-line front end: reproducible experiments with JSON reports.

Every command function returns (params, result), and main times the
command and emits that pair as a single JSON document on stdout (schema
version 2, sorted keys, compact separators), so identical configurations
produce byte-identical output; --timing adds a volatile top-level
wall_time_s, outside the byte-stable result.  table1 --format csv writes
its text itself and returns None.  Failures emit a diagnostic JSON object on
stderr and exit with 2 for usage/precondition errors (an unwritable
--output included), 3 for exceeded guards, 4 for invariant violations.

The argparse tree is built once per process, on the first main call, and
every later call parses with it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time

from . import analyze, bounds, construct, insdel
from .errors import GuardExceeded, InvariantViolation
from .gf import Field, field_from_order, field_new
from .rscode import EvaluationVector, RsCode, parse_vector

SCHEMA = 2

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_INVARIANT = 4


def _parse_field(text: str) -> Field:
    text = text.strip()
    if "^" in text:
        p_str, m_str = text.split("^", 1)
        return field_new(int(p_str), int(m_str))
    return field_from_order(int(text))  # refuses an order above the ceiling before factorizing


def _parse_alpha(args) -> EvaluationVector:
    text = args.alpha.strip()
    fld = None if args.field is None else _parse_field(args.field)
    if text.startswith("GF("):
        ev = parse_vector(text)
        if fld is not None and fld != ev.field:
            raise ValueError(f"--field {fld.name()} and --alpha {ev.field.name()} name different fields")
        return ev
    if fld is None:
        raise ValueError("--alpha without GF() prefix requires --field")
    return EvaluationVector(fld, tuple(int(tok) for tok in text.split(",")))


def _fields(obj):
    if isinstance(obj, EvaluationVector):
        return obj.serialize()
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(doc) -> str:
    """The one JSON encoding of every report: sorted keys, compact
    separators, and each result dataclass written as its fields."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_fields)


def _emit(args, command: str, params: dict, result, t0: float) -> None:
    doc = {"schema": SCHEMA, "command": command, "params": params, "result": result}
    if args.timing:
        doc["wall_time_s"] = time.perf_counter() - t0
    _write(args, dumps(doc) + "\n")


def _write(args, payload: str) -> None:
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write --output: {exc}") from None
    else:
        sys.stdout.write(payload)


def _round3(x: float) -> str:
    return f"{round(x, 3):.3f}"


def _floor3(x: float) -> str:
    return f"{math.floor(x * 1000) / 1000:.3f}"


# -- subcommand implementations ----------------------------------------------


def cmd_analyze(args):
    ev = _parse_alpha(args)
    params = {"alpha": ev.serialize(), "k": args.k, "method": args.method}
    if args.t is not None and args.method != "certificate":
        raise ValueError("--t applies only to --method certificate")
    if args.method == "brute":
        result = analyze.lcs_code_bruteforce(RsCode(ev, args.k))
    elif args.method == "affine":
        if args.k != 2:
            raise ValueError("the affine fast path requires --k 2")
        result = analyze.lcs_code_affine(ev)
    elif args.method == "certificate":
        if args.t is None:
            raise ValueError("--method certificate requires --t")
        result = insdel.rank_certificate(RsCode(ev, args.k), args.t)
        params["t"] = args.t
    else:
        result = analyze.is_optimal_half_rate(ev, args.k)
    return params, result


def cmd_classify(args):
    ev = _parse_alpha(args)
    verdict = analyze.classify_bad_ordering(ev)
    return {"alpha": ev.serialize()}, verdict


def cmd_census(args):
    fld = _parse_field(args.field)
    result = analyze.census_2dim(fld, max_classes=args.max_classes, verify=args.verify)
    params = {
        "field": fld.name(),
        "verify": args.verify,
        "max_classes": args.max_classes,
    }
    return params, result


def cmd_sample(args):
    fld = _parse_field(args.field)
    result = analyze.sample_orderings(fld, args.delta, args.trials, args.seed)
    params = {
        "field": fld.name(),
        "delta": args.delta,
        "trials": args.trials,
        "seed": args.seed,
    }
    return params, result


def cmd_construct(args):
    fld = _parse_field(args.field)
    trace = construct.construct_half_rate(
        fld,
        args.k,
        verify_mode=args.verify,
        allow_small_q=args.allow_small_q,
    )
    params = {
        "field": fld.name(),
        "k": args.k,
        "verify": args.verify,
    }
    return params, trace


BOUND_REQUIRED = {
    "half-singleton": ("n", "k"),
    "class-lower-bound": ("q",),
    "bad-classes": ("q",),
    "fail-count-bound": ("q", "ell"),
    "tail-bound": ("q", "delta"),
}


def cmd_bounds(args):
    which = args.bound
    missing = [f"--{name}" for name in BOUND_REQUIRED[which] if getattr(args, name) is None]
    if missing:
        raise ValueError(f"bounds {which} requires {' '.join(missing)}")
    if which == "tail-bound":
        return {"bound": which}, bounds.normalized_bad_fraction_bound(args.q, args.delta)
    if which == "half-singleton":
        name, values = "half_singleton", {"max_correctable": bounds.half_singleton(args.n, args.k)}
    elif which == "class-lower-bound":
        lower = bounds.good_class_lower_bound(args.q)  # guards (q-2)! first
        name, values = "good_class_lower_bound", {"classes_total": bounds.classes_total(args.q), "lower_bound": lower}
    elif which == "bad-classes":
        name, values = "bad_class_count", bounds.bad_class_count(field_from_order(args.q))
    else:
        bounds.check_count_bound_digits(args.q, args.ell)
        name = "bad_ordering_count_bound"
        values = {"bad_orderings_at_most": bounds.bad_ordering_count_bound(args.q, args.ell)}
    parameters = {arg: getattr(args, arg) for arg in BOUND_REQUIRED[which]}
    return {"bound": which}, bounds.BoundReport(name, parameters, values)


TABLE_DEFAULT_QS = (4, 5, 7, 8, 9, 11, 13)


def table_rows(qs, census_max_q: int = 9) -> list[dict]:
    """One row per field order: exact correcting-class counts and proportion.

    Small orders run the full census (exact, classifier cross-checked against
    the exact LCS engine); larger orders count analyze.bad_classes, which
    the complete classification makes equally exact.  The 3-decimal
    column rounds census rows and floors dedup rows (a floored value is
    still a true lower bound at the printed precision).  A (q-2)! of more
    than errors.MAX_DIGITS digits is refused before it is built.
    """
    rows = []
    for q in qs:
        fld = field_from_order(q)
        total = bounds.classes_total(q)
        if q <= census_max_q:
            census = analyze.census_2dim(fld, max_classes=max(total, 1))
            good = census.classes_correcting_one
            method = "census"
            prop3 = _round3(census.proportion)
        else:
            good = total - sum(1 for _ in analyze.bad_classes(fld))
            method = "bad_family_dedup"
            prop3 = _floor3(good / total)
        rows.append(
            {
                "q": q,
                "method": method,
                "classes_total": total,
                "classes_correcting_one": good,
                "proportion": good / total,
                "proportion_3dp": prop3,
                "formula_lower_bound": bounds.good_class_lower_bound(q),
            }
        )
    return rows


def cmd_table1(args):
    qs = tuple(int(tok) for tok in args.qs.split(","))
    rows = table_rows(qs, census_max_q=args.census_max_q)
    params = {"qs": list(qs), "census_max_q": args.census_max_q}
    if args.format == "csv":
        cols = [
            "q",
            "method",
            "classes_total",
            "classes_correcting_one",
            "proportion_3dp",
            "formula_lower_bound",
        ]
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(str(row[c]) for c in cols))
        _write(args, "\n".join(lines) + "\n")
        return None
    return params, {"rows": rows}


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, which main reports as JSON (exit 2);
    subparsers inherit the class, and --help stays plain text."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use and shared
    by every later main call; each parse_args still fills a fresh namespace.
    The build binds each subcommand's func=cmd_* and its defaults, such as
    analyze.DEFAULT_MAX_CLASSES, so patching those names after the first
    call changes nothing; the engines the cmd_* functions call are still
    looked up at call time."""
    parser = _Parser(
        prog="rsinsdel",
        description="Reed-Solomon codes under insertion/deletion errors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threads=False):
        p.add_argument("--timing", action="store_true", help="add a top-level wall_time_s to the JSON")
        p.add_argument("--output", help="write the report to a file instead of stdout")
        if threads:  # every run is serial; the flag is kept for compatibility
            p.add_argument("--threads", type=int, default=1, help="must be >= 1; changes neither work nor output")

    p = sub.add_parser("analyze", help="measure insdel capability of one code")
    p.add_argument("--field", help="field order q or p^m")
    p.add_argument("--alpha", required=True, help="evaluation vector: CSV indices or GF(..):i1,i2,..")
    p.add_argument("--k", type=int, required=True, help="code dimension")
    p.add_argument(
        "--method",
        default="brute",
        choices=["brute", "affine", "certificate", "optimal"],
    )
    p.add_argument("--t", type=int, help="insdel count for --method certificate")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="classify a full-length ordering (k=2)")
    p.add_argument("--field", help="field order q or p^m")
    p.add_argument("--alpha", required=True)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("census", help="classify all ordering classes (k=2)")
    p.add_argument("--field", required=True)
    p.add_argument("--verify", default="auto", choices=["auto", "all", "spot", "none"])
    p.add_argument("--max-classes", type=int, default=analyze.DEFAULT_MAX_CLASSES)
    common(p, threads=True)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("sample", help="seeded random orderings (k=2)")
    p.add_argument("--field", required=True)
    p.add_argument("--delta", required=True, help="fraction, e.g. 0.5")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    common(p, threads=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("construct", help="build a rate-1/2 single-insdel code")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--verify",
        default=construct.VERIFY_EXACT,
        choices=[construct.VERIFY_EXACT, construct.VERIFY_CERTIFICATE, construct.VERIFY_NONE],
    )
    p.add_argument("--allow-small-q", action="store_true")
    common(p, threads=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("bounds", help="evaluate counting bounds")
    p.add_argument("bound", choices=list(BOUND_REQUIRED))
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--delta")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("table1", help="correcting-proportion table over small fields")
    p.add_argument("--qs", default=",".join(str(q) for q in TABLE_DEFAULT_QS))
    p.add_argument("--census-max-q", type=int, default=9)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    common(p, threads=True)
    p.set_defaults(func=cmd_table1)

    return parser


def _fail(exit_code: int, exc: BaseException) -> int:
    doc = {
        "schema": SCHEMA,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    sys.stderr.write(dumps(doc) + "\n")
    return exit_code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "threads", 1) < 1:
            raise ValueError(f"threads must be >= 1, got {args.threads}")
        t0 = time.perf_counter()
        report = args.func(args)
        if report is not None:
            _emit(args, args.command, *report, t0)
    except GuardExceeded as exc:
        return _fail(EXIT_GUARD, exc)
    except InvariantViolation as exc:
        return _fail(EXIT_INVARIANT, exc)
    except (ValueError, construct.NoGoodPairError) as exc:
        return _fail(EXIT_USAGE, exc)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
