"""Per-layer tracing installed from outside the package.

Every wrapper is installed where the name is looked up at call time:
module attributes for functions (including the copies that `analyze`
binds at import), and the class for `Field` and `EvaluationVector`
methods.  Timed wrappers keep a call stack, so each span's self time is
its duration minus the time of the traced spans it caused.  Scalar field
methods are counted only, which keeps the overhead of tens of millions of
calls bounded.  The tracer is single-threaded: only 1-thread legs are
traced.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from rsinsdel import analyze, cli, construct, gf, insdel, poly, rscode

SCALAR_METHODS = ("add", "neg", "sub", "mul", "inv", "div", "pow")

# span name -> (defining module, attribute, other modules that bind the name)
SPANS = {
    "gf.v_add": (gf.Field, "v_add", ()),
    "gf.v_mul": (gf.Field, "v_mul", ()),
    "poly.eval_on": (poly, "eval_on", ()),
    "poly.eval_all": (poly, "eval_all", ()),
    "poly.solve_linear": (poly, "solve_linear", ()),
    "poly.rank": (poly, "rank", ()),
    "insdel.lcs_from_masks": (insdel, "lcs_from_masks", (analyze,)),
    "insdel.rank_certificate": (insdel, "rank_certificate", ()),
    "rscode.equivalent": (rscode, "equivalent", (analyze,)),
    "analyze.lcs_code_affine": (analyze, "lcs_code_affine", ()),
    "analyze.classify_bad_ordering": (analyze, "classify_bad_ordering", ()),
    "analyze.lcs_code_bruteforce": (analyze, "lcs_code_bruteforce", ()),
    "analyze.sample_orderings": (analyze, "sample_orderings", ()),
    "analyze.census_2dim": (analyze, "census_2dim", ()),
    "construct.extend": (construct, "extend", ()),
    "construct.base_case": (construct, "base_case", ()),
    "construct.construct_half_rate": (construct, "construct_half_rate", ()),
    "cli.main": (cli, "main", ()),
}

# spans whose per-call durations are kept, for percentiles
KEEP_DURATIONS = ("analyze.lcs_code_affine",)


class Span:
    __slots__ = ("calls", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0
        self.durations: list[float] = []


class Tracer:
    """Installs wrappers on `install()`, restores the originals on `remove()`."""

    def __init__(self):
        self.spans = {name: Span() for name in SPANS}
        self.edges: dict[tuple[str, str], int] = {}
        self.counts = {
            "gf.vector.elements": 0,
            "insdel.lcs.symbols": 0,
            "insdel.rank_certificate.pairs_checked": 0,
            "rscode.equivalent.hits": 0,
            "analyze.affine.early_exits": 0,
            "construct.bad_pairs": 0,
        }
        self._scalar = itertools.count()
        self._vectors = itertools.count()
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        for name, (owner, attr, binders) in SPANS.items():
            original = getattr(owner, attr)
            wrapper = self._span(name, original, _RESULT_HOOKS.get(name))
            self._patch(owner, attr, wrapper)
            for module in binders:
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{module.__name__}.{attr} is not {name}")
                self._patch(module, attr, wrapper)
        for attr in SCALAR_METHODS:
            self._patch(gf.Field, attr, _counted(getattr(gf.Field, attr), self._scalar))
        self._patch(
            rscode.EvaluationVector,
            "__post_init__",
            _counted(rscode.EvaluationVector.__post_init__, self._vectors),
        )

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _span(self, name, fn, hook):
        span = self.spans[name]
        durations = span.durations if name in KEEP_DURATIONS else None
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                span.calls += 1
                span.self_time += dt - frame[1]
                if durations is not None:
                    durations.append(dt)
                if parent is not None:
                    parent[1] += dt
                    key = (parent[0], name)
                    edges[key] = edges.get(key, 0) + 1
            if hook is not None:
                hook(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        s = self.spans
        c = self.counts
        out: dict[str, float] = {"gf.scalar.calls": _read(self._scalar)}
        for name in (
            "gf.v_add",
            "gf.v_mul",
            "poly.eval_on",
            "poly.eval_all",
            "poly.solve_linear",
            "poly.rank",
            "insdel.lcs_from_masks",
            "insdel.rank_certificate",
            "rscode.equivalent",
            "analyze.lcs_code_affine",
            "analyze.classify_bad_ordering",
            "analyze.lcs_code_bruteforce",
            "construct.extend",
        ):
            out[f"{name}.calls"] = s[name].calls
            out[f"{name}.s"] = s[name].self_time
        for name in ("analyze.sample_orderings", "analyze.census_2dim", "construct.construct_half_rate"):
            out[f"{name}.s"] = s[name].self_time
        out["construct.base_case.s"] = s["construct.base_case"].self_time
        out["gf.vector.elements"] = c["gf.vector.elements"]
        out["insdel.lcs.symbols"] = c["insdel.lcs.symbols"]
        out["insdel.rank_certificate.pairs_checked"] = c["insdel.rank_certificate.pairs_checked"]
        out["rscode.equivalent.hit_ratio"] = _ratio(c["rscode.equivalent.hits"], s["rscode.equivalent"].calls)
        out["rscode.vectors_built"] = _read(self._vectors)
        affine = s["analyze.lcs_code_affine"]
        ms = sorted(d * 1e3 for d in affine.durations)
        out["analyze.lcs_code_affine.ms.p50"] = _quantile(ms, 0.5)
        out["analyze.lcs_code_affine.ms.p90"] = _quantile(ms, 0.9)
        out["analyze.affine.pairs_per_call"] = _ratio(
            self.edges.get(("analyze.lcs_code_affine", "insdel.lcs_from_masks"), 0), affine.calls
        )
        out["analyze.affine.early_exit_ratio"] = _ratio(c["analyze.affine.early_exits"], affine.calls)
        out["analyze.classify.equivalent_per_call"] = _ratio(
            self.edges.get(("analyze.classify_bad_ordering", "rscode.equivalent"), 0),
            s["analyze.classify_bad_ordering"].calls,
        )
        out["analyze.bruteforce.pairs_per_call"] = _ratio(
            self.edges.get(("analyze.lcs_code_bruteforce", "insdel.lcs_from_masks"), 0),
            s["analyze.lcs_code_bruteforce"].calls,
        )
        out["construct.bad_pairs"] = c["construct.bad_pairs"]
        # cli.main's self time is everything it does besides the engine call.
        out["cli.overhead.s"] = s["cli.main"].self_time
        return out


def _counted(fn, counter):
    tick = counter.__next__

    def wrapper(*args):
        tick()
        return fn(*args)

    wrapper.__wrapped__ = fn
    return wrapper


def _read(counter) -> int:
    # itertools.count has no getter; reading consumes one value, so a counter
    # is read once, after the traced run.
    return next(counter)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _quantile(sorted_values, q) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _hook_vector(counts, args, result):
    counts["gf.vector.elements"] += int(np.size(result))


def _hook_lcs(counts, args, result):
    counts["insdel.lcs.symbols"] += len(args[2])


def _hook_certificate(counts, args, result):
    counts["insdel.rank_certificate.pairs_checked"] += result.pairs_checked


def _hook_equivalent(counts, args, result):
    if result is not None:
        counts["rscode.equivalent.hits"] += 1


def _hook_affine(counts, args, result):
    # The affine engine stops scanning once it finds an LCS of q - 1.
    if result.lcs_of_code == result.n - 1:
        counts["analyze.affine.early_exits"] += 1


def _hook_extend(counts, args, result):
    counts["construct.bad_pairs"] += result[1]


_RESULT_HOOKS = {
    "gf.v_add": _hook_vector,
    "gf.v_mul": _hook_vector,
    "insdel.lcs_from_masks": _hook_lcs,
    "insdel.rank_certificate": _hook_certificate,
    "rscode.equivalent": _hook_equivalent,
    "analyze.lcs_code_affine": _hook_affine,
    "construct.extend": _hook_extend,
}
