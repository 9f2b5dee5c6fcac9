"""Span recorder for the traced run.

Wrappers are installed from outside the package, on every name a caller
actually binds: `from .arith import divisors` copies the function into
zring, so the wrapper replaces each module attribute that is the original
object (zring.divisors, pellian.is_prime, harness.solve_complete, ...).
Each span keeps its name, start, end, parent and case id in memory; all
spans are written out once, after the pass.
"""
from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

#: (module, attribute, span name).  The first attribute of a tuple that
#: exists is wrapped: `_solve_complete_cached` sits behind solve_complete and
#: is also what decide_paper_equation and p2_decide call directly.
SPANNED = [
    ("arith", ("factorize",), "arith.factorize"),
    ("arith", ("divisors",), "arith.divisors"),
    ("arith", ("is_prime",), "arith.is_prime"),
    ("contfrac", ("expand",), "contfrac.expand"),
    ("contfrac", ("convergents",), "contfrac.convergents"),
    ("pellian", ("_solve_complete_cached", "solve_complete"), "pellian.solve_complete"),
    ("pellian", ("solve_brute",), "pellian.solve_brute"),
    ("pellian", ("case2_residue_search",), "pellian.case2_residue_search"),
    ("pellian", ("decide_paper_equation",), "pellian.decide_paper_equation"),
    ("pellian", ("pell_fundamental",), "pellian.pell_fundamental"),
    ("pellian", ("all_solutions_stream",), "pellian.all_solutions_stream"),
    ("zring", ("sqrt_in_ring",), "zring.sqrt_in_ring"),
    ("zring", ("check_tuple",), "zring.check_tuple"),
    ("zring", ("prop_family",), "zring.prop_family"),
    ("harness", ("run_claim",), "harness.run_claim"),
    ("cli", ("main",), "cli.main"),
]
#: hot leaves: counted, no span
COUNTED = [("contfrac", ("floor_quadirr",), "contfrac.floor_quadirr")]
#: routes with a metric of their own; any other method lands in route.other
KNOWN_ROUTES = ("bounded-enumeration", "cf-classes")
CACHED = ("pellian.solve_complete", "pellian.decide_paper_equation", "pellian.pell_fundamental")


def _first_y(d: int, n: int) -> int:
    """Smallest y >= 1 with d*y^2 >= -n: where solve_brute starts scanning."""
    if n >= 0:
        return 1
    q = -(n // d)  # ceil(-n / d)
    r = math.isqrt(q)
    return max(1, r if r * r == q else r + 1)


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


class Recorder:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, case, raised]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.case: str | None = None
        self.originals: dict[str, object] = {}

    def span(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.case, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package: str = "pelltuples") -> None:
        mods = [m for name, m in list(sys.modules.items())
                if name == package or name.startswith(package + ".")]
        for kind, table in (("span", SPANNED), ("count", COUNTED)):
            for mod_name, attrs, name in table:
                mod = sys.modules.get(f"{package}.{mod_name}")
                attr = next((a for a in attrs if mod is not None and hasattr(mod, a)), None)
                if attr is None:
                    continue  # the function is gone; its metrics read 0
                orig = getattr(mod, attr)
                self.originals[name] = orig
                wrapper = (self.span(name, orig, HOOKS.get(name)) if kind == "span"
                           else self.counter(name, orig))
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapper)
        report_cls = getattr(sys.modules.get(f"{package}.harness"), "ClaimReport", None)
        if report_cls is not None and hasattr(report_cls, "to_json"):
            report_cls.to_json = self.span("harness.to_json", report_cls.to_json, _hook_to_json)

    def metrics(self) -> dict[str, float]:
        """Per-layer counts, self times, failure counts and ratios."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        names = [s[2] for s in SPANNED] + ["harness.to_json"]
        for name in names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.failures"] = 0
        out["harness.to_json.s"] = 0.0
        out["pellian.failures"] = 0
        for i, (name, start, end, parent, _, raised) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start - covered[i]) / 1e9
            if name == "harness.to_json":
                out["harness.to_json.s"] += (end - start) / 1e9
            if raised:
                out[f"{name}.failures"] += 1
                # an exception leaving the pellian layer, counted once
                if name.startswith("pellian.") and (
                        parent < 0 or not self.spans[parent][0].startswith("pellian.")):
                    out["pellian.failures"] += 1
        for key in ("contfrac.floor_quadirr.calls", "contfrac.expand.terms",
                    "pellian.solve_brute.y_scanned", "harness.report_bytes"):
            out[key] = self.counts[key]
        routes = {k[len("route."):]: v for k, v in self.counts.items() if k.startswith("route.")}
        for r in KNOWN_ROUTES:
            out[f"pellian.route.{r}"] = routes.pop(r, 0)
        out["pellian.route.other"] = sum(routes.values())
        out.update({f"pellian.route.{r}": v for r, v in routes.items()})
        out["zring.sqrt_in_ring.square_ratio"] = _ratio(self.counts["sqrt.squares"],
                                                        self.counts["sqrt.returned"])
        out["zring.check_tuple.verified_ratio"] = _ratio(self.counts["tuple.verified"],
                                                         self.counts["tuple.returned"])
        for name in CACHED:
            info = getattr(self.originals.get(name), "cache_info", None)
            ci = info() if info else None
            out[f"{name}.hit_ratio"] = _ratio(ci.hits, ci.hits + ci.misses) if ci else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, case, raised in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "case": case, "raised": raised}))
                fh.write("\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hook_expand(counts, args, kwargs, exp):
    counts["contfrac.expand.terms"] += exp.preperiod_len + exp.period_len


def _hook_solve_brute(counts, args, kwargs, result):
    prob, y_max = _arg(args, kwargs, 0, "prob"), _arg(args, kwargs, 1, "y_max")
    counts["pellian.solve_brute.y_scanned"] += max(0, y_max - _first_y(prob.d, prob.n) + 1)


def _hook_solve_complete(counts, args, kwargs, oc):
    counts["route." + oc.method] += 1


def _hook_sqrt(counts, args, kwargs, roots):
    counts["sqrt.returned"] += 1
    counts["sqrt.squares"] += bool(roots)


def _hook_check_tuple(counts, args, kwargs, report):
    counts["tuple.returned"] += 1
    counts["tuple.verified"] += bool(report.verified)


def _hook_to_json(counts, args, kwargs, text):
    counts["harness.report_bytes"] += len(text)


HOOKS = {
    "contfrac.expand": _hook_expand,
    "pellian.solve_brute": _hook_solve_brute,
    "pellian.solve_complete": _hook_solve_complete,
    "zring.sqrt_in_ring": _hook_sqrt,
    "zring.check_tuple": _hook_check_tuple,
}
