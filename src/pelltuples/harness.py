"""Claim sweeps and deterministic JSON reports.

Each claim id maps to a sweep over exact computations; a report records
per-case evidence with every integer serialized as a decimal string so
arbitrarily large values survive JSON round-trips.  Reports are
byte-deterministic for a fixed config (elapsed time lives in a separate
header field).
"""
from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .arith import is_perfect_square, is_prime, isqrt
from .contfrac import QuadIrr, expand, lemma_db_check, worley_candidates, convergents
from .pellian import (
    PellianProblem,
    SOLVABLE,
    UNSOLVABLE,
    case2_residue_search,
    decide_paper_equation,
    fujita_fast_path,
    has_primitive_solution,
    solve_complete,
)
from .zring import (
    EXISTS_INFINITE,
    NONE,
    check_tuple,
    find_admissible_pairs,
    integer_quadruple_search,
    lemma3_extend_data,
    prop_family,
    theorem3_classify,
)

CONFIRMED = "CONFIRMED"
VIOLATED = "VIOLATED"
PARTIAL = "PARTIAL"


@dataclass
class SweepConfig:
    p_max: int = 50
    k_max: int = 3
    c_max: int = 10_000
    n_max: int = 20
    j_max: int = 5
    limit: int | None = None   # per-claim default: 60 for fujita, 50 elsewhere
    samples: int = 500
    seed: int = 0
    workers: int = 1


@dataclass
class ClaimReport:
    claim_id: str
    status: str
    config: dict
    evidence: list = field(default_factory=list)
    elapsed: float = 0.0

    def body(self) -> dict:
        """Deterministic part of the report (no timings)."""
        return {
            "claim_id": self.claim_id,
            "status": self.status,
            "config": deep_dec(self.config),
            "evidence": deep_dec(self.evidence),
        }

    def to_json(self, compact: bool = False) -> str:
        doc = self.body()
        doc["header"] = {"elapsed": round(self.elapsed, 6), "version": __version__}
        return dump_json(doc, compact)


def dump_json(doc, compact: bool) -> str:
    """The JSON text of every report and CLI document: sorted keys, compact or indented."""
    if compact:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return json.dumps(doc, sort_keys=True, indent=2)


def deep_dec(obj):
    """Recursively turn ints into decimal strings for JSON safety."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [deep_dec(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): deep_dec(v) for k, v in obj.items()}
    return obj


def odd_primes_upto(n: int) -> list[int]:
    return [p for p in range(3, n + 1, 2) if is_prime(p)]


def _map_ordered(fn, items, workers: int):
    # the pool starts all its processes up front, so start no more than can run
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


# ---------------------------------------------------------------------------
# per-claim sweeps


def _tm1_one_prime(args) -> list[dict]:
    p, k_max = args
    records = []
    for k in range(k_max + 1):
        hits = case2_residue_search(p, k)
        records.append({"p": p, "k": k, "kind": "residue-search",
                        "hits": list(hits), "ok": not hits})
        for l in range(k + 1):
            oc = decide_paper_equation(p, k, l)
            records.append({
                "p": p, "k": k, "l": l, "kind": "decision",
                "verdict": oc.verdict, "method": oc.method,
                "search_bound": oc.search_bound_used,
                "ok": oc.verdict == UNSOLVABLE,
            })
    return records


def claim_tm1(cfg: SweepConfig) -> ClaimReport:
    primes = odd_primes_upto(cfg.p_max)
    if not primes or cfg.k_max < 0:
        raise ValueError("tm1 needs p_max >= 3 and k_max >= 0")
    chunks = _map_ordered(_tm1_one_prime, [(p, cfg.k_max) for p in primes], cfg.workers)
    evidence = [rec for chunk in chunks for rec in chunk]
    ok = all(rec["ok"] for rec in evidence)
    return ClaimReport("tm1", CONFIRMED if ok else VIOLATED,
                       {"p_max": cfg.p_max, "k_max": cfg.k_max}, evidence)


def claim_p2_prop(cfg: SweepConfig) -> ClaimReport:
    evidence = []
    ok = True
    for k in range(10):
        for l in range(k + 1):
            oc = decide_paper_equation(2, k, l)
            expect = SOLVABLE if (k % 2 == 1 and 2 * l > k) else UNSOLVABLE
            good = oc.verdict == expect
            ok &= good
            evidence.append({"k": k, "l": l, "verdict": oc.verdict,
                             "method": oc.method, "ok": good})
    return ClaimReport("p2-prop", CONFIRMED if ok else VIOLATED, {"k_max": 9}, evidence)


def _fujita_one_k(bigk: int) -> dict:
    violations = []
    for n in range(-bigk, bigk + 1):
        if abs(n) <= 1:
            continue
        cert = fujita_fast_path(bigk, n)
        oc = solve_complete(PellianProblem(bigk * bigk + 1, n))
        if cert is None or has_primitive_solution(oc):
            violations.append({"n": n, "witnesses": list(oc.witnesses)})
    return {"K": bigk, "n_checked": 2 * (bigk - 1), "violations": violations}


def claim_fujita(cfg: SweepConfig) -> ClaimReport:
    limit = 60 if cfg.limit is None else cfg.limit
    if limit < 2:
        raise ValueError("fujita needs limit >= 2")
    evidence = _map_ordered(_fujita_one_k, list(range(2, limit + 1)), cfg.workers)
    ok = all(not rec["violations"] for rec in evidence)
    return ClaimReport("fujita", CONFIRMED if ok else VIOLATED, {"K_max": limit}, evidence)


def _random_dubo_instance(rng: random.Random):
    while True:
        alpha = rng.randint(1, 10_000)
        beta = rng.randint(1, 10_000)
        if is_perfect_square(alpha * beta) is None:
            return alpha, beta


def claim_dubo(cfg: SweepConfig) -> ClaimReport:
    if cfg.samples < 1:
        raise ValueError("dubo needs samples >= 1")
    rng = random.Random(cfg.seed)
    evidence = []
    ok = True
    for i in range(cfg.samples):
        alpha, beta = _random_dubo_instance(rng)
        exp = expand(QuadIrr(alpha * beta, 0, beta))
        n = rng.randint(0, exp.preperiod_len + exp.period_len + 5)
        r = rng.randint(0, 100)
        u = rng.randint(0, 100)
        try:
            val = lemma_db_check(alpha, beta, n, r, u)
            good = True
        except AssertionError:
            val, good = None, False
        ok &= good
        if i < 10 or not good:
            evidence.append({"alpha": alpha, "beta": beta, "n": n, "r": r,
                             "u": u, "value": val, "ok": good})
    evidence.append({"samples": cfg.samples, "all_ok": ok})
    return ClaimReport("dubo", CONFIRMED if ok else VIOLATED,
                       {"samples": cfg.samples, "seed": cfg.seed}, evidence)


def _worley_good_approximations(alpha: QuadIrr, c: Fraction, b_max: int):
    """All coprime (a, b), 1 <= b <= b_max, with |alpha - a/b| < c/b^2 (exact)."""
    import math
    out = []
    for b in range(1, b_max + 1):
        # candidate numerators near alpha*b
        lo = (alpha.s * b + isqrt(alpha.d * b * b)) // alpha.t - 2
        for a in range(lo - 1, lo + 5):
            if math.gcd(a, b) != 1 or a == 0:
                continue
            # alpha - a/b < c/b^2  and  alpha - a/b > -c/b^2
            num_hi = a * b * c.denominator + c.numerator
            num_lo = a * b * c.denominator - c.numerator
            den = b * b * c.denominator
            if alpha.compare_rational(num_hi, den) < 0 and \
               alpha.compare_rational(num_lo, den) > 0:
                out.append((a, b))
    return out


def claim_worley(cfg: SweepConfig) -> ClaimReport:
    rng = random.Random(cfg.seed)
    irrationals = [QuadIrr(10, 0, 1), QuadIrr(2, 0, 1), QuadIrr(5, 1, 2)]
    for _ in range(7):
        d = rng.randint(2, 400)
        while is_perfect_square(d) is not None:
            d = rng.randint(2, 400)
        irrationals.append(QuadIrr(d, rng.randint(-3, 3), rng.choice([1, 2, 3])))
    evidence = []
    ok = True
    b_max = 60
    for alpha in irrationals:
        # least m >= 1 with q_m > b_max; q_m >= 2^(m//2), so m <= 2*bit_length(b_max)
        conv = convergents(expand(alpha), 2 * b_max.bit_length())
        m_max = next(m for m, (_, q) in enumerate(conv.pairs[2:], 1) if q > b_max)
        for c in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
            cands = {(w.a, w.b) for w in worley_candidates(alpha, c, m_max)}
            cands |= {(-a, -b) for a, b in cands}
            missing = [ab for ab in _worley_good_approximations(alpha, c, b_max)
                       if ab not in cands]
            good = not missing
            ok &= good
            evidence.append({"alpha": (alpha.d, alpha.s, alpha.t),
                             "c": str(c), "missing": missing, "ok": good})
    return ClaimReport("worley", CONFIRMED if ok else VIOLATED,
                       {"b_max": b_max, "seed": cfg.seed}, evidence)


def _random_dl_triple(rng: random.Random):
    """Random D(l) triple (a, b, a+b+2r) with roots (r, a+r, b+r), l in {-1, 1}."""
    while True:
        l = rng.choice([-1, 1])
        a = rng.randint(1, 1000)
        r = rng.randint(1, 1000)
        if (r * r - l) % a != 0:
            continue
        b = (r * r - l) // a
        if b == 0 or b == a:
            continue
        c = a + b + 2 * r
        if c in (a, b) or c == 0:
            continue
        return a, b, c, l, r, a + r, b + r


def claim_lemma3(cfg: SweepConfig) -> ClaimReport:
    if cfg.samples < 1:
        raise ValueError("lemma3 needs samples >= 1")
    rng = random.Random(cfg.seed)
    count = cfg.samples
    evidence = []
    ok = True
    for i in range(count):
        a, b, c, l, r, s, tp = _random_dl_triple(rng)
        try:
            data = lemma3_extend_data(a, b, c, l, r, s, tp)
            good = True
            rec = {"a": a, "b": b, "c": c, "l": l, "e": data.e,
                   "x": data.x, "y": data.y, "z": data.z, "ok": True}
        except AssertionError as exc:
            good = False
            rec = {"a": a, "b": b, "c": c, "l": l, "ok": False, "error": str(exc)}
        ok &= good
        if i < 10 or not good:
            evidence.append(rec)
    evidence.append({"samples": count, "all_ok": ok})
    return ClaimReport("lemma3", CONFIRMED if ok else VIOLATED,
                       {"samples": count, "seed": cfg.seed}, evidence)


def claim_prop26(cfg: SweepConfig) -> ClaimReport:
    if cfg.n_max < 1 or cfg.j_max < 1:
        raise ValueError("prop26 needs n_max >= 1 and j_max >= 1")
    evidence = []
    inventory = set()
    ok = True
    for n in range(1, cfg.n_max + 1):
        divisors_of_n = [m for m in range(1, n + 1) if n % m == 0]
        for j in range(1, cfg.j_max + 1):
            plus, minus = prop_family(n, j, 1)
            for tag, rep in (("+", plus), ("-", minus)):
                elems = tuple(e.re for e in rep.elements)
                rec = {"n": n, "j": j, "branch": tag, "elements": list(elems),
                       "verified": rep.verified, "degenerate": rep.degenerate}
                if rep.verified:
                    inventory.add(elems)
                    # subring re-verification for every divisor m of n
                    for m in divisors_of_n:
                        sub = check_tuple(elems, -1, m * m)
                        if not sub.verified:
                            rec["subring_failure"] = m
                            ok = False
                elif not rep.degenerate:
                    ok = False
                evidence.append(rec)
    for required in ((1, 5, -3, 65), (1, 10, -8, 325)):
        if required not in inventory:
            ok = False
            evidence.append({"missing_required": list(required)})
    return ClaimReport("prop26", CONFIRMED if ok else VIOLATED,
                       {"n_max": cfg.n_max, "j_max": cfg.j_max}, evidence)


def fifumi_b_values(limit: int) -> list[int]:
    """b = r^2+1 <= limit of the forms b=p, b=2p^k, r=p^k, r=2p^k (p odd prime)."""
    def odd_prime_power(v: int) -> bool:
        if v < 3 or v % 2 == 0:
            return False
        from .arith import factorize
        return len(factorize(v)) == 1
    out = []
    r = 1
    while r * r + 1 <= limit:
        b = r * r + 1
        forms = []
        if b % 2 == 1 and is_prime(b):
            forms.append("b=p")
        if b % 2 == 0 and odd_prime_power(b // 2):
            forms.append("b=2p^k")
        if odd_prime_power(r):
            forms.append("r=p^k")
        if r % 2 == 0 and odd_prime_power(r // 2):
            forms.append("r=2p^k")
        if forms:
            out.append(b)
        r += 1
    return out


def _require_c_pairs(bs: list[int], c_max: int) -> None:
    """Raise unless each b has two c = x^2 + 1 <= c_max (x >= 1) other than b:
    integer_quadruple_search checks no pair (c, d) with fewer."""
    n_c = isqrt(c_max - 1) if c_max >= 1 else 0
    for b in bs:
        # b - 1 is a square, so b is one of the n_c values when b <= c_max
        if n_c - (b <= c_max) < 2:
            raise ValueError(f"c_max={c_max} leaves b={b} no pair c < d <= c_max "
                             f"of the form x^2+1 to check")


def claim_fifumi(cfg: SweepConfig) -> ClaimReport:
    evidence = []
    ok = True
    bs = fifumi_b_values(200)
    _require_c_pairs(bs, cfg.c_max)
    for b in bs:
        found = integer_quadruple_search(b, cfg.c_max)
        good = not found
        ok &= good
        evidence.append({"b": b, "c_max": cfg.c_max,
                         "quadruples": [list(q) for q in found], "ok": good})
    return ClaimReport("fifumi-desk", CONFIRMED if ok else VIOLATED,
                       {"c_max": cfg.c_max}, evidence)


def claim_tmii1(cfg: SweepConfig) -> ClaimReport:
    evidence = []
    ok = True
    limit = 50 if cfg.limit is None else cfg.limit
    pairs = find_admissible_pairs(limit)
    if not pairs:
        raise ValueError(f"tm-ii-1-desk found no admissible pairs up to limit {limit}")
    _require_c_pairs([2 * p**k for p, k, _, _ in pairs], cfg.c_max)
    for p, k, q, l_exp in pairs:
        b = 2 * p**k
        for t in range(2, 21, 2):
            res = theorem3_classify(p, k, q, l_exp, t)
            good = res.status == NONE
            ok &= good
            evidence.append({"p": p, "k": k, "t": t, "status": res.status, "ok": good})
        found = integer_quadruple_search(b, cfg.c_max)
        good = not found
        ok &= good
        evidence.append({"b": b, "kind": "integer-quadruple-search",
                         "quadruples": [list(qd) for qd in found], "ok": good})
    return ClaimReport("tm-ii-1-desk", CONFIRMED if ok else VIOLATED,
                       {"limit": limit, "c_max": cfg.c_max}, evidence)


def claim_tmii2(cfg: SweepConfig) -> ClaimReport:
    evidence = []
    ok = True
    targets = [(5, 1, 3, 1), (41, 1, 3, 2)]
    for p, k, q, l_exp in targets:
        top = 2**l_exp
        for e in range(top + 1):
            t = q**e
            res = theorem3_classify(p, k, q, l_exp, t)
            if e % 2 == 0:
                good = res.status == EXISTS_INFINITE and res.witness is not None \
                    and res.witness.verified
                wit = [el.re for el in res.witness.elements] if res.witness else None
                evidence.append({"p": p, "k": k, "t": t, "status": res.status,
                                 "witness": wit, "ok": good})
            else:
                good = res.status == NONE and res.certificate is not None \
                    and res.certificate.verdict == UNSOLVABLE
                evidence.append({"p": p, "k": k, "t": t, "status": res.status,
                                 "ok": good})
            ok &= good
        res = theorem3_classify(p, k, q, l_exp, 2)
        good = res.status == NONE
        ok &= good
        evidence.append({"p": p, "k": k, "t": 2, "status": res.status, "ok": good})
    return ClaimReport("tm-ii-2", CONFIRMED if ok else VIOLATED,
                       {"pairs": targets}, evidence)


#: entries the sweep must at minimum rediscover
REQUIRED_PAIRS = [(5, 1, 3, 1), (5, 2, 7, 1), (13, 4, 239, 1),
                  (29, 2, 41, 1), (41, 1, 3, 2)]


def claim_pairs(cfg: SweepConfig) -> ClaimReport:
    limit = 50 if cfg.limit is None else cfg.limit
    if limit < 3:
        raise ValueError("pairs needs limit >= 3: there is no odd prime to search")
    found = find_admissible_pairs(limit)
    missing = [t for t in REQUIRED_PAIRS if t not in found]
    evidence = [{"p": p, "k": k, "q": q, "l_exp": l} for p, k, q, l in found]
    ok = not missing
    if missing:
        evidence.append({"missing": [list(t) for t in missing]})
    return ClaimReport("pairs", CONFIRMED if ok else VIOLATED,
                       {"limit": limit}, evidence)


CLAIMS = {
    "tm1": claim_tm1,
    "p2-prop": claim_p2_prop,
    "fujita": claim_fujita,
    "dubo": claim_dubo,
    "worley": claim_worley,
    "lemma3": claim_lemma3,
    "prop26": claim_prop26,
    "fifumi-desk": claim_fifumi,
    "tm-ii-1-desk": claim_tmii1,
    "tm-ii-2": claim_tmii2,
    "pairs": claim_pairs,
}


#: the SweepConfig fields each claim reads
CLAIM_OPTIONS = {
    "tm1": ("p_max", "k_max", "workers"),
    "p2-prop": (),
    "fujita": ("limit", "workers"),
    "dubo": ("samples", "seed"),
    "worley": ("seed",),
    "lemma3": ("samples", "seed"),
    "prop26": ("n_max", "j_max"),
    "fifumi-desk": ("c_max",),
    "tm-ii-1-desk": ("limit", "c_max"),
    "tm-ii-2": (),
    "pairs": ("limit",),
}


def run_claim(claim_id: str, cfg: SweepConfig) -> ClaimReport:
    if claim_id not in CLAIMS:
        raise KeyError(claim_id)
    start = time.monotonic()
    report = CLAIMS[claim_id](cfg)
    report.elapsed = time.monotonic() - start
    return report
