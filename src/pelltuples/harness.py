"""The claims of `CLAIMS`, their sweeps and their deterministic JSON reports.

Entry points: `run_claim(claim_id, SweepConfig(...))`, and `dump_json` and
`write_json`, the one writer of every report and CLI document.  Each
`claim_*` function's docstring says what it checks and how far.  A claim's
options are its keyword-only parameters, declared nowhere else:
`CLAIM_OPTIONS` and `SweepConfig` are read off them.  `run_claim` raises
ValueError on a set option that the claim does not read, and a sweep that
would check nothing raises it too.  The contract of a report is
`ClaimReport.body()`, byte-deterministic for a fixed config.
"""
from __future__ import annotations

import json
import math
import os
import time
from collections import namedtuple
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _json_str

from . import __version__
from .arith import factorize, is_perfect_square, is_prime, isqrt, odd_primes_upto
from .contfrac import QuadIrr, _lemma_db_sides, convergents, expand, worley_candidates
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


class ClaimReport(namedtuple("ClaimReport", "claim_id status config evidence elapsed",
                             defaults=(0.0,))):
    """A claim's status, its config dict and its list of evidence records, and
    the sweep's elapsed seconds, which only the header shows."""

    __slots__ = ()

    def _raw_body(self) -> dict:
        """The body as the sweep left it, ints and all."""
        return {"claim_id": self.claim_id, "status": self.status,
                "config": self.config, "evidence": self.evidence}

    def body(self) -> dict:
        """Deterministic part of the report (no timings): its JSON text, read back."""
        return json.loads(dump_json(self._raw_body(), True))

    def to_json(self, compact: bool = False) -> str:
        header = {"elapsed": round(self.elapsed, 6), "version": __version__}
        return dump_json({**self._raw_body(), "header": header}, compact)


def dump_json(doc, compact: bool) -> str:
    """The JSON text of every report and CLI document, written in one pass,
    compact or indented by 2: keys made str and sorted, each int that is not a
    bool as its decimal string, each tuple as an array.  An int longer than
    sys.get_int_max_str_digits() raises ValueError unless the caller lifts
    that limit, as cli.main does for its process."""
    out: list[str] = []
    write_json(doc, compact, out.append)
    return "".join(out)


def write_json(doc, compact: bool, write) -> None:
    """Pass dump_json(doc, compact) to `write` (a file's write, say) piece by
    piece, as it is made.  An iterator in doc is written as an array while it
    yields, so a document whose rows would not fit in memory streams."""
    _write_json(doc, write, "" if compact else "\n")


def _write_json(obj, write, nl: str) -> None:
    """Pass the JSON text of obj to `write`: an int that is not a bool as its
    decimal string, a list, tuple (namedtuples too) or other iterator as an
    array, a dict with its keys made str and sorted, a float or anything else
    as json.dumps has it (so what JSON cannot hold raises TypeError).  `nl` is
    "" (compact) or the line break and indent of obj's own line."""
    if isinstance(obj, str):
        write(_json_str(obj))
    elif obj is None or obj is True or obj is False:
        write("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        write(_json_str(str(obj)))
    elif isinstance(obj, dict):
        inner = nl and nl + "  "
        colon, comma = (": " if nl else ":"), "," + inner
        sep = "{" + inner
        obj = {str(k): v for k, v in obj.items()}
        for k in sorted(obj):
            write(sep)
            write(_json_str(k) + colon)
            _write_json(obj[k], write, inner)
            sep = comma
        write(nl + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple, Iterator)):
        inner = nl and nl + "  "
        sep, comma = "[" + inner, "," + inner
        for v in obj:
            write(sep)
            _write_json(v, write, inner)
            sep = comma
        # sep is still the opening one if obj yielded nothing
        write(nl + "]" if sep is comma else "[]")
    else:  # a float, or a TypeError for what JSON cannot hold
        write(json.dumps(obj))


def _map_ordered(fn, items, workers: int):
    # the pool starts all its processes up front, so start no more than can run
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(it) for it in items]
    # imported here, not at the top: a process that runs no pool never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def _checked(claim_id: str, config: dict, evidence: list) -> ClaimReport:
    """The report of a claim whose every evidence record carries its own `ok`."""
    ok = all(rec["ok"] for rec in evidence)
    return ClaimReport(claim_id, CONFIRMED if ok else VIOLATED, config, evidence)


# ---------------------------------------------------------------------------
# per-claim sweeps


def _tm1_one_prime(args) -> list[dict]:
    p, k_max = args
    records = []
    for k in range(k_max + 1):
        hits = case2_residue_search(p, k)
        records.append({"p": p, "k": k, "kind": "residue-search",
                        "hits": list(hits), "ok": not hits})
        if hits:  # the decider would raise on them: the report names them instead
            continue
        for l in range(k + 1):
            oc = decide_paper_equation(p, k, l)
            records.append({
                "p": p, "k": k, "l": l, "kind": "decision",
                "verdict": oc.verdict, "method": oc.method,
                "search_bound": oc.search_bound_used,
                "ok": oc.verdict == UNSOLVABLE,
            })
    return records


def claim_tm1(*, p_max: int = 50, k_max: int = 3, workers: int = 1) -> ClaimReport:
    """x^2 - (p^(2k+2)+1)y^2 = -p^(2l+1) is unsolvable: each odd prime p <= p_max, l <= k <= k_max.

    Each (p, k) first runs the Case 2 residue search: a hit, which would
    contradict the theorem, is a failing record, and the decider is not
    called at that k.  `workers` spreads the primes over a process pool."""
    primes = odd_primes_upto(p_max)
    if not primes or k_max < 0 or workers < 1:
        raise ValueError("tm1 needs p_max >= 3, k_max >= 0 and workers >= 1")
    chunks = _map_ordered(_tm1_one_prime, [(p, k_max) for p in primes], workers)
    evidence = [rec for chunk in chunks for rec in chunk]
    return _checked("tm1", {"p_max": p_max, "k_max": k_max}, evidence)


def claim_p2_prop() -> ClaimReport:
    """p = 2, each l <= k <= 9: x^2 - (2^(2k+2)+1)y^2 = -2^(2l+1) is solvable iff odd k < 2l."""
    evidence = []
    for k in range(10):
        for l in range(k + 1):
            oc = decide_paper_equation(2, k, l)
            expect = SOLVABLE if (k % 2 == 1 and 2 * l > k) else UNSOLVABLE
            evidence.append({"k": k, "l": l, "verdict": oc.verdict,
                             "method": oc.method, "ok": oc.verdict == expect})
    return _checked("p2-prop", {"k_max": 9}, evidence)


def _fujita_one_k(bigk: int) -> dict:
    violations = []
    for n in range(-bigk, bigk + 1):
        if abs(n) <= 1:
            continue
        certified = fujita_fast_path(bigk, n) is not None
        oc = solve_complete(PellianProblem(bigk * bigk + 1, n))
        primitive = has_primitive_solution(oc)
        if not certified or primitive:
            violations.append({"n": n, "certified": certified, "primitive": primitive,
                               "witnesses": list(oc.witnesses)})
    return {"K": bigk, "n_checked": 2 * (bigk - 1), "violations": violations}


def claim_fujita(*, limit: int = 60, workers: int = 1) -> ClaimReport:
    """x^2 - (K^2+1)y^2 = N has no primitive solution: each 2 <= K <= limit, N = +-2, ..., +-K.

    A case holds when fujita_fast_path certifies it and solve_complete finds
    no primitive witness; each K's record lists every N that fails, with
    whether it was certified and whether a witness was primitive."""
    if limit < 2 or workers < 1:
        raise ValueError("fujita needs limit >= 2 and workers >= 1")
    evidence = _map_ordered(_fujita_one_k, list(range(2, limit + 1)), workers)
    ok = all(not rec["violations"] for rec in evidence)
    return ClaimReport("fujita", CONFIRMED if ok else VIOLATED, {"K_max": limit}, evidence)


def _sampled_claim(claim_id: str, draw, samples: int, seed: int) -> ClaimReport:
    """Check `samples` cases, each drawn and checked by draw(rng) from one
    generator seeded with `seed`; the evidence keeps the first 10 records,
    every failing one and a summary."""
    # imported here, not at the top: only the sampled claims and worley load random
    import random

    if samples < 1:
        raise ValueError(f"{claim_id} needs samples >= 1")
    rng = random.Random(seed)
    evidence = []
    for i in range(samples):
        rec = draw(rng)
        if i < 10 or not rec["ok"]:
            evidence.append(rec)
    ok = all(rec["ok"] for rec in evidence)  # every failing record was kept
    evidence.append({"samples": samples, "all_ok": ok})
    return ClaimReport(claim_id, CONFIRMED if ok else VIOLATED,
                       {"samples": samples, "seed": seed}, evidence)


def _dubo_case(rng) -> dict:
    while True:
        alpha = rng.randint(1, 10_000)
        beta = rng.randint(1, 10_000)
        if is_perfect_square(alpha * beta) is None:
            break
    exp = expand(QuadIrr(alpha * beta, 0, beta))
    n = rng.randint(0, exp.preperiod_len + exp.period_len + 5)
    r = rng.randint(0, 100)
    u = rng.randint(0, 100)
    try:
        val, good = _lemma_db_sides(alpha, beta, exp, n, r, u), True
    except AssertionError:
        val, good = None, False
    return {"alpha": alpha, "beta": beta, "n": n, "r": r, "u": u, "value": val, "ok": good}


def claim_dubo(*, samples: int = 500, seed: int = 0) -> ClaimReport:
    """lemma_db_check's identity holds: a seeded sample of alpha, beta <= 10^4, n, r, u."""
    return _sampled_claim("dubo", _dubo_case, samples, seed)


def _worley_good_approximations(alpha: QuadIrr, c, b_max: int):
    """All coprime (a, b), 1 <= b <= b_max, with |alpha - a/b| < c/b^2 (exact)."""
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


def claim_worley(*, seed: int = 0) -> ClaimReport:
    """A coprime a/b, b <= 60, within c/b^2 of alpha is a Worley candidate: 10 alpha, 7 seeded."""
    # imported here, not at the top: no other sweep loads fractions and decimal,
    # and only the sampled claims and this one load random
    import random
    from fractions import Fraction

    rng = random.Random(seed)
    irrationals = [QuadIrr(10, 0, 1), QuadIrr(2, 0, 1), QuadIrr(5, 1, 2)]
    for _ in range(7):
        d = rng.randint(2, 400)
        while is_perfect_square(d) is not None:
            d = rng.randint(2, 400)
        irrationals.append(QuadIrr(d, rng.randint(-3, 3), rng.choice([1, 2, 3])))
    evidence = []
    b_max = 60
    for alpha in irrationals:
        exp = expand(alpha)
        # least m >= 1 with q_m > b_max
        conv = convergents(a for a, _, _ in exp.terms())
        m_max = next(m for m, (_, q) in enumerate(conv) if m >= 1 and q > b_max)
        for c in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
            cands = {(w.a, w.b) for w in worley_candidates(exp, c, m_max)}
            cands |= {(-a, -b) for a, b in cands}
            missing = [ab for ab in _worley_good_approximations(alpha, c, b_max)
                       if ab not in cands]
            evidence.append({"alpha": (alpha.d, alpha.s, alpha.t),
                             "c": str(c), "missing": missing, "ok": not missing})
    return _checked("worley", {"b_max": b_max, "seed": seed}, evidence)


def _random_dl_triple(rng):
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


def _lemma3_case(rng) -> dict:
    a, b, c, l, r, s, tp = _random_dl_triple(rng)
    try:
        data = lemma3_extend_data(a, b, c, l, r, s, tp)
    except AssertionError as exc:
        return {"a": a, "b": b, "c": c, "l": l, "ok": False, "error": str(exc)}
    return {"a": a, "b": b, "c": c, "l": l, "e": data.e,
            "x": data.x, "y": data.y, "z": data.z, "ok": True}


def claim_lemma3(*, samples: int = 500, seed: int = 0) -> ClaimReport:
    """lemma3_extend_data's identities hold: a seeded sample of D(+-1) triples {a, b, a+b+2r}."""
    return _sampled_claim("lemma3", _lemma3_case, samples, seed)


def claim_prop26(*, n_max: int = 20, j_max: int = 5) -> ClaimReport:
    """{1, n^2+1, -c_j, d+-} is D(-1) in each Z[sqrt(-m^2)], m dividing n: n <= n_max, j <= j_max.

    prop_family checks m = n, check_tuple each m < n (a branch lists every m
    that fails), and a degenerate branch is only recorded.  {1, 5, -3, 65}
    and {1, 10, -8, 325} must turn up once n_max reaches their n."""
    if n_max < 1 or j_max < 1:
        raise ValueError("prop26 needs n_max >= 1 and j_max >= 1")
    evidence = []
    inventory = set()
    ok = True
    for n in range(1, n_max + 1):
        divisors_of_n = [m for m in range(1, n) if n % m == 0]
        for j in range(1, j_max + 1):
            plus, minus = prop_family(n, j, 1)
            for tag, rep in (("+", plus), ("-", minus)):
                elems = tuple(e.re for e in rep.elements)
                rec = {"n": n, "j": j, "branch": tag, "elements": list(elems),
                       "verified": rep.verified, "degenerate": rep.degenerate}
                if rep.verified:
                    inventory.add(elems)
                    # subring re-verification for every divisor m < n of n:
                    # prop_family(n, j, 1) has just checked m = n
                    failures = [m for m in divisors_of_n
                                if not check_tuple(elems, -1, m * m).verified]
                    if failures:
                        rec["subring_failures"] = failures
                        ok = False
                elif not rep.degenerate:
                    ok = False
                evidence.append(rec)
    if all(rec["degenerate"] for rec in evidence):
        raise ValueError(f"prop26 at n_max={n_max}, j_max={j_max} meets only "
                         f"degenerate branches: there is no quadruple to check")
    # the required quadruples inside the sweep: n^2 + 1 is the second element
    for required in ((1, 5, -3, 65), (1, 10, -8, 325)):
        if isqrt(required[1] - 1) <= n_max and required not in inventory:
            ok = False
            evidence.append({"missing_required": list(required)})
    return ClaimReport("prop26", CONFIRMED if ok else VIOLATED,
                       {"n_max": n_max, "j_max": j_max}, evidence)


def fifumi_b_values(limit: int) -> list[int]:
    """b = r^2+1 <= limit of the forms b=p, b=2p^k, r=p^k, r=2p^k (p odd prime)."""
    def odd_prime_power(v: int) -> bool:
        if v < 3 or v % 2 == 0:
            return False
        return len(factorize(v)) == 1
    out = []
    r = 1
    while r * r + 1 <= limit:
        b = r * r + 1
        if ((b % 2 == 1 and is_prime(b))
                or (b % 2 == 0 and odd_prime_power(b // 2))
                or odd_prime_power(r)
                or (r % 2 == 0 and odd_prime_power(r // 2))):
            out.append(b)
        r += 1
    return out


def claim_fifumi(*, c_max: int = 10_000) -> ClaimReport:
    """No integer D(-1)-quadruple {1, b, c, d}, d <= c_max: each b of fifumi_b_values(200)."""
    evidence = []
    for b in fifumi_b_values(200):
        found = integer_quadruple_search(b, c_max)
        evidence.append({"b": b, "c_max": c_max,
                         "quadruples": [list(q) for q in found], "ok": not found})
    return _checked("fifumi-desk", {"c_max": c_max}, evidence)


def claim_tmii1(*, limit: int = 50, c_max: int = 10**8) -> ClaimReport:
    """{1, 2p^k} extends in no Z[sqrt(-t)], even t <= 20, nor Z to c_max: admissible p <= limit."""
    evidence = []
    pairs = find_admissible_pairs(limit)
    if not pairs:
        raise ValueError(f"tm-ii-1-desk found no admissible pairs up to limit {limit}")
    for p, k, q, l_exp in pairs:
        b = 2 * p**k
        for t in range(2, 21, 2):
            res = theorem3_classify(p, k, q, l_exp, t)
            evidence.append({"p": p, "k": k, "t": t, "status": res.status,
                             "ok": res.status == NONE})
        found = integer_quadruple_search(b, c_max)
        evidence.append({"b": b, "kind": "integer-quadruple-search",
                         "quadruples": [list(qd) for qd in found], "ok": not found})
    return _checked("tm-ii-1-desk", {"limit": limit, "c_max": c_max}, evidence)


def claim_tmii2() -> ClaimReport:
    """{1, 2p^k} extends in Z[sqrt(-q^e)] iff e is even, e <= 2^l, not in Z[sqrt(-2)]: two pairs.

    At (p, k, q, l) = (5, 1, 3, 1) and (41, 1, 3, 2): a verified witness at
    even e, and an unsolvable Pellian reduction at odd e."""
    evidence = []
    targets = [(5, 1, 3, 1), (41, 1, 3, 2)]
    for p, k, q, l_exp in targets:
        # theorem3_classify raises unless an EXISTS_INFINITE witness verifies
        # and a NONE at odd e is certified UNSOLVABLE, so the status says it all
        wanted = [(q**e, NONE if e % 2 else EXISTS_INFINITE) for e in range(2**l_exp + 1)]
        for t, want in [*wanted, (2, NONE)]:
            res = theorem3_classify(p, k, q, l_exp, t)
            rec = {"p": p, "k": k, "t": t, "status": res.status}
            if res.witness is not None:
                rec["witness"] = [el.re for el in res.witness.elements]
            rec["ok"] = res.status == want
            evidence.append(rec)
    return _checked("tm-ii-2", {"pairs": targets}, evidence)


#: entries the sweep must at minimum rediscover, each once limit reaches its p
REQUIRED_PAIRS = [(5, 1, 3, 1), (5, 2, 7, 1), (13, 4, 239, 1),
                  (29, 2, 41, 1), (41, 1, 3, 2)]


def claim_pairs(*, limit: int = 50) -> ClaimReport:
    """2p^k = q^(2^l) + 1: the search to limit finds each REQUIRED_PAIRS entry with p <= limit."""
    required = [t for t in REQUIRED_PAIRS if t[0] <= limit]
    if not required:
        raise ValueError(f"pairs at limit={limit} checks no required pair: none has p <= limit")
    found = find_admissible_pairs(limit)
    missing = [t for t in required if t not in found]
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


#: the options each claim reads, with their defaults: its keyword-only parameters
CLAIM_OPTIONS = {claim_id: dict(fn.__kwdefaults__ or {}) for claim_id, fn in CLAIMS.items()}

# one field per option some claim reads
_OPTION_NAMES = sorted(set().union(*CLAIM_OPTIONS.values()))
SweepConfig = namedtuple("SweepConfig", _OPTION_NAMES, defaults=(None,) * len(_OPTION_NAMES))
SweepConfig.__doc__ = "Sweep options; an unset (None) one takes the claim's own default."


def run_claim(claim_id: str, cfg: SweepConfig) -> ClaimReport:
    """The report of claim_id, given the options of cfg that are set, with the
    sweep's elapsed seconds.  A set option the claim does not read raises
    ValueError naming it, before the sweep starts."""
    fn = CLAIMS[claim_id]
    given = {name: value for name, value in cfg._asdict().items() if value is not None}
    unread = [name for name in given if name not in CLAIM_OPTIONS[claim_id]]
    if unread:
        raise ValueError(f"{claim_id} does not read {', '.join(unread)}")
    start = time.monotonic()
    report = fn(**given)
    return report._replace(elapsed=time.monotonic() - start)
