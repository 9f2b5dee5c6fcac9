"""The four benchmark workloads: seeded inputs, the call under test, the check.

Inputs are made here from the seed with the benchmark's own arithmetic;
pelltuples only ever sees the finished inputs.  Each case is one call into
the package's public API, issued one after another by a single caller
(closed loop, one client, workers=1).
"""
from __future__ import annotations

import bisect
import contextlib
import functools
import io
import itertools
import json
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import checks
import speed
from pelltuples import cli, harness, pellian, zring

#: pell-wide queries per pass; 100 leaves ten calls above the 90th percentile
WIDE_QUERIES = 100
WIDE_D_MIN, WIDE_D_MAX = 10**5, 10**6
#: continued-fraction period band of pell-wide's D: long periods (a median
#: D in range has about 150).  A small query's cost grows with the square of
#: the period, so the band is narrow enough that cost follows |N|.
WIDE_PERIOD = (380, 420)
#: every D of that range and band; about one D in 40 qualifies, so testing
#: candidates by their period would put seed-dependent work into set-up
LONG_PERIOD_TABLE = Path(__file__).resolve().parent / "reference" / "long_period_d.json"
WIDE_LOG10_N_MAX = 7
#: y0 of a planted query and the obstruction prime are drawn below this
WIDE_PRIME_MAX = 300
#: ring-tuples sqrt_in_ring elements per pass whose im/2 has only prime
#: factors below 10^4, sizes spread evenly over 4..24 digits
RING_SMOOTH = 160
#: ring-tuples elements per pass whose im/2 is a product of two primes above
#: 10^7 (16..24 digits); they carry the workload's factoring cost
RING_TWO_LARGE = 4
RING_T_MAX = 50
PROP_N_MAX = 60
PROP_J_MAX = 10
TM1_P_MAX, TM1_K_MAX = 50, 3


@dataclass(frozen=True)
class Workload:
    cases: list
    key: Callable[[Any], str]
    call: Callable[[Any], Any]
    check: Callable[[Any, Any], "str | None"]


class Raised:
    """Stands in for the output of a call that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"[:300]


def run_pass(wl: Workload, recorder=None) -> dict:
    """Call every case once, then check every output.

    A call fails when it raises or when its output does not check; a failed
    call earns no throughput and its latency counts as +inf.  wall_s and
    lat_ms are scaled to reference speed (speed.py), raw_wall_s and
    raw_lat_ms are not; both leave out the calibration slices.
    """
    outputs, spans = [], []
    clock = time.perf_counter_ns
    with speed.Sampler() as sampler:
        for case in wl.cases:
            if recorder is not None:
                recorder.case = wl.key(case)
            t0 = clock()
            try:
                out = wl.call(case)
            except Exception as exc:  # the failure is the measurement
                out = Raised(exc)
            spans.append((t0, clock()))
            outputs.append(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures, raw_ms, lat_ms, raw_s, wall_s = [], [], [], 0.0, 0.0
    for case, out, span in zip(wl.cases, outputs, spans):
        bad = ("exception", out.text) if isinstance(out, Raised) else ("wrong", wl.check(case, out))
        if bad[1]:
            failures.append({"case": wl.key(case), "kind": bad[0], "detail": bad[1]})
        raw, scaled = sampler.call_time(*span)
        raw_s += raw
        wall_s += scaled
        raw_ms.append(math.inf if bad[1] else raw * 1e3)
        lat_ms.append(math.inf if bad[1] else scaled * 1e3)
    return {
        "calls": len(wl.cases),
        "failed": len(failures),
        "wrong": sum(f["kind"] == "wrong" for f in failures),
        "wall_s": wall_s,
        "raw_wall_s": raw_s,
        "lat_ms": sorted(lat_ms),
        "raw_lat_ms": sorted(raw_ms),
        "slices": len(sampler.slices),
        "slice_median_s": statistics.median(sampler.slices),
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# tm1-grid: the paper's headline sweep, one run_claim call per pass


def _tm1_call(case) -> str:
    p_max, k_max = case
    cfg = harness.SweepConfig(p_max=p_max, k_max=k_max, workers=1)
    return harness.run_claim("tm1", cfg).to_json()


def _tm1_check(case, text: str):
    return checks.check_tm1_report(json.loads(text), *case)


def tm1_grid(seed: int) -> Workload:
    # the sweep's input is its config; the seed has nothing to vary
    return Workload([(TM1_P_MAX, TM1_K_MAX)], lambda c: f"tm1:p<={c[0]},k<={c[1]}",
                    _tm1_call, _tm1_check)


# ---------------------------------------------------------------------------
# pell-grid: solve_complete on every (D, N) of the committed verdict table


def _pell_call(case):
    return pellian.solve_complete(pellian.PellianProblem(*case))


@functools.cache
def _pell_grid_table():
    return checks.load_pell_grid_table()


def _pell_grid_check(case, oc):
    d, n = case
    return checks.check_pell_outcome(d, n, oc.verdict, oc.witnesses, _pell_grid_table()[case])


def pell_grid(seed: int) -> Workload:
    cases = [(d, n) for d in range(2, 201) if not checks.is_square(d)
             for n in checks.PELL_GRID_NS]
    random.Random(seed).shuffle(cases)
    return Workload(cases, lambda c: f"D={c[0]},N={c[1]}", _pell_call, _pell_grid_check)


# ---------------------------------------------------------------------------
# pell-wide: CLI queries with large D and |N| up to 10^7


def cf_period(d: int, limit: int | None = None) -> int:
    """Period length of the continued fraction of sqrt(d), d non-square.

    The period of (m_k, q_k) is a palindrome, so the scan stops at its
    centre: m_k = m_(k+1) gives 2k and q_k = q_(k+1) gives 2k + 1.  Past
    `limit` it returns a lower bound above `limit`.
    """
    a0 = math.isqrt(d)
    m, q = a0, d - a0 * a0
    if q == 1:
        return 1
    k = 1
    while True:
        m2 = (a0 + m) // q * q - m
        q2 = (d - m2 * m2) // q
        if m2 == m:
            return 2 * k
        if q2 == q:
            return 2 * k + 1
        if limit is not None and 2 * k + 2 > limit:
            return 2 * k + 2  # the period is at least this
        m, q = m2, q2
        k += 1


@functools.cache
def _long_period_ds() -> frozenset[int]:
    doc = json.loads(LONG_PERIOD_TABLE.read_text(encoding="utf-8"))
    if (doc["d_min"], doc["d_max"], tuple(doc["period"])) != (WIDE_D_MIN, WIDE_D_MAX, WIDE_PERIOD):
        raise ValueError(f"{LONG_PERIOD_TABLE.name} is for another D range or period band")
    return frozenset(itertools.accumulate(doc["gaps"]))


def _long_period(d: int) -> bool:
    return d in _long_period_ds()


def _next_prime(x: int) -> int:
    while not checks.is_prime(x):
        x += 1
    return x


def sqrt_mod_square(n: int, p: int) -> int:
    """x with x^2 = n (mod p^2), for an odd prime p and (n/p) = 1 (Hensel)."""
    r = next(x for x in range(1, p) if (x * x - n) % p == 0)
    return r + ((n - r * r) // p * pow(2 * r, -1, p)) % p * p


def planted_query(rng: random.Random, n: int) -> tuple[int, tuple[int, int]]:
    """(D, (x0, y0)) with x0^2 - D*y0^2 = n: y0 is a small prime, x0 = sqrt(n)
    mod y0^2 near y0*sqrt(D_target), and D = (x0^2 - n)/y0^2 has a long period."""
    while True:
        y0 = rng.choice(_odd_primes_below(WIDE_PRIME_MAX))
        if checks.legendre(n, y0) != 1:
            continue
        x_target = y0 * math.isqrt(rng.randint(WIDE_D_MIN, WIDE_D_MAX))
        x0 = x_target - (x_target - sqrt_mod_square(n, y0)) % (y0 * y0)
        d = (x0 * x0 - n) // (y0 * y0)
        if x0 > 0 and WIDE_D_MIN <= d <= WIDE_D_MAX and _long_period(d):
            return d, (x0, y0)


def obstructed_query(rng: random.Random, n: int) -> tuple[int, int]:
    """(D, p): p an odd prime dividing D with n a non-residue mod p.

    D is also a residue mod |n|, an odd prime, so the class search meets two
    residues, as it does for a planted query."""
    while True:
        p = rng.choice(_odd_primes_below(WIDE_PRIME_MAX))
        if checks.legendre(n, p) != -1:
            continue
        d = p * rng.randint(WIDE_D_MIN // p + 1, WIDE_D_MAX // p)
        if checks.legendre(d, abs(n)) != 1:
            continue
        if _long_period(d):
            return d, p


def _wide_cases(seed: int) -> list:
    rng = random.Random(seed)
    cases = []
    for i in range(WIDE_QUERIES):
        # |N| is the prime at the middle of the i-th of WIDE_QUERIES equal
        # slices of log10|N| in [0, 7]; a prime N gives every query the same
        # residue count, so the cost follows |N| and the period of D.  N = +-2
        # is skipped: x0^2 - D*y0^2 = +-2 with a small y0 forces a short period.
        n = rng.choice((1, -1)) * _next_prime(
            max(3, int(10 ** ((i + 0.5) * WIDE_LOG10_N_MAX / WIDE_QUERIES))))
        if i % 2 == 0:
            d, planted = planted_query(rng, n)
            cases.append((d, n, "planted", planted))
        else:
            d, p = obstructed_query(rng, n)
            cases.append((d, n, "obstructed", p))
    # shuffled, so that queries of one size do not all meet the same stretch
    # of machine speed
    rng.shuffle(cases)
    return cases


def _wide_call(case):
    d, n = case[0], case[1]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["--json", "pell", str(d), "--", str(n)])
    return rc, buf.getvalue()


def _wide_check(case, out):
    d, n, kind, cert = case
    rc, text = out
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(text)
    if (int(doc["D"]), int(doc["N"])) != (d, n):
        return f"answered D={doc['D']}, N={doc['N']}"
    wits = [(int(x), int(y)) for x, y in doc["witnesses"]]
    if kind == "planted":
        return checks.check_planted(d, n, cert, doc["verdict"], wits)
    return checks.check_obstructed(d, n, cert, doc["verdict"], wits)


def pell_wide(seed: int) -> Workload:
    return Workload(_wide_cases(seed), lambda c: f"{c[2]}:D={c[0]},N={c[1]}",
                    _wide_call, _wide_check)


# ---------------------------------------------------------------------------
# ring-tuples: square roots in Z[sqrt(-t)] and D(-1)-quadruple verification


@functools.cache
def _primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    return [i for i in range(limit) if sieve[i]]


def _odd_primes_below(limit: int) -> list[int]:
    return _primes_below(limit)[1:]


def smooth_number(rng: random.Random, digits: float) -> int:
    """About 10^digits, every prime factor below 10^4."""
    primes, target = _primes_below(10**4), 10**digits
    x = 1
    while x * 10**4 < target:
        x *= rng.choice(primes)
    return x * primes[max(0, bisect.bisect_right(primes, int(target // x)) - 1)]


def random_prime(rng: random.Random, digits: float) -> int:
    x = int(10**digits) + rng.randrange(int(10**digits)) | 1
    while not checks.is_prime(x):
        x += 2
    return x


def _sqrt_case(rng: random.Random, digits: float, two_large: bool):
    """('sqrt', re, im, t, root) with root None for a certified non-square.

    im/2 is smooth, or a product of two primes above 10^7 when two_large.
    """
    t = rng.randint(1, RING_T_MAX)
    half = digits / 2
    if rng.random() < 0.5:
        if two_large:
            x, y = random_prime(rng, half), random_prime(rng, half)
        else:
            x, y = smooth_number(rng, half), smooth_number(rng, half)
        x, y = x * rng.choice((1, -1)), y * rng.choice((1, -1))
        return ("sqrt", x * x - t * y * y, 2 * x * y, t, (x, y))
    h = (random_prime(rng, half) * random_prime(rng, half) if two_large
         else smooth_number(rng, digits))
    im = 2 * h * rng.choice((1, -1))
    while True:
        re = rng.randrange(-(10 ** math.ceil(digits)), 10 ** math.ceil(digits))
        if not checks.norm_is_square(re, im, t):
            return ("sqrt", re, im, t, None)


def _ring_cases(seed: int) -> list:
    rng = random.Random(seed)
    cases = [_sqrt_case(rng, 4 + 20 * (i + rng.random()) / RING_SMOOTH, False)
             for i in range(RING_SMOOTH)]
    cases += [_sqrt_case(rng, 16 + 8 * (i + rng.random()) / RING_TWO_LARGE, True)
              for i in range(RING_TWO_LARGE)]
    cases += [("prop", n, j) for n in range(1, PROP_N_MAX + 1) for j in range(1, PROP_J_MAX + 1)]
    rng.shuffle(cases)
    return cases


def _ring_key(case) -> str:
    if case[0] == "sqrt":
        return f"sqrt:re={case[1]},im={case[2]},t={case[3]}"
    return f"prop:n={case[1]},j={case[2]}"


def _ring_call(case):
    if case[0] == "sqrt":
        _, re, im, t, _ = case
        return zring.sqrt_in_ring(zring.RingElem(re, im, t))
    _, n, j = case
    branches = []
    for sign, rep in zip((1, -1), zring.prop_family(n, j, 1)):
        reports = []
        if not rep.degenerate:
            reports.append(rep)
        if rep.verified:
            elems = [e.re for e in rep.elements]
            reports += [zring.check_tuple(elems, -1, m * m) for m in range(1, n + 1) if n % m == 0]
        branches.append((sign, rep, reports))
    return branches


def _ring_check(case, out):
    if case[0] == "sqrt":
        _, re, im, t, root = case
        return checks.check_sqrt(re, im, t, [(w.re, w.im) for w in out], root)
    _, n, j = case
    return checks.check_prop_case(n, j, [
        (sign, tuple(e.re for e in rep.elements), rep.degenerate,
         [(r.t, r.verified, {ij: (w.re, w.im) for ij, w in r.witnesses.items()})
          for r in reports])
        for sign, rep, reports in out])


def ring_tuples(seed: int) -> Workload:
    return Workload(_ring_cases(seed), _ring_key, _ring_call, _ring_check)


WORKLOADS = {
    "tm1-grid": tm1_grid,
    "pell-grid": pell_grid,
    "pell-wide": pell_wide,
    "ring-tuples": ring_tuples,
}
