"""The namedtuple records against the dataclasses they replaced.

PellianProblem, PellianOutcome, FujitaCertificate, WorleyCandidate,
ExtensionData and QuadIrr were frozen dataclasses; CFExpansion,
ClassifyResult, ClaimReport and SweepConfig were mutable ones.  Each oracle
below is one of those declarations, kept verbatim apart from its name (and
the names it needs imported); the tests check that the record, a
collections.namedtuple or a slotted subclass of one, keeps its fields,
defaults, validation, equality, hash, repr, copies and read-only attributes
on seeded grids of values.
"""

import copy
import dataclasses
import json
import pickle
import random
from dataclasses import dataclass, field, make_dataclass
from fractions import Fraction
from itertools import cycle, islice
from typing import Iterator

import pytest

from pelltuples import __version__
from pelltuples.arith import is_perfect_square
from pelltuples.contfrac import CFExpansion, QuadIrr, WorleyCandidate, expand, worley_candidates
from pelltuples.harness import CLAIM_OPTIONS, ClaimReport, SweepConfig, dump_json, run_claim
from pelltuples.pellian import (
    FujitaCertificate,
    PellianOutcome,
    PellianProblem,
    decide_paper_equation,
    solve_complete,
)
from pelltuples.zring import (
    ClassifyResult,
    ExtensionData,
    TupleReport,
    find_admissible_pairs,
    lemma3_extend_data,
    theorem3_classify,
)


@dataclass(frozen=True)
class _FrozenPellianProblem:
    d: int
    n: int

    def __post_init__(self):
        if self.d < 2 or is_perfect_square(self.d) is not None:
            raise ValueError(f"D={self.d} must be a non-square integer >= 2")
        if self.n == 0:
            raise ValueError("N must be nonzero")


@dataclass(frozen=True)
class _FrozenPellianOutcome:
    verdict: str
    witnesses: tuple[tuple[int, int], ...]
    method: str
    search_bound_used: int
    certificate: object = None


@dataclass(frozen=True)
class _FrozenFujitaCertificate:
    """No primitive solution of X^2 - (K^2+1)Y^2 = N when 1 < |N| <= K."""

    k: int
    n: int


@dataclass(frozen=True)
class _FrozenWorleyCandidate:
    m: int
    r: int
    u: int
    sign: int       # +1 or -1
    a: int          # r*p_{m+1} + sign*u*p_m
    b: int          # r*q_{m+1} + sign*u*q_m


@dataclass(frozen=True)
class _FrozenExtensionData:
    """Integers (e, x, y, z) attached to a D(l) triple by the extension identity."""

    e: int
    x: int
    y: int
    z: int


@dataclass(frozen=True)
class _FrozenQuadIrr:
    """The quadratic irrational (s + sqrt(d)) / t, normalized so t | d - s^2."""

    d: int
    s: int
    t: int

    def __post_init__(self):
        if self.t == 0:
            raise ValueError("t must be nonzero")
        if self.d < 0:
            raise ValueError("d must be non-negative")
        if is_perfect_square(self.d) is not None:
            raise ValueError(f"d={self.d} is a perfect square")
        if (self.d - self.s * self.s) % self.t != 0:
            a = abs(self.t)
            object.__setattr__(self, "s", self.s * a)
            object.__setattr__(self, "d", self.d * self.t * self.t)
            object.__setattr__(self, "t", self.t * a)

    def compare_rational(self, num: int, den: int) -> int:
        """Sign of self - num/den, exactly."""
        if den == 0:
            raise ValueError("zero denominator")
        # self - num/den = (a + den*sqrt(d)) / (t*den) with a = s*den - num*t;
        # a + den*sqrt(d) is never zero (d is not a square), and it has den's
        # sign unless a has the other sign and a^2 > den^2*d
        a = self.s * den - num * self.t
        sign = den if a * den >= 0 or den * den * self.d > a * a else a
        return 1 if sign * self.t * den > 0 else -1


@dataclass
class _MutableCFExpansion:
    """The rows (a_n, s_{n+1}, t_{n+1}) of `walk` through the preperiod of
    preperiod_len rows and one period; the last row's state repeats the
    state that opens the period."""

    rows: list[tuple[int, int, int]]
    preperiod_len: int

    @property
    def quotients(self) -> list[int]:
        return [a for a, _, _ in self.rows]

    @property
    def period_len(self) -> int:
        return len(self.rows) - self.preperiod_len

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """Yield the rows, repeating the period without end."""
        yield from self.rows
        yield from cycle(self.rows[self.preperiod_len:])


@dataclass
class _MutableClassifyResult:
    status: str
    witness: TupleReport | None = None
    certificate: PellianOutcome | None = None


@dataclass
class _MutableClaimReport:
    claim_id: str
    status: str
    config: dict
    evidence: list = field(default_factory=list)
    elapsed: float = 0.0

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


# one field per option some claim reads; the module is named so that it pickles
_MutableSweepConfig = make_dataclass(
    "_MutableSweepConfig",
    [(name, int | None, None) for name in sorted(set().union(*CLAIM_OPTIONS.values()))],
    namespace={"__module__": __name__,
               "__doc__": "Sweep options; an unset (None) one takes the claim's own default."},
)


def _built(build, *args, **kwargs):
    """build(*args, **kwargs), or the message of the ValueError it raises."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


def _check_same_values(new_cls, old_cls, grid):
    """new_cls(*args) against old_cls(*args) for every args of grid; returns the
    (new, old) pairs that were built."""
    names = tuple(f.name for f in dataclasses.fields(old_cls))
    assert new_cls._fields == names
    assert new_cls._field_defaults == {
        f.name: f.default for f in dataclasses.fields(old_cls)
        if f.default is not dataclasses.MISSING}
    pairs = []
    for args in grid:
        new, old = _built(new_cls, *args), _built(old_cls, *args)
        if isinstance(old, str):
            assert new == old, args  # the same validation error
            continue
        assert type(new) is new_cls
        assert [getattr(new, f) for f in names] == [getattr(old, f) for f in names]
        assert new == new_cls(**{f: getattr(old, f) for f in names})
        if type(old).__hash__ is not None:  # a mutable dataclass has no hash
            assert _hash_or_error(new) == _hash_or_error(old)
        assert repr(new) == repr(old).replace(old_cls.__name__, new_cls.__name__)
        for twin in (copy.copy(new), copy.deepcopy(new), pickle.loads(pickle.dumps(new))):
            assert type(twin) is new_cls and twin == new and repr(twin) == repr(new)
        for name in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(new, name, 0)
        pairs.append((new, old))
    for new_a, old_a in pairs[:80]:
        for new_b, old_b in pairs[:80]:
            assert (new_a == new_b) == (old_a == old_b)
            assert (new_a != new_b) == (old_a != old_b)
    return pairs


def test_pellian_problem_matches_frozen_class():
    rng = random.Random(21)
    grid = [(d, n) for d in range(-3, 30) for n in (-7, -1, 0, 1, 5)]
    grid += [(rng.randint(-50, 10**4), rng.randint(-50, 50)) for _ in range(300)]
    grid += [(10**30 + 1, -(10**20)), (10**30, 7), ((10**15) ** 2, 3), (2, 0)]
    pairs = _check_same_values(PellianProblem, _FrozenPellianProblem, grid)
    assert len(pairs) > 250
    errors = {_built(_FrozenPellianProblem, *g) for g in grid} - {p[1] for p in pairs}
    assert "N must be nonzero" in errors and "D=4 must be a non-square integer >= 2" in errors


def test_pellian_problem_checks_every_route():
    rng = random.Random(22)
    base, old_base = PellianProblem(10, -3), _FrozenPellianProblem(10, -3)
    grid = [(rng.randint(-5, 60), rng.randint(-6, 6)) for _ in range(400)]
    for d, n in grid:
        old = _built(_FrozenPellianProblem, d=d, n=n)
        for new in (_built(PellianProblem, d=d, n=n),
                    _built(PellianProblem._make, (d, n)),
                    _built(PellianProblem._make, iter([d, n])),
                    _built(base._replace, d=d, n=n)):
            if isinstance(old, str):
                assert new == old
            else:
                assert type(new) is PellianProblem and (new.d, new.n) == (d, n)
        for field, value in (("d", d), ("n", n)):
            old_one = _built(dataclasses.replace, old_base, **{field: value})
            new_one = _built(base._replace, **{field: value})
            if isinstance(old_one, str):
                assert new_one == old_one
            else:
                assert (new_one.d, new_one.n) == (old_one.d, old_one.n)
    with pytest.raises(TypeError):
        PellianProblem._make((10, -3, 1))
    with pytest.raises(ValueError, match="unexpected field names"):
        base._replace(k=1)


def test_pellian_outcome_matches_frozen_class():
    rng = random.Random(23)
    grid = []
    for _ in range(150):
        d = rng.randint(2, 300)
        if is_perfect_square(d) is not None:
            continue
        oc = solve_complete(PellianProblem(d, rng.choice((-1, 1)) * rng.randint(1, 60)))
        grid.append((oc.verdict, oc.witnesses, oc.method, oc.search_bound_used))
    for p, k, l in ((3, 0, 0), (3, 3, 1), (3, 3, 3), (2, 2, 1), (2, 3, 3), (5, 1, 1)):
        oc = decide_paper_equation(p, k, l)
        # dict certificates leave both unhashable; a Fujita chain is a tuple
        grid.append((oc.verdict, oc.witnesses, oc.method, oc.search_bound_used, oc.certificate))
    grid += [("SOLVABLE", ((10**40, 1),), "cf-classes", 10**7, None)]
    pairs = _check_same_values(PellianOutcome, _FrozenPellianOutcome, grid)
    assert len(pairs) == len(grid)
    assert {_hash_or_error(new) is TypeError for new, _ in pairs} == {True, False}
    assert PellianOutcome("UNSOLVABLE", (), "x", 1).certificate is None


def test_fujita_certificate_matches_frozen_class():
    rng = random.Random(24)
    grid = [(rng.randint(-5, 10**6), rng.randint(-10**6, 10**6)) for _ in range(200)]
    _check_same_values(FujitaCertificate, _FrozenFujitaCertificate, grid)


def test_worley_candidate_matches_frozen_class():
    exp = expand(QuadIrr(13, 1, 3))
    grid = [tuple(w) for w in worley_candidates(exp, Fraction(3, 2), 6)]
    assert len(grid) > 50
    _check_same_values(WorleyCandidate, _FrozenWorleyCandidate, grid)


def test_extension_data_matches_frozen_class():
    rng = random.Random(25)
    grid = []
    while len(grid) < 120:
        # the D(l) triple (a, b, a + b + 2r) with roots (r, a + r, b + r)
        l, a, r = rng.choice((-1, 1)), rng.randint(1, 300), rng.randint(1, 300)
        if (r * r - l) % a or (r * r - l) // a in (0, a):
            continue
        b = (r * r - l) // a
        grid.append(tuple(lemma3_extend_data(a, b, a + b + 2 * r, l, r, a + r, b + r)))
    _check_same_values(ExtensionData, _FrozenExtensionData, grid)


def test_records_are_tuples():
    # the one change of meaning: a record now equals a plain tuple of its
    # fields, and records of two types with the same fields equal each other
    assert PellianProblem(10, -3) == (10, -3)
    assert _FrozenPellianProblem(10, -3) != (10, -3)
    assert FujitaCertificate(10, -3) == PellianProblem(10, -3)
    d, n = PellianProblem(10, -3)
    assert (d, n) == (10, -3)
    # the records that were mutable dataclasses are now hashable when every
    # field is; one with a list or dict field is not
    assert hash(ClassifyResult("NONE")) == hash(("NONE", None, None))
    with pytest.raises(TypeError):
        hash(ClaimReport("pairs", "CONFIRMED", {}, []))


def test_quad_irr_matches_frozen_class():
    rng = random.Random(26)
    grid = [(d, s, t) for d in (-2, 0, 1, 2, 4, 5, 10, 13) for s in (-3, 0, 1, 2)
            for t in (-3, -2, -1, 0, 1, 2, 3)]
    grid += [(rng.randint(-5, 500), rng.randint(-40, 40), rng.randint(-12, 12))
             for _ in range(400)]
    grid += [(10**30 + 1, 10**15, 7), ((10**15) ** 2, 0, 1)]
    pairs = _check_same_values(QuadIrr, _FrozenQuadIrr, grid)
    assert len(pairs) > 250
    errors = {_built(_FrozenQuadIrr, *g) for g in grid} - {p[1] for p in pairs}
    assert {"t must be nonzero", "d must be non-negative", "d=4 is a perfect square"} <= errors
    # normalized: t | d - s^2, and some values had to be scaled to get there
    assert all((new.d - new.s * new.s) % new.t == 0 for new, _ in pairs)
    scaled = [g for g in grid if not isinstance(_built(QuadIrr, *g), str) and QuadIrr(*g) != g]
    assert len(scaled) > 100
    assert QuadIrr(13, 1, 5) == (325, 5, 25)
    for new, old in pairs[:100]:
        for num, den in ((1, 1), (-7, 3), (5, -2), (10**6, 999)):
            assert new.compare_rational(num, den) == old.compare_rational(num, den)


def test_quad_irr_checks_every_route():
    # _make, behind _replace, validates and normalizes as dataclasses.replace did
    rng = random.Random(27)
    base, old_base = QuadIrr(10, 0, 1), _FrozenQuadIrr(10, 0, 1)
    for _ in range(400):
        d, s, t = rng.randint(-3, 60), rng.randint(-6, 6), rng.randint(-4, 4)
        old = _built(_FrozenQuadIrr, d=d, s=s, t=t)
        for new in (_built(QuadIrr, d=d, s=s, t=t), _built(QuadIrr._make, (d, s, t)),
                    _built(QuadIrr._make, iter([d, s, t])), _built(base._replace, d=d, s=s, t=t)):
            if isinstance(old, str):
                assert new == old
            else:
                assert type(new) is QuadIrr and tuple(new) == (old.d, old.s, old.t)
        for name, value in (("d", d), ("s", s), ("t", t)):
            old_one = _built(dataclasses.replace, old_base, **{name: value})
            new_one = _built(base._replace, **{name: value})
            if isinstance(old_one, str):
                assert new_one == old_one
            else:
                assert tuple(new_one) == (old_one.d, old_one.s, old_one.t)
    assert base._replace(s=1, t=2) == QuadIrr(10, 1, 2) == (40, 2, 4)
    with pytest.raises(ValueError, match="t must be nonzero"):
        base._replace(t=0)
    with pytest.raises(TypeError):
        QuadIrr._make((10, 0))


def test_cf_expansion_matches_mutable_class():
    rng = random.Random(28)
    grid = []
    while len(grid) < 150:
        d = rng.randint(2, 2000)
        if is_perfect_square(d) is None:
            exp = expand(QuadIrr(d, rng.randint(-20, 20), rng.choice((-3, -1, 1, 2, 5))))
            grid.append(tuple(exp))
    for new, old in _check_same_values(CFExpansion, _MutableCFExpansion, grid):
        assert new.quotients == old.quotients and new.period_len == old.period_len
        n = 2 * len(old.rows) + 3
        assert list(islice(new.terms(), n)) == list(islice(old.terms(), n))


def test_classify_result_matches_mutable_class():
    grid = []
    for p, k, q, l_exp in find_admissible_pairs(50):
        for t in (*range(1, 12), q, q * q, q**3, q**4):
            grid.append(tuple(theorem3_classify(p, k, q, l_exp, t)))
    statuses = {g[0] for g in grid}
    assert statuses == {"NONE", "EXISTS_INFINITE", "UNDECIDED_BY_PAPER"}
    assert any(g[1] is not None for g in grid) and any(g[2] is not None for g in grid)
    pairs = _check_same_values(ClassifyResult, _MutableClassifyResult, grid)
    assert len(pairs) == len(grid)
    assert ClassifyResult("NONE") == ("NONE", None, None)


def test_claim_report_matches_mutable_class():
    grid = []
    for claim_id, cfg in (("pairs", SweepConfig(limit=50)), ("p2-prop", SweepConfig()),
                          ("tm-ii-2", SweepConfig()), ("tm1", SweepConfig(p_max=7, k_max=1))):
        rep = run_claim(claim_id, cfg)
        assert type(rep) is ClaimReport and rep.elapsed > 0
        grid += [tuple(rep), tuple(rep._replace(elapsed=0.0)), tuple(rep._replace(evidence=[]))]
    for new, old in _check_same_values(ClaimReport, _MutableClaimReport, grid):
        assert new._raw_body() == old._raw_body() and new.body() == old.body()
        for compact in (False, True):
            assert new.to_json(compact) == old.to_json(compact)


def test_sweep_config_matches_mutable_class():
    names = SweepConfig._fields
    assert names == tuple(sorted(set().union(*CLAIM_OPTIONS.values())))
    rng = random.Random(29)
    grid = [(None,) * len(names), tuple(range(len(names)))]
    grid += [tuple(rng.choice((None, 0, 1, rng.randint(-10, 10**6))) for _ in names)
             for _ in range(150)]
    _check_same_values(SweepConfig, _MutableSweepConfig, grid)
    for name in names:
        cfg = SweepConfig(**{name: 7})
        assert getattr(cfg, name) == 7 and cfg._replace(**{name: None}) == SweepConfig()
