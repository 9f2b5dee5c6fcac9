"""The NamedTuple records against the frozen dataclasses they replaced.

PellianProblem, PellianOutcome, FujitaCertificate, WorleyCandidate and
ExtensionData were frozen dataclasses.  Each oracle below is one of those
declarations, kept verbatim apart from its name; the tests check that the
NamedTuple keeps its fields, defaults, validation, equality, hash, repr,
copies and read-only attributes on seeded grids of values.
"""

import copy
import dataclasses
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from pelltuples.arith import is_perfect_square
from pelltuples.contfrac import QuadIrr, WorleyCandidate, expand, worley_candidates
from pelltuples.pellian import (
    FujitaCertificate,
    PellianOutcome,
    PellianProblem,
    decide_paper_equation,
    solve_complete,
)
from pelltuples.zring import ExtensionData, lemma3_extend_data


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
