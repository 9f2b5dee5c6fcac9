"""The mutant register: faults in src/pelltuples that named tests must catch.

Each record replaces `old`, which occurs exactly once in
`src/pelltuples/<file>`, by `new`; at least one of `tests` (pytest node ids,
relative to the repository root) must then fail.  `python tests/run_mutants.py
[NAME ...]` applies the mutants one at a time to a copy of src/ and runs their
tests.  `tests/test_mutants.py` checks, in the tier-1 suite, that every `old`
is still there and every test still exists, so a refactor that moves the code
or renames a test updates the register with it.  A change that shows its tests
can fail by running a mutant adds that mutant here.
"""
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


_PELLIAN = "tests/test_pellian.py::"
_ZRING = "tests/test_zring.py::"

MUTANTS = (
    # the paired class walk of _pqa_first_hit
    Mutant("pair-mirror-is-s_i-t_i", "pellian.py",
           "        mirror, t_a = (s, t_a), t\n",
           # (s_i, t_i) in place of (s_{i+1}, t_i); s_0 = z
           "        mirror, t_a, s_i = (s_i if quots_a[1:] else z, t_a), t, s\n",
           (_PELLIAN + "test_class_walk_without_hit_runs_one_period",
            _PELLIAN + "test_class_walk_paths")),
    Mutant("pair-meets-from-b-start", "pellian.py",
           "    quots_a, quots_b, t_a, state_b = [], [], q0, None\n",
           "    quots_a, quots_b, t_a, state_b = [], [], q0, (q0 - z, q0)\n",
           (_PELLIAN + "test_long_period_class_searches_pinned",
            _PELLIAN + "test_class_walk_paths")),
    Mutant("single-walk-settles-on-t-1-only", "pellian.py",
           "            quots.append(a)\n"
           "            if abs(t) == 1:\n",
           "            quots.append(a)\n"
           "            if t == 1:\n",
           (_PELLIAN + "test_class_walk_paths",)),
    Mutant("pair-settles-on-t-1-only", "pellian.py",
           "        if abs(t) == 1:\n"
           "            return _row_hit(q0, quots_a, s, t)\n"
           "        if abs(t_b) == 1:\n",
           "        if t == 1:\n"
           "            return _row_hit(q0, quots_a, s, t)\n"
           "        if t_b == 1:\n",
           (_PELLIAN + "test_class_walk_paths",)),
    # _generator_hit's settlement of the sign-free row's norm against m
    Mutant("hit-twisted-by-norm-1-unit", "pellian.py",
           "        unit = _negative_unit(d)\n",
           "        unit = pell_fundamental(d)\n",
           (_PELLIAN + "test_class_walk_paths",
            _PELLIAN + "test_class_search_matches_three_pass")),
    Mutant("hit-wrong-sign-even-period", "pellian.py",
           "        if unit is None:\n"
           "            return None\n",
           "        if unit is None:\n"
           "            return (g, q) if q > 0 else (-g, -q)\n",
           (_PELLIAN + "test_class_walk_paths",
            _PELLIAN + "test_class_search_matches_three_pass")),
    Mutant("hit-never-twisted", "pellian.py",
           "    if norm != m:\n",
           # the norm compared with |m| up to sign, so no row is ever turned
           "    if abs(norm) != abs(m):\n",
           (_PELLIAN + "test_sign_free_walk_matches_signed_oracle",
            _PELLIAN + "test_class_walk_paths")),
    # the splits of N built prime by prime
    Mutant("first-prime-splits-take-levels-e", "pellian.py",
           "                pj, own = p ** (e - 2 * h), levels[e - 2 * h]\n",
           # the roots mod p^e, not mod p^(e-2h), for every split f = p^h
           "                pj, own = p ** (e - 2 * h), levels[e - 2 * h] if q > 1 else levels[e]\n",
           (_PELLIAN + "test_prime_power_class_searches_pinned",
            _PELLIAN + "test_class_search_matches_three_pass")),
    # the real-pair criterion, v = x^2 or v = -t*y^2, in _root's im = 0 branch,
    # which decides every pair of two rational integers in check_tuple
    Mutant("root-accepts-negative-at-t-0", "zring.py",
           "        if t == 0:\n"
           "            return None\n",
           "        if t == 0:\n"
           "            return RingElem(0, 0, t)\n",
           (_ZRING + "test_sqrt_in_ring_examples",
            _ZRING + "test_check_tuple_matches_per_pair_route")),
    Mutant("root-drops-negative-check", "zring.py",
           "        return RingElem(0, y, t) if t * y * y == -re else None\n",
           "        return RingElem(0, y, t)\n",
           (_ZRING + "test_sqrt_in_ring_examples",
            _ZRING + "test_sqrt_in_ring_complete_small",
            _ZRING + "test_check_tuple_matches_per_pair_route")),
    Mutant("one-element-tuple-verified", "zring.py",
           "    if len(parts) < 2:\n",
           "    if not parts:\n",
           (_ZRING + "test_check_tuple_needs_two_elements",
            "tests/test_cli.py::test_tuple_of_fewer_than_two_elements_is_usage_error")),
    # prop_family's closed-form pair roots
    Mutant("prop-family-swaps-xj-yj", "zring.py",
           "((n, 0), (0, xj), (abs(w1), 0), (0, yj),",
           "((n, 0), (0, yj), (abs(w1), 0), (0, xj),",
           (_ZRING + "test_prop_family_reports_equal_check_tuple_on_the_ring_tuples_grid",)),
    Mutant("prop-family-w3-keeps-sign", "zring.py",
           "(abs(w2), 0), (0, abs(w3)))",
           "(abs(w2), 0), (0, w3))",
           (_ZRING + "test_prop_family_reports_equal_check_tuple_on_the_ring_tuples_grid",)),
    # the records
    Mutant("ring-elem-equals-tuple", "zring.py",
           "        if other.__class__ is not self.__class__:\n",
           "        if isinstance(other, tuple):\n"
           "            return (self.re, self.im, self.t) == other\n"
           "        if other.__class__ is not self.__class__:\n",
           ("tests/test_zring.py::test_ring_elem_value_semantics_match_frozen_class",)),
    Mutant("quad-irr-replace-unchecked", "contfrac.py",
           "    @classmethod\n"
           "    def _make(cls, iterable) -> QuadIrr:\n"
           "        # NamedTuple's _make, behind _replace, would skip __new__'s checks\n"
           "        return cls(*iterable)\n",
           "",
           ("tests/test_records.py::test_quad_irr_checks_every_route",)),
    Mutant("run-claim-drops-elapsed", "harness.py",
           "    return report._replace(elapsed=time.monotonic() - start)\n",
           "    return report\n",
           ("tests/test_records.py::test_claim_report_matches_mutable_class",)),
    Mutant("cli-keeps-int-str-limit", "cli.py",
           "        sys.set_int_max_str_digits(0)\n",
           "        pass\n",
           ("tests/test_cli.py::test_pell_prints_integers_past_the_int_str_limit",
            "tests/test_cli.py::test_pell_reads_integers_past_the_int_str_limit")),
)
