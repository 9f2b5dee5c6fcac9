"""CLI behavior: parsing, exit codes, JSON output, report determinism."""

import hashlib
import inspect
import io
import json
import math
import os
import re
import resource
import select
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from pelltuples import cli, harness, pellian, zring
from pelltuples.cli import main, parse_elem
from pelltuples.contfrac import QuadIrr, convergents, expand
from pelltuples.harness import CLAIM_OPTIONS, SweepConfig, dump_json, run_claim
from pelltuples.zring import RingElem


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(autouse=True)
def _restore_int_str_limit():
    # main() lifts CPython's int-str conversion limit for the whole process;
    # put it back so that no test after this one runs without it
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    yield
    if limit is not None:
        sys.set_int_max_str_digits(limit)


def test_parse_elem():
    assert parse_elem("5", 4) == RingElem(5, 0, 4)
    assert parse_elem("-3", 4) == RingElem(-3, 0, 4)
    assert parse_elem("1+2w", 4) == RingElem(1, 2, 4)
    assert parse_elem("1-2*w", 4) == RingElem(1, -2, 4)
    with pytest.raises(ValueError):
        parse_elem("w+1", 4)


def test_cf_sqrt10(capsys):
    code, out, _ = run(capsys, "cf", "10", "0", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["preperiod"] == ["3"]
    assert doc["period"] == ["6"]
    assert ["19", "6"] in doc["convergents"]


def _cf_grid():
    """(d, s, t) for every non-square d in 2..30, s in -3..3 and t in {±1, ±2, ±3}."""
    return [(d, s, t) for d in range(2, 31) if math.isqrt(d) ** 2 != d
            for s in range(-3, 4) for t in (-3, -2, -1, 1, 2, 3)]


#: SHA-256 of f"{rc}:{stdout}" of `--json cf d s t`, concatenated over _cf_grid()
CF_GRID_SHA256 = "97c70100936e3f68ae45da7442a5b34aa3a4238579d5074d224807ed3eb38b4e"


def test_cf_grid_pinned(capsys):
    h = hashlib.sha256()
    for d, s, t in _cf_grid():
        code, out, _ = run(capsys, "--json", "cf", str(d), str(s), str(t))
        h.update(f"{code}:{out}".encode())
    assert h.hexdigest() == CF_GRID_SHA256


def test_cf_convergents_are_prefix_values(capsys):
    # oracle: the m-th printed convergent is the value of [a_0; a_1, ..., a_m],
    # folded from the back in Fractions over the printed preperiod and period
    for d, s, t in _cf_grid():
        code, out, _ = run(capsys, "--json", "cf", str(d), str(s), str(t))
        assert code == 0
        doc = json.loads(out)
        pre = [int(a) for a in doc["preperiod"]]
        period = [int(a) for a in doc["period"]]
        for m, (p, q) in enumerate(doc["convergents"]):
            quots = [pre[i] if i < len(pre) else period[(i - len(pre)) % len(period)]
                     for i in range(m + 1)]
            value = Fraction(quots[-1])
            for a in reversed(quots[:-1]):
                value = a + 1 / value
            assert Fraction(int(p), int(q)) == value, (d, s, t, m)


def _cf_document(d, s, t, compact):
    """`cf`'s output as it was before it streamed its rows: one dump_json."""
    exp = expand(QuadIrr(d, s, t))
    count = max(exp.preperiod_len + exp.period_len, 2) + 1
    conv = islice(convergents(a for a, _, _ in exp.terms()), count)
    return dump_json({
        "input": {"d": d, "s": s, "t": t},
        "preperiod": exp.quotients[:exp.preperiod_len],
        "period": exp.quotients[exp.preperiod_len:],
        "preperiod_len": exp.preperiod_len,
        "period_len": exp.period_len,
        "convergents": [list(pq) for pq in conv],
    }, compact) + "\n"


def test_cf_streams_its_rows_byte_identical_to_the_whole_document(monkeypatch):
    # sqrt(9949) has period 217: rows of up to ~240 digits
    made = []  # the length of stdout as each row is made

    def counted(terms):
        for pq in convergents(terms):
            made.append(len(sys.stdout.getvalue()))
            yield pq

    monkeypatch.setattr(cli, "convergents", counted)
    for d, s, t in _cf_grid()[::5] + [(9949, 0, 1), (9949, 7, -3)]:
        for compact in (False, True):
            made.clear()
            monkeypatch.setattr(sys, "stdout", io.StringIO())
            argv = ["--json"] * compact + ["cf", str(d), str(s), str(t)]
            assert main(argv) == 0
            out = sys.stdout.getvalue()
            assert out == _cf_document(d, s, t, compact), (d, s, t, compact)
            # the head is out before the first row is made, and each row
            # before the next
            assert len(made) == len(json.loads(out)["convergents"])
            assert 0 < made[0] and all(a < b for a, b in zip(made, made[1:]))


def _cf_rows_then(error, rows):
    """A stand-in for cli.convergents that yields its first `rows` rows, then raises."""
    def failing(terms):
        yield from islice(convergents(terms), rows)
        raise error
    return failing


def test_cf_error_part_way_leaves_a_truncated_document(monkeypatch, capsys):
    # cf writes its document as it makes it: an error after three rows exits
    # 2 and leaves the head and those rows on stdout, which is not JSON
    exp = expand(QuadIrr(9949, 0, 1))
    rows = [list(pq) for pq in islice(convergents(a for a, _, _ in exp.terms()), 3)]
    full = _cf_document(9949, 0, 1, False)
    head = dump_json({**json.loads(full), "convergents": rows}, False)
    # the first "\n  ]" closes the array of rows
    truncated = head[:head.index("\n  ]")]
    monkeypatch.setattr(cli, "convergents", _cf_rows_then(MemoryError("out of rows"), 3))
    code, out, err = run(capsys, "cf", "9949", "0", "1")
    assert (code, out, err) == (2, truncated, "error: out of rows\n")
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)

    # a reader that goes away part-way: the write fails and cf exits 2
    class Closing(io.StringIO):
        def write(self, text):
            if self.tell() > len(truncated):
                raise BrokenPipeError(32, "Broken pipe")
            return super().write(text)

    monkeypatch.setattr(cli, "convergents", convergents)
    monkeypatch.setattr(sys, "stdout", Closing())
    assert main(["cf", "9949", "0", "1"]) == 2
    out = sys.stdout.getvalue()
    assert len(truncated) < len(out) < len(full) and full.startswith(out)
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_cf_huge_document_streams_in_bounded_memory():
    # sqrt(1000000006) has period 55,022: 55,023 convergents of up to ~28,400
    # digits, ~1.5 GB of JSON.  Its first 8 MB arrive within a second; the
    # process is killed long before its end.  Its address space is capped at
    # 1 GiB, so a run that builds the whole document fails fast and alone
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = [sys.executable, "-m", "pelltuples.cli", "cf", "1000000006", "0", "1"]
    got, peak = bytearray(), None
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          preexec_fn=cap, env={**os.environ, "PYTHONPATH": src}) as proc:
        try:
            deadline = time.monotonic() + 30
            while len(got) < 8 << 20 and (left := deadline - time.monotonic()) > 0:
                if select.select([proc.stdout], [], [], left)[0]:
                    chunk = os.read(proc.stdout.fileno(), 1 << 16)
                    if not chunk:
                        break
                    got += chunk
            status = Path(f"/proc/{proc.pid}/status")
            peak = re.search(r"VmHWM:\s*(\d+) kB", status.read_text()) if status.exists() else None
        finally:
            proc.kill()
    assert len(got) >= 8 << 20
    assert got.startswith(b'{\n  "convergents": [\n    [\n      "31622",\n      "1"\n    ],\n')
    # where the host reports it, the peak resident size is small
    assert peak is None or int(peak[1]) < 100 << 10


def test_cf_rejects_square_d(capsys):
    code, _, err = run(capsys, "cf", "9", "0", "1")
    assert code == 2
    assert err.strip()


def test_pell_solvable(capsys):
    code, out, _ = run(capsys, "pell", "10", "--", "-1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "SOLVABLE"
    assert ["3", "1"] in doc["witnesses"]


def test_pell_unsolvable(capsys):
    code, out, _ = run(capsys, "pell", "10", "--", "-3")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "UNSOLVABLE"
    assert doc["witnesses"] == []


def test_pell_17_minus8(capsys):
    code, out, _ = run(capsys, "pell", "17", "--", "-8")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "SOLVABLE"


def test_pell_large_prime_n(capsys):
    code, out, _ = run(capsys, "pell", "991", "--", "10000019")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "UNSOLVABLE"
    assert doc["method"] == "cf-classes"


def test_pell_obstructed_hard_n_is_never_factorized(capsys, monkeypatch):
    # N = 100000007 * 100000037 is beyond factorize's trial bound, but 13 | 65
    # and N is a non-residue mod 13, so the query is settled without it
    def no_factorize(n):
        raise AssertionError("factorize called")

    monkeypatch.setattr(pellian, "factorize", no_factorize)
    code, out, err = run(capsys, "pell", "65", "--", "10000004400000259")
    assert code == 0 and not err
    doc = json.loads(out)
    assert doc["verdict"] == "UNSOLVABLE" and doc["witnesses"] == []
    assert doc["method"] == "cf-classes"


def test_pell_prints_integers_past_the_int_str_limit(capsys):
    # the class bound has 14,197 digits, past CPython's default limit of 4,300
    # on int-str conversion, which main() lifts for its own process
    code, out, err = run(capsys, "--json", "pell", "1000000006", "1")
    assert code == 0 and not err
    doc = json.loads(out)
    assert doc["verdict"] == "SOLVABLE" and len(doc["search_bound_used"]) == 14_197


def test_pell_reads_integers_past_the_int_str_limit(capsys, monkeypatch):
    # N = 10^4400 + 1 = 2 (mod 3) has 4,401 digits; it is a non-residue mod
    # 3 | D, so the local exit settles the query without factorizing N
    def no_factorize(n):
        raise AssertionError("factorize called")

    monkeypatch.setattr(pellian, "factorize", no_factorize)
    n = "1" + "0" * 4399 + "1"
    code, out, err = run(capsys, "--json", "pell", "3", "--", n)
    assert code == 0 and not err
    doc = json.loads(out)
    assert doc["N"] == n and doc["verdict"] == "UNSOLVABLE" and doc["witnesses"] == []


def test_expansion_cap_is_usage_error(capsys):
    # sqrt(100000000006) has period 371,174: `cf` finds no period within the
    # walk's 100,000-term cap, and `pell` no centre of it for the Pell unit
    for argv in (("pell", "100000000006", "1"), ("cf", "100000000006", "0", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("error: no period within")


def test_fatal_cross_check_is_error_exit(capsys, monkeypatch):
    # a contradiction found by a cross-check is reported without a traceback
    cases = [
        # a class search that misses the p = 2 family's solutions contradicts
        # the paper-family route
        (pellian, "_cf_class_solutions", lambda d, n, factors: [], "p2-prop",
         "fatal discrepancy"),
        # the p = 2, even-k residue route rests on an obstruction mod 5
        (pellian, "_local_obstruction", lambda d, n: None, "p2-prop",
         "no local obstruction"),
        # a wrong Pell solution breaks prop_family's closed-form square witnesses
        (zring, "_pell_xy", lambda n, j: (2, 3), "prop26",
         "closed-form witnesses violated"),
    ]
    for module, name, fake, claim, message in cases:
        with monkeypatch.context() as m:
            m.setattr(module, name, fake)
            code, out, err = run(capsys, "verify", claim)
        assert code == 2 and not out, claim
        assert err.startswith(f"error: {message}") and "Traceback" not in err


def test_wrong_pell_unit_is_error_exit(capsys, monkeypatch):
    # pell_fundamental checks the norm of the unit it composes, since every
    # class bound rests on it; a wrong denominator is reported, not returned
    last_denominators = pellian.last_denominators

    def off_by_one(quotients):
        q1, q = last_denominators(quotients)
        return q1, q + 1

    monkeypatch.setattr(pellian, "last_denominators", off_by_one)
    with pytest.raises(RuntimeError, match="not a unit of norm 1"):
        pellian.pell_fundamental.__wrapped__(13)
    # bypass the memo, which may hold the true unit of 13
    monkeypatch.setattr(pellian, "pell_fundamental", pellian.pell_fundamental.__wrapped__)
    code, out, err = run(capsys, "pell", "13", "--", "-1")
    assert code == 2 and not out
    assert err.startswith("error: ") and "not a unit of norm 1" in err and "Traceback" not in err


def test_wrong_negative_unit_is_error_exit(capsys, monkeypatch):
    # the class search of x^2 - 13*y^2 = 1 meets the (f, 1) row of sqrt(13)'s
    # odd period with norm -1 and turns it by the unit of norm -1, which
    # _negative_unit checks; a Pell unit with a wrong u (and so a class bound
    # above ENUM_BOUND_LIMIT) makes that unit wrong.  The turn is made outside
    # the walk memo, which holds only the sign-free row
    true_unit = pellian.pell_fundamental
    monkeypatch.setattr(pellian, "pell_fundamental",
                        lambda d: pellian.PellUnit(649, 10**9) if d == 13 else true_unit(d))
    code, out, err = run(capsys, "pell", "13", "1")
    assert code == 2 and not out
    assert err.startswith("error: ") and "not a unit of norm -1" in err and "Traceback" not in err


def test_memory_limits_are_error_exits(capsys, monkeypatch):
    # a prime sieve past arith.SIEVE_LIMIT is refused before it allocates
    for argv in (("pairs", "--limit", "1000000000000"),
                 ("verify", "pairs", "--limit", "1000000000000"),
                 ("verify", "tm1", "--p-max", "1000000000000")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out, argv
        assert err.startswith("error: sieving the odd primes up to 1000000000000 takes "
                              "500,000,000,000 bytes") and "Traceback" not in err

    def exhausted(limit):
        raise MemoryError("cannot allocate the sieve")

    monkeypatch.setattr(cli, "find_admissible_pairs", exhausted)
    code, out, err = run(capsys, "pairs", "--limit", "50")
    assert (code, out, err) == (2, "", "error: cannot allocate the sieve\n")


def test_pell_rejects_square_d(capsys):
    code, _, err = run(capsys, "pell", "16", "3")
    assert code == 2


def test_tuple_fermat(capsys):
    code, out, _ = run(capsys, "tuple", "-n", "1", "-t", "0", "1", "3", "8", "120")
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True


def test_tuple_ring(capsys):
    code, out, _ = run(capsys, "tuple", "-n", "-1", "-t", "4", "1", "5", "-3", "65")
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_tuple_duplicate_is_usage_error(capsys):
    code, _, err = run(capsys, "tuple", "-n", "-1", "-t", "4", "1", "5", "-3", "1")
    assert code == 2
    assert "duplicate" in err.lower() or err.strip()


def test_tuple_of_fewer_than_two_elements_is_usage_error(capsys):
    # a one-element tuple has no pair: nothing is checked, so nothing is verified
    code, out, err = run(capsys, "tuple", "-n", "1", "5")
    assert code == 2 and not out
    assert err.startswith("error: a tuple needs at least two elements")


def test_tuple_parse_error(capsys):
    code, _, err = run(capsys, "tuple", "-n", "1", "-t", "0", "1", "3x", "8")
    assert code == 2


def test_pairs(capsys):
    code, out, _ = run(capsys, "--json", "pairs", "--limit", "50")
    assert code == 0
    doc = json.loads(out)
    got = {(int(r["p"]), int(r["k"]), int(r["q"]), int(r["l_exp"])) for r in doc["pairs"]}
    assert {(5, 1, 3, 1), (5, 2, 7, 1), (13, 4, 239, 1), (29, 2, 41, 1), (41, 1, 3, 2)} <= got


def test_verify_unknown_claim(capsys):
    # argparse rejects the choice itself and exits with the usage code.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-claim"])
    assert exc.value.code == 2


def test_verify_pairs_claim(capsys):
    code, out, _ = run(capsys, "--json", "verify", "pairs", "--limit", "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "CONFIRMED"
    assert doc["claim_id"] == "pairs"
    assert "elapsed" in doc["header"]


def test_verify_jsonl_output(capsys):
    code, out, _ = run(capsys, "verify", "tm-ii-2", "--jsonl")
    assert code == 0
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    assert lines[-1]["status"] == "CONFIRMED"
    assert len(lines) > 1


@pytest.mark.parametrize("claim_id", ["tm1", "prop26"])
def test_verify_jsonl_lines_are_the_body_records(capsys, claim_id):
    code, out, _ = run(capsys, "verify", claim_id, "--jsonl")
    assert code == 0
    body = run_claim(claim_id, SweepConfig()).body()
    assert out.splitlines() == [dump_json(rec, True) for rec in body["evidence"]] + [
        dump_json({"claim_id": claim_id, "status": body["status"]}, True)]


#: each document command's inputs: pell by enumeration and by the class search,
#: a cf with a preperiod, a tuple that fails and one with ring witnesses
STDOUT_INPUTS = {
    "pell": [("61", "1"), ("10", "--", "-1"), ("17", "--", "-8"), ("991", "--", "10000019")],
    "cf": [("61", "0", "1"), ("13", "-3", "2"), ("7", "2", "-3")],
    "tuple": [("-n", "1", "-t", "0", "1", "3", "8", "121"),
              ("-n", "-1", "-t", "4", "1", "5", "-3", "65")],
    "pairs": [("--limit", "50")],
    "verify": [("tm1",)],
}

#: SHA-256 of f"{rc}:{stdout}" over a command's inputs, indented and with --json,
#: with verify's header (elapsed, version) cut out
STDOUT_SHA256 = {
    ("cf", False): "6587c9d28213cd0eb489602a4dc389634c66a567d0d52205ccf0db60567f37c2",
    ("cf", True): "c8664f34e6b4b5982379cc9bce0a262ad60d19df8229a6bf1156649c68d94d7b",
    ("pairs", False): "dfa46b41470b288a872d99b1006c5d91420f3b292e862e0adf2221b5de2dfc9a",
    ("pairs", True): "6dc2c9ec499c14a5a97a61665079f4dd8f45a2b552ef05f3d372765919016ea1",
    ("pell", False): "ef26a075cdf13b4a0898d690d4e316300033656da346f870143fe443ccf13d52",
    ("pell", True): "0f96d3808ac590aa032a55aabcd4a248aa850bc1626c920625be19b99006369d",
    ("tuple", False): "4c5fb33683bf1ebf63b89a40692e58111939fffd6da0ce921f380d31e66da904",
    ("tuple", True): "3a7e045ff815066c6913a9510f2313eee7f61538b272f684993967cc69d3b1a7",
    ("verify", False): "7e9c99f0de17c42886989edffa212d9ac54d8418ef6d6b32dd712d5bf2632dc7",
    ("verify", True): "880373313b4633c35f2cb68f35f8abd0219f94da9e6d31f9d626df0cc85bd31e",
}
_HEADER = re.compile(r'"header": ?\{[^}]*\}')


@pytest.mark.parametrize("command, compact", sorted(STDOUT_SHA256))
def test_document_stdout_pinned(capsys, command, compact):
    h = hashlib.sha256()
    for args in STDOUT_INPUTS[command]:
        code, out, _ = run(capsys, *(["--json"] if compact else []), command, *args)
        h.update(f"{code}:{_HEADER.sub('', out)}".encode())
    assert h.hexdigest() == STDOUT_SHA256[command, compact]


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "--json", "verify", "pairs", "--limit", "50",
                     "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["status"] == "CONFIRMED"


def test_verify_renders_the_report_only_to_print_or_write_it(tmp_path, capsys, monkeypatch):
    calls = []
    to_json = harness.ClaimReport.to_json
    monkeypatch.setattr(harness.ClaimReport, "to_json",
                        lambda self, compact=False: calls.append(compact) or to_json(self, compact))
    target = str(tmp_path / "report.json")
    for argv, want in ((["--jsonl"], 0), (["--jsonl", "--out", target], 1), ([], 1)):
        calls.clear()
        code, _, _ = run(capsys, "verify", "tm1", *argv)
        assert code == 0 and len(calls) == want, (argv, calls)


def test_report_body_is_deterministic():
    cfg = SweepConfig(limit=50, samples=100, seed=3)
    a = run_claim("dubo", cfg)
    b = run_claim("dubo", cfg)
    assert a.body() == b.body()
    assert json.dumps(a.body(), sort_keys=True) == json.dumps(b.body(), sort_keys=True)


def test_report_ints_are_decimal_strings():
    cfg = SweepConfig(limit=10)
    rep = run_claim("pairs", cfg)

    def no_raw_ints(obj):
        if isinstance(obj, bool):
            return True
        if isinstance(obj, int):
            return False
        if isinstance(obj, dict):
            return all(no_raw_ints(v) for v in obj.values())
        if isinstance(obj, (list, tuple)):
            return all(no_raw_ints(v) for v in obj)
        return True

    assert no_raw_ints(rep.body()["evidence"])


def test_workers_merge_order_matches_serial():
    serial = run_claim("fujita", SweepConfig(limit=12, workers=1))
    parallel = run_claim("fujita", SweepConfig(limit=12, workers=4))
    assert serial.body() == parallel.body()


#: what the error names besides the options: at c_max = 10^4, b = 2*13^4 = 57122
#: has no third element c (the first is 56645), so no pair to check
EMPTY_SWEEP_NAMES = {("tm-ii-1-desk", "--c-max", "10000"): "b=57122"}


@pytest.mark.parametrize("argv", [
    ("tm1", "--k-max", "-1"),
    ("tm1", "--p-max", "2"),
    ("fujita", "--limit", "1"),
    ("tm-ii-1-desk", "--limit", "3"),
    ("dubo", "--samples", "0"),
    ("lemma3", "--samples", "-5"),
    ("fifumi-desk", "--c-max", "5"),
    ("fifumi-desk", "--c-max", "0"),
    ("tm-ii-1-desk", "--c-max", "0"),
    ("fujita", "--limit", "0"),
    ("pairs", "--limit", "0"),
    ("tm-ii-1-desk", "--limit", "0"),
    ("prop26", "--n-max", "0"),
    ("prop26", "--j-max", "0"),
    ("fujita", "--workers", "-4", "--limit", "3"),
    ("tm1", "--workers", "0"),
    ("pairs", "--limit", "4"),
    ("prop26", "--n-max", "1", "--j-max", "1"),
    ("tm-ii-1-desk", "--c-max", "10000"),
])
def test_verify_empty_sweep_is_usage_error(capsys, argv):
    # a sweep that checks nothing must not report CONFIRMED, and an explicit
    # 0 is not replaced by the default
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and not out
    assert err.startswith("error: ")
    for opt in argv[1::2]:
        assert opt[2:].replace("-", "_") in err
    assert EMPTY_SWEEP_NAMES.get(argv, "") in err


@pytest.mark.parametrize("argv", [
    ("pairs", "--limit", "40"),
    ("prop26", "--n-max", "2"),
])
def test_verify_small_sweep_checks_only_required_entries_in_range(capsys, argv):
    # (41, 1, 3, 2) lies beyond limit 40, and (1, 10, -8, 325) has n = 3 > 2
    code, out, _ = run(capsys, "--json", "verify", *argv)
    assert code == 0
    assert json.loads(out)["status"] == "CONFIRMED"


def _readme_cli_examples():
    """The `pelltuples ...` lines of the README's CLI block, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("pelltuples ")]


def test_readme_cli_examples_run(capsys):
    examples = _readme_cli_examples()
    assert len(examples) >= 5
    for argv in examples:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


@pytest.mark.parametrize("argv", [
    ("p2-prop", "--k-max", "-3"),
    ("worley", "--samples", "0"),
])
def test_verify_rejects_unread_option(capsys, argv):
    # an option the claim does not read would be silently ignored
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and argv[1] in err


@pytest.mark.parametrize("claim_id", ["fifumi-desk", "tm-ii-1-desk"])
def test_verify_quadruple_search_huge_c_max(capsys, claim_id):
    # the candidates c come off the Pell stream, O(log c_max) of them, where a
    # scan of every x <= isqrt(c_max - 1) would never end
    start = time.monotonic()
    code, out, _ = run(capsys, "--json", "verify", claim_id, "--c-max", "1" + "0" * 100)
    assert time.monotonic() - start < 10
    assert code == 0
    assert json.loads(out)["status"] == "CONFIRMED"


def test_verify_tm1_scaled(capsys):
    # the fatal check of every (p, k, l) runs on the class search, not on
    # enumeration of up to isqrt(p^(2l+1)) + 1 values of y
    start = time.monotonic()
    code, out, _ = run(capsys, "--json", "verify", "tm1", "--p-max", "1000", "--k-max", "5")
    assert time.monotonic() - start < 60
    assert code == 0
    assert json.loads(out)["status"] == "CONFIRMED"


def test_verify_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, _, err = run(capsys, "verify", "pairs", "--out", str(target))
    assert code == 2
    assert err.startswith("error: ")


def test_verify_options_are_not_abbreviated(capsys):
    # --json belongs before the subcommand; after it, it is not --jsonl
    with pytest.raises(SystemExit) as exc:
        main(["verify", "tm-ii-2", "--json"])
    assert exc.value.code == 2
    assert "--json" in capsys.readouterr().err


def test_verify_help_names_readers_with_defaults(capsys, monkeypatch):
    # the defaults come from the claim signatures, not from a copy in the CLI
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    for text in ("fujita (60)", "pairs (50)", "tm-ii-1-desk (50)"):
        assert text in out
    for claim_id, opts in CLAIM_OPTIONS.items():
        for default in opts.values():
            assert f"{claim_id} ({default})" in out


def test_cli_runs_no_signature_reflection():
    # claim options are each claim's __kwdefaults__, so neither the harness
    # nor the CLI holds inspect or any function of it
    for mod in (harness, cli):
        for name, value in vars(mod).items():
            assert value is not inspect, (mod.__name__, name)
            assert getattr(value, "__module__", None) != "inspect", (mod.__name__, name)


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    for argv in (("pell", "10", "--", "-3"), ("cf", "10", "0", "1"), ("verify", "pairs")):
        assert run(capsys, *argv)[0] == 0
    assert len(built) == 1


def test_parser_reuse_carries_no_state(capsys):
    # --json on one call does not stick to the next
    code, compact, _ = run(capsys, "--json", "pell", "10", "--", "-3")
    assert code == 0 and compact.count("\n") == 1
    code, indented, _ = run(capsys, "pell", "10", "--", "-3")
    assert code == 0 and indented.count("\n") > 1
    assert json.loads(compact) == json.loads(indented)
    # nor does a sweep option: the second tm1 runs at its defaults
    assert run(capsys, "verify", "tm1", "--p-max", "7")[0] == 0
    code, out, _ = run(capsys, "verify", "tm1")
    doc = json.loads(out)
    del doc["header"]
    assert code == 0
    assert dump_json(doc, compact=True) == \
        dump_json(run_claim("tm1", SweepConfig()).body(), compact=True)


def test_parser_survives_usage_error(capsys):
    assert run(capsys, "pell", "10", "--", "-1")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["pell", "10"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "pell", "10", "--", "-1")
    assert code == 0 and json.loads(out)["verdict"] == "SOLVABLE"
