"""CLI behavior: parsing, exit codes, JSON output, report determinism."""

import json
import time

import pytest

from pelltuples.cli import main, parse_elem
from pelltuples.harness import SweepConfig, run_claim
from pelltuples.zring import RingElem


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_expansion_cap_is_usage_error(capsys):
    # sqrt(100000000019) has no period within expand()'s 100,000-term cap
    for argv in (("pell", "100000000019", "1"), ("cf", "100000000019", "0", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("error: no period within")


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


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "--json", "verify", "pairs", "--limit", "50",
                     "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["status"] == "CONFIRMED"


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
])
def test_verify_empty_sweep_is_usage_error(capsys, argv):
    # a sweep that checks nothing must not report CONFIRMED
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and not out
    assert err.startswith("error: ")
    if "--c-max" in argv:
        assert "c_max" in err


@pytest.mark.parametrize("argv", [
    ("p2-prop", "--k-max", "-3"),
    ("worley", "--samples", "0"),
])
def test_verify_rejects_unread_option(capsys, argv):
    # an option the claim does not read would be silently ignored
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and argv[1] in err


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
