"""Command-line front end.

Subcommands: cf, pell, tuple, pairs, verify.  All output is JSON with big
integers rendered as decimal strings.  Exit codes: 0 = success / claim
confirmed, 1 = claim violated, 2 = usage, input or output-file error, or a
contradiction found by the package's own cross-checks (a RuntimeError), or
a MemoryError; 141 (128 + SIGPIPE) = stdout's reader went away, with
nothing on stderr.  `cf` writes its document as it makes it, so when it
stops part-way (a MemoryError, a closed stdout) stdout holds a truncated
document.
The CLI owns its process, so it lifts CPython's limit on int-str
conversion: integers of any length are read and printed.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import islice

from .contfrac import QuadIrr, convergents, expand
from .harness import (CLAIM_OPTIONS, CLAIMS, CONFIRMED, SweepConfig, dump_json, run_claim,
                      write_json)
from .pellian import PellianProblem, solve_complete
from .zring import RingElem, check_tuple, find_admissible_pairs

_ELEM_RE = re.compile(r"^([+-]?\d+)(?:([+-]\d+)\*?w)?$")


def parse_elem(text: str, t: int) -> RingElem:
    """Parse 'a' or 'a+b*w' with w = sqrt(-t)."""
    m = _ELEM_RE.match(text.replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse ring element {text!r}")
    re_part = int(m.group(1))
    im_part = int(m.group(2)) if m.group(2) else 0
    return RingElem(re_part, im_part, t)


def cmd_cf(args) -> int:
    alpha = QuadIrr(args.d, args.s, args.t)
    exp = expand(alpha)
    # the convergents m = 0 .. max(j + L, 2)
    count = max(exp.preperiod_len + exp.period_len, 2) + 1
    # the rows go out as they are made, so memory holds one row, not a
    # document that can reach gigabytes
    write_json({
        "input": {"d": args.d, "s": args.s, "t": args.t},
        "preperiod": exp.quotients[:exp.preperiod_len],
        "period": exp.quotients[exp.preperiod_len:],
        "preperiod_len": exp.preperiod_len,
        "period_len": exp.period_len,
        "convergents": islice(convergents(a for a, _, _ in exp.terms()), count),
    }, args.json, sys.stdout.write)
    sys.stdout.write("\n")
    return 0


def cmd_pell(args) -> int:
    prob = PellianProblem(args.D, args.N)
    oc = solve_complete(prob)
    print(dump_json({
        "D": args.D,
        "N": args.N,
        "verdict": oc.verdict,
        "method": oc.method,
        "witnesses": [list(w) for w in oc.witnesses],
        "search_bound_used": oc.search_bound_used,
    }, args.json))
    return 0


def cmd_tuple(args) -> int:
    elems = [parse_elem(e, args.t) for e in args.elements]
    report = check_tuple(elems, args.n, args.t)
    print(dump_json({
        "elements": [str(e) for e in report.elements],
        "n": report.n,
        "t": report.t,
        "verified": report.verified,
        "witnesses": {f"{i},{j}": str(w) for (i, j), w in report.witnesses.items()},
        "failing_pair": list(report.failing_pair) if report.failing_pair else None,
    }, args.json))
    return 0


def cmd_pairs(args) -> int:
    found = find_admissible_pairs(args.limit)
    print(dump_json({"limit": args.limit,
                     "pairs": [{"p": p, "k": k, "q": q, "l_exp": l} for p, k, q, l in found]},
                    args.json))
    return 0


def cmd_verify(args) -> int:
    # sweep options default to None here, so the ones given are the ones set
    given = {name: getattr(args, name) for name in SweepConfig._fields
             if getattr(args, name) is not None}
    unread = [name for name in given if name not in CLAIM_OPTIONS[args.claim_id]]
    if unread:
        raise ValueError(f"{args.claim_id} does not read "
                         + ", ".join(_option(name) for name in unread))
    report = run_claim(args.claim_id, SweepConfig(**given))
    # under --jsonl the report's text is wanted only for --out
    text = report.to_json(compact=args.json) if args.out or not args.jsonl else None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.jsonl:
        for rec in report.evidence:
            print(dump_json(rec, compact=True))
        print(dump_json({"claim_id": report.claim_id, "status": report.status}, compact=True))
    else:
        print(text)
    return 0 if report.status == CONFIRMED else 1


def _option(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: `verify --json` must not be read as `--jsonl`
    ap = argparse.ArgumentParser(prog="pelltuples", allow_abbrev=False)
    ap.add_argument("--json", action="store_true",
                    help="compact single-line JSON output")
    sub = ap.add_subparsers(dest="command", required=True)

    p_cf = sub.add_parser("cf", allow_abbrev=False, help="continued fraction of (s+sqrt(d))/t")
    p_cf.add_argument("d", type=int)
    p_cf.add_argument("s", type=int)
    p_cf.add_argument("t", type=int)
    p_cf.set_defaults(func=cmd_cf)

    p_pell = sub.add_parser("pell", allow_abbrev=False, help="decide x^2 - D*y^2 = N")
    p_pell.add_argument("D", type=int)
    p_pell.add_argument("N", type=int)
    p_pell.set_defaults(func=cmd_pell)

    p_tuple = sub.add_parser("tuple", allow_abbrev=False,
                             help="verify a D(n)-tuple in Z[sqrt(-t)]")
    p_tuple.add_argument("-n", type=int, required=True)
    p_tuple.add_argument("-t", type=int, default=0)
    p_tuple.add_argument("elements", nargs="+",
                         help="integers or 'a+b*w' with w=sqrt(-t)")
    p_tuple.set_defaults(func=cmd_tuple)

    p_pairs = sub.add_parser("pairs", allow_abbrev=False,
                             help="list (p,k,q,l) with 2p^k = q^(2^l)+1")
    p_pairs.add_argument("--limit", type=int, default=CLAIM_OPTIONS["pairs"]["limit"])
    p_pairs.set_defaults(func=cmd_pairs)

    p_verify = sub.add_parser("verify", allow_abbrev=False, help="run a claim sweep",
                              description="Each sweep option names the claims that read "
                                          "it, with the claim's default in parentheses.")
    p_verify.add_argument("claim_id", choices=sorted(CLAIMS))
    for name in SweepConfig._fields:
        readers = [f"{c} ({opts[name]})" for c, opts in sorted(CLAIM_OPTIONS.items())
                   if name in opts]
        p_verify.add_argument(_option(name), type=int, default=None,
                              help=f"read by {', '.join(readers)}")
    p_verify.add_argument("--out", type=str, default=None)
    p_verify.add_argument("--jsonl", action="store_true",
                          help="stream evidence records as JSON lines")
    p_verify.set_defaults(func=cmd_verify)
    return ap


#: the parser of every main() call, built by the first one rather than at
#: import, so that importing this module stays cheap
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if hasattr(sys, "set_int_max_str_digits"):  # CPython 3.10.7 and later
        sys.set_int_max_str_digits(0)
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        code = args.func(args)
        # a closed stdout shows here, not in the interpreter's last flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # quiet, as a writer killed by SIGPIPE is; stdout's file is pointed at
        # os.devnull, so that the interpreter's last flush meets no closed pipe
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):  # a stdout that is no file
            pass
        return 141
    except (ValueError, KeyError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
