"""Regenerate reference/pell_grid.json, the pell-grid verdict table.

    python3 perfbench/make_pell_grid_table.py

For every non-square 2 <= D <= 200 and 0 < |N| <= 50 the mark is:

  S  a solution exists: N is a positive square (y = 0), or the oracle
     solve_brute(PellianProblem(D, N), min(class_bound(D, N), 10^6)) found one;
  U  the oracle scanned every y up to class_bound(D, N) <= 10^6 and found none;
  ?  class_bound(D, N) > 10^6 and the scan found nothing: the benchmark only
     substitutes the witnesses.

class_bound is the classical bound on the least y of each solution class, so
an empty scan up to it proves there is no solution.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import PELL_GRID_NS, PELL_GRID_TABLE, is_square  # noqa: E402
from pelltuples.pellian import PellianProblem, class_bound, solve_brute  # noqa: E402

SCAN_CAP = 10**6


def mark(d: int, n: int) -> str:
    if n > 0 and is_square(n):
        return "S"
    bound = class_bound(d, n)
    if solve_brute(PellianProblem(d, n), min(bound, SCAN_CAP)):
        return "S"
    return "U" if bound <= SCAN_CAP else "?"


def main() -> None:
    rows = {str(d): "".join(mark(d, n) for n in PELL_GRID_NS)
            for d in range(2, 201) if not is_square(d)}
    doc = {
        "oracle": "solve_brute(PellianProblem(D, N), min(class_bound(D, N), 10**6))",
        "regenerate": "python3 perfbench/make_pell_grid_table.py",
        "legend": {"S": "solvable", "U": "unsolvable", "?": "witnesses checked only"},
        "columns": "N = -50..-1, 1..50",
        "rows": rows,
    }
    PELL_GRID_TABLE.parent.mkdir(exist_ok=True)
    PELL_GRID_TABLE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    counts = {m: sum(r.count(m) for r in rows.values()) for m in "SU?"}
    print(f"wrote {PELL_GRID_TABLE}: {counts}")


if __name__ == "__main__":
    main()
