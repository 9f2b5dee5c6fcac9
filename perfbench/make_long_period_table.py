"""Regenerate reference/long_period_d.json, the pool pell-wide draws D from.

    python3 perfbench/make_long_period_table.py

Lists every D in [WIDE_D_MIN, WIDE_D_MAX] for which the continued fraction
of sqrt(D) has a period in WIDE_PERIOD, as gaps: the first D, then the
differences.  Takes about 25 s.
"""
import json
import math
import sys
from itertools import pairwise
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (LONG_PERIOD_TABLE, WIDE_D_MAX, WIDE_D_MIN,  # noqa: E402
                       WIDE_PERIOD, cf_period)


def main() -> None:
    lo, hi = WIDE_PERIOD
    ds = [d for d in range(WIDE_D_MIN, WIDE_D_MAX + 1)
          if math.isqrt(d) ** 2 != d and lo <= cf_period(d, hi) <= hi]
    doc = {
        "regenerate": "python3 perfbench/make_long_period_table.py",
        "d_min": WIDE_D_MIN,
        "d_max": WIDE_D_MAX,
        "period": list(WIDE_PERIOD),
        "count": len(ds),
        "gaps": [ds[0]] + [b - a for a, b in pairwise(ds)],
    }
    LONG_PERIOD_TABLE.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {LONG_PERIOD_TABLE}: {len(ds)} D")


if __name__ == "__main__":
    main()
