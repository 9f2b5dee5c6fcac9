"""Cold-start benchmark for pelltuples.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 1

Run from the repository root.  Workloads, metrics and bounds are listed in
BENCHMARK.json; the inputs, calls and checks are in workloads.py.

Every measured pass runs in a fresh interpreter (child.py), so the package's
lru_caches start cold, as they do for a `pelltuples` CLI user.  A pass is a
closed loop: one caller issues each call after the previous one returns.
With --trace 0 the run repeats timed passes, each after a set-up-only
interpreter, while the next one still fits in --seconds; it reports the
median set-up time, the mean pass time and percentiles of the call
latencies pooled over all passes.  With --trace 1 it alternates untraced and
traced passes the same way and reports the per-layer metrics (medians over
the traced passes) plus trace.overhead_s, the traced minus the untraced
median wall time.

Times are reported at reference speed.  A shared host can run the same
code 1.7 times slower for stretches of half a second to minutes, so each
pass samples the machine's speed with a fixed calibration slice every
50 ms and scales every call's time by the slices in and around it; each
set-up time is scaled by slices taken right after it (speed.py).  The
figures read as seconds on a machine that runs a slice in
speed.REF_SLICE_S.  The unscaled figures are printed too and kept in the
results file as raw_metrics; per-layer self times are unscaled.

Human-readable lines come first, including every failed call by case key;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Each run also writes a results file under
perfbench/results/ (or --out) with the machine, seed, commit and sample
counts.  The exit code is 0 when the run completed, whatever it measured.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
SPEC = ROOT / "BENCHMARK.json"
#: every workload's run must end within this many seconds
RUN_BUDGET_S = 170
#: set-up times per run; the median is reported
SETUP_SAMPLES = 9


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one child interpreter and return its result, with its own duration."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} pass of {workload}")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-s", str(CHILD), workload, str(seed), mode, repr(spawned)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{mode} pass of {workload} exceeded {timeout:.0f}s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}:\n{tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["child_s"] = time.perf_counter() - spawned
    return result


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Timed passes while the next one fits in `seconds`, each after a
    set-up-only interpreter, so set-up samples spread over the whole run."""
    start = time.perf_counter()
    passes, setups = [], []
    while True:
        setups.append(spawn(workload, seed, "setup", deadline))
        passes.append(spawn(workload, seed, "timed", deadline))
        setups.append(passes[-1])
        if time.perf_counter() - start + passes[-1]["child_s"] > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", deadline))
    return {"passes": passes, "setup_samples": [s["setup_s"] for s in setups],
            "metrics": end_to_end(passes, setups, ""),
            "raw_metrics": end_to_end(passes, setups, "raw_")}


def end_to_end(passes: list[dict], setups: list[dict], prefix: str) -> dict:
    """The end-to-end metrics from the scaled ("") or unscaled ("raw_") times."""
    # pass times are averaged and call latencies pooled over the run, so that
    # the figures integrate the machine's speed swings over all of --seconds
    walls = [p[prefix + "wall_s"] for p in passes]
    lat = sorted(x for p in passes for x in p[prefix + "lat_ms"])
    return {
        "setup_s": statistics.median(s[prefix + "setup_s"] for s in setups),
        "wall_s": statistics.fmean(walls),
        "cases_per_s": sum(p["calls"] - p["failed"] for p in passes) / sum(walls),
        "case_p50_ms": rank(lat, 0.5),
        "case_p90_ms": rank(lat, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed calls sit at the top as +inf."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def trace(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Untraced and traced passes in turn while the next pair fits in
    `seconds` (at least one pair); per-layer medians over the traced passes."""
    start = time.perf_counter()
    untraced, traced = [], []
    while True:
        untraced.append(spawn(workload, seed, "timed", deadline))
        traced.append(spawn(workload, seed, "traced", deadline))
        pair_s = untraced[-1]["child_s"] + traced[-1]["child_s"]
        if time.perf_counter() - start + pair_s > seconds:
            break
    layers = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
    layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in untraced))
    return {"passes": untraced + traced, "metrics": layers}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def summarize(workload: str, run: dict, units: dict[str, str]) -> dict:
    """Failures by case key (same inputs every pass) and the printed lines."""
    passes = run["passes"]
    failures = {}
    for p in passes:
        for f in p["failures"]:
            failures.setdefault(f["case"], f)
    calls = sum(p["calls"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if "setup_samples" in run:
        head = f"{len(passes)} timed passes, {len(run['setup_samples'])} set-up samples"
    else:
        head = f"{len(passes) // 2} untraced and {len(passes) // 2} traced passes"
    lines = [f"== {workload}: {head}, {passes[0]['calls']} calls per pass"]
    raw = run.get("raw_metrics", {})
    for name, value in run["metrics"].items():
        line = f"  {name} = {value:.6g} {units.get(name, '')}".rstrip()
        if name in raw:
            line += f"  (unscaled {raw[name]:.6g})"
        lines.append(line)
    lines.append(f"  calibration slice = {statistics.median(p['slice_median_s'] for p in passes):.4g}"
                 f" s median (reference {speed.REF_SLICE_S} s)")
    lines.append(f"  fail_frac = {failed / calls:.6g} ({failed} of {calls} calls)")
    for key, f in failures.items():
        lines.append(f"  FAILED {key}: {f['kind']}: {f['detail']}")
    return {
        "samples": {"passes": len(passes), "calls_per_pass": passes[0]["calls"],
                    "setup_samples": len(run.get("setup_samples", [])),
                    "pass_wall_s": [p["wall_s"] for p in passes],
                    "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
                    "pass_slices": [p["slices"] for p in passes],
                    "pass_slice_median_s": [p["slice_median_s"] for p in passes]},
        "attempted": calls,
        "failed": failed,
        "wrong": sum(p["wrong"] for p in passes),
        "fail_frac": failed / calls,
        "failures": list(failures.values()),
        "lines": lines,
    }


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="results file (default under perfbench/results/)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pelltuples").is_dir():
        print(f"error: no package source at {ROOT / 'src' / 'pelltuples'}", file=sys.stderr)
        return 2

    header = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "loadavg_at_start": os.getloadavg(), "seed": args.seed,
              "git_commit": git_commit(), "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "seconds": args.seconds, "trace": args.trace}
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    todo = names if args.workload == "all" else [args.workload]
    results, out_metrics = {}, {}
    try:
        for wl in todo:
            deadline = time.perf_counter() + RUN_BUDGET_S
            runs = []
            if args.trace == 0 or args.workload == "all":
                runs.append(("end_to_end", measure(wl, args.seed, args.seconds, deadline), e2e))
            if args.trace == 1:
                runs.append(("per_layer", trace(wl, args.seed, args.seconds, deadline), layer))
            for kind, run, units in runs:
                info = summarize(wl, run, units)
                print("\n".join(info.pop("lines")), flush=True)
                results.setdefault(wl, {})[kind] = {
                    **info, **{k: run[k] for k in ("metrics", "raw_metrics") if k in run}}
                missing = [n for n in units if n not in run["metrics"]]
                if missing and kind == "end_to_end":
                    raise BenchError(f"{wl} did not produce {missing}")
                prefix = f"{wl}." if args.workload == "all" else ""
                out_metrics.update({prefix + n: {"value": run["metrics"].get(n, 0), "unit": u}
                                    for n, u in units.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summaries = [kind for wl in results.values() for kind in wl.values()]
    doc = {"correct": all(s["wrong"] == 0 for s in summaries),
           "attempted": sum(s["attempted"] for s in summaries),
           "failed": sum(s["failed"] for s in summaries),
           "metrics": out_metrics}
    out = args.out or ROOT / "perfbench" / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({**header, "workloads": results, "result": doc}, indent=1) + "\n",
                   encoding="utf-8")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
