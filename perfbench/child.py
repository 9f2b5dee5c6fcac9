"""One cold pass of one workload, in the fresh interpreter run.py starts.

    python3 perfbench/child.py WORKLOAD SEED MODE SPAWN_TIME

MODE is `setup` (stop after set-up), `timed` or `traced`.  SPAWN_TIME is the
parent's time.perf_counter() just before it started this process; on Linux
that clock is CLOCK_MONOTONIC, shared by every process, so set-up time
covers interpreter start, `import pelltuples` and input generation.
Set-up time is scaled to reference speed by calibration slices (speed.py)
taken right after it; a pass times its own slices.
The checkout's src/ goes first on sys.path, so pelltuples comes from there.
Prints one JSON object on its last line of standard output.
"""
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv) -> int:
    workload, seed, mode, spawned = argv[0], int(argv[1]), argv[2], float(argv[3])
    sys.path.insert(0, str(SRC))
    import speed
    import workloads  # imports pelltuples

    wl = workloads.WORKLOADS[workload](seed)
    setup_s = time.perf_counter() - spawned
    result = {"setup_s": setup_s * speed.setup_scale(), "raw_setup_s": setup_s}
    if mode != "setup":
        recorder = None
        if mode == "traced":
            import tracer
            recorder = tracer.Recorder()
            recorder.install()
        result.update(workloads.run_pass(wl, recorder))
        if recorder is not None:
            result["layers"] = recorder.metrics()
            recorder.write_spans(ROOT / "perfbench" / "out" / f"spans-{workload}-seed{seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
