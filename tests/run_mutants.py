"""Run the mutant register: python tests/run_mutants.py [NAME ...]

Copies src/ to a temporary directory and, for each mutant named (all of
tests/mutants.py's when none is), applies it to the copy, runs only its
tests with `pytest -x -q` against the copy, and restores the file.  First
the same tests run once against the unchanged copy, which they must pass.
A mutant is killed when its tests fail and survives when they pass; pytest
ending any other way (a collection error, say) is an error.  Exits 0 when
every mutant is killed, 1 when one survives and 2 on an error.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def _pytest(src: Path, tests) -> int:
    """pytest's exit code for tests run against the package under src."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *tests]
    # the fresh interpreters that some tests start import the copy too
    env = {"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(cmd, cwd=ROOT, env={**os.environ, **env},
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        all_tests = sorted({t for m in chosen for t in m.tests})
        if _pytest(src, all_tests) != 0:
            print("the mutants' tests fail on the unchanged code", file=sys.stderr)
            return 2
        results = []
        for m in chosen:
            path = src / "pelltuples" / m.file
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"{m.name}: old text found {text.count(m.old)} times in {m.file}",
                      file=sys.stderr)
                return 2
            start = time.monotonic()
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                code = _pytest(src, m.tests)
            finally:
                path.write_text(text, encoding="utf-8")
            verdict = {1: "killed", 0: "SURVIVED"}.get(code, f"ERROR (pytest exit {code})")
            print(f"{m.name}: {verdict} ({time.monotonic() - start:.1f}s)")
            results.append(verdict)
    killed = results.count("killed")
    survived = results.count("SURVIVED")
    print(f"{killed} killed, {survived} survived, {len(results) - killed - survived} errors")
    if killed + survived < len(results):
        return 2
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
