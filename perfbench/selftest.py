"""Self-test of the benchmark at a tiny size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it checks that

- the last line of ``run.py``'s output is the result object, with every
  end-to-end metric (``--trace 0``) or every per-layer metric
  (``--trace 1``) under the name and unit ``BENCHMARK.json`` declares;
- a deliberately corrupted reference (``--corrupt-reference``) makes
  ``correct`` false and raises the failed count, which proves the
  correctness check compares results;

and that ``run.py`` exits with an error, printing no result, in a
directory that holds only the benchmark and no ``src/``.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import loads  # noqa: E402
import run  # noqa: E402

SECONDS = "1"


def _run(workload: str, *extra: str) -> subprocess.CompletedProcess:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", SECONDS,
               "--tiny", *extra]
    return subprocess.run(command, capture_output=True, text=True,
                          timeout=run.CHILD_TIMEOUT_S + 10)


def _result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def _declared(section: str) -> List[tuple]:
    """(name, unit) pairs that BENCHMARK.json declares for ``section``."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec[section]]


def _check_metrics(result: dict, declared: List[tuple]) -> None:
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == dict(declared), (
        f"metrics differ from BENCHMARK.json: {sorted(got.items())} "
        f"vs {sorted(declared)}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)), (name, value)
        assert not math.isnan(value), name


def check_workload(workload: str) -> None:
    plain = _result(_run(workload, "--trace", "0"))
    _check_metrics(plain, _declared("end_to_end"))
    assert plain["correct"], f"{workload}: wrong results at the seed"

    traced = _result(_run(workload, "--trace", "1"))
    _check_metrics(traced, _declared("per_layer"))

    corrupted = _result(_run(workload, "--trace", "0", "--corrupt-reference"))
    assert not corrupted["correct"], f"{workload}: corruption went unseen"
    plain_share = plain["failed"] / plain["attempted"]
    corrupted_share = corrupted["failed"] / corrupted["attempted"]
    assert corrupted_share > plain_share, (
        f"{workload}: failed share {corrupted_share} did not rise above "
        f"{plain_share}")
    ok = corrupted["metrics"]["ok_share"]["value"]
    assert ok < plain["metrics"]["ok_share"]["value"], (workload, ok)


def check_needs_sources() -> None:
    """Without ``src/`` the benchmark must fail and print no result."""
    bare = os.path.join(".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", "paper_programs", "--seed", "1",
             "--seconds", SECONDS, "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0, "ran without sources"
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures = 0
    checks = [(name, lambda name=name: check_workload(name))
              for name in loads.WORKLOADS]
    checks.append(("no sources", check_needs_sources))
    for name, check in checks:
        try:
            check()
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
