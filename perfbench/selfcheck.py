"""Quick self-check of the harness at toy sizes (about 15 s).

    python3 perfbench/selfcheck.py

Runs the "tiny" workload untraced and traced and confirms that the last line
holds correct/attempted/failed and every metric BENCHMARK.json names, with
its unit. Then runs the benchmark from a directory holding only
BENCHMARK.json and perfbench/, where it must fail without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(root: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", "tiny",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(ROOT, trace)
        if proc.returncode != 0:
            problems.append(f"trace={trace}: exit {proc.returncode}\n{proc.stderr}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"trace={trace}: keys {sorted(result)}")
        if result.get("correct") is not True:
            problems.append(f"trace={trace}: correct={result.get('correct')}\n{proc.stderr}")
        attempted, failed = result.get("attempted"), result.get("failed")
        if not (isinstance(attempted, int) and attempted >= 1 and isinstance(failed, int)
                and 0 <= failed <= attempted):
            problems.append(f"trace={trace}: attempted={attempted} failed={failed}")
        metrics = result.get("metrics", {})
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        if set(metrics) != set(wanted):
            problems.append(f"trace={trace}: metrics {sorted(set(metrics) ^ set(wanted))} "
                            f"differ from BENCHMARK.json {section}")
        for name, unit in wanted.items():
            got = metrics.get(name, {})
            if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                problems.append(f"trace={trace}: {name} reported as {got}")

    bare = ROOT / "perfbench" / "out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = run(bare, 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout!r}")

    for p in problems:
        print("FAIL:", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
