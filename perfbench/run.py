"""Benchmark of the motiontok pipeline: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports the package from its
src/ directory. It repeats whole rounds of set-up and warm-up followed by the
chain gen-synth -> train -> build-lexicon -> tokenize -> eval -> detect ->
sweep-k for about --seconds (always at least one), checks the outputs, and
prints {"correct", "attempted", "failed", "metrics"} as the last line: the
end-to-end metrics (medians over rounds) with --trace 0, the per-layer metrics
from spans around the package's functions with --trace 1. Traces and the
per-layer table go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# single-threaded BLAS: the pipeline runs at threads=1 and the host is small
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# Every round sets up afresh and then runs the chain, so set-up samples spread
# over the run like the stage samples; runs with fewer rounds than MIN_SETUPS
# set up again at the end. Operations per round: the set-up plus the stages.
# The first round's outputs are checked in full, later rounds must reproduce
# them bit for bit.
MIN_SETUPS = 3
STAGES = ("train", "checkpoint", "lexicon", "tokenize", "eval", "detect", "compose", "sweep_k")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "motiontok" / "__init__.py").is_file():
        print(f"error: no motiontok package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import resource
    import shutil
    import statistics
    import traceback
    from time import perf_counter

    import chain
    import checks
    import trace

    workload = chain.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(chain.WORKLOADS)}", file=sys.stderr)
        return 2

    config = workload.config(args.seed)
    tag = f"{workload.name}-seed{args.seed}-{'traced' if args.trace else 'plain'}"
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    tracer = trace.Tracer()
    if args.trace:
        trace.install(tracer)
    attempted = failed = 0
    correct = True
    setup_times: list[float] = []
    rounds: list[dict[str, float]] = []
    first = None

    def set_up():
        nonlocal attempted
        attempted += 1
        with tracer.span("setup") as sp:
            corpus = chain.set_up(config, workload.frames, work, tracer)
        setup_times.append(sp.duration)
        return corpus

    try:
        started = perf_counter()
        while True:
            corpus, corpus_dir = set_up()
            attempted += len(STAGES)
            try:
                with tracer.span("round") as rs:
                    out = chain.run_round(config, corpus, corpus_dir, work, tracer)
            except Exception:
                traceback.print_exc()
                failed += len(STAGES)
            else:
                with tracer.span("checks"):
                    try:
                        if first is None:
                            first = checks.fingerprint(out)
                            checks.check_round(out, workload.loss_must_fall)
                        else:
                            checks.check_repeat(first, out)
                    except checks.CheckFailed as exc:
                        print(f"check failed: {exc}", file=sys.stderr)
                        correct = False
                rounds.append(chain.round_metrics(out))
                out = None  # the next round must not run beside this one's arrays
            elapsed = perf_counter() - started
            if elapsed + setup_times[-1] + rs.duration > args.seconds:
                break
        while len(setup_times) < MIN_SETUPS:
            set_up()
    finally:
        tracer.unwrap_all()
        shutil.rmtree(work, ignore_errors=True)
    if not rounds:
        print("error: no round completed", file=sys.stderr)
        return 1

    end_to_end = {"setup_s": statistics.median(setup_times)}
    for name in rounds[0]:
        end_to_end[name] = statistics.median(r[name] for r in rounds)
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        layers = trace.layer_metrics(tracer)
        metrics = {n: {"value": v, "unit": trace.PER_LAYER[n][0]} for n, v in layers.items()}
        tracer.dump(OUT / f"{tag}.trace.json",
                    {"workload": workload.name, "seed": args.seed, "rounds": len(rounds),
                     "end_to_end": end_to_end, "per_layer": layers})
        with open(OUT / f"{tag}.layers.tsv", "w") as fh:
            fh.write("# metric\tvalue\tunit\n")
            for name, value in layers.items():
                fh.write(f"{name}\t{value:.6g}\t{trace.PER_LAYER[name][0]}\n")
            fh.write("# span\tcalls\ttotal_s\tself_s\n")
            for name, calls, total, own in tracer.table():
                fh.write(f"{name}\t{calls}\t{total:.6f}\t{own:.6f}\n")
    else:
        metrics = {n: {"value": v, "unit": chain.END_TO_END[n][0]} for n, v in end_to_end.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
