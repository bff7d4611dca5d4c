"""A fixed command-line chain of the motiontok pipeline, hashed file by file.

    python3 tools/cli_chain.py run --out chain-t1 --threads 1
    python3 tools/cli_chain.py run --out chain-t2 --threads 2
    python3 tools/cli_chain.py diff chain-t1/manifest.sha256 chain-t2/manifest.sha256 \
        --allow '*/eval/config.json'

`run` calls the CLI (`motiontok.cli.run`, the entry point minus its exit) for
gen-synth, then trains a tan, a tcn and a tcc encoder and runs build-lexicon,
tokenize, eval, detect, compose and sweep-k on each, all at `--seed 5` and the
given `--threads`. The config is the desk profile on a smaller corpus with
fewer epochs and a short K grid, written to `<out>/config.json`. Every file
under `<out>` (and the stdout of a command that prints one) is listed with
its sha256 in `<out>/manifest.sha256`, in `sha256sum` format.

`diff` compares two manifests and exits 1 if a file differs or is missing on
one side, unless its path matches an `--allow` pattern. eval's `config.json`
records the worker count, so it is the one file that differs between thread
counts; at the same thread count two trees should agree on every file.

The package is imported from `--src` (default: the `src/` directory of this
checkout), so one copy of this script can run the chain for another tree.
BLAS runs single-threaded, as the CLI asks of `--threads` > 1.
"""
from __future__ import annotations

import argparse
import contextlib
import fnmatch
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEED = 5
LOSSES = ("tan", "tcn", "tcc")
# desk profile, shrunk so the chain stays a CI step: 24 sequences of 256
# frames (19 train, 5 eval), 10 epochs, three lexicon sizes in the sweep
CONFIG = {
    "profile": "desk",
    "synth": {"sequences": 24, "primitives_per_sequence": 4},
    "train": {"epochs": 10, "warmup_epochs": 2},
    "metrics": {"sweep_k": [4, 8, 16]},
}


def chain_commands(out: Path) -> list[tuple[str, list[str]]]:
    """(label, CLI arguments after the global flags) in run order."""
    corpus = str(out / "corpus")
    steps = [("gen-synth", ["gen-synth", "--out", corpus])]
    for loss in LOSSES:
        d = out / loss
        ckpt, lex = str(d / "model.tan"), str(d / "lexicon.lex")
        inputs = ["--corpus", corpus, "--checkpoint", ckpt]
        steps += [
            (f"{loss}/train", ["train", "--corpus", corpus, "--out", ckpt, "--loss", loss]),
            (f"{loss}/build-lexicon", ["build-lexicon", *inputs, "--out", lex]),
            (f"{loss}/tokenize", ["tokenize", *inputs, "--lexicon", lex,
                                  "--out", str(d / "tokens.tsv")]),
            (f"{loss}/eval", ["eval", *inputs, "--lexicon", lex, "--out", str(d / "eval")]),
            (f"{loss}/detect", ["detect", *inputs, "--lexicon", lex,
                                "--out", str(d / "detect.tsv")]),
            (f"{loss}/compose", ["compose", *inputs, "--lexicon", lex,
                                 "--out", str(d / "compose.skseq")]),
            (f"{loss}/sweep-k", ["sweep-k", *inputs, "--out", str(d / "sweep.tsv")]),
        ]
    return steps


def write_manifest(out: Path) -> Path:
    manifest = out / "manifest.sha256"
    lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}"
             for p in sorted(out.rglob("*")) if p.is_file() and p != manifest]
    manifest.write_text("".join(line + "\n" for line in lines))
    return manifest


def run_chain(out: Path, threads: int, src: Path) -> Path:
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"error: --out {out} is not empty")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads BLAS
    sys.path.insert(0, str(src))
    from motiontok import cli

    print(f"motiontok from {Path(cli.__file__).parent}", file=sys.stderr)
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.json"
    config.write_text(json.dumps(CONFIG, sort_keys=True))
    for loss in LOSSES:
        (out / loss).mkdir()
    flags = ["--config", str(config), "--seed", str(SEED), "--threads", str(threads)]
    t_all = perf_counter()
    for label, args in chain_commands(out):
        t0 = perf_counter()
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            cli.run(flags + args)
        if printed.getvalue():
            (out / f"{label}.stdout").write_text(printed.getvalue())
        print(f"{label}: {perf_counter() - t0:.2f} s", file=sys.stderr)
    manifest = write_manifest(out)
    print(f"chain: {perf_counter() - t_all:.1f} s, "
          f"{len(manifest.read_text().splitlines())} files -> {manifest}", file=sys.stderr)
    return manifest


def read_manifest(path: Path) -> dict[str, str]:
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in path.read_text().splitlines())}


def diff_manifests(a: Path, b: Path, allow: list[str]) -> int:
    left, right = read_manifest(a), read_manifest(b)
    differ = 0
    for name in sorted(left.keys() | right.keys()):
        if left.get(name) == right.get(name):
            continue
        expected = any(fnmatch.fnmatch(name, pattern) for pattern in allow)
        state = ("only in " + str(a if name in left else b)
                 if name not in left or name not in right else "differs")
        print(f"{name}: {state}{' (allowed)' if expected else ''}")
        differ += not expected
    same = sum(left.get(name) == right.get(name) for name in left)
    print(f"{same} of {len(left.keys() | right.keys())} files identical, "
          f"{differ} unexpected differences")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run", help="run the chain and write its manifest")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory holding the motiontok package to run")
    p = sub.add_parser("diff", help="compare two manifests")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--allow", action="append", default=[],
                   help="glob of a path expected to differ (repeatable)")
    args = parser.parse_args(argv)
    if args.mode == "run":
        run_chain(args.out, args.threads, args.src)
        return 0
    return diff_manifests(args.a, args.b, args.allow)


if __name__ == "__main__":
    sys.exit(main())
