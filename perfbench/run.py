"""The repository's benchmark: one command, every workload, one schema.

Run from the repository root::

    python3 perfbench/run.py --workload req_steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 2

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run (see
``perfbench/README.md``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 1 when a correctness check failed.  ``--workload all`` runs every
workload in turn, each in a process of its own (so that each reports its
own peak memory), and prefixes each metric with the workload's name.

The library is imported from ``src/`` next to this directory.  Digests
depend on string hashing, so the command re-executes itself once with
``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink cluster size and load (smoke tests use 0.1)",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="check pass instead of a timed run: strict virtual-synchrony "
             "sanitizer attached, no metrics",
    )
    parser.add_argument(
        "--fingerprint", action="store_true",
        help="also print the determinism fingerprint to standard error",
    )
    return parser.parse_args(argv)


def run_one(name, args):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](
        args.seed, args.seconds, scale=args.scale, digest=args.fingerprint
    )
    if args.sanitize:
        from workloads import Outcome

        errors = workload.run_sanitized()
        ops = workload.ops_due()
        return Outcome(errors=errors, attempted=len(ops), failed=sum(
            1 for op in ops if op.done is None or op.failed
        ))
    outcome = workload.run(trace=bool(args.trace))
    if args.trace and workload.tracer is not None:
        SPANS_DIR.mkdir(exist_ok=True)
        workload.tracer.write_spans(
            str(SPANS_DIR / f"{name}-seed{args.seed}.spans.json")
        )
    return outcome


def main(argv=None) -> int:
    args = parse(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"library sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    name = args.workload
    outcome = run_one(name, args)
    for error in outcome.errors:
        print(f"{name}: CHECK FAILED: {error}", file=sys.stderr)
    if args.fingerprint:
        print(f"{name}: fingerprint {json.dumps(outcome.fingerprint)}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0 if not outcome.errors else 1


def run_all(names, args) -> int:
    """Each workload in a child process with the same arguments; one
    merged result line."""
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--scale", str(args.scale)]
    common += ["--sanitize"] * args.sanitize
    common += ["--fingerprint"] * args.fingerprint
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, *common],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            correct = False
            continue
        result = json.loads(lines[-1])
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = value
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
