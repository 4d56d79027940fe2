"""Benchmark of tempolm: three seeded closed-loop workloads, and a traced run per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--workload`` is ``pretrain``, ``ingest``, ``evaluate`` or ``all``; ``all``
runs each workload in its own process, so peak memory and warmed caches do
not leak from one workload into the next. The program under test is the
``tempolm`` package in the checkout's ``src/``, imported from source.

A run sets its workload up once, then runs rounds of the workload until
``--seconds`` of round time have passed, then checks the outputs. Between
rounds it sets the workload up again, into a state it throws away, as long as
set-up has taken less than 15 % of the round time so far, and at least
three times in all; ``setup_s`` is the median. The shared host's speed drifts
by tens of percent over seconds, so set-ups spread over the run see the same
host as the rounds do, where back-to-back set-ups at the start would see only
its first seconds. Each set-up and round starts after a full garbage
collection, so that no round pays for the garbage of the one before. Rates
are the work of all untraced rounds over their total time (``workloads.rate``).

With ``--trace 0`` the run reports the end-to-end metrics, measured without
any hooks. With ``--trace 1`` rounds 1 and 3 run with every layer wrapped
(see ``layers.py``) and the run reports the per-layer metrics of those two
rounds; the untraced rounds give the tracing overhead. Spans are written to
``perfbench/out/trace-<workload>-seed<n>.json``, and every result, with the
machine it ran on, to ``perfbench/out/result-<workload>-seed<n>[-trace].json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("pretrain", "ingest", "evaluate")
# set-up is repeated between rounds while it has taken less than this share
# of the round time, and at least SETUP_REPEATS times in all
SETUP_SHARE = 0.15
SETUP_REPEATS = 3
# a traced run wraps these rounds only, so its counts come from the same
# inputs on every run with the same seed; the rounds between are untraced
TRACED_ROUNDS = (1, 3)
# Sequences of at most 64 tokens at hidden size 96 give matrices too small for
# a second BLAS thread to help; one thread keeps the single caller from
# contending with itself.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "ops/s",
}


@dataclass
class Round:
    index: int
    seconds: float
    traced: bool
    ops: int
    failed: int
    data: dict = field(default_factory=dict)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from layers import install, layer_metrics
    from tracing import Tracer
    from workloads import WORKLOADS, rate

    clock = time.perf_counter
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    def set_up(where: Path):
        where.mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[name](seed, where)
        gc.collect()
        start = clock()
        workload.setup()
        setups.append(clock() - start)
        return workload

    try:
        setups: list[float] = []
        workload = set_up(workdir)
        tracer = Tracer() if trace else None
        rounds: list[Round] = []
        measured = 0.0
        while measured < seconds or (trace and len(rounds) <= max(TRACED_ROUNDS)):
            if sum(setups) < SETUP_SHARE * measured:
                set_up(workdir / f"setup-{len(setups)}")
            index = len(rounds)
            inputs = workload.inputs(index)
            traced = tracer is not None and index in TRACED_ROUNDS
            if traced:
                install(tracer)
            gc.collect()
            start = clock()
            try:
                out = workload.run(inputs)
            finally:
                elapsed = clock() - start
                if traced:
                    tracer.uninstall()
            data = workload.summarize(inputs, out, traced)
            data["done"] = out.ops - out.failed
            rounds.append(Round(index, elapsed, traced, out.ops, out.failed, data))
            measured += elapsed
        while len(setups) < SETUP_REPEATS:
            set_up(workdir / f"setup-{len(setups)}")
        problems, named = workload.finish(rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in rounds if not r.traced]
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "rounds": [{"index": r.index, "seconds": r.seconds, "traced": r.traced, "ops": r.ops, "failed": r.failed}
                   for r in rounds],
        "setup_runs_s": setups,
        "problems": problems,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_s": rate(rounds, "done"),
        },
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }
    if tracer is not None:
        traced = [r for r in rounds if r.traced]
        stats = [r.data["examples"] for r in traced]
        examples = None if any(s is None for s in stats) else {
            k: sum(s.get(k, 0) for s in stats) for k in set().union(*stats)}
        overhead = 100.0 * (statistics.median(r.seconds for r in traced)
                            / statistics.median(r.seconds for r in plain) - 1.0)
        result["per_layer"] = layer_metrics(tracer, len(traced), examples, overhead)
        result["missing"] = sorted(tracer.missing)
        tracer.write(OUT / f"trace-{name}-seed{seed}.json")
    return result


def report(result: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    from layers import PER_LAYER

    env = " ".join(f"{k}={v}" for k, v in result["environment"].items())
    print(f"# workload={result['workload']} seed={result['seed']} seconds={result['seconds']:g} "
          f"trace={result['trace']} {env}")
    rounds = result["rounds"]
    print(f"# rounds: {len(rounds)}, {sum(r['traced'] for r in rounds)} traced; "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"error_rate {result['failed'] / max(result['attempted'], 1):g}")
    for name, unit in END_TO_END.items():
        print(f"{name:<32} {result['end_to_end'][name]:>14.6g} {unit}")
    for name, entry in result["named"].items():
        value = entry["value"]
        shown = "missing" if value is None else (f"{value:>14.6g}" if isinstance(value, float) else value)
        print(f"{name:<32} {shown:>14} {entry['unit']}")
    if result["trace"]:
        for name, unit, *_ in PER_LAYER:
            value = result["per_layer"][name]
            print(f"{name:<32} {'missing' if value is None else format(value, '>14.6g'):>14} {unit}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(f"# checks: {'passed' if not result['problems'] else 'FAILED'}")

    if result["trace"]:
        units = {name: unit for name, unit, *_ in PER_LAYER}
        metrics = {name: {"value": value, "unit": units[name]} if value is not None
                   else {"value": None, "unit": units[name], "status": "missing"}
                   for name, value in result["per_layer"].items()}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": not result["problems"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "tempolm" / "__init__.py").is_file():
        print(f"no tempolm package under {src}: run from the root of a tempolm checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import tempolm

    if Path(tempolm.__file__).resolve().parent != src / "tempolm":
        print(f"imported tempolm from {tempolm.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    final = report(result)
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
