"""Layered benchmark of kmhecke: one workload per run, one process, one thread.

    python3 perfbench/run.py --workload bl_assoc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run repeats rounds of the workload's fixed op list for about `--seconds`
seconds (at least three rounds).  Every round imports the package afresh,
so its process-global caches start empty, builds the inputs from the seed,
times each op, and then checks every output outside the timed region.
Before each round a fixed pure-Python probe loop is timed, and the round's
times are scaled to a machine on which that probe takes PROBE_REF_S.
The last line on stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of `layers.py` with `--trace 1`.  Exit code 0 when every
check passes, 1 when an output is wrong, 2 when the package is missing.
`--workload all` runs the three workloads one after another, each in its
own interpreter, prints each one's result line and then one combined line
whose metric names are prefixed with the workload.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import layers
from common import SRC, fresh_package

WORKLOADS = ("bl_assoc", "completion", "parahoric_cli")
MIN_ROUNDS = 3
TAIL_BEYOND = 10  # the tail percentile has this many ops above it
PROBE_REF_S = 0.010
PROBES_PER_ROUND = 5


def probe():
    """Fixed dict, tuple and integer work, like the engine's inner loops."""
    d = {}
    get = d.get
    for i in range(30_000):
        key = ((i * 2654435761) & 0x3FFF, i & 15)
        d[key] = get(key, 0) + i
    return len(d)


def time_probe():
    times = []
    for _ in range(PROBES_PER_ROUND):
        t = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t)
    return times


def tail(latencies):
    """The latency with exactly TAIL_BEYOND ops above it."""
    return sorted(latencies)[-TAIL_BEYOND - 1]


def run_round(wl, seed, trace):
    gc.collect()
    t0 = time.perf_counter()
    km = fresh_package()
    import_s = time.perf_counter() - t0
    inp = wl.setup(km, seed)
    setup_s = time.perf_counter() - t0
    tracer = None
    if trace:
        tracer = layers.Tracer()
        tracer.install(km)
    latencies, outs, errors = [], [], []
    start = time.perf_counter()
    for op in inp.ops:
        t = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # a failed op is counted, never retried
            out = None
            errors.append(f"op {len(outs)}: {exc!r}")
        latencies.append(time.perf_counter() - t)
        outs.append(out)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layer = None
    if tracer is not None:
        layer = {**tracer.snapshot(), **layers.cache_counters(km), "cli.import_s": import_s}
    ev = wl.evidence(km, inp)
    known = getattr(wl, "known_faults", None)
    if known is not None:
        errors += [f"op {k}: known fault of the program" for k in sorted(known(km, inp, outs))]
    problems = [
        f"{name}: {msg}" for name, check in wl.CHECKS.items() for msg in check(km, inp, outs, ev)
    ]
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies": latencies,
        "errors": errors,
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "layer": layer,
    }


def end_to_end(rounds, scaled=True):
    """Each op's latency is its median over the rounds of its scaled time.

    The op list and its work are the same in every round; the scaling takes
    out the speed of the shared machine at the time of the round, and the
    median the bursts within it.  wall_s sums these over the op list.
    """
    med = statistics.median

    def sc(r):
        return r["scale"] if scaled else 1.0

    per_op = [med(r["latencies"][k] * sc(r) for r in rounds)
              for k in range(len(rounds[0]["latencies"]))]
    return {
        "setup_s": (med(r["setup_s"] * sc(r) for r in rounds), "s"),
        "wall_s": (sum(per_op), "s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (tail(per_op) * 1e3, "ms"),
        # read after the first round's ops, before any check ran
        "peak_rss_mb": (rounds[0]["peak_rss_mb"], "MB"),
    }


def per_layer(rounds):
    """Counts of the first round (they repeat exactly); scaled times, median over rounds."""
    first = rounds[0]["layer"]
    out = {}
    for name, unit in layers.metric_units().items():
        if unit == "s":
            value = statistics.median(r["layer"][name] * r["scale"] for r in rounds)
        else:
            value = first[name]
            if any(r["layer"][name] != value for r in rounds[1:]):
                print(f"warning: {name} differs between rounds", file=sys.stderr)
        out[name] = (value, unit)
    return out


def run_all(args) -> int:
    """Every workload in a child interpreter of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "kmhecke")):
        print(f"kmhecke sources not found under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # a fixed hash seed makes every set and dict iterate alike in every run
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)
    if args.workload == "all":
        return run_all(args)

    wl = importlib.import_module("wl_" + args.workload)
    begin = time.perf_counter()
    rounds = []
    while True:
        scale = PROBE_REF_S / min(time_probe())
        t = time.perf_counter()
        rounds.append(dict(run_round(wl, args.seed, args.trace), scale=scale))
        last = time.perf_counter() - t
        r = rounds[-1]
        print(
            f"round {len(rounds)}: scale {scale:.3f}, setup {r['setup_s']:.3f} s, wall {r['wall_s']:.3f} s, "
            f"{len(r['latencies'])} ops, {len(r['errors'])} failed, {len(r['problems'])} wrong",
            file=sys.stderr,
        )
        elapsed = time.perf_counter() - begin
        if len(rounds) >= MIN_ROUNDS and elapsed + last > args.seconds:
            break

    problems = [p for r in rounds for p in r["problems"]]
    for msg in sorted(set(problems))[:20]:
        print(f"WRONG {msg}", file=sys.stderr)
    for msg in sorted({e for r in rounds for e in r["errors"]})[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"wall_s {end_to_end(rounds, scaled=False)['wall_s'][0]:.4f} s unscaled, "
          f"{end_to_end(rounds)['wall_s'][0]:.4f} s scaled{' (traced)' if args.trace else ''}",
          file=sys.stderr)
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds)
    result = {
        "correct": not problems,
        "attempted": sum(len(r["latencies"]) for r in rounds),
        "failed": sum(len(r["errors"]) for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
