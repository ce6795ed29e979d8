"""Alternating A/B runs of the benchmark: a parent revision against the working tree.

    python3 tools/ab.py HEAD~1 --seeds 4201-4210 --workdir ../ab \\
        --aa completion --claim completion:wall_s --out BENCH_orbit_verdict.json

The parent is extracted with `git archive PARENT_REV`, and the working
tree (uncommitted edits included) is copied beside it, both into
`--workdir`, never into the repository.  Each seed is one pair: for every
workload of `BENCHMARK.json` in turn, each side runs the benchmark's
command with `--workload W --seed S --seconds T --trace 0` in its own
tree, T being the benchmark's `run_seconds`.  The side that runs first
alternates from pair to pair.
`src/kmhecke/__pycache__` is deleted in the tree before every run, so each
run compiles the package from source alike.

`--aa W` adds an A/A arm on workload W: a second parent copy, extracted
the same way, that runs before, between and after the other two in turn
(`arm_order`), while they still alternate.  Its runs against the parent's
give each metric a noise floor: the ratio and the gap that two copies of
the same code show on this machine.  The floor is reporting, not a gate.

The output is the skeleton of a `BENCH_<label>.json` record, the label
taken from `--out`: per workload and metric the quartiles and runs of
each side, the ratio of the medians, the pairs the change won, and the gap
between the medians against the parent's interquartile range; with
`--claim W:M`, whether the change won at least 9 pairs in 10 with a gap
larger than that range.  Which way is better comes from `BENCHMARK.json`.
The fields `change` and `layer_moved` are left for the author.  The
script uses the standard library only, and is not part of tier-1 or CI;
`python3 -m doctest tools/ab.py` checks the order of the arms.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LOWER_IS_BETTER = {m["name"]: m["better"] == "lower" for m in SPEC["end_to_end"]}
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", ".bench_build"
)
WIN_SHARE = 0.9  # a claim needs the change better in at least this share of pairs


def parse_seeds(text: str) -> list[int]:
    """'4101-4110' or '1,3,7' (or a mix) as a list of seeds in order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def extract(rev: str, dest: Path) -> None:
    """The files of `rev` under `dest`, by `git archive`."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def arm_order(pair: int, aa: bool) -> list[str]:
    """The order in which the arms run in pair number `pair`, counted from 0.

    Parent and change swap places every pair.  The A/A arm goes first,
    second and third in turn, two pairs at each place, so that six pairs
    run all six orders and it precedes the parent in three of them.

    >>> [arm_order(k, False) for k in range(3)]
    [['parent', 'change'], ['change', 'parent'], ['parent', 'change']]
    >>> orders = [arm_order(k, True) for k in range(6)]
    >>> [o.index("parent") < o.index("change") for o in orders]
    [True, False, True, False, True, False]
    >>> [o.index("aa") for o in orders], len({tuple(o) for o in orders})
    ([0, 0, 1, 1, 2, 2], 6)
    >>> [o.index("aa") < o.index("parent") for o in orders]
    [True, True, False, True, False, False]
    """
    order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
    if aa:
        order.insert(pair // 2 % 3, "aa")
    return order


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The result line of one benchmark run in `tree`, after clearing its bytecode."""
    shutil.rmtree(tree / "src" / "kmhecke" / "__pycache__", ignore_errors=True)
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", f"{SPEC['run_seconds']:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4),
            "runs": [round(r, 4) for r in runs]}


def compare(base: list[float], other: list[float], lower: bool, side: str) -> dict:
    """`other` against `base` pair by pair and by medians; a positive gap favours `other`."""
    sign = 1 if lower else -1
    b, o = summary(base), summary(other)
    won = sum(sign * (y - x) < 0 for x, y in zip(base, other))
    return {
        "ratio_of_medians": round(o["median"] / b["median"], 4) if b["median"] else None,
        f"{side}_{'lower' if lower else 'higher'}_in_pairs": f"{won}/{len(base)}",
        "median_gap": round(sign * (b["median"] - o["median"]), 4),
    }


def report(results: dict, seeds: list[int], first: dict) -> dict:
    """The per-workload blocks of the record, from the result of every run."""
    out = {}
    for workload, arms in results.items():
        block = {
            "pairs": len(seeds),
            "seeds": seeds,
            "first_in_pair": first[workload],
            "all_correct": all(r["correct"] for runs in arms.values() for r in runs),
            "failed_of_attempted": {
                arm: f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
                for arm, runs in arms.items()
            },
            "metrics": {},
        }
        for metric in arms["parent"][0]["metrics"]:
            series = {arm: [r["metrics"][metric]["value"] for r in runs]
                      for arm, runs in arms.items()}
            lower = LOWER_IS_BETTER.get(metric, True)
            parent = summary(series["parent"])
            entry = {"parent": parent, "change": summary(series["change"]),
                     **compare(series["parent"], series["change"], lower, "change"),
                     "parent_iqr": round(parent["q3"] - parent["q1"], 4)}
            if "aa" in series:
                entry["aa"] = {"parent_copy": summary(series["aa"]),
                               **compare(series["parent"], series["aa"], lower, "copy")}
            block["metrics"][metric] = entry
        out[workload] = block
    return out


def claim_of(blocks: dict, workload: str, metric: str) -> dict:
    """The claim block: met when the change won 9 pairs in 10 by more than the parent's IQR."""
    entry = blocks[workload]["metrics"][metric]
    won_key = next(k for k in entry if k.startswith("change_") and k.endswith("_in_pairs"))
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": entry["parent"]["median"],
        "parent_iqr": entry["parent_iqr"],
        "change_median": entry["change"]["median"],
        "ratio_of_medians": entry["ratio_of_medians"],
        won_key: entry[won_key],
        "median_gap": entry["median_gap"],
        "met": int(entry[won_key].split("/")[0]) >= WIN_SHARE * blocks[workload]["pairs"]
        and entry["median_gap"] > entry["parent_iqr"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the parent revision, as git names it")
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 4101-4110")
    ap.add_argument("--aa", default="", help="workloads that get an A/A arm, comma-separated")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--workdir", type=Path, required=True, help="where to put the trees")
    ap.add_argument("--out", type=Path, required=True, help="the record, BENCH_<label>.json")
    args = ap.parse_args(argv)

    aa = [w for w in args.aa.split(",") if w]
    if not set(aa) <= set(WORKLOADS):
        ap.error(f"--aa takes workloads of {', '.join(WORKLOADS)}")
    claim = args.claim.split(":") if args.claim else None
    if claim and (len(claim) != 2 or claim[0] not in WORKLOADS or claim[1] not in LOWER_IS_BETTER):
        ap.error("--claim takes WORKLOAD:METRIC, an end-to-end metric of BENCHMARK.json")
    workdir = args.workdir.resolve()
    if ROOT == workdir or ROOT in workdir.parents:
        ap.error("--workdir must lie outside the repository")
    if workdir.exists() and any(workdir.iterdir()):
        ap.error("--workdir must be empty")

    trees = {"parent": workdir / "parent", "change": workdir / "change"}
    extract(args.parent, trees["parent"])
    shutil.copytree(ROOT, trees["change"], ignore=IGNORE)
    if aa:
        trees["aa"] = workdir / "parent_copy"
        extract(args.parent, trees["aa"])
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()

    results = {w: {arm: [] for arm in ["parent", "change"] + ["aa"] * (w in aa)}
               for w in WORKLOADS}
    first = {w: [] for w in WORKLOADS}
    for pair, seed in enumerate(args.seeds):
        for w in WORKLOADS:
            arms = arm_order(pair, w in aa)
            first[w].append(arms[0])
            for arm in arms:
                got = run_once(trees[arm], w, seed)
                results[w][arm].append(got)
                wall = got["metrics"]["wall_s"]["value"]
                print(f"pair {pair} seed {seed} {w} {arm}: wall_s {wall:.4f}", file=sys.stderr,
                      flush=True)

    blocks = report(results, args.seeds, first)
    record = {
        "label": args.out.stem.removeprefix("BENCH_"),
        "change": "",
        "layer_moved": "",
        "command": " ".join(SPEC["command"])
        + f" --workload W --seed S --seconds {SPEC['run_seconds']:g} --trace 0",
        "protocol": (
            f"{len(args.seeds)} pairs per workload, seeds {args.seeds[0]}-{args.seeds[-1]}; "
            f"the parent ({args.parent}) extracted with git archive and the change (the "
            f"working tree on {head}) copied, each into its own directory; parent and change "
            "swapped places from pair to pair, for each workload in turn; src/kmhecke/__pycache__ was deleted in the tree before every run; quartiles "
            "by statistics.quantiles(method='inclusive'); runs lists each run's value in seed "
            "order"
            + (f"; the A/A arm (aa) is a second git-archive copy of the parent, run first, "
               f"second and third in turn, two pairs at each place, on {', '.join(aa)}"
               if aa else "")
            + "; written by tools/ab.py"
        ),
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                   f"{platform.python_implementation()} {platform.python_version()}, one "
                   "process and one thread per run",
    }
    if claim:
        record["claim"] = claim_of(blocks, *claim)
    record["end_to_end"] = blocks
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
