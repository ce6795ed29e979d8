"""Self-test of the benchmark's checkers: each must reject one corrupted result.

    python3 perfbench/selftest.py

For every workload a short op list is run once; every checker must pass
on the genuine outputs, and each entry of the workload's CORRUPTIONS,
applied to a copy, must make its own checker report a problem.  Exit
code 0 when all of that holds.
"""

from __future__ import annotations

import copy
import importlib
import sys

from common import fresh_package

WORKLOADS = ("bl_assoc", "completion", "parahoric_cli")


def selftest(name) -> list[str]:
    wl = importlib.import_module("wl_" + name)
    km = fresh_package()
    inp = wl.setup(km, seed=1, small=True)
    outs = [op() for op in inp.ops]
    ev = wl.evidence(km, inp)
    failures = []
    for check, fn in wl.CHECKS.items():
        problems = fn(km, inp, outs, ev)
        if problems:
            failures.append(f"{name}/{check} rejects genuine outputs: {problems[:3]}")
    if set(wl.CORRUPTIONS) != set(wl.CHECKS):
        failures.append(f"{name}: not every checker has a corruption")
    for check, corrupt in wl.CORRUPTIONS.items():
        bad_outs, bad_ev = list(outs), copy.deepcopy(ev)
        corrupt(km, inp, bad_outs, bad_ev)
        problems = wl.CHECKS[check](km, inp, bad_outs, bad_ev)
        verdict = "rejected" if problems else "ACCEPTED"
        print(f"{name}/{check}: corrupted result {verdict}" + (f" ({problems[0]})" if problems else ""))
        if not problems:
            failures.append(f"{name}/{check} accepts a corrupted result")
    return failures


def main() -> int:
    failures = [f for name in WORKLOADS for f in selftest(name)]
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
