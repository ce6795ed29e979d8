"""Operator mutants of one module of the package, each judged by the tier-1 suite.

    python3 tools/mutants.py src/kmhecke/hecke_bl.py --sample 20 --seed 7 --workdir /tmp/mutants

A site is one operator that can flip: `<` and `<=`, `>` and `>=`, `==` and
`!=`, `in` and `not in` in a comparison, `+` and `-` in a binary or
augmented operation, `and` and `or` in a boolean guard; or a `not`, which
the mutant drops.  A mutant changes one site.  The sites are numbered in
the order `ast.walk` meets them, and `--sample k` takes
`random.Random(seed).sample` of them.

The repository is copied once into `--workdir`; every mutant is written
there, never into the repository.  The copy's tier-1 suite runs first on
the unmutated module and must pass.  Then each mutant runs it with `-x`,
and with Hypothesis's shrink phase off: a failing run (or one past
TIMEOUT_S) kills the mutant.  A mutant that passes is reported
`equivalent` when `tools/equivalent_mutants.json` lists its id with an
argument, and `survived` otherwise.  The last line on
stdout is one JSON object with the counts.  The harness uses the standard
library only, and is not part of tier-1 or CI: one mutant costs a full
tier-1 run.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = Path(__file__).resolve().parent / "equivalent_mutants.json"
FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or", ast.Not: "not",
}
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "-p", "_mutants_no_shrink"]
# Loaded into each run of the copy: a property that fails is reported without
# shrinking its example, which can take minutes and never changes the verdict.
NO_SHRINK = """from hypothesis import Phase, settings

settings.register_profile("no_shrink", phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("no_shrink")
"""
TIMEOUT_S = 600  # a mutant that loops is killed after this long
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


def _owners(tree):
    """Each node of `tree` mapped to the qualified name of the function or class around it."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}" if name else child.name
            owner[child] = inner or "<module>"
            visit(child, inner)

    visit(tree, "")
    return owner


def _slots(tree):
    """(node, index) of every site: index into a comparison's ops, or None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    yield node, k
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in FLIPS:
            yield node, None
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, None


def _op(node, k):
    return node.ops[k] if k is not None else node.op


def sites(path: Path):
    """One dict per site: its number, its line and a stable id.

    The id names the file, the owner, the source of the operation and the
    flip, and counts repeats, so it survives edits elsewhere in the file.
    """
    source = path.read_text()
    tree = ast.parse(source)
    owner = _owners(tree)
    out, seen = [], {}
    for n, (node, k) in enumerate(_slots(tree)):
        old = type(_op(node, k))
        segment = " ".join(ast.get_source_segment(source, node).split())
        flip = f"{SYMBOLS[old]} -> {SYMBOLS[FLIPS[old]]}" if old in FLIPS else f"drop {SYMBOLS[old]}"
        base = f"{path.name}::{owner.get(node, '<module>')}::{segment}::{flip}"
        seen[base] = seen.get(base, 0) + 1
        ident = base if seen[base] == 1 else f"{base}#{seen[base]}"
        out.append({"site": n, "line": node.lineno, "id": ident})
    return out


def _replace(tree, old, new):
    """Put `new` where `tree` holds the node `old`."""
    for parent in ast.walk(tree):
        for name, value in ast.iter_fields(parent):
            if isinstance(value, list):
                for k, v in enumerate(value):
                    if v is old:
                        value[k] = new
                        return
            elif value is old:
                setattr(parent, name, new)
                return


def mutate(source: str, site: int) -> str:
    """`source` with the operator of site number `site` flipped, or its `not` dropped.

    A boolean guard has a site at each `and`, `not in` and `not`:

    >>> guard = "skip = mu not in stored and not allowed"
    >>> for site in range(3):
    ...     print(mutate(guard, site), end="")
    skip = mu not in stored or not allowed
    skip = mu in stored and (not allowed)
    skip = mu not in stored and allowed
    """
    tree = ast.parse(source)
    for n, (node, k) in enumerate(_slots(tree)):
        if n == site:
            if isinstance(node, ast.UnaryOp):
                _replace(tree, node, node.operand)
                return ast.unparse(tree) + "\n"
            new = FLIPS[type(_op(node, k))]()
            if k is None:
                node.op = new
            else:
                node.ops[k] = new
            return ast.unparse(tree) + "\n"
    raise IndexError(f"no site {site}")


def tier1(workdir: Path) -> tuple[str, float]:
    """('pass' | 'fail' | 'timeout', seconds) of the tier-1 suite in `workdir`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(("src", ".")))
    t0 = time.perf_counter()
    try:
        done = subprocess.run(TIER1, cwd=workdir, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - t0
    return ("pass" if done.returncode == 0 else "fail"), time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="path of the module, relative to the repository root")
    parser.add_argument("--sample", type=int, help="how many sites to try (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workdir", type=Path, required=True, help="where to copy the repository")
    args = parser.parse_args(argv)

    rel = Path(args.module)
    found = sites(ROOT / rel)
    if args.sample is not None and args.sample < 0:
        parser.error("--sample must be at least 0")
    chosen = found
    if args.sample is not None and args.sample < len(found):
        chosen = random.Random(args.seed).sample(found, args.sample)
    equivalent = {e["id"] for e in json.loads(EQUIVALENT.read_text())}

    workdir = args.workdir.resolve()
    if ROOT == workdir or ROOT in workdir.parents:
        parser.error("--workdir must lie outside the repository")
    if workdir.exists() and any(workdir.iterdir()) and not (workdir / "_mutants_no_shrink.py").exists():
        parser.error("--workdir must be empty, or a copy this script made")
    shutil.rmtree(workdir, ignore_errors=True)
    shutil.copytree(ROOT, workdir, ignore=IGNORE)
    (workdir / "_mutants_no_shrink.py").write_text(NO_SHRINK)
    target = workdir / rel
    original = target.read_text()
    verdict, seconds = tier1(workdir)
    print(f"unmutated: {verdict} in {seconds:.0f} s", flush=True)
    if verdict != "pass":
        return 1

    counts = {"killed": 0, "survived": 0, "equivalent": 0}
    try:
        for s in chosen:
            target.write_text(mutate(original, s["site"]))
            verdict, seconds = tier1(workdir)
            if verdict == "pass":
                status = "equivalent" if s["id"] in equivalent else "survived"
            else:
                status = "killed"
            counts[status] += 1
            print(f"{status:10s} {rel}:{s['line']}  {s['id']}  ({verdict}, {seconds:.0f} s)", flush=True)
    finally:
        target.write_text(original)
    print(json.dumps({"module": str(rel), "sites": len(found), "tried": len(chosen), **counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
