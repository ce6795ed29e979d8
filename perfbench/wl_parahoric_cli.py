"""parahoric_cli: structure-constant tables through the CLI, in-process.

One op is `kmhecke --format json parahoric product` run as
`cli.main([...])` with the root datum on stdin and stdout captured, for
every ordered pair of labels of four spherical faces: the full-W faces of
A2 and B2, the face {0} of affine A1 and the Iwahori face of affine A1.
The op list is fixed; the seed picks, for every label, which element of
its double coset is passed on the command line.  The coset sum, and so
the work, does not depend on that choice.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from types import SimpleNamespace

from common import build

# (datum, J_0, labels as (lambda, word)), all with trivial words except on
# the Iwahori face
FACES = (
    ("a2", (0, 1), [((0, 0), ()), ((1, 1), ()), ((2, 1), ()), ((1, 2), ())]),
    ("b2", (0, 1), [((0, 0), ()), ((1, 1), ()), ((1, 2), ())]),
    ("aff", (0,), [((0, 0, 0), ()), ((0, 0, 1), ()), ((1, 1, 0), ()), ((1, 1, 1), ()),
                   ((1, 0, 1), ()), ((2, 1, 1), ()), ((2, 2, 1), ()), ((0, 0, 2), ())]),
    ("aff", (), [((0, 0, 0), ()), ((0, 0, 1), (0,)), ((1, 1, 0), (1,)), ((1, 1, 1), ()),
                 ((1, 0, 1), (0,)), ((0, 1, 1), (1,))]),
)
SPECIALIZE_AT = (2, 3)


def _label_json(lam, word):
    return json.dumps({"lambda": list(lam), "word": list(word)}, separators=(",", ":"))


def setup(km, seed, small=False):
    rng = random.Random(seed)
    p = km.parahoric
    ops, tables = [], []
    for name, j_zero, labels in FACES:
        datum = build(km, name)
        face = p.face_type(datum, j_zero)
        datum_text = json.dumps(km.root_system.datum_to_json(datum))
        jzero = ",".join(map(str, j_zero))
        canon, given = [], []
        for lam, word in labels:
            label, pairs = p.double_coset(face, lam, km.weyl.element_from_word(datum, word))
            mu, x = rng.choice(pairs)
            canon.append(label)
            given.append(_label_json(mu, x.word))
        if small:
            canon, given = canon[:3], given[:3]
        table = SimpleNamespace(name=name, face=face, full=len(j_zero) == datum.n,
                                labels=canon, cells=[])
        for i, d1 in enumerate(given):
            for j, d2 in enumerate(given):
                argv = ["--format", "json", "parahoric", "product", "--datum", "-",
                        "--jzero", jzero, "--d1", d1, "--d2", d2]
                ops.append(_cli_op(km.cli, argv, datum_text))
                table.cells.append((i, j, len(ops) - 1))
        tables.append(table)
    return SimpleNamespace(ops=ops, tables=tables)


def _cli_op(cli, argv, stdin_text):
    def op():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), _stdin(stdin_text):
            code = cli.main(argv)
        return code, out.getvalue()
    return op


@contextlib.contextmanager
def _stdin(text):
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


def _constants(km, face, text):
    """{(lambda, word): LaurentPoly} from one product's JSON output."""
    n = km.coeff_ring.param_ring_for(face.datum).nclasses
    return {
        (tuple(c["label"]["lambda"]), tuple(c["label"]["word"])):
            km.coeff_ring.LaurentPoly.from_json(n, c["coeff"])
        for c in json.loads(text)["constants"]
    }


def evidence(km, inp):
    return {}


def _specialize(km, poly, q):
    """The constant at sigma^2 = q, or the error that prevents it."""
    try:
        return poly.eval_sq([q] * poly.nvars)
    except km.errors.KacMoodyError as exc:
        return exc


def _negative(km, consts):
    return any(
        isinstance(v, int) and v < 0
        for poly in consts.values()
        for v in (_specialize(km, poly, q) for q in SPECIALIZE_AT)
    )


def known_faults(km, inp, outs):
    """Ops that fail on every run because of a fault of the program.

    On the Iwahori face the coset sums are BL basis elements Z^mu H_x; off
    the dominant chamber these are not the double-coset basis, and four
    products of this table get structure constants that are negative at
    sigma^2 = 2 and 3, so they cannot count anything.  Those ops are
    reported as failed; the counts check covers every other op.
    """
    return {k for t, i, j, k, consts in _cells(km, inp, outs)
            if not t.face.j_zero and _negative(km, consts)}


def _cells(km, inp, outs):
    """Parsed constants of every successful op with exit code 0."""
    for t in inp.tables:
        for i, j, k in t.cells:
            if outs[k] is not None and outs[k][0] == 0:
                yield t, i, j, k, _constants(km, t.face, outs[k][1])


def check_exit(km, inp, outs, ev):
    return [f"op {k}: exit code {o[0]}" for k, o in enumerate(outs) if o is not None and o[0] != 0]


def check_unit(km, inp, outs, ev):
    bad = []
    for t, i, j, k, consts in _cells(km, inp, outs):
        if 0 not in (i, j):
            continue
        other = t.labels[j if i == 0 else i]
        one = km.coeff_ring.param_ring_for(t.face.datum).one()
        if consts != {(other.lam, other.word): one}:
            bad.append(f"op {k}: identity label is not a unit on {t.name}")
    return bad


def check_commutative(km, inp, outs, ev):
    bad = []
    for t in inp.tables:
        if not t.full:
            continue
        where = {(i, j): k for i, j, k in t.cells}
        for (i, j), k in where.items():
            k2 = where[(j, i)]
            if i < j and outs[k] is not None and outs[k2] is not None and \
                    _constants(km, t.face, outs[k][1]) != _constants(km, t.face, outs[k2][1]):
                bad.append(f"{t.name}: X_{i} X_{j} != X_{j} X_{i}")
    return bad


def check_counts(km, inp, outs, ev):
    bad = []
    skip = known_faults(km, inp, outs)
    for t, i, j, k, consts in _cells(km, inp, outs):
        if k in skip:
            continue
        for label, poly in consts.items():
            for q in SPECIALIZE_AT:
                value = _specialize(km, poly, q)
                if not isinstance(value, int) or value < 0:
                    bad.append(f"op {k}: constant at {label} is {value!r} at q = {q}")
    return bad


def check_rebuild(km, inp, outs, ev):
    """P_F * sum_D c_D X_D == X_{d1} X_{d2}, the right side by mult_bl."""
    p = km.parahoric
    bad = []
    sums = {}

    def coset_sum(face, lam, word):
        key = (face, lam, word)
        if key not in sums:
            sums[key] = p.coset_sum_of_label(face, p.CosetLabel(lam, word))
        return sums[key]

    for t, i, j, k, consts in _cells(km, inp, outs):
        face = t.face
        d1, d2 = t.labels[i], t.labels[j]
        rhs = km.hecke_bl.mult_bl(coset_sum(face, d1.lam, d1.word), coset_sum(face, d2.lam, d2.word))
        classes = km.coeff_ring.param_ring_for(face.datum)
        lhs = km.hecke_bl.BLElement.zero(face.datum, classes)
        for (lam, word), c in consts.items():
            lhs = lhs + coset_sum(face, lam, word).scale(c)
        if lhs.scale(p.poincare_polynomial(face)) != rhs:
            bad.append(f"op {k}: P_F sum c_D X_D != X_d1 X_d2 on {t.name}")
    return bad


CHECKS = {
    "exit": check_exit,
    "unit": check_unit,
    "commutative": check_commutative,
    "counts": check_counts,
    "rebuild": check_rebuild,
}


def _rewrite(outs, k, edit):
    code, text = outs[k]
    payload = json.loads(text)
    edit(payload)
    outs[k] = (code, json.dumps(payload))


def _corrupt_exit(km, inp, outs, ev):
    outs[0] = (2, outs[0][1])


def _corrupt_unit(km, inp, outs, ev):
    i, j, k = inp.tables[0].cells[1]  # X_e * X_1
    _rewrite(outs, k, lambda pl: pl["constants"][0].update(coeff=[[[2], 1]]))


def _corrupt_commutative(km, inp, outs, ev):
    k = next(k for i, j, k in inp.tables[0].cells if 0 < i < j)
    _rewrite(outs, k, lambda pl: pl["constants"][0]["coeff"].append([[2], 1]))


def _corrupt_counts(km, inp, outs, ev):
    i, j, k = inp.tables[0].cells[-1]
    _rewrite(outs, k, lambda pl: pl["constants"][0].update(coeff=[[[0], -1]]))


def _corrupt_rebuild(km, inp, outs, ev):
    i, j, k = inp.tables[0].cells[-1]
    _rewrite(outs, k, lambda pl: pl["constants"][0]["coeff"].append([[2], 1]))


CORRUPTIONS = {
    "exit": _corrupt_exit,
    "unit": _corrupt_unit,
    "commutative": _corrupt_commutative,
    "counts": _corrupt_counts,
    "rebuild": _corrupt_rebuild,
}
