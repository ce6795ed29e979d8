"""Batch command-line surface over the library.

One binary with subcommand routing; inputs are JSON files (or stdin via
"-"), outputs are byte-stable for fixed inputs and flags.  Exit codes:
0 success, 2 domain errors, 3 budget exhaustion.  Diagnostics go to
stderr only.

`--format` is read in one place, `main`: subcommands compute, and `main`
renders only the chosen form (one compact JSON line, or table lines).
Nothing reaches stdout until that output is complete, so a failing
command leaves stdout empty.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

from .coeff_ring import LaurentPoly, param_ring_for
from .completed import (
    EFunction,
    Region,
    TruncatedElement,
    center_test,
    e_function_expand,
    mult_truncated,
    truncated_from_json,
)
from .errors import BudgetError, KacMoodyError, json_ints, json_value
from .hecke_bl import BLElement, commute_Hi_past_Z, mult_bl
from .parahoric import (
    CosetLabel,
    double_coset,
    face_type,
    nonspherical_failure_stream,
    parahoric_product,
    tree_orbit_size,
)
from .root_system import (
    classify_components,
    datum_from_json,
    datum_to_json,
    validate_gcm,
)
from .weyl import (
    DEFAULT_TITS_BUDGET,
    all_reduced_words,
    bruhat_leq,
    dominant_representative,
    element_from_word,
    height_drop,
    orbit_enumerate,
    weyl_to_json,
)

DEFAULT_ORBIT_CAP = 100_000
DEFAULT_WORD_CAP = 10_000
_INT = re.compile("-?[0-9]+")


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_datum(path: str):
    return datum_from_json(_read_json(path))


def _int(text: str) -> int:
    """One ASCII integer, `-?[0-9]+`: `int` would also read `1_0`, ` 1` and non-ASCII digits."""
    if _INT.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _count(text: str) -> int:
    """An integer >= 0, for counts, budgets and caps."""
    n = _int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"not a nonnegative integer: {text!r}")
    return n


def _point(text: str):
    """`1,0,-1`; the empty text is the empty point, and no entry may be empty."""
    return tuple(map(_int, text.split(","))) if text else ()


def _word(text: str):
    return () if text == "e" else _point(text)


def _points(text: str):
    """Points separated by `;`; the empty text is no point, and no part may be empty."""
    parts = text.split(";") if text else []
    if "" in parts:
        raise ValueError(f"empty point in {text!r}")
    return tuple(map(_point, parts))


def _region_from_args(args) -> Region:
    if args.region_gens is None:
        raise KacMoodyError("--region-gens is required for this command")
    return Region.cone(_points(args.region_gens), args.region_height)


def _text(seq, empty: str = "") -> str:
    """The text form of a point or word, `1,0,1`; `empty` stands for ()."""
    return ",".join(map(str, seq)) or empty


# --- subcommand handlers ---
# Each returns (payload, lines): the JSON payload, in canonical construction
# order, and a callable giving the table lines, so `main` renders one format.

def _cmd_gcm_validate(args):
    data = _read_json(args.file)
    matrix = data["gcm"] if isinstance(data, dict) else data
    gcm = validate_gcm(matrix)
    return {"ok": True, "rank": gcm.n}, lambda: [f"valid GCM of rank {gcm.n}"]


def _cmd_realize(args):
    datum = _load_datum(args.file)
    return datum_to_json(datum), lambda: [
        f"rank_y {datum.rank_y}",
        "coroots " + "; ".join(map(_text, datum.coroots)),
        "roots " + "; ".join(map(_text, datum.roots)),
    ]


def _cmd_classify(args):
    datum = _load_datum(args.datum)
    report = classify_components(datum)
    payload = [
        {
            "indices": list(c.indices),
            "kind": c.kind,
            **({"kernel": list(c.delta_coeffs)} if c.delta_coeffs else {}),
        }
        for c in report.components
    ]
    return payload, lambda: [
        f"component {list(c.indices)}: {c.kind}"
        + (f" kernel {list(c.delta_coeffs)}" if c.delta_coeffs else "")
        for c in report.components
    ]


def _cmd_weyl_orbit(args):
    datum = _load_datum(args.datum)
    res = orbit_enumerate(
        datum,
        _point(args.point),
        max_length=args.max_length,
        max_height_drop=args.max_height_drop,
        max_count=args.budget_orbit,
    )
    payload = {"points": [list(p) for p in res.points], "complete": res.complete}
    return payload, lambda: [*map(_text, res.points), f"complete: {res.complete}"]


def _cmd_weyl_dominant(args):
    datum = _load_datum(args.datum)
    rep = dominant_representative(datum, _point(args.point), budget=args.budget_tits)
    w = rep.minimizer
    payload = {
        "status": rep.status,
        "dominant": None if rep.dominant is None else list(rep.dominant),
        "minimizer": None if w is None else list(w.word),
    }

    def lines():
        yield f"status: {rep.status}"
        if rep.dominant is not None:
            yield f"dominant: {_text(rep.dominant)}"
            yield f"word: {_text(w.word)}"

    return payload, lines


def _cmd_weyl_bruhat(args):
    datum = _load_datum(args.datum)
    u = element_from_word(datum, _word(args.left))
    w = element_from_word(datum, _word(args.right))
    ans = bruhat_leq(u, w)
    return {"leq": ans}, lambda: [str(ans)]


def _cmd_weyl_words(args):
    datum = _load_datum(args.datum)
    w = element_from_word(datum, _word(args.word))
    words = sorted(all_reduced_words(w, cap=args.budget_words))
    return [list(x) for x in words], lambda: [_text(x, "e") for x in words]


def _cmd_hecke_mul(args):
    datum = _load_datum(args.datum)
    classes = param_ring_for(datum)
    a = BLElement.from_json(datum, classes, _read_json(args.left))
    b = BLElement.from_json(datum, classes, _read_json(args.right))
    prod = mult_bl(a, b)
    return prod.to_json(), lambda: [prod.render()]


def _cmd_hecke_commute(args):
    datum = _load_datum(args.datum)
    classes = param_ring_for(datum)
    res = commute_Hi_past_Z(datum, classes, args.index, _point(args.point))
    return res.to_json(), lambda: [res.render()]


def _cmd_complete_mul(args):
    datum = _load_datum(args.datum)
    classes = param_ring_for(datum)
    a = truncated_from_json(datum, classes, _read_json(args.left))
    b = truncated_from_json(datum, classes, _read_json(args.right))
    target = _region_from_args(args)
    res = mult_truncated(a, b, target, u_cap=args.u_cap)
    return res.to_json(), lambda: _truncated_lines(datum, res)


def _truncated_lines(datum, el: TruncatedElement):
    def key(item):
        (lam, w), _ = item
        drop = height_drop(datum, lam)
        return (-1 if drop is None else drop, lam, w.word)

    names = param_ring_for(datum).names()
    lines = [
        f"{_text(lam)} | {_text(w.word, 'e')} | {p.render(names)}"
        for (lam, w), p in sorted(el.coeffs.items(), key=key)
    ]
    return lines or ["0"]


def _cmd_complete_efun(args):
    datum = _load_datum(args.datum)
    classes = param_ring_for(datum)
    coeffs: dict = {}  # repeated weights add up
    for entry in json_value(_read_json(args.function), list, "an E-function"):
        entry = json_value(entry, dict, "an E-function term")
        lam = json_ints(entry["lambda"], "a point coordinate")
        c = LaurentPoly.from_json(classes.nclasses, entry.get("coeff", classes.one().to_json()))
        coeffs[lam] = coeffs.get(lam, classes.zero()) + c
    fun = EFunction(datum, classes, tuple(coeffs.items()))
    res = e_function_expand(fun, _region_from_args(args))
    return res.to_json(), lambda: _truncated_lines(datum, res)


def _cmd_complete_center(args):
    datum = _load_datum(args.datum)
    classes = param_ring_for(datum)
    a = truncated_from_json(datum, classes, _read_json(args.element))
    z_probes = None if args.probes is None else _points(args.probes)
    verdict = center_test(a, z_probes=z_probes, u_cap=args.u_cap)
    payload = {
        "status": verdict.status,
        "detail": verdict.detail,
        "probe": None if verdict.probe is None else verdict.probe.to_json(),
        "coordinate": None
        if verdict.coordinate is None
        else {
            "lambda": list(verdict.coordinate[0]),
            "word": list(verdict.coordinate[1].word),
        },
    }

    def lines():
        yield f"status: {verdict.status}"
        if verdict.detail:
            yield f"detail: {verdict.detail}"
        if verdict.probe is not None:
            yield f"probe: {verdict.probe.render()}"

    return payload, lines


def _cmd_parahoric_coset(args):
    datum = _load_datum(args.datum)
    face = face_type(datum, _word(args.jzero))
    label, pairs = double_coset(face, _point(args.point), element_from_word(datum, _word(args.word)))
    payload = {
        "label": label.to_json(),
        "coset": [{"lambda": list(p), "word": list(w.word)} for p, w in pairs],
    }
    return payload, lambda: [
        f"label: {_text(label.lam)} | {_text(label.word, 'e')}",
        *(f"{_text(p)} | {_text(w.word, 'e')}" for p, w in pairs),
    ]


def _coset_label(text: str) -> CosetLabel:
    data = json_value(json.loads(text), dict, "a coset label")
    lam = json_ints(data["lambda"], "a point coordinate")
    return CosetLabel(lam, json_ints(data["word"], "a word letter"))


def _cmd_parahoric_product(args):
    datum = _load_datum(args.datum)
    face = face_type(datum, _word(args.jzero))
    l1, l2 = (_coset_label(text) for text in (args.d1, args.d2))
    constants = parahoric_product(face, l1, l2)
    names = param_ring_for(datum).names()
    items = sorted(constants.items(), key=lambda kv: (kv[0].lam, kv[0].word))
    payload = {
        "d1": l1.to_json(),
        "d2": l2.to_json(),
        "constants": [
            {"label": lbl.to_json(), "coeff": poly.to_json()} for lbl, poly in items
        ],
    }
    return payload, lambda: [
        f"{_text(lbl.lam)} | {_text(lbl.word, 'e')} | {poly.render(names)}"
        for lbl, poly in items
    ]


def _cmd_parahoric_failure(args):
    datum = _load_datum(args.datum)
    face = face_type(datum, _word(args.jzero))
    stream = nonspherical_failure_stream(face, args.count)
    payload = {
        "witness": weyl_to_json(stream.witness),
        "face_point": list(stream.face_interior_point),
        "elements": [e.to_json() for e in stream.elements],
    }
    return payload, lambda: [
        f"witness: {_text(stream.witness.word, 'e')}",
        *(_text(e.point) for e in stream.elements),
    ]


def _cmd_parahoric_treecount(args):
    size = tree_orbit_size(args.length, args.q, args.qprime)
    if isinstance(size, int):
        return {"value": size}, lambda: [str(size)]
    return {"poly": size.to_json()}, lambda: [size.render(("q", "q'"))]


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(prog="kmhecke", description=__doc__)
    parser.add_argument("--format", choices=("table", "json"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_datum(p):
        p.add_argument("--datum", required=True, help="root datum JSON file or -")
        return p

    g = sub.add_parser("gcm").add_subparsers(dest="sub", required=True)
    v = g.add_parser("validate")
    v.add_argument("file")
    v.set_defaults(fn=_cmd_gcm_validate)

    r = sub.add_parser("realize")
    r.add_argument("file")
    r.set_defaults(fn=_cmd_realize)

    c = sub.add_parser("classify")
    with_datum(c)
    c.set_defaults(fn=_cmd_classify)

    w = sub.add_parser("weyl").add_subparsers(dest="sub", required=True)
    wo = with_datum(w.add_parser("orbit"))
    wo.add_argument("--point", required=True)
    wo.add_argument("--budget-orbit", type=_count, default=DEFAULT_ORBIT_CAP)
    wo.add_argument("--max-length", type=_count, default=None)
    wo.add_argument("--max-height-drop", type=_count, default=None)
    wo.set_defaults(fn=_cmd_weyl_orbit)
    wd = with_datum(w.add_parser("dominant"))
    wd.add_argument("--point", required=True)
    wd.add_argument("--budget-tits", type=_count, default=DEFAULT_TITS_BUDGET)
    wd.set_defaults(fn=_cmd_weyl_dominant)
    wb = with_datum(w.add_parser("bruhat"))
    wb.add_argument("--left", required=True)
    wb.add_argument("--right", required=True)
    wb.set_defaults(fn=_cmd_weyl_bruhat)
    ww = with_datum(w.add_parser("words"))
    ww.add_argument("--word", required=True)
    ww.add_argument("--budget-words", type=_count, default=DEFAULT_WORD_CAP)
    ww.set_defaults(fn=_cmd_weyl_words)

    h = sub.add_parser("hecke").add_subparsers(dest="sub", required=True)
    hm = with_datum(h.add_parser("mul"))
    hm.add_argument("left")
    hm.add_argument("right")
    hm.set_defaults(fn=_cmd_hecke_mul)
    hc = with_datum(h.add_parser("commute"))
    hc.add_argument("--index", type=_int, required=True)
    hc.add_argument("--point", required=True)
    hc.set_defaults(fn=_cmd_hecke_commute)

    k = sub.add_parser("complete").add_subparsers(dest="sub", required=True)
    km = with_datum(k.add_parser("mul"))
    km.add_argument("left")
    km.add_argument("right")
    km.add_argument("--region-gens", default=None)
    km.add_argument("--region-height", type=_count, default=0)
    km.add_argument("--u-cap", type=_count, default=8)
    km.set_defaults(fn=_cmd_complete_mul)
    ke = with_datum(k.add_parser("efun"))
    ke.add_argument("function")
    ke.add_argument("--region-gens", default=None)
    ke.add_argument("--region-height", type=_count, default=0)
    ke.set_defaults(fn=_cmd_complete_efun)
    kc = with_datum(k.add_parser("center"))
    kc.add_argument("element")
    kc.add_argument("--probes", default=None)
    kc.add_argument("--u-cap", type=_count, default=8)
    kc.set_defaults(fn=_cmd_complete_center)

    p = sub.add_parser("parahoric").add_subparsers(dest="sub", required=True)
    pc = with_datum(p.add_parser("coset"))
    pc.add_argument("--jzero", required=True)
    pc.add_argument("--point", required=True)
    pc.add_argument("--word", default="")
    pc.set_defaults(fn=_cmd_parahoric_coset)
    pp = with_datum(p.add_parser("product"))
    pp.add_argument("--jzero", required=True)
    pp.add_argument("--d1", required=True)
    pp.add_argument("--d2", required=True)
    pp.set_defaults(fn=_cmd_parahoric_product)
    pf = with_datum(p.add_parser("failure"))
    pf.add_argument("--jzero", required=True)
    pf.add_argument("--count", type=_count, required=True)
    pf.set_defaults(fn=_cmd_parahoric_failure)
    pt = p.add_parser("treecount")
    pt.add_argument("--length", type=_int, required=True)
    pt.add_argument("--q", type=_int, default=None)
    pt.add_argument("--qprime", type=_int, default=None)
    pt.set_defaults(fn=_cmd_parahoric_treecount)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, lines = args.fn(args)
        if args.format == "json":
            out = json.dumps(payload, separators=(",", ":")) + "\n"
        else:
            out = "".join(f"{line}\n" for line in lines())
        sys.stdout.write(out)
        return 0
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except KacMoodyError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, ValueError, OSError) as exc:
        print(f"ParseError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
