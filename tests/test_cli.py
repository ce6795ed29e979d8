import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import kmhecke
from kmhecke.cli import build_parser, main


@pytest.fixture()
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(
        json.dumps(
            {
                "gcm": [[2, -1], [-1, 2]],
                "rank_y": 2,
                "coroots": [[1, 0], [0, 1]],
                "roots": [[2, -1], [-1, 2]],
            }
        )
    )
    return str(path)


@pytest.fixture()
def mixed3_file(tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(json.dumps({"gcm": [[2, 0, -2], [0, 2, 0], [-5, 0, 2]]}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_mixed_matrix(capsys, mixed3_file):
    code, out, err = run(
        capsys, ["--format", "json", "classify", "--datum", mixed3_file]
    )
    assert code == 0 and err == ""
    assert json.loads(out) == [
        {"indices": [0, 2], "kind": "Indefinite"},
        {"indices": [1], "kind": "Finite"},
    ]


def test_weyl_orbit_table(capsys, a2_file):
    code, out, _ = run(capsys, ["weyl", "orbit", "--datum", a2_file, "--point", "1,1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["-1,-1", "-1,0", "0,-1", "0,1", "1,0", "1,1", "complete: True"]


def test_hecke_mul_quadratic(capsys, tmp_path, a2_file):
    h1 = tmp_path / "h1.json"
    h1.write_text(json.dumps([{"lambda": [0, 0], "word": [0], "coeff": [[[0], 1]]}]))
    code, out, _ = run(
        capsys, ["hecke", "mul", "--datum", a2_file, str(h1), str(h1)]
    )
    assert code == 0
    assert out.strip() == "1 + (-σ^-1 + σ)·H_1"


def test_byte_stability(capsys, a2_file):
    argv = ["--format", "json", "weyl", "orbit", "--datum", a2_file, "--point", "1,1"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_domain_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[2, -1], [0, 2]]))
    code, out, err = run(capsys, ["gcm", "validate", str(bad)])
    assert code == 2 and out == "" and "AsymmetricZero" in err


def test_budget_exit_code(capsys, a2_file):
    code, _, err = run(
        capsys,
        ["weyl", "words", "--datum", a2_file, "--word", "0,1,0", "--budget-words", "1"],
    )
    assert code == 3 and "budget" in err.lower()


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps([[2]])))
    code, out, _ = run(capsys, ["--format", "json", "gcm", "validate", "-"])
    assert code == 0 and json.loads(out) == {"ok": True, "rank": 1}


def test_dominant_and_bruhat(capsys, a2_file):
    code, out, _ = run(
        capsys,
        ["--format", "json", "weyl", "dominant", "--datum", a2_file, "--point=-1,-1"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "InTitsCone"
    assert data["dominant"] == [1, 1] and data["minimizer"] == [0, 1, 0]

    code, out, _ = run(
        capsys,
        ["weyl", "bruhat", "--datum", a2_file, "--left", "1", "--right", "0,1,0"],
    )
    assert code == 0 and out.strip() == "True"


def test_parahoric_cli(capsys, tmp_path):
    a1 = tmp_path / "a1.json"
    a1.write_text(json.dumps({"gcm": [[2]]}))
    code, out, _ = run(
        capsys,
        [
            "--format", "json", "parahoric", "coset",
            "--datum", str(a1), "--jzero", "0", "--point", "1", "--word", "",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["coset"]) == 4

    code, out, _ = run(
        capsys,
        [
            "parahoric", "product", "--datum", str(a1), "--jzero", "0",
            "--d1", '{"lambda": [0], "word": []}',
            "--d2", '{"lambda": [1], "word": []}',
        ],
    )
    assert code == 0 and out.strip() == "1 | e | 1"

    code, out, _ = run(capsys, ["parahoric", "treecount", "--length", "5"])
    assert code == 0 and out.strip() == "q^2·q'^2"


def test_hecke_commute_cli(capsys, a2_file):
    code, out, _ = run(
        capsys,
        ["hecke", "commute", "--datum", a2_file, "--index", "0", "--point", "1,1"],
    )
    assert code == 0
    assert out.strip() == "Z^(0,1)·H_1 + (-σ^-1 + σ)·Z^(1,1)"


def test_complete_mul_cli(capsys, tmp_path):
    a1 = tmp_path / "a1.json"
    a1.write_text(json.dumps({"gcm": [[2]]}))
    series = {
        "region": {"gens": [[0]], "height": 7, "require_tits": True},
        "certificate": {"gens": [[0]], "w_part": [[]], "dominant": False},
        "coeffs": [
            {"lambda": [-h], "word": [], "coeff": [[[0, 0], 1]]} for h in range(8)
        ],
        "in_bl_bar": False,
    }
    finite = {
        "region": None,
        "certificate": {"gens": [[0]], "w_part": [[]], "dominant": True},
        "coeffs": [
            {"lambda": [0], "word": [], "coeff": [[[0, 0], 1]]},
            {"lambda": [-1], "word": [], "coeff": [[[0, 0], -1]]},
        ],
        "in_bl_bar": False,
    }
    fa = tmp_path / "series.json"
    fb = tmp_path / "finite.json"
    fa.write_text(json.dumps(series))
    fb.write_text(json.dumps(finite))
    code, out, _ = run(
        capsys,
        [
            "complete", "mul", "--datum", str(a1), str(fa), str(fb),
            "--region-gens", "0", "--region-height", "6",
        ],
    )
    assert code == 0
    assert out.strip() == "0 | e | 1"
    # shrinking the known region below what the target needs must fail with exit 2
    series_small = dict(series)
    series_small["region"] = {"gens": [[0]], "height": 4, "require_tits": True}
    series_small["coeffs"] = series["coeffs"][:5]
    fa.write_text(json.dumps(series_small))
    code, _, err = run(
        capsys,
        [
            "complete", "mul", "--datum", str(a1), str(fa), str(fb),
            "--region-gens", "0", "--region-height", "6",
        ],
    )
    assert code == 2 and "InsufficientSource" in err


def test_complete_cli_round_trip(capsys, tmp_path, a2_file):
    fn = tmp_path / "efun.json"
    fn.write_text(json.dumps([{"lambda": [1, 1]}]))
    code, out, _ = run(
        capsys,
        [
            "--format", "json", "complete", "efun", "--datum", a2_file, str(fn),
            "--region-gens", "1,1", "--region-height", "3",
        ],
    )
    assert code == 0
    expanded = json.loads(out)
    el = tmp_path / "el.json"
    el.write_text(json.dumps(expanded))
    code, out, _ = run(
        capsys, ["complete", "center", "--datum", a2_file, str(el)]
    )
    assert code == 0 and out.strip().splitlines()[0] == "status: Inconclusive"

    fn2 = tmp_path / "efun2.json"
    fn2.write_text(json.dumps([{"lambda": [1, 1]}]))
    code, out, _ = run(
        capsys,
        [
            "--format", "json", "complete", "efun", "--datum", a2_file, str(fn2),
            "--region-gens", "1,1", "--region-height", "6",
        ],
    )
    el2 = tmp_path / "el2.json"
    el2.write_text(out)
    code, out, _ = run(capsys, ["complete", "center", "--datum", a2_file, str(el2)])
    assert code == 0 and out.strip().splitlines()[0] == "status: Central"


@pytest.mark.parametrize(
    "argv",
    [
        ["hecke", "commute", "--index", "7", "--point", "1,1"],
        ["hecke", "commute", "--index", "-1", "--point", "1,1"],
        ["parahoric", "coset", "--jzero", "5", "--point", "1,1"],
        ["parahoric", "coset", "--jzero", "0", "--point", "1,1", "--word", "4"],
    ],
)
def test_out_of_range_simple_index(capsys, a2_file, argv):
    code, out, err = run(capsys, argv[:2] + ["--datum", a2_file] + argv[2:])
    assert code == 2 and out == ""
    assert err.startswith("SimpleIndexOutOfRange: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["weyl", "dominant", "--point", "1,-2,7"],
        ["weyl", "orbit", "--point", "1,0,5"],
        ["weyl", "dominant", "--point", "1"],
    ],
)
def test_wrong_length_point(capsys, a2_file, argv):
    code, out, err = run(capsys, argv[:2] + ["--datum", a2_file] + argv[2:])
    assert code == 2 and out == ""
    assert err.startswith("PointLengthMismatch: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "data",
    [
        {"gcm": [[2, -1], [-1, 2]], "rank_y": 2, "coroots": [[1], [0, 1]], "roots": [[2, -1], [-1, 2]]},
        {"gcm": [[2, -1], [-1, 2]], "rank_y": 2, "coroots": [[1, 0], [0, 1]], "roots": [[2, -1]]},
        {"gcm": [[2]], "rank_y": 2, "coroots": [[2]], "roots": [[1]]},
        {"gcm": [[2]], "rank_y": 1, "coroots": [1], "roots": [[2]]},
        {"gcm": [[2]], "coroots": 5, "roots": [[2]]},
        {"gcm": [[2]], "coroots": [], "roots": []},
        {"gcm": [[2]], "rank_y": [1], "coroots": [[2]], "roots": [[1]]},
    ],
)
def test_custom_realization_wrong_shape(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["weyl", "dominant", "--datum", str(path), "--point", "1,1"])
    assert code == 2 and out == ""
    assert err.startswith("RealizationShape: ") and err.count("\n") == 1


def test_wrong_length_points_in_commute_and_region(capsys, tmp_path, a2_file):
    fn = tmp_path / "efun.json"
    fn.write_text(json.dumps([{"lambda": [1, 1]}]))
    for argv in (
        ["hecke", "commute", "--datum", a2_file, "--index", "0", "--point", "1,1,5"],
        ["complete", "efun", "--datum", a2_file, str(fn), "--region-gens", "1,1,7", "--region-height", "1"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("PointLengthMismatch: ") and err.count("\n") == 1


def test_wrong_length_lambda_in_element(capsys, tmp_path, a2_file):
    left = tmp_path / "left.json"
    left.write_text(json.dumps([{"lambda": [1, 2, 3, 4], "word": [], "coeff": [[[0], 1]]}]))
    right = tmp_path / "right.json"
    right.write_text(json.dumps([{"lambda": [0, 0], "word": [], "coeff": [[[0], 1]]}]))
    code, out, err = run(capsys, ["hecke", "mul", "--datum", a2_file, str(left), str(right)])
    assert code == 2 and out == ""
    assert err.startswith("PointLengthMismatch: ") and err.count("\n") == 1


@pytest.mark.parametrize("exps", [[1, 0, 0], [0, 0, 5], [1]])
def test_wrong_length_exponents_in_coefficient(capsys, tmp_path, exps):
    datum = tmp_path / "aff.json"
    datum.write_text(json.dumps({"gcm": [[2, -2], [-2, 2]]}))
    left = tmp_path / "left.json"
    left.write_text(json.dumps([{"lambda": [0, 0, 0], "word": [], "coeff": [[exps, 1]]}]))
    right = tmp_path / "right.json"
    right.write_text(json.dumps([{"lambda": [0, 0, 0], "word": [], "coeff": [[[0, 0], 1]]}]))
    code, out, err = run(capsys, ["hecke", "mul", "--datum", str(datum), str(left), str(right)])
    assert code == 2 and out == ""
    assert err.startswith("ExponentLengthMismatch: ") and err.count("\n") == 1


def _finite_factor(lam_entries, dominant=True):
    return {
        "region": None,
        "certificate": {"gens": [[1, 0]], "w_part": [[]], "dominant": dominant},
        "coeffs": [{"lambda": lam, "word": [], "coeff": [[[0], c]]} for lam, c in lam_entries],
        "in_bl_bar": False,
    }


def test_repeated_exponents_sum(capsys, tmp_path, a2_file):
    left = tmp_path / "left.json"
    left.write_text(json.dumps([{"lambda": [0, 0], "word": [], "coeff": [[[1], 1], [[1], 2]]}]))
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps([{"lambda": [0, 0], "word": [], "coeff": [[[0], 1]]}]))
    code, out, _ = run(capsys, ["hecke", "mul", "--datum", a2_file, str(left), str(unit)])
    assert code == 0 and out.strip() == "3·σ"


def test_repeated_truncated_entries_sum(capsys, tmp_path, a2_file):
    fin = tmp_path / "finite.json"
    fin.write_text(json.dumps(_finite_factor([([1, 0], 1), ([1, 0], 2)])))
    tunit = tmp_path / "tunit.json"
    tunit.write_text(json.dumps(_finite_factor([([0, 0], 1)])))
    code, out, _ = run(
        capsys,
        ["complete", "mul", "--datum", a2_file, str(fin), str(tunit),
         "--region-gens", "1,0", "--region-height", "0"],
    )
    assert code == 0 and out.strip() == "1,0 | e | 3"


@pytest.mark.parametrize(
    "command, payload",
    [
        ("hecke", [{"lambda": [1.7, 0], "word": [], "coeff": [[[0], 1]]}]),
        ("hecke", [{"lambda": [0, 0], "word": [0.0], "coeff": [[[0], 1]]}]),
        ("hecke", [{"lambda": [0, 0], "word": [], "coeff": [[[0], 1.5]]}]),
        ("hecke", [{"lambda": [0, 0], "word": [], "coeff": [[[True], 1]]}]),
        ("mul", _finite_factor([([1.5, 0], 1)])),
        ("center", _finite_factor([([1.5, 0], 1)])),
        ("center", _finite_factor([([1, 0], 1)], dominant="false")),
        ("center", {**_finite_factor([([1, 0], 1)]), "in_bl_bar": 0}),
        ("center", {**_finite_factor([([1, 0], 1)]), "region": {"gens": [[1, 0]], "height": 2.5}}),
        (
            "center",
            {**_finite_factor([([1, 0], 1)]),
             "region": {"gens": [[1, 0]], "height": 2, "require_tits": "no"}},
        ),
        ("center", {**_finite_factor([([1, 0], 1)]), "region": {"points": [[1, False]]}}),
        ("efun", [{"lambda": [1.5, 0]}]),
    ],
)
def test_non_integer_json_values_refused(capsys, tmp_path, a2_file, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    unit = tmp_path / "unit.json"
    if command == "hecke":
        unit.write_text(json.dumps([{"lambda": [0, 0], "word": [], "coeff": [[[0], 1]]}]))
        argv = ["hecke", "mul", "--datum", a2_file, str(path), str(unit)]
    elif command == "mul":
        unit.write_text(json.dumps(_finite_factor([([0, 0], 1)])))
        argv = ["complete", "mul", "--datum", a2_file, str(path), str(unit),
                "--region-gens", "1,0", "--region-height", "0"]
    elif command == "center":
        argv = ["complete", "center", "--datum", a2_file, str(path)]
    else:
        argv = ["complete", "efun", "--datum", a2_file, str(path),
                "--region-gens", "1,1", "--region-height", "1"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("InvalidJSONValue: ") and err.count("\n") == 1


def _unit_file(tmp_path):
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps([{"lambda": [0, 0], "word": [], "coeff": [[[0], 1]]}]))
    return str(unit)


@pytest.mark.parametrize(
    "command, payload",
    [
        ("hecke", [{"lambda": [0, 0], "word": [], "coeff": 5}]),
        ("hecke", {"lambda": [0, 0], "word": [], "coeff": [[[0], 1]]}),
        ("center", {**_finite_factor([([1, 0], 1)]), "certificate": {"gens": 5, "w_part": [[]]}}),
        ("product", {"lambda": 5, "word": []}),
        ("product", [1]),
        ("product", {"lambda": [1.5, 0], "word": []}),
    ],
)
def test_wrong_json_shape_refused(capsys, tmp_path, a2_file, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    if command == "hecke":
        argv = ["hecke", "mul", "--datum", a2_file, str(path), _unit_file(tmp_path)]
    elif command == "center":
        argv = ["complete", "center", "--datum", a2_file, str(path)]
    else:
        argv = ["parahoric", "product", "--datum", a2_file, "--jzero", "0",
                "--d1", json.dumps(payload), "--d2", json.dumps({"lambda": [1, 0], "word": []})]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("InvalidJSONValue: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "gcm, lam, exps",
    [
        ([[2]], [8388608], [0, 0]),  # 2^23, which used to print Z^(-8388608)
        ([[2, -2], [-2, 2]], [16777216, 0, 0], [0, 0]),  # 2^24, which used to print Z^(0,1,0)
    ],
)
def test_out_of_range_coordinates_refused(capsys, tmp_path, gcm, lam, exps):
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps({"gcm": gcm}))
    left = tmp_path / "left.json"
    left.write_text(json.dumps([{"lambda": lam, "word": [], "coeff": [[exps, 1]]}]))
    right = tmp_path / "right.json"
    right.write_text(json.dumps([{"lambda": [0] * len(lam), "word": [], "coeff": [[exps, 1]]}]))
    code, out, err = run(capsys, ["hecke", "mul", "--datum", str(datum), str(left), str(right)])
    assert code == 2 and out == ""
    assert err.startswith("CoordinateOutOfRange: ") and err.count("\n") == 1


def _term(lam, word=()):
    return [{"lambda": lam, "word": list(word), "coeff": [[[0, 0], 1]]}]


@pytest.mark.parametrize(
    "datum, left, right",
    [
        # each point fits a packed digit, but the product adds them; used to print Z^(-8388608)
        ({"gcm": [[2]]}, _term([8388607]), _term([1])),
        ({"gcm": [[2]]}, _term([1]), _term([8388607])),
        # used to print Z^(-8388608,1,0)
        ({"gcm": [[2, -2], [-2, 2]]}, _term([8388607, 0, 0]), _term([1, 0, 0])),
        # H_1 Z^(0,1) reflects to (-2^22 - 2, -1), and the shift by (-2^22, 0) carried:
        # used to print Z^(8388606,-2)·H_1 among the terms
        (
            {"gcm": [[2]], "rank_y": 2, "coroots": [[2097153, 1]], "roots": [[0, 2]]},
            _term([-4194304, 0], [0]),
            _term([0, 1]),
        ),
    ],
)
def test_sums_that_would_carry_refused(capsys, tmp_path, datum, left, right):
    paths = []
    for name, data in (("datum", datum), ("left", left), ("right", right)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(data))
    code, out, err = run(capsys, ["hecke", "mul", "--datum", *map(str, paths)])
    assert code == 2 and out == ""
    assert err.startswith("CoordinateOutOfRange: ") and err.count("\n") == 1


def test_exponent_sums_that_would_carry_refused(capsys, tmp_path):
    """Used to print σ1^-8388608·σ1': the product added the exponents 2^23 - 1 and 1."""
    left, right = tmp_path / "left.json", tmp_path / "right.json"
    left.write_text(json.dumps([{"lambda": [0], "word": [], "coeff": [[[8388607, 0], 1]]}]))
    right.write_text(json.dumps([{"lambda": [0], "word": [], "coeff": [[[1, 0], 1]]}]))
    code, out, err = run(capsys, ["hecke", "mul", "--datum", _golden("a1.json"), str(left), str(right)])
    assert code == 2 and out == ""
    assert err.startswith("CoordinateOutOfRange: ") and err.count("\n") == 1


def test_huge_commutation_window_exhausts_its_budget(capsys):
    """H_1 Z^(4194303) on A1 has a window of 8388606 terms; it is refused before any is built."""
    argv = ["hecke", "commute", "--datum", _golden("a1.json"), "--index", "0", "--point", "4194303"]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert "8388606 terms" in err and err.count("\n") == 1


_A2 = {"gcm": [[2, -1], [-1, 2]], "rank_y": 2, "coroots": [[1, 0], [0, 1]],
       "roots": [[2, -1], [-1, 2]]}
_TERM = {"lambda": [1, 0], "word": [0], "coeff": [[[1], 2]]}
# a well-formed input of each reader, into which arbitrary JSON is grafted
_VALID = {
    "hecke": [_TERM],
    "mul": {**_finite_factor([([1, 0], 1)]), "region": {"gens": [[1, 0]], "height": 1}},
    "center": {**_finite_factor([([1, 0], 1), ([0, 1], 1)]), "region": {"points": [[1, 0], [0, 1]]}},
    "efun": [{"lambda": [1, 1], "coeff": [[[0], 1]]}],
    "product": {"lambda": [1, 0], "word": [1]},
}
_KEYS = ("lambda", "word", "coeff", "coeffs", "region", "certificate", "in_bl_bar", "gens",
         "w_part", "dominant", "points", "height", "require_tits")
_ANY_JSON = st.recursive(
    st.integers(-2, 2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _grafted(draw, value):
    """`value` with one of its parts, or the whole, replaced by arbitrary JSON."""
    if isinstance(value, (list, dict)) and value and draw(st.booleans()):
        keys = list(range(len(value))) if isinstance(value, list) else sorted(value)
        key = draw(st.sampled_from(keys))
        out = list(value) if isinstance(value, list) else dict(value)
        out[key] = draw(_grafted(value[key]))
        return out
    return draw(_ANY_JSON)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_VALID)).flatmap(lambda c: st.tuples(st.just(c), _grafted(_VALID[c]))))
def test_arbitrary_json_shapes_exit_cleanly(case):
    command, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        datum, path, unit = (os.path.join(tmp, n) for n in ("a2.json", "in.json", "unit.json"))
        for name, data in ((datum, _A2), (path, payload), (unit, [_TERM])):
            with open(name, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        argv = {
            "hecke": ["hecke", "mul", "--datum", datum, path, unit],
            "mul": ["complete", "mul", "--datum", datum, path, path,
                    "--region-gens", "1,0", "--region-height", "1"],
            "center": ["complete", "center", "--datum", datum, path],
            "efun": ["complete", "efun", "--datum", datum, path,
                     "--region-gens", "1,1", "--region-height", "1"],
            "product": ["parahoric", "product", "--datum", datum, "--jzero", "0",
                        "--d1", json.dumps(payload), "--d2", '{"lambda": [1, 0], "word": []}'],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3)
    assert err.getvalue().count("\n") == (0 if code == 0 else 1)


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
FRESH_MAIN = "import sys; from kmhecke.cli import main; sys.exit(main(sys.argv[1:]))"


def _golden(name):
    return os.path.join(GOLDEN, name)


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_repeated_main_calls_match_fresh_processes(monkeypatch, tmp_path):
    """One process shares one parser across calls; each call still answers like a fresh process."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[2, -1], [0, 2]]))
    calls = [
        ["--format", "json", "classify", "--datum", _golden("mixed3.json")],
        ["weyl", "orbit", "--datum", _golden("a2.json")],  # argparse error: --point is required
        ["hecke", "mul", "--datum", _golden("aff.json"), _golden("aff_left.json"), _golden("aff_right.json")],
        ["gcm", "validate", str(bad)],
        ["--format", "yaml", "classify", "--datum", _golden("mixed3.json")],  # argparse error
        ["weyl", "--help"],
        ["parahoric", "treecount", "--length", "6", "--q", "2", "--qprime", "3"],
        ["--format", "json", "classify", "--datum", _golden("mixed3.json")],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    src = os.path.dirname(os.path.dirname(kmhecke.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    codes = set()
    for argv in calls:
        got = _in_process(argv)
        fresh = subprocess.run(
            [sys.executable, "-c", FRESH_MAIN, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.add(got[0])
    assert codes == {0, 2}
    assert build_parser() is build_parser()


def test_chained_products_refuse_what_the_windows_reach(capsys, tmp_path):
    """H_1 Z^(-1) has a term at Z^(1), above the right factor's one generator
    (-1), which is not dominant.  The product's certificate used to be that
    generator alone, so the next product read its Z^(1) coefficient as 0."""
    a1 = _golden("a1.json")
    code, out, _ = run(capsys, [
        "--format", "json", "complete", "mul", "--datum", a1,
        _golden("a1_h1.json"), _golden("a1_z_weak.json"), "--region-gens", "0", "--region-height", "1",
    ])
    assert code == 0
    product, unit = tmp_path / "product.json", tmp_path / "unit.json"
    product.write_text(out)
    unit.write_text(json.dumps({
        "region": None,
        "certificate": {"gens": [[0]], "w_part": [[]], "dominant": True},
        "coeffs": [{"lambda": [0], "word": [], "coeff": [[[0, 0], 1]]}],
    }))
    code, out, err = run(capsys, [
        "complete", "mul", "--datum", a1, str(product), str(unit), "--region-gens", "1", "--region-height", "0",
    ])
    assert code == 2 and out == ""
    assert err.startswith("InsufficientSource: ") and "(1,)" in err
