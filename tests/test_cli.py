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
from kmhecke import hecke_bl
from kmhecke.cli import build_parser, main
from kmhecke.coeff_ring import param_ring_for
from kmhecke.root_system import datum_from_json
from kmhecke.weyl import simple_reflection


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
        ["parahoric", "coset", "--jzero", "2", "--point", "1,1"],
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
        ["parahoric", "coset", "--jzero", "0", "--point", "1,1,5"],
        ["parahoric", "coset", "--jzero", "0", "--point", ""],
        ["parahoric", "product", "--jzero", "0",
         "--d1", '{"lambda": [1, 1, 7], "word": []}', "--d2", '{"lambda": [1, 1], "word": []}'],
        ["parahoric", "product", "--jzero", "0",
         "--d1", '{"lambda": [1, 1], "word": []}', "--d2", '{"lambda": [], "word": []}'],
    ],
)
def test_wrong_length_point(capsys, a2_file, argv):
    code, out, err = run(capsys, argv[:2] + ["--datum", a2_file] + argv[2:])
    assert code == 2 and out == ""
    assert err.startswith("PointLengthMismatch: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["parahoric", "coset", "--jzero", "0", "--point", "0,0,-1"],
        ["parahoric", "product", "--jzero", "0",
         "--d1", '{"lambda": [0, 0, -1], "word": []}', "--d2", '{"lambda": [0, 0, 0], "word": []}'],
    ],
)
def test_point_outside_the_tits_cone(capsys, argv):
    code, out, err = run(capsys, argv[:2] + ["--datum", _golden("aff.json")] + argv[2:])
    assert code == 2 and out == ""
    assert err == "OutsideTitsCone: point (0, 0, -1) lies outside the Tits cone Y+\n"


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


@pytest.mark.parametrize(
    "command, data",
    [
        (["realize"], [[2]]),  # used to raise TypeError: a datum file must be an object
        (["gcm", "validate"], [2, 2]),  # used to raise TypeError: rows must be lists
        (["classify", "--datum"], {"gcm": 2}),  # used to raise TypeError
        (["gcm", "validate"], [[2, -1.0], [-1, 2]]),  # used to be read as -1
        (["realize"], {"gcm": [["2"]]}),  # used to be read as 2
    ],
)
def test_malformed_matrices_refused(capsys, tmp_path, command, data):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, [*command, str(path)])
    assert code == 2 and out == ""
    assert err.startswith("InvalidJSONValue: ") and err.count("\n") == 1


def _term(lam, word=(), nclasses=2):
    return [{"lambda": lam, "word": list(word), "coeff": [[[0] * nclasses, 1]]}]


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
        # H_1 H_2 H_1 Z^mu on A2, with a third coordinate that the roots do not read: mu and its
        # first reflection fit, the reflection at the second letter reaches (0, 1, -2^22 - 1), and
        # the third letter brings every term of the product back into range
        (
            {"gcm": [[2, -1], [-1, 2]], "rank_y": 3, "coroots": [[1, 0, 1], [0, 1, -1]],
             "roots": [[2, -1, 0], [-1, 2, 0]]},
            _term([0, 0, 0], [0, 1, 0], nclasses=1),
            _term([-1, -1, -4194304], nclasses=1),
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


def _mul_points(capsys, tmp_path, datum, word, points):
    """`hecke mul` of H_word by Z^mu for each mu of `points`, as (code, stdout, stderr) triples."""
    paths = [tmp_path / name for name in ("datum.json", "left.json", "right.json")]
    paths[0].write_text(json.dumps(datum))
    paths[1].write_text(json.dumps(_term([0] * len(points[0]), word)))
    results = []
    for mu in points:
        paths[2].write_text(json.dumps(_term(mu)))
        results.append(run(capsys, ["hecke", "mul", "--datum", *map(str, paths)]))
    return results


def test_translates_with_equal_pairings_refused_by_their_own_points(capsys, tmp_path):
    """mu and mu + (1, 1, 0) pair to (2, -2) with the roots of affine A1, so H_1 Z^mu is read from
    one cached entry for both; its reflection mu - 2 alpha_1^v leaves the range from mu only."""
    refused, answered = _mul_points(
        capsys, tmp_path, {"gcm": [[2, -2], [-2, 2]]}, [0], [[-4194303, -4194304, 0], [-4194302, -4194303, 0]]
    )
    assert refused[0] == 2 and refused[1] == ""
    assert refused[2].startswith("CoordinateOutOfRange: ") and refused[2].count("\n") == 1
    assert answered == (0, "Z^(-4194304,-4194303,0)·H_1 + (-σ1^-1 + σ1)·Z^(-4194303,-4194303,0)"
                           " + (-σ1^-1 + σ1)·Z^(-4194302,-4194303,0)\n", "")


def test_point_out_of_range_refused_before_a_later_window_budget(capsys, tmp_path):
    """H_2 H_1 Z^mu on affine A1 with a fourth coordinate that only alpha_1^v moves, by 128.
    alpha_1(mu) = 2^15 + 1: the first reflection moves that coordinate by -(2^15 + 1) * 128, and the
    second letter meets a window of 2^16 + 3 terms.  From mu_4 = 0 the reflection leaves the range
    before the window is met, and the point is refused; from mu_4 = 2^21, with the same pairings,
    every point fits and the window exhausts its budget."""
    datum = {"gcm": [[2, -2], [-2, 2]], "rank_y": 4, "coroots": [[1, 0, 0, 128], [0, 1, 0, 0]],
             "roots": [[2, -2, 1, 0], [-2, 2, 1, 0]]}
    point, budget = _mul_points(capsys, tmp_path, datum, [1, 0], [[8192, 0, 16385, 0], [8192, 0, 16385, 2097152]])
    assert point[0] == 2 and point[1] == "" and point[2].startswith("CoordinateOutOfRange: ")
    assert budget[0] == 3 and budget[1] == "" and "65539 terms" in budget[2]


def test_chain_reaching_the_high_edge_answered_and_one_past_refused(capsys, tmp_path):
    """H_1 Z^mu with alpha_1(mu) = -2 reflects mu to mu + 2 alpha_1^v, whose first coordinate is
    mu_1 + 4194306.  From mu = (-3, -1) the chain reaches 2^22 - 1 exactly and the product is
    answered; from mu = (-2, -1) it reaches 2^22, one past the range, and is refused."""
    datum = {"gcm": [[2]], "rank_y": 2, "coroots": [[2097153, 1]], "roots": [[0, 2]]}
    answered, refused = _mul_points(capsys, tmp_path, datum, [0], [[-3, -1], [-2, -1]])
    assert answered == (0, "(σ1'^-1 - σ1')·Z^(2097150,0) + (σ1^-1 - σ1)·Z^(4194303,1)"
                           " + Z^(4194303,1)·H_1\n", "")
    assert refused == (2, "", "CoordinateOutOfRange: a commutation chain from (-2, -1) reaches entry 4194304, "
                              "outside -4194304..4194303\n")


def test_chain_one_past_the_edge_refused_at_the_slack_bound(capsys, tmp_path):
    """H_1 Z^mu with alpha_1(mu) = -2 reflects mu by 2 alpha_1^v = (4194304, 2), so the entry's box
    reaches 2^22.  From mu = (0, -1) the largest |mu_k| plus that reach is 2^22 + 1, and the
    reflection lands on 2^22, one past the range: `mult_bl` must run its box check and refuse.
    From mu = (-1, -1) the chain ends on 2^22 - 1 and is answered."""
    datum = {"gcm": [[2]], "rank_y": 2, "coroots": [[2097152, 1]], "roots": [[0, 2]]}
    answered, refused = _mul_points(capsys, tmp_path, datum, [0], [[-1, -1], [0, -1]])
    assert answered[0] == 0 and "Z^(4194303,1)·H_1" in answered[1]
    assert refused == (2, "", "CoordinateOutOfRange: a commutation chain from (0, -1) reaches entry 4194304, "
                              "outside -4194304..4194303\n")


def test_chain_wider_than_the_range_refused_by_its_span(capsys, tmp_path):
    """H_1 Z^mu with alpha_1(mu) = 4 reflects mu by -4 alpha_1^v = (-8388608, -4).  The chain spans
    2^23 in the first coordinate, one more than -2^22 .. 2^22 - 1 holds, so the memo refuses it
    for every mu and names the span."""
    datum = {"gcm": [[2]], "rank_y": 2, "coroots": [[2097152, 1]], "roots": [[0, 2]]}
    (refused,) = _mul_points(capsys, tmp_path, datum, [0], [[0, 2]])
    assert refused == (2, "", "CoordinateOutOfRange: a commutation chain spans 8388608 in one coordinate; "
                              "no point keeps it within -4194304..4194303\n")


def test_refusals_repeat_on_a_grouped_entry(capsys, tmp_path):
    """The two cases above, three times in one process.  mu = (-3, -1) and (-2, -1) pair alike,
    so `mult_bl` reads one memo entry for both: filled on the first run, read as it was left on the
    second and third.  The box check still refuses (-2, -1) before any grouped accumulation, with
    the same message every time, and the window refused inside the memo names the same point on
    every run."""
    edge = {"gcm": [[2]], "rank_y": 2, "coroots": [[2097153, 1]], "roots": [[0, 2]]}
    window = {"gcm": [[2, -2], [-2, 2]], "rank_y": 4, "coroots": [[1, 0, 0, 128], [0, 1, 0, 0]],
              "roots": [[2, -2, 1, 0], [-2, 2, 1, 0]]}
    hecke_bl._basis_product_packed.cache_clear()
    edges = [_mul_points(capsys, tmp_path, edge, [0], [[-3, -1], [-2, -1]]) for _ in range(3)]
    datum = datum_from_json(edge)
    entry = hecke_bl._basis_product_packed(datum, param_ring_for(datum), simple_reflection(datum, 0).id, (-2,))
    assert isinstance(entry[4], tuple)  # the grouped view
    windows = [
        _mul_points(capsys, tmp_path, window, [1, 0], [[8192, 0, 16385, 0], [8192, 0, 16385, 2097152]])
        for _ in range(3)
    ]
    assert edges[0] == edges[1] == edges[2] and windows[0] == windows[1] == windows[2]
    (answered, refused), (point, budget) = edges[0], windows[0]
    assert answered[0] == 0 and refused[0] == 2 and point[0] == 2 and budget[0] == 3
    assert refused[2].startswith("CoordinateOutOfRange: ") and "4194304" in refused[2]
    assert point[2].startswith("CoordinateOutOfRange: ") and "65539 terms" in budget[2]


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


# every command path, with its number of positional arguments and its flags
_COMMANDS = {
    ("gcm", "validate"): (1, ()),
    ("realize",): (1, ()),
    ("classify",): (0, ("--datum",)),
    ("weyl", "orbit"): (0, ("--datum", "--point", "--budget-orbit", "--max-length", "--max-height-drop")),
    ("weyl", "dominant"): (0, ("--datum", "--point", "--budget-tits")),
    ("weyl", "bruhat"): (0, ("--datum", "--left", "--right")),
    ("weyl", "words"): (0, ("--datum", "--word", "--budget-words")),
    ("hecke", "mul"): (2, ("--datum",)),
    ("hecke", "commute"): (0, ("--datum", "--index", "--point")),
    ("complete", "mul"): (2, ("--datum", "--region-gens", "--region-height", "--u-cap")),
    ("complete", "efun"): (1, ("--datum", "--region-gens", "--region-height")),
    ("complete", "center"): (1, ("--datum", "--probes", "--u-cap")),
    ("parahoric", "coset"): (0, ("--datum", "--jzero", "--point", "--word")),
    ("parahoric", "product"): (0, ("--datum", "--jzero", "--d1", "--d2")),
    ("parahoric", "failure"): (0, ("--datum", "--jzero", "--count")),
    ("parahoric", "treecount"): (0, ("--length", "--q", "--qprime")),
}
_FLAGS = sorted({flag for _, flags in _COMMANDS.values() for flag in flags} | {"--format", "--help"})
# the kind of value each flag expects; flags not named take an integer
_FLAG_KINDS = {
    "--datum": "datum", "--point": "list", "--left": "list", "--right": "list", "--word": "list",
    "--jzero": "list", "--region-gens": "lists", "--probes": "lists", "--d1": "json", "--d2": "json",
}
_SMALL = st.integers(-3, 5)
_INT_LIST = st.lists(_SMALL, max_size=4).map(lambda v: ",".join(map(str, v)))
_LABEL = st.fixed_dictionaries({"lambda": st.lists(_SMALL, max_size=3), "word": st.lists(_SMALL, max_size=3)})


@st.composite
def _argv(draw, datums, paths):
    """A command path, then values for its positionals and most of its flags, and stray tokens.

    A value is mostly of the kind its flag expects, and otherwise anything.
    """
    kinds = {
        "datum": st.sampled_from(datums),
        "path": st.sampled_from(paths),
        "int": _SMALL.map(str),
        "list": _INT_LIST,
        "lists": st.lists(_INT_LIST, max_size=3).map(";".join),
        "json": (_LABEL | _ANY_JSON).map(json.dumps),
    }
    anything = st.one_of(*kinds.values(), st.sampled_from(("table", "json", "e", "", "-")))

    def value(kind):
        return draw(anything if draw(st.integers(0, 3)) == 3 else kinds[kind])

    command = draw(st.sampled_from(sorted(_COMMANDS)))
    positionals, flags = _COMMANDS[command]
    argv = ["--format", draw(st.sampled_from(("table", "json")))] if draw(st.booleans()) else []
    argv += [*command, *(value("path") for _ in range(positionals))]
    for flag in flags:
        if draw(st.integers(0, 5)) < 5:
            argv += [flag, value(_FLAG_KINDS.get(flag, "int"))]
    if draw(st.integers(0, 3)) == 3:
        argv += draw(st.lists(st.sampled_from(_FLAGS) | anything, min_size=1, max_size=2))
    return argv


def test_arbitrary_arguments_exit_cleanly(monkeypatch, tmp_path):
    """Any argument list is answered (0), refused (2) or out of budget (3), never a traceback."""
    contents = {
        "a1.json": {"gcm": [[2]]},
        "a2.json": _A2,
        "aff.json": {"gcm": [[2, -2], [-2, 2]]},
        "element.json": [_TERM],
        "truncated.json": _finite_factor([([1, 0], 1)]),
        "efun.json": [{"lambda": [1, 1], "coeff": [[[0], 1]]}],
        "junk.json": [1, {"word": [2]}],
    }
    for name, data in contents.items():
        (tmp_path / name).write_text(json.dumps(data))
    (tmp_path / "text.json").write_text("not json")
    datums = [str(tmp_path / name) for name in ("a1.json", "a2.json", "aff.json")]
    paths = sorted(str(tmp_path / name) for name in (*contents, "text.json", "missing.json"))
    paths.append(str(tmp_path))  # a directory

    @given(_argv(datums, paths))
    @settings(max_examples=200, deadline=None)
    def check(argv):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(_A2)))
        code, _, err = _in_process(argv)
        assert code in (0, 2, 3), (argv, err)

    check()


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


@pytest.mark.parametrize(
    "data",
    [
        {"gcm": [[2]], "rank_y": 1, "coroots": [[1.9]], "roots": [[2]]},
        {"gcm": [[2]], "rank_y": 1.7, "coroots": [[1]], "roots": [[2]]},
        {"gcm": [[2]], "rank_y": True, "coroots": [[1]], "roots": [[2]]},
        {"gcm": [[2]], "rank_y": 1, "coroots": [["1"]], "roots": [[2]]},
    ],
)
def test_custom_realization_values_that_are_not_int(capsys, tmp_path, data):
    """Read through int(), each of these was taken as 1."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["realize", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("RealizationShape: ") and err.count("\n") == 1


@pytest.mark.parametrize("fmt, want", [("table", ""), ("json", "[]\n")])
def test_classify_empty_matrix(capsys, tmp_path, fmt, want):
    """An empty table prints nothing; the empty JSON list is still printed."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"gcm": []}))
    assert run(capsys, ["--format", fmt, "classify", "--datum", str(path)]) == (0, want, "")


def test_a_table_that_fails_midway_prints_nothing(capsys, monkeypatch):
    """The E-function expansion has six table lines; the second one fails to render."""
    rendered = []

    def render_once(self, *args):
        if rendered:
            raise ValueError("render failed")
        rendered.append(self)
        return "1"

    monkeypatch.setattr(kmhecke.coeff_ring.LaurentPoly, "render", render_once)
    code, out, err = run(capsys, [
        "complete", "efun", "--datum", _golden("a2.json"), _golden("a2_fun.json"),
        "--region-gens", "2,2", "--region-height", "3",
    ])
    assert len(rendered) == 1
    assert (code, out, err) == (2, "", "ParseError: render failed\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["weyl", "dominant", "--datum", _golden("a1.json"), "--point", "1_0"],
        ["weyl", "dominant", "--datum", _golden("a1.json"), "--point", "١"],  # Arabic-Indic 1
        ["weyl", "dominant", "--datum", _golden("a1.json"), "--point", " 1"],
        ["weyl", "dominant", "--datum", _golden("a1.json"), "--point", "+1"],
        ["weyl", "dominant", "--datum", _golden("a2.json"), "--point", "1,,0"],
        ["weyl", "dominant", "--datum", _golden("a2.json"), "--point", "1,0,"],
        ["weyl", "bruhat", "--datum", _golden("a2.json"), "--left", "0_0", "--right", "0"],
        ["weyl", "orbit", "--datum", _golden("a1.json"), "--point", "1", "--budget-orbit", "1_0"],
        ["weyl", "dominant", "--datum", _golden("a1.json"), "--point", "1", "--budget-tits", "١"],
        ["complete", "efun", "--datum", _golden("a2.json"), _golden("a2_fun.json"),
         "--region-gens", "2,2;", "--region-height", "3"],
        ["complete", "efun", "--datum", _golden("a2.json"), _golden("a2_fun.json"),
         "--region-gens", "2,2;;2,2", "--region-height", "3"],
    ],
)
def test_integers_parse_strictly(argv):
    """Only ASCII `-?[0-9]+` entries are integers; `int` would read each of these."""
    code, out, err = _in_process(argv)
    assert (code, out) == (2, "")
    assert err.count("\n") >= 1


def test_empty_word_spellings(capsys):
    for left, right in (("", "e"), ("e", "")):
        argv = ["weyl", "bruhat", "--datum", _golden("a2.json"), "--left", left, "--right", right]
        assert run(capsys, argv) == (0, "True\n", "")


@pytest.mark.parametrize("flag", ["--q", "--qprime"])
def test_treecount_needs_both_parameters(capsys, flag):
    code, out, err = run(capsys, ["parahoric", "treecount", "--length", "3", flag, "2"])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["parahoric", "failure", "--datum", _golden("chain3.json"), "--jzero", "0,1", "--count", "-3"],
        ["weyl", "orbit", "--datum", _golden("a2.json"), "--point", "1,1", "--budget-orbit", "-5"],
        ["weyl", "orbit", "--datum", _golden("a2.json"), "--point", "1,1", "--max-length", "-1"],
        ["weyl", "orbit", "--datum", _golden("a2.json"), "--point", "1,1", "--max-height-drop", "-1"],
        ["weyl", "words", "--datum", _golden("a2.json"), "--word", "0,1,0", "--budget-words", "-1"],
        ["weyl", "dominant", "--datum", _golden("mixed3.json"), "--point", "1,0,-1", "--budget-tits", "-1"],
        ["complete", "center", "--datum", _golden("a2.json"), _golden("a2_orbit_sum_6.json"), "--u-cap", "-1"],
        ["complete", "mul", "--datum", _golden("a1.json"), _golden("a1_h1.json"), _golden("a1_z_weak.json"),
         "--region-gens", "0", "--region-height", "1", "--u-cap", "-1"],
        ["complete", "mul", "--datum", _golden("a1.json"), _golden("a1_h1.json"), _golden("a1_z_weak.json"),
         "--region-gens", "0", "--region-height", "-1"],
        ["complete", "efun", "--datum", _golden("a2.json"), _golden("a2_fun.json"),
         "--region-gens", "2,2", "--region-height", "-1"],
    ],
)
def test_negative_counts_and_budgets_refused(argv):
    """Each of these flags counts or bounds something, and refuses a negative value while parsing."""
    code, out, err = _in_process(argv)
    assert (code, out) == (2, "")
    assert f"argument {argv[-2]}: not a nonnegative integer: '{argv[-1]}'" in err
