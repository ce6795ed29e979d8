"""Golden CLI corpus: fixed inputs, expected stdout and exit code.

Every case of `golden/cases.json` runs in both output formats; stdout must
match `golden/expected.json` byte for byte.  The expected file was written
before the certification walk was folded into one; regenerate it only for
an intended output change, with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from kmhecke.cli import main
from kmhecke.coeff_ring import LaurentPoly
from kmhecke.hecke_bl import BLElement

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("table", "json")
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _run(argv, fmt):
    argv = ["--format", fmt] + [a.replace("{golden}", str(GOLDEN)) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _expected():
    return json.loads((GOLDEN / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("fmt", FORMATS)
def test_golden_cli(name, fmt):
    want = _expected()[f"{name} {fmt}"]
    code, out = _run(CASES[name], fmt)
    assert code == want["exit"]
    assert out == want["stdout"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_renders_no_table(monkeypatch, name):
    """JSON output builds no table text: with text rendering refused, every case still matches."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("a table was rendered for JSON output")

    monkeypatch.setattr(LaurentPoly, "render", refuse)
    monkeypatch.setattr(BLElement, "render", refuse)
    want = _expected()[f"{name} json"]
    assert _run(CASES[name], "json") == (want["exit"], want["stdout"])


def test_golden_corpus_is_complete():
    assert set(_expected()) == {f"{n} {f}" for n in CASES for f in FORMATS}


if __name__ == "__main__":
    expected = {}
    for name, argv in CASES.items():
        for fmt in FORMATS:
            code, out = _run(argv, fmt)
            expected[f"{name} {fmt}"] = {"exit": code, "stdout": out}
    with open(GOLDEN / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, ensure_ascii=False, sort_keys=True)
        fh.write("\n")
