"""Golden CLI outputs: the paper's tables and verdicts, byte for byte.

Each case replays one command through ``cli.main`` in-process and compares
stdout with a file under ``tests/golden/``.  Lines carrying ``"wall_time"``
are dropped on both sides, since they are the only non-deterministic output.
Regenerate a file only when a change of output is intended:

    PYTHONPATH=src python -m kspectra.cli <argv> > tests/golden/<name>.txt
"""
from pathlib import Path

import pytest

from kspectra.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_all": ["verify", "--theorem", "all"],
    "table1_right_5_16": ["table1", "--side", "right", "--from", "5", "--to", "16"],
    "table1_left_5_20": ["table1", "--side", "left", "--from", "5", "--to", "20"],
    "qform_24": ["qform", "--n", "24"],
    "spectrum_12_json": ["spectrum", "--n", "12", "--format", "json"],
    "spectrum_12_csv": ["spectrum", "--n", "12"],
    "zerospace_12": ["zerospace", "--n", "12"],
    "zerospace_14": ["zerospace", "--n", "14"],
    "zerospace_12_mod16": ["zerospace", "--n", "12", "--set", "mod16"],
}


def _stable(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if '"wall_time"' not in line)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    assert main(CASES[name]) == 0
    got = capsys.readouterr().out
    want = (GOLDEN / f"{name}.txt").read_text()
    assert _stable(got) == _stable(want)


def test_golden_csv_through_out_file(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--n", "12", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "spectrum_12_csv.txt").read_bytes()


def test_output_depends_only_on_the_command_line(tmp_path, monkeypatch, capsys):
    # no environment variable chooses the polynomial, only --poly: a table
    # naming another irreducible of degree 12 changes nothing
    table = tmp_path / "polys.txt"
    table.write_text("12 0x1053\n")
    monkeypatch.setenv("KSPECTRA_POLY_TABLE", str(table))
    assert main(["spectrum", "--n", "12"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "spectrum_12_csv.txt").read_text()
