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
    "qform_23": ["qform", "--n", "23"],  # hyperbolic
    "qform_24": ["qform", "--n", "24"],  # elliptic
    "qform_26": ["qform", "--n", "26"],  # parabolic
    "spectrum_12_json": ["spectrum", "--n", "12", "--format", "json"],
    "spectrum_12_csv": ["spectrum", "--n", "12"],
    "zerospace_12": ["zerospace", "--n", "12"],
    "zerospace_14": ["zerospace", "--n", "14"],
    "zerospace_12_mod16": ["zerospace", "--n", "12", "--set", "mod16"],
    "zeros_12_include_zero": ["zeros", "--n", "12", "--include-zero"],
    # direct witnesses (0x2d, 0x43) and (0x48, 0x1b4): past x = 64, inside the
    # 2^(n/2 + 2)-point prefix; n = 18 is above TABLE_DEGREE, where the
    # spectral probes multiply by shift-and-reduce
    "permcheck_10_collision_past_64": [
        "permcheck", "--n", "10", "--method", "both",
        "--l1", '{"n": 10, "matrix_rows": ["0x25d", "0xb4", "0x13b", "0x1fb", "0xca", "0x3fe",'
                ' "0x3db", "0x2e1", "0x3b9", "0x142"]}',
        "--l2", '{"n": 10, "matrix_rows": ["0x38e", "0x12b", "0x308", "0x228", "0x46", "0x367",'
                ' "0x18", "0x32", "0x274", "0x25e"]}'],
    "permcheck_18": [
        "permcheck", "--n", "18", "--method", "both",
        "--l1", '{"n": 18, "matrix_rows": ["0x21e3d", "0x32273", "0x1fbdc", "0x1aa77", "0x2b872",'
                ' "0x20bf2", "0x23ba9", "0xe140", "0x19ece", "0x167be", "0x3a03a", "0x32aad",'
                ' "0x2b5f6", "0x1ca93", "0x156f1", "0x2f12a", "0x12eb1", "0x37d09"]}',
        "--l2", '{"n": 18, "matrix_rows": ["0x374e8", "0x305e", "0x1eb77", "0x10738", "0x26403",'
                ' "0x3a1be", "0x24673", "0x26f25", "0x1e8f6", "0x3cb88", "0x17829", "0x2edbc",'
                ' "0x3540a", "0x577", "0x3a519", "0x1d0bc", "0x3a26a", "0x7bb8"]}'],
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
