"""CLI contract tests: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import kspectra
from kspectra.cli import main
from kspectra.gf2n import mk_field
from kspectra.linmap import identity_map, map_to_json, zero_map


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_spectrum_csv(capsys):
    code, out = run_cli(capsys, "spectrum", "--n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "elem_hex,value"
    assert lines[1] == "0x0,0"
    assert len(lines) == 33


def test_zeros_json(capsys):
    code, out = run_cli(capsys, "zeros", "--n", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 5
    assert obj["count"] == 5
    assert len(obj["zeros"]) == 5
    assert abs(obj["ratio_to_2^{n/2}"] - 0.8839) < 1e-3


def test_zerospace_json(capsys):
    code, out = run_cli(capsys, "zerospace", "--n", "8", "--set", "zeros")
    assert code == 0
    obj = json.loads(out)
    assert obj["best_dim"] == 1
    assert obj["exhaustive"] is True
    code, out = run_cli(capsys, "zerospace", "--n", "8", "--set", "mod16")
    assert json.loads(out)["best_dim"] == 3


def test_qform_json(capsys):
    code, out = run_cli(capsys, "qform", "--n", "8")
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "n": 8, "dim_H": 7, "radical_dim": 1, "type": "elliptic",
        "witt_index": 2, "zeros": 56, "expected_zeros": 56,
        "max_isotropic_dim": 3,
    }


def test_permcheck_command(capsys):
    ctx = mk_field(5)
    l1 = json.dumps(map_to_json(ctx, identity_map(5)))
    l2 = json.dumps(map_to_json(ctx, zero_map(5)))
    code, out = run_cli(capsys, "permcheck", "--n", "5", "--l1", l1, "--l2", l2)
    assert code == 0
    obj = json.loads(out)
    assert obj["direct"]["is_perm"] and obj["spectral"]["is_perm"] and obj["agree"]
    code, out = run_cli(capsys, "permcheck", "--n", "5", "--l1", l1, "--l2", l1,
                        "--method", "direct")
    obj = json.loads(out)
    assert code == 0 and not obj["direct"]["is_perm"]


def test_table1_right(capsys):
    code, out = run_cli(capsys, "table1", "--side", "right", "--from", "5", "--to", "8")
    assert code == 0
    assert out.strip().splitlines() == ["n,max_dim", "5,1", "6,2", "7,3", "8,1"]


def test_table1_left(capsys):
    code, out = run_cli(capsys, "table1", "--side", "left", "--from", "5", "--to", "5")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "n,count,ratio_trunc,ratio_round"
    assert row == "5,5,0.88,0.88"


def test_verify_single_pass(capsys):
    code, out = run_cli(capsys, "verify", "--theorem", "radical", "--from", "4", "--to", "10")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and obj["criterion"] == "radical"


def test_verify_deterministic(capsys):
    code1, out1 = run_cli(capsys, "verify", "--theorem", "subspace-sum-identity",
                          "--from", "5", "--to", "6", "--samples", "20", "--seed", "7")
    code2, out2 = run_cli(capsys, "verify", "--theorem", "subspace-sum-identity",
                          "--from", "5", "--to", "6", "--samples", "20", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_inverse_linear_n5(capsys):
    code, out = run_cli(capsys, "verify", "--theorem", "inverse-linear-n5")
    assert code == 0
    obj = json.loads(out)
    assert obj["candidates_checked"] == (1 << 25) - 1
    assert obj["violations"] == []


def test_usage_errors(capsys):
    code, _ = run_cli(capsys, "spectrum", "--n", "40")
    assert code == 2
    code, _ = run_cli(capsys, "qform", "--n", "8", "--poly", "0x11c")
    assert code == 2
    for poly in ("", "-0x25"):  # an empty --poly is no request for the default
        code, out = run_cli(capsys, "zeros", "--n", "5", f"--poly={poly}")
        assert code == 2 and out == ""
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_closed_stdout_ends_the_output_not_the_command():
    # `kspectra spectrum --n 17 | head -c 16`: exit 1 would mean "a violation".
    # n = 17 writes two CSV_CHUNK pieces, so a write surely meets the closed
    # pipe; the one piece of n = 16 may end in a partial write that raises nothing
    src = os.path.dirname(os.path.dirname(kspectra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "kspectra.cli", "spectrum", "--n", "17"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(16) == b"elem_hex,value\n0"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_no_prune_is_not_an_option(capsys):
    # the subspace search has one mode, so zerospace takes no mode flag
    with pytest.raises(SystemExit) as exc:
        main(["zerospace", "--n", "12", "--no-prune"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-prune" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "perm-search", "--budget", "-1"],
    ["verify", "--theorem", "perm-search", "--budget", "0"],
    ["verify", "--theorem", "spectral-vs-direct", "--samples", "-1"],
    ["verify", "--theorem", "subspace-sum-identity", "--samples", "0"],
    ["zerospace", "--n", "6", "--budget", "0"],
    ["table1", "--side", "right", "--from", "5", "--to", "6", "--budget", "-3"],
])
def test_nonpositive_budget_or_samples_is_a_usage_error(capsys, argv):
    # no vacuous "ok": a count below 1 is refused before any check runs
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "mod16-sharpness", "--from", "12", "--to", "5"],
    ["verify", "--theorem", "mod16-sharpness", "--from", "13"],  # default end is 12
    ["table1", "--side", "right", "--from", "9", "--to", "5"],
], ids=["verify-reversed", "verify-past-default-end", "table1-reversed"])
def test_empty_range_is_a_usage_error(capsys, argv):
    # a range that checks nothing must not print "ok": true or a bare header
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: empty range")


@pytest.mark.parametrize("l1", ['{"n": 5}', "[1, 2]",
                                '{"n": 5, "matrix_rows": 5}',
                                '{"n": 5, "matrix_rows": ["0x1", "0x2", "0x4", "0x8", "0x10"], '
                                '"linearized": 5}',
                                '{"n": 5.9, "matrix_rows": [1.9, 2.2, 4.7, 8.0, 16.5]}',
                                '{"n": 5, "matrix_rows": [true, 2, 4, 8, 16]}'],
                         ids=["no-rows", "list", "int-rows", "int-linearized", "float-rows",
                              "bool-row"])
def test_permcheck_malformed_map_is_a_usage_error(capsys, l1):
    l2 = json.dumps(map_to_json(mk_field(5), zero_map(5)))
    code = main(["permcheck", "--n", "5", "--l1", l1, "--l2", l2])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_out_file(tmp_path, capsys):
    path = tmp_path / "spec.csv"
    code, _ = run_cli(capsys, "spectrum", "--n", "4", "--out", str(path))
    assert code == 0
    assert path.read_text().startswith("elem_hex,value")


def test_out_into_missing_directory_is_a_usage_error(tmp_path, capsys):
    code = main(["spectrum", "--n", "4", "--out", str(tmp_path / "missing" / "spec.csv")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: cannot open --out: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_write_error_is_a_usage_error(capsys):
    code = main(["zeros", "--n", "5", "--out", "/dev/full"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --out: ")


@pytest.mark.parametrize("theorem", ["subfield-zeros", "zero-subspace-bound", "mod16-sharpness",
                                     "perm-search"])
def test_degree_below_the_statement_is_a_usage_error(capsys, theorem):
    # the statements hold from n = 5 on; at n = 4, K(1) = 0 puts a zero in F_2
    code = main(["verify", "--theorem", theorem, "--from", "4", "--to", "5"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "n >= 5" in err


def test_zero_subspace_bound_violation_is_observable(capsys, monkeypatch):
    # at n = 5..7 the bound is attained, so a bound lowered by one must be exceeded
    from kspectra import cli, zerospace
    lowered = lambda n, real=zerospace.zero_subspace_bound: real(n) - 1
    monkeypatch.setattr(zerospace, "zero_subspace_bound", lowered)
    monkeypatch.setattr(cli, "zero_subspace_bound", lowered)
    code, out = run_cli(capsys, "verify", "--theorem", "zero-subspace-bound",
                        "--from", "5", "--to", "7")
    assert code == 1
    assert json.loads(out)["violations"] == [{"n": 5, "dim": 1}, {"n": 6, "dim": 2},
                                             {"n": 7, "dim": 3}]


@pytest.mark.parametrize("theorem", ["mod16-sharpness", "zero-subspace-bound"])
def test_truncated_search_is_inconclusive(capsys, theorem):
    code, out = run_cli(capsys, "verify", "--theorem", theorem, "--from", "6", "--to", "9",
                        "--budget", "1")
    assert code == 3
    obj = json.loads(out)
    assert obj["violations"] == [] and obj["ok"] is False
    assert [case["n"] for case in obj["inconclusive"]] == [6, 7, 8, 9]
    # an exhaustive run carries no inconclusive key at all
    code, out = run_cli(capsys, "verify", "--theorem", theorem, "--from", "6", "--to", "9")
    assert code == 0 and "inconclusive" not in json.loads(out)


def test_internal_error_exit_code(capsys, monkeypatch):
    from kspectra import cli
    from kspectra.quadform import InconsistentFormError

    def broken(ctx):
        raise InconsistentFormError("count 9 matches no type")

    monkeypatch.setattr(cli, "restrict_q_to_h", broken)
    code = main(["qform", "--n", "8"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("internal error: count 9")
