"""Pinned CSV and JSON exports of the Kloosterman spectrum.

The hashes below were captured from the row-by-row export (one
f"{a:#x},{v}" per row).  Any faster formatting must reproduce every byte.
The JSON export must equal json.dumps(..., indent=2) of the whole spectrum.
"""

import hashlib
import json

import pytest

from kspectra.cli import main
from kspectra.gf2n import mk_field
from kspectra.spectra import CSV_CHUNK, kloosterman_spectrum

# sha256 of the stdout of `spectrum --n <n>` with the default polynomial
STDOUT_SHA256 = {
    2: "6e81229decc8302cea864ab16ea81ed1a5eced03e29f2eb3dcccb32731e06f2f",
    3: "6615383d253830d8986ed8ba2fc39e8e8b0a87e28f617fcc2aef80023d545228",
    4: "c1d415428007ea82af57839c6ddbeed2c5a83109fc26a5572d87e97ecf322798",
    5: "974a9ec8bbd0eed7b952c22cd72d3a8c148af68cf114267d5af26258171eab06",
    6: "363c5e66f830de752d4c52c65785d1ff728464aa62a35421fdd90c18cf49901e",
    7: "b1d94c90981300d5d55c715dc13451f5877cf23f9bae6f5284d0fca4ef355c52",
    8: "6cba9ff36a45ddc7f9a7fd2b352dc9438d0e91d8499b2f3e22611d1eea67e114",
    9: "42a0dbe96120a8bc6b0618d844485486c072c426e6875f25ad3a10a32208a2e8",
    10: "f3d7d6f113aee24220c2a3dced94631345f1a41dfdfacd6e4419a54f25c3aa0d",
    11: "950fb179766fb4cf5c48971e80abeebe8d248e309fa5a8bbedcb8ab012cfa2bb",
    12: "c86339d453c31595b252ef634f359ed2415fff678741b371f3985ed2cd61c4e4",
    13: "4a7812e4958c5090d4f177b0f5fc075fd4ca911094d757610ab1cfcc28a3b803",
    14: "3a83afffbb30d25b83173151006409ab45f8a5c3489ea48b80eac5e595e32c6d",
    15: "ec9aeed59b5be895fbdfb65777fa5c0410f3469c415ce18ca16c7fc696b28378",
    16: "238b400c675f02809118c69ceb5271339c3837c5691894a15fd3b39214a4e8f9",
    17: "723948cac9e5ddfea8cb8940e9fa0ecc769eb4b9a90d25983bbc0789aaf4b5ee",
    18: "e316ff9ecfe0d6f65fd0bbd8bfb6a838583d3a023bc7ac26eefc27c06aab6780",
    19: "8cb0df6d90f2ac3d671e4356b05d3558836cf1fabcd9185c5e7ae4a527953bad",
    20: "2f0ffa192e378f90f783315c9084def73b6324d5e9a272ea7f129ce3625d6911",
}

# sha256 of the stdout of `spectrum --n <n> --poly <poly>`, poly not the default
POLY_SHA256 = {
    (8, "0x11d"): "9613929fa72c489d8106951e6139410304785cbc51e3a6a37abee122317d25ce",
    (13, "0x20e1"): "2ff3eb9c252f939be3a3eb567e3151c087b095dfc156b8d709d5a58c1cacc735",
}

# sha256 of the file written by `spectrum --n 17 --out <file>`: two CSV_CHUNK
# blocks, the second starting at key 0x10000
OUT_17_SHA256 = "723948cac9e5ddfea8cb8940e9fa0ecc769eb4b9a90d25983bbc0789aaf4b5ee"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("n", sorted(STDOUT_SHA256))
def test_spectrum_stdout_pinned(n, capsys):
    assert main(["spectrum", "--n", str(n)]) == 0
    assert _sha(capsys.readouterr().out.encode()) == STDOUT_SHA256[n]


@pytest.mark.parametrize("n,poly", sorted(POLY_SHA256))
def test_spectrum_stdout_pinned_other_poly(n, poly, capsys):
    assert mk_field(n).poly != int(poly, 0)
    assert main(["spectrum", "--n", str(n), "--poly", poly]) == 0
    assert _sha(capsys.readouterr().out.encode()) == POLY_SHA256[(n, poly)]


def test_spectrum_out_file_pinned(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--n", "17", "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == OUT_17_SHA256


def test_rows_at_hex_width_boundaries(tmp_path):
    assert CSV_CHUNK == 0x10000
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--n", "17", "--out", str(out)]) == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "elem_hex,value"
    assert lines[-1] == ""
    rows = lines[1:-1]
    assert len(rows) == 1 << 17
    K = kloosterman_spectrum(mk_field(17)).data
    assert rows[0] == "0x0,0"
    for a in (0xf, 0x10, 0xff, 0x100, 0xfff, 0x1000, 0xffff, 0x10000, 0x1ffff):
        assert rows[a] == f"{a:#x},{int(K[a])}"
    assert rows[0xf].startswith("0xf,") and rows[0x10].startswith("0x10,")
    assert rows[0xffff].startswith("0xffff,") and rows[0x10000].startswith("0x10000,")


def _json_oracle(n: int) -> str:
    data = kloosterman_spectrum(mk_field(n)).data.tolist()
    return json.dumps({"n": n, "kind": "kloosterman", "data": data}, indent=2) + "\n"


@pytest.mark.parametrize("n", range(2, 17))
def test_spectrum_json_matches_json_dumps(n, capsys):
    assert main(["spectrum", "--n", str(n), "--format", "json"]) == 0
    assert capsys.readouterr().out == _json_oracle(n)


def test_spectrum_json_out_file_spans_chunks(tmp_path):
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--n", "17", "--format", "json", "--out", str(out)]) == 0
    assert out.read_text() == _json_oracle(17)
