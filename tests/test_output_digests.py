"""SHA-256 pins of the default payload files and of stdout envelopes.

The figure and the sweep exports must stay byte-identical through
refactors of the grid and measure code; any change to these bytes is a
deliberate format change and is recorded with the new digests.

The envelope pins cover every command's stdout, warnings included, and
run in a temporary working directory with relative ``--out`` names so
the recorded paths do not depend on where the tests run. A closed-form
c-index inverse will change the last bits of the solved rr and re-pin
the ``solve --target-c`` entry on purpose.
"""

import hashlib

import pytest

from binaryrisk.cli import main

DIGESTS = {
    ("plot",): "a42e3505a13b152de3f559de2a83d1359a21551b07d504c97f39980d0e5046c5",
    ("sweep",): "72e37a42bea1d570e93f940e92b9a6d2cac4d134cdf5d133c58adb167cc927e5",
    ("sweep", "--format", "csv"): "18b4a15eae624a664b89e7ddf10a78ebb8a6886da43a0fa8fa2481c4f8196810",
    # figures beyond the default: an rr < 1 window with a masked corner,
    # repeated and signed-zero levels, and the smallest lattice
    (
        "plot", "--prevalences", "0.3,0.1", "--p0-min", "0.2", "--p0-max", "0.99",
        "--rr-min", "0.5", "--rr-max", "1.6", "--resolution", "41",
        "--levels", "0.45,0.48,0.5,0.52,0.55",
    ): "cf53bd4e7d47a8e31feb2ff86712a06b0ed82be4790eea80b7343edb67eda0fa",
    ("plot", "--levels", "0.5,0.5,0.55,-0.0,0.0"):
        "65eb658d1177806c0212b9ea4124bfb1113e43d4f492aeec55d2339ce46ba3df",
    ("plot", "--resolution", "2"): "2806694496bb9642999b5ed93ae460ab31b373b39db443c87a8d37ca3458f242",
}

ENVELOPE_DIGESTS = {
    ("compute", "--f", "0.2", "--p0", "0.1", "--rr", "1.5"):
        "9d5fe7a7e47317ad303f2886d892acb9ecbb5ed6a4fc4c24e6e6586ce5efa73b",
    ("solve", "--f", "0.2", "--target-par", "0.1", "--p0", "0.1", "--tolerance", "1e-8"):
        "375e044a1fc4fcee1db98851e5f151d5ae903616d20dd5e40fa26ececeb90a53",
    ("solve", "--f", "0.2", "--p0", "0.1", "--target-c", "0.55", "--tolerance", "1e-12"):
        "b54bdc0442cac7eb619eeb0e35d5757617897acceaa8ac1e3d1e3a7638acdd8b",
    (
        "simulate", "--f", "0.2", "--p0", "0.1", "--rr", "1.5", "--n", "20000",
        "--seed", "7", "--format", "csv", "--out", "cohort.csv",
    ): "391480fbc28bc0e0ad08cedc9fb145fe3d148af6f45c0b2193f15008087ddf30",
    ("sweep",): "74c7f49f05250934d8a7449349faba20f55d06fc9bdbd40e8d449e3edf3037a9",
    (
        "sweep", "--prevalences", "0.4,0.2", "--resolution", "21",
        "--levels", "0.52,0.55", "--format", "csv",
    ): "9f8025967272ee9af6abca24ff62064034c99a4df00e3aef441ae37c00f5d891",
    ("plot", "--format", "csv"): "e77a33742a033fc49eb417a90dc14f298a9ec0630522bed01d048db5d1c2ede9",
}


@pytest.mark.parametrize("argv", sorted(DIGESTS), ids=" ".join)
def test_default_payload_digest(argv, tmp_path, capsys):
    out = tmp_path / "payload"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[argv]


@pytest.mark.parametrize("argv", sorted(ENVELOPE_DIGESTS), ids=" ".join)
def test_envelope_digest(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ENVELOPE_DIGESTS[argv]
