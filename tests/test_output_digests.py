"""SHA-256 pins of the default payload files.

The figure and the sweep exports must stay byte-identical through
refactors of the grid and measure code; any change to these bytes is a
deliberate format change and is recorded with the new digests.
"""

import hashlib

import pytest

from binaryrisk.cli import main

DIGESTS = {
    ("plot",): "a42e3505a13b152de3f559de2a83d1359a21551b07d504c97f39980d0e5046c5",
    ("sweep",): "72e37a42bea1d570e93f940e92b9a6d2cac4d134cdf5d133c58adb167cc927e5",
    ("sweep", "--format", "csv"): "18b4a15eae624a664b89e7ddf10a78ebb8a6886da43a0fa8fa2481c4f8196810",
}


@pytest.mark.parametrize("argv", sorted(DIGESTS), ids=" ".join)
def test_default_payload_digest(argv, tmp_path, capsys):
    out = tmp_path / "payload"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[argv]
