"""Byte identity of CLI output against digests of a reference build.

Each entry is the SHA-256 of stdout for one closed-form command at the
shipped defaults (plus the flags shown), in one output format. A refactor
that claims "same behaviour" must leave every digest unchanged; a change
that means to alter the output re-records the digest it moves and says
why. fmo-trace is not here: its bytes depend on the BLAS build that runs
the propagation.
"""

import hashlib

import pytest

from solaraudit.cli import main

GOLDEN = {
    ("toy-decay", "csv"): "d828bfde920632c9403a6d0e53fe5f2e180d6858948eed4914c6d1a6c34bfd09",
    ("toy-decay", "json"): "3d86feb1cc60b1c3365deca993b525dd6c3be8a187509e1417bf38874091b410",
    ("toy-ham", "csv"): "ff82c513e21c37b7df256dc4ae8561249110222fd6458b1c3162fe2831295851",
    ("toy-ham", "json"): "6013d4abfb42dac06fd8d1843e42c3a00dc449a231e1378b29495f78c7e1d6a9",
    ("donor-acceptor", "csv"): "1138d721bc361a269d62db105443611b540d9f4356286714a510a8093d93c001",
    ("donor-acceptor", "json"): "34ebec3d51575c4ff6262aef7736c7c5c25635f4b5b7c60284126f7c12437540",
    ("photocell", "csv"): "3453ed9a6f3647728522177d0981b7f461b0163efb650a8ff61806ecda6e1ebe",
    ("photocell", "json"): "70ec5bbd0d8607304e14bd1c30d62fdadb8ec770bbf388d9342bf65a8a4d7a7a",
    ("compare-power", "csv"): "59ac7383cda6ea286e9e68c9de262b69c8bbd2e271cceec1f191dbbc089b869b",
    ("compare-power", "json"): "3e798b77a43438833a5e0b3fe51e72d7c78b93e6f1ca8de2565a01de11e3f10e",
    ("sweep", "csv"): "77145f6bed649d064b6be713dadfa914e4f29e6f09b10f49f290c36f5d1125a1",
    ("sweep", "json"): "5e00e5cf13ebdfacb3fa989f04d43e48a999ed57d37ed6efa3db1a6ed166e5f8",
    ("sweep --model toy_ham", "csv"): "9f7846892735f6957665d9d46ed2720ca06b62970dc705d0f3de77bcb30993a9",
    ("sweep --model toy_ham", "json"): "e077346ce670c59490fe4be115753017b5269ac7d9505d365c39224761c83d17",
    ("sweep --axis temp_ratio", "csv"): "84ba1e634d7dec1d201bafcc81579eb63e344710ea7832bacdd6f14f7924c6f7",
    ("sweep --axis temp_ratio", "json"): "951ab00eea4e5ce9d869c7d1831ea5cc5d04da8c0ecf7820bdb112cd38278ee7",
    # axis_stop = auto stops these two at 0.98, the last point of the
    # 0.02..1.98 grid inside their omega_ratio domain (x < 0.99)
    ("sweep --model donor_acceptor", "csv"):
        "43bcf48b1e0b070829d263ce68b3a7487cc4de8b854e939a1abcfa7ed00a011b",
    ("sweep --model donor_acceptor", "json"):
        "3b0c89ef2f1210967131272114dbf42614bbaa95d0fef3e762497899fc6c6605",
    ("sweep --model photocell", "csv"):
        "d3c809b179aa417f1dc8cb71fb7da368e83c76f3ffd157b33a957a02fc1bebf0",
    ("sweep --model photocell", "json"):
        "8d6873ead43519f18c18a56234b7e69f63cb8267ebb6dba666bbd73473c2954a",
    ("sweep --model donor_acceptor --axis_stop 0.98", "csv"):
        "43bcf48b1e0b070829d263ce68b3a7487cc4de8b854e939a1abcfa7ed00a011b",
    ("sweep --model donor_acceptor --axis_stop 0.98", "json"):
        "3b0c89ef2f1210967131272114dbf42614bbaa95d0fef3e762497899fc6c6605",
    ("sweep --model photocell --axis_stop 0.98", "csv"):
        "d3c809b179aa417f1dc8cb71fb7da368e83c76f3ffd157b33a957a02fc1bebf0",
    ("sweep --model photocell --axis_stop 0.98", "json"):
        "8d6873ead43519f18c18a56234b7e69f63cb8267ebb6dba666bbd73473c2954a",
}


@pytest.mark.parametrize(("command", "fmt"), sorted(GOLDEN))
def test_golden_output(capsys, command, fmt):
    code = main(command.split() + ["--format", fmt])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN[command, fmt], (
        f"`solaraudit {command} --format {fmt}` output changed; new digest {digest}"
    )
