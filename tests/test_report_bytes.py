"""Byte-stability guard: the --json report of one command per report family.

The digests pin the exact output bytes, so a refactor of how reports are
built must leave every byte of them as it was.  A deliberate change of a
report's content or layout updates the digest here, in the same change.
"""

import hashlib
import json

import pytest

from twisted_rings.cli import EXIT_OK, run

QUAT_RING = '{"cocycle": {"builtin": "quaternion"}, "conductor": 2}'
QUAT_COCYCLE = '{"builtin": "quaternion"}'
MATRIX_COCYCLE = '{"builtin": "c2c2_matrix"}'
V = json.dumps(
    {"coeffs": [{"g": 0, "m": 2, "c": [1]}, {"g": 2, "m": 2, "c": [1]}, {"g": 3, "m": 2, "c": [-1]}]}
)
D8 = json.dumps({"preset": "dihedral8"})
A1 = json.dumps({"cocycle": {"builtin": "anticommuting", "n": 1}, "conductor": 2})
A4 = json.dumps({"cocycle": {"builtin": "anticommuting", "n": 4}, "conductor": 2})
C10 = json.dumps({"preset": "cyclic", "params": [10]})
DP = json.dumps({"preset": "direct_product", "params": [4, 2]})
Q8 = {"preset": "quaternion8"}
C2, C3 = ({"preset": "cyclic", "params": [n]} for n in (2, 3))


def _ring(cocycle: dict, conductor: int) -> str:
    return json.dumps({"cocycle": cocycle, "conductor": conductor})

CASES = [
    (
        ["case", "d8", "--n", "0"],
        "306e5116e78de91af2d050513f0b74374a871d625dd6a5662c9b452d81aba54e",
    ),
    (
        ["case", "c2c2", "--check-all"],
        "7037edfe871fda84258160ccdb6279d3d993085e2fde3c984a58df571db5dae9",
    ),
    (
        ["case", "congruence", "--i", "2", "--depth", "1"],
        "4fc16d48d21c69ab05ef151aa0f228a4d82d29c069278da688d6d394c9bdb1fa",
    ),
    (
        ["ring", "scan", QUAT_RING],
        "d47539340fb2815612ef4e1ad220233b9103a29f0874fcfde50a29b38a88c38b",
    ),
    (  # a witness exists over mu_4
        ["cocycle", "cohomologous", MATRIX_COCYCLE, "--other", QUAT_COCYCLE, "--modulus", "4"],
        "306d6552745399761a4b4fb956083d0af8d411a6743574085cc9c3be7e70d071",
    ),
    (  # none exists over mu_2: an expected refutation
        ["cocycle", "cohomologous", MATRIX_COCYCLE, "--other", QUAT_COCYCLE, "--modulus", "2"],
        "c56a84ee248d6e07695c74beedb830f942e3ccf7e65e7c689fa919c84c4ab09b",
    ),
    (
        ["units", "obstruct", "--n", "0", "--element", V],
        "568fc6d040ca0a1d9d9a4ac3e9f353a4316367260e7b7b4dbb27b5c35e4d7ee3",
    ),
    (
        ["ext", "kernel", D8, "--normal", "0", "2", "--chi", "1"],
        "1695c5bedacd6193132915c34df08726ec858c5188dcffed90e5d8a91be89e9c",
    ),
    (
        ["tower", "scan", "--samples", "5"],
        "e11e892ea7423c12f9c41941f8400a295e1176dc8b1ca241376dfd2ea9f63836",
    ),
    (  # the depth audit at its cap, mod 2^18
        ["case", "congruence", "--i", "4", "--depth", "16"],
        "55919aefa5878e65e04d21dd05c368ca2d5741c77f60012bfe8848cd1b6b013e",
    ),
    (
        ["units", "bicyclic", A1, "--g", "1", "--h", "2"],
        "bf615b7b0722ab0d6e0e83f49dcc22b514c43aa812cff302be7d7f2af98fa258",
    ),
    (
        ["units", "finiteness", A1],
        "4cedb98459db80688299d730e5910853604e27000a41de3be0278eff8304ed7f",
    ),
    (
        ["ext", "kernel", C10, "--normal", "0", "5", "--chi", "1"],
        "a3d37c17b0c00ab6f978db295990f0dc6ec1156df886f3c0018468104c80d0fa",
    ),
    (
        ["ext", "components", D8, "--normal", "0", "2"],
        "c16dc4cb2945640efcabe28ee8925dc6905589795eb47d89b574b37beb3195ab",
    ),
    (
        ["ring", "unit", A4, "--x", V],
        "6e7af37b9e8cfac256e5ab56eb68eedf028d791be77d5187564fd4d8a2f3ce95",
    ),
    (  # G_alpha of a builtin twist, and of a twist inflated from C2 x C2
        ["cocycle", "galpha", QUAT_COCYCLE],
        "1378912b99262a8383511198af8fb7cf4a4c99509bc4497878d9443beb24be6d",
    ),
    (
        ["cocycle", "galpha", json.dumps({"builtin": "anticommuting", "n": 1})],
        "c0a660468b2d6e317245251b89fe639884ad5d2da4aedd934e740808eb50095a",
    ),
    (  # a product preset, its quotient and its components
        ["ext", "build", DP, "--normal", "0", "4"],
        "24d8e8791e3174684683fac5f244b3faf899e8cdf5ca0e21b0ec3f999e0b39d4",
    ),
    (
        ["ext", "components", DP, "--normal", "0", "4", "--conductor", "4"],
        "511cd75c761c8abab053ce21a3ee26f63c8fef040e329b27c13b71933c4090f0",
    ),
    (
        ["ext", "psi", D8, "--normal", "0", "2", "--chi", "1"],
        "86464b29d935a415bd908b23316eaee86eea92ac96c886bff95769716b7d8eef",
    ),
    # one `units finiteness` verdict per label of the finiteness rule
    (
        ["units", "finiteness", QUAT_RING],
        "a0b2852570f5906451aed91007001e01e269acf76f9cf7e5b1010e4863627051",
    ),
    (
        ["units", "finiteness", _ring({"builtin": "trivial", "group": Q8}, 2)],
        "04cd67cf3ae63c320e397f6fa9cf065a0bc6456062a7ee8f05634e4dabb28320",
    ),
    (  # a coboundary on C3 over mu_3: G_alpha = C3 x C3
        ["units", "finiteness", _ring({"group": C3, "m": 3, "table": [[0, 0, 0], [0, 2, 1], [0, 1, 2]]}, 3)],
        "cb58983bf2ad883bd7abe5f356c86f545af32fb53224ed5f14d20fe4240d9d9d",
    ),
    (  # u_x^2 = -1 on C2: G_alpha = C4
        ["units", "finiteness", _ring({"group": C2, "m": 2, "table": [[0, 0], [0, 1]]}, 2)],
        "cf46f50c4f722ce75bf7f75d03165dc365e2bed5ba53b85cf8daf181a88537f5",
    ),
    (  # a coboundary on C3 over mu_2: G_alpha = C6
        ["units", "finiteness", _ring({"group": C3, "m": 2, "table": [[0, 0, 0], [0, 0, 1], [0, 1, 1]]}, 2)],
        "1eaa33e84bffb5eff31f0c44d02a00700eef2f2b01017a6bcf854604b1778bf3",
    ),
    (  # Z[D8], and a conductor whose coefficient units are already infinite
        ["units", "finiteness", _ring({"builtin": "trivial", "group": {"preset": "dihedral8"}}, 1)],
        "9ffb54e66bad089ba52a9d8c453f200e4e42574123cff614aaa29aa86462276d",
    ),
    (
        ["units", "finiteness", _ring({"builtin": "quaternion"}, 8)],
        "bbb4179f71866eb29125354612811a9c49457eb5992b71255dd6e37b21b20591",
    ),
    (
        ["tower", "scan", "--n", "2", "--samples", "5", "--seed", "3"],
        "a145a4cc149efd4fcdfabcba065c40b12d0696f840d68385f8da94e3165b1d53",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", CASES, ids=[" ".join(argv[:2]) + f" #{i}" for i, (argv, _) in enumerate(CASES)]
)
def test_json_report_bytes_are_pinned(capsys, argv, digest):
    code = run(["--json"] + argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
