"""Byte pins of the commands whose units and orders go through the components.

The digests were taken from the full-matrix route, before units were decided
component by component, so they show that the decomposition changes no
output byte: the d8 case study at dim 64, the trace-zero scan of the
anticommuting ring at n = 1, and the inverse of a dim-16 unit of the
anticommuting ring at n = 2 (the tower level 2 ring).  The last pin was
taken when leaf inverses still came from eliminating the regular
representation: the inverse of a unit of the quaternion-twisted ring over
Z[zeta_8], a dim-16 leaf, which now comes from its Newton polynomial.
The torsion and finiteness pins were taken while unit_order still kept
per-leaf lookup tables: the order of a non-trivial unit of order 2 and of
the bicyclic unit 1 + u_h - u_gh in the anticommuting ring at n = 1, of the
dim-16 unit at n = 2, and the infinite-order unit that
find_infinite_order_unit finds at n = 1.
"""

import hashlib
import json

import pytest

from twisted_rings.cli import EXIT_OK, run

ANTICOMMUTING_1 = '{"cocycle": {"builtin": "anticommuting", "n": 1}, "conductor": 2}'
ANTICOMMUTING_2 = '{"cocycle": {"builtin": "anticommuting", "n": 2}, "conductor": 2}'
# (3 + 2u_g + 2u_h) u_x2 (1 + u_hx1 - u_ghx1) (1 - u_gx2 + u_ghx2), full support
# but for ghx2
QUATERNION_8 = json.dumps({"cocycle": {"builtin": "quaternion"}, "conductor": 8})
LEAF_UNIT_8 = json.dumps({
    "coeffs": [
        {"g": 0, "m": 8, "c": [0, 0, 0, -1]},
        {"g": 1, "m": 8, "c": [0, 0, 1, 0]},
        {"g": 2, "m": 8, "c": [0, -1, 1, 1]},
        {"g": 3, "m": 8, "c": [1, 0, -1, 0]},
    ]
})
# -u_g - u_h - u_gh, of order 2
ORDER_2 = json.dumps({"coeffs": [{"g": g, "m": 2, "c": [-1]} for g in (1, 2, 3)]})
# the bicyclic unit 1 + u_h - u_gh, of infinite order
BICYCLIC = json.dumps({"coeffs": [{"g": g, "m": 2, "c": [c]} for g, c in [(0, 1), (2, 1), (3, -1)]]})
UNIT_16 = json.dumps({
    "coeffs": [
        {"g": g, "m": 2, "c": [c]}
        for g, c in [
            (0, -2), (1, -5), (2, 2), (3, 5), (4, -1), (5, -3), (6, 1), (7, 3),
            (8, 3), (9, 2), (10, 2), (12, 2), (13, 2), (14, 1), (15, -1),
        ]
    ]
})

CASES = [
    (
        ["case", "d8", "--n", "3"],
        "ef8299842a52dc1f77c946fada20a93adf73543ba349ea520aaa32d13e21d59e",
    ),
    (
        ["ring", "scan", ANTICOMMUTING_1, "--support", "4"],
        "abcdf095307396c2c62db973cdfa6ec06da6ca41df274996835d5cdaf499574c",
    ),
    (
        ["ring", "unit", ANTICOMMUTING_2, "--x", UNIT_16],
        "a4557044c15758d496640b22553763dbb5e560bd2697650978e6b3573fc8294b",
    ),
    (
        ["ring", "unit", QUATERNION_8, "--x", LEAF_UNIT_8],
        "6aa4b2ff308ef184dfb27b2352c2ac6376cd8845398442db1230083f9afc8533",
    ),
    (
        ["ring", "torsion", ANTICOMMUTING_1, "--x", ORDER_2],
        "0c626aa145e08536c504a308be1af4eba9b1f08d8d200a6cc83b441bcda08dfa",
    ),
    (
        ["ring", "torsion", ANTICOMMUTING_1, "--x", BICYCLIC],
        "a4c81fea299687aada1e4ec012562244c79eeae71b0c2d4bf0c99bde67d74565",
    ),
    (
        ["ring", "torsion", ANTICOMMUTING_2, "--x", UNIT_16],
        "bb421df3b077c44d72b2ed1ce7fc67f9548979c688caab94625d7c2fa52f42c2",
    ),
    (
        ["units", "finiteness", ANTICOMMUTING_1],
        "4cedb98459db80688299d730e5910853604e27000a41de3be0278eff8304ed7f",
    ),
]


@pytest.mark.parametrize(
    "argv, digest",
    CASES,
    ids=[
        "case d8 n=3",
        "ring scan",
        "ring unit",
        "leaf unit c=8",
        "torsion order 2",
        "torsion bicyclic",
        "torsion dim 16",
        "units finiteness",
    ],
)
def test_component_route_keeps_the_json_bytes(capsys, argv, digest):
    code = run(["--json"] + argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
