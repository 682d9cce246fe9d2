"""Byte pins of the commands whose units and orders go through the components.

The digests were taken from the full-matrix route, before units were decided
component by component, so they show that the decomposition changes no
output byte: the d8 case study at dim 64, the trace-zero scan of the
anticommuting ring at n = 1, and the inverse of a dim-16 unit of the
anticommuting ring at n = 2 (the tower level 2 ring).
"""

import hashlib
import json

import pytest

from twisted_rings.cli import EXIT_OK, run

ANTICOMMUTING_1 = '{"cocycle": {"builtin": "anticommuting", "n": 1}, "conductor": 2}'
ANTICOMMUTING_2 = '{"cocycle": {"builtin": "anticommuting", "n": 2}, "conductor": 2}'
# (3 + 2u_g + 2u_h) u_x2 (1 + u_hx1 - u_ghx1) (1 - u_gx2 + u_ghx2), full support
# but for ghx2
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
]


@pytest.mark.parametrize("argv, digest", CASES, ids=["case d8 n=3", "ring scan", "ring unit"])
def test_component_route_keeps_the_json_bytes(capsys, argv, digest):
    code = run(["--json"] + argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
