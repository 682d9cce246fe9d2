"""The integer structure table against the CycInt loops it replaced.

The twisted product, the regular representation and the projections psi
read plain integer coordinates (g, j, a) of the zeta^j u_g basis off one
per-ring table.  The reference routines below are the coefficient-wise
CycInt loops those kernels replaced, kept here as oracles.
"""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twisted_rings.cli import EXIT_OK, EXIT_USAGE, run
from twisted_rings.cocycles import (
    Cocycle,
    anticommuting_pair_cocycle,
    c2c2_quaternion_cocycle,
    coboundary_twist,
    trivial_cocycle,
    validate_cocycle,
)
from twisted_rings.cyclotomic import PHI_DEGREE, SUPPORTED_CONDUCTORS, CycInt, root_to_cyc
from twisted_rings.extensions import apply_psi, build_extension, build_psi, lin_characters
from twisted_rings.groups import (
    cyclic,
    dihedral8,
    direct_product,
    exponent,
    quaternion8,
    subgroup_closure,
)
from oracles import center, det_solve, quaternion_twist_ring
from twisted_rings.intmat import det_bareiss, solve_exact
from twisted_rings.rings import TwElement, TwRing, regular_rep
from twisted_rings.units import decide_finiteness

# ---------------------------------------------------------------------------
# oracles: the coefficient-wise CycInt loops


def oracle_mul(x: TwElement, y: TwElement) -> TwElement:
    ring = x.ring
    acc: dict[int, CycInt] = {}
    for g, a in x.items():
        for h, b in y.items():
            gh = ring.group.mul[g][h]
            v = a * b * root_to_cyc(ring.cocycle.modulus, ring.cocycle.table[g][h], ring.conductor)
            acc[gh] = acc[gh] + v if gh in acc else v
    z = ring.zero_coeff()
    return TwElement(ring, tuple(acc.get(g, z) for g in ring.group.elements()))


def oracle_regular_rep(x: TwElement) -> tuple[tuple[int, ...], ...]:
    ring = x.ring
    phi = PHI_DEGREE[ring.conductor]
    rows = [[0] * ring.dim for _ in range(ring.dim)]
    for h in ring.group.elements():
        for j in range(phi):
            zj = root_to_cyc(ring.conductor, j, ring.conductor)
            for g, a in x.items():
                c = a * zj * root_to_cyc(
                    ring.cocycle.modulus, ring.cocycle.table[g][h], ring.conductor
                )
                gh = ring.group.mul[g][h]
                for t, v in enumerate(c.coeffs):
                    rows[gh * phi + t][h * phi + j] += v
    return tuple(map(tuple, rows))


def oracle_apply_psi(psi, x: TwElement) -> TwElement:
    m_t = psi.target.cocycle.modulus
    cond = psi.target.conductor
    out = [psi.target.zero_coeff()] * psi.target.group.order
    for gamma, coeff in x.items():
        gq, exp = psi.gamma_images[gamma]
        out[gq] = out[gq] + coeff.embed(cond) * root_to_cyc(m_t, exp, cond)
    return TwElement(psi.target, tuple(out))


def same_coefficients(a: TwElement, b: TwElement) -> bool:
    """Equal coefficient by coefficient, in the same conductor."""
    return a.ring == b.ring and [(c.m, c.coeffs) for c in a.coeffs] == [
        (c.m, c.coeffs) for c in b.coeffs
    ]


# ---------------------------------------------------------------------------
# strategies


def _carry_cocycle(n: int, m: int, k: int) -> Cocycle:
    """alpha(a, b) = zeta_m^k when a + b wraps around in C_n: u_g^n = zeta_m^k."""
    table = tuple(tuple(k % m if a + b >= n else 0 for b in range(n)) for a in range(n))
    return Cocycle(cyclic(n), m, table)


@st.composite
def rings(draw):
    c = draw(st.sampled_from(SUPPORTED_CONDUCTORS))
    m = draw(st.sampled_from([d for d in SUPPORTED_CONDUCTORS if c % d == 0]))
    kind = draw(st.sampled_from(["carry", "trivial", "quaternion", "anticommuting"]))
    if kind == "carry":
        base = _carry_cocycle(draw(st.sampled_from([2, 3, 4])), m, draw(st.integers(0, m - 1)))
    elif kind == "trivial" or m % 2:
        base = trivial_cocycle(draw(st.sampled_from([cyclic(3), dihedral8()])), m)
    elif kind == "quaternion":
        base = c2c2_quaternion_cocycle().rescaled(m)
    else:
        base = anticommuting_pair_cocycle(1).rescaled(m)
    n = base.group.order
    f = [0] + draw(st.lists(st.integers(0, m - 1), min_size=n - 1, max_size=n - 1))
    cocycle = coboundary_twist(base, f)
    assert validate_cocycle(cocycle).ok
    assume(n * PHI_DEGREE[c] <= 32)
    return TwRing(cocycle.group, cocycle, c)


@st.composite
def elements(draw, ring):
    phi = PHI_DEGREE[ring.conductor]
    coeffs = []
    for _ in ring.group.elements():
        if draw(st.booleans()):
            coeffs.append(ring.zero_coeff())
        else:
            vec = draw(st.lists(st.integers(-3, 3), min_size=phi, max_size=phi))
            coeffs.append(CycInt(ring.conductor, tuple(vec)))
    return TwElement(ring, tuple(coeffs))


def _extensions():
    q8, d8 = quaternion8(), dihedral8()
    d8c2 = direct_product(d8, cyclic(2))
    return [
        build_extension(q8, center(q8)),
        build_extension(d8, subgroup_closure(d8, [d8.generators["a"]])),
        build_extension(d8c2, center(d8c2)),
        build_extension(cyclic(16), subgroup_closure(cyclic(16), [2])),
        build_extension(cyclic(6), subgroup_closure(cyclic(6), [2])),
        build_extension(cyclic(12), subgroup_closure(cyclic(12), [4])),
    ]


EXTENSIONS = _extensions()


@st.composite
def psi_maps(draw):
    ext = draw(st.sampled_from(EXTENSIONS))
    chi = draw(st.sampled_from(lin_characters(ext.sub_group, exponent(ext.sub_group))))
    conductor = draw(st.sampled_from([None, 4, 8]))
    try:
        return build_psi(ext, chi, conductor=conductor)
    except ValueError:  # a character that conjugation moves
        assume(False)


# ---------------------------------------------------------------------------
# the kernels against the oracles


@given(rings().flatmap(lambda r: st.tuples(elements(r), elements(r))))
@settings(max_examples=120, deadline=None)
def test_product_matches_the_cycint_loop(pair):
    x, y = pair
    assert same_coefficients(x * y, oracle_mul(x, y))


@given(rings().flatmap(elements))
@settings(max_examples=80, deadline=None)
def test_regular_rep_matches_the_cycint_loop(x):
    assert regular_rep(x).matrix == oracle_regular_rep(x)


@given(psi_maps().flatmap(lambda psi: st.tuples(st.just(psi), elements(psi.source))))
@settings(max_examples=120, deadline=None)
def test_apply_psi_matches_the_cycint_loop(case):
    psi, x = case
    assert same_coefficients(apply_psi(psi, x), oracle_apply_psi(psi, x))


def test_psi_source_and_target_conductors_differ():
    ext = EXTENSIONS[3]  # C8 inside C16, with a faithful character of order 8
    chi = next(c for c in lin_characters(ext.sub_group, 8) if c.value_order() == 8)
    for conductor, pair in ((None, (1, 8)), (4, (4, 8)), (8, (8, 8))):
        psi = build_psi(ext, chi, conductor=conductor)
        assert (psi.source.conductor, psi.target.conductor) == pair
        for gamma in psi.source.group.elements():
            u = psi.source.basis(gamma, CycInt.zeta(psi.source.conductor, 1))
            assert same_coefficients(apply_psi(psi, u), oracle_apply_psi(psi, u))


def test_structure_table_is_per_ring_and_leaves_value_semantics():
    a, b = quaternion_twist_ring(8), quaternion_twist_ring(8)
    phi, roots, twist = a.structure
    assert phi == 4 and len(roots) == 8 and roots[4] == ((0, -1),)
    assert twist[1][1] == 4  # u_g^2 = -1 = zeta_8^4
    assert "structure" in a.__dict__ and "structure" not in b.__dict__
    assert a == b and hash(a) == hash(b)
    assert a.one() == b.one() and len({a.one(), b.one()}) == 1


def test_mixed_conductor_coefficients_are_embedded():
    r = quaternion_twist_ring(8)
    z = r.zero_coeff()
    x = TwElement(r, (CycInt(4, (1, 1)), z, CycInt(4, (0, 1)), z))
    assert all(c.m == 8 for c in x.coeffs)
    y = r.element({0: CycInt(4, (1, 1)), 2: CycInt(4, (0, 1))})
    assert x == y
    assert same_coefficients(x * x, y * y)
    assert repr(x * x) == "1+2*z8^2 + (-2+2*z8^2)*u[h]"


def test_parity_obstruction_verdict_is_decided_once_per_map():
    ext = EXTENSIONS[0]
    chi = lin_characters(ext.sub_group, 2)[1]
    psi = build_psi(ext, chi)
    g = psi.target.group
    expected = decide_finiteness(TwRing(g, trivial_cocycle(g), 2), witness_search=False).finite
    assert psi.target_group_ring_units_finite is expected
    assert psi.__dict__["target_group_ring_units_finite"] is expected


# ---------------------------------------------------------------------------
# det_solve: a zero multiplier with pivot != prev


@pytest.mark.parametrize(
    "mat, rhs",
    [
        ([[2, 1, 0], [1, 2, 0], [0, 0, 1]], [1, 1, 1]),
        ([[2, 1, 0, 1], [1, 2, 0, 0], [0, 0, 1, 2], [0, 1, 0, 3]], [1, 0, 2, 1]),
    ],
)
def test_zero_multiplier_rescales_by_an_exact_quotient(mat, rhs):
    # step 1 has pivot 3 over prev 2 and a zero multiplier in row 2: the
    # row must become 3 * a / 2, which 3 // 2 = 1 times a would get wrong
    d, y = det_solve(mat, rhs)
    assert d == det_bareiss(mat)
    assert [Fraction(v, d) for v in y] == solve_exact(mat, rhs)


# ---------------------------------------------------------------------------
# input edge and output bytes


@pytest.mark.parametrize("m", [5, 0])
def test_unsupported_coefficient_conductor_is_a_usage_error(capsys, m):
    ring = json.dumps({"cocycle": {"builtin": "anticommuting", "n": 0}, "conductor": 2})
    x = json.dumps({"coeffs": [{"g": 0, "m": m, "c": [1]}]})
    assert run(["--json", "ring", "unit", ring, "--x", x]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def _quaternion(conductor: int) -> str:
    return json.dumps({"cocycle": {"builtin": "quaternion"}, "conductor": conductor})


HYPERBOLIC_16 = json.dumps(
    {"coeffs": [{"g": 0, "m": 2, "c": [3]}, {"g": 1, "m": 2, "c": [2]}, {"g": 2, "m": 2, "c": [2]}]}
)
ANTICOMMUTING_2 = json.dumps({"cocycle": {"builtin": "anticommuting", "n": 2}, "conductor": 2})

PINNED = [
    (
        ["ring", "scan", _quaternion(4)],
        "e7eb5d9cab89e2a0af3d74074590edc20c6f24e3fea9873b6911b4727cfc6ece",
    ),
    (
        ["ring", "scan", _quaternion(8)],
        "409f99b83717785a4c66282e00ddbf2232a0b5e9a4912e5328b8896eca2eb1df",
    ),
    (
        ["ring", "scan", _quaternion(12)],
        "787ce8db9813d40859498e6202ae8708e9bd6c7adb57e88780d04315f914bd3b",
    ),
    (  # 3 + 2u_g + 2u_h at dim 16, a unit of infinite order
        ["ring", "torsion", ANTICOMMUTING_2, "--x", HYPERBOLIC_16],
        "8d96794858e53820e69e5e3cf1522e17d49561b219d521958395ac0b6857e77f",
    ),
]


@pytest.mark.parametrize("argv, digest", PINNED, ids=["scan c4", "scan c8", "scan c12", "torsion"])
def test_cyclotomic_report_bytes_are_pinned(capsys, argv, digest):
    assert run(["--json"] + argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
