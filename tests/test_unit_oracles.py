"""The unit test and the torsion order checked against the routes they replaced.

``torsion_order_by_powers`` raises the regular representation to
lcm{k : phi(k) <= dim} and descends over its prime divisors;
``is_unit_by_fractions`` takes a Bareiss determinant and then solves for the
inverse over the rationals.  Both are kept here unchanged as oracles at dim 8,
where they still run fast.
"""

import json
import signal
import time
from contextlib import contextmanager
from math import lcm
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import quaternion_twist_ring
from twisted_rings.cli import EXIT_OK, run
from twisted_rings.cocycles import trivial_cocycle
from twisted_rings.cyclotomic import PHI_DEGREE, CycInt, euler_phi
from twisted_rings.groups import cyclic
from twisted_rings.intmat import det_bareiss, identity_matrix, mat_pow, solve_exact
from twisted_rings.rings import (
    TwElement,
    TwRing,
    anticommuting_ring,
    is_unit,
    regular_rep,
    torsion_order,
)


def is_unit_by_fractions(x: TwElement) -> Optional[TwElement]:
    """Return the inverse when x is a unit of the Z-order, else None."""
    rep = regular_rep(x)
    d = det_bareiss([list(r) for r in rep.matrix])
    if d not in (1, -1):
        return None
    rhs = [0] * rep.dim
    rhs[0] = 1  # coordinates of u_1 in the zeta^j u_g basis
    sol = solve_exact([list(r) for r in rep.matrix], rhs)
    if sol is None:
        return None
    ring = x.ring
    phi = PHI_DEGREE[ring.conductor]
    coeffs = []
    for g in ring.group.elements():
        vals = sol[g * phi : (g + 1) * phi]
        if any(v.denominator != 1 for v in vals):
            return None
        coeffs.append(CycInt(ring.conductor, tuple(int(v) for v in vals)))
    inv = TwElement(ring, tuple(coeffs))
    if x * inv != ring.one() or inv * x != ring.one():
        raise ArithmeticError("inverse verification failed")
    return inv


def _torsion_exponent_bound(dim: int) -> int:
    """lcm of all k with phi(k) <= dim: any torsion order divides this."""
    bound = 1
    k = 1
    while True:
        k += 1
        if k > 2 * dim * dim + 2:
            break
        if euler_phi(k) <= dim:
            bound = lcm(bound, k)
    return bound


def torsion_order_by_powers(x: TwElement, cap: Optional[int] = None) -> Optional[int]:
    """Multiplicative order of a unit, or None when infinite (or above cap)."""
    if is_unit_by_fractions(x) is None:
        raise ValueError("torsion order requested for a non-unit")
    rep = regular_rep(x)
    mat = [list(r) for r in rep.matrix]
    ident = identity_matrix(rep.dim)
    bound = _torsion_exponent_bound(rep.dim)
    if mat_pow(mat, bound) != ident:
        return None
    order = bound
    p = 2
    rem = bound
    while rem > 1:
        if rem % p:
            p += 1
            continue
        while rem % p == 0:
            rem //= p
        while order % p == 0 and mat_pow(mat, order // p) == ident:
            order //= p
        p += 1
    if cap is not None and order > cap:
        return None
    return order


# ---------------------------------------------------------------------------
# generators at dim 8


def _with_inverses(units):
    return [(u, is_unit_by_fractions(u)) for u in units]


def _anticommuting_generators():
    """+-u_g and the bicyclic units v = 1 + u_h - u_gh, w = 1 + u_h + u_gh
    of Z^alpha[C2^3], with their inverses."""
    ring = anticommuting_ring(1)
    signed = [s * ring.basis(g) for g in ring.group.elements() for s in (1, -1)]
    v = ring.one() + ring.basis(2) - ring.basis(3)
    w = ring.one() + ring.basis(2) + ring.basis(3)
    return ring, _with_inverses(signed), _with_inverses([v, w])


def _quaternion_generators():
    """i^k u_g and the units 1 + b -+ ab of Z[i]^gamma[C2 x C2], where
    a = i u_g and b = i u_h square to 1 and anticommute, with their inverses."""
    ring = quaternion_twist_ring(4)
    i = CycInt.zeta(4)
    rooted = [ring.basis(g, i**k) for g in ring.group.elements() for k in range(4)]
    a, b = ring.basis(1, i), ring.basis(2, i)
    return ring, _with_inverses(rooted), _with_inverses([1 + b - a * b, 1 + b + a * b])


RINGS = {"anticommuting": _anticommuting_generators(), "quaternion": _quaternion_generators()}


@st.composite
def units(draw):
    """A word in the generators of one of the rings, and the word conjugating
    a trivial unit by it (of finite order, but not trivial itself)."""
    ring, trivial, hyperbolic = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    gens = trivial + hyperbolic
    word = draw(st.lists(st.sampled_from(gens), max_size=5))
    x, x_inv = ring.one(), ring.one()
    for g, g_inv in word:
        x, x_inv = x * g, g_inv * x_inv
    t, _ = draw(st.sampled_from(trivial))
    return x, x * t * x_inv


@given(units())
@settings(max_examples=60, deadline=None)
def test_torsion_order_matches_the_power_oracle(pair):
    for x in pair:
        assert torsion_order(x) == torsion_order_by_powers(x)
        assert torsion_order(x, cap=2) == torsion_order_by_powers(x, cap=2)


@given(units())
@settings(max_examples=60, deadline=None)
def test_inverse_matches_the_fraction_oracle(pair):
    for x in pair:
        inv = is_unit(x)
        assert inv is not None and inv == is_unit_by_fractions(x)


@given(
    st.sampled_from(sorted(RINGS)),
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_random_elements_agree_with_both_oracles(name, vec):
    ring = RINGS[name][0]
    x = ring.from_int_vector(vec + [0] * (ring.group.order - len(vec)))
    assert is_unit(x) == is_unit_by_fractions(x)
    try:
        expected = torsion_order_by_powers(x)
    except ValueError:
        with pytest.raises(ValueError):
            torsion_order(x)
    else:
        assert torsion_order(x) == expected


def test_non_units_and_zero_divisors_agree_with_the_fraction_oracle():
    for ring, _, _ in RINGS.values():
        one, ug = ring.one(), ring.basis(1)
        for x in (2 * one, ring.zero(), one + ug, (one + ug) * (one + ring.basis(2))):
            assert is_unit(x) is None
            assert is_unit_by_fractions(x) is None
            with pytest.raises(ValueError):
                torsion_order(x)


def test_units_of_determinant_minus_one():
    for n in (2, 3):
        group = cyclic(n)
        ring = TwRing(group, trivial_cocycle(group), 1)
        for x in (ring.basis(1), -ring.basis(1), -ring.one()):
            if det_bareiss([list(r) for r in regular_rep(x).matrix]) != -1:
                continue
            assert is_unit(x) == is_unit_by_fractions(x) == x ** (2 * n - 1)
            assert torsion_order(x) == torsion_order_by_powers(x)


# ---------------------------------------------------------------------------
# inputs that used to hang


class _TookTooLong(Exception):
    pass


@contextmanager
def _time_limit(seconds: float):
    """Fail instead of hanging: raise _TookTooLong after ``seconds``."""

    def on_alarm(signum, frame):
        raise _TookTooLong(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.perf_counter()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < seconds


def test_hyperbolic_unit_at_dim_16_is_infinite_promptly():
    # about 4 ms on a 2-core x86 VM under Python 3.11
    ring = anticommuting_ring(2)
    x = 3 * ring.one() + 2 * ring.basis(1) + 2 * ring.basis(2)
    with _time_limit(2.0):
        assert torsion_order(x) is None


def test_scan_at_conductor_8_finishes_promptly(capsys):
    # about 0.15 s on a 2-core x86 VM under Python 3.11
    ring = '{"cocycle":{"builtin":"anticommuting","n":0},"conductor":8}'
    with _time_limit(10.0):
        code = run(["ring", "scan", ring, "--json"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["items"][0]["computed"]["violations"] == []
