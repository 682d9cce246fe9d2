import pytest

from oracles import reduced_words, unit_from_nf
from twisted_rings.errors import CapExceededError
from twisted_rings.gl2 import (
    I2,
    MAT_V,
    MAT_W,
    IntMat2,
    SanovWord,
    StallingsGraph,
    congruence_index,
    count_depth_units_mod,
    depth_index_audit,
    factor_unit,
    model_ring,
    nielsen_schreier,
    phi_model,
    phi_model_inverse,
    sanov_membership,
    subgroup_from_generators,
    unit_index_audit,
    word_round_trips,
)
from twisted_rings.rings import anticommuting_ring, is_unit


@pytest.fixture(scope="module")
def ring():
    return model_ring()


@pytest.fixture(scope="module")
def vw(ring):
    v = ring.one() + ring.basis(2) - ring.basis(3)
    w = ring.one() + ring.basis(2) + ring.basis(3)
    return v, w


def test_model_is_multiplicative_on_all_basis_pairs(ring):
    for x in range(4):
        for y in range(4):
            lhs = phi_model(ring.basis(x) * ring.basis(y))
            rhs = phi_model(ring.basis(x)) * phi_model(ring.basis(y))
            assert lhs == rhs


def test_model_is_bijective_onto_the_parity_matrices(ring):
    # surjectivity: every parity-conditioned matrix pulls back
    for mat in (IntMat2(3, 1, -1, 5), IntMat2(0, 2, 0, 4), IntMat2(-1, 0, 0, 1)):
        assert mat.in_dtilde()
        x = phi_model_inverse(ring, mat)
        assert phi_model(x) == mat
    # matrices violating the parity are rejected
    with pytest.raises(ValueError):
        phi_model_inverse(ring, IntMat2(1, 1, 0, 0))
    # injectivity on a small integer box
    seen = set()
    for a in range(-1, 2):
        for b in range(-1, 2):
            for c in range(-1, 2):
                for d in range(-1, 2):
                    m = phi_model(ring.from_int_vector([a, b, c, d]))
                    assert m.entries() not in seen
                    seen.add(m.entries())


def test_model_requires_the_model_ring():
    other = anticommuting_ring(1)
    with pytest.raises(ValueError):
        phi_model(other.one())


def test_images_of_the_free_generators(ring, vw):
    v, w = vw
    assert phi_model(v) == MAT_V
    assert phi_model(w) == MAT_W
    assert phi_model(ring.one()) == I2


def test_sanov_words_roundtrip_exhaustively():
    count = 0
    for word in reduced_words(8):
        mat = word.evaluate()
        assert not mat.is_identity()
        recovered = sanov_membership(mat)
        assert recovered is not None
        assert recovered.letters == word.letters
        count += 1
    assert count == 4 * (3**8 - 1) // 2


def per_word_round_trips(max_length, limit, step_cap):
    """Oracle: every word evaluated and peeled in full."""
    words = failures = 0
    for word in reduced_words(max_length, limit):
        mat = word.evaluate()
        found = sanov_membership(mat, step_cap)
        failures += found is None or found.letters != word.letters
        failures += mat.is_identity()
        words += 1
    return words, failures


@pytest.mark.parametrize(
    "max_length, limit, step_cap",
    [
        (12, 2000, 64), (8, None, 64), (12, 1, 64), (3, 0, 64), (0, None, 64),
        # caps below the word length fail the longer words through the full peel
        (6, 300, 4), (7, None, 5), (5, None, 2), (4, None, 1), (3, None, 0),
    ],
)
def test_word_round_trips_match_the_per_word_loop(max_length, limit, step_cap):
    expected = per_word_round_trips(max_length, limit, step_cap)
    assert word_round_trips(max_length, limit, step_cap) == expected
    assert (expected[1] > 0) == (step_cap <= max_length)


def test_word_round_trips_keep_the_word_length_cap():
    assert word_round_trips(12, limit=2000) == (2000, 0)
    with pytest.raises(CapExceededError):
        word_round_trips(13, limit=1)


def test_sanov_membership_examples(ring, vw):
    v, w = vw
    assert sanov_membership(MAT_W).letters == (("W", 1),)
    sq = sanov_membership(phi_model(v * v))
    assert sq is not None and sq.letters == (("V", 1), ("V", 1))
    assert sanov_membership(IntMat2(1, 0, 0, -1)) is None
    assert sanov_membership(-I2) is None
    with pytest.raises(ValueError):
        sanov_membership(IntMat2(2, 0, 0, 2))


def test_word_arithmetic():
    w = SanovWord((("V", 1), ("W", -1)))
    assert (w * w.inverse()).letters == ()
    assert str(w) == "V.W'"
    with pytest.raises(ValueError):
        SanovWord((("V", 1), ("V", -1)))


def test_factor_unit_normal_forms(ring, vw):
    v, w = vw
    nf = factor_unit(w * is_unit(v))
    assert nf.sign == 1 and nf.gamma == 0
    assert str(nf.word) == "W.V'"
    nf2 = factor_unit(-ring.basis(1))
    assert (nf2.sign, nf2.gamma, nf2.word.letters) == (-1, 1, ())
    nf3 = factor_unit(ring.basis(2) * v)
    assert nf3.gamma == 2 and len(nf3.word) == 1
    # normal forms multiply like the elements they stand for
    x = ring.basis(2) * v
    y = -ring.basis(1) * w
    assert factor_unit(x * y).key() == (factor_unit(x) * factor_unit(y)).key()
    assert unit_from_nf(ring, factor_unit(x)) == x


def test_stallings_membership_and_index():
    # the even-length subgroup: index 2, contains squares and mixed pairs
    gens = [
        SanovWord((("V", 1), ("V", 1))),
        SanovWord((("W", 1), ("W", 1))),
        SanovWord((("V", 1), ("W", -1))),
    ]
    graph = StallingsGraph(gens)
    assert graph.contains(SanovWord((("W", 1), ("V", 1))))
    assert not graph.contains(SanovWord((("V", 1),)))
    assert graph.free_index() == 2
    # the whole group
    whole = StallingsGraph([SanovWord((("V", 1),)), SanovWord((("W", 1),))])
    assert whole.free_index() == 1
    # infinite index: a single generator
    thin = StallingsGraph([SanovWord((("V", 1), ("V", 1)))])
    assert thin.free_index() is None
    assert thin.contains(SanovWord((("V", 1), ("V", 1), ("V", 1), ("V", 1))))
    assert not thin.contains(SanovWord((("V", 1),)))


def test_unit_index_audit_cases(ring, vw):
    v, w = vw
    assert unit_index_audit([v, w], ring).index == 8
    trivials = [ring.basis(g, s) for g in range(4) for s in (1, -1)]
    assert unit_index_audit(trivials + [v, w], ring).index == 1
    image_gens = trivials + [v * v, w * w, w * is_unit(v)]
    assert unit_index_audit(image_gens, ring).index == 2


def test_depth_filtration_maps_into_matrix_congruence(ring, vw):
    v, w = vw
    for depth, unit in ((1, v * v), (2, (v * v) * (v * v)), (1, w * w)):
        mat = phi_model(unit)
        step = 1 << depth
        assert (mat.a - 1) % step == 0 and (mat.d - 1) % step == 0
        assert mat.b % step == 0 and mat.c % step == 0
        shifted = IntMat2(
            (mat.a - 1) // step, mat.b // step, mat.c // step, (mat.d - 1) // step
        )
        assert shifted.in_dtilde()


def test_congruence_enumeration_small_levels():
    rep = congruence_index(2)
    assert rep.levels[0].gl2_size == 6
    assert rep.levels[1].gl2_size == 96
    assert rep.levels[0].det_pm1_size == 6
    assert rep.levels[1].det_pm1_size == 96
    assert rep.successive_quotients == (16,)
    # the published closed form over-counts at level 2 and is flagged
    assert rep.levels[1].published_index == 192
    assert any("192" in d for d in rep.discrepancies)


def test_congruence_kernel_multiplicativity():
    rep = congruence_index(2)
    kernel = rep.levels[1].det_pm1_size // rep.levels[0].det_pm1_size
    assert kernel * rep.levels[0].gl2_size == rep.levels[1].det_pm1_size


def test_congruence_cap():
    with pytest.raises(CapExceededError):
        congruence_index(5)


def test_depth_audit_cap():
    # the ceiling itself still runs: its residue tables have 2^18 entries
    assert depth_index_audit(16).depth_indices == (8,) * 16
    with pytest.raises(CapExceededError):
        depth_index_audit(17)


def test_nielsen_schreier_values():
    assert nielsen_schreier(3, 8) == 17
    assert nielsen_schreier(5, 1) == 5
    assert nielsen_schreier(2, 24) == 25
    with pytest.raises(ValueError):
        nielsen_schreier(0, 3)


def test_depth_index_audit_certifies_and_flags():
    audit = depth_index_audit(3)
    assert audit.depth_indices == (8, 8, 8)
    assert audit.sandwich_indices == (4, 2, 2)
    assert audit.free_ranks == (3, 9, 65, 513)
    # the in-proof case split (16 at depth 1), the blanket sandwich index 2,
    # and the closed-form ranks all get flagged against the enumeration
    assert any("16" in f for f in audit.flagged)
    assert any("sandwich" in f for f in audit.flagged)
    assert any("rank" in f for f in audit.flagged)


def test_depth_one_index_agrees_with_unit_side_bfs(ring, vw):
    # independent certification of [U_1 : U_2] = 8 inside the unit group
    v, w = vw
    def in_depth(x, k):
        diff = x - ring.one()
        if any(any(val % (1 << k) for val in c.coeffs) for c in diff.coeffs):
            return False
        return is_unit(x) is not None

    gens = [v * v, w * w, w * is_unit(v), -ring.one()]
    gens += [is_unit(g) for g in list(gens)]
    reps = [ring.one()]
    queue = [ring.one()]
    while queue:
        cur = queue.pop(0)
        for g in gens:
            cand = cur * g
            if not any(in_depth(cand * is_unit(r), 2) for r in reps):
                reps.append(cand)
                queue.append(cand)
        assert len(reps) <= 16
    assert len(reps) == 8
    ratio = count_depth_units_mod(1, 8) // count_depth_units_mod(2, 8)
    assert ratio == len(reps)


def test_subgroup_from_mixed_generators_needs_full_trivial_part(ring, vw):
    v, _ = vw
    mixed = factor_unit(ring.basis(1) * v)
    with pytest.raises(ValueError):
        subgroup_from_generators([mixed])


def test_stallings_graphs_contain_their_generated_subgroup():
    import random

    rng = random.Random(4)
    letters = [("V", 1), ("V", -1), ("W", 1), ("W", -1)]

    def random_word(max_len):
        out = []
        for _ in range(rng.randint(1, max_len)):
            cand = letters[rng.randrange(4)]
            if out and out[-1][0] == cand[0] and out[-1][1] == -cand[1]:
                continue
            out.append(cand)
        return SanovWord(tuple(out))

    for _ in range(20):
        gens = [random_word(5) for _ in range(rng.randint(1, 3))]
        graph = StallingsGraph(gens)
        for g in gens:
            assert graph.contains(g)
            assert graph.contains(g.inverse())
        for _ in range(10):
            a = gens[rng.randrange(len(gens))]
            b = gens[rng.randrange(len(gens))]
            product = (a if rng.randrange(2) else a.inverse()) * b
            assert graph.contains(product)


def test_normal_form_arithmetic_mirrors_the_ring(ring, vw):
    import random

    v, w = vw
    pool = [
        v,
        w,
        is_unit(v),
        -ring.one(),
        ring.basis(1),
        ring.basis(2) * w,
        -ring.basis(3) * v * w,
    ]
    rng = random.Random(2)
    for _ in range(25):
        x = pool[rng.randrange(len(pool))]
        y = pool[rng.randrange(len(pool))]
        assert factor_unit(x * y).key() == (factor_unit(x) * factor_unit(y)).key()
        nf = factor_unit(x)
        assert (nf * nf.inverse()).is_identity()
        assert unit_from_nf(ring, nf.inverse()) == is_unit(x)
