import pytest

from oracles import group_to_json
from twisted_rings.groups import (
    all_subgroups,
    build_group,
    build_preset,
    centralizer,
    cyclic,
    dihedral8,
    dihedral8_times_c2n,
    direct_product,
    element_order,
    elementary_abelian_2,
    exponent,
    group_from_json,
    hom_from_gen_images,
    is_abelian,
    is_dedekind,
    is_hamiltonian_2group,
    is_normal,
    is_subgroup,
    order_histogram,
    quaternion8,
    quotient,
    subgroup_as_group,
    subgroup_closure,
)


def test_trivial_cyclic():
    g = build_preset("cyclic", [1])
    assert g.order == 1
    assert g.mul == ((0,),)


def test_dihedral8_relations():
    g = dihedral8()
    a, b = g.generators["a"], g.generators["b"]
    assert element_order(g, a) == 4
    assert element_order(g, b) == 2
    # a^b = a^-1
    conj = g.mul[g.mul[g.inv[b]][a]][b]
    assert conj == g.inv[a]


def test_elementary_abelian_rank4():
    g = build_preset("elementary_abelian_2", [4])
    assert g.order == 16
    assert all(element_order(g, x) == 2 for x in range(1, 16))


def test_order_histograms_distinguish_the_two_order8_groups():
    assert order_histogram(dihedral8()) == {1: 1, 2: 5, 4: 2}
    assert order_histogram(quaternion8()) == {1: 1, 2: 1, 4: 6}


def test_identity_element_order():
    assert element_order(dihedral8(), 0) == 1


def test_quotient_d8_by_center():
    g = dihedral8()
    a2 = g.mul[g.generators["a"]][g.generators["a"]]
    center_sub = subgroup_closure(g, [a2])
    q, proj = quotient(g, center_sub)
    assert q.order == 4
    assert all(element_order(q, x) == 2 for x in range(1, 4))
    assert proj.is_surjective()
    assert proj.kernel() == center_sub


def test_quotient_by_identity_is_isomorphic_copy():
    g = dihedral8()
    q, proj = quotient(g, {0})
    assert q.order == g.order
    assert proj.map == tuple(range(8))


def test_quotient_c2c2_by_factor():
    g = elementary_abelian_2(2)
    q, _ = quotient(g, {0, g.generators["g"]})
    assert q.order == 2


def test_centralizers_in_d8():
    g = dihedral8()
    a, b = g.generators["a"], g.generators["b"]
    a2 = g.mul[a][a]
    assert centralizer(g, a2) == frozenset(range(8))
    assert centralizer(g, b) == frozenset({0, a2, b, g.mul[a2][b]})


def test_centralizer_in_abelian_group_is_everything():
    g = cyclic(6)
    assert centralizer(g, 3) == frozenset(range(6))


def test_hom_counts_image_times_kernel():
    g = dihedral8()
    a2 = g.mul[g.generators["a"]][g.generators["a"]]
    _, proj = quotient(g, subgroup_closure(g, [a2]))
    assert len(proj.image()) * len(proj.kernel()) == g.order


def test_quotient_section_composes_to_identity():
    g = dihedral8_times_c2n(1)
    a2 = 2 * 2  # a^2 paired with trivial y-part
    q, proj = quotient(g, subgroup_closure(g, [a2]))
    section = [min(x for x in g.elements() if proj.map[x] == t) for t in q.elements()]
    assert all(proj.map[section[t]] == t for t in q.elements())


def test_subgroup_checks():
    g = dihedral8()
    b = g.generators["b"]
    assert is_subgroup(g, {0, b})
    assert not is_normal(g, {0, b})
    a2 = g.mul[g.generators["a"]][g.generators["a"]]
    assert is_normal(g, {0, a2})
    assert not is_subgroup(g, {0, g.generators["a"]})


def test_subgroup_counts():
    # 10 subgroups of the dihedral group, 6 of the quaternion group
    assert len(all_subgroups(dihedral8())) == 10
    assert len(all_subgroups(quaternion8())) == 6


def test_dedekind_and_hamiltonian():
    assert not is_dedekind(dihedral8())
    assert is_dedekind(quaternion8(), exhaustive=True)
    assert is_hamiltonian_2group(quaternion8())
    assert not is_hamiltonian_2group(dihedral8())
    assert not is_hamiltonian_2group(elementary_abelian_2(3))
    q8xc2 = direct_product(quaternion8(), cyclic(2))
    assert is_hamiltonian_2group(q8xc2)


def test_exponent_and_abelian():
    assert exponent(dihedral8()) == 4
    assert not is_abelian(dihedral8())
    assert is_abelian(elementary_abelian_2(3))


def test_subgroup_as_group_roundtrip():
    g = dihedral8()
    a = g.generators["a"]
    sub, embed = subgroup_as_group(g, subgroup_closure(g, [a]))
    assert sub.order == 4
    for x in sub.elements():
        for y in sub.elements():
            assert embed.map[sub.mul[x][y]] == g.mul[embed.map[x]][embed.map[y]]


def test_hom_from_generator_images():
    gamma = dihedral8()
    target = elementary_abelian_2(2)
    h = hom_from_gen_images(
        gamma, target, {gamma.generators["a"]: 3, gamma.generators["b"]: 1}
    )
    assert h.is_surjective()
    assert len(h.kernel()) == 2


def test_bad_tables_rejected():
    with pytest.raises(ValueError):
        build_group([[0, 1], [1, 1]])  # not a latin square / no inverse
    with pytest.raises(ValueError):
        build_group([[1, 0], [0, 1]])  # 0 not the identity
    # associativity violation: order-3 latin square with identity but broken
    with pytest.raises(ValueError):
        build_group([[0, 1, 2], [1, 2, 0], [2, 1, 0]])


def test_preset_validation():
    with pytest.raises(ValueError):
        build_preset("frobnicate")
    with pytest.raises(ValueError):
        build_preset("cyclic", [])


def test_json_roundtrip():
    g = quaternion8()
    data = group_to_json(g)
    h = group_from_json(data)
    assert h.mul == g.mul
    assert h.labels == g.labels
    p = group_from_json({"preset": "dihedral8"})
    assert p.order == 8


def test_direct_product_labels_and_generators():
    g = dihedral8_times_c2n(2)
    assert g.order == 32
    assert "y1" in g.generators and "y2" in g.generators
    assert element_order(g, g.generators["y1"]) == 2


def test_direct_product_preset_of_cyclic_factors():
    g = build_preset("direct_product", [2, 3])
    assert g.order == 6
    assert sorted(order_histogram(g).items()) == [(1, 1), (2, 1), (3, 2), (6, 2)]


def test_non_abelian_quotient():
    g = dihedral8_times_c2n(1)
    y1 = g.generators["y1"]
    q, _ = quotient(g, {0, y1})
    assert q.order == 8
    assert order_histogram(q) == {1: 1, 2: 5, 4: 2}


def test_large_groups_use_sampled_validation():
    g = elementary_abelian_2(7)
    assert g.order == 128
    assert element_order(g, 127) == 2
