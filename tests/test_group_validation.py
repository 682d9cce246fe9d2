"""Group-table validation is exact at every order, and the Hamiltonian test
agrees with the exhaustive subgroup check."""

import json

import pytest

from twisted_rings.cli import EXIT_OK, EXIT_USAGE, run
from twisted_rings.groups import (
    build_group,
    cyclic,
    dihedral8,
    direct_product,
    elementary_abelian_2,
    is_abelian,
    is_dedekind,
    is_hamiltonian_2group,
    quaternion8,
)


def _perturbed_c2_power(rank: int, x: int, y: int, value: int) -> list[list[int]]:
    """C2^rank with the one entry x * y changed to value.  Identity and
    inverses survive, so only the associativity check can reject it."""
    mul = [[i ^ j for j in range(1 << rank)] for i in range(1 << rank)]
    mul[x][y] = value
    return mul


def _perturbed_c2_8() -> list[list[int]]:
    return _perturbed_c2_power(8, 3, 5, 7)


@pytest.mark.parametrize(
    "mul",
    [
        _perturbed_c2_8(),
        # every failing triple has an id >= 64
        _perturbed_c2_power(7, 100, 101, 2),
    ],
    ids=["C2^8 3*5=7", "C2^7 100*101=2"],
)
def test_non_associative_table_above_order_64_is_rejected(mul):
    with pytest.raises(ValueError, match="associativity fails"):
        build_group(mul)


def test_group_validate_exits_2_on_the_perturbed_order_256_table(capsys, tmp_path):
    path = tmp_path / "c2_8_perturbed.json"
    path.write_text(json.dumps({"mul": _perturbed_c2_8()}), encoding="utf-8")
    assert run(["--json", "group", "validate", str(path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "associativity fails" in err


def test_valid_table_above_order_64_still_validates(capsys):
    preset = json.dumps({"preset": "elementary_abelian_2", "params": [7]})
    assert run(["--json", "group", "validate", preset]) == EXIT_OK
    computed = json.loads(capsys.readouterr().out)["items"][0]["computed"]
    assert computed == {"abelian": True, "order": 128}


@pytest.mark.parametrize(
    "group",
    [
        quaternion8(),
        dihedral8(),
        elementary_abelian_2(3),
        direct_product(quaternion8(), cyclic(2)),
        direct_product(quaternion8(), cyclic(4)),
        direct_product(dihedral8(), cyclic(2)),
        direct_product(direct_product(quaternion8(), cyclic(2)), cyclic(2)),
        cyclic(8),
        cyclic(6),
    ],
    ids=lambda g: g.name,
)
def test_hamiltonian_test_matches_the_exhaustive_subgroup_check(group):
    n = group.order
    expected = (
        n & (n - 1) == 0
        and not is_abelian(group)
        and is_dedekind(group, exhaustive=True)
    )
    assert is_hamiltonian_2group(group) == expected
