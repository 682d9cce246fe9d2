"""Exact arithmetic for twisted group rings of small finite groups."""

__version__ = "0.1.0"

from .cyclotomic import CycInt, RootOfUnity, galois_apply, is_root_of_unity
from .groups import (
    FiniteGroup,
    GroupHom,
    Section,
    build_preset,
    centralizer,
    cyclic,
    dihedral8,
    direct_product,
    element_order,
    elementary_abelian_2,
    quaternion8,
    quotient,
)
from .cocycles import (
    Cocycle,
    LinearCharacter,
    are_cohomologous,
    build_G_alpha,
    coboundary_twist,
    cocycle_order,
    cocycle_power,
    inflate,
    restrict,
    transgress,
    trivial_cocycle,
    validate_cocycle,
)
from .rings import (
    TwElement,
    TwRing,
    conj_character,
    cyclic_sum,
    is_unit,
    partition_by_self_twist,
    regular_rep,
    torsion_order,
)
from .extensions import (
    ExtensionData,
    PsiMap,
    apply_psi,
    build_extension,
    build_psi,
    component_table,
    kernel_basis,
    kernel_finiteness_predicate,
    lin_characters,
    perlis_walker_counts,
    torsion_kernel_units,
)
from .units import (
    BicyclicSpec,
    FinitenessVerdict,
    decide_finiteness,
    galois_twist_iso,
    generalized_bicyclic,
    minimal_twisted_bicyclic,
    parity_obstruction,
    twisted_bicyclic,
)
from .tower import build_tower, kernel_embed, split_unit, u_group_membership, u_split
from .gl2 import (
    IntMat2,
    SanovWord,
    congruence_index,
    nielsen_schreier,
    phi_model,
    sanov_membership,
    unit_index_audit,
)
from .d8_case import AuditItem, c2c2_audit, congruence_audit, d8_case_study
from .errors import CAPS, CapExceededError, Caps

# nothing in the package uses intmat; it is loaded so that the benchmark
# tracer finds its spans in sys.modules, and goes when those spans do
from . import intmat

__all__ = [name for name in dir() if not name.startswith("_")]
