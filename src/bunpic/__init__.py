"""bunpic: exact discrete invariants of moduli stacks of principal bundles.

Computes, for a reductive group G, a component class in pi_1(G), and the
numerical invariants of a family of curves: Picard/Neron-Severi lattice data,
the weight-homomorphism cokernel (gerbe obstruction), and the Poincare-bundle
criterion, all in exact integer arithmetic.
"""

from .exact_algebra import (
    FGAbelianGroup,
    IntMatrix,
    Lattice,
    hermite_normal_form,
    saturation,
    smith_normal_form,
    solve_congruence_sublattice,
)
from .family import (
    CurveFamily,
    family_from_preset,
    hypothesis_check,
    validate_family,
)
from .gerbe import (
    GerbeReport,
    GradedPieces,
    evaluation_cokernel,
    evaluation_cokernel_table,
    poincare_bundle_exists,
    rigidified_picard,
    weight_cokernel,
)
from .invariant_forms import (
    BilinearForm,
    FormLattice,
    NSGroup,
    basic_inner_product,
    conditional_form_lattice,
    d_even_forms,
    even_invariant_forms,
    invariant_sym_forms,
    ns_bun,
    ns_bun_p1,
    ns_rigidified,
)
from .picard import (
    HypothesisNotSatisfied,
    PicardReport,
    TautClass,
    relation_3_4_check,
    reductive_picard,
    taut_gamma,
    taut_rho,
    taut_weight,
    torus_picard,
    torus_picard_genus0,
)
from .root_datum import (
    CrossDiagram,
    Pi1Element,
    ReductiveGroupData,
    SimpleType,
    build_group,
    cross_diagram,
    divisibility,
    fundamental_group,
    generic_lift,
    group_from_json,
    is_generic,
    parse_group_spec,
    with_central_torus,
)

__version__ = "0.1.0"
