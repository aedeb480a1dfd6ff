"""Betti numbers of genus-0 stable-map moduli for Grassmannian targets.

Two independent computation routes for the Poincare polynomial of the
space of degree-d (d <= 3) genus-0 stable maps to G(k, n):

* `localization` -- exact torus localization: enumerate the fixed
  decorated trees (`fixedgraphs`), read off tangent weights (`weights`),
  count positive ones per fixed point;
* `closedform` -- evaluation of closed-form generating functions.

Both produce exact integer polynomials in q (`qpoly`), with coefficient
of q^i the 2i-th Betti number.  The `grassmap` command line front-end
lives in `cli`.
"""

from .qpoly import (
    DivisibilityError,
    IdentityCheck,
    QPolynomial,
    exact_div,
    partition_sum,
    q_power,
    qbinomial,
    qbinomial_or_zero,
    reverse,
    verify_qbinomial_identities,
)
from .weights import (
    EmbedMode,
    GrassmannPoint,
    TorusWeight,
    WeightConsistencyError,
    WeightMultiset,
    edge_h0_weights,
    embed_tree,
    embedding_weight_delta,
    grassmann_tangent_weights,
)
from .fixedgraphs import (
    DecoratedTree,
    Edge,
    UnsupportedDegreeError,
    census_formula,
    count_by_shape,
    enumerate_fixed_graphs,
    minimal_stratum,
    shape_of,
)
from .localization import (
    FAMILIES,
    FixedPointReport,
    clear_poincare_cache,
    embedding_cross_check,
    fixed_point_report,
    moduli_dimension,
    poincare_localization,
    stratum_family_contribution,
    tangent_sign_counts,
    tangent_weights,
)
from .closedform import (
    ClosedFormResult,
    TheoremViolationError,
    closed_form_result,
    poincare_grassmannian,
    repeated_leaf_family_closed_form,
    triangle_family_closed_form,
    triangle_family_index_sum,
)

__version__ = "0.1.0"
