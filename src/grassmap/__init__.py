"""Betti numbers of genus-0 stable-map moduli for Grassmannian targets.

Two independent computation routes for the Poincare polynomial of the
space of degree-d (d <= 3) genus-0 stable maps to G(k, n):

* `localization` -- exact torus localization: q^(positive tangent weights)
  summed over the fixed decorated trees (`fixedgraphs`), from per-edge,
  per-end and per-vertex terms of the int-encoded tangent weights
  (`weights`), checked for parity, exponent range and the fixed-point
  census; the per-tree assembly stays for `--reports` and as the tests'
  oracle;
* `closedform` -- evaluation of closed-form generating functions.

Both produce exact integer polynomials in q (`qpoly`), with coefficient
of q^i the 2i-th Betti number.  The `grassmap` command line front-end
lives in `cli`, and the self-check suites it runs in `checks`.
"""

from .qpoly import (
    DivisibilityError,
    QPolynomial,
    exact_div,
    partition_sum,
    q_power,
    qbinomial,
    qbinomial_or_zero,
    reverse,
)
from .weights import (
    EmbedMode,
    GrassmannPoint,
    WeightConsistencyError,
    embed_tree,
)
from .fixedgraphs import (
    DecoratedTree,
    Edge,
    UnsupportedDegreeError,
    census_formula,
    count_by_shape,
    enumerate_fixed_graphs,
    fixed_graphs,
    minimal_stratum,
    shape_of,
)
from .localization import (
    FAMILIES,
    embedding_cross_check,
    embedding_verdicts,
    fixed_point_report,
    moduli_dimension,
    poincare_localization,
    stratum_family_contribution,
    tangent_sign_counts,
)
from .closedform import (
    TheoremViolationError,
    closed_form_result,
    repeated_leaf_family_closed_form,
    triangle_family_closed_form,
    triangle_family_index_sum,
)

__version__ = "0.1.0"
