"""Exact torsion-weighted spanning tree and forest enumeration for cell complexes.

The package computes, with exact integer and rational arithmetic throughout:

* forest counts weighted by squared codimension-1 torsion, by reduced
  determinants, eigenvalue products, alternating products, image-lattice
  restrictions, and cobase expansions (``matrix_forest``);
* the brute-force censuses those formulas are checked against (``oracle``);
* homology with torsion, tree and forest predicates (``homology``);
* generators and closed-form counts for the classical families: simplex
  skeletons, complete colorful complexes, hypercubes, shifted complexes,
  Ferrers graphs, matroid independence complexes (``families``);
* critical groups, cut and flow lattices, discriminant groups
  (``critical``).
"""

from .linalg import (
    CharPoly,
    Matrix,
    SNFResult,
    char_poly,
    column_lattice_basis,
    covolume_squared,
    det,
    invariant_factors,
    kernel_lattice_basis,
    pseudodet,
    rank,
    smith_normal_form,
)
from .complexes import (
    ChainComplex,
    SimplicialComplex,
    WeightAssignment,
    boundary_matrix,
    compile_complex,
    delete_and_link,
    dual_complex,
    from_facets,
    is_shifted,
    laplacian,
    relative_boundary,
    skeleton,
    weighted_laplacian,
    weighted_laplacian_similar,
)
from .homology import (
    HomologySummary,
    betti,
    is_maximal_spanning_forest,
    is_spanning_forest,
    is_spanning_tree,
    is_z_apc,
    relative_homology_torsion,
    torsion,
)
from .oracle import (
    CapExceeded,
    DEFAULT_CAP,
    ForestCensus,
    RootedForest,
    cobase_defect_enumerator,
    cobase_kernel_defect,
    count_orientations,
    enumerate_cobases,
    enumerate_forests,
    enumerate_rooted_forests,
    rooted_forest_torsion_sums,
    tau_bruteforce,
    tau_weighted_bruteforce,
)
from .matrix_forest import (
    HypothesisError,
    TauReport,
    default_root,
    graph_matrix_tree,
    rooted_forest_polynomial,
    tau,
    tau_algebraic_weighted,
    tau_alternating,
    tau_cobase,
    tau_cobase_spectral,
    tau_covolume,
    tau_pseudodet,
    tau_reduced,
    tau_weighted_alternating,
)
from .critical import (
    AbelianGroupStructure,
    critical_group,
    critical_group_reduced,
    cut_lattice,
    discriminant_group,
    flow_lattice,
    fundamental_vectors,
    sequence_order_check,
)

__version__ = "0.1.0"
