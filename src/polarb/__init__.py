"""polarb: exact computations on finite classical polar spaces.

Generator catalogs, association-scheme eigenmatrices, Hoffman-type bounds for
cross-intersecting Erdos-Ko-Rado sets, and complete extremal searches at desk
scale.  Everything numeric is exact (big integers and rationals).
"""

from .families import FAMILIES, TAU, normalize_family, space_label
from .ff import FieldSpec, field_make, field_of_order
from .geom import (
    GeneratorCatalog,
    PolarSpace,
    Subspace,
    enumerate_generators,
    generators_through,
    is_singular,
    is_totally_isotropic,
    perp,
    polar_space_make,
)
from .qcount import (
    EigenData,
    disjointness_eigenvalue,
    eigen_data,
    eigenvalue_P_entry,
    gaussian,
    generators_on_point,
    lemma9_triple,
    lemma_bound_gens_check,
    num_generators,
    num_points,
)
from .scheme import RelationData, build_relations, check_intersection_numbers, eigenspace_support, verify_spectrum
from .specbound import (
    BoundReport,
    classical_bound,
    hermitian_cross_report,
    hermitian_ekr_bound,
    hermitian_params,
    hermitian_weighted_matrix,
    hoffman_cross_bound,
)
from .extremal import (
    CrossGraph,
    CrossPairCertificate,
    bipartition_latins_greeks,
    cross_closure,
    cross_graph,
    enumerate_maximal_cross_pairs,
    example_h7_sizes,
)

__version__ = "0.1.0"
