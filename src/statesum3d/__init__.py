"""statesum3d: exact state-sum invariants of group-labeled closed 3-manifolds.

The package computes, in exact number-field arithmetic, the state-sum
invariant of a closed oriented 3-manifold equipped with a gauge orbit of
group labelings (equivalently a homotopy class of maps to an aspherical
space with fundamental group G), from skeletal spherical G-graded fusion
data.  It also evaluates colored graphs on the 2-sphere, the matrices of
labeled cobordisms, cylinder projectors with their state space ranks, and
an independent simplicial partition-function oracle for pointed
(group-cocycle) backends.

Module map: exactnum (scalars), catdata (fusion backends), graphcalc
(multiplicity modules and sphere graphs), complexes (triangulations,
skeletons, moves), gauge (gauge classes of labelings), statesum (the closed
invariant), hqft (cobordisms and projectors), oracle (simplicial
cross-check), cli (command line).
"""

from .catdata import (
    CocycleTable,
    FiniteGroup,
    GFusionData,
    GroupHom,
    build_vec_g_theta,
    builtin_category,
    builtin_category_names,
    graduator,
    load_category,
    neutral_dimension,
    push_forward,
    save_category,
    validate_category,
)
from .complexes import (
    MoveSpec,
    Skeleton,
    Triangulation,
    apply_move,
    dual_skeleton,
    pachner,
    parse_skeleton,
    parse_triangulation,
    save_skeleton,
    save_triangulation,
)
from .exactnum import FieldElement, FieldSpec, make_field, root_of_unity
from .gauge import gauge_classes
from .graphcalc import (
    ColoredGraph,
    CyclicCSet,
    MultiplicityBasis,
    VertexTensorSlot,
    evaluate_graph,
    hom_dim,
    rotation_matrix,
)
from .hqft import (
    CobordismSkeleton,
    SurfaceSkeleton,
    builtin_surface,
    build_product_cylinder,
    build_sheet_cylinder,
    cylinder_projector,
    hqft_space_rank,
)
from .oracle import dw_class_value, dw_partition, find_branching, subdivide
from .statesum import closed_invariant, partition_all_classes, unnormalized_invariant

__version__ = "0.1.0"
