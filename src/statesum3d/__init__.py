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

Importing the package runs no submodule.  The names below are re-exported
from their modules (``_EXPORTS``); the module-level ``__getattr__`` (PEP
562) imports a name's module when the name is first looked up and stores
the name here, so that later lookups are plain.  Only
:class:`InternalError` is defined here, so that the command line can catch
it without importing the evaluator.
"""

from importlib import import_module

__version__ = "0.1.0"


class InternalError(Exception):
    """A broken internal invariant of the evaluator: a bug, never a
    property of the input."""


_EXPORTS = {
    "catdata": ("CocycleTable", "FiniteGroup", "GFusionData", "GroupHom", "build_vec_g_theta",
                "builtin_category", "builtin_category_names", "graduator", "load_category",
                "neutral_dimension", "push_forward", "save_category", "validate_category"),
    "complexes": ("MoveSpec", "Skeleton", "Triangulation", "apply_move", "dual_skeleton",
                  "pachner", "parse_skeleton", "parse_triangulation", "save_skeleton",
                  "save_triangulation"),
    "exactnum": ("FieldElement", "FieldSpec", "make_field", "root_of_unity"),
    "gauge": ("gauge_classes",),
    "graphcalc": ("ColoredGraph", "CyclicCSet", "MultiplicityBasis", "VertexTensorSlot",
                  "evaluate_graph", "hom_dim", "rotation_matrix"),
    "hqft": ("CobordismSkeleton", "SurfaceSkeleton", "builtin_surface", "build_product_cylinder",
             "build_sheet_cylinder", "cylinder_projector", "hqft_space_rank"),
    "oracle": ("dw_class_value", "dw_partition", "find_branching", "subdivide"),
    "statesum": ("closed_invariant", "partition_all_classes", "unnormalized_invariant"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["InternalError", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return list(__all__)
