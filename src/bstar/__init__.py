"""Simplicial complex property deciders over exact field arithmetic.

Decides the Cohen-Macaulay / Buchsbaum / Buchsbaum* / Gorenstein* /
homology-manifold hierarchy of finite simplicial complexes over the
rationals or a prime field, computes the associated face-enumeration
vectors (f, h, h', h'', g), tests graph rigidity and connectivity, builds
standard constructions (joins, staircase products, stacked spheres), and
mechanically verifies the known implications between all of these on a
built-in corpus.

``import bstar`` loads no submodule.  Each public name resolves on first
use (PEP 562): ``bstar.X``, ``from bstar import X`` and ``from bstar
import *`` import only the module that defines X.
"""

import importlib

# The public names, by the module that defines them.
_EXPORTS = {
    "complexes": ("Complex", "FaceCountError", "components", "cone", "contrastar",
                  "deletion", "from_facets", "is_flag", "join", "link", "skeleton"),
    "constructions": ("corpus", "cross_polytope", "cycle", "named", "path", "product",
                      "simplex", "simplex_boundary", "stacked_sphere",
                      "verify_ear_decomposition"),
    "homology": ("BettiTable", "betti", "betti_at", "contrastar_betti",
                 "inclusion_induced_is_zero", "relative_betti", "relative_surjectivity"),
    "linalg": ("GF2", "QQ", "FieldSpec"),
    "properties": ("ConsistencyError", "PropertyReport", "SubsetGuardError",
                   "clear_caches", "is_buchsbaum", "is_buchsbaum_star",
                   "is_cohen_macaulay", "is_doubly_buchsbaum", "is_gorenstein_star",
                   "is_homology_manifold", "is_m_buchsbaum", "is_m_buchsbaum_star",
                   "is_m_cohen_macaulay", "property_report"),
    "rigidity": ("Graph", "graph_of", "is_generically_d_rigid", "vertex_connectivity"),
    "theorems": ("run_battery",),
    "vectors": ("FaceVectorBundle", "conjecture_probe", "deletion_identity_check",
                "face_vectors", "flag_bound_check", "lbt_check", "m_vector_check",
                "monotonicity_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
