"""The public names of the package, pinned: dropping or adding one takes
an edit here."""

import importlib
import types

import bstar

PUBLIC = {
    "BettiTable", "Complex", "ConsistencyError", "FaceCountError", "FaceVectorBundle",
    "FieldSpec", "GF2", "Graph", "PropertyReport", "QQ", "SubsetGuardError",
    "betti", "betti_at", "clear_caches", "components", "cone", "conjecture_probe",
    "contrastar", "contrastar_betti", "corpus", "cross_polytope", "cycle", "deletion",
    "deletion_identity_check", "face_vectors", "flag_bound_check", "from_facets",
    "graph_of", "inclusion_induced_is_zero", "is_buchsbaum", "is_buchsbaum_star",
    "is_cohen_macaulay", "is_doubly_buchsbaum", "is_flag", "is_generically_d_rigid",
    "is_gorenstein_star", "is_homology_manifold", "is_m_buchsbaum", "is_m_buchsbaum_star",
    "is_m_cohen_macaulay", "join", "lbt_check", "link", "m_vector_check",
    "monotonicity_check", "named", "path", "product", "property_report", "relative_betti",
    "relative_surjectivity", "run_battery", "simplex", "simplex_boundary", "skeleton",
    "stacked_sphere", "verify_ear_decomposition", "vertex_connectivity",
}

MODULES = ("cli", "complexes", "constructions", "homology", "linalg", "properties",
           "rigidity", "theorems", "vectors")


def test_public_names_of_the_package():
    # the package resolves its names on first use, so they are read from
    # __all__ and dir(), not from the names resolved so far
    assert set(bstar.__all__) == PUBLIC
    # submodules become attributes of the package as they are imported
    listed = {name for name in dir(bstar) if not name.startswith("_")
              and not isinstance(getattr(bstar, name), types.ModuleType)}
    assert listed == PUBLIC
    for name in PUBLIC:
        value = getattr(bstar, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("bstar.") and vars(home)[name] is value, name


def test_every_exported_name_exists():
    for module in MODULES:
        mod = importlib.import_module(f"bstar.{module}")
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert missing == [], module
