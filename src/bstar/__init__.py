"""Simplicial complex property deciders over exact field arithmetic.

Decides the Cohen-Macaulay / Buchsbaum / Buchsbaum* / Gorenstein* /
homology-manifold hierarchy of finite simplicial complexes over the
rationals or a prime field, computes the associated face-enumeration
vectors (f, h, h', h'', g), tests graph rigidity and connectivity, builds
standard constructions (joins, staircase products, stacked spheres), and
mechanically verifies the known implications between all of these on a
built-in corpus.
"""

from .complexes import (Complex, FaceCountError, components, cone, contrastar, deletion,
                        from_facets, is_flag, join, link, skeleton)
from .constructions import (corpus, cross_polytope, cycle, named, path, product,
                            simplex, simplex_boundary, stacked_sphere,
                            verify_ear_decomposition)
from .homology import (BettiTable, betti, betti_at, contrastar_betti,
                       inclusion_induced_is_zero, relative_betti, relative_surjectivity)
from .linalg import GF2, QQ, FieldSpec
from .properties import (ConsistencyError, PropertyReport, SubsetGuardError,
                         clear_caches, is_buchsbaum, is_buchsbaum_star,
                         is_cohen_macaulay, is_doubly_buchsbaum,
                         is_gorenstein_star, is_homology_manifold,
                         is_m_buchsbaum, is_m_buchsbaum_star,
                         is_m_cohen_macaulay, property_report)
from .rigidity import Graph, graph_of, is_generically_d_rigid, vertex_connectivity
from .theorems import run_battery
from .vectors import (FaceVectorBundle, conjecture_probe, deletion_identity_check,
                      face_vectors, flag_bound_check, lbt_check, m_vector_check,
                      monotonicity_check)

__version__ = "0.1.0"
