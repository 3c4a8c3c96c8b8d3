"""syzkit: exact-arithmetic syzygy and finitistic-dimension calculator for
finite-dimensional path algebras with monomial/binomial relations, including
the tiled-classical-order pipeline."""

from .algebra import AlgebraPresentation, Quiver, Relation, build_algebra
from .decompose import (EndRing, IsoClassRegistry, end_ring, is_indecomposable,
                        is_isomorphic, iso_witness, krull_schmidt,
                        modules_isomorphic, radical_of_end, registry_for,
                        split_once)
from .graphs import layered_graph
from .homology import (PdimResult, ResolutionTrace, ext_dims, idim_both_sides,
                       pdim, poincare_betti_truncated, projective_cover,
                       resolve, syzygy, tor1_dim)
from .modules import (ModMorphism, RepModule, direct_sum, hom_basis, hom_dim,
                      projective_module, radical_filtration, simple_module,
                      socle_counts, tensor_dim, top_counts, zero_module)
from .orders import (ExponentMatrix, ValuedQuiver, gldim_certificate,
                     min_path_values, order_report,
                     presentation_from_valued_quiver,
                     valued_quiver_from_exponents)
from .ratmat import QMatrix, rowspace_contains
from .repetition import (SyzygyCatalog, TransitionSystem, build_catalog,
                         build_transition_system, contingency, findim_bounds,
                         pdim_from_transition, pdim_via_contingency,
                         repetition_index, stabilization_bound, syzygy_type,
                         tor_count_vector)

__version__ = "0.1.0"
