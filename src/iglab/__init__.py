"""iglab: a numerical laboratory for weighted-graph Laplacians.

Intrinsic path metrics, Dirichlet form identities, boundary capacities of
truncated infinite graphs, Minkowski codimension of the metric boundary, and
classification of graph families against self-adjointness and Markov
uniqueness criteria.
"""

__version__ = "0.1.0"

from .errors import (FamilyDefinitionError, InputError, NumericalError,
                     UnsupportedFamilyError)
from .graphs import (End, GraphFamily, LineFamily, RayFamily, WeightedGraph,
                     dump_path, dumps, load_family_config, load_path, loads)
from .metrics import (EdgeLengths, IntrinsicCertificate, PathMetric,
                      custom_lengths, discovered_jump_size, intrinsic_check,
                      natural_scaled, sigma0, sigma1, strongly_intrinsic_check)
from .forms import (VertexFunction, caccioppoli_check, cutoff_eta, energy,
                    form_report, gradient_pairing_all, gradient_sq_all,
                    green_identity_check, laplacian_all, leibniz_check,
                    norm_sq, qnorm)
from .completeness import (boundary_end, find_geodesic, hopf_rinow_report,
                           lengths_for)
from .potential import (boundary_alternative_evidence, boundary_capacity,
                        codim_polarity_test, equilibrium, minkowski_samples)
from .classify import (BUDGETS, Budget, classify, deg_ball_boundedness,
                       harmonic_witness_check, lambda_solve, resolve_budget)
from .gallery import (GOLDEN_RUNS, REGISTRY, RunRecord, StarFamily,
                      build_family, run_gallery, write_record_atomic)
