"""Manifold learning factored into clustering functors and loss construction.

A pseudometric space is clustered at every distance scale into a hierarchical
overlapping cover; the cover's pairwise membership strengths become a
pairwise embedding loss; a deterministic optimizer produces coordinates.
"""

from .metric import (
    PseudometricSpace,
    from_matrix,
    from_points_euclidean,
    from_sequences_hamming,
    isometry_epsilon,
)
from .covers import (
    Cover,
    HierarchicalCover,
    MembershipMatrix,
    cover_at,
    is_flag_cover,
    make_cover,
    membership_matrix,
    refines,
    target_distances,
)
from .functors import cluster_hierarchy, first_cooccurrence, fuzzy_union_membership
from .loss import (
    CrossEntropyProblem,
    FuzzyLossFamily,
    LossObject,
    StressProblem,
    flatten,
    loss_leq,
    mds_fuzzy_family,
    sign_classification,
)
from .optimize import (
    Embedding,
    OptimizerConfig,
    classical_mds_init,
    minimize,
)
from .algorithms import ALGO_TABLE, PipelineSpec, named_spec, run_pipeline
from .stability import (
    check_interleaving_bound,
    check_loss_transfer,
    interleaving_distance,
)
from .dna import BenchConfig, accuracy, generate, run_bench
from .errors import DisconnectedError, NumericalError, ValidationError

__version__ = "0.1.0"
