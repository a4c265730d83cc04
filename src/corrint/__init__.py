"""corrint: exact desk-scale set-valued integration.

Aumann integral sets and conditional expectations of finite-valued
correspondences over finite probability spaces with exact rational masses,
the nowhere-equivalence condition and its constructive equivalents, Walsh
calculus, and the explicit large-game construction, each as a
machine-checkable computation.
"""
from ._kernels import KERNEL_PATH
from .correspondences import (
    Correspondence,
    CounterexampleBundle,
    Selection,
    build_counterexample,
)
from .errors import (
    CapacityError,
    ConfigError,
    CorrintError,
    DivisibilityError,
    PreconditionError,
    StructureError,
)
from .game import (
    EquilibriumReport,
    LargeGame,
    StrategyProfile,
    build_counterexample_game,
    case1_indicator_parts,
    find_equilibrium,
    lemma_bound_check,
    verify_equilibrium_partition,
)
from .rcd import TransitionKernel, kernel_mix, rcd_of_selection
from .set_integration import (
    ConditionalSet,
    PointCloudSet,
    aumann_integral_set,
    conditional_expectation,
    conditional_set,
    convexity_gap,
    hausdorff_semidistance,
    integrate_selection,
    lyapunov_mix,
)
from .spaces import (
    DiscreteSpace,
    DyadicModel,
    SigmaPartition,
    is_nowhere_equivalent,
    is_refinement,
)
from .vectors import (
    Workspace,
    basis_vector,
    norm,
    zero_vector,
)
from .walsh import (
    walsh_integral,
    walsh_set,
)

__version__ = "0.1.0"
