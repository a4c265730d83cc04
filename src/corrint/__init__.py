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
    StepFunction,
    build_counterexample,
    build_psi,
    check_measurable,
    dyadic_convexify,
    enumerate_selections,
    selection_count,
)
from .errors import (
    CapacityError,
    ConfigError,
    CorrintError,
    DivisibilityError,
    NoSelectionError,
    PreconditionError,
    StructureError,
)
from .game import (
    EquilibriumReport,
    GenericPayoff,
    LargeGame,
    StrategyProfile,
    best_response,
    build_counterexample_game,
    case1_indicator_parts,
    find_equilibrium,
    lemma_bound_check,
    payoff_G,
    payoff_h,
    verify_equilibrium_partition,
)
from .rcd import TransitionKernel, kernel_distance, kernel_mix, rcd_of_selection
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
    uhc_diagnostic,
)
from .spaces import (
    DiscreteSpace,
    DyadicModel,
    SigmaPartition,
    SupplementPartition,
    build_independent_supplement,
    independence_product_check,
    is_nowhere_equivalent,
    is_refinement,
    restrict,
)
from .vectors import (
    Workspace,
    basis_vector,
    d_w,
    dual_pairing,
    norm,
    rho_w,
    zero_vector,
)
from .walsh import (
    walsh_eval,
    walsh_integral,
    walsh_inverse,
    walsh_set,
    walsh_transform,
)

__version__ = "0.1.0"
