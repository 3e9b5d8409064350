"""rwlab: a numerical laboratory for discrete-time birth-death chains, the
polynomial families they generate, and the Christoffel functions of their
orthogonality measures."""

from .chains import (
    ChainSpec,
    CoeffRule,
    DivergenceVerdict,
    asymptotic_aperiodicity_sum,
    is_periodic,
    killing_sum,
    potential_coefficients,
    rj_over_pj_sum,
    rule,
    series_L,
)
from .limits import LimitEstimate, estimate_limit
from .measures import (
    DiscreteMeasure,
    TransitionQuery,
    compute_Cn,
    cn_series,
    L_functional,
    moment,
    monte_carlo_transition,
    quadrature_from_chain,
    srlp_predicted_limit,
    transition_probability,
)
from .polynomials import (
    EvalTrace,
    SupportEdges,
    absorption_probabilities,
    cd_identity_residual,
    christoffel,
    christoffel_ratio_sequence,
    eval_Q,
    leading_coefficient,
    q_at_one_growth,
    support_edges,
)
from .recover import (
    ChainRecovery,
    RecurrenceCoefficients,
    WeightSpec,
    chain_from_recurrence,
    discretize_weight,
    grid_size_for_depth,
    make_weight,
    recover_chain,
    stieltjes_recurrence,
)
from .normalization import NormalizedChain, normalize, tilde_polynomials
from .asymptotics import (
    ConjectureReport,
    EdgeExponents,
    blumenthal_edges,
    conjecture_report,
    edge_exponents,
    edge_scaled_christoffel,
    predicted_cn_limit,
    ratio_vanishing_criterion,
    regularity_check,
)

__version__ = "0.1.0"
