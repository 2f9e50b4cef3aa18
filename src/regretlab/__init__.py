"""regretlab: no-regret learning dynamics with mechanically checked guarantees.

A library and CLI for running decentralized learning in finite normal-form
games (including first-price auctions) and splittable routing games, with
certificates for every guarantee the implemented algorithms carry: per-player
variation bounds, constant sum-of-regrets in self-play, T^{1/4} individual
rates, adversarially robust doubling-wrapper bounds, and smooth-game welfare
floors.
"""

from .auctions import AuctionGame, AuctionSpec, masked_values, uniform_values
from .config import ConfigError, ExperimentSpec, parse_config
from .continuous import (
    CongestionNetwork,
    certify_total_regret,
    gradient,
    linearized_regret,
    lipschitz_constant,
    parse_network,
    run_continuous,
    true_regret,
)
from .costmode import (
    FirstOrderConstants,
    FirstOrderHedge,
    certify_cost_welfare,
    fit_first_order_constants,
)
from .dynamics import (
    RegretReport,
    Trace,
    read_trace_csv,
    regret,
    regret_series,
    report,
    run,
    write_trace_csv,
    write_trace_file,
)
from .experiment import (
    OUTPUT_ROOT_ENV,
    bid_trajectory,
    build_game_from_config,
    run_experiment,
)
from .games import (
    DenseGame,
    EnumerationCapError,
    NormalFormGame,
    SmoothnessCertificate,
    UtilityRangeError,
    brute_force_opt,
    load_dense_csv,
    poa_welfare_bound,
    verify_smoothness,
)
from .learners import (
    BestResponseLearner,
    Certificate,
    FtrlLearner,
    LearnerSpec,
    OmdLearner,
    OnlineLearner,
    VariationBound,
    certify_stability,
    certify_variation_bound,
    declared_variation_bound,
    declares_variation_bound,
    make_learner,
    variation_sums,
)
from .library import (
    build_game,
    lower_bound_experiment,
    make_matrix_game,
    make_random_game,
    splitmix64_floats,
)
from .regularizers import NegativeEntropy, SquaredEuclidean, get_regularizer
from .robust import (
    DoublingWrapper,
    certify_robust,
    parametric_constants,
    wrap_doubling,
)

__version__ = "0.1.0"

__all__ = [
    "AuctionGame", "AuctionSpec", "masked_values", "uniform_values",
    "ConfigError", "ExperimentSpec", "parse_config",
    "CongestionNetwork", "certify_total_regret", "gradient", "linearized_regret",
    "lipschitz_constant", "parse_network", "run_continuous", "true_regret",
    "FirstOrderConstants", "FirstOrderHedge", "certify_cost_welfare",
    "fit_first_order_constants",
    "RegretReport", "Trace", "read_trace_csv", "regret", "regret_series", "report",
    "run", "write_trace_csv", "write_trace_file",
    "OUTPUT_ROOT_ENV", "bid_trajectory", "build_game_from_config",
    "run_experiment",
    "DenseGame", "EnumerationCapError", "NormalFormGame", "SmoothnessCertificate",
    "brute_force_opt", "load_dense_csv", "poa_welfare_bound",
    "verify_smoothness", "UtilityRangeError",
    "BestResponseLearner", "Certificate", "FtrlLearner", "LearnerSpec",
    "OmdLearner", "OnlineLearner", "VariationBound", "certify_stability",
    "certify_variation_bound", "declared_variation_bound", "declares_variation_bound",
    "make_learner", "variation_sums",
    "build_game", "lower_bound_experiment", "make_matrix_game", "make_random_game",
    "splitmix64_floats",
    "NegativeEntropy", "SquaredEuclidean", "get_regularizer",
    "DoublingWrapper", "certify_robust", "parametric_constants", "wrap_doubling",
    "__version__",
]
