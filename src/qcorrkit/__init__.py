"""Two-qubit correlated-damping simulations with measurement protection.

Evolves Bell, Werner, maximally-entangled-mixed, and partially entangled
pure states through amplitude-damping channels with a tunable memory
parameter, optionally protected by a weak-measurement / reversal pair;
computes dense-coding capacity, teleportation fidelity, concurrence,
entropic steering, trace-distance discord, and divergence-based
coherence (with brute-force oracles for cross-validation); and trains a
small Levenberg-Marquardt network to predict the discord from the other
five measures.
"""

from .channels import (
    ChannelParams,
    WmrMode,
    WmrParams,
    apply_ad_uncorrelated,
    apply_cad,
    apply_qmr,
    apply_wm,
    wmr_pipeline,
)
from .closed_forms import (
    bell_concurrence_one_qubit,
    bell_concurrence_two_qubit,
    bell_wmr_concurrence,
    verify_closed_forms,
)
from .dataset import Dataset, build_dataset, read_dataset_csv, write_dataset_csv
from .exceptions import (
    DegenerateMeasurementError,
    NumericalContractError,
    TrainingFailure,
    UnsupportedStateError,
)
from .measures import (
    DEFAULT_NORMALIZATION,
    CorrelationVector,
    concurrence,
    correlation_vector,
    normalize,
    trace_distance_discord,
)
from .mlp import (
    Mlp,
    forward,
    init_mlp,
    load_mlp,
    save_mlp,
    weight_summary,
)
from .optimize import OptimizationResult, optimal_qmr
from .states import (
    StateFamily,
    bell_state,
    is_x_state,
    make_state,
    mems_state,
    nme_state,
    random_density_matrix,
    random_x_state,
    werner_state,
)
from .sweep import SweepConfig, run_sweep
from .training import TrainReport, lm_train, restart_search

__version__ = "0.1.0"
