"""Cross-domain channel estimation for CP-OFDM over time-varying channels.

The package simulates a CP-OFDM link through a doubly dispersive channel and
compares a two-stage delay-Doppler correlation estimator against single-tap
interpolation, full-size LMMSE, and plain TF-domain sparse recovery.
"""

from .grids import Dims, vec, unvec, dft_matrix, tf_to_dd, tf_to_time, time_to_tf, add_cp, remove_cp
from .channel import (
    PathParams,
    ChannelStats,
    ChannelRealization,
    sample_channel,
    time_channel_matrix,
    apply_channel,
    effective_tf_channel,
    reconstruct,
    unit_path_tf_channel,
)
from .pilots import FrameSpec, Frame, make_pilot_sequence, assemble_frame, pilot_dd_image, discrete_af
from .estimator import (
    CoarseEstimate,
    Dictionary,
    LassoConfig,
    ChannelEstimate,
    twisted_convolution,
    default_gamma,
    threshold_select,
    build_dictionary,
    soft_threshold,
    solve_ls,
    solve_lasso,
    cdce_estimate,
)
from .baselines import st_ls, st_lmmse, CovarianceModel, fit_covariance, fs_lmmse, tf_lasso
from .harness import SimConfig, ResultRow, run_trial, run_sweep, emit
from .config import ConfigError, load_config

__version__ = "0.1.0"
