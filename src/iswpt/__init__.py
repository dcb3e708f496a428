"""Joint transmit beamforming and reflective-surface phase design for
integrated sensing and wireless power transfer.

A transmitter with a per-antenna power budget serves energy-harvesting
devices through a passive reflective surface while keeping radar gain on a
set of target directions.  The package provides the weighted objective and
two optimizers for it (an SDP-relaxation route and a low-complexity
SCA + MM route), brute-force reference searches, and a reproducible
experiment command line.
"""

from .scenario import (ChannelSet, SystemConfig, complex_normal, db_to_linear,
                       path_loss, sample_channels, steering_matrix,
                       trial_stream)
from .objective import (Beamformer, DerivedOperators, PhaseProfile,
                        beam_rows, beampattern_profile, build_operators,
                        composite_objective, solution_metrics)
from .sdp import (SdpNonConvergence, SdpSolution, extract_beamformer,
                  extract_phases, solve_diag_sdp, sdp_update_v, sdp_update_w)
from .lc import MmProblem, mm_solve, mm_update_v, sca_solve, sca_update_w
from .ao import AoConfig, AoTrace, run_ao, run_rps
from .oracle import SearchBudget, quantized_beam_search, quantized_phase_search

__version__ = "0.1.0"
