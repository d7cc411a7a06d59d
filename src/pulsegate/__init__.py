"""Two-photon gate amplitudes of a driven two-level nonlinearity.

Computes the semiclassical response of a resonantly driven two-level
emitter (linear and third-order output pulse shapes), decomposes the
two-photon output into conditional phase (c11), single-photon transfer
(c12) and residual (cr) amplitudes with their temporal modes psi1/psi2,
and sweeps pulse duration for the four standard input shapes.
"""

from .bloch import (FullBlochState, ResponseChain, SystemParams, full_bloch,
                    linear_response, perturbative_extraction,
                    second_order_excitation, solve_chain, third_order_response)
from .errors import ConfigError, NoPeakError, PulseGateError, SolverError
from .output import OutputPair, assemble_outputs
from .pulses import (DEFAULT_POLICY, GridPolicy, PulseShape, PulseSpec,
                     default_grid_for, load_pulse_file, sample_pulse)
from .signal import ComplexSignal, TimeGrid, inner_product, make_grid, norm_sq
from .sweep import (PeakResult, PointSolution, SweepRow, find_peak_c12,
                    run_point, solve_point, solve_spec, sweep)
from .twophoton import (LimitReport, OutputDecomposition, amplitudes, decompose,
                        limit_report)

__version__ = "0.1.0"
