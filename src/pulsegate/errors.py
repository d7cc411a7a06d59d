"""Exception types shared across the package.

Two broad families matter for the command line front end: configuration
problems (bad flags, bad pulse files, parameters outside the supported
range) and solver problems (diagnostics that fire when a computed result
violates a conservation law or a tolerance). They map to distinct exit
codes, so they get distinct classes, and so does a peak search that
finds no interior peak. Each message names the check that failed.
"""


class PulseGateError(Exception):
    """Base class for all package errors."""


class ConfigError(PulseGateError):
    """Invalid user input: flags, ranges, grid bounds, pulse files (exit 2)."""


class SolverError(PulseGateError):
    """A computation produced a result that fails its own sanity checks:
    mismatched grids, a grid short of the pulse, a linear output norm off 1,
    a Bloch state off the sphere, unphysical amplitudes, an undefined psi2,
    an ill-posed amplitude fit (exit 3)."""


class NoPeakError(SolverError):
    """Peak search bracket does not contain an interior maximum (exit 4)."""
