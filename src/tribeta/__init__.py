"""tribeta: a numerical laboratory for tritium beta-decay endpoint spectra.

Synthesizes molecular final-state spectra from sudden-approximation recoil
overlaps, evaluates the beta spectrum in differential / integral /
linearized / moment forms with recoil corrections, and demonstrates by
pseudo-experiments how neglecting the energy-dependent effective endpoint
drives the fitted neutrino-mass-squared parameter negative.
"""

__version__ = "0.1.0"
