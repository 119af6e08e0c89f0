"""Physical constants and model-wide thresholds.

All quantities are plain SI floats: metres, farads, henries, hertz, ohms.
Unit suffixes are carried in names (``_m``, ``_f``, ``_hz``) rather than in a
wrapper type; every public function validates its own domain.
"""

# Vacuum permittivity, F/m (CODATA 2018).
EPSILON_0 = 8.8541878128e-12

# Upper edge of the electro-quasistatic operating band, Hz.  Above this the
# body starts to radiate and the purely capacitive model loses validity;
# callers get a warning, not an error, because the capacitive transfer
# functions themselves are frequency-flat.
EQS_MAX_FREQUENCY_HZ = 1e6

# Channel frequency when none is configured, Hz.  The capacitive transfer
# does not depend on it; it is echoed in reports and checked against
# EQS_MAX_FREQUENCY_HZ.
DEFAULT_FREQUENCY_HZ = 1e5

# Inter-device coupling regime thresholds, F.  Below DISTANT the coupling
# branch is negligible against the return-path capacitances; above COUPLED it
# dominates the channel behaviour at small separations.
DISTANT_COUPLING_F = 1e-15
COUPLED_COUPLING_F = 10e-15

# Separation beyond which the ground plates of two on-body devices no longer
# see each other (the body and environment shield the direct path).  The
# near-field 1/d coupling law only applies below this distance; scenario
# assembly zeroes the coupling capacitance beyond it.
DECOUPLING_DISTANCE_M = 0.5

# Any transfer-function denominator smaller than this (in F or F^2 scale)
# marks a degenerate scenario rather than a meaningful division.
DEGENERATE_DENOMINATOR = 1e-30
