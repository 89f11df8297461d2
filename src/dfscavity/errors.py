"""Imperfection models: staggered pair insertion and thermal-sector averaging.

Staggered insertion: atoms 1 and 2 sit alone in the cavity for a lead time
t1 (two-atom coupling lambda = Omega/2) before atoms 3 and 4 arrive; the
remaining t - t1 runs the intended four-atom evolution. Times are in units
of 1/Omega (every result depends on Omega t and Omega t1 only), so Omega = 1
and lambda = 1/2 below. Starting from |egeg>, the resulting state is

    Psi = cos(lambda t1) [cos(Om (t-t1)) |egeg> - i sin(Om (t-t1)) |gege>]
        - i sin(lambda t1) [cos(Om (t-t1)) |geeg> - i sin(Om (t-t1)) |egge>]

(common phase dropped). Fidelity against the ideal pulse output is the
AMPLITUDE overlap |<Psi_ideal|Psi>| = cos(lambda t1) cos(Omega t1); the
scheme's 0.98 operating bound is stated for this amplitude form, so it is
the primary figure and the squared value is reported alongside.

`staggered_fidelity` and `stagger_sweep` take the inner product through one
array kernel: the staggered states as one (k, 16) array (the lone pair's
exchange, then `dynamics.pair_exchange` at the areas t - t1), the ideal output
once as the kernel's state at t1 = 0, and the fidelities as one product with
the conjugated ideal state. The closed form is one array expression,
which the stagger-sweep report checks against every row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import pair_exchange
from .gates import R_PULSE_AREA
from .hilbert import atomic_index

MAX_THERMAL_SECTORS = 100_001
THERMAL_TAIL = 1e-9  # thermal_weights stops once the cumulative weight exceeds 1 - THERMAL_TAIL


@dataclass(frozen=True)
class StaggerParams:
    """Total intended duration t and lead time t1, in units of 1/Omega (the
    four-atom pair-exchange rate); the two-atom rate is lambda = 1/2."""

    t: float
    t1: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.t):
            raise ValueError("pulse area must be finite")
        if not 0 <= self.t1 <= self.t:
            raise ValueError(f"need 0 <= t1 <= t, got t1={self.t1}, t={self.t}")


def _staggered_amplitudes(t: float, t1) -> np.ndarray:
    """|egeg> after the lone pair's exchange, cos(t1/2)|egeg> - i sin(t1/2)|geeg>, for each
    lead time in t1 (a scalar or length k), then `pair_exchange` at t - t1; shape (16,) or (k, 16)."""
    t1 = np.asarray(t1)
    lead = np.zeros((16,) + t1.shape, dtype=complex)
    lead[atomic_index("egeg")] = np.cos(0.5 * t1)
    lead[atomic_index("geeg")] = -1j * np.sin(0.5 * t1)
    return pair_exchange(lead, t - t1).T


def _fidelities(t: float, t1) -> np.ndarray:
    """|<ideal|staggered>| for a pulse of duration t and each lead time in t1,
    shape t1.shape; the ideal output, pair exchange at area t from |egeg>, is the t1 = 0 state."""
    ideal = _staggered_amplitudes(t, 0.0)
    return np.abs(_staggered_amplitudes(t, t1) @ ideal.conj())


def _closed_form(t1):
    """cos(lambda t1) cos(Omega t1) = cos(t1/2) cos(t1), signed; broadcasts over t1."""
    return np.cos(0.5 * t1) * np.cos(t1)


def staggered_fidelity(p: StaggerParams) -> float:
    """Amplitude overlap |<ideal|staggered>|, through the kernel of `stagger_sweep`."""
    return float(_fidelities(p.t, p.t1))


def staggered_fidelity_closed_form(p: StaggerParams) -> float:
    """The closed form at p.t1; must match the inner-product route."""
    return float(_closed_form(p.t1))


def stagger_sweep(t1_fractions,
                  pulse_area: float = R_PULSE_AREA) -> tuple[tuple[float, float, float], ...]:
    """Rows of (t1/t, amplitude fidelity, squared fidelity) for a pulse of
    the given area, which is its duration t in units of 1/Omega, in the
    order of `t1_fractions`. Raises ValueError for an area StaggerParams rejects
    (non-finite or negative), then at the first fraction outside [0, 1] (or NaN);
    each lead time f*t then lies in [0, t]."""
    StaggerParams(t=pulse_area, t1=0.0)
    fractions = np.asarray(t1_fractions, dtype=float)
    bad = ~((0 <= fractions) & (fractions <= 1))
    if bad.any():
        raise ValueError(f"t1 fraction must lie in [0, 1], got {fractions[int(np.argmax(bad))]}")
    t1 = fractions * pulse_area
    f = _fidelities(pulse_area, t1)
    return tuple(zip(fractions.tolist(), f.tolist(), (f * f).tolist()))


def thermal_weights(nbar: float) -> np.ndarray:
    """Thermal Fock distribution p_n = nbar^n/(nbar+1)^(n+1), truncated once
    the cumulative weight exceeds 1 - THERMAL_TAIL. Raises ValueError for a non-scalar,
    NaN, infinite or negative nbar, and when the cut takes over MAX_THERMAL_SECTORS sectors."""
    if np.ndim(nbar):
        raise ValueError(f"mean photon number must be a scalar, got shape {np.shape(nbar)}")
    if not (np.isfinite(nbar) and nbar >= 0):
        raise ValueError("mean photon number must be finite and >= 0")
    weights = []
    total = 0.0
    ratio = nbar / (nbar + 1.0)
    w = 1.0 / (nbar + 1.0)
    while total < 1.0 - THERMAL_TAIL:
        if len(weights) == MAX_THERMAL_SECTORS:
            raise ValueError(
                f"nbar={nbar}: the thermal weights need more than {MAX_THERMAL_SECTORS} "
                f"Fock sectors to reach 1 - {THERMAL_TAIL}")
        weights.append(w)
        total += w
        w *= ratio
    return np.array(weights)


def fock_averaged_fidelity(nbar: float | np.ndarray,
                           pulse_area_at_n0: float = R_PULSE_AREA) -> float | np.ndarray:
    """Pulse fidelity averaged over an incoherent thermal mixture of Fock
    sectors, in closed form for any finite nbar >= 0.

    The pulse is timed against the vacuum-sector rate Omega(0); in sector n
    the accumulated area is (2n+1) A because Omega(n)/Omega(0) = (4n+2)/2,
    so the overlap with the intended output is cos(2nA) and the sector
    fidelity is (1 + cos(4nA))/2. Summing it against the thermal weights
    p_n = nbar^n/(nbar+1)^(n+1) is a geometric series:

        F = 1/2 + 1/2 Re[1 / (1 + nbar (1 - e^{4iA}))],

    its 1 kept at any nbar (at A = 0, F is exactly 1); its real part overflows only above
    about 9e307, where F rounds to 1/2, the value of the infinite denominator.

    `thermal_weights` with `dynamics.dfs_propagate` is the sector-by-sector oracle.
    Broadcasts over `nbar`: an array gives the array of averages. Rejects a
    NaN, infinite or negative `nbar` and a non-finite area (ValueError).
    """
    if not np.all(np.isfinite(nbar) & (nbar >= 0)):
        raise ValueError("mean photon number must be finite and >= 0")
    if not np.all(np.isfinite(pulse_area_at_n0)):
        raise ValueError("pulse area must be finite")
    with np.errstate(over="ignore"):
        return 0.5 + 0.5 * (1.0 / (1.0 + nbar * (1.0 - np.exp(4j * pulse_area_at_n0)))).real
