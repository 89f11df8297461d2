"""Imperfection models: staggered pair insertion and thermal-sector averaging.

Staggered insertion: atoms 1 and 2 sit alone in the cavity for a lead time
t1 (two-atom coupling lambda = Omega/2) before atoms 3 and 4 arrive; the
remaining t - t1 runs the intended four-atom evolution. Starting from
|egeg>, the resulting state is

    Psi = cos(lambda t1) [cos(Om (t-t1)) |egeg> - i sin(Om (t-t1)) |gege>]
        - i sin(lambda t1) [cos(Om (t-t1)) |geeg> - i sin(Om (t-t1)) |egge>]

(common phase dropped). Fidelity against the ideal pulse output is the
AMPLITUDE overlap |<Psi_ideal|Psi>| = cos(lambda t1) cos(Omega t1); the
scheme's 0.98 operating bound is stated for this amplitude form, so it is
the primary figure and the squared value is reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import dfs_propagate
from .hilbert import StateVector, atomic_index

DEFAULT_PULSE_AREA = 3 * np.pi / 4  # the R pulse
MAX_THERMAL_SECTORS = 100_001


@dataclass(frozen=True)
class StaggerParams:
    """Total intended duration t, lead time t1, and the pair-exchange rate
    omega; the two-atom rate is fixed at lambda = omega/2."""

    t: float
    t1: float
    omega: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.t1 <= self.t:
            raise ValueError(f"need 0 <= t1 <= t, got t1={self.t1}, t={self.t}")
        if self.omega <= 0:
            raise ValueError("omega must be positive")

    @property
    def lam(self) -> float:
        return self.omega / 2.0


def staggered_state(p: StaggerParams) -> StateVector:
    """The lead-time-perturbed state from initial |egeg> (already normalized)."""
    tail = p.omega * (p.t - p.t1)
    lead = p.lam * p.t1
    amps = np.zeros(16, dtype=complex)
    amps[atomic_index("egeg")] = np.cos(lead) * np.cos(tail)
    amps[atomic_index("gege")] = np.cos(lead) * (-1j) * np.sin(tail)
    amps[atomic_index("geeg")] = -1j * np.sin(lead) * np.cos(tail)
    amps[atomic_index("egge")] = (-1j) * np.sin(lead) * (-1j) * np.sin(tail)
    return StateVector(amps, 0)


def ideal_pulse_state(p: StaggerParams) -> StateVector:
    """What the pulse should have produced from |egeg> (pair-exchange at
    area omega*t)."""
    return dfs_propagate(StateVector.basis_state("egeg"), p.omega * p.t)


def staggered_fidelity(p: StaggerParams) -> float:
    """Amplitude overlap |<ideal|staggered>| via the direct inner product."""
    return float(abs(ideal_pulse_state(p).overlap(staggered_state(p))))


def staggered_fidelity_closed_form(p: StaggerParams) -> float:
    """cos(lambda t1) cos(Omega t1); must match the inner-product route."""
    return float(np.cos(p.lam * p.t1) * np.cos(p.omega * p.t1))


def stagger_sweep(t1_fractions, pulse_area: float = DEFAULT_PULSE_AREA,
                  omega: float = 1.0) -> tuple[tuple[float, float, float], ...]:
    """Rows of (t1/t, amplitude fidelity, squared fidelity) for a pulse of
    the given area."""
    t = pulse_area / omega
    rows = []
    for frac in t1_fractions:
        if not 0 <= frac <= 1:
            raise ValueError(f"t1 fraction must lie in [0, 1], got {frac}")
        f = staggered_fidelity(StaggerParams(t=t, t1=frac * t, omega=omega))
        rows.append((float(frac), f, f * f))
    return tuple(rows)


def thermal_weights(nbar: float, tail: float = 1e-9) -> np.ndarray:
    """Thermal Fock distribution p_n = nbar^n/(nbar+1)^(n+1), truncated once
    the cumulative weight exceeds 1 - tail. Raises ValueError when that takes
    more than MAX_THERMAL_SECTORS sectors."""
    if nbar < 0:
        raise ValueError("mean photon number must be >= 0")
    if nbar == 0:
        return np.array([1.0])
    weights = []
    total = 0.0
    ratio = nbar / (nbar + 1.0)
    w = 1.0 / (nbar + 1.0)
    while total < 1.0 - tail:
        if len(weights) == MAX_THERMAL_SECTORS:
            raise ValueError(
                f"nbar={nbar}: the thermal weights need more than {MAX_THERMAL_SECTORS} "
                f"Fock sectors to reach 1 - {tail}")
        weights.append(w)
        total += w
        w *= ratio
    return np.array(weights)


def fock_averaged_fidelity(nbar: float | np.ndarray,
                           pulse_area_at_n0: float = DEFAULT_PULSE_AREA) -> float | np.ndarray:
    """Pulse fidelity averaged over an incoherent thermal mixture of Fock
    sectors, in closed form for any nbar >= 0.

    The pulse is timed against the vacuum-sector rate Omega(0); in sector n
    the accumulated area is (2n+1) A because Omega(n)/Omega(0) = (4n+2)/2,
    so the overlap with the intended output is cos(2nA) and the sector
    fidelity is (1 + cos(4nA))/2. Summing it against the thermal weights
    p_n = nbar^n/(nbar+1)^(n+1) is a geometric series:

        F = 1/2 + 1/2 Re[1 / ((nbar+1) - nbar e^{4iA})].

    `thermal_weights` with `dfs_propagate` is the sector-by-sector oracle.
    Broadcasts over `nbar`: an array gives the array of averages.
    """
    if np.any(nbar < 0):
        raise ValueError("mean photon number must be >= 0")
    return 0.5 + 0.5 * (1.0 / ((nbar + 1.0) - nbar * np.exp(4j * pulse_area_at_n0))).real
