"""The pair encoding of logical qubits and the collective-dephasing channel.

One logical qubit lives on one atom pair: |1~> = |eg>, |0~> = |ge>. Logical
qubit A is atoms (1,2), logical qubit B is atoms (3,4); `LogicalState`
embeds two of them into the 16 atomic amplitudes. Both code states have
zero total z-spin, so the collective dephasing unitary exp(-i phi sum_i
sigma_z^(i)) acts as the identity on the code space, and the bare free
evolution that dephases a single-atom superposition leaves encoded states
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import StateVector, _frozen, atomic_index

# atomic image of the logical basis (|1~1~>, |1~0~>, |0~1~>, |0~0~>)
LOGICAL_CONFIGS = ("egeg", "egge", "geeg", "gege")
LOGICAL_INDICES = tuple(atomic_index(c) for c in LOGICAL_CONFIGS)


@dataclass(frozen=True, eq=False)
class LogicalState:
    """Two logical qubits; amplitudes over (|1~1~>, |1~0~>, |0~1~>, |0~0~>).
    Compares and hashes by identity."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _frozen(self.amplitudes)
        if amps.shape != (4,):
            raise ValueError(f"expected 4 logical amplitudes, got shape {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    def to_state_vector(self) -> StateVector:
        """Embed into the 16 atomic amplitudes (cavity factored out)."""
        out = np.zeros(16, dtype=complex)
        out[list(LOGICAL_INDICES)] = self.amplitudes
        return StateVector(out)


@lru_cache(maxsize=None)
def _mz_levels(n_atoms: int) -> tuple[tuple[float, np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per nonzero |m_z| of n_atoms atoms (m_z: excited atoms minus n_atoms/2): |m_z|, then,
    in the float view of the 2**n_atoms phases (real and imaginary parts alternating), the
    real parts at m_z = -|m_z| and +|m_z|, the imaginary parts at -|m_z|, and at +|m_z|."""
    excited = np.bitwise_count(np.arange(2**n_atoms))
    levels = []
    for k in range((n_atoms + 1) // 2):
        lower, upper = 2 * np.flatnonzero(excited == k), 2 * np.flatnonzero(excited == n_atoms - k)
        levels.append((n_atoms / 2 - k, np.concatenate([lower, upper]), lower + 1, upper + 1))
    return tuple(levels)


def collective_phases(phi: float | np.ndarray, n_atoms: int = 4) -> np.ndarray:
    """Diagonal of exp(-i phi sum_i sigma_z^(i)) over the 2**n_atoms atomic
    configurations, first atom most significant. Exactly 1 on every zero-m_z
    configuration; free evolution under splitting E_e - E_g for t is phi = (E_e - E_g) t
    (n_atoms = 1: the free drift of one bare atom, up to a global phase).
    Broadcasts over `phi`: the shape is phi.shape + (2**n_atoms,).

    One cos and one sin of phi |m_z| per point and nonzero |m_z|, e^{-i phi m_z} =
    cos(phi |m_z|) -+ i sin(phi |m_z|): for finite phi bit for bit
    np.exp(-1j * phi * m_z), up to the sign of a zero."""
    phi = np.asarray(phi)[..., None]
    out = np.ones(phi.shape[:-1] + (2**n_atoms,), dtype=complex)
    parts = out.view(float)  # real and imaginary parts interleaved
    for level, real, lower_imag, upper_imag in _mz_levels(n_atoms):
        angle = phi * level
        parts[..., real] = np.cos(angle)
        parts[..., lower_imag] = sin = np.sin(angle)
        parts[..., upper_imag] = -sin
    return out


def collective_dephase(psi: StateVector, phi: float) -> StateVector:
    """exp(-i phi sum_i sigma_z^(i)) with the same phi on every atom.

    Diagonal in the computational basis, so code states (zero total z-spin)
    come back bit-identical.
    """
    return StateVector(psi.amplitudes * collective_phases(phi))
