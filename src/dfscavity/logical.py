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


def collective_phases(phi: float | np.ndarray, n_atoms: int = 4) -> np.ndarray:
    """Diagonal of exp(-i phi sum_i sigma_z^(i)) over the 2**n_atoms atomic
    configurations, first atom most significant. Exactly 1 on every zero-m_z
    configuration; free evolution under splitting E_e - E_g for t is phi = (E_e - E_g) t
    (n_atoms = 1: the free drift of one bare atom, up to a global phase).
    Broadcasts over `phi`: the shape is phi.shape + (2**n_atoms,)."""
    mz = np.bitwise_count(np.arange(2**n_atoms)).astype(int) - n_atoms / 2
    return np.exp(-1j * np.asarray(phi)[..., None] * mz)


def collective_dephase(psi: StateVector, phi: float) -> StateVector:
    """exp(-i phi sum_i sigma_z^(i)) with the same phi on every atom.

    Diagonal in the computational basis, so code states (zero total z-spin)
    come back bit-identical.
    """
    return StateVector(psi.amplitudes * collective_phases(phi))
