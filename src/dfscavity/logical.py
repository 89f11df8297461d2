"""Logical-qubit codec over atom pairs and the collective-dephasing channel.

One logical qubit lives on one atom pair: |1~> = |eg>, |0~> = |ge>. Logical
qubit A is atoms (1,2), logical qubit B is atoms (3,4). Both code states have
zero total z-spin, so the collective dephasing unitary exp(-i phi sum_i
sigma_z^(i)) acts as the identity on the code space, and the bare free
evolution that dephases a single-atom superposition leaves encoded states
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import StateVector, atomic_index

# atomic image of the logical basis (|1~1~>, |1~0~>, |0~1~>, |0~0~>)
LOGICAL_CONFIGS = ("egeg", "egge", "geeg", "gege")
LOGICAL_INDICES = tuple(atomic_index(c) for c in LOGICAL_CONFIGS)

_PAIR_NORM_ATOL = 1e-9
_CODE_SPACE_ATOL = 1e-10  # weight outside the code space that decode_logical tolerates


@dataclass(frozen=True, eq=False)
class LogicalState:
    """Two logical qubits; amplitudes over (|1~1~>, |1~0~>, |0~1~>, |0~0~>).
    Compares and hashes by identity."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (4,):
            raise ValueError(f"expected 4 logical amplitudes, got shape {amps.shape}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def to_state_vector(self, n_max: int = 0) -> StateVector:
        """Embed into the composite space (vacuum Fock sector)."""
        out = np.zeros(16 * (n_max + 1), dtype=complex)
        for amp, cfg in zip(self.amplitudes, LOGICAL_INDICES):
            out[cfg * (n_max + 1)] = amp
        return StateVector(out, n_max)


def encode_logical(alpha_a: complex, beta_a: complex,
                   alpha_b: complex, beta_b: complex) -> LogicalState:
    """Product state (alpha_a |1~> + beta_a |0~>) x (alpha_b |1~> + beta_b |0~>).

    Each pair of coefficients must be normalized.
    """
    for name, (x, y) in (("A", (alpha_a, beta_a)), ("B", (alpha_b, beta_b))):
        if abs(abs(x) ** 2 + abs(y) ** 2 - 1.0) > _PAIR_NORM_ATOL:
            raise ValueError(f"logical qubit {name} coefficients are not normalized")
    a = np.array([alpha_a, beta_a], dtype=complex)
    b = np.array([alpha_b, beta_b], dtype=complex)
    return LogicalState(np.kron(a, b))


def decode_logical(psi: StateVector) -> LogicalState:
    """Inverse of LogicalState.to_state_vector; errors when psi leaves the
    code space (any amplitude off the four code configurations, or any
    photon excitation)."""
    block = psi.amplitudes.reshape(16, psi.n_max + 1)
    amps = np.array([block[c, 0] for c in LOGICAL_INDICES], dtype=complex)
    outside = np.linalg.norm(psi.amplitudes) ** 2 - np.linalg.norm(amps) ** 2
    if outside > _CODE_SPACE_ATOL:
        raise ValueError(f"state has weight {outside:.3e} outside the logical code space")
    return LogicalState(amps)


def collective_phases(phi: float | np.ndarray, n_atoms: int = 4) -> np.ndarray:
    """Diagonal of exp(-i phi sum_i sigma_z^(i)) over the 2**n_atoms atomic
    configurations, first atom most significant. Exactly 1 on every zero-m_z
    configuration; free evolution under splitting E_e - E_g for t is phi = (E_e - E_g) t
    (n_atoms = 1: the free drift of one bare atom, up to a global phase).
    Broadcasts over `phi`: the shape is phi.shape + (2**n_atoms,)."""
    mz = np.array([bin(k).count("1") for k in range(2**n_atoms)]) - n_atoms / 2
    return np.exp(-1j * np.asarray(phi)[..., None] * mz)


def collective_dephase(psi: StateVector, phi: float) -> StateVector:
    """exp(-i phi sum_i sigma_z^(i)) with the same phi on every atom.

    Diagonal in the computational basis, so code states (zero total z-spin)
    come back bit-identical.
    """
    n_levels = psi.n_max + 1
    phases = collective_phases(phi)
    return StateVector((psi.amplitudes.reshape(16, n_levels) * phases[:, None]).reshape(-1), psi.n_max)
