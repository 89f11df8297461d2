"""Atomic states, composite index, matrix checks and generators: four two-level atoms and one cavity mode.

Conventions used throughout the package:

* single-atom basis (|g>, |e>) with g -> 0, e -> 1;
* sigma_z has eigenvalues -1/2 (g) and +1/2 (e), so the two-photon detuning
  delta = 2*(omega - omega_a) appears as the bare energy gap between the
  two-excitation manifold and its virtual intermediates;
* energies are written in the frame rotating at omega_a, where
  H0 = (delta/2) adag a: H0 = omega_a (m_z + n) + (delta/2) n and m_z + n is
  conserved, so omega_a only adds a phase per excitation sector and the
  model depends on G, delta and n_max alone;
* atomic_index packs the four atomic levels as bits, atom 1 most significant;
  a `StateVector` holds the 16 atomic amplitudes in that order (the gates and
  the Bell and teleport maps act on the atoms; the cavity is only virtual);
* composite basis index = atomic_index * (n_max + 1) + n, with n the Fock
  level, used only by the dense builders that the tests check (the exact
  runs use model.pair_block, which lists its states by row);
* the Fock ladder is truncated at n_max by silently dropping amplitude raised
  past the top level; validated runs need n <= n_max - 4, so their exact
  block stops at n + 2 and never reaches the two guard levels below the cut:
  guard occupation is 0 by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

HERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-10
NORM_ATOL = 1e-12

PERTURBATIVE_RATIO_MAX = 0.25

N_ATOMS = 4
N_ATOMIC_CONFIGS = 2**N_ATOMS


# "gggg", ..., "eeee" in atomic_index order: g -> 0, e -> 1, atom 1 most significant
_CONFIG_LABELS = tuple("".join(labels) for labels in product("ge", repeat=N_ATOMS))
_CONFIG_INDEX = {label: i for i, label in enumerate(_CONFIG_LABELS)}


def _is_integer(value) -> bool:
    """The integer rule for configuration indices, Fock levels and the P sign: no bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the four-atom/cavity system (hbar = 1, rad/s).

    H0 is written in the frame rotating at omega_a, where H0 = (delta/2) adag a
    with delta = 2*(omega - omega_a): every result depends on delta alone.
    `perturbative_ratio` is G sqrt(n_max (n_max - 1))/|delta| at the Fock cut-off
    n_max, not at the levels a run occupies (at most n + 2 in a validated run);
    `perturbative_ok` compares it with PERTURBATIVE_RATIO_MAX. Both are report data
    only: construction is silent, since no computed number depends on the cut-off.
    """

    G: float
    delta: float
    n_max: int = 8

    def __post_init__(self) -> None:
        for name in ("G", "delta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.G < 0:
            raise ValueError(f"coupling G must be >= 0, got {self.G}")
        if self.delta == 0:
            raise ValueError("detuning delta must be nonzero")
        if not isinstance(self.n_max, (int, np.integer)):
            raise ValueError(f"n_max must be an integer, got {self.n_max!r}")
        if self.n_max < 4:
            raise ValueError(
                f"n_max must be >= 4 (two-photon intermediates plus two guard levels), got {self.n_max}"
            )

    @property
    def dim(self) -> int:
        return N_ATOMIC_CONFIGS * (self.n_max + 1)

    @property
    def perturbative_ratio(self) -> float:
        return float(self.G) * math.sqrt(self.n_max * (self.n_max - 1)) / abs(float(self.delta))

    @property
    def perturbative_ok(self) -> bool:
        return self.perturbative_ratio < PERTURBATIVE_RATIO_MAX


def is_hermitian(m: np.ndarray) -> bool:
    """max|M - M^H| < HERMITIAN_ATOL for a square array."""
    return float(np.max(np.abs(m - m.conj().T))) < HERMITIAN_ATOL


def unitary_defect(m: np.ndarray) -> float:
    """max|M^H M - I| of a square array (unitary below UNITARY_ATOL)."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(len(m)))))


@dataclass(frozen=True, eq=False)
class Operator:
    """Read-only complex square matrix, compared and hashed by identity: the generator
    that the `dynamics` eigh routes take."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _frozen(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def atomic_index(config) -> int:
    """Pack an atomic configuration into 0..15, atom 1 most significant.

    `config` is a four-letter e/g string such as "egeg", or an index 0..15 (an
    int or numpy integer, not a bool), returned as an int. Anything else raises
    ValueError.
    """
    if isinstance(config, str) and config in _CONFIG_INDEX:
        return _CONFIG_INDEX[config]
    if _is_integer(config) and 0 <= config < N_ATOMIC_CONFIGS:
        return int(config)
    raise ValueError(f"atomic configuration must be a four-letter e/g string or an index 0..15, "
                     f"got {config!r}")


def config_labels(index: int) -> str:
    """Inverse of atomic_index: 0..15 -> four-letter e/g string."""
    if not (_is_integer(index) and 0 <= index < N_ATOMIC_CONFIGS):
        raise ValueError(f"atomic index out of range: {index}")
    return _CONFIG_LABELS[index]


def excitation_number(config) -> int:
    return int(np.bitwise_count(atomic_index(config)))


def basis_index(config, n: int, n_max: int) -> int:
    """Composite basis index of |config, n> under the package convention."""
    if not (_is_integer(n) and 0 <= n <= n_max):
        raise ValueError(f"Fock level n={n} outside 0..{n_max}")
    return atomic_index(config) * (n_max + 1) + n


@dataclass(frozen=True, eq=False)
class StateVector:
    """The 16 atomic amplitudes, in atomic_index order, compared and hashed by
    identity. The cavity is factored out, so `n_max` is always 0: the composite
    atoms x Fock basis belongs to the dense oracles.
    """

    amplitudes: np.ndarray
    n_max: int = 0

    def __post_init__(self) -> None:
        if self.n_max != 0:
            raise ValueError(f"n_max must be 0 (atomic amplitudes only), got {self.n_max!r}")
        amps = _frozen(self.amplitudes)
        if amps.shape != (N_ATOMIC_CONFIGS,):
            raise ValueError(f"expected amplitude vector of length {N_ATOMIC_CONFIGS}, got {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis_state(cls, config) -> "StateVector":
        amps = np.zeros(N_ATOMIC_CONFIGS, dtype=complex)
        amps[atomic_index(config)] = 1.0
        return cls(amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude(self, config) -> complex:
        return complex(self.amplitudes[atomic_index(config)])

    def probability(self, config) -> float:
        return float(abs(self.amplitudes[atomic_index(config)]) ** 2)
