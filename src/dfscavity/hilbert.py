"""Composite Hilbert-space algebra: four two-level atoms and one truncated cavity mode.

Conventions used throughout the package:

* single-atom basis (|g>, |e>) with g -> 0, e -> 1;
* sigma_z has eigenvalues -1/2 (g) and +1/2 (e), so the two-photon detuning
  delta = 2*(omega - omega_a) appears as the bare energy gap between the
  two-excitation manifold and its virtual intermediates;
* composite basis index = atomic_index * (n_max + 1) + n, where atomic_index
  packs the four atomic levels as bits with atom 1 most significant and n is
  the Fock level;
* the Fock ladder is truncated at n_max by silently dropping amplitude raised
  past the top level; validated runs need n <= n_max - 4, so their conserved-
  excitation sector (model.excitation_sector) stops at n + 2 and never reaches
  the two guard levels below the cut: guard occupation is 0 by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

HERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-10
NORM_ATOL = 1e-12

PERTURBATIVE_RATIO_MAX = 0.25

# single-atom operators in the (|g>, |e>) basis
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_Z = np.diag([-0.5, 0.5]).astype(complex)
IDENTITY_2 = np.eye(2, dtype=complex)

_ATOM_OPS = {"+": SIGMA_PLUS, "-": SIGMA_MINUS, "z": SIGMA_Z}

N_ATOMS = 4
N_ATOMIC_CONFIGS = 2**N_ATOMS


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the four-atom/cavity system (hbar = 1, rad/s).

    Only the detuning delta enters the scheme's dynamics; omega_a and omega
    may be supplied explicitly, in which case delta = 2*(omega - omega_a) is
    enforced, or left as None, in which case omega_a defaults to 0 and
    omega to delta/2.
    """

    G: float
    delta: float
    omega_a: float | None = None
    omega: float | None = None
    n_max: int = 8

    def __post_init__(self) -> None:
        if self.G < 0:
            raise ValueError(f"coupling G must be >= 0, got {self.G}")
        if self.delta == 0:
            raise ValueError("detuning delta must be nonzero")
        if self.n_max < 4:
            raise ValueError(
                f"n_max must be >= 4 (two-photon intermediates plus two guard levels), got {self.n_max}"
            )
        if self.omega_a is not None and self.omega is not None:
            implied = 2.0 * (self.omega - self.omega_a)
            if abs(self.delta - implied) > 1e-9 * max(1.0, abs(self.delta)):
                raise ValueError(
                    f"inconsistent frequencies: delta={self.delta} but 2*(omega-omega_a)={implied}"
                )
        else:
            omega_a = 0.0 if self.omega_a is None else self.omega_a
            object.__setattr__(self, "omega_a", omega_a)
            if self.omega is None:
                object.__setattr__(self, "omega", omega_a + self.delta / 2.0)
        if not self.perturbative_ok:
            warnings.warn(
                f"perturbative validity marginal: G*sqrt(n_max*(n_max-1))/|delta| = "
                f"{self.perturbative_ratio:.3f} >= {PERTURBATIVE_RATIO_MAX}",
                stacklevel=3,  # the caller of the dataclass __init__
            )

    @property
    def dim(self) -> int:
        return N_ATOMIC_CONFIGS * (self.n_max + 1)

    @property
    def perturbative_ratio(self) -> float:
        if self.G == 0:
            return 0.0
        return self.G * np.sqrt(self.n_max * (self.n_max - 1)) / abs(self.delta)

    @property
    def perturbative_ok(self) -> bool:
        return self.perturbative_ratio < PERTURBATIVE_RATIO_MAX


@dataclass(frozen=True, eq=False)
class Operator:
    """Read-only complex square matrix, compared and hashed by identity. `hermitian`
    (max|M - M^H| < HERMITIAN_ATOL) and `unitary` (max|M^H M - I| < UNITARY_ATOL)
    are checked on first access and cached."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _frozen(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def hermitian(self) -> bool:
        m = self.matrix
        return float(np.max(np.abs(m - m.conj().T))) < HERMITIAN_ATOL

    @cached_property
    def unitary(self) -> bool:
        m = self.matrix
        return float(np.max(np.abs(m.conj().T @ m - np.eye(self.dim)))) < UNITARY_ATOL


def atomic_index(config) -> int:
    """Pack an atomic configuration into 0..15, atom 1 most significant.

    `config` may be a string like "egeg" or a sequence of "e"/"g" labels or
    0/1 bits.
    """
    if isinstance(config, int):
        if not 0 <= config < N_ATOMIC_CONFIGS:
            raise ValueError(f"atomic index out of range: {config}")
        return config
    labels = list(config)
    if len(labels) != N_ATOMS:
        raise ValueError(f"expected {N_ATOMS} atomic labels, got {labels!r}")
    idx = 0
    for lab in labels:
        if lab in ("e", 1):
            bit = 1
        elif lab in ("g", 0):
            bit = 0
        else:
            raise ValueError(f"invalid atomic label {lab!r}")
        idx = idx * 2 + bit
    return idx


def config_labels(index: int) -> str:
    """Inverse of atomic_index: 0..15 -> four-letter e/g string."""
    if not 0 <= index < N_ATOMIC_CONFIGS:
        raise ValueError(f"atomic index out of range: {index}")
    return "".join("e" if (index >> shift) & 1 else "g" for shift in (3, 2, 1, 0))


def excitation_number(config) -> int:
    return bin(atomic_index(config)).count("1")


def basis_index(config, n: int, n_max: int) -> int:
    """Composite basis index of |config, n> under the package convention."""
    if not 0 <= n <= n_max:
        raise ValueError(f"Fock level n={n} outside 0..{n_max}")
    return atomic_index(config) * (n_max + 1) + n


def index_to_labels(index: int, n_max: int) -> tuple[str, int]:
    """Composite index -> (atomic label string, Fock level)."""
    dim = N_ATOMIC_CONFIGS * (n_max + 1)
    if not 0 <= index < dim:
        raise ValueError(f"composite index out of range: {index}")
    return config_labels(index // (n_max + 1)), index % (n_max + 1)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over the composite (4 atoms x Fock) basis,
    compared and hashed by identity.

    Atomic-only states are represented with n_max = 0 (a single Fock level),
    so one type serves both the full model and the effective/logical level.
    """

    amplitudes: np.ndarray
    n_max: int = 0

    def __post_init__(self) -> None:
        amps = _frozen(self.amplitudes)
        expected = N_ATOMIC_CONFIGS * (self.n_max + 1)
        if amps.shape != (expected,):
            raise ValueError(f"expected amplitude vector of length {expected}, got {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis_state(cls, config, n: int = 0, n_max: int = 0) -> "StateVector":
        amps = np.zeros(N_ATOMIC_CONFIGS * (n_max + 1), dtype=complex)
        amps[basis_index(config, n, n_max)] = 1.0
        return cls(amps, n_max)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>."""
        if self.dim != other.dim:
            raise ValueError("state dimensions differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        """|<self|other>|^2."""
        return float(abs(self.overlap(other)) ** 2)

    def amplitude(self, config, n: int = 0) -> complex:
        return complex(self.amplitudes[basis_index(config, n, self.n_max)])

    def probability(self, config, n: int | None = None) -> float:
        """Population of |config, n>, summed over Fock levels when n is None."""
        a = atomic_index(config)
        block = self.amplitudes[a * (self.n_max + 1):(a + 1) * (self.n_max + 1)]
        if n is None:
            return float(np.sum(np.abs(block) ** 2))
        return float(abs(block[n]) ** 2)


def _kron_all(mats) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def atomic_operator(kinds: dict[int, str]) -> np.ndarray:
    """16x16 product operator on the four atoms, identity where unspecified.

    `kinds` maps atom index (1..4) to "+", "-" or "z".
    """
    mats = [IDENTITY_2] * N_ATOMS
    for atom, kind in kinds.items():
        if not 1 <= atom <= N_ATOMS:
            raise ValueError(f"atom index must be 1..{N_ATOMS}, got {atom}")
        try:
            mats[atom - 1] = _ATOM_OPS[kind]
        except KeyError:
            raise ValueError(f"unknown atomic operator kind {kind!r}") from None
    return _kron_all(mats)


def single_atom_operator(atom: int, kind: str, n_max: int) -> Operator:
    """sigma^+/sigma^-/sigma_z on one atom, identity elsewhere and on the cavity."""
    atomic = atomic_operator({atom: kind})
    return Operator(np.kron(atomic, np.eye(n_max + 1, dtype=complex)))


def fock_ladder(kind: str, power: int, n_max: int) -> np.ndarray:
    """(n_max+1)-dim truncated ladder matrix a^power or (a^dag)^power."""
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power}")
    d = n_max + 1
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        a[n - 1, n] = np.sqrt(n)
    if kind == "a":
        m = a
    elif kind == "a_dag":
        m = a.conj().T
    else:
        raise ValueError(f"kind must be 'a' or 'a_dag', got {kind!r}")
    return np.linalg.matrix_power(m, power)


def cavity_ladder(kind: str, power: int, n_max: int) -> Operator:
    """Cavity ladder operator on the composite space; amplitude raised past
    n_max is dropped by the truncation."""
    return Operator(np.kron(np.eye(N_ATOMIC_CONFIGS, dtype=complex), fock_ladder(kind, power, n_max)))
