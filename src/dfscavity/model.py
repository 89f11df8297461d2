"""Hamiltonians of the four-atom scheme and a second-order perturbation engine.

The full model is

    H = H0 + Hint,
    H0   = omega_a * sum_i sigma_iz + omega * adag a,
    Hint = G * sum_{i<j} (a^2 sigma_i^+ sigma_j^+ + adag^2 sigma_i^- sigma_j^-),

with the pair sum over the six unordered atom pairs: the ordered reading
would double every matrix element and contradict the closed-form coupling
(4n+2)G^2/delta, which the unordered form reproduces exactly. H0 equals
omega_a (m_z + n) + (delta/2) n with delta = 2(omega - omega_a), and m_z + n
is conserved, so every builder works in the frame rotating at omega_a, where
H0 = (delta/2) adag a, and takes G, delta and n_max only (hilbert.SystemParams).

The effective model at fixed photon number n keeps the six double-flip
products that exchange excitation between an atom pair and its complement
(egeg<->gege, egge<->geeg, eegg<->ggee), each with coefficient
Omega(n) = (4n+2)G^2/delta, plus an optional photon-number-dependent
diagonal (Stark) term.

H conserves n_e + n (atomic excitations plus photons), so `excitation_sector`
gives the exact model on the at most 16 states with n_e + n = total (their
indices and Fock levels, their bare energies, the Hint block and the local
indices of the six two-excitation states), built from closed-form entries at
a cost independent of n_max. The dense
`build_h0`/`build_hint`/`build_full_hamiltonian` use the same formulas on the
whole space (the pair pattern from bits of the configuration index, the a^2
entries sqrt(m-1) sqrt(m)); the tests check both against Kronecker products.

`derive_second_order` is the independent oracle for all of the above: given
the bare energies (the diagonal of H0), Hint and the basis indices of a
degenerate manifold, it sums over every intermediate outside the manifold,

    Heff[m, m'] = sum_{k not in M} <m|Hint|k><k|Hint|m'> / (E_k - E_m),

with the denominator sign fixed so the egeg<->gege element comes out as
+(4n+2)G^2/delta. Exhaustive path counting also produces exchange elements
(e.g. egeg<->eegg) and diagonal entries of the same size Omega(n); those are
reported, never suppressed (see validate.compare_effective_models).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb
from typing import NamedTuple

import numpy as np

from .hilbert import (
    HERMITIAN_ATOL,
    N_ATOMIC_CONFIGS,
    Operator,
    SystemParams,
    atomic_index,
    basis_index,
    excitation_number,
)

# the six two-excitation atomic configurations, in a fixed label order
TWO_EXCITATION_LABELS = ("egeg", "egge", "geeg", "gege", "eegg", "ggee")
TWO_EXCITATION_CONFIGS = tuple(atomic_index(s) for s in TWO_EXCITATION_LABELS)


def pair_partner(config) -> int:
    """Complementary configuration: every atom flipped (egeg <-> gege etc.)."""
    return (~atomic_index(config)) & (N_ATOMIC_CONFIGS - 1)


class EffectiveCoupling(NamedTuple):
    """Pair-exchange rate Omega for a given Fock sector."""

    omega: float


def effective_coupling(n: int, params: SystemParams) -> EffectiveCoupling:
    """Closed-form Omega(n) = (4n+2) G^2 / delta, for an integer n >= 0.

    0 at G = 0. Raises ValueError when G > 0 and the rate leaves the float range
    (G^2 or the quotient overflows to inf or underflows to 0)."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"Fock sector must be an integer >= 0, got {n}")
    try:
        omega = (4 * n + 2) * params.G**2 / params.delta
    except OverflowError:  # a Python float G**2 beyond the float range
        omega = np.inf
    if params.G > 0 and not 0 < abs(omega) < np.inf:
        raise ValueError(f"the pair rate {4 * n + 2} G^2/|delta| at G = {params.G}, "
                         f"delta = {params.delta} is {abs(omega)}, not a finite positive number")
    return EffectiveCoupling(omega=omega)


def build_h0(params: SystemParams) -> Operator:
    """Bare Hamiltonian in the frame rotating at omega_a: diagonal with
    E(config, n) = (delta/2) n."""
    energies = params.delta / 2.0 * np.arange(params.n_max + 1)
    return Operator(np.diag(np.tile(energies, N_ATOMIC_CONFIGS).astype(complex)))


@cache
def _pair_raising() -> np.ndarray:
    """sum_{i<j} sigma_i^+ sigma_j^+ over the six unordered atom pairs (16x16, read-only):
    entry [a, b] is 1 when configuration a excites exactly two atoms that are ground in
    b, else 0, since each such pair of configurations is joined by exactly one term."""
    a, b = np.indices((N_ATOMIC_CONFIGS, N_ATOMIC_CONFIGS))
    x = (((a & b) == b) & (np.bitwise_count(a ^ b) == 2)).astype(complex)
    x.setflags(write=False)
    return x


def build_hint(params: SystemParams) -> Operator:
    """Hint = G (X + X^H), X = kron(P, a^2): P the atomic pair pattern of `_pair_raising`,
    a^2 the truncated ladder with entries <m-2|a^2|m> = sqrt(m-1) sqrt(m)."""
    m = np.arange(2, params.n_max + 1)
    x = np.kron(_pair_raising(), np.diag(np.sqrt(m - 1) * np.sqrt(m), k=2))
    return Operator(params.G * (x + x.conj().T))


def build_full_hamiltonian(params: SystemParams) -> Operator:
    return Operator(build_h0(params).matrix + build_hint(params).matrix)


def stark_diagonal(params: SystemParams, n: int) -> np.ndarray:
    """Second-order diagonal shift of each atomic configuration at photon
    number n: [C(n_e,2)(n+1)(n+2) - C(4-n_e,2) n(n-1)] G^2/delta."""
    shifts = np.empty(N_ATOMIC_CONFIGS, dtype=float)
    for a in range(N_ATOMIC_CONFIGS):
        n_e = excitation_number(a)
        shifts[a] = (comb(n_e, 2) * (n + 1) * (n + 2) - comb(4 - n_e, 2) * n * (n - 1)) * params.G**2 / params.delta
    return shifts


def build_h_eff(params: SystemParams, n: int = 0, include_stark: bool = False) -> Operator:
    """Effective Hamiltonian on the 16-dim atomic space (cavity factored out).

    Contains exactly the six double-flip terms, each with coefficient
    Omega(n); with include_stark, adds the second-order diagonal of
    `stark_diagonal` (the photon-number-dependent shifts).
    """
    omega = effective_coupling(n, params).omega
    h = np.zeros((N_ATOMIC_CONFIGS, N_ATOMIC_CONFIGS), dtype=complex)
    for c in TWO_EXCITATION_CONFIGS:
        h[pair_partner(c), c] = omega  # each double-flip product moves c to its complement
    if include_stark:
        h += np.diag(stark_diagonal(params, n)).astype(complex)
    return Operator(h)


def two_excitation_manifold(params: SystemParams, n: int) -> tuple[int, ...]:
    """Composite indices of the six degenerate two-excitation states at Fock level n
    (bare energy (delta/2) n), in TWO_EXCITATION_LABELS order."""
    if not 0 <= n <= params.n_max:
        raise ValueError(f"Fock level n={n} outside 0..{params.n_max}")
    return tuple(basis_index(c, n, params.n_max) for c in TWO_EXCITATION_CONFIGS)


@dataclass(frozen=True, eq=False)
class ExcitationSector:
    """The states |a, m> with n_e(a) + m = total and 0 <= m <= n_max, in ascending
    composite index, with their bare energies (H0 = np.diag(energies)) and Hint block.
    H conserves n_e + m, so the exact dynamics from |egeg, total - 2> never leaves
    these at most 16 states, whatever n_max is (Tavis & Cummings, Phys. Rev. 170,
    379 (1968))."""

    indices: np.ndarray  # composite basis indices
    levels: np.ndarray   # Fock level m of each state
    energies: np.ndarray  # bare energy (delta/2) m of each state, real
    hint: np.ndarray
    manifold: tuple[int, ...]  # local indices of `two_excitation_manifold` at n = total - 2


def excitation_sector(params: SystemParams, total: int) -> ExcitationSector:
    """The sector n_e + m = total around the two-excitation manifold at n = total - 2,
    built from formulas: H0 energies (delta/2) m, and the atomic pair products times
    the a^2 entries sqrt(m-1) sqrt(m), so its energies and Hint block equal the dense
    slices of `build_h0` and `build_hint` exactly at a cost independent of n_max.

    Raises ValueError unless n is an integer with 0 <= n <= n_max - 4: the sector then
    reaches m = n + 2 at most and stays clear of the two guard levels below the cut.
    """
    n = total - 2
    if not isinstance(total, (int, np.integer)) or not 0 <= n <= params.n_max - 4:
        raise ValueError(
            f"validated runs need an integer 0 <= n <= n_max - 4 (intermediates plus guard levels); "
            f"got n={n}, n_max={params.n_max}"
        )
    n_e = np.bitwise_count(np.arange(N_ATOMIC_CONFIGS)).astype(int)
    atoms = np.flatnonzero(n_e <= total)
    levels = total - n_e[atoms]
    # a^2 |m> = sqrt(m-1) sqrt(m) |m-2>; the pair pattern keeps only m-2 -> m
    x = _pair_raising()[np.ix_(atoms, atoms)] * (np.sqrt(np.maximum(levels - 1, 0)) * np.sqrt(levels))
    indices = atoms * (params.n_max + 1) + levels
    return ExcitationSector(
        indices=indices, levels=levels,
        energies=params.delta / 2.0 * levels, hint=params.G * (x + x.conj().T),
        manifold=tuple(np.searchsorted(indices, two_excitation_manifold(params, n)).tolist()),
    )


def derive_second_order(energies: np.ndarray, hint: np.ndarray, members: tuple[int, ...]) -> np.ndarray:
    """Second-order effective operator on the degenerate manifold `members` (basis
    indices), as a len(members) square array; `energies` are the bare energies, the
    diagonal of H0 in the same basis as the square array `hint`.

    Sums over ALL intermediates outside the manifold (it is the independent
    oracle; cherry-picking intermediates would make validation circular).
    Diagonal (Stark) entries are included.

    Raises ValueError if the members differ in energy, or hint has matrix
    elements inside the manifold.
    """
    e_m = energies[list(members)]
    energy = e_m[0]
    if np.max(np.abs(e_m - energy)) > 1e-9 * max(1.0, abs(energy)):
        raise ValueError(f"manifold is not degenerate: energies {e_m}")
    intra = hint[np.ix_(members, members)]
    if np.max(np.abs(intra)) > HERMITIAN_ATOL * max(1.0, np.max(np.abs(hint))):
        raise ValueError("hint has nonzero matrix elements inside the manifold")
    outside = np.delete(np.arange(len(energies)), list(members))  # setdiff1d would load numpy.ma
    v_mo = hint[np.ix_(members, outside)]
    v_om = hint[np.ix_(outside, members)]
    denom = energies[outside] - energy
    coupled = np.abs(v_om).max(axis=1) > 0
    if np.any(np.abs(denom[coupled]) == 0):
        raise ValueError("intermediate state degenerate with the manifold")
    weights = np.zeros_like(denom)
    weights[coupled] = 1.0 / denom[coupled]
    return v_mo @ (weights[:, None] * v_om)


def derived_coupling(params: SystemParams, n: int) -> EffectiveCoupling:
    """Omega obtained from the PT engine's egeg<->gege element (oracle route)."""
    sector = excitation_sector(params, n + 2)
    heff = derive_second_order(sector.energies, sector.hint, sector.manifold)
    i = TWO_EXCITATION_LABELS.index("egeg")
    j = TWO_EXCITATION_LABELS.index("gege")
    return EffectiveCoupling(omega=float(np.real(heff[i, j])))

