"""Bell-state preparation, deterministic Bell discrimination, and logical
teleportation with a classical-delay channel.

The four Bell states carry +-i relative phases:

    Phi+- = (|egeg> +- i |gege>)/sqrt2,   Psi+- = (|egge> +- i |geeg>)/sqrt2.

A pair-exchange pulse of area pi/4 maps them onto distinct product states
(Phi+ -> |egeg>, Phi- -> -i|gege>, Psi+ -> |egge>, Psi- -> -i|geeg>), so
individual atom readout identifies each Bell state; the -i phases are global
per measurement branch and are absorbed into the outcome -> correction table.

Teleportation: Alice holds the logical input on atoms (a1,a2) and half of a
logical Phi+ channel on (a3,a4); Bob holds (b1,b2). Alice applies the pi/4
map to her four atoms and measures each atom; two classical bits select
Bob's Pauli correction. The outcome -> correction table was derived once by
branch enumeration and is re-verified by the tests:

    Phi+ -> I,  Phi- -> Z,  Psi+ -> XZ,  Psi- -> X.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gates import r_gate_atomic
from .hilbert import StateVector, atomic_index, config_labels
from .logical import collective_phases


class BellLabel(Enum):
    PHI_PLUS = "Phi+"
    PHI_MINUS = "Phi-"
    PSI_PLUS = "Psi+"
    PSI_MINUS = "Psi-"


# post-map product state for each Bell input, and its inverse
BELL_OUTCOME_MAP = {
    "egeg": BellLabel.PHI_PLUS,
    "gege": BellLabel.PHI_MINUS,
    "egge": BellLabel.PSI_PLUS,
    "geeg": BellLabel.PSI_MINUS,
}

CORRECTION_TABLE = {
    BellLabel.PHI_PLUS: "I",
    BellLabel.PHI_MINUS: "Z",
    BellLabel.PSI_PLUS: "XZ",
    BellLabel.PSI_MINUS: "X",
}

BELL_MAP_PULSE_AREA = np.pi / 4
_BRANCH_ATOL = 1e-15  # branches at or below this probability are not enumerated


def prepare_bell(label: BellLabel) -> StateVector:
    """The exact normalized four-atom Bell state (atomic-only, n_max=0)."""
    amps = np.zeros(16, dtype=complex)
    if label in (BellLabel.PHI_PLUS, BellLabel.PHI_MINUS):
        first, second = "egeg", "gege"
        sign = 1.0 if label is BellLabel.PHI_PLUS else -1.0
    else:
        first, second = "egge", "geeg"
        sign = 1.0 if label is BellLabel.PSI_PLUS else -1.0
    amps[atomic_index(first)] = 1 / np.sqrt(2)
    amps[atomic_index(second)] = sign * 1j / np.sqrt(2)
    return StateVector(amps, 0)


# the pi/4 pair-exchange map on the 16-dim atomic space
BELL_MAP = r_gate_atomic(BELL_MAP_PULSE_AREA).matrix
# the logical Phi+ channel that teleport shares between Alice (a3, a4) and Bob (b1, b2);
# rows index alice's pair, columns bob's
_PHI_PLUS_CHANNEL = prepare_bell(BellLabel.PHI_PLUS).amplitudes.reshape(4, 4)


@dataclass(frozen=True)
class BellBranch:
    label: BellLabel | None     # None: the outcome is not one of the four Bell images
    outcomes: tuple[str, ...]   # per-atom "e"/"g", atom 1 first
    probability: float


def enumerate_bell_branches(psi: StateVector) -> tuple[BellBranch, ...]:
    """All measurement branches of the Bell-discrimination map with probability
    above _BRANCH_ATOL, deterministic."""
    mapped = BELL_MAP @ psi.amplitudes
    probs = np.abs(mapped) ** 2
    branches = []
    for cfg in range(16):
        p = float(probs[cfg])
        if p <= _BRANCH_ATOL:
            continue
        labels = config_labels(cfg)
        branches.append(BellBranch(
            label=BELL_OUTCOME_MAP.get(labels),
            outcomes=tuple(labels),
            probability=p,
        ))
    return tuple(branches)


def _sample(branches, seed: int):
    """One branch drawn with probability proportional to `probability`,
    reproducibly for a given seed."""
    rng = np.random.default_rng(seed)
    weights = np.array([b.probability for b in branches])
    return branches[rng.choice(len(branches), p=weights / weights.sum())]


def bell_measure(psi: StateVector, seed: int | None = None) -> tuple[BellLabel | None, BellBranch]:
    """Apply the pi/4 map, then projectively measure every atom.

    Outcomes outside the four Bell images are flagged (label None), never
    silently labeled. With a seed the branch is sampled reproducibly; without
    one the most probable branch is returned (useful only for deterministic
    inputs).
    """
    branches = enumerate_bell_branches(psi)
    if not branches:
        raise ValueError("state has no measurable support")
    if seed is None:
        branch = max(branches, key=lambda b: b.probability)
    else:
        branch = _sample(branches, seed)
    return branch.label, branch


# ----------------------------------------------------------------- teleport

# pair-space corrections, basis (gg, ge, eg, ee); code span is (eg, ge)
_PAIR_X = np.zeros((4, 4), dtype=complex)
_PAIR_X[0, 3] = _PAIR_X[3, 0] = 1.0   # gg <-> ee (outside code space, any unitary choice)
_PAIR_X[1, 2] = _PAIR_X[2, 1] = 1.0   # ge <-> eg: logical X
_PAIR_Z = np.diag([1.0, -1.0, 1.0, 1.0]).astype(complex)  # -1 on |ge> = |0~>

_CORRECTIONS = {
    "I": np.eye(4, dtype=complex),
    "X": _PAIR_X,
    "Z": _PAIR_Z,
    "XZ": _PAIR_X @ _PAIR_Z,
}


@dataclass(frozen=True)
class TeleportBranch:
    label: BellLabel
    probability: float | np.ndarray  # the broadcast input shape
    fidelity: float | np.ndarray


@dataclass(frozen=True)
class TeleportReport:
    branches: tuple[TeleportBranch, ...]
    sampled_label: str | None = None
    sampled_fidelity: float | None = None


def _input_pair_state(theta: float | np.ndarray) -> np.ndarray:
    """(|ge> + e^{i theta} |eg>)/sqrt2 on one pair, basis (gg, ge, eg, ee);
    shape theta.shape + (4,)."""
    v = np.zeros(np.shape(theta) + (4,), dtype=complex)
    v[..., 1] = 1 / np.sqrt(2)                 # |ge> = |0~>
    v[..., 2] = np.exp(1j * theta) / np.sqrt(2)  # |eg> = |1~>
    return v


def teleport(theta: float | np.ndarray, delay: float | np.ndarray = 0.0, encoding: str = "dfs",
             seed: int | None = None, atom_splitting: float = 1.0,
             dephase_phi: float | np.ndarray | None = None,
             apply_corrections: bool = True) -> tuple[float | np.ndarray, TeleportReport]:
    """Teleport (|ge> + e^{i theta}|eg>)/sqrt2 from Alice to Bob.

    dfs: full six-atom protocol; Bob's pair evolves freely for `delay`
    (optionally with collective dephasing `dephase_phi`) before the
    correction selected by Alice's two classical bits is applied. Both are
    `collective_phases(phi, 2)` (phi = atom_splitting * delay, dephase_phi),
    the identity on the code states.

    `theta`, `delay` and `dephase_phi` broadcast against each other, so a
    theta x delay grid is one call with theta[:, None] and delay[None, :];
    every branch's probability and fidelity, and the returned average, then
    have the broadcast shape. The Bell map runs once per theta row. Each
    temporary holds about 64 B per grid point (4 complex amplitudes), so a
    T x D grid costs about 64 T D bytes per array.

    bare: the single-atom comparison channel. An ideally teleported
    (|g> + e^{i theta}|e>)/sqrt2 goes through `collective_phases(., 1)` for
    the delay and `dephase_phi`, so every branch has fidelity
    cos^2((splitting*delay + dephase_phi)/2), probability 1/4, and the
    average is that fidelity; broadcasts as for dfs.

    Both encodings enumerate all four branches; with a seed one branch is
    also sampled, by the same draw as `bell_measure`, and reported as
    `sampled_label`/`sampled_fidelity`. Seeded sampling needs scalar inputs,
    and both encodings reject a negative or non-finite delay (ValueError).

    Returns (average fidelity, report).
    """
    if encoding not in ("dfs", "bare"):
        raise ValueError(f"encoding must be 'dfs' or 'bare', got {encoding!r}")
    if not np.all(np.isfinite(delay) & (delay >= 0)):
        raise ValueError("delay must be finite and >= 0")
    if seed is not None and any(map(np.ndim, (theta, delay, dephase_phi))):
        raise ValueError("seeded sampling needs scalar inputs")
    if encoding == "bare":
        psi = np.stack(np.broadcast_arrays(1.0, np.exp(1j * theta)), -1) / np.sqrt(2)  # (g, e)
        phases = collective_phases(atom_splitting * delay, 1)
        if dephase_phi is not None:
            phases = collective_phases(dephase_phi, 1) * phases
        # every branch has this fidelity, so it is the average (a four-term sum could round differently)
        avg = (np.abs(np.vecdot(psi, phases * psi)) ** 2)[()]
        branches = tuple(TeleportBranch(label=lab, probability=np.full_like(avg, 0.25)[()], fidelity=avg)
                         for lab in BellLabel)
    else:
        psi_in = _input_pair_state(theta)                  # atoms (a1, a2), (..., 4)
        # composite order (a1 a2 a3 a4 b1 b2): alice's four atoms are the top
        # bits, so rows index alice configs and columns bob's pair
        joint = (psi_in[..., :, None, None] * _PHI_PLUS_CHANNEL).reshape(psi_in.shape[:-1] + (16, 4))
        mapped = BELL_MAP @ joint                          # Bell map on alice only, once per theta

        free = collective_phases(atom_splitting * delay, 2)
        dephase = None if dephase_phi is None else collective_phases(dephase_phi, 2)
        branches = []
        for outcome_labels, label in BELL_OUTCOME_MAP.items():
            bob = mapped[..., atomic_index(outcome_labels), :]
            # the input is normalised, so every branch has probability 1/4
            p = np.vecdot(bob, bob).real
            bob = free * (bob / np.sqrt(p)[..., None])
            if dephase is not None:
                bob = dephase * bob
            if apply_corrections:
                bob = bob @ _CORRECTIONS[CORRECTION_TABLE[label]].T
            fid = np.abs(np.vecdot(psi_in, bob)) ** 2       # bob's target has the input's form
            branches.append(TeleportBranch(label=label, probability=np.broadcast_to(p, fid.shape)[()],
                                           fidelity=fid[()]))
        branches = tuple(branches)
        avg = sum(b.probability * b.fidelity for b in branches)
    pick = None if seed is None else _sample(branches, seed)
    report = TeleportReport(
        branches=branches,
        sampled_label=None if pick is None else pick.label.value,
        sampled_fidelity=None if pick is None else pick.fidelity,
    )
    return avg, report
