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
from .logical import collective_phases, free_phase_drift


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
# the logical Phi+ channel that teleport shares between Alice (a3, a4) and Bob (b1, b2)
_PHI_PLUS_CHANNEL = prepare_bell(BellLabel.PHI_PLUS).amplitudes


@dataclass(frozen=True)
class MeasurementRecord:
    outcomes: tuple[str, ...]   # per-atom "e"/"g", atom 1 first
    probability: float
    is_bell: bool


@dataclass(frozen=True)
class BellBranch:
    label: BellLabel | None
    outcomes: tuple[str, ...]
    probability: float


def enumerate_bell_branches(psi: StateVector, atol: float = 1e-15) -> tuple[BellBranch, ...]:
    """All measurement branches of the Bell-discrimination map, deterministic."""
    if psi.n_max != 0:
        raise ValueError("Bell discrimination operates on atomic-only states (n_max=0)")
    mapped = BELL_MAP @ psi.amplitudes
    probs = np.abs(mapped) ** 2
    branches = []
    for cfg in range(16):
        p = float(probs[cfg])
        if p <= atol:
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


def bell_measure(psi: StateVector, seed: int | None = None) -> tuple[BellLabel | None, MeasurementRecord]:
    """Apply the pi/4 map, then projectively measure every atom.

    Outcomes outside the four Bell images are flagged (is_bell=False, label
    None), never silently labeled. With a seed the branch is sampled
    reproducibly; without one the most probable branch is returned (useful
    only for deterministic inputs).
    """
    branches = enumerate_bell_branches(psi)
    if not branches:
        raise ValueError("state has no measurable support")
    if seed is None:
        branch = max(branches, key=lambda b: b.probability)
    else:
        branch = _sample(branches, seed)
    record = MeasurementRecord(
        outcomes=branch.outcomes,
        probability=branch.probability,
        is_bell=branch.label is not None,
    )
    return branch.label, record


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
    probability: float
    fidelity: float


@dataclass(frozen=True)
class TeleportReport:
    branches: tuple[TeleportBranch, ...]
    sampled_label: str | None = None
    sampled_fidelity: float | None = None


def _input_pair_state(theta: float) -> np.ndarray:
    """(|ge> + e^{i theta} |eg>)/sqrt2 on one pair, basis (gg, ge, eg, ee)."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / np.sqrt(2)                 # |ge> = |0~>
    v[2] = np.exp(1j * theta) / np.sqrt(2)  # |eg> = |1~>
    return v


def teleport(theta: float, delay: float = 0.0, encoding: str = "dfs",
             seed: int | None = None, atom_splitting: float = 1.0,
             dephase_phi: float | None = None,
             apply_corrections: bool = True) -> tuple[float, TeleportReport]:
    """Teleport (|ge> + e^{i theta}|eg>)/sqrt2 from Alice to Bob.

    dfs: full six-atom protocol; Bob's pair evolves freely for `delay`
    (optionally with collective dephasing `dephase_phi`) before the
    correction selected by Alice's two classical bits is applied. Both are
    `collective_phases(phi, 2)` (phi = atom_splitting * delay, dephase_phi),
    the identity on the code states. All four branches are enumerated; with
    a seed one branch is also sampled, by the same draw as `bell_measure`.

    bare: the single-atom comparison channel; an ideally teleported bare
    superposition (|g> + e^{i theta}|e>)/sqrt2 dephases during the classical
    delay, fidelity cos^2(splitting*delay/2) per branch.

    Returns (average fidelity, report).
    """
    if encoding == "bare":
        fid = free_phase_drift(theta, atom_splitting, 0.0, delay, "bare")
        branches = tuple(
            TeleportBranch(label=lab, probability=0.25, fidelity=fid) for lab in BellLabel
        )
        return fid, TeleportReport(branches=branches)
    if encoding != "dfs":
        raise ValueError(f"encoding must be 'dfs' or 'bare', got {encoding!r}")

    psi_in = _input_pair_state(theta)                  # atoms (a1, a2)
    # composite order (a1 a2 a3 a4 b1 b2): alice's four atoms are the top
    # bits, so rows index alice configs and columns bob's pair
    joint = np.kron(psi_in, _PHI_PLUS_CHANNEL).reshape(16, 4)

    mapped = BELL_MAP @ joint                          # Bell map on alice only

    target = psi_in                                    # same pair-space form on bob
    free = collective_phases(atom_splitting * delay, 2)
    dephase = None if dephase_phi is None else collective_phases(dephase_phi, 2)
    branches = []
    for outcome_labels, label in BELL_OUTCOME_MAP.items():
        bob = mapped[atomic_index(outcome_labels), :].copy()
        p = float(np.vdot(bob, bob).real)
        if p == 0.0:
            branches.append(TeleportBranch(label=label, probability=0.0, fidelity=0.0))
            continue
        bob = bob / np.sqrt(p)
        bob = free * bob
        if dephase is not None:
            bob = dephase * bob
        if apply_corrections:
            bob = _CORRECTIONS[CORRECTION_TABLE[label]] @ bob
        fid = float(abs(np.vdot(target, bob)) ** 2)
        branches.append(TeleportBranch(label=label, probability=p, fidelity=fid))
    branches = tuple(branches)
    avg = float(sum(b.probability * b.fidelity for b in branches))
    pick = None if seed is None else _sample(branches, seed)

    report = TeleportReport(
        branches=branches,
        sampled_label=None if pick is None else pick.label.value,
        sampled_fidelity=None if pick is None else pick.fidelity,
    )
    return avg, report

