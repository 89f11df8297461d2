"""Bell-state preparation, deterministic Bell discrimination, and logical
teleportation with a classical-delay channel.

The four Bell states carry +-i relative phases:

    Phi+- = (|egeg> +- i |gege>)/sqrt2,   Psi+- = (|egge> +- i |geeg>)/sqrt2.

A pair-exchange pulse of area pi/4 (`dynamics.pair_exchange`, the closed form
of every four-atom pulse) maps them onto distinct product states (Phi+ ->
|egeg>, Phi- -> -i|gege>, Psi+ -> |egge>, Psi- -> -i|geeg>), so individual atom
readout identifies each Bell state; the -i phases are global per measurement
branch and are absorbed into the outcome -> correction table.

Teleportation: Alice holds the logical input on atoms (a1,a2) and half of a
logical Phi+ channel on (a3,a4); Bob holds (b1,b2). Alice applies the pi/4
map to her four atoms and measures each atom; two classical bits select
Bob's Pauli correction. The outcome -> correction table was derived once by
branch enumeration and is re-verified by the tests:

    Phi+ -> I,  Phi- -> Z,  Psi+ -> XZ,  Psi- -> X.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .dynamics import pair_exchange
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


def prepare_bell(label: BellLabel | str) -> StateVector:
    """The exact normalized four-atom Bell state (atomic-only, n_max=0). `label` is a
    BellLabel or its value, such as "Phi+"; anything else raises ValueError."""
    label = BellLabel(label)
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


# the logical Phi+ channel that teleport shares between Alice (a3, a4) and Bob (b1, b2);
# rows index alice's pair, columns bob's
_PHI_PLUS_CHANNEL = prepare_bell(BellLabel.PHI_PLUS).amplitudes.reshape(4, 4)


class BellBranch(NamedTuple):
    label: BellLabel | None     # None: the outcome is not one of the four Bell images
    outcomes: tuple[str, ...]   # per-atom "e"/"g", atom 1 first
    probability: float


def enumerate_bell_branches(psi: StateVector) -> tuple[BellBranch, ...]:
    """All measurement branches of the Bell-discrimination map with probability
    above _BRANCH_ATOL, deterministic."""
    mapped = pair_exchange(psi.amplitudes, BELL_MAP_PULSE_AREA)
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

_CORRECTIONS = {"I": np.eye(4, dtype=complex), "X": _PAIR_X, "Z": _PAIR_Z, "XZ": _PAIR_X @ _PAIR_Z}
# Alice's four outcome configurations and Bob's correction after each, in BELL_OUTCOME_MAP order
_OUTCOME_ROWS = [atomic_index(c) for c in BELL_OUTCOME_MAP]
_BRANCH_CORRECTIONS = np.stack([_CORRECTIONS[CORRECTION_TABLE[label]] for label in BELL_OUTCOME_MAP.values()])


class TeleportBranch(NamedTuple):
    label: BellLabel
    probability: float | np.ndarray  # the broadcast input shape
    fidelity: float | np.ndarray


class TeleportReport(NamedTuple):
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


def _check_phase(atom_splitting: float, delay: float | np.ndarray) -> None:
    """Raise ValueError unless the free-evolution phase atom_splitting * delay is finite;
    one scalar check, at the longest delay (delays are >= 0)."""
    longest = float(np.max(delay, initial=0.0))
    if not np.isfinite(abs(float(atom_splitting)) * longest):
        raise ValueError(f"the phase atom_splitting * delay at atom_splitting = {atom_splitting}, "
                         f"delay = {longest} is not finite")


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
    have the broadcast shape. Each branch's weights conj(C^H psi) * bob/|bob|
    depend on theta alone; its fidelity at every point is |D @ weights^T|^2,
    D the channel diagonal there, one product per theta row. A call peaks
    at about 100 B per point, 165 B with dephasing, and keeps 40 B.

    bare: the single-atom comparison channel. An ideally teleported
    (|g> + e^{i theta}|e>)/sqrt2 goes through `collective_phases(., 1)` for
    the delay and `dephase_phi`, so every branch has fidelity
    cos^2((splitting*delay + dephase_phi)/2), probability 1/4, and the
    average is that fidelity; broadcasts as for dfs.

    Both encodings enumerate all four branches; with a seed one branch is
    also sampled, by the same draw as `bell_measure`, and reported as
    `sampled_label`/`sampled_fidelity`. Seeded sampling needs scalar inputs,
    and both encodings reject a negative or non-finite delay, a non-finite
    theta, atom_splitting or dephase_phi, and a delay whose phase
    atom_splitting * delay overflows (ValueError).

    Returns (average fidelity, report).
    """
    if encoding not in ("dfs", "bare"):
        raise ValueError(f"encoding must be 'dfs' or 'bare', got {encoding!r}")
    if not np.all(np.isfinite(delay) & (delay >= 0)):
        raise ValueError("delay must be finite and >= 0")
    for name, value in (("theta", theta), ("atom_splitting", atom_splitting), ("dephase_phi", dephase_phi)):
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")
    _check_phase(atom_splitting, delay)
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
        # composite order (a1 a2 a3 a4 b1 b2): rows index alice's 16 configs, columns bob's
        # pair; the Bell map acts on the rows (swapped to axis 0 for pair_exchange), once per theta
        joint = (psi_in[..., :, None, None] * _PHI_PLUS_CHANNEL).reshape(psi_in.shape[:-1] + (16, 4))
        mapped = pair_exchange(joint.swapaxes(0, -2), BELL_MAP_PULSE_AREA).swapaxes(0, -2)
        bob = mapped[..., _OUTCOME_ROWS, :]                # (..., 4 branches, 4)
        p = np.vecdot(bob, bob).real                       # the input is normalised: each is 1/4
        # <psi|C D bob> = <C^H psi|D bob>, psi bob's target: weights conj(C^H psi) * bob/|bob|
        corrections = _BRANCH_CORRECTIONS if apply_corrections else np.eye(4)
        target = (psi_in.conj()[..., None, None, :] @ corrections)[..., 0, :]
        weights = target * (bob / np.sqrt(p)[..., None])
        channel = collective_phases(atom_splitting * delay, 2)
        if dephase_phi is not None:
            channel = channel * collective_phases(dephase_phi, 2)
        shape = np.broadcast_shapes(np.shape(theta), channel.shape[:-1])
        if np.shape(theta)[-1:] == (1,):  # theta rows: every point of a row in one (n x 4) @ (4 x 4)
            channel, weights = np.atleast_2d(channel), weights[..., 0, :, :]
        else:
            channel = channel[..., None, :]
        fid = (np.abs(channel @ weights.mT) ** 2).reshape(shape + (4,))
        branches = tuple(TeleportBranch(label, np.broadcast_to(p[..., k], shape)[()], fid[..., k][()])
                         for k, label in enumerate(BELL_OUTCOME_MAP.values()))
        avg = sum(b.probability * b.fidelity for b in branches)
    pick = None if seed is None else _sample(branches, seed)
    report = TeleportReport(
        branches=branches,
        sampled_label=None if pick is None else pick.label.value,
        sampled_fidelity=None if pick is None else pick.fidelity,
    )
    return avg, report
