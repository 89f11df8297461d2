"""Pulse primitives, the seven-gate CNOT sequence, and duration accounting.

Primitives (pulse areas fixed unless overridden):

* H on a pair, `h_gate()`: |eg> -> (|eg> - i|ge>)/sqrt2, |ge> -> (|ge> - i|eg>)/sqrt2,
  identity on |gg>, |ee> (a lambda*t = pi/4 two-atom session);
* P on a pair, `p_gate(sign)`: pi/2 phase on |eg>, all other pair states unchanged;
* R on all four atoms, `r_gate_atomic()`: the pair-exchange evolution at
  Omega*t = 3*pi/4.

H and P are the same 4x4 array on either pair, so they take no pair;
`_gate_atomic`, the one reader of a gate's target, lifts them onto pair (1,2)
or (3,4) and rejects any other target.

The CNOT sequence is H34, P34, R, P34, H12, H34, P34^-1 with control on pair
(3,4) and target on pair (1,2). Neither the temporal reading of the gate
list nor the sign of the P phase is fixed a priori; `compile_cnot` resolves
both by exhaustive search against the truth table (4 candidates: 2 orders x
2 signs) and records the selected convention. The search finds that the "+"
sign passes in both orders and "-" in neither, with all four truth-table
output phases exactly -1 (the compiled unitary is -CNOT, so it squares to
the identity).

Gates, products and the logical block that `verify_truth_table` checks are
plain arrays. `_gate_atomic` lifts each gate (a pair gate as np.kron with
identity on the other pair) once per process, P and P_inv once per sign,
read-only; `sequence_unitary_atomic`, the one product builder, multiplies out
each search candidate. cnot-verify searches once and reports the first passing
convention, or the first convention when none passes (a broken gate set is a
report with false flags); `compile_cnot` takes `_first_passing`, which raises
then.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dynamics import pair_exchange
from .hilbert import UNITARY_ATOL, SystemParams, _is_integer, unitary_defect
from .logical import LOGICAL_CONFIGS, LOGICAL_INDICES
from .model import effective_coupling

VALID_PAIRS = ((1, 2), (3, 4))

H_PULSE_AREA = np.pi / 4        # lambda * t for an H session
R_PULSE_AREA = 3 * np.pi / 4    # Omega * t for the R session
P_PHASE = np.pi / 2
P_GATE_DURATION = 0.0           # s, a P gate is booked as instantaneous

EXCITED_STATE_LIFETIME = 3e-2   # s, Rydberg excited-state lifetime scale

# pair-space basis order (first atom most significant): gg, ge, eg, ee
_PAIR_GG, _PAIR_GE, _PAIR_EG, _PAIR_EE = 0, 1, 2, 3

# truth table on the logical basis (|1~1~>, |1~0~>, |0~1~>, |0~0~>):
# control pair (3,4) in |1~> flips the target pair (1,2)
CNOT_TRUTH_TABLE = {0: 2, 1: 1, 2: 0, 3: 3}


class GateDescriptor(NamedTuple):
    kind: str                      # "H" | "P" | "P_inv" | "R"
    target: tuple[int, int] | str  # atom pair, or "all" for R
    pulse_area: float


class CnotConvention(NamedTuple):
    application_order: str  # "listed_first_applied_first" | "listed_first_applied_last"
    p_sign: int             # +1 | -1


class PulseSequence(NamedTuple):
    gates: tuple[GateDescriptor, ...]
    convention: CnotConvention


class TruthTableRow(NamedTuple):
    input_state: str      # four-letter atomic label of the logical input
    expected: str
    observed: str
    probability: float
    phase: complex        # amplitude on the expected output state


class TruthTableReport(NamedTuple):
    rows: tuple[TruthTableRow, ...]
    passed: bool


def h_gate() -> np.ndarray:
    """H on one pair's two-atom space (basis gg, ge, eg, ee), a 4x4 array."""
    u = np.eye(4, dtype=complex)
    c = 1 / np.sqrt(2)
    u[_PAIR_EG, _PAIR_EG] = c
    u[_PAIR_GE, _PAIR_EG] = -1j * c
    u[_PAIR_GE, _PAIR_GE] = c
    u[_PAIR_EG, _PAIR_GE] = -1j * c
    return u


def p_gate(sign: int = +1) -> np.ndarray:
    """pi/2 phase on |eg> of one pair, a 4x4 array; sign picks e^{+i pi/2} or e^{-i pi/2}."""
    if not (_is_integer(sign) and sign in (+1, -1)):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    u = np.eye(4, dtype=complex)
    u[_PAIR_EG, _PAIR_EG] = np.exp(1j * sign * P_PHASE)
    return u


def r_gate_atomic(pulse_area: float = R_PULSE_AREA) -> np.ndarray:
    """R on the full 16-dim atomic space, a 16x16 array: pair-exchange rotation
    on the six two-excitation configurations, identity elsewhere."""
    return pair_exchange(np.eye(16, dtype=complex), pulse_area)


def _logical_block(u16: np.ndarray) -> np.ndarray:
    """Restriction of an atomic-space unitary to the code space. Exact for
    products of H, P and R, which are block-diagonal on code space and its
    complement; on it R is exp(-i * area * X(x)X), each logical state
    rotating into its all-atoms-flipped partner."""
    return u16[np.ix_(LOGICAL_INDICES, LOGICAL_INDICES)]


def cnot_gate_list() -> tuple[GateDescriptor, ...]:
    """The seven-gate sequence, in listed order."""
    return (
        GateDescriptor("H", (3, 4), H_PULSE_AREA),
        GateDescriptor("P", (3, 4), P_PHASE),
        GateDescriptor("R", "all", R_PULSE_AREA),
        GateDescriptor("P", (3, 4), P_PHASE),
        GateDescriptor("H", (1, 2), H_PULSE_AREA),
        GateDescriptor("H", (3, 4), H_PULSE_AREA),
        GateDescriptor("P_inv", (3, 4), P_PHASE),
    )


@lru_cache(maxsize=None, typed=True)  # typed: True must not get the +1 gate
def _gate_atomic(gate: GateDescriptor, p_sign: int) -> np.ndarray:
    """`gate` on the 16-dim atomic space, a read-only array built once per (gate, P sign)."""
    if gate.kind == "R":
        u = r_gate_atomic(gate.pulse_area)
    elif gate.kind not in ("H", "P", "P_inv"):
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    elif gate.target not in VALID_PAIRS:
        raise ValueError(f"pair must be one of {VALID_PAIRS}, got {gate.target}")
    else:
        u4 = h_gate() if gate.kind == "H" else p_gate(p_sign)
        u4 = u4.conj() if gate.kind == "P_inv" else u4  # p_gate(-p_sign) bit for bit; -True is -1
        eye = np.eye(4, dtype=complex)
        a, b = (u4, eye) if gate.target == (1, 2) else (eye, u4)
        u = (a[:, None, :, None] * b[None, :, None, :]).reshape(16, 16)  # np.kron(a, b)
    u.setflags(write=False)
    return u


def sequence_unitary_atomic(seq: PulseSequence) -> np.ndarray:
    """The sequence on the 16-dim atomic space as an array (for code-space
    checks); cavity factored out as everywhere in the effective model."""
    conv = seq.convention
    if conv.application_order == "listed_first_applied_first":
        order = seq.gates
    elif conv.application_order == "listed_first_applied_last":
        order = seq.gates[::-1]
    else:
        raise ValueError(f"unknown application order {conv.application_order!r}")
    u = np.eye(16, dtype=complex)
    for g in order:
        u = _gate_atomic(g, conv.p_sign if g.kind in ("P", "P_inv") else 1) @ u
    return u


def sequence_unitary_logical(seq: PulseSequence) -> np.ndarray:
    """The code-space block of `sequence_unitary_atomic`, a 4x4 array."""
    return _logical_block(sequence_unitary_atomic(seq))


def verify_truth_table(u: np.ndarray, prob_tol: float = 1e-10) -> TruthTableReport:
    """Check a 4x4 logical-space unitary against the CNOT truth table.

    PASS iff each of the four logical basis inputs lands on the listed output
    with probability >= 1 - prob_tol; the amplitude (phase) on the expected
    output is reported separately. Insensitive to any global phase of u.
    Raises ValueError unless prob_tol is in [0, 1) and u is a 4x4 unitary.
    """
    if not 0.0 <= prob_tol < 1.0:
        raise ValueError(f"prob_tol must be a number in [0, 1), got {prob_tol}")
    if u.shape != (4, 4):
        raise ValueError("truth-table verification expects a 4-dim logical operator")
    if not unitary_defect(u) < UNITARY_ATOL:
        raise ValueError("operator is not unitary")
    return _truth_table(u, prob_tol)


def _truth_table(u: np.ndarray, prob_tol: float = 1e-10) -> TruthTableReport:
    """`verify_truth_table` of a 4x4 array without its input checks."""
    probs = np.abs(u) ** 2
    observed = np.argmax(probs, axis=0).tolist()
    rows = tuple(TruthTableRow(
        input_state=LOGICAL_CONFIGS[col],
        expected=LOGICAL_CONFIGS[expected],
        observed=LOGICAL_CONFIGS[observed[col]],
        probability=float(probs[expected, col]),
        phase=complex(u[expected, col]),
    ) for col, expected in CNOT_TRUTH_TABLE.items())
    return TruthTableReport(rows=rows, passed=not any(r.probability < 1 - prob_tol for r in rows))


def convention_candidates() -> tuple[CnotConvention, ...]:
    return tuple(
        CnotConvention(order, sign)
        for order in ("listed_first_applied_first", "listed_first_applied_last")
        for sign in (+1, -1)
    )


def convention_search() -> tuple[tuple[CnotConvention, TruthTableReport, np.ndarray], ...]:
    """Run the truth table for all four conventions, in deterministic order;
    each entry keeps the candidate's 16x16 atomic product next to its report.
    A candidate whose logical block is not unitary fails, with its rows."""
    out = []
    for conv in convention_candidates():
        u = sequence_unitary_atomic(PulseSequence(cnot_gate_list(), conv))
        block = _logical_block(u)
        try:
            report = verify_truth_table(block)
        except ValueError:  # not unitary: the block is 4x4 and the tolerance the default
            report = _truth_table(block)._replace(passed=False)
        out.append((conv, report, u))
    return tuple(out)


def _first_passing(results) -> tuple[PulseSequence, TruthTableReport, np.ndarray]:
    """The seven-gate sequence under the first convention of a `convention_search`
    result that passes, with that convention's report and atomic product; hard
    error (with the best-achieved probabilities) if none passes."""
    for conv, report, u in results:
        if report.passed:
            return PulseSequence(gates=cnot_gate_list(), convention=conv), report, u
    lines = (f"  {conv}: worst-case probability {min(r.probability for r in report.rows):.6f}"
             for conv, report, _ in results)
    raise RuntimeError("no convention reproduces the CNOT truth table:\n" + "\n".join(lines))


def compile_cnot() -> PulseSequence:
    """The seven-gate sequence with the convention selected by exhaustive
    search; hard error (with the best-achieved probabilities) if nothing
    passes."""
    return _first_passing(convention_search())[0]


class DurationReport(NamedTuple):
    """Closed-form aggregate durations versus the per-gate bottom-up sum.

    The two closed forms are pi*|delta|/(8 G^2) for one maximal-entanglement
    pulse and 7*pi*|delta|/(8 G^2) for the whole CNOT. The bottom-up sum books
    each stated pulse area at the vacuum-sector rate |Omega(0)| and each P gate
    at P_GATE_DURATION; the mismatch against the aggregate form is reported,
    never reconciled.
    """

    entangle_time: float
    cnot_time_aggregate: float
    per_gate: tuple[float, ...]
    bottom_up_total: float
    discrepancy: float
    lifetime: float
    cnot_over_lifetime: float


def _pulses_time(pulses: int, name: str, params: SystemParams) -> float:
    """pulses * pi*|delta|/(8 G^2), that many maximal-entanglement pulses at the pair rate
    |Omega(0)| = 2 G^2/|delta|. Raises ValueError when that rate is out of range
    (model.effective_coupling), or unless the time is finite and positive."""
    effective_coupling(0, params)  # 0 at G = 0, else positive with G**2 in the float range
    time = pulses * np.pi * abs(params.delta) / (8 * params.G**2) if params.G else np.inf
    if not 0 < time < np.inf:
        form = ("" if pulses == 1 else f"{pulses} ") + "pi |delta|/(8 G^2)"
        raise ValueError(f"the {name} {form} at G = {params.G}, delta = {params.delta} is {time}, "
                         f"not {'positive' if time == 0 else 'finite'}")
    return time


def entangle_duration(params: SystemParams) -> float:
    """Time to a maximal two-pair entangled state: pi*|delta|/(8 G^2). Raises
    ValueError when the pair rate or the time is out of range."""
    return _pulses_time(1, "entangling time", params)


def cnot_duration(params: SystemParams) -> float:
    """Closed-form time of the whole CNOT: 7*pi*|delta|/(8 G^2). Raises
    ValueError when the pair rate or the time is out of range."""
    return _pulses_time(7, "CNOT time", params)


def schedule_duration(seq: PulseSequence, params: SystemParams) -> DurationReport:
    aggregate = cnot_duration(params)  # first: it rejects G = 0, where Omega(0) = 0
    omega0 = abs(effective_coupling(0, params).omega)
    per_gate = tuple(P_GATE_DURATION if gate.kind in ("P", "P_inv") else gate.pulse_area / omega0
                     for gate in seq.gates)
    bottom_up = float(sum(per_gate))
    return DurationReport(
        entangle_time=entangle_duration(params),
        cnot_time_aggregate=aggregate,
        per_gate=per_gate,
        bottom_up_total=bottom_up,
        discrepancy=aggregate - bottom_up,
        lifetime=EXCITED_STATE_LIFETIME,
        cnot_over_lifetime=aggregate / EXCITED_STATE_LIFETIME,
    )

