"""The conserved-excitation sector engine against the dense composite-space oracle.

The full H conserves n_e + n, so `model.excitation_sector` replaces the dense
Hamiltonian in validate and in `derived_coupling`. These tests pin its blocks
to the dense slices bit for bit and its dynamics to the dense evolution. The
default report of every experiment is held to its golden copy within a stated
tolerance, so tier-1 sees any drift of a report, not only of validate-effective.
"""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfscavity import validate
from dfscavity.cli import EXPERIMENTS, parse_config, run_experiment
from dfscavity.dynamics import make_propagator
from dfscavity.hilbert import (
    N_ATOMIC_CONFIGS,
    Operator,
    SystemParams,
    basis_index,
    excitation_number,
)
from dfscavity.model import (
    build_full_hamiltonian,
    build_h0,
    build_hint,
    derived_coupling,
    effective_coupling,
    excitation_sector,
    two_excitation_manifold,
)
from dfscavity.validate import RabiFitError, compare_effective_models, effective_difference_entries, extract_rabi
from test_hilbert import kron_hint

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
# the numeric tolerance of the benchmark's golden check (perfbench/checks.py)
GOLDEN_RTOL = 1e-8
GOLDEN_ATOL = 1e-10

EPS = np.finfo(float).eps

couplings = st.floats(1e-3, 1e6, allow_nan=False)
ratios = st.floats(5.0, 50.0, allow_nan=False)


def _sector_start(sector):
    psi = np.zeros(len(sector.indices), dtype=complex)
    psi[sector.manifold[0]] = 1.0  # |egeg, n>
    return psi


class TestExcitationSector:
    @pytest.mark.parametrize("n_max", [4, 8, 16, 32])
    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(G=couplings, ratio=ratios)
    def test_blocks_equal_dense_slices(self, n_max, G, ratio):
        p = SystemParams(G=G, delta=ratio * G, n_max=n_max)
        h0, hint, reference = build_h0(p).matrix, build_hint(p).matrix, kron_hint(G, n_max)
        for n in range(n_max - 3):
            sector = excitation_sector(p, n + 2)
            block = np.ix_(sector.indices, sector.indices)
            assert np.array_equal(sector.h0.matrix, h0[block])
            assert np.array_equal(sector.hint.matrix, hint[block])
            assert np.array_equal(sector.hint.matrix, reference[block])

    @pytest.mark.parametrize("n_max", [4, 8, 16, 32])
    def test_members_are_the_conserved_excitation_states(self, n_max):
        p = SystemParams(G=1.0, delta=10.0, n_max=n_max)
        for n in range(n_max - 3):
            sector = excitation_sector(p, n + 2)
            expected = [basis_index(a, n + 2 - excitation_number(a), n_max)
                        for a in range(N_ATOMIC_CONFIGS) if excitation_number(a) <= n + 2]
            assert sector.indices.tolist() == expected
            assert np.all(sector.levels <= n_max - 2)  # clear of both guard levels

    @pytest.mark.parametrize("n_max", [4, 8, 16, 32])
    def test_dense_hamiltonian_has_no_coupling_out_of_the_sector(self, n_max):
        p = SystemParams(G=1.3, delta=17.0, n_max=n_max)
        h = build_full_hamiltonian(p).matrix
        for n in range(n_max - 3):
            inside = excitation_sector(p, n + 2).indices
            outside = np.setdiff1d(np.arange(p.dim), inside)
            assert not np.any(h[np.ix_(outside, inside)])
            assert not np.any(h[np.ix_(inside, outside)])

    def test_manifold_is_the_two_excitation_states_at_n(self):
        for n_max in (4, 8, 16, 32):
            p = SystemParams(G=1.0, delta=10.0, n_max=n_max)
            for n in range(n_max - 3):
                sector = excitation_sector(p, n + 2)
                members = sector.indices[list(sector.manifold)]
                assert members.tolist() == list(two_excitation_manifold(p, n))
                assert np.array_equal(sector.levels, sector.indices % (n_max + 1))

    def test_memory_does_not_grow_with_n_max(self):
        # built from formulas: no (n_max+1)^2 ladder behind the at most 16 states
        tracemalloc.start()
        try:
            excitation_sector(SystemParams(G=1.0, delta=10.0, n_max=1000), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_validate_effective_results_do_not_depend_on_n_max(self):
        # every number comes from the sector; only the perturbative flag reads n_max
        results = {}
        for n_max in (8, 1000):
            config = parse_config(f"n_max = {n_max}\n", experiment="validate-effective")
            results[n_max] = run_experiment(config).results
            for run, ratio in zip(results[n_max]["runs"], config.delta_over_G):
                params = SystemParams(G=config.G, delta=ratio * config.G, n_max=n_max)
                assert run.pop("perturbative_ok") == params.perturbative_ok
        assert results[1000] == results[8]

    @pytest.mark.parametrize("n_max", [8, 16])
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(G=couplings, ratio=ratios, level=st.floats(0.0, 1.0))
    def test_amplitudes_match_dense_evolution(self, n_max, G, ratio, level):
        # Over 1.5 exchange periods the phase accumulated by the largest
        # eigenvalue is ~1e4 rad at delta/G = 50, and the dense eigensolver's
        # eigenvalue round-off eps*||H|| turns into that much amplitude error
        # (a 40-digit reference shows the dense side off by up to 2.4e-11 there,
        # the sector by about 1e-12). So the bound is 1e-12 plus the dense
        # oracle's own round-off scale.
        n = round(level * (n_max - 4))
        p = SystemParams(G=G, delta=ratio * G, n_max=n_max)
        sector = excitation_sector(p, n + 2)
        t_max = 1.5 * 2 * np.pi / effective_coupling(n, p).omega
        times = np.linspace(0.0, t_max, 41)
        h = Operator(sector.h0.matrix + sector.hint.matrix)
        ours = make_propagator(h, t_max).series(_sector_start(sector), times)
        # one dense spectrum gives the series and max|w|, the 2-norm of the hermitian H
        dense_propagator = make_propagator(build_full_hamiltonian(p), t_max)
        start = np.zeros(p.dim, dtype=complex)
        start[basis_index("egeg", n, n_max)] = 1.0
        dense = dense_propagator.series(start, times)
        atol = 1e-12 + 8 * EPS * np.max(np.abs(dense_propagator.spectrum[0])) * t_max
        assert np.max(np.abs(dense[:, sector.indices] - ours)) <= atol
        assert np.max(np.abs(np.delete(dense, sector.indices, axis=1))) <= atol

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(G=couplings, ratio=ratios, n=st.integers(0, 3))
    def test_difference_entries_still_thirty(self, G, ratio, n):
        assert len(effective_difference_entries(SystemParams(G=G, delta=ratio * G, n_max=8), n)) == 30

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("n_max", [8, 16, 32])
    def test_derived_coupling_matches_closed_form(self, n, n_max):
        p = SystemParams(G=1.3, delta=17.0, n_max=n_max)
        assert derived_coupling(p, n).omega == pytest.approx(effective_coupling(n, p).omega, rel=1e-12)


def dicke_ladder_levels(G, delta, n):
    """Eigenvalues of the symmetric Dicke ladder |gggg, n+2>, |D2, n>, |eeee, n-2>
    (|D2> the normalised sum of the six two-excitation configurations), built from
    formulas; the last state exists only for n >= 2."""
    energies = delta / 2.0 * np.array([n + 2, n, n - 2])
    couplings = np.sqrt(6.0) * G * np.sqrt([(n + 1) * (n + 2), n * (n - 1)])
    size = 3 if n >= 2 else 2
    block = np.diag(energies[:size]) + np.diag(couplings[:size - 1], 1) + np.diag(couplings[:size - 1], -1)
    return np.linalg.eigvalsh(block)


class TestDickeReduction:
    """From any two-excitation start the exact dynamics occupies the Dicke ladder
    and one dark level only, which is why the folded series evolves 3 or 4
    frequencies instead of one per sector state."""

    @pytest.mark.parametrize("ratio", [5.0, 10.0, 20.0, 40.0, 80.0])
    @pytest.mark.parametrize("n", range(7))
    def test_occupied_eigenspaces_are_ladder_plus_dark_level(self, n, ratio):
        G, delta = 1.0, ratio
        sector = excitation_sector(SystemParams(G=G, delta=delta, n_max=10), n + 2)
        w, v = np.linalg.eigh(sector.h0.matrix + sector.hint.matrix)
        # eigenspaces: eigenvalues closer than 1e-9 delta are one level
        starts = np.flatnonzero(np.r_[True, np.diff(w) > 1e-9 * delta])
        expected = np.sort(np.r_[dicke_ladder_levels(G, delta, n), delta / 2.0 * n])
        for k in sector.manifold:  # each two-excitation configuration at n
            psi = np.zeros(len(w), dtype=complex)
            psi[k] = 1.0
            weights = np.add.reduceat(np.abs(v.conj().T @ psi) ** 2, starts)
            occupied = w[starts][weights > 1e-12]
            assert len(occupied) == (3 if n < 2 else 4)
            assert np.sum(np.abs(occupied - delta / 2.0 * n) < 1e-9 * delta) == 1
            np.testing.assert_allclose(occupied, expected, rtol=0, atol=1e-9 * delta)


class TestFockDomain:
    @pytest.mark.parametrize("n", [-1, 5, 7, 8])
    def test_compare_effective_models_rejects_n_outside_domain(self, n):
        # from n = n_max - 3 up, the intermediates |gggg, n + 2> reach the guard levels or the cut
        with pytest.raises(ValueError, match="n <= n_max - 4"):
            compare_effective_models(SystemParams(G=1.0, delta=10.0, n_max=8), n=n)

    @pytest.mark.parametrize("n", [-1, 5])
    def test_extract_rabi_and_sector_reject_the_same_levels(self, n):
        p = SystemParams(G=1.0, delta=10.0, n_max=8)
        with pytest.raises(ValueError, match="n <= n_max - 4"):
            extract_rabi(p, n=n)
        with pytest.raises(ValueError, match="n <= n_max - 4"):
            excitation_sector(p, n + 2)
        with pytest.raises(ValueError, match="n <= n_max - 4"):
            derived_coupling(p, n)

    def test_last_level_in_domain_accepted(self):
        comp = compare_effective_models(SystemParams(G=1.0, delta=10.0, n_max=8), n=4)
        assert comp.difference_nonempty

    def test_zero_coupling_rejected_by_both_exact_runs(self):
        # G = 0 leaves no exchange period for the time grid to span
        p = SystemParams(G=0.0, delta=10.0, n_max=8)
        for run in (extract_rabi, compare_effective_models):
            with pytest.raises(RabiFitError, match="G = 0"):
                run(p, n=0)


def test_compare_effective_models_derives_second_order_once(monkeypatch):
    calls = []
    derive = validate.derive_second_order

    def counting_derive(*args):
        calls.append(args)
        return derive(*args)

    monkeypatch.setattr(validate, "derive_second_order", counting_derive)
    p = SystemParams(G=1.0, delta=20.0, n_max=8)
    comp = compare_effective_models(p, n=0)
    assert len(calls) == 1
    assert comp.difference_entries == effective_difference_entries(p)


def test_extract_rabi_diagonalises_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    run = extract_rabi(SystemParams(G=1.0, delta=20.0, n_max=32), n=0, min_peak_population=0.0)
    assert len(calls) == 1
    assert calls[0][0] <= 16
    assert run.unitarity_defect < 1e-10
    assert run.guard_leakage == 0.0


def _leaves(value, path=""):
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _leaves(child, f"{path}.{key}" if path else str(key))
    else:
        yield path, value


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_default_report_matches_golden_within_tolerance(experiment):
    report = json.loads(run_experiment(parse_config("seed = 0\n", experiment)).to_json())
    golden = json.loads((GOLDEN_DIR / f"{experiment}.json").read_text(encoding="utf-8"))
    assert report["flags"] == golden["flags"]
    ours, theirs = dict(_leaves(report)), dict(_leaves(golden))
    assert ours.keys() == theirs.keys()
    for path, expected in theirs.items():
        got = ours[path]
        if isinstance(expected, (int, float)) and not isinstance(expected, bool):
            assert math.isclose(got, expected, rel_tol=GOLDEN_RTOL, abs_tol=GOLDEN_ATOL), path
        else:
            assert got == expected and type(got) is type(expected), path
