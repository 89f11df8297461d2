"""The closed-form spectra of the exact engine against `np.linalg.eigh`, their own
residual check, and the guard that no runtime path calls LAPACK.

`model.bright_ladder` splits `model.pair_block` into five dark states at
(delta/2) n and a 2x2 or 3x3 bright ladder; `dynamics.block_spectrum`,
`pair_swap_spectrum` and `uniform_spectrum` assemble the spectra of the block,
the pair-swap operator and the derived second-order operator from closed forms.
Here eigh is the oracle for each, at 1e-12 on amplitudes; a perturbed generator
must fail the residual check; and all eight default experiments plus the
benchmark's exact-scaled calls run with every LAPACK-backed `numpy.linalg`
entry point made to raise.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from dfscavity import bell_teleport, gates, logical
from dfscavity.cli import EXPERIMENTS, parse_config, run_experiment
from dfscavity.dynamics import (
    _ladder_spectrum,
    _series,
    block_spectrum,
    evolve_times,
    pair_swap_spectrum,
    uniform_spectrum,
)
from dfscavity.hilbert import Operator, SystemParams
from dfscavity.model import (
    MANIFOLD_ROWS,
    bright_ladder,
    build_h_eff,
    derive_second_order,
    effective_coupling,
    pair_block,
)
from dfscavity.validate import compare_effective_models, fit_span, forced_rabi_fit

LAPACK_ENTRY_POINTS = ("eigh", "eig", "eigvals", "eigvalsh", "svd", "solve", "inv", "lstsq", "qr",
                       "cholesky", "det", "slogdet")


def _block_h(params, n):
    levels, energies, hint = pair_block(params, n)
    return levels, np.diag(energies) + hint


@pytest.mark.parametrize("delta", [9.3, -9.3])
@pytest.mark.parametrize("n", range(21))
def test_block_spectrum_and_egeg_series_match_eigh(n, delta):
    params = SystemParams(G=0.7, delta=delta, n_max=24)
    levels, h = _block_h(params, n)
    ladder = bright_ladder(params, n)
    w, v = block_spectrum(h, ladder)
    w_eigh, v_eigh = np.linalg.eigh(h)
    assert len(w) == len(levels) == 7 + (n >= 2)
    assert np.max(np.abs(w - w_eigh)) <= 1e-12 * np.max(np.abs(w_eigh))
    # the exact run's span, 1.5 exchange periods
    times = np.linspace(0.0, fit_span(params, n), 301)
    psi0 = np.eye(len(levels))[0]  # |egeg, n>
    ours = _series(w, v, psi0, times)
    oracle = (np.exp(-1j * np.outer(times, w_eigh)) * v_eigh[0].conj()) @ v_eigh.T
    assert np.max(np.abs(ours - oracle)) <= 1e-12
    # its |egeg, n> amplitude: the dark part (1 - 1/6) e^{-i E_dark t} plus 1/6 of the
    # ladder's return amplitude from |D2, n>
    roots, x = _ladder_spectrum(ladder)
    ret = np.exp(-1j * np.outer(times, ladder.dark + roots)) @ (x[1] ** 2)
    egeg = 5 / 6 * np.exp(-1j * ladder.dark * times) + ret / 6
    assert np.max(np.abs(egeg - oracle[:, 0])) <= 1e-12


@pytest.mark.parametrize("delta", [9.3, -9.3])
def test_bright_ladder_is_the_block_in_the_dicke_basis(delta):
    # |D2, n> = the six configurations over sqrt 6: its couplings to |gggg, n+2> and
    # |eeee, n-2> and the dark energy read off the block
    params = SystemParams(G=0.7, delta=delta, n_max=24)
    d2 = np.full(6, 1 / np.sqrt(6))
    for n in range(21):
        levels, h = _block_h(params, n)
        ladder = bright_ladder(params, n)
        assert ladder.dark == h[0, 0].real
        assert len(ladder.diagonal) == len(ladder.couplings) + 1 == 2 + (n >= 2)
        rungs = [6, 0, 7][:len(levels) - 5]  # |gggg, n+2>, a configuration at n, |eeee, n-2>
        np.testing.assert_allclose(ladder.dark + np.array(ladder.diagonal), h.diagonal()[rungs].real)
        np.testing.assert_allclose(ladder.couplings, np.abs(h[6:, :6] @ d2), rtol=1e-14)


def test_bright_ladder_shares_pair_block_domain():
    params = SystemParams(G=1.0, delta=20.0, n_max=8)
    for n in (-1, 5, 0.5, True):
        with pytest.raises(ValueError, match="validated runs need an integer 0 <= n <= n_max - 4"):
            bright_ladder(params, n)


@pytest.mark.parametrize("n", [2, 5, 20])
@pytest.mark.parametrize("ratio", [1e3, 1e5, 3e6])
def test_small_bright_shift_keeps_its_relative_accuracy(ratio, n):
    # the middle root of lambda^3 - (d^2 + a^2 + b^2) lambda - d (a^2 - b^2), about -6 Omega,
    # to 40 digits by Newton's method from the float estimate. Vieta's product holds it to
    # 1e-14 relative ((a - b)(a + b) costs about (a + b)/(a - b) < n + 1 ulps); a difference
    # of roots of size delta would be off by about eps ratio^2/(24 n), 4e-6 at 3e6 and n = 20
    params = SystemParams(G=1.0, delta=ratio, n_max=24)
    ladder = bright_ladder(params, n)
    roots, _ = _ladder_spectrum(ladder)
    small = roots[1]
    with localcontext() as ctx:
        ctx.prec = 40
        d, a, b = (Decimal(x) for x in (ladder.diagonal[0], *ladder.couplings))
        p, q = d * d + a * a + b * b, d * (a * a - b * b)
        x = Decimal(small)
        for _ in range(5):
            x -= (x ** 3 - p * x - q) / (3 * x * x - p)
    assert abs(small - float(x)) <= 1e-14 * abs(float(x))
    assert abs(small / (6 * effective_coupling(n, params).omega) + 1) < 10 / ratio  # -6 Omega


@pytest.mark.parametrize("n", [0, 1, 3, 6])
@pytest.mark.parametrize("delta", [20.0, -7.5])
def test_pair_swap_and_derived_spectra_match_eigh(n, delta):
    params = SystemParams(G=1.0, delta=delta, n_max=12)
    omega = effective_coupling(n, params).omega
    _, energies, hint = pair_block(params, n)
    derived = derive_second_order(energies, hint, MANIFOLD_ROWS)
    np.testing.assert_allclose(derived, np.full((6, 6), omega), rtol=1e-14)  # c * ones, c = Omega(n)
    times = np.linspace(0.0, 3 * np.pi / abs(omega), 401)
    rng = np.random.default_rng(n)
    for h in (build_h_eff(params, n).matrix, derived):
        w, v = pair_swap_spectrum(h) if len(h) == 16 else uniform_spectrum(h)
        np.testing.assert_allclose(w, np.linalg.eigh(h)[0], rtol=0, atol=1e-14 * abs(omega))
        psi = rng.normal(size=len(h)) + 1j * rng.normal(size=len(h))  # on every eigenspace
        psi /= np.linalg.norm(psi)
        np.testing.assert_allclose(_series(w, v, psi, times), evolve_times(Operator(h), psi, times),
                                   rtol=0, atol=1e-12)
    w, _ = uniform_spectrum(derived)
    np.testing.assert_allclose(w, [0, 0, 0, 0, 0, 6 * omega] if omega > 0 else [6 * omega, 0, 0, 0, 0, 0],
                               rtol=1e-14, atol=1e-16)


def test_residual_check_rejects_a_perturbed_generator():
    params = SystemParams(G=1.0, delta=20.0, n_max=8)
    for n in (0, 3):
        _, h = _block_h(params, n)
        ladder = bright_ladder(params, n)
        block_spectrum(h, ladder)
        nudged = h.copy()
        nudged[1, 1] += 1e-6  # one configuration off the dark energy
        with pytest.raises(ValueError, match="the closed-form spectrum misses its generator"):
            block_spectrum(nudged, ladder)
        with pytest.raises(ValueError, match="misses its generator"):
            block_spectrum(h, ladder._replace(couplings=tuple(1.01 * c for c in ladder.couplings)))
    with pytest.raises(ValueError, match="misses its generator"):
        pair_swap_spectrum(build_h_eff(params, 0, include_stark=True).matrix)
    _, energies, hint = pair_block(params, 0)
    derived = derive_second_order(energies, hint, MANIFOLD_ROWS)
    derived[0, 1] = derived[1, 0] = 1.5 * derived[0, 1]
    with pytest.raises(ValueError, match="misses its generator"):
        uniform_spectrum(derived)


@pytest.fixture
def no_lapack(monkeypatch):
    """Every LAPACK-backed numpy.linalg entry point raises, and so does every gufunc of
    numpy's LAPACK module, which catches an import bound before the patch (np.polyfit's
    lstsq); the package's memoised constants are rebuilt under the patch."""
    def refuse(name):
        def raising(*args, **kwargs):
            raise AssertionError(f"LAPACK call numpy.linalg.{name}")
        return raising

    for name in LAPACK_ENTRY_POINTS:
        monkeypatch.setattr(np.linalg, name, refuse(name))
    lapack = np.linalg._umath_linalg
    for name in dir(lapack):
        if not name.startswith("_") and callable(getattr(lapack, name)):
            monkeypatch.setattr(lapack, name, refuse(f"_umath_linalg.{name}"))
    for memo in (gates._gate_atomic, gates.convention_search, bell_teleport._bell_branch_map,
                 logical._mz_levels):
        memo.cache_clear()


def test_no_runtime_path_calls_lapack(no_lapack):
    for experiment in EXPERIMENTS:
        run_experiment(parse_config("seed = 0\n", experiment))
    # the benchmark's exact-scaled calls
    run_experiment(parse_config("n_max = 16\nseed = 0\n", "validate-effective"))
    forced_rabi_fit(SystemParams(G=1.0, delta=20.0, n_max=32))
    compare_effective_models(SystemParams(G=1.0, delta=-20.0, n_max=8), 3)
    with pytest.raises(AssertionError, match="LAPACK call numpy.linalg.eigh"):
        np.linalg.eigh(np.eye(2))
