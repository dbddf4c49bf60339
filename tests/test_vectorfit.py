import numpy as np
import pytest

from netmodal.modes import mode_artifacts
from netmodal.network import build_ynodal
from netmodal.statespace import build_state_space, random_rlc_network
from netmodal.vectorfit import (
    FitSetupError,
    MeasurementError,
    PoleResidueModel,
    SpectrumSamples,
    _basis,
    _conjugate_index,
    _relocate,
    _sigma_residues,
    _sort_pole_pairs,
    fit,
    initial_poles,
    sensitivities_from_fit,
)


def pair_response(omega, pole, residue, direct=0.0):
    s = 1j * omega
    return residue / (s - pole) + np.conj(residue) / (s - np.conj(pole)) + direct


class TestSpectrumSamples:
    def test_requires_ascending_grid(self):
        with pytest.raises(FitSetupError, match="ascending"):
            SpectrumSamples(np.array([1.0, 1.0, 2.0]), {(1, 1): np.zeros(3)})

    def test_requires_density(self):
        omega = np.array([0.01, 10.0])
        with pytest.raises(FitSetupError, match="per decade"):
            SpectrumSamples(omega, {(1, 1): np.zeros(2)})

    def test_requires_matching_shapes(self):
        omega = np.logspace(-1, 1, 30)
        with pytest.raises(FitSetupError, match="does not match"):
            SpectrumSamples(omega, {(1, 1): np.zeros(10)})


class TestExactRecovery:
    def test_single_pair_noiseless(self):
        pole = -1.0 + 5.0j
        residue = 2.0 - 0.5j
        omega = np.logspace(-1, 2, 120)
        samples = SpectrumSamples(omega, {(1, 1): pair_response(omega, pole, residue)})
        model = fit(samples, order=2, iterations=5)
        fitted = model.poles[np.argmax(model.poles.imag)]
        assert abs(fitted - pole) / abs(pole) < 1e-6
        idx = int(np.argmax(model.poles.imag))
        assert abs(model.residues[(1, 1)][idx] - residue) < 1e-6
        assert model.misfit < 1e-8
        assert not model.unstable.any()

    def test_conjugate_closure(self):
        pole = -0.2 + 3.0j
        omega = np.logspace(-1, 1.5, 80)
        samples = SpectrumSamples(omega, {(1, 1): pair_response(omega, pole, 1.0 + 1.0j)})
        model = fit(samples, order=2, iterations=5)
        assert np.allclose(np.sort_complex(model.poles),
                           np.sort_complex(np.conj(model.poles)))
        res = model.residues[(1, 1)]
        order = np.argsort(model.poles.imag)
        assert res[order[0]] == pytest.approx(np.conj(res[order[1]]), rel=1e-8)

    def test_direct_term_recovered(self):
        pole = -0.5 + 2.0j
        omega = np.logspace(-1, 1, 60)
        samples = SpectrumSamples(
            omega, {(1, 1): pair_response(omega, pole, 1.0 + 0.3j, direct=4.0)}
        )
        model = fit(samples, order=2, iterations=6)
        assert model.direct[(1, 1)] == pytest.approx(4.0, rel=1e-6)


@pytest.fixture(scope="module")
def fitted(three_node_model):
    net, ynodal, det, modes = three_node_model
    omega = np.logspace(-2, 1, 200)
    grid = np.linalg.inv(ynodal.eval_grid(1j * omega))
    entries = {
        (k + 1, i + 1): grid[:, k, i] for k in range(3) for i in range(3)
    }
    samples = SpectrumSamples(omega, entries)
    return modes, ynodal, det, fit(samples, order=9, iterations=10)


@pytest.fixture(scope="module")
def diagonal_model(three_node_model):
    _, ynodal, _, _ = three_node_model
    omega = np.logspace(-2, 1, 200)
    grid = np.linalg.inv(ynodal.eval_grid(1j * omega))
    samples = SpectrumSamples(omega, {(2, 2): grid[:, 1, 1]})
    return fit(samples, order=9, iterations=10)


class TestThreeNodeRoundTrip:
    def test_poles_match_modes(self, fitted):
        modes, _, _, model = fitted
        truth = np.sort_complex(np.array([m.eigenvalue for m in modes]))
        mine = np.sort_complex(model.poles)
        rel = np.abs(mine - truth) / np.maximum(1.0, np.abs(truth))
        assert rel.max() < 1e-4

    def test_residues_match_artifacts(self, fitted):
        modes, ynodal, det, model = fitted
        for m in modes:
            if not (m.oscillatory and m.eigenvalue.imag > 0):
                continue
            art = mode_artifacts(ynodal, m.eigenvalue, det=det)
            idx = int(np.argmin(np.abs(model.poles - art.eigenvalue)))
            for k in range(3):
                for i in range(3):
                    mine = model.residues[(k + 1, i + 1)][idx]
                    want = art.residue[k, i]
                    assert abs(mine - want) <= 1e-3 * max(1.0, abs(want))

    def test_sensitivities_match_analytic_route(self, fitted):
        modes, ynodal, det, model = fitted
        for m in modes:
            if not (m.oscillatory and m.eigenvalue.imag > 0):
                continue
            art = mode_artifacts(ynodal, m.eigenvalue, det=det)
            idx = int(np.argmin(np.abs(model.poles - art.eigenvalue)))
            sens = sensitivities_from_fit(model, idx)
            tol = max(1e-4, 10.0 * model.misfit)
            for node in (1, 2, 3):
                analytic = np.conj(-art.residue[node - 1, node - 1])
                assert abs(sens.shunt_factor(node) - analytic) <= tol * max(1, abs(analytic))
            analytic_branch = np.conj(
                -art.residue[0, 0] - art.residue[2, 2]
                + art.residue[0, 2] + art.residue[2, 0]
            )
            assert abs(sens.branch_factor(1, 3) - analytic_branch) \
                <= tol * max(1, abs(analytic_branch))


class TestNoiseMonteCarlo:
    def test_resonance_recovery_under_noise(self):
        pole = -0.05 + 1.0j
        residue = 1.0 + 0.5j
        omega = np.logspace(-1, 0.7, 200)
        clean = pair_response(omega, pole, residue)
        rng = np.random.default_rng(99)
        hits = 0
        for _ in range(50):
            noise = 1.0 + 0.01 / np.sqrt(2) * (
                rng.standard_normal(omega.size) + 1j * rng.standard_normal(omega.size)
            )
            samples = SpectrumSamples(omega, {(1, 1): clean * noise})
            model = fit(samples, order=2, iterations=8)
            fitted = model.poles[np.argmax(model.poles.imag)]
            freq_ok = abs(fitted.imag - pole.imag) / abs(pole.imag) < 0.01
            damp_ok = abs(fitted.real - pole.real) / abs(pole.real) < 0.05
            hits += int(freq_ok and damp_ok)
        assert hits >= 45


class TestPartialMeasurement:
    def test_shunt_factor_available(self, diagonal_model):
        idx = int(np.argmax(diagonal_model.poles.imag))
        sens = sensitivities_from_fit(diagonal_model, idx)
        assert np.isfinite(sens.shunt_factor(2))

    def test_branch_factor_errors_name_missing_entries(self, diagonal_model):
        idx = int(np.argmax(diagonal_model.poles.imag))
        sens = sensitivities_from_fit(diagonal_model, idx)
        with pytest.raises(MeasurementError, match=r"\(1, 1\)"):
            sens.branch_factor(1, 2)

    def test_entries_are_negated_residues(self, diagonal_model):
        idx = 0
        sens = sensitivities_from_fit(diagonal_model, idx)
        assert sens.entries[(2, 2)] == pytest.approx(
            -diagonal_model.residues[(2, 2)][idx]
        )

    def test_zero_residue_gives_zero_shunt_factor(self):
        model = PoleResidueModel(
            poles=np.array([-1.0 + 2.0j, -1.0 - 2.0j]),
            residues={(1, 1): np.array([0.0j, 0.0j])},
            direct={(1, 1): 0j},
            misfit=0.0,
            unstable=np.array([False, False]),
        )
        sens = sensitivities_from_fit(model, 0)
        assert sens.shunt_factor(1) == 0

    def test_pole_index_bounds(self, diagonal_model):
        with pytest.raises(IndexError):
            sensitivities_from_fit(diagonal_model, 99)


class TestSetupErrors:
    def test_insufficient_samples_for_order(self):
        omega = np.logspace(-1, 1, 8)
        samples = SpectrumSamples(omega, {(1, 1): np.ones(8, dtype=complex)})
        with pytest.raises(FitSetupError, match="insufficient samples"):
            fit(samples, order=12, iterations=2)

    def test_order_must_be_positive(self, three_node_model):
        omega = np.logspace(-1, 1, 30)
        samples = SpectrumSamples(omega, {(1, 1): np.ones(30, dtype=complex)})
        with pytest.raises(FitSetupError, match="order"):
            fit(samples, order=0)

    def test_iterations_must_be_positive(self):
        omega = np.logspace(-1, 1, 30)
        samples = SpectrumSamples(omega, {(1, 1): np.ones(30, dtype=complex)})
        with pytest.raises(FitSetupError, match="iteration"):
            fit(samples, order=2, iterations=0)


class TestHelpers:
    def test_initial_poles_lightly_damped_pairs(self):
        omega = np.logspace(-1, 2, 50)
        poles = initial_poles(omega, 6)
        assert poles.size == 6
        uppers = poles[poles.imag > 0]
        assert np.allclose(uppers.real, -uppers.imag / 100.0)

    def test_initial_poles_odd_order_adds_real_pole(self):
        poles = initial_poles(np.logspace(0, 2, 40), 5)
        assert np.sum(np.abs(poles.imag) < 1e-12) == 1


def impedance_samples(net, omega):
    """Every entry of Z = Y^-1 of ``net`` on ``omega``."""
    grid = np.linalg.inv(build_ynodal(net).eval_grid(1j * omega))
    n = grid.shape[1]
    return SpectrumSamples(
        omega, {(k + 1, i + 1): grid[:, k, i] for k in range(n) for i in range(n)})


def fit_weights(samples):
    """The inverse-magnitude weights ``fit`` uses."""
    out = {}
    for key, f in samples.entries.items():
        mag = np.abs(f)
        out[key] = 1.0 / np.maximum(mag, 1e-12 * mag.max())
    return out


def dense_relocate(samples, poles, weights, flip):
    """The relocation step as first written: one lstsq on the dense joint
    matrix.  Kept verbatim as the reference, except that it also returns the
    rank and the column count."""
    s = 1j * samples.omega
    cindex = _conjugate_index(poles)
    n = poles.size
    keys = samples.keys
    n_entries = len(keys)
    basis = _basis(s, poles, cindex)
    rows = 2 * s.size * n_entries
    cols = (n + 1) * n_entries + n
    if rows < cols:
        raise FitSetupError("insufficient samples for order")
    a = np.zeros((rows, cols))
    b = np.zeros(rows)
    for e, key in enumerate(keys):
        f = samples.entries[key]
        w = weights[key]
        block = np.zeros((s.size, cols), dtype=complex)
        block[:, e * (n + 1) : e * (n + 1) + n] = basis
        block[:, e * (n + 1) + n] = 1.0
        block[:, n_entries * (n + 1) :] = -basis * f[:, None]
        block *= w[:, None]
        r0 = 2 * e * s.size
        a[r0 : r0 + s.size] = block.real
        a[r0 + s.size : r0 + 2 * s.size] = block.imag
        b[r0 : r0 + s.size] = (w * f).real
        b[r0 + s.size : r0 + 2 * s.size] = (w * f).imag
    solution, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    sigma_res = solution[n_entries * (n + 1) :]

    a_mat = np.zeros((n, n))
    b_vec = np.ones(n)
    i = 0
    while i < n:
        if cindex[i] == 1:
            re, im = poles[i].real, poles[i].imag
            a_mat[i, i] = a_mat[i + 1, i + 1] = re
            a_mat[i, i + 1] = im
            a_mat[i + 1, i] = -im
            b_vec[i], b_vec[i + 1] = 2.0, 0.0
            i += 2
        else:
            a_mat[i, i] = poles[i].real
            i += 1
    new_poles = np.linalg.eigvals(a_mat - np.outer(b_vec, sigma_res))
    if flip:
        bad = new_poles.real > 0
        new_poles[bad] -= 2.0 * new_poles[bad].real
    return _sort_pole_pairs(new_poles), rank, cols


def rng3_net(n_nodes):
    return random_rlc_network(np.random.default_rng(3), n_nodes=n_nodes)


# (net, grid, order): the shipped sample at its true order; the 5x5 set of the
# benchmark; the sample at four poles over its order; the sample on 9 points,
# which give each entry 18 real rows, fewer than 2n+2 = 20.
RELOCATION_SETS = {
    "sample-3x3": (None, np.logspace(-2, 1, 200), 9),
    "rng3-5x5": (5, np.logspace(-2, 2, 400), 16),
    "sample-over-order": (None, np.logspace(-2, 1, 200), 13),
    "sample-short-grid": (None, np.logspace(-1, 1, 9), 9),
}
# Largest relative pole gap measured over these sets was 1.0e-6, on the 3x3
# set from the starting poles (the 5x5 set: 4.9e-8; the other two: 1e-10 and
# below), so this bound leaves a margin of about 10.
RELOCATION_TOL = 1e-5


@pytest.fixture(scope="module")
def relocation_steps(three_node_net):
    """Per set: (samples, dense step, reduced (sigma residues, rank), the
    reduced step's poles), all from the starting poles."""
    steps = {}
    for name, (n_nodes, omega, order) in RELOCATION_SETS.items():
        net = three_node_net if n_nodes is None else rng3_net(n_nodes)
        samples = impedance_samples(net, omega)
        weights = fit_weights(samples)
        poles = initial_poles(omega, order)
        steps[name] = (samples,
                       dense_relocate(samples, poles, weights, flip=True),
                       _sigma_residues(samples, poles, _conjugate_index(poles), weights),
                       _relocate(samples, poles, weights, flip=True))
    return steps


class TestBlockReducedRelocation:
    """The per-entry QR reduction gives the dense joint step's answer."""

    @pytest.mark.parametrize("name", sorted(RELOCATION_SETS))
    def test_relocated_poles_match_dense_step(self, relocation_steps, name):
        _, (want, _, _), _, got = relocation_steps[name]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < RELOCATION_TOL

    def test_over_order_rank_matches_dense_step(self, relocation_steps):
        _, (_, dense_rank, cols), (_, rank), _ = relocation_steps["sample-over-order"]
        assert dense_rank < cols
        assert rank == dense_rank

    def test_short_grid_has_fewer_rows_than_an_entry_block(self, relocation_steps):
        samples = relocation_steps["sample-short-grid"][0]
        order = RELOCATION_SETS["sample-short-grid"][2]
        assert 2 * samples.omega.size < 2 * order + 2


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: relocation stalls on "
                                        "spectra with real poles")
@pytest.mark.parametrize("n_nodes, points", [(3, 200), (5, 400)])
def test_rng3_fit_matches_state_space(n_nodes, points):
    net = rng3_net(n_nodes)
    oracle = build_state_space(net)
    model = fit(impedance_samples(net, np.logspace(-2, 2, points)), order=oracle.order)
    truth = oracle.eigenvalues()
    gap = max(
        np.max(np.min(np.abs(a[:, None] - b[None]), axis=1) / np.maximum(1.0, np.abs(a)))
        for a, b in ((model.poles, truth), (truth, model.poles))
    )
    assert gap < 1e-6
    assert model.misfit < 1e-6
