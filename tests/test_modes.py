import numpy as np
import pytest

from netmodal.modes import (
    RepeatedModeError,
    ResidueConvergenceError,
    _adjugate_numeric,
    det_newton_step,
    det_newton_steps,
    find_modes,
    gamma_shift,
    mode_artifacts,
    residue_by_limit,
)
from netmodal.network import (
    Branch,
    NetworkModel,
    Node,
    SeriesRL,
    Shunt,
    ShuntRLC,
    _check_points,
    build_ynodal,
    build_zsys,
)
from netmodal.rational import RationalFunction, RationalMatrix
from netmodal.statespace import build_state_space, random_rlc_network, track_mode


def parallel_rlc(r=1.0, l=1.0, c=1.0):
    return NetworkModel([Node(1)], [Shunt(1, ShuntRLC(r, l, c), "A1")])


def rlc_net(n, shunts, branches):
    """All-RLC net from (name, node, R, L, C) shunts and (name, a, b, R, L)
    branches."""
    return NetworkModel(
        [Node(k) for k in range(1, n + 1)],
        [Shunt(node, ShuntRLC(r, l, c), name) for name, node, r, l, c in shunts],
        [Branch(a, b, SeriesRL(r, l), name) for name, a, b, r, l in branches],
    )


# A pair of modes at -0.0518 +- 6.7e-5j: a residue ring around one of them
# encloses the other until the radius falls below their distance.
CLOSE_PAIR_NET = rlc_net(
    4,
    (("A1", 1, 0.456107558771498, 0.647119245178337, 7.846427761043695),
     ("A2", 2, 0.3043506332014029, 3.0393017081839995, 1.276766958213892),
     ("A3", 3, 0.17525209184337265, 9.115018012727564, 0.17285668883464247),
     ("A4", 4, 4.924386504392039, 0.15766259361639648, 7.900484575742435)),
    (("B1-2", 1, 2, 0.15514783574166227, 7.297406564328491),
     ("B1-3", 1, 3, 9.738691039962127, 0.12214391173852496),
     ("B2-3", 2, 3, 0.3659697180647793, 3.7809016673035964),
     ("B2-4", 2, 4, 4.45020994111858, 0.4447530024774835)),
)


class TestFindModes:
    def test_parallel_rlc_quadratic(self):
        modes = find_modes(build_ynodal(parallel_rlc()))
        values = sorted((m.eigenvalue for m in modes), key=lambda z: z.imag)
        assert np.allclose(values, [-0.5 - 0.8660254037844386j,
                                    -0.5 + 0.8660254037844386j], atol=1e-10)
        assert all(m.oscillatory for m in modes)

    def test_lossless_lc_is_undamped(self):
        modes = find_modes(build_ynodal(parallel_rlc(r=0.0)))
        for m in modes:
            assert m.eigenvalue.real == pytest.approx(0.0, abs=1e-12)
            assert abs(m.eigenvalue.imag) == pytest.approx(1.0, abs=1e-12)

    def test_three_node_matches_state_space_oracle(self, three_node_model):
        net, _, _, modes = three_node_model
        mine = np.sort_complex(np.array([m.eigenvalue for m in modes]))
        oracle = np.sort_complex(build_state_space(net).eigenvalues())
        assert mine.shape == oracle.shape
        assert np.max(np.abs(mine - oracle) / np.maximum(1, np.abs(oracle))) < 1e-6

    def test_sorted_by_imaginary_magnitude(self, three_node_model):
        _, _, _, modes = three_node_model
        magnitudes = [abs(m.eigenvalue.imag) for m in modes]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_conjugate_pairs_exactly_present(self, three_node_model):
        _, _, _, modes = three_node_model
        values = [m.eigenvalue for m in modes]
        for v in values:
            if abs(v.imag) > 1e-9:
                assert np.conj(v) in values

    def test_near_repeated_flagging(self):
        # two decoupled, nearly identical resonators
        net = NetworkModel(
            [Node(1), Node(2)],
            [Shunt(1, ShuntRLC(1.0, 1.0, 1.0), "A1"),
             Shunt(2, ShuntRLC(1.0, 1.0, 1.0 + 1e-9), "A2")],
        )
        modes = find_modes(build_ynodal(net))
        assert all(m.near_repeated for m in modes)


class TestModeArtifacts:
    def test_scalar_case(self):
        ynodal = build_ynodal(parallel_rlc())
        det = ynodal.det()
        lam = -0.5 + 0.8660254037844386j
        mode = mode_artifacts(ynodal, lam, det=det)
        assert np.allclose(mode.adjugate, [[1.0]])
        assert mode.sensitivity_scale == pytest.approx(-1.0 / mode.det_slope)
        outer = np.outer(mode.right_null, mode.left_null)
        assert outer[0, 0] == pytest.approx(1.0)

    def test_residue_matches_analytic_partial_fraction(self):
        # Res = (R + lam L) / (2 L C lam + R C) for the parallel RLC cell
        r = l = c = 1.0
        ynodal = build_ynodal(parallel_rlc(r, l, c))
        modes = find_modes(ynodal)
        lam = [m.eigenvalue for m in modes if m.eigenvalue.imag > 0][0]
        mode = mode_artifacts(ynodal, lam)
        expected = (r + lam * l) / (2 * l * c * lam + r * c)
        assert mode.residue[0, 0] == pytest.approx(expected, rel=1e-10)
        assert mode.residue[0, 0] == pytest.approx(0.5 - 0.28867513j, rel=1e-6)

    def test_normalization_convention(self, three_node_model):
        _, ynodal, det, modes = three_node_model
        osc = [m for m in modes if m.oscillatory and m.eigenvalue.imag > 0]
        for m in osc:
            art = mode_artifacts(ynodal, m.eigenvalue, det=det)
            assert art.left_null @ art.right_null == pytest.approx(1.0, abs=1e-10)
            pivot = np.abs(art.right_null).max()
            k = int(np.argmax(np.abs(art.right_null)))
            assert art.right_null[k].imag == pytest.approx(0.0, abs=1e-12 * pivot)
            assert art.right_null[k].real > 0

    def test_conjugate_mode_artifacts_are_conjugate(self, three_node_model):
        _, ynodal, det, modes = three_node_model
        lam = next(m.eigenvalue for m in modes if m.eigenvalue.imag > 0)
        upper = mode_artifacts(ynodal, lam, det=det)
        lower = mode_artifacts(ynodal, np.conj(lam), det=det)
        assert np.allclose(lower.residue, np.conj(upper.residue), rtol=1e-8)
        assert lower.sensitivity_scale == pytest.approx(
            np.conj(upper.sensitivity_scale)
        )
        mirrored = upper.conjugate()
        assert np.allclose(mirrored.residue, lower.residue, rtol=1e-8)

    def test_rank_one_adjugate(self, three_node_model):
        _, ynodal, det, modes = three_node_model
        for m in modes:
            if not (m.oscillatory and m.eigenvalue.imag > 0):
                continue
            art = mode_artifacts(ynodal, m.eigenvalue, det=det)
            sigma = np.linalg.svd(art.adjugate, compute_uv=False)
            assert sigma[1] / sigma[0] < 1e-6
            rank1 = np.trace(art.adjugate) * np.outer(art.right_null, art.left_null)
            rel = np.linalg.norm(art.adjugate - rank1) / np.linalg.norm(art.adjugate)
            assert rel < 1e-8

    def test_determinant_residual_at_modes(self, three_node_model):
        _, _, det, modes = three_node_model
        for m in modes:
            lam = m.eigenvalue
            bound = det.num.magnitude_bound(abs(lam))
            assert abs(det.num(lam)) < 1e-8 * (1.0 + bound)

    def test_rejects_near_repeated(self):
        net = NetworkModel(
            [Node(1), Node(2)],
            [Shunt(1, ShuntRLC(1.0, 1.0, 1.0), "A1"),
             Shunt(2, ShuntRLC(1.0, 1.0, 1.0 + 1e-9), "A2")],
        )
        ynodal = build_ynodal(net)
        lam = find_modes(ynodal)[0].eigenvalue
        with pytest.raises(RepeatedModeError):
            mode_artifacts(ynodal, lam)

    def test_rejects_non_mode(self, three_node_model):
        _, ynodal, det, _ = three_node_model
        with pytest.raises(RepeatedModeError, match="not a mode"):
            mode_artifacts(ynodal, 3.0 + 3.0j, det=det)


class TestResidueByLimit:
    def test_simple_pole_unit_residue(self):
        lam0 = -1.0 + 5.0j
        z = RationalMatrix([[RationalFunction([1.0], [-lam0, 1.0])]])
        res = residue_by_limit(z, lam0)
        assert res[0, 0] == pytest.approx(1.0, rel=1e-9)

    def test_constant_offset_vanishes(self):
        lam0 = -0.5 + 2.0j
        entry = RationalFunction([2.0 + 1.0j], [-lam0, 1.0]) + RationalFunction.constant(5.0)
        res = residue_by_limit(RationalMatrix([[entry]]), lam0)
        assert res[0, 0] == pytest.approx(2.0 + 1.0j, rel=1e-9)

    def test_three_node_matches_adjugate_route(self, three_node_model):
        net, ynodal, det, modes = three_node_model
        zsys = build_zsys(net)
        for m in modes:
            if not (m.oscillatory and m.eigenvalue.imag > 0):
                continue
            art = mode_artifacts(ynodal, m.eigenvalue, det=det)
            res = residue_by_limit(zsys, art.eigenvalue)
            rel = np.linalg.norm(res - art.residue) / np.linalg.norm(art.residue)
            assert rel < 1e-7

    def test_ring_enclosing_another_pole_is_refused(self):
        ynodal = build_ynodal(CLOSE_PAIR_NET)
        zsys = build_zsys(CLOSE_PAIR_NET)
        upper = [m for m in find_modes(ynodal)
                 if m.oscillatory and m.eigenvalue.imag > 0 and not m.near_repeated]
        assert any(abs(m.eigenvalue.imag) < 1e-4 for m in upper)
        for m in upper:
            art = mode_artifacts(ynodal, m.eigenvalue)
            res = residue_by_limit(zsys, art.eigenvalue)
            rel = np.linalg.norm(res - art.residue) / np.linalg.norm(art.residue)
            assert rel < 1e-7

    def test_nonconvergence_raises(self):
        # double pole: the circle means keep growing as the radius shrinks
        lam0 = -1.0 + 2.0j
        den = RationalFunction([1.0], [-lam0, 1.0])
        entry = den * den
        with pytest.raises(ResidueConvergenceError, match="pole order mismatch"):
            residue_by_limit(RationalMatrix([[entry]]), lam0)


class TestGammaShift:
    def test_zero_perturbation(self, three_node_model):
        _, ynodal, _, modes = three_node_model
        lam = modes[0].eigenvalue
        assert abs(gamma_shift(ynodal, lam, ynodal)) < 1e-10

    def test_global_scaling_keeps_null_space(self, three_node_model):
        _, ynodal, _, modes = three_node_model
        lam = modes[0].eigenvalue
        doubled = RationalMatrix([[2.0 * e for e in row] for row in ynodal.entries])
        assert abs(gamma_shift(ynodal, lam, doubled)) < 1e-9

    def test_drift_linear_in_bump(self, three_node_net, three_node_model):
        _, ynodal, _, modes = three_node_model
        lam = next(m.eigenvalue for m in modes if m.eigenvalue.imag > 0)
        shifts = []
        for eps in (1e-4, 2e-4):
            bumped = three_node_net.with_param("A1", "R", 1.1 * (1 + eps))
            shifts.append(abs(gamma_shift(ynodal, lam, build_ynodal(bumped))))
        assert shifts[1] / shifts[0] == pytest.approx(2.0, rel=0.05)

    def test_drift_proportional_to_mode_move(self, three_node_net, three_node_model):
        _, ynodal, _, modes = three_node_model
        lam = next(m.eigenvalue for m in modes if m.eigenvalue.imag > 0)
        ratios = []
        for eps in (1e-4, 2e-4, 4e-4):
            bumped = three_node_net.with_param("B1-2", "L", 0.5 * (1 + eps))
            ybump = build_ynodal(bumped)
            drift = abs(gamma_shift(ynodal, lam, ybump))
            moved = track_mode(find_modes(ybump), lam)
            ratios.append(drift / abs(moved - lam))
        spread = (max(ratios) - min(ratios)) / max(ratios)
        assert spread < 0.05


class TestCorpusInvariants:
    def test_identities_on_random_networks(self, small_corpus):
        for net in small_corpus[:8]:
            ynodal = build_ynodal(net)
            det = ynodal.det()
            for m in find_modes(ynodal, det=det):
                if not (m.oscillatory and m.eigenvalue.imag > 0) or m.near_repeated:
                    continue
                art = mode_artifacts(ynodal, m.eigenvalue, det=det)
                s_lam = -art.residue
                outer = art.sensitivity_scale * np.outer(art.right_null, art.left_null)
                assert np.linalg.norm(s_lam - outer) / np.linalg.norm(s_lam) < 1e-8
                assert art.left_null @ art.right_null == pytest.approx(1.0, abs=1e-10)


def state_space_residue(net, lam):
    """Residue C r l^T B of Z(s) = C (sI - A)^-1 B at the state-matrix
    eigenvalue nearest ``lam``; inputs are node current injections and
    outputs node voltages (one shunt capacitor per node)."""
    a = build_state_space(net).matrix
    n = len(net.nodes)
    cap = {sh.node: sh.kind.capacitance for sh in net.shunts}
    b = np.zeros((a.shape[0], n))
    for k, node in enumerate(net.nodes):
        b[k, k] = 1.0 / cap[node.id]
    eigs, right = np.linalg.eig(a)
    left = np.linalg.inv(right)
    k = int(np.argmin(np.abs(eigs - lam)))
    return eigs[k], np.outer(right[:n, k], left[k] @ b)


# corpus nets whose determinant is right but on which the symbolic inverse
# once failed build_zsys's identity check at s = 0.864+1.01j
ASSEMBLY_CHECK_NETS = {
    "corpus-s41-r2-n4": rlc_net(
        4,
        (("A1", 1, 0.21125363562976116, 0.3494898788895028, 0.7523472865871966),
         ("A2", 2, 0.8954701245008702, 0.3155936767644026, 4.018758753777215),
         ("A3", 3, 0.15989321021995798, 6.203451433979293, 0.406446064635182),
         ("A4", 4, 2.781916356625847, 1.8863487691226917, 0.3076323020129615)),
        (("B1-2", 1, 2, 0.1968275002677905, 0.12805187854576403),
         ("B1-3", 1, 3, 2.7940209151959565, 1.1010253175306322),
         ("B2-3", 2, 3, 2.200891194486104, 0.8132883183288883),
         ("B2-4", 2, 4, 1.168439920013069, 9.923875867086515)),
    ),
    "corpus-s5-r89-n5": rlc_net(
        5,
        (("A1", 1, 2.7366776409674474, 1.1268151108223337, 0.2812471870222731),
         ("A2", 2, 8.780083609567113, 0.3241890706474319, 1.599657336993171),
         ("A3", 3, 0.17397682310693952, 4.027580500813353, 0.12667278832511789),
         ("A4", 4, 2.262561377567803, 1.6569048183602835, 0.15821949648998201),
         ("A5", 5, 3.335130761446838, 5.594028667474244, 0.11869238950007462)),
        (("B1-4", 1, 4, 1.0573237694808195, 0.40139560148183884),
         ("B1-5", 1, 5, 6.828404837712021, 4.470278056748543),
         ("B2-4", 2, 4, 0.4756466238471448, 0.9515613769392067),
         ("B3-4", 3, 4, 0.4689548003082586, 3.244155425729873),
         ("B3-5", 3, 5, 1.1762999781937418, 0.18674763775669148),
         ("B4-5", 4, 5, 0.17262366500674292, 4.455131564800695)),
    ),
}


def simple_oscillatory_eigenvalues(net):
    """Upper-half-plane state-matrix eigenvalues with no near neighbour."""
    eigs = build_state_space(net).eigenvalues()
    return [z for z in eigs
            if z.imag > 1e-8 * (1.0 + abs(z))
            and np.sum(np.abs(eigs - z) < 1e-6 * max(1.0, abs(z))) == 1]


class TestPointwiseZsysResidues:
    @pytest.mark.parametrize("name", sorted(ASSEMBLY_CHECK_NETS))
    def test_residues_match_state_space(self, name):
        net = ASSEMBLY_CHECK_NETS[name]
        zsys = build_zsys(net)
        upper = simple_oscillatory_eigenvalues(net)
        assert upper
        for target in upper:
            lam, want = state_space_residue(net, target)
            res = residue_by_limit(zsys, lam)
            assert np.linalg.norm(res - want) <= 1e-8 * np.linalg.norm(want)

    def test_no_dimension_limit(self):
        net = random_rlc_network(np.random.default_rng(5), n_nodes=9)
        ynodal = build_ynodal(net)
        zsys = build_zsys(net)
        assert zsys.dim == 9
        s = _check_points()
        residual = zsys.eval_grid(s) @ ynodal.eval_grid(s) - np.eye(9)
        assert np.max(np.abs(residual)) < 1e-10
        target = min(simple_oscillatory_eigenvalues(net), key=lambda z: -z.real / abs(z))
        lam, want = state_space_residue(net, target)
        res = residue_by_limit(zsys, lam)
        assert np.linalg.norm(res - want) <= 1e-8 * np.linalg.norm(want)


def eight_node_net(index):
    rng = np.random.default_rng(106)
    for _ in range(index):
        random_rlc_network(rng, n_nodes=8)
    return random_rlc_network(rng, n_nodes=8)


class TestLargeMatrixAdjugate:
    @pytest.mark.parametrize("index", [1, 3])
    def test_residue_matches_state_space_on_eight_nodes(self, index):
        # net 3 is one on which the expanded determinant loses modes; the
        # artifacts must not depend on it
        net = eight_node_net(index)
        eigs = build_state_space(net).eigenvalues()
        upper = eigs[eigs.imag > 1e-8 * (1.0 + np.abs(eigs))]
        target = complex(min(upper, key=lambda z: -z.real / abs(z)))
        lam, want = state_space_residue(net, target)
        art = mode_artifacts(build_ynodal(net), lam)
        assert abs(art.eigenvalue - lam) < 1e-10 * abs(lam)
        assert np.linalg.norm(art.residue - want) < 1e-12 * np.linalg.norm(want)

    def test_det_slope_is_derivative_of_det(self, three_node_model):
        _, ynodal, det, modes = three_node_model
        for m in modes:
            art = mode_artifacts(ynodal, m.eigenvalue, det=det)
            want = det.derivative_at(art.eigenvalue)
            assert abs(art.det_slope - want) < 1e-12 * abs(want)

    def test_artifacts_never_consult_det(self, three_node_model, monkeypatch):
        _, ynodal, det, modes = three_node_model
        lam = next(m.eigenvalue for m in modes if m.eigenvalue.imag > 0)
        before = mode_artifacts(ynodal, lam, det=det)

        def refuse(self):
            raise AssertionError("mode_artifacts must not expand the determinant")

        monkeypatch.setattr(RationalMatrix, "det", refuse)
        after = mode_artifacts(ynodal, lam)
        assert after.eigenvalue == before.eigenvalue
        assert np.array_equal(after.residue, before.residue)

    def test_six_node_artifacts_consistent(self):
        from netmodal.statespace import random_rlc_network
        net = random_rlc_network(np.random.default_rng(77), n_nodes=6)
        ynodal = build_ynodal(net)
        det = ynodal.det()
        checked = 0
        for m in find_modes(ynodal, det=det):
            if not (m.oscillatory and m.eigenvalue.imag > 0) or m.near_repeated:
                continue
            art = mode_artifacts(ynodal, m.eigenvalue, det=det)
            s_lam = -art.residue
            outer = art.sensitivity_scale * np.outer(art.right_null, art.left_null)
            assert np.linalg.norm(s_lam - outer) / np.linalg.norm(s_lam) < 1e-7
            checked += 1
        assert checked >= 1


def _adjugate_per_minor(matrix):
    """The cofactor loop that _adjugate_numeric replaced, verbatim."""
    n = matrix.shape[0]
    if n == 1:
        return np.array([[1.0 + 0j]])
    adj = np.empty((n, n), dtype=complex)
    idx = np.arange(n)
    for i in range(n):
        rows = idx[idx != i]
        for j in range(n):
            cols = idx[idx != j]
            minor = matrix[np.ix_(rows, cols)]
            adj[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


def _bits(values):
    return np.ascontiguousarray(values).tobytes()


class TestStackedEvaluation:
    def test_adjugate_matches_per_minor_loop(self, three_node_model):
        _, ynodal, _, modes = three_node_model
        rng = np.random.default_rng(5)
        matrices = [ynodal(m.eigenvalue) for m in modes]
        matrices += [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in range(1, 9)]
        matrices.append(np.ones((3, 3), dtype=complex))
        for matrix in matrices:
            adj = _adjugate_numeric(matrix)
            assert _bits(adj) == _bits(_adjugate_per_minor(matrix))
            assert adj.flags["C_CONTIGUOUS"]

    def test_stacked_steps_match_single_steps(self, three_node_model):
        _, ynodal, _, modes = three_node_model
        points = [m.eigenvalue for m in modes] + [0.3 + 2j, -1.0 - 0.5j, 4j]
        values = np.array([ynodal(s) for s in points])
        slopes = np.array([ynodal.derivative_at(s) for s in points])
        steps = det_newton_steps(values, slopes)
        assert _bits(steps) == _bits([det_newton_step(ynodal, s) for s in points])

    def test_singular_matrix_and_zero_trace(self):
        s = RationalFunction([0.0, 1.0])
        # [[1, 1], [1, 1]] at s = 2: exactly singular; its step is 0
        singular = RationalMatrix([[s - 1.0, 1.0], [1.0, 3.0 - s]])
        # [[1, 1], [1, -1]] at s = 2 with Y' = I: tr(Y^-1) = 0; its step is inf
        traceless = RationalMatrix([[s - 1.0, 1.0], [1.0, s - 3.0]])
        cases = [(singular, 2.0), (traceless, 2.0), (singular, 0.5j), (traceless, 1.0 + 1j)]
        values = np.array([m(x) for m, x in cases])
        slopes = np.array([m.derivative_at(x) for m, x in cases])
        steps = det_newton_steps(values, slopes)
        assert steps[0] == 0j and steps[1] == complex(np.inf)
        assert np.all(np.isfinite(steps[2:])) and np.all(steps[2:] != 0)
        assert _bits(steps) == _bits([det_newton_step(m, x) for m, x in cases])


# Nets on which the expanded determinant returns wrong modes: real modes that
# cluster near a branch pole come back as a spurious complex pair.
DET_ROUTE_FAULTS = {
    # real modes -5.0338 and -5.0688 come back as -5.0497 +- 0.0024j
    "corpus-25-43-n5": rlc_net(
        5,
        (("A1", 1, 3.731835998139334, 0.6542038723580047, 3.6502135886045934),
         ("A2", 2, 1.878860462021876, 1.1053023267523587, 0.29642674744709624),
         ("A3", 3, 0.46920342714625474, 0.9312260550332032, 0.7016856430867078),
         ("A4", 4, 0.21952986756764925, 0.3602216238094081, 2.6340688542622064),
         ("A5", 5, 1.7293162921380318, 0.3045179952039835, 0.7666719149923222)),
        (("B1-4", 1, 4, 5.633112318368682, 1.090533631045934),
         ("B1-5", 1, 5, 2.682139343516367, 0.7678741132108389),
         ("B2-4", 2, 4, 2.734811487487866, 0.5685905504731267),
         ("B3-4", 3, 4, 3.136741317030579, 0.25767473775845057),
         ("B3-5", 3, 5, 9.141056082526324, 2.1052885928344374),
         ("B4-5", 4, 5, 1.3539701403199704, 5.693843970514717)),
    ),
    # modes off the state-space eigenvalues by 9.5e-3
    "corpus-37-13-n5": rlc_net(
        5,
        (("A1", 1, 1.3141999800338937, 6.048933512907919, 6.68432648999839),
         ("A2", 2, 0.9612860773751535, 1.0451025225585613, 9.3545958400268),
         ("A3", 3, 0.19073456858235457, 3.0263044072583973, 2.7525530815137382),
         ("A4", 4, 0.9834220238028524, 2.855181971003905, 9.278299570882702),
         ("A5", 5, 7.358809139386214, 0.5525261826081612, 8.120370048596543)),
        (("B1-4", 1, 4, 5.2252633750722115, 2.1732879992373015),
         ("B1-5", 1, 5, 1.1850326979396997, 0.8006416305665237),
         ("B2-4", 2, 4, 1.5372479137806159, 0.4354138978175622),
         ("B3-4", 3, 4, 4.170695527784093, 1.2728579936290116),
         ("B3-5", 3, 5, 2.902909014600313, 0.8647516362786556),
         ("B4-5", 4, 5, 0.7090953076317545, 0.12023215464673441)),
    ),
}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the expanded determinant "
                                        "loses modes that cluster near a branch pole")
@pytest.mark.parametrize("name", sorted(DET_ROUTE_FAULTS))
def test_det_route_fault_matches_state_space(name):
    net = DET_ROUTE_FAULTS[name]
    mine = np.sort_complex(np.array([m.eigenvalue for m in find_modes(build_ynodal(net))]))
    oracle = np.sort_complex(build_state_space(net).eigenvalues())
    assert mine.shape == oracle.shape
    assert np.max(np.abs(mine - oracle) / np.maximum(1.0, np.abs(oracle))) < 1e-6
