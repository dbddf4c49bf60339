import numpy as np
import pytest

from netmodal import network
from netmodal.network import (
    AssemblyCheckError,
    Branch,
    ModelDataError,
    NetworkModel,
    Node,
    RationalBlock,
    SeriesRL,
    Shunt,
    ShuntCapacitor,
    ShuntRLC,
    SpectrumRef,
    _assemble,
    _check_points,
    apparatus_admittance_matrix,
    branch_admittance_matrix,
    build_ynodal,
    build_ysys,
    build_zsys,
    incidence_pattern,
    param_derivative,
)
from netmodal.rational import RationalFunction, RationalMatrix


def single_node(kind):
    return NetworkModel([Node(1)], [Shunt(1, kind, "A1")])


class TestBuildYnodal:
    def test_single_shunt_capacitor(self):
        y = build_ynodal(single_node(ShuntCapacitor(2.0)))
        assert y.dim == 1
        assert np.allclose(y[0, 0].num.coeffs, [0.0, 2.0])
        assert np.allclose(y[0, 0].den.coeffs, [1.0])

    def test_two_nodes_single_branch_incidence(self):
        net = NetworkModel(
            [Node(1), Node(2)],
            [Shunt(1, ShuntCapacitor(1.0), "A1"), Shunt(2, ShuntCapacitor(1.0), "A2")],
            [Branch(1, 2, SeriesRL(0.5, 0.25), "B1-2")],
        )
        y = build_ynodal(net)
        g = SeriesRL(0.5, 0.25).admittance()
        s0 = 0.3 + 1.2j
        assert y[0, 1](s0) == pytest.approx(-g(s0))
        assert y[1, 0](s0) == pytest.approx(-g(s0))
        assert y[0, 0](s0) == pytest.approx(g(s0) + 1j * s0.imag + s0.real)

    def test_three_node_diagonal_collects_all_terminating(self, three_node_net):
        y = build_ynodal(three_node_net)
        shunt = three_node_net.component("A1").kind.admittance()
        b12 = three_node_net.component("B1-2").kind.admittance()
        b13 = three_node_net.component("B1-3").kind.admittance()
        s0 = 0.2 + 0.9j
        assert y[0, 0](s0) == pytest.approx(shunt(s0) + b12(s0) + b13(s0))
        assert y[0, 1](s0) == pytest.approx(-b12(s0))
        assert y[1, 2](s0) == pytest.approx(-three_node_net.component("B2-3").kind.admittance()(s0))

    def test_spectrum_apparatus_rejected(self):
        net = NetworkModel([Node(1)], [Shunt(1, SpectrumRef("Z_1_1.csv"), "A1")])
        with pytest.raises(ModelDataError, match="rational model required"):
            build_ynodal(net)


class TestWholeSystemModels:
    def test_zsys_single_rlc_hand_inversion(self):
        # Y = sC + 1/(R+sL) with R=L=C=1 inverts to (1+s)/(s^2+s+1)
        z = build_zsys(single_node(ShuntRLC(1.0, 1.0, 1.0)))
        s = np.array([0.5 + 2.0j, -0.3 + 0.7j, 4.0])
        want = (1 + s) / (s * s + s + 1)
        assert z.dim == 1
        assert np.allclose(z.eval_grid(s)[:, 0, 0], want, rtol=1e-12, atol=0.0)
        assert np.allclose([z(s0)[0, 0] for s0 in s], want, rtol=1e-12, atol=0.0)

    def test_identity_at_imaginary_point(self, three_node_model):
        net, ynodal, _, _ = three_node_model
        z = build_zsys(net)
        product = z(1j) @ ynodal(1j)
        assert np.linalg.norm(product - np.eye(3)) < 1e-9

    def test_no_branches_zsys_equals_apparatus_impedance(self):
        a1, a2 = ShuntRLC(1.0, 0.5, 2.0), ShuntRLC(0.3, 1.0, 1.0)
        net = NetworkModel([Node(1), Node(2)], [Shunt(1, a1, "A1"), Shunt(2, a2, "A2")])
        z = build_zsys(net)
        s0 = 0.7 + 0.4j
        z_app = np.diag([1.0 / a1.admittance()(s0), 1.0 / a2.admittance()(s0)])
        assert np.allclose(z(s0), z_app)

    def test_ysys_zero_network(self):
        net = NetworkModel([Node(1)], [Shunt(1, ShuntRLC(1.0, 1.0, 1.0), "A1")])
        ysys = build_ysys(net)
        assert np.array_equal(ysys.eval_grid(_check_points()), np.zeros((5, 1, 1)))

    def test_ysys_three_node_pointwise(self, three_node_net):
        ysys = build_ysys(three_node_net)
        y_net = branch_admittance_matrix(three_node_net)
        y_app = apparatus_admittance_matrix(three_node_net)
        s0 = 0.5 + 2.0j
        feedback = np.eye(3) + y_net(s0) @ np.linalg.inv(y_app(s0))
        assert np.linalg.norm(feedback @ ysys(s0) - y_net(s0)) < 1e-8

    @pytest.mark.parametrize("build", [build_zsys, build_ysys])
    def test_inconsistent_decomposition_fails_the_check(self, three_node_net, monkeypatch,
                                                        build):
        # the feedback form sees a branch matrix that lacks one branch, the
        # pointwise inverse of Y the whole network
        def without_one_branch(net):
            return RationalMatrix(_assemble(net, net.branches[1:]))

        monkeypatch.setattr(network, "branch_admittance_matrix", without_one_branch)
        with pytest.raises(AssemblyCheckError, match="identity check failed"):
            build(three_node_net)

    def test_shuntless_node_falls_back_with_flag(self):
        net = NetworkModel(
            [Node(1), Node(2)],
            [Shunt(1, ShuntRLC(1.0, 1.0, 1.0), "A1")],
            [Branch(1, 2, SeriesRL(0.5, 0.5), "B1-2")],
        )
        with pytest.warns(UserWarning, match="Z_A-free assembly"):
            z = build_zsys(net)
        y = build_ynodal(net)
        s0 = 0.9 + 0.8j
        assert np.linalg.norm(z(s0) @ y(s0) - np.eye(2)) < 1e-9


class TestIncidence:
    def test_shunt_pattern(self, three_node_net):
        pattern = incidence_pattern(three_node_net, "A2")
        dense = pattern.dense()
        expected = np.zeros((3, 3))
        expected[1, 1] = 1.0
        assert np.array_equal(dense, expected)

    def test_branch_pattern(self, three_node_net):
        dense = incidence_pattern(three_node_net, "B1-3").dense()
        expected = np.zeros((3, 3))
        expected[0, 0] = expected[2, 2] = 1.0
        expected[0, 2] = expected[2, 0] = -1.0
        assert np.array_equal(dense, expected)

    def test_pattern_symmetry(self, three_node_net):
        for comp in three_node_net.components():
            dense = incidence_pattern(three_node_net, comp.name).dense()
            assert np.array_equal(dense, dense.T)

    def test_finite_difference_bump(self, three_node_net):
        # replace one shunt admittance with y + delta; the matrix moves by
        # exactly delta times the incidence pattern
        delta = 1e-6
        base = build_ynodal(three_node_net)
        comp = three_node_net.component("A2")
        bumped_kind = RationalBlock(
            comp.kind.admittance() + RationalFunction.constant(delta)
        )
        shunts = tuple(
            Shunt(s.node, bumped_kind, s.name) if s.name == "A2" else s
            for s in three_node_net.shunts
        )
        bumped = NetworkModel(three_node_net.nodes, shunts, three_node_net.branches)
        s0 = 0.3 + 1.1j
        diff = build_ynodal(bumped)(s0) - base(s0)
        pattern = incidence_pattern(three_node_net, "A2").dense()
        assert np.max(np.abs(diff - delta * pattern)) < 1e-9

    def test_unknown_component(self, three_node_net):
        with pytest.raises(KeyError, match="unknown component"):
            incidence_pattern(three_node_net, "nope")


class TestParamDerivative:
    def test_capacitor(self):
        assert param_derivative(ShuntCapacitor(3.0), "C", 2j) == pytest.approx(2j)

    def test_series_rl_resistance_analytic_and_fd(self):
        kind = SeriesRL(1.0, 1.0)
        s0 = 1j
        assert param_derivative(kind, "R", s0) == pytest.approx(0.5j)
        h = 1e-6
        fd = (kind.with_param("R", 1.0 + h).admittance()(s0)
              - kind.with_param("R", 1.0 - h).admittance()(s0)) / (2 * h)
        assert param_derivative(kind, "R", s0) == pytest.approx(fd, abs=1e-8)

    def test_rlc_inductance_zero_at_dc(self):
        assert param_derivative(ShuntRLC(1.0, 2.0, 1.0), "L", 0.0) == 0.0

    def test_unknown_parameter(self):
        with pytest.raises(KeyError):
            param_derivative(ShuntCapacitor(1.0), "R", 1j)

    def test_rlc_all_params_vs_fd(self):
        kind = ShuntRLC(0.7, 1.3, 0.4)
        s0 = 0.2 + 1.7j
        h = 1e-7
        for name, rho in kind.params.items():
            fd = (kind.with_param(name, rho + h).admittance()(s0)
                  - kind.with_param(name, rho - h).admittance()(s0)) / (2 * h)
            assert param_derivative(kind, name, s0) == pytest.approx(fd, rel=1e-6)


class TestInvariants:
    def test_symmetry_and_conjugate_symmetry(self, small_corpus):
        rng = np.random.default_rng(8)
        for net in small_corpus[:6]:
            y = build_ynodal(net)
            s0 = complex(rng.normal(), rng.normal() + 1.0)
            m = y(s0)
            assert np.allclose(m, m.T)
            assert np.allclose(y(np.conj(s0)), np.conj(m))

    def test_shunt_additivity(self, three_node_net):
        extra = Shunt(2, ShuntCapacitor(0.123), "X2")
        grown = NetworkModel(
            three_node_net.nodes,
            (*three_node_net.shunts, extra),
            three_node_net.branches,
        )
        s0 = 0.4 + 0.9j
        diff = build_ynodal(grown)(s0) - build_ynodal(three_node_net)(s0)
        expected = np.zeros((3, 3), dtype=complex)
        expected[1, 1] = 0.123 * s0
        assert np.allclose(diff, expected)


class TestValidation:
    def test_branch_unknown_node(self):
        with pytest.raises(ValueError, match="unknown node"):
            NetworkModel(
                [Node(1)],
                [Shunt(1, ShuntCapacitor(1.0), "A1")],
                [Branch(1, 9, SeriesRL(1.0, 1.0), "B")],
            )

    def test_branch_self_loop(self):
        with pytest.raises(ValueError, match="distinct"):
            NetworkModel(
                [Node(1)],
                [Shunt(1, ShuntCapacitor(1.0), "A1")],
                [Branch(1, 1, SeriesRL(1.0, 1.0), "B")],
            )

    def test_floating_node(self):
        with pytest.raises(ValueError, match="without any component"):
            NetworkModel([Node(1), Node(2)], [Shunt(1, ShuntCapacitor(1.0), "A1")])

    def test_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate component name"):
            NetworkModel(
                [Node(1)],
                [Shunt(1, ShuntCapacitor(1.0), "A1"),
                 Shunt(1, ShuntCapacitor(2.0), "A1")],
            )

    def test_component_parameter_bounds(self):
        with pytest.raises(ValueError):
            SeriesRL(-1.0, 1.0)
        with pytest.raises(ValueError):
            SeriesRL(1.0, 0.0)
        with pytest.raises(ValueError):
            ShuntCapacitor(0.0)

    def test_with_param_returns_new_model(self, three_node_net):
        bumped = three_node_net.with_param("A1", "R", 9.9)
        assert bumped.component("A1").kind.resistance == 9.9
        assert three_node_net.component("A1").kind.resistance != 9.9
