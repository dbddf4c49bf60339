"""Width-two (d-q style) nodes: block stamping, modes and block factors."""

import numpy as np
import pytest

from netmodal.greybox import mode_report
from netmodal.modes import find_modes, mode_artifacts
from netmodal.netfile import parse_network_text
from netmodal.network import (
    Branch,
    NetworkModel,
    Node,
    RationalBlock,
    SeriesRL,
    Shunt,
    build_ynodal,
    incidence_pattern,
)
from netmodal.rational import RationalFunction
from netmodal.sensitivity import admittance_sensitivity_factor
from netmodal.statespace import track_mode


def dq_block(c=1.0, g=0.4, coupling=0.2):
    """Damped capacitive block with skew coupling between the two ports."""
    diag = RationalFunction([g, c], [1.0])
    skew = RationalFunction.constant(coupling)
    zero = RationalFunction.zero()
    return RationalBlock(((diag, skew), (-skew, diag)))


@pytest.fixture()
def dq_net():
    nodes = [Node(1, ports=2), Node(2, ports=2)]
    shunts = [Shunt(1, dq_block(1.0, 0.4, 0.2), "A1"),
              Shunt(2, dq_block(0.7, 0.3, 0.1), "A2")]
    branches = [Branch(1, 2, SeriesRL(0.2, 0.5), "B1-2")]
    return NetworkModel(nodes, shunts, branches)


class TestAssembly:
    def test_port_expansion(self, dq_net):
        ynodal = build_ynodal(dq_net)
        assert ynodal.dim == 4

    def test_block_stamping(self, dq_net):
        ynodal = build_ynodal(dq_net)
        s0 = 0.3 + 1.1j
        y_branch = SeriesRL(0.2, 0.5).admittance()(s0)
        block = dq_block(1.0, 0.4, 0.2)
        m = ynodal(s0)
        assert m[0, 0] == pytest.approx(block.blocks[0][0](s0) + y_branch)
        assert m[0, 1] == pytest.approx(block.blocks[0][1](s0))
        # scalar branch couples like-port to like-port only
        assert m[0, 2] == pytest.approx(-y_branch)
        assert m[0, 3] == 0
        assert m[1, 3] == pytest.approx(-y_branch)

    def test_width_one_block_branch_stamps_like_a_scalar(self, dq_net):
        scalar = RationalBlock(SeriesRL(0.2, 0.5).admittance())
        branches = (Branch(1, 2, scalar, "B1-2"),)
        as_block = NetworkModel(dq_net.nodes, dq_net.shunts, branches)
        s0 = 0.3 + 1.1j
        assert np.allclose(build_ynodal(as_block)(s0), build_ynodal(dq_net)(s0),
                           rtol=1e-14, atol=0)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            NetworkModel(
                [Node(1, ports=2)],
                [Shunt(1, SeriesRL(1.0, 1.0), "A1")],
            )

    def test_mixed_width_branch_rejected(self):
        with pytest.raises(ValueError, match="port widths"):
            NetworkModel(
                [Node(1, ports=2), Node(2, ports=1)],
                [Shunt(1, dq_block(), "A1"),
                 Shunt(2, SeriesRL(1.0, 1.0), "A2")],
                [Branch(1, 2, SeriesRL(1.0, 1.0), "B")],
            )


class TestBlockSensitivity:
    def test_block_factor_predicts_shift(self, dq_net):
        ynodal = build_ynodal(dq_net)
        det = ynodal.det()
        modes = find_modes(ynodal, det=det)
        target = next(m for m in modes
                      if m.oscillatory and m.eigenvalue.imag > 0
                      and not m.near_repeated)
        art = mode_artifacts(ynodal, target.eigenvalue, det=det)
        pattern = incidence_pattern(dq_net, "A1")
        assert pattern.width == 2
        lam = art.eigenvalue
        block = dq_net.component("A1").kind
        y_at = np.array([[entry(lam) for entry in row] for row in block.blocks])
        factor = admittance_sensitivity_factor(art, pattern, y_at)
        assert factor.block.shape == (2, 2)
        assert factor.layer1 == pytest.approx(
            np.linalg.norm(factor.block) * np.linalg.norm(y_at)
        )
        assert abs(factor.layer2) <= factor.layer1 * (1 + 1e-12)

        # first-order check: scale the block by 1 + eps
        eps = 1e-6
        predicted = factor.predicted_shift(eps * y_at)
        scaled = RationalBlock(
            tuple(tuple(entry * (1 + eps) for entry in row) for row in block.blocks)
        )
        shunts = tuple(
            Shunt(s.node, scaled, s.name) if s.name == "A1" else s
            for s in dq_net.shunts
        )
        bumped = NetworkModel(dq_net.nodes, shunts, dq_net.branches)
        moved = track_mode(find_modes(build_ynodal(bumped)), lam)
        actual = moved - lam
        assert abs(predicted - actual) / abs(actual) < 0.01


class TestScalarBranchBetweenTwoPorts:
    """A scalar branch between d-q nodes stamps its admittance on both
    ports, so its parameter factors see dy/drho on both ports too."""

    @pytest.mark.parametrize("param", ["R", "L"])
    def test_layer3_prediction_matches_the_resolve(self, dq_net, param):
        ynodal = build_ynodal(dq_net)
        modes = find_modes(ynodal)
        targets = [m for m in modes if m.oscillatory and m.eigenvalue.imag > 0]
        assert targets
        fraction = 1e-3
        rho = dq_net.component("B1-2").kind.params[param]
        bumped = find_modes(build_ynodal(
            dq_net.with_param("B1-2", param, rho * (1 + fraction))))
        for target in targets:
            report = mode_report(dq_net, ynodal, target, fraction=fraction,
                                 significance=0.0)
            p = next(p for p in report.layer3
                     if (p.component, p.param) == ("B1-2", param))
            predicted = p.value * p.rho * fraction  # layer-3 "predicted" of the CLI
            actual = track_mode(bumped, target.eigenvalue) - target.eigenvalue
            assert abs(predicted - actual) <= 1e-2 * abs(actual)


class TestTwoPortFile:
    def test_parse_two_port_rational(self):
        text = """
[meta]
name = dq
frequency_unit = rads

[node]
id = 1
ports = 2

[shunt]
node = 1
kind = rational
num_11 = 0.4 1.0
den_11 = 1.0
num_12 = 0.2
den_12 = 1.0
num_21 = -0.2
den_21 = 1.0
num_22 = 0.4 1.0
den_22 = 1.0
"""
        doc = parse_network_text(text)
        kind = doc.network.component("A1").kind
        assert isinstance(kind, RationalBlock)
        assert kind.width == 2
        assert kind.blocks[0][1](0) == pytest.approx(0.2)
        ynodal = build_ynodal(doc.network)
        assert ynodal.dim == 2
