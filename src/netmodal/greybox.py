"""Layered per-mode influence reports.

Layer 1 ranks components by the magnitude of their admittance sensitivity,
layer 2 decomposes each influence into damping and frequency effects of
proportional scaling, layer 3 descends to physical parameters and produces
tuning guidance (which direction moves the mode left in the complex plane).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .modes import Mode, mode_artifacts
from .network import NetworkModel, admittance_block, incidence_pattern
from .rational import RationalMatrix
from .sensitivity import (
    ParamSensitivity,
    SensitivityFactor,
    admittance_sensitivity_factor,
    parameter_sensitivity_factor,
    predict_tuning,
)

DEFAULT_SIGNIFICANCE = 0.05


@dataclass(frozen=True)
class Guidance:
    component: str
    param: str
    direction: str  # "increase" | "decrease" | "none"
    rationale: str
    predicted: complex


@dataclass(frozen=True)
class GreyboxReport:
    mode: Mode
    fraction: float
    layer1: tuple
    layer2: tuple
    layer3: tuple
    guidance: tuple


def layer1_ranking(factors: Sequence[SensitivityFactor]):
    """Components ordered by descending magnitude influence; name breaks ties."""
    return [
        (f.component, f.layer1)
        for f in sorted(factors, key=lambda f: (-f.layer1, f.component))
    ]


def layer2_decomposition(factors: Sequence[SensitivityFactor]):
    """Complex influences with shares normalized to the sum of magnitudes."""
    ordered = sorted(factors, key=lambda f: (-f.layer1, f.component))
    total = sum(abs(f.layer2) for f in ordered)
    if total == 0:
        return [(f.component, f.layer2, 0j) for f in ordered]
    return [(f.component, f.layer2, f.layer2 / total) for f in ordered]


def layer3_guidance(param_sens: Sequence[ParamSensitivity], fraction: float,
                    significance: float = DEFAULT_SIGNIFICANCE):
    """Significant parameters sorted by |normalized|, plus tuning directions.

    A parameter is listed when its normalized magnitude reaches
    ``significance`` times the largest one.  The recommended direction makes
    the predicted first-order shift point left (damping improves).
    """
    ordered = sorted(
        param_sens, key=lambda p: (-abs(p.normalized), p.component, p.param)
    )
    if not ordered:
        return [], []
    top = abs(ordered[0].normalized)
    kept = [p for p in ordered if abs(p.normalized) >= significance * top]
    guidance = []
    for p in kept:
        predicted = predict_tuning(p, fraction) if fraction else 0j
        if not p.has_damping_leverage:
            guidance.append(
                Guidance(p.component, p.param, "none",
                         "no first-order damping leverage", predicted)
            )
            continue
        direction = "decrease" if p.normalized.real > 0 else "increase"
        sign = -1.0 if direction == "decrease" else 1.0
        guidance.append(
            Guidance(
                p.component,
                p.param,
                direction,
                f"{direction} moves the mode left "
                f"(Re d-mode = {sign * p.normalized.real:+.3g} per unit fraction)",
                predicted,
            )
        )
    return kept, guidance


def component_factor(net: NetworkModel, comp, mode: Mode) -> SensitivityFactor:
    """Admittance sensitivity factor of one component, its admittance block
    evaluated at the mode."""
    pattern = incidence_pattern(net, comp.name)
    grid = admittance_block(comp.kind, pattern.width)
    y = np.array([[entry(mode.eigenvalue) for entry in row] for row in grid])
    return admittance_sensitivity_factor(mode, pattern, y)


def parameter_factor(comp, factor: SensitivityFactor, param: str,
                     mode: Mode) -> ParamSensitivity:
    """Parameter sensitivity factor of one scalar component parameter: the
    derivative of its admittance block is dy/drho on every port."""
    dy = comp.kind.param_derivative(param, mode.eigenvalue) * np.eye(len(factor.block))
    return parameter_sensitivity_factor(factor, param, dy, comp.kind.params[param])


def component_factors(net: NetworkModel, mode: Mode):
    """Admittance sensitivity factors for every component of the network."""
    return [component_factor(net, comp, mode) for comp in net.components()]


def parameter_factors(net: NetworkModel, mode: Mode,
                      factors: Sequence[SensitivityFactor]):
    """Parameter sensitivity factors for every tunable (component, param)."""
    by_name = {f.component: f for f in factors}
    return [
        parameter_factor(comp, by_name[comp.name], param, mode)
        for comp in net.components()
        for param in comp.kind.params
    ]


def mode_report(net: NetworkModel, ynodal: RationalMatrix, mode: Mode,
                fraction: float = 0.05,
                significance: float = DEFAULT_SIGNIFICANCE,
                det=None) -> GreyboxReport:
    """Full three-layer report for one mode of a rational network."""
    populated = mode if mode.populated else mode_artifacts(
        ynodal, mode.eigenvalue, det=det
    )
    factors = component_factors(net, populated)
    param_sens = parameter_factors(net, populated, factors)
    layer3, guidance = layer3_guidance(param_sens, fraction, significance)
    return GreyboxReport(
        mode=populated,
        fraction=fraction,
        layer1=tuple(layer1_ranking(factors)),
        layer2=tuple(layer2_decomposition(factors)),
        layer3=tuple(layer3),
        guidance=tuple(guidance),
    )
