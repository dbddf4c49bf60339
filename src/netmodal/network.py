"""Network description and admittance/impedance model assembly.

A network is a set of nodes carrying shunt apparatus plus branches joining
node pairs.  Each component contributes an admittance block; assembly stacks
those blocks into the nodal admittance matrix, the whole-system impedance
matrix and the whole-system admittance matrix.  All transfer functions are
in SI units with ``s`` in rad/s.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .rational import MatrixStructureHints, RationalFunction, RationalMatrix


class ModelDataError(ValueError):
    """The network cannot provide what was asked of it (e.g. spectra only)."""


class AssemblyCheckError(RuntimeError):
    """A pointwise self-check of an assembled model failed."""


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


class _Lumped:
    """Shared plumbing of the scalar R/L/C kinds.

    ``FIELDS`` maps each parameter name to its dataclass field, in
    constructor order.  R must be non-negative; every other parameter
    strictly positive.
    """

    FIELDS: dict = {}
    width = 1

    def __post_init__(self):
        values = {name: _require_finite(name, value) for name, value in self.params.items()}
        for name, value in values.items():
            if name == "R" and value < 0:
                raise ValueError("R must be non-negative")
            if name != "R" and value <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def params(self) -> dict:
        return {name: getattr(self, field) for name, field in self.FIELDS.items()}

    def _field(self, name: str) -> str:
        try:
            return self.FIELDS[name]
        except KeyError:
            raise KeyError(
                f"unknown parameter {name!r} for {type(self).__name__}"
            ) from None

    def with_param(self, name: str, value: float):
        return replace(self, **{self._field(name): value})


@dataclass(frozen=True)
class SeriesRL(_Lumped):
    """Series R-L element with admittance ``1 / (R + sL)``.

    Usable both as shunt apparatus (node to reference) and as a branch.
    """

    resistance: float
    inductance: float

    FIELDS = {"R": "resistance", "L": "inductance"}

    def admittance(self) -> RationalFunction:
        return RationalFunction([1.0], [self.resistance, self.inductance])

    def param_derivative(self, name: str, s: complex) -> complex:
        self._field(name)
        z = self.resistance + s * self.inductance
        return (-1.0 if name == "R" else -s) / (z * z)


@dataclass(frozen=True)
class ShuntCapacitor(_Lumped):
    """Shunt capacitor with admittance ``sC``."""

    capacitance: float

    FIELDS = {"C": "capacitance"}

    def admittance(self) -> RationalFunction:
        return RationalFunction([0.0, self.capacitance], [1.0])

    def param_derivative(self, name: str, s: complex) -> complex:
        self._field(name)
        return s


@dataclass(frozen=True)
class ShuntRLC(_Lumped):
    """Series R-L leg in parallel with a capacitor: ``1/(R+sL) + sC``."""

    resistance: float
    inductance: float
    capacitance: float

    FIELDS = {"R": "resistance", "L": "inductance", "C": "capacitance"}

    def admittance(self) -> RationalFunction:
        r, l, c = self.resistance, self.inductance, self.capacitance
        # (1 + sC(R + sL)) / (R + sL)
        return RationalFunction([1.0, c * r, c * l], [r, l])

    def param_derivative(self, name: str, s: complex) -> complex:
        if self._field(name) == "capacitance":
            return s
        z = self.resistance + s * self.inductance
        return (-1.0 if name == "R" else -s) / (z * z)


class RationalBlock:
    """User-supplied admittance block: an m-by-m grid of rational functions.

    Covers apparatus whose internals are not modelled here; only the terminal
    small-signal admittance matters.
    """

    def __init__(self, blocks):
        if isinstance(blocks, RationalFunction):
            blocks = ((blocks,),)
        rows = tuple(tuple(row) for row in blocks)
        m = len(rows)
        if m == 0 or any(len(r) != m for r in rows):
            raise ValueError("rational block must be a square grid")
        for row in rows:
            for entry in row:
                if not isinstance(entry, RationalFunction):
                    raise TypeError("rational block entries must be RationalFunction")
        self.blocks = rows

    @property
    def width(self) -> int:
        return len(self.blocks)

    @property
    def params(self) -> dict:
        return {}

    def param_derivative(self, name: str, s: complex) -> complex:
        raise KeyError("rational blocks expose no tunable parameters")

    def __eq__(self, other):
        return isinstance(other, RationalBlock) and self.blocks == other.blocks

    def __repr__(self):
        return f"RationalBlock(width={self.width})"


@dataclass(frozen=True)
class SpectrumRef:
    """Placeholder for apparatus known only through measured spectra."""

    path: str

    width = 1

    @property
    def params(self) -> dict:
        return {}


ShuntKind = Union[SeriesRL, ShuntCapacitor, ShuntRLC, RationalBlock, SpectrumRef]
BranchKind = Union[SeriesRL, RationalBlock]


@dataclass(frozen=True)
class Node:
    id: int
    ports: int = 1

    def __post_init__(self):
        if self.ports not in (1, 2):
            raise ValueError("node port width must be 1 or 2")


@dataclass(frozen=True)
class Shunt:
    node: int
    kind: ShuntKind
    name: str


@dataclass(frozen=True)
class Branch:
    node_a: int
    node_b: int
    kind: BranchKind
    name: str


@dataclass(frozen=True)
class IncidencePattern:
    """Sparse structure of the nodal-matrix derivative w.r.t. one admittance.

    ``blocks`` lists ``(row_port, col_port, sign)`` for m-by-m identity-shaped
    blocks: a shunt stamps +1 on its node's diagonal block, a branch stamps
    +1 on both diagonal blocks and -1 on the two coupling blocks.
    """

    component: str
    dim: int
    width: int
    blocks: tuple

    def dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        m = self.width
        for r, c, sign in self.blocks:
            out[r : r + m, c : c + m] += sign * np.eye(m)
        return out


class NetworkModel:
    """Validated, immutable description of nodes, branches and shunt apparatus."""

    def __init__(self, nodes, shunts=(), branches=()):
        self.nodes = tuple(nodes)
        self.shunts = tuple(shunts)
        self.branches = tuple(branches)
        self._validate()
        offset = 0
        self._port_offset = {}
        for node in self.nodes:
            self._port_offset[node.id] = offset
            offset += node.ports
        self.size = offset
        self._by_name = {c.name: c for c in (*self.shunts, *self.branches)}

    def _validate(self) -> None:
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        if not ids:
            raise ValueError("network needs at least one node")
        widths = {n.id: n.ports for n in self.nodes}
        touched = set()
        names = set()
        for sh in self.shunts:
            if sh.node not in widths:
                raise ValueError(f"shunt {sh.name!r} references unknown node {sh.node}")
            if sh.kind.width != widths[sh.node]:
                raise ValueError(
                    f"shunt {sh.name!r} has width {sh.kind.width}, node {sh.node} "
                    f"has {widths[sh.node]} ports"
                )
            if sh.name in names:
                raise ValueError(f"duplicate component name {sh.name!r}")
            names.add(sh.name)
            touched.add(sh.node)
        for br in self.branches:
            if br.node_a not in widths or br.node_b not in widths:
                raise ValueError(f"branch {br.name!r} references an unknown node")
            if br.node_a == br.node_b:
                raise ValueError(f"branch {br.name!r} endpoints must be distinct")
            if widths[br.node_a] != widths[br.node_b]:
                raise ValueError(
                    f"branch {br.name!r} joins nodes of different port widths"
                )
            if br.kind.width not in (1, widths[br.node_a]):
                raise ValueError(f"branch {br.name!r} block width mismatch")
            if br.name in names:
                raise ValueError(f"duplicate component name {br.name!r}")
            names.add(br.name)
            touched.update((br.node_a, br.node_b))
        floating = set(widths) - touched
        if floating:
            raise ValueError(f"nodes without any component: {sorted(floating)}")

    # -- lookups ------------------------------------------------------------

    def port_span(self, node_id: int):
        width = next(n.ports for n in self.nodes if n.id == node_id)
        return self._port_offset[node_id], width

    def components(self):
        return (*self.shunts, *self.branches)

    def component(self, name: str):
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown component {name!r}") from None

    def with_param(self, component_name: str, param: str, value: float) -> "NetworkModel":
        """Copy of the network with one component parameter replaced."""
        comp = self.component(component_name)
        new_kind = comp.kind.with_param(param, value)
        if isinstance(comp, Shunt):
            shunts = tuple(
                replace(s, kind=new_kind) if s.name == component_name else s
                for s in self.shunts
            )
            return NetworkModel(self.nodes, shunts, self.branches)
        branches = tuple(
            replace(b, kind=new_kind) if b.name == component_name else b
            for b in self.branches
        )
        return NetworkModel(self.nodes, self.shunts, branches)

    def has_spectrum_apparatus(self) -> bool:
        return any(isinstance(s.kind, SpectrumRef) for s in self.shunts)


# ---------------------------------------------------------------------------
# assembly


def admittance_block(kind, width: int):
    """Component admittance as a width-by-width grid of rational functions.

    The one place a component kind becomes a port block: a rational block
    of the port width is its own grid; a scalar admittance (a width-one
    block included) sits on the diagonal, because a scalar component
    couples like port to like port.
    """
    if isinstance(kind, RationalBlock):
        if kind.width == width:
            return kind.blocks
        if kind.width != 1:
            raise ValueError("rational block width mismatch")
        y = kind.blocks[0][0]
    else:
        y = kind.admittance()
    zero = RationalFunction.zero()
    return tuple(
        tuple(y if p == q else zero for q in range(width)) for p in range(width)
    )


def _stamp(entries, base_r: int, base_c: int, block, sign: float) -> None:
    m = len(block)
    for p in range(m):
        for q in range(m):
            b = block[p][q]
            if b.is_zero:
                continue
            cur = entries[base_r + p][base_c + q]
            entries[base_r + p][base_c + q] = cur + (b if sign > 0 else -b)


def _port_blocks(net: NetworkModel, comp):
    """Port width and ``(row, col, sign)`` blocks through which a component
    enters the nodal matrix: its node's diagonal block for a shunt; both
    diagonal blocks and, negated, both coupling blocks for a branch."""
    if isinstance(comp, Shunt):
        off, width = net.port_span(comp.node)
        return width, ((off, off, +1.0),)
    off_a, width = net.port_span(comp.node_a)
    off_b, _ = net.port_span(comp.node_b)
    return width, (
        (off_a, off_a, +1.0),
        (off_b, off_b, +1.0),
        (off_a, off_b, -1.0),
        (off_b, off_a, -1.0),
    )


def _assemble(net: NetworkModel, components) -> list:
    """Entry grid of the stamps of ``components``, in the order given."""
    n = net.size
    entries = [[RationalFunction.zero() for _ in range(n)] for _ in range(n)]
    for comp in components:
        width, blocks = _port_blocks(net, comp)
        block = admittance_block(comp.kind, width)
        for r, c, sign in blocks:
            _stamp(entries, r, c, block, sign)
    return entries


def _structure_hints(net: NetworkModel):
    """Exact denominator structure of the nodal matrix, where derivable.

    Every width-one component enters the nodal matrix through a rank-one
    stamp, so determinants and first minors are affine in each component
    admittance: their true denominator carries each component's denominator
    roots exactly once (shunts only while their node survives the minor).
    Multi-port blocks break the rank-one argument, so no hints are offered.
    """
    if any(node.ports != 1 for node in net.nodes):
        return None

    def den_roots(kind):
        y = admittance_block(kind, 1)[0][0]
        if y.den.degree == 0:
            return ()
        return tuple(complex(r) for r in y.den.roots())

    shunt_info = []
    det_roots = []
    for sh in net.shunts:
        off, _ = net.port_span(sh.node)
        roots = den_roots(sh.kind)
        shunt_info.append((off, roots))
        det_roots.extend(roots)
    branch_roots = []
    for br in net.branches:
        roots = den_roots(br.kind)
        branch_roots.extend(roots)
        det_roots.extend(roots)

    def minor_den_roots(removed_row, removed_col):
        roots = list(branch_roots)
        for off, shunt in shunt_info:
            if off != removed_row and off != removed_col:
                roots.extend(shunt)
        return tuple(roots)

    return MatrixStructureHints(tuple(det_roots), minor_den_roots)


def build_ynodal(net: NetworkModel) -> RationalMatrix:
    """Nodal admittance matrix: network branches plus shunt apparatus.

    Diagonal blocks collect every admittance terminating at a node;
    off-diagonal blocks carry the negated branch admittances between node
    pairs.
    """
    if net.has_spectrum_apparatus():
        raise ModelDataError("rational model required; use measurement route")
    return RationalMatrix(_assemble(net, net.components()),
                          hints=_structure_hints(net))


def branch_admittance_matrix(net: NetworkModel) -> RationalMatrix:
    """Branch-only nodal matrix (shunt apparatus excluded)."""
    return RationalMatrix(_assemble(net, net.branches))


def apparatus_admittance_matrix(net: NetworkModel) -> RationalMatrix:
    """Block-diagonal matrix of combined shunt admittances per node."""
    if net.has_spectrum_apparatus():
        raise ModelDataError("rational model required; use measurement route")
    return RationalMatrix(_assemble(net, net.shunts))


def apparatus_impedance_matrix(net: NetworkModel):
    """Block-diagonal impedance of the shunt apparatus, or None if some node
    carries no invertible shunt admittance."""
    y_app = apparatus_admittance_matrix(net)
    n = net.size
    entries = [[RationalFunction.zero() for _ in range(n)] for _ in range(n)]
    for node in net.nodes:
        off, width = net.port_span(node.id)
        if width == 1:
            y = y_app.entries[off][off]
            if y.is_zero:
                return None
            entries[off][off] = y.reciprocal()
        else:
            block = RationalMatrix(
                [
                    [y_app.entries[off + p][off + q] for q in range(width)]
                    for p in range(width)
                ]
            )
            if block.det().is_zero:
                return None
            inv = block.inverse()
            for p in range(width):
                for q in range(width):
                    entries[off + p][off + q] = inv.entries[p][q]
    return RationalMatrix(entries)


def zsys_from_parts(z_app: RationalMatrix, y_net: RationalMatrix) -> RationalMatrix:
    """Whole-system impedance from apparatus impedances and branch matrix."""
    feedback = RationalMatrix.identity(z_app.dim) + (y_net @ z_app)
    return z_app @ feedback.inverse()


def ysys_from_parts(z_app: RationalMatrix, y_net: RationalMatrix) -> RationalMatrix:
    """Whole-system admittance from apparatus impedances and branch matrix."""
    feedback = RationalMatrix.identity(z_app.dim) + (y_net @ z_app)
    return feedback.inverse() @ y_net


_CHECK_SEED = 0x5E11
# Relative residual allowed in the pointwise identity checks of build_zsys
# and build_ysys.
CHECK_TOL = 1e-8


def _check_points(count: int = 5) -> np.ndarray:
    rng = np.random.default_rng(_CHECK_SEED)
    return rng.uniform(0.2, 2.0, count) + 1j * rng.uniform(0.5, 3.0, count)


def _verify_product(lhs: RationalMatrix, rhs: RationalMatrix, target, tol: float,
                    what: str) -> None:
    for s0 in _check_points():
        left_a, left_b = lhs(s0), rhs(s0)
        left = left_a @ left_b
        want = target(s0) if isinstance(target, RationalMatrix) else target
        scale = 1.0 + float(np.linalg.norm(left_a) * np.linalg.norm(left_b))
        if np.linalg.norm(left - want) > tol * scale:
            raise AssemblyCheckError(
                f"{what} identity check failed at s={s0:.3g}; the symbolic "
                "inverse loses accuracy on densely meshed networks beyond "
                "roughly seven nodes - evaluate the nodal matrix pointwise "
                "instead"
            )


def build_zsys(net: NetworkModel) -> RationalMatrix:
    """Whole-system impedance matrix.

    The apparatus/branch feedback form and the plain inverse of the nodal
    matrix are the same matrix, so the better-conditioned inverse route is
    used for the arithmetic; networks where some node carries no invertible
    shunt block (no apparatus impedance matrix exists) are flagged with a
    warning.  The product with the nodal matrix is spot-checked pointwise
    before returning.
    """
    ynodal = build_ynodal(net)
    if apparatus_impedance_matrix(net) is None:
        warnings.warn("Z_A-free assembly: inverting the nodal admittance matrix",
                      stacklevel=2)
    zsys = ynodal.inverse()
    _verify_product(zsys, ynodal, np.eye(net.size), CHECK_TOL, "impedance model")
    return zsys


def build_ysys(net: NetworkModel) -> RationalMatrix:
    """Whole-system admittance matrix (same fallback rules as build_zsys)."""
    y_net = branch_admittance_matrix(net)
    ynodal = build_ynodal(net)
    z_app = apparatus_impedance_matrix(net)
    if z_app is None:
        warnings.warn("Z_A-free assembly: inverting the nodal admittance matrix",
                      stacklevel=2)
    y_app = apparatus_admittance_matrix(net)
    ysys = (y_app @ ynodal.inverse()) @ y_net
    for s0 in _check_points():
        if z_app is None:
            feedback = ynodal(s0) @ np.linalg.inv(y_app(s0)) \
                if not np.isclose(np.linalg.det(y_app(s0)), 0) else None
        else:
            feedback = np.eye(net.size) + y_net(s0) @ z_app(s0)
        if feedback is None:
            continue
        got = feedback @ ysys(s0)
        want = y_net(s0)
        scale = 1.0 + float(np.linalg.norm(feedback) * np.linalg.norm(ysys(s0)))
        if np.linalg.norm(got - want) > CHECK_TOL * scale:
            raise AssemblyCheckError(
                f"admittance model identity check failed at s={s0:.3g}"
            )
    return ysys


def incidence_pattern(net: NetworkModel, component_name: str) -> IncidencePattern:
    """Where (and with which sign) a component's admittance enters the
    nodal matrix."""
    width, blocks = _port_blocks(net, net.component(component_name))
    return IncidencePattern(component_name, net.size, width, blocks)


def param_derivative(kind, param: str, s: complex) -> complex:
    """Analytic derivative of a component admittance w.r.t. one parameter."""
    return kind.param_derivative(param, s)
