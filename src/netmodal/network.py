"""Network description and admittance/impedance model assembly.

A network is a set of nodes carrying shunt apparatus plus branches joining
node pairs.  Each component contributes an admittance block; assembly stacks
those blocks into the nodal admittance matrix, the whole-system impedance
matrix and the whole-system admittance matrix; the whole-system models are
evaluated pointwise.  All transfer functions are in SI units with ``s`` in
rad/s.
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
    """Exact denominator structure of the nodal determinant, where derivable.

    Every width-one component enters the nodal matrix through a rank-one
    stamp, so the determinant is affine in each component admittance: its
    true denominator carries each component's denominator roots exactly
    once.  Multi-port blocks break the rank-one argument, so no hints are
    offered.
    """
    if any(node.ports != 1 for node in net.nodes):
        return None

    def den_roots(kind):
        y = admittance_block(kind, 1)[0][0]
        if y.den.degree == 0:
            return ()
        return tuple(complex(r) for r in y.den.roots())

    return MatrixStructureHints([r for comp in net.components() for r in den_roots(comp.kind)])


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


class PointwiseModel:
    """Square transfer matrix known through its values at points.

    ``evaluate`` maps a 1-D array of points to the stacked ``(len(s), n, n)``
    values.  The readers are those of :class:`RationalMatrix` that need no
    symbolic form, so a consumer such as ``modes.residue_by_limit`` takes
    either.
    """

    __slots__ = ("dim", "_evaluate")

    def __init__(self, dim: int, evaluate):
        self.dim = dim
        self._evaluate = evaluate

    def __call__(self, s: complex) -> np.ndarray:
        """Pointwise evaluation to an ``(n, n)`` complex array."""
        return self.eval_grid([s])[0]

    def eval_grid(self, s_values) -> np.ndarray:
        """Evaluate on a 1-D grid of points, returning ``(len(s), n, n)``."""
        return self._evaluate(np.asarray(s_values, dtype=complex))


_CHECK_SEED = 0x5E11
# Relative gap allowed between a whole-system model and its feedback form at
# the check points of build_zsys and build_ysys, per unit of the condition
# number of the nodal matrix there.
CHECK_TOL = 1e-8


def _check_points(count: int = 5) -> np.ndarray:
    rng = np.random.default_rng(_CHECK_SEED)
    return rng.uniform(0.2, 2.0, count) + 1j * rng.uniform(0.5, 3.0, count)


def _norms(stack: np.ndarray) -> np.ndarray:
    return np.linalg.norm(stack, axis=(1, 2))


def _has_apparatus_impedance(net: NetworkModel, y_app: RationalMatrix) -> bool:
    """Whether every node's shunt block is invertible, so that the apparatus
    impedance Z_A = Y_app^-1 exists (ports are one or two wide)."""
    for node in net.nodes:
        off, width = net.port_span(node.id)
        block = [row[off:off + width] for row in y_app.entries[off:off + width]]
        if width == 1:
            singular = block[0][0].is_zero
        else:
            singular = (block[0][0] * block[1][1] - block[0][1] * block[1][0]).is_zero
        if singular:
            return False
    return True


def _check_feedback_form(net: NetworkModel, ynodal: RationalMatrix,
                         model: PointwiseModel, factors, what: str) -> None:
    """Compare ``model`` with the feedback form at the fixed check points.

    The feedback form takes Z_A = Y_app^-1 from the shunt blocks and
    (I + Y_net Z_A)^-1 from the branches, never inverting Y itself, so the
    two computations are independent.  ``factors(z_a, closed, y_net)``
    returns the two matrices whose product is the form.  Both computations
    lose digits with the condition number of Y(s), so the allowed gap grows
    with it.  Where some node carries no invertible
    shunt block Z_A does not exist: a warning flags that, and only the
    residual of Z(s) Y(s) = I is checked.
    """
    s = _check_points()
    y_at = ynodal.eval_grid(s)
    z_at = np.linalg.inv(y_at)
    condition = 1.0 + _norms(y_at) * _norms(z_at)
    y_app = apparatus_admittance_matrix(net)
    if _has_apparatus_impedance(net, y_app):
        y_net = branch_admittance_matrix(net).eval_grid(s)
        z_a = np.linalg.inv(y_app.eval_grid(s))
        closed = np.linalg.inv(np.eye(net.size) + y_net @ z_a)
        left, right = factors(z_a, closed, y_net)
        gap = _norms(model.eval_grid(s) - left @ right)
        bound = CHECK_TOL * condition * _norms(left) * _norms(right)
    else:
        warnings.warn("Z_A-free assembly: inverting the nodal admittance matrix",
                      stacklevel=3)
        gap = _norms(z_at @ y_at - np.eye(net.size))
        bound = CHECK_TOL * condition
    failed = np.flatnonzero(~(gap <= bound))
    if failed.size:
        raise AssemblyCheckError(
            f"{what} identity check failed at s={s[failed[0]]:.3g}")


def build_zsys(net: NetworkModel) -> PointwiseModel:
    """Whole-system impedance matrix Z(s) = Y(s)^-1, evaluated pointwise.

    Z exists only pointwise once apparatus is known through values alone,
    and it is used only through its values, so no symbolic inverse is
    formed and no dimension limit applies.  A grid evaluates every distinct
    entry of the nodal matrix once and takes one stacked inverse.  Before
    returning, Z is checked against the feedback form Z_A (I + Y_net Z_A)^-1
    (see :func:`_check_feedback_form`); a mismatch raises
    :class:`AssemblyCheckError`.
    """
    ynodal = build_ynodal(net)
    zsys = PointwiseModel(net.size, lambda s: np.linalg.inv(ynodal.eval_grid(s)))
    _check_feedback_form(net, ynodal, zsys,
                         lambda z_a, closed, y_net: (z_a, closed), "impedance model")
    return zsys


def build_ysys(net: NetworkModel) -> PointwiseModel:
    """Whole-system admittance matrix Ysys(s) = Y_app(s) Z(s) Y_net(s),
    evaluated pointwise like :func:`build_zsys` and checked against the
    feedback form (I + Y_net Z_A)^-1 Y_net."""
    ynodal = build_ynodal(net)
    y_app, y_net = apparatus_admittance_matrix(net), branch_admittance_matrix(net)
    ysys = PointwiseModel(
        net.size,
        lambda s: y_app.eval_grid(s) @ np.linalg.inv(ynodal.eval_grid(s)) @ y_net.eval_grid(s),
    )
    _check_feedback_form(net, ynodal, ysys,
                         lambda z_a, closed, y_net: (closed, y_net), "admittance model")
    return ysys


def incidence_pattern(net: NetworkModel, component_name: str) -> IncidencePattern:
    """Where (and with which sign) a component's admittance enters the
    nodal matrix."""
    width, blocks = _port_blocks(net, net.component(component_name))
    return IncidencePattern(component_name, net.size, width, blocks)


def param_derivative(kind, param: str, s: complex) -> complex:
    """Analytic derivative of a component admittance w.r.t. one parameter."""
    return kind.param_derivative(param, s)
