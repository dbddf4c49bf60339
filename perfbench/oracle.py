"""Reference computations that share no code with the routes they check.

Networks are plain descriptions (``Net``) owned by the benchmark.  The state
matrix is built here from branch physics (capacitor voltages and inductor
currents as states), so modes, impedance residues, the impedance itself and
parameter sensitivities all come from one eigendecomposition of a real
matrix, never from a determinant, an adjugate or a fitted model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# Relative step of the central differences; their noise is ~1e-9 relative to
# the largest normalised sensitivity of a mode.
FD_STEP = 1e-6


@dataclass(frozen=True)
class Net:
    """Passive RLC network: shunt R-L leg in parallel with C at every node,
    series R-L branches between node pairs.  Nodes are numbered 1..n."""

    n: int
    shunts: tuple  # (name, node, r, l, c)
    branches: tuple  # (name, a, b, r, l)

    def params(self):
        """Every (component, parameter, value) in a fixed order."""
        for name, _, r, l, c in self.shunts:
            yield name, "R", r
            yield name, "L", l
            yield name, "C", c
        for name, _, _, r, l in self.branches:
            yield name, "R", r
            yield name, "L", l

    def with_param(self, component: str, param: str, value: float) -> "Net":
        slot = {"R": 0, "L": 1, "C": 2}[param]

        def bump(entry, first):
            if entry[0] != component:
                return entry
            values = list(entry)
            values[first + slot] = float(value)
            return tuple(values)

        return replace(
            self,
            shunts=tuple(bump(s, 2) for s in self.shunts),
            branches=tuple(bump(b, 3) for b in self.branches),
        )

    def scaled(self, factors) -> "Net":
        """Every parameter multiplied by the next factor, in ``params`` order."""
        net = self
        for (comp, param, value), f in zip(self.params(), factors):
            net = net.with_param(comp, param, value * f)
        return net

    def text(self, name: str) -> str:
        """The network as a ``.net`` file (floats written exactly)."""
        lines = ["[meta]", f"name = {name}", "frequency_unit = rads", ""]
        for k in range(1, self.n + 1):
            lines += ["[node]", f"id = {k}", ""]
        for name_, node, r, l, c in self.shunts:
            lines += ["[shunt]", f"node = {node}", f"name = {name_}", "kind = rlc",
                      f"r = {r!r}", f"l = {l!r}", f"c = {c!r}", ""]
        for name_, a, b, r, l in self.branches:
            lines += ["[branch]", f"from = {a}", f"to = {b}", f"name = {name_}",
                      "kind = series-rl", f"r = {r!r}", f"l = {l!r}", ""]
        return "\n".join(lines)

    def admittance(self, component: str, s: complex) -> complex:
        for name, _, r, l, c in self.shunts:
            if name == component:
                return 1.0 / (r + s * l) + s * c
        for name, _, _, r, l in self.branches:
            if name == component:
                return 1.0 / (r + s * l)
        raise KeyError(component)

    def incidence(self, component: str):
        """Node pairs (k, i, sign) whose impedance residues make up the
        component's sensitivity: one diagonal entry for a shunt, four
        entries for a branch."""
        for name, node, *_ in self.shunts:
            if name == component:
                return [(node, node, 1.0)]
        for name, a, b, *_ in self.branches:
            if name == component:
                return [(a, a, 1.0), (b, b, 1.0), (a, b, -1.0), (b, a, -1.0)]
        raise KeyError(component)


def state_space(net: Net):
    """(A, B, C) with node current injections as inputs and node voltages
    as outputs, so that Z(s) = C (sI - A)^-1 B."""
    n = net.n
    order = n + len(net.shunts) + len(net.branches)
    a = np.zeros((order, order))
    cap = np.zeros(n)
    for _, node, _, _, c in net.shunts:
        cap[node - 1] += c
    row = n
    for _, node, r, l, _ in net.shunts:
        v = node - 1
        a[row, v] = 1.0 / l
        a[row, row] = -r / l
        a[v, row] = -1.0 / cap[v]
        row += 1
    for _, na, nb, r, l in net.branches:
        va, vb = na - 1, nb - 1
        a[row, va] = 1.0 / l
        a[row, vb] = -1.0 / l
        a[row, row] = -r / l
        a[va, row] -= 1.0 / cap[va]
        a[vb, row] += 1.0 / cap[vb]
        row += 1
    b = np.zeros((order, n))
    b[np.arange(n), np.arange(n)] = 1.0 / cap
    c = np.zeros((n, order))
    c[np.arange(n), np.arange(n)] = 1.0
    return a, b, c


@dataclass
class Reference:
    """Modes and impedance residues of one network."""

    net: Net
    eigenvalues: np.ndarray
    residues: np.ndarray  # (modes, n, n): residue of Z at each eigenvalue
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def impedance(self, s_values) -> np.ndarray:
        """Z(s) on a grid, shape (len(s), n, n)."""
        eye = np.eye(self.a.shape[0])
        return np.array(
            [self.c @ np.linalg.solve(s * eye - self.a, self.b) for s in s_values]
        )

    def residue_at(self, lam: complex) -> np.ndarray:
        return self.residues[int(np.argmin(np.abs(self.eigenvalues - lam)))]

    def upper(self) -> np.ndarray:
        """Eigenvalues with conjugate pairs collapsed to Im >= 0."""
        lam = self.eigenvalues
        return lam[lam.imag >= -1e-8 * (1.0 + np.abs(lam))]

    def listing(self) -> np.ndarray:
        """Collapsed modes in the order of the ``netmodal modes`` listing."""
        return np.array(sorted(self.upper(), key=lambda z: (-abs(z.imag), z.real, z.imag)))

    def oscillatory(self) -> np.ndarray:
        """Modes with Im > 0 (one of each conjugate pair)."""
        lam = self.eigenvalues
        return lam[lam.imag > 1e-8 * (1.0 + np.abs(lam))]

    def least_damped(self) -> complex:
        return complex(min(self.oscillatory(), key=lambda z: -z.real / abs(z)))

    def sensitivity(self, lam: complex, component: str, param: str) -> complex:
        """d lam / d rho by central differences of the re-solved eigenvalues."""
        rho = dict(((c, p), v) for c, p, v in self.net.params())[(component, param)]
        moved = [
            nearest(eigenvalues(self.net.with_param(component, param,
                                                    rho * (1.0 + sign * FD_STEP))), lam)
            for sign in (1.0, -1.0)
        ]
        return (moved[0] - moved[1]) / (2.0 * FD_STEP * rho)

    def sensitivities(self, lam: complex) -> dict:
        """d lam / d rho for every parameter."""
        return {(c, p): self.sensitivity(lam, c, p) for c, p, _ in self.net.params()}

    def component_shift(self, component: str, lam: complex) -> complex:
        """First-order shift of ``lam`` per unit relative scaling of one
        component admittance: -sum(sign * Res_ki) * y(lam)."""
        res = self.residue_at(lam)
        combo = sum(sign * res[k - 1, i - 1] for k, i, sign in self.net.incidence(component))
        return -combo * self.net.admittance(component, lam)


def eigenvalues(net: Net) -> np.ndarray:
    return np.linalg.eigvals(state_space(net)[0])


def reference(net: Net) -> Reference:
    a, b, c = state_space(net)
    lam, right = np.linalg.eig(a)
    left = np.linalg.inv(right)  # rows: left eigenvectors with l_i r_i = 1
    residues = np.einsum("ki,ij->ikj", c @ right, left @ b)
    return Reference(net, lam, residues, a, b, c)


def nearest(values: np.ndarray, target: complex) -> complex:
    return complex(values[int(np.argmin(np.abs(values - target)))])


def set_gap(found, truth) -> float:
    """Worst relative distance, in both directions, between two mode sets;
    infinite when their sizes differ."""
    found = np.asarray(found, dtype=complex)
    truth = np.asarray(truth, dtype=complex)
    if found.shape != truth.shape:
        return float("inf")
    if found.size == 0:
        return 0.0
    dist = np.abs(found[:, None] - truth[None, :]) / np.maximum(1.0, np.abs(truth))[None, :]
    return float(max(dist.min(axis=0).max(), dist.min(axis=1).max()))


def rel_gap(got, want) -> float:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))
