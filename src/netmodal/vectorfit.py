"""Pole-residue identification from sampled frequency responses.

Implements iterative pole-relocation fitting: a shared scaling function with
trial poles is fitted against every sampled matrix entry at once, its zeros
become the relocated poles, and residues follow from a final linear solve.
This is the measurement-based route to mode sensitivities when no rational
model is available: the identified residues of the whole-system impedance
directly carry the eigenvalue sensitivities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np


class FitSetupError(ValueError):
    """The sample grid cannot support the requested fit."""


class MeasurementError(ValueError):
    """Required spectra entries are missing."""


EntryKey = Tuple[int, int]


@dataclass(frozen=True)
class SpectrumSamples:
    """Sampled frequency responses of impedance-matrix entries.

    All entries share one strictly ascending grid (rad/s) with at least two
    points per decade over the fitted band.
    """

    omega: np.ndarray
    entries: Dict[EntryKey, np.ndarray]

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        object.__setattr__(self, "omega", omega)
        if omega.ndim != 1 or omega.size < 2:
            raise FitSetupError("need a 1-D grid with at least two frequencies")
        if np.any(np.diff(omega) <= 0):
            raise FitSetupError("frequencies must be strictly ascending")
        if np.any(omega <= 0):
            raise FitSetupError("frequencies must be positive")
        decades = np.log10(omega[-1] / omega[0])
        if decades > 0 and (omega.size - 1) / decades < 2.0:
            raise FitSetupError("fewer than two samples per decade")
        if not self.entries:
            raise FitSetupError("no spectrum entries supplied")
        clean = {}
        for key, values in self.entries.items():
            values = np.asarray(values, dtype=complex)
            if values.shape != omega.shape:
                raise FitSetupError(f"entry {key} does not match the grid")
            clean[tuple(key)] = values
        object.__setattr__(self, "entries", clean)

    @property
    def keys(self):
        return sorted(self.entries)


@dataclass(frozen=True)
class PoleResidueModel:
    """Identified poles with per-entry residues and constant terms."""

    poles: np.ndarray
    residues: Dict[EntryKey, np.ndarray]
    direct: Dict[EntryKey, complex]
    misfit: float
    unstable: np.ndarray

    @property
    def order(self) -> int:
        return self.poles.size

    def evaluate(self, key: EntryKey, s) -> np.ndarray:
        s = np.asarray(s, dtype=complex)
        res = self.residues[tuple(key)]
        out = np.full(s.shape, self.direct[tuple(key)], dtype=complex)
        for pole, r in zip(self.poles, res):
            out += r / (s - pole)
        return out


def initial_poles(omega: np.ndarray, order: int) -> np.ndarray:
    """Starting poles: conjugate pairs log-spaced over the band, lightly
    damped (real part -omega/100); an odd order adds one real pole."""
    n_pairs, extra = divmod(order, 2)
    lo, hi = np.log10(omega[0]), np.log10(omega[-1])
    poles = []
    if n_pairs:
        centers = np.logspace(lo, hi, n_pairs + 2)[1:-1] if n_pairs > 1 else [
            10.0 ** (0.5 * (lo + hi))
        ]
        for w in centers:
            poles.extend([-w / 100.0 + 1j * w, -w / 100.0 - 1j * w])
    if extra:
        poles.append(-(10.0 ** (0.5 * (lo + hi))))
    return np.asarray(poles, dtype=complex)


def _conjugate_index(poles: np.ndarray) -> np.ndarray:
    """0 for real poles, 1/2 for the first/second member of a pair."""
    cindex = np.zeros(poles.size, dtype=int)
    i = 0
    while i < poles.size:
        if abs(poles[i].imag) > 1e-14 * (1.0 + abs(poles[i])):
            if i + 1 >= poles.size or abs(poles[i + 1] - np.conj(poles[i])) > 1e-6 * (
                1.0 + abs(poles[i])
            ):
                raise FitSetupError("complex poles must come in conjugate pairs")
            cindex[i], cindex[i + 1] = 1, 2
            i += 2
        else:
            i += 1
    return cindex


def _basis(s: np.ndarray, poles: np.ndarray, cindex: np.ndarray) -> np.ndarray:
    """Real-coefficient partial-fraction basis columns."""
    cols = np.empty((s.size, poles.size), dtype=complex)
    for i, p in enumerate(poles):
        if cindex[i] == 0:
            cols[:, i] = 1.0 / (s - p)
        elif cindex[i] == 1:
            cols[:, i] = 1.0 / (s - p) + 1.0 / (s - np.conj(p))
        else:
            cols[:, i] = 1j / (s - np.conj(p)) - 1j / (s - p)
    return cols


def _unpack_pairs(x: np.ndarray, cindex: np.ndarray) -> np.ndarray:
    out = x.astype(complex)
    for i, ci in enumerate(cindex):
        if ci == 1:
            r1, r2 = x[i], x[i + 1]
            out[i] = r1 + 1j * r2
            out[i + 1] = r1 - 1j * r2
    return out


def _sigma_residues(samples: SpectrumSamples, poles: np.ndarray, cindex: np.ndarray,
                    weights: Dict[EntryKey, np.ndarray]):
    """Residues of the scaling function in one relocation step, and the rank
    of the joint least-squares matrix they solve.

    The joint matrix has ``2·S·E`` real rows (S samples, E entries) and
    ``(n+1)·E + n`` columns: each entry's own residues and constant, then the
    n shared scaling residues.  An entry's rows touch only its own columns
    and the shared ones, so each entry's ``2S × (2n+1)`` block, with its
    right-hand side, is reduced to its R factor, and the stacked R rows are
    solved instead.  The joint matrix is block-diag(Q_e) times that stack,
    so both have the same singular values: with the joint matrix's cutoff
    kept, the rank and the truncated minimum-norm solution are the same up
    to rounding.
    """
    s = 1j * samples.omega
    n = poles.size
    keys = samples.keys
    n_entries = len(keys)
    rows = 2 * s.size * n_entries
    cols = (n + 1) * n_entries + n
    if rows < cols:
        raise FitSetupError("insufficient samples for order")
    basis = _basis(s, poles, cindex)
    reduced = []  # per entry: R rows over the joint columns, then the RHS
    for e, key in enumerate(keys):
        f = samples.entries[key][:, None]
        block = np.hstack([basis, np.ones_like(f), -basis * f, f]) * weights[key][:, None]
        r = np.linalg.qr(np.vstack([block.real, block.imag]), mode="r")
        entry_rows = np.zeros((r.shape[0], cols + 1))
        entry_rows[:, e * (n + 1) : (e + 1) * (n + 1)] = r[:, : n + 1]
        entry_rows[:, n_entries * (n + 1) :] = r[:, n + 1 :]
        reduced.append(entry_rows)
    reduced = np.vstack(reduced)
    # rank deficiency is benign here (the minimum-norm solution still
    # relocates); an unsupportable order is caught by the row/column check
    # above and by the final residue solve
    solution, _, rank, _ = np.linalg.lstsq(
        reduced[:, :-1], reduced[:, -1], rcond=np.finfo(float).eps * max(rows, cols))
    return solution[n_entries * (n + 1) :], rank


def _relocate(samples: SpectrumSamples, poles: np.ndarray,
              weights: Dict[EntryKey, np.ndarray], flip: bool) -> np.ndarray:
    """One pole-relocation step shared across all entries: the zeros of the
    scaling function fitted by ``_sigma_residues`` become the new poles."""
    cindex = _conjugate_index(poles)
    n = poles.size
    sigma_res, _ = _sigma_residues(samples, poles, cindex, weights)

    # zeros of the scaling function, via the real block-diagonal form
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
    return _sort_pole_pairs(new_poles)


def _sort_pole_pairs(poles: np.ndarray) -> np.ndarray:
    """Order poles with conjugate pairs adjacent (Im > 0 first)."""
    reals = sorted([p.real + 0j for p in poles if abs(p.imag) <= 1e-12 * (1 + abs(p))],
                   key=lambda p: p.real)
    upper = sorted([p for p in poles if p.imag > 1e-12 * (1 + abs(p))],
                   key=lambda p: (abs(p.imag), p.real))
    out = []
    for p in upper:
        out.extend([p, np.conj(p)])
    out.extend(reals)
    return np.asarray(out, dtype=complex)


def _final_residues(samples: SpectrumSamples, poles: np.ndarray,
                    weights: Dict[EntryKey, np.ndarray]):
    s = 1j * samples.omega
    cindex = _conjugate_index(poles)
    n = poles.size
    basis = _basis(s, poles, cindex)
    residues, direct = {}, {}
    for key in samples.keys:
        f = samples.entries[key]
        w = weights[key]
        block = np.hstack([basis, np.ones((s.size, 1))]) * w[:, None]
        a = np.vstack([block.real, block.imag])
        b = np.concatenate([(w * f).real, (w * f).imag])
        if a.shape[0] < n + 1:
            raise FitSetupError("insufficient samples for order")
        solution, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        if rank < n + 1:
            misfit = np.linalg.norm(a @ solution - b) / max(np.linalg.norm(b), 1e-300)
            if misfit > 1e-6:
                raise FitSetupError("insufficient samples for order")
        residues[key] = _unpack_pairs(solution[:n], cindex)
        direct[key] = complex(solution[n])
    return residues, direct


def fit(samples: SpectrumSamples, order: int, iterations: int = 10) -> PoleResidueModel:
    """Identify a pole-residue model shared across all sampled entries.

    Poles are relocated ``iterations`` times (unstable trial poles are
    reflected into the left half-plane except on the last pass, so a
    genuinely unstable fit surfaces in the ``unstable`` flags), then residues
    and constant terms come from one weighted least squares per entry.  Each
    relocation solves the joint problem of all entries through per-entry QR
    reductions (``_sigma_residues``): no dense joint matrix is formed; each
    entry's ``2·samples × (2n+2)`` block is reduced in turn, and at most
    ``(2n+2)·entries`` rows are solved.
    The scaling function is normalised to 1 at infinity, not relaxed, and
    the relocation can stall on spectra with real poles.
    """
    if order < 1:
        raise FitSetupError("order must be at least 1")
    if iterations < 1:
        raise FitSetupError("need at least one relocation iteration")
    weights = {}
    for key in samples.keys:
        mag = np.abs(samples.entries[key])
        floor = 1e-12 * float(mag.max()) if mag.max() > 0 else 1.0
        weights[key] = 1.0 / np.maximum(mag, floor)
    poles = initial_poles(samples.omega, order)
    for it in range(iterations):
        poles = _relocate(samples, poles, weights, flip=it < iterations - 1)
    residues, direct = _final_residues(samples, poles, weights)

    total, count = 0.0, 0
    model = PoleResidueModel(
        poles=poles,
        residues=residues,
        direct=direct,
        misfit=0.0,
        unstable=poles.real > 0,
    )
    for key in samples.keys:
        f = samples.entries[key]
        err = model.evaluate(key, 1j * samples.omega) - f
        scale = float(np.sqrt(np.mean(np.abs(f) ** 2)))
        total += float(np.mean(np.abs(err) ** 2)) / max(scale**2, 1e-300)
        count += 1
    object.__setattr__(model, "misfit", float(np.sqrt(total / count)))
    return model


@dataclass(frozen=True)
class FitSensitivities:
    """Mode-sensitivity entries recovered from fitted impedance residues."""

    pole: complex
    entries: Dict[EntryKey, complex]

    def shunt_factor(self, node: int) -> complex:
        """Admittance sensitivity factor of a shunt at ``node``."""
        key = (node, node)
        if key not in self.entries:
            raise MeasurementError(f"spectra required for entries: {key}")
        return complex(np.conj(self.entries[key]))

    def branch_factor(self, node_a: int, node_b: int) -> complex:
        """Admittance sensitivity factor of a branch between two nodes."""
        needed = [(node_a, node_a), (node_b, node_b), (node_a, node_b), (node_b, node_a)]
        missing = [k for k in needed if k not in self.entries]
        if missing:
            raise MeasurementError(f"spectra required for entries: {missing}")
        combined = (
            self.entries[(node_a, node_a)]
            + self.entries[(node_b, node_b)]
            - self.entries[(node_a, node_b)]
            - self.entries[(node_b, node_a)]
        )
        return complex(np.conj(combined))


def sensitivities_from_fit(model: PoleResidueModel, pole_index: int) -> FitSensitivities:
    """Mode sensitivities at one fitted pole: minus the residue entries.

    Only the measured entries are available; factor helpers raise a
    MeasurementError naming whichever entries are still required.
    """
    if not 0 <= pole_index < model.order:
        raise IndexError("pole index out of range")
    entries = {
        key: complex(-model.residues[key][pole_index]) for key in sorted(model.residues)
    }
    return FitSensitivities(complex(model.poles[pole_index]), entries)
