"""Mode extraction from nodal admittance models.

A mode is a zero of the determinant of the nodal admittance matrix.  For
each simple mode this module also computes the per-mode artifacts that the
sensitivity machinery consumes: the determinant slope, the adjugate of the
admittance matrix at the mode, its left/right null vectors, the scalar that
ties admittance-eigenvalue sensitivity to mode sensitivity, and the residue
matrix of the whole-system impedance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .network import PointwiseModel
from .rational import RationalFunction, RationalMatrix

OSCILLATORY_REL = 1e-8
NEAR_REPEATED_REL = 1e-6
NULLSPACE_RATIO = 1e-6
NORMALIZATION_FLOOR = 1e-10


class RepeatedModeError(RuntimeError):
    """Raised when artifacts are requested for a (near-)repeated mode."""


class NormalizationError(RuntimeError):
    """Left/right null vectors are numerically orthogonal (defective case)."""


class ResidueConvergenceError(RuntimeError):
    """The shrinking-radius residue limit failed to settle."""


class SingularDeterminantError(ArithmeticError):
    """The admittance determinant is identically zero: Y(s) is singular at
    every s, so there are no isolated modes to list."""


@dataclass
class Mode:
    """One determinant zero together with its optional artifacts."""

    eigenvalue: complex
    oscillatory: bool
    near_repeated: bool = False
    det_slope: Optional[complex] = None
    adjugate: Optional[np.ndarray] = None
    right_null: Optional[np.ndarray] = None
    left_null: Optional[np.ndarray] = None
    sensitivity_scale: Optional[complex] = None
    residue: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def frequency_hz(self) -> float:
        return abs(self.eigenvalue.imag) / (2.0 * np.pi)

    @property
    def damping_ratio(self) -> float:
        mag = abs(self.eigenvalue)
        return -self.eigenvalue.real / mag if mag > 0 else 0.0

    @property
    def populated(self) -> bool:
        return self.residue is not None

    def conjugate(self) -> "Mode":
        """Artifacts of the conjugate mode, by symmetry of real networks."""
        conj = lambda x: None if x is None else np.conj(x)
        return Mode(
            eigenvalue=np.conj(self.eigenvalue),
            oscillatory=self.oscillatory,
            near_repeated=self.near_repeated,
            det_slope=None if self.det_slope is None else np.conj(self.det_slope),
            adjugate=conj(self.adjugate),
            right_null=conj(self.right_null),
            left_null=conj(self.left_null),
            sensitivity_scale=None
            if self.sensitivity_scale is None
            else np.conj(self.sensitivity_scale),
            residue=conj(self.residue),
        )


def _symmetrize_conjugates(roots: np.ndarray) -> np.ndarray:
    """Pair complex roots of a real polynomial into exact conjugate pairs."""
    out = roots.copy()
    used = np.zeros(len(roots), dtype=bool)
    for i, r in enumerate(roots):
        if used[i] or abs(r.imag) <= OSCILLATORY_REL * (1.0 + abs(r)):
            continue
        best, best_d = -1, np.inf
        for j in range(i + 1, len(roots)):
            if used[j]:
                continue
            d = abs(np.conj(r) - roots[j])
            if d < best_d:
                best, best_d = j, d
        if best >= 0 and best_d <= 1e-6 * (1.0 + abs(r)):
            avg = 0.5 * (r + np.conj(roots[best]))
            out[i] = avg
            out[best] = np.conj(avg)
            used[i] = used[best] = True
    return out


def find_modes(ynodal: RationalMatrix, det: Optional[RationalFunction] = None) -> list:
    """All zeros of the normalized determinant, sorted by |Im| descending.

    Modes closer than ``NEAR_REPEATED_REL`` (relatively) to another mode are
    flagged ``near_repeated``; the sensitivity theory downstream assumes
    simple modes and refuses them.  Raises :class:`SingularDeterminantError`
    when the determinant is identically zero.
    """
    det_rf = det if det is not None else ynodal.det()
    if det_rf.is_zero:
        raise SingularDeterminantError(
            "admittance determinant is identically zero; the network has no isolated modes"
        )
    if det_rf.num.degree == 0:
        return []
    roots = det_rf.num.roots()
    if det_rf.num.is_real:
        roots = _symmetrize_conjugates(roots)
    order = sorted(
        range(len(roots)),
        key=lambda k: (-abs(roots[k].imag), roots[k].real, roots[k].imag),
    )
    roots = roots[order]
    modes = []
    for i, lam in enumerate(roots):
        near = any(
            abs(lam - roots[j]) < NEAR_REPEATED_REL * max(1.0, abs(lam))
            for j in range(len(roots))
            if j != i
        )
        modes.append(
            Mode(
                eigenvalue=complex(lam),
                oscillatory=abs(lam.imag) > OSCILLATORY_REL * (1.0 + abs(lam)),
                near_repeated=near,
            )
        )
    return modes


def _adjugate_numeric(matrix: np.ndarray) -> np.ndarray:
    """Adjugate of a (possibly singular) complex matrix via cofactors.

    The n² minors are gathered into one ``(n, n, n-1, n-1)`` stack, ordered
    so that entry ``[j, i]`` drops row i and column j, and take one stacked
    determinant; each equals the determinant of that minor taken alone.
    """
    n = matrix.shape[0]
    if n == 1:
        return np.array([[1.0 + 0j]])
    idx = np.arange(n)
    others = np.array([idx[idx != k] for k in range(n)])
    minors = matrix[others[None, :, :, None], others[:, None, None, :]]
    signs = (-1) ** (idx[:, None] + idx[None, :])
    return signs * np.linalg.det(minors)


def det_newton_steps(values: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Newton steps det Y / (det Y)' from stacked ``(k, n, n)`` values of Y
    and Y', one step per matrix.

    By Jacobi's formula (det Y)' = det Y * tr(Y^-1 Y'), so each step is
    1 / tr(Y^-1 Y') and needs neither the expanded determinant nor a
    difference quotient.  All matrices are solved in one stacked call.  A
    step is zero where its Y is exactly singular (LU then fails for the
    whole stack, which is retried one matrix at a time) and infinite where
    its trace vanishes; at an entry pole it is not finite, and callers
    treat that as a failed step, so the division warnings are muted.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            traces = np.trace(np.linalg.solve(values, slopes), axis1=1, axis2=2)
        except np.linalg.LinAlgError:
            if len(values) == 1:
                return np.zeros(1, dtype=complex)
            return np.concatenate([det_newton_steps(values[k:k + 1], slopes[k:k + 1])
                                   for k in range(len(values))])
        return np.where(traces != 0, 1.0 / traces, complex(np.inf))


def det_newton_step(ynodal: RationalMatrix, lam: complex) -> complex:
    """Newton step det Y / (det Y)' at ``lam``: :func:`det_newton_steps` of
    the pointwise Y(lam) and Y'(lam)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        values, slopes = ynodal(lam), ynodal.derivative_at(lam)
    return complex(det_newton_steps(values[None], slopes[None])[0])


def _refine_eigenvalue(ynodal: RationalMatrix, lam: complex, steps: int = 3) -> complex:
    """Newton-polish a mode against the pointwise matrix determinant.

    Working on the evaluated matrix avoids the coefficient round-off of the
    expanded determinant polynomial, which matters when modes cluster.  A
    step is kept only while it shrinks |det Y|.
    """
    value = abs(np.linalg.det(ynodal(lam)))
    for _ in range(steps):
        step = det_newton_step(ynodal, lam)
        if step == 0 or not np.isfinite(step):
            break
        trial = lam - step
        trial_value = abs(np.linalg.det(ynodal(trial)))
        if not trial_value < value:
            break
        lam, value = trial, trial_value
    return lam


def mode_artifacts(ynodal: RationalMatrix, lam: complex,
                   det: Optional[RationalFunction] = None) -> Mode:
    """Fully populated mode at a known simple determinant zero.

    Every quantity comes from Y(lam) and Y'(lam), at any matrix size: the
    mode is Newton-polished on the evaluated matrix, the adjugate is taken
    by cofactors of Y(lam), and the determinant slope is Jacobi's
    tr(adj Y(lam) Y'(lam)).  ``det`` is accepted for compatibility and
    ignored; the expanded determinant is never consulted.

    Null vectors come from the SVD of the admittance matrix at the mode
    (right/left singular vectors of the smallest singular value; the left
    one transposed, not conjugated, so that left.T @ right can be scaled to
    one).  The right vector's largest entry is rotated to the positive real
    axis so reports are reproducible.
    """
    lam = _refine_eigenvalue(ynodal, complex(lam))
    y_at = ynodal(lam)
    n = y_at.shape[0]

    svd_u, sigma, svd_vh = np.linalg.svd(y_at)
    if n > 1:
        if sigma[-1] > NULLSPACE_RATIO * sigma[0]:
            raise RepeatedModeError(
                f"matrix is not singular at {lam:.6g}; not a mode?"
            )
        if sigma[-1] >= NULLSPACE_RATIO * sigma[-2]:
            raise RepeatedModeError(
                f"repeated or near-repeated mode at {lam:.6g}"
            )
    right = svd_vh[-1].conj()
    left = svd_u[:, -1].conj()

    pivot = int(np.argmax(np.abs(right)))
    phase = right[pivot] / abs(right[pivot])
    right = right / phase
    pairing = left @ right
    if abs(pairing) < NORMALIZATION_FLOOR:
        raise NormalizationError(f"defective normalization at {lam:.6g}")
    left = left / pairing

    adj = _adjugate_numeric(y_at)
    slope = np.trace(adj @ ynodal.derivative_at(lam))
    trace = np.trace(adj)
    scale = -trace / slope
    residue = adj / slope

    rank1 = trace * np.outer(right, left)
    mismatch = np.linalg.norm(adj - rank1) / max(np.linalg.norm(adj), 1e-300)
    if mismatch > 1e-6:
        raise RepeatedModeError(
            f"adjugate at {lam:.6g} is not numerically rank one"
        )

    return Mode(
        eigenvalue=complex(lam),
        oscillatory=abs(lam.imag) > OSCILLATORY_REL * (1.0 + abs(lam)),
        det_slope=complex(slope),
        adjugate=adj,
        right_null=right,
        left_null=left,
        sensitivity_scale=complex(scale),
        residue=residue,
    )


# Ring size, agreement tolerance between consecutive radii, the first radius
# (relative to 1 + |lam|) and the number of radii of residue_by_limit.
LIMIT_POINTS = 64
LIMIT_AGREE_REL = 1e-8
LIMIT_START_RADIUS = 1e-2
LIMIT_RADII = 6
# A ring whose second moment mean((s - lam)^2 Z) exceeds this times
# r * |mean((s - lam) Z)| encloses another pole, and its mean is not used.
LIMIT_MOMENT_REL = 1e-6


def residue_by_limit(zsys: Union[PointwiseModel, RationalMatrix], lam: complex) -> np.ndarray:
    """Residue matrix of the impedance model at a simple pole.

    ``zsys`` is read only through ``eval_grid``: the pointwise model of
    ``network.build_zsys`` or any rational matrix.  Averages
    ``(s - lam) * Z(s)`` around circles of shrinking radius; for a simple
    pole the circle mean converges to the residue.  Radii span six decades;
    two consecutive radii must agree before a value is accepted, and the
    larger radius of the agreeing pair wins (Y(s) is nearly singular on a
    ring close to the pole, so its pointwise inverse loses digits as the
    ring shrinks).  A ring that encloses another pole p would give the sum
    of both residues, so a ring is used only while its second moment, the
    sum of (p - lam) times the residue at p over the enclosed poles, is
    negligible.
    """
    radius = LIMIT_START_RADIUS * (1.0 + abs(lam))
    theta = 2.0 * np.pi * np.arange(LIMIT_POINTS) / LIMIT_POINTS
    ring = np.exp(1j * theta)
    previous = None
    for k in range(LIMIT_RADII):
        r = radius * 10.0 ** (-k)
        offsets = (r * ring)[:, None, None]
        weighted = offsets * zsys.eval_grid(lam + r * ring)
        mean = np.mean(weighted, axis=0)
        scale = max(float(np.linalg.norm(mean)), 1e-300)
        moment = np.linalg.norm(np.mean(offsets * weighted, axis=0))
        if not moment < LIMIT_MOMENT_REL * r * scale:
            previous = None
            continue
        if previous is not None:
            if np.linalg.norm(mean - previous) <= LIMIT_AGREE_REL * scale:
                return previous
        previous = mean
    raise ResidueConvergenceError(
        f"pole order mismatch: residue limit did not converge at {lam:.6g}"
    )


def gamma_shift(ynodal: RationalMatrix, lam0: complex,
                perturbed: RationalMatrix) -> complex:
    """Drift of the zero admittance-eigenvalue under a model perturbation.

    Evaluates the perturbed matrix at the unperturbed mode and returns its
    eigenvalue nearest zero.  For small parameter bumps this drift is
    proportional to the mode displacement.
    """
    eigs = np.linalg.eigvals(perturbed(lam0))
    return complex(eigs[int(np.argmin(np.abs(eigs)))])
