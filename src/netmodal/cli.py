"""Command-line surface: modes, greybox, scan, fit, tune.

Exit codes: 0 success, 2 network-file parse error, 3 usage or selection
error, 4 numerical failure.  JSON output is deterministic: insertion-ordered
keys and floats rounded to 12 significant digits.  The ``GREYBOX_TOL``
environment variable overrides the default 1e-8 tolerance of the CLI's
internal consistency checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .greybox import component_factors, mode_report
from .modes import (
    OSCILLATORY_REL,
    RepeatedModeError,
    ResidueConvergenceError,
    det_newton_step,
    find_modes,
    mode_artifacts,
)
from .netfile import (
    NetworkFileError,
    parse_network_file,
    parse_spectrum_filename,
    read_spectrum_csv,
    spectrum_filename,
    write_spectrum_csv,
)
from .network import ModelDataError, build_ynodal
from .sensitivity import parameter_sensitivity_factor, predict_tuning, prediction_error
from .statespace import TrackingError, track_mode
from .vectorfit import FitSetupError, SpectrumSamples, fit as vf_fit

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_USAGE = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _tolerance() -> float:
    raw = os.environ.get("GREYBOX_TOL")
    if raw is None:
        return 1e-8
    try:
        return float(raw)
    except ValueError:
        raise UsageError(f"GREYBOX_TOL must be a number, got {raw!r}")


def _round12(x: float) -> float:
    if x == 0.0:
        return 0.0
    return float(f"{x:.12g}")


def _clean(obj):
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round12(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _round12(obj.real), "im": _round12(obj.imag)}
    return obj


def _emit(obj, stream=None) -> None:
    (stream or sys.stdout).write(json.dumps(_clean(obj), indent=2) + "\n")


def _complex_fields(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _load(path: str):
    doc = parse_network_file(path)
    ynodal = build_ynodal(doc.network)
    det = ynodal.det()
    modes = find_modes(ynodal, det=det)
    return doc, ynodal, det, modes


def _check_residuals(ynodal, modes, tol: float) -> None:
    """Every simple reported mode must sit on a matrix-determinant zero.

    The Newton step length |det Y / (det Y)'| of the evaluated matrix at the
    reported eigenvalue estimates its distance to the nearest true zero; a
    distance that is not finite (Y has an entry pole there) fails too.
    Near-repeated modes are skipped: their positions are inherently fuzzy
    and they are already flagged in the listing.
    """
    for m in modes:
        if m.near_repeated:
            continue
        lam = m.eigenvalue
        distance = abs(det_newton_step(ynodal, lam)) / (1.0 + abs(lam))
        if not distance <= tol:
            raise ArithmeticError(
                f"mode {lam:.6g} is {distance:.2e} away from a determinant "
                "zero; tolerance exceeded"
            )


def _collapsed(modes):
    """Conjugate pairs reduced to the upper-half-plane member."""
    out = []
    for m in modes:
        lam = m.eigenvalue
        if lam.imag < -OSCILLATORY_REL * (1.0 + abs(lam)):
            continue
        out.append(m)
    return out


def _mode_json(m, index: int) -> dict:
    return {
        "index": index,
        "re": m.eigenvalue.real,
        "im": m.eigenvalue.imag,
        "freq_hz": m.frequency_hz,
        "damping_ratio": m.damping_ratio,
        "pair": m.oscillatory,
        "near_repeated": m.near_repeated,
    }


def _select_mode(entries, selector: str, doc):
    """Resolve a ``--mode`` value: listing index or frequency (meta units)."""
    try:
        index = int(selector)
    except ValueError:
        index = None
    if index is not None:
        if not 0 <= index < len(entries):
            raise UsageError(
                f"mode index {index} out of range; candidates: "
                + ", ".join(str(k) for k in range(len(entries)))
            )
        return entries[index]
    try:
        freq = float(selector)
    except ValueError:
        raise UsageError(f"--mode must be an index or a frequency, got {selector!r}")
    omega = doc.omega_from_user(freq)
    osc = [m for m in entries if m.oscillatory]
    if not osc:
        raise UsageError("no oscillatory modes to select from")
    dists = sorted(
        ((abs(m.eigenvalue.imag - omega), m) for m in osc), key=lambda t: t[0]
    )
    if len(dists) > 1 and dists[1][0] <= dists[0][0] + 1e-6 * max(1.0, omega):
        cands = ", ".join(
            f"{m.eigenvalue.imag:.6g} rad/s" for _, m in dists[:2]
        )
        raise UsageError(f"ambiguous mode selector {selector!r}; candidates: {cands}")
    return dists[0][1]


# ---------------------------------------------------------------------------
# commands


def cmd_modes(args) -> int:
    doc, ynodal, det, modes = _load(args.network)
    _check_residuals(ynodal, modes, _tolerance())
    listing = [_mode_json(m, k) for k, m in enumerate(_collapsed(modes))]
    _emit({"network": doc.name, "frequency_unit": doc.frequency_unit, "modes": listing})
    return EXIT_OK


def cmd_greybox(args) -> int:
    doc, ynodal, det, modes = _load(args.network)
    _check_residuals(ynodal, modes, _tolerance())
    entries = _collapsed(modes)
    target = _select_mode(entries, args.mode, doc)
    if target.near_repeated:
        raise UsageError("selected mode is near-repeated; sensitivities unavailable")
    if not target.oscillatory:
        raise UsageError("selected mode is not oscillatory")
    fraction = args.fraction / 100.0
    report = mode_report(
        doc.network, ynodal, target, fraction=fraction,
        significance=args.significance / 100.0, det=det,
    )
    lam = report.mode.eigenvalue
    out = {
        "network": doc.name,
        "mode": {
            "index": entries.index(target),
            "re": lam.real,
            "im": lam.imag,
            "freq_hz": report.mode.frequency_hz,
        },
        "fraction": fraction,
        "layer1": [
            {"component": name, "value": value} for name, value in report.layer1
        ],
        "layer2": [
            {
                "component": name,
                "re": value.real,
                "im": value.imag,
                "share_re": share.real,
                "share_im": share.imag,
            }
            for name, value, share in report.layer2
        ],
        "layer3": [
            {
                "component": p.component,
                "param": p.param,
                "sens": _complex_fields(p.value),
                "normalized": _complex_fields(p.normalized),
                "predicted": _complex_fields(p.value * p.rho * fraction),
            }
            for p in report.layer3
        ],
        "guidance": [
            {
                "component": g.component,
                "param": g.param,
                "direction": g.direction,
                "rationale": g.rationale,
                "predicted": _complex_fields(g.predicted),
            }
            for g in report.guidance
        ],
    }
    _emit(out)
    return EXIT_OK


def _scan_grid(doc, args):
    if not (args.fmin > 0 and args.fmax > args.fmin):
        raise UsageError("need 0 < fmin < fmax")
    if args.points < 2:
        raise UsageError("need at least two scan points")
    w_lo = doc.omega_from_user(args.fmin)
    w_hi = doc.omega_from_user(args.fmax)
    return np.logspace(np.log10(w_lo), np.log10(w_hi), args.points)


def _peaks(freq_hz, mag):
    idx = [
        i
        for i in range(1, len(mag) - 1)
        if mag[i] > mag[i - 1] and mag[i] > mag[i + 1]
    ]
    idx.sort(key=lambda i: (-mag[i], i))
    return [
        {
            "freq_hz": freq_hz[i],
            "freq_rads": freq_hz[i] * 2.0 * np.pi,
            "magnitude": mag[i],
        }
        for i in idx
    ]


def cmd_scan(args) -> int:
    doc = parse_network_file(args.network)
    ynodal = build_ynodal(doc.network)
    omega = _scan_grid(doc, args)
    n = doc.network.size
    grid = ynodal.eval_grid(1j * omega)
    try:
        values = np.linalg.inv(grid)
    except np.linalg.LinAlgError:
        bad = omega[int(np.argmin(np.abs(np.linalg.det(grid))))]
        raise ArithmeticError(
            f"the nodal admittance matrix is singular at {bad:.6g} rad/s; "
            "the impedance is undefined there (a lossless mode or a zero "
            "admittance on the grid)"
        )
    freq_hz = omega / (2.0 * np.pi)

    if args.entry.strip().lower() == "all":
        if not args.out_dir:
            raise UsageError("--entry all requires --out-dir")
        entries = [(k, i) for k in range(1, n + 1) for i in range(1, n + 1)]
    else:
        try:
            k_s, i_s = args.entry.split(",")
            entries = [(int(k_s), int(i_s))]
        except ValueError:
            raise UsageError("--entry expects 'k,i' or 'all'")
        if not all(1 <= x <= n for x in entries[0]):
            raise UsageError(f"entry out of range 1..{n}")

    peak_report = {
        "network": doc.name,
        "points": args.points,
        "fmin_hz": float(freq_hz[0]),
        "fmax_hz": float(freq_hz[-1]),
        "entries": [],
    }
    for k, i in entries:
        data = values[:, k - 1, i - 1]
        peak_report["entries"].append(
            {"entry": [k, i], "peaks": _peaks(freq_hz, np.abs(data))}
        )
        if args.out_dir:
            out_dir = Path(args.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            with open(out_dir / spectrum_filename(k, i), "w") as handle:
                write_spectrum_csv(handle, freq_hz, data)
        elif args.plot_data:
            for f, v in zip(freq_hz, np.abs(data)):
                sys.stdout.write(f"{f:.12g} {v:.12g}\n")
        else:
            write_spectrum_csv(sys.stdout, freq_hz, data)
    _emit(peak_report, stream=sys.stdout if args.out_dir else sys.stderr)
    return EXIT_OK


def cmd_fit(args) -> int:
    directory = Path(args.spectra)
    if not directory.is_dir():
        raise UsageError(f"{directory} is not a directory")
    files = sorted(
        (parse_spectrum_filename(p.name), p)
        for p in directory.iterdir()
        if parse_spectrum_filename(p.name)
    )
    if not files:
        raise UsageError(f"no Z_<k>_<i>.csv files in {directory}")
    if args.order < 1:
        raise UsageError("--order must be at least 1")
    if args.iters < 1:
        raise UsageError("--iters must be at least 1")
    grid = None
    entries = {}
    for key, path in files:
        freq_hz, data = read_spectrum_csv(path)
        if grid is None:
            grid = freq_hz
        elif freq_hz.shape != grid.shape or np.any(freq_hz != grid):
            raise UsageError(f"{path.name}: grid differs from the other files")
        entries[key] = data
    try:
        samples = SpectrumSamples(2.0 * np.pi * grid, entries)
        model = vf_fit(samples, order=args.order, iterations=args.iters)
    except FitSetupError as exc:
        raise UsageError(str(exc))

    keep = [
        k
        for k, p in enumerate(model.poles)
        if p.imag >= -1e-12 * (1.0 + abs(p))
    ]
    out = {
        "order": args.order,
        "iterations": args.iters,
        "misfit": model.misfit,
        "poles": [
            {
                "index": j,
                "re": model.poles[k].real,
                "im": model.poles[k].imag,
                "freq_hz": abs(model.poles[k].imag) / (2.0 * np.pi),
                "pair": abs(model.poles[k].imag) > 1e-12 * (1.0 + abs(model.poles[k])),
                "unstable": bool(model.unstable[k]),
            }
            for j, k in enumerate(keep)
        ],
        "entries": {
            f"{k},{i}": {
                "direct": _complex_fields(model.direct[(k, i)]),
                "residues": [
                    _complex_fields(model.residues[(k, i)][j]) for j in keep
                ],
            }
            for k, i in sorted(model.residues)
        },
    }
    _emit(out)
    return EXIT_OK


def cmd_tune(args) -> int:
    doc, ynodal, det, modes = _load(args.network)
    _check_residuals(ynodal, modes, _tolerance())
    if "." not in args.param:
        raise UsageError("--param expects <component>.<parameter>")
    comp_name, param = args.param.rsplit(".", 1)
    try:
        comp = doc.network.component(comp_name)
    except KeyError as exc:
        raise UsageError(str(exc))
    if param not in comp.kind.params:
        raise UsageError(
            f"unknown parameter {param!r} for component {comp_name!r}; "
            f"have: {', '.join(comp.kind.params) or 'none'}"
        )
    if comp.kind.params[param] == 0.0:
        raise UsageError(
            f"parameter {args.param} is zero; a percentage change of it is undefined"
        )
    if not -50.0 < args.pct < 50.0 or args.pct == 0.0:
        raise UsageError("--pct must be a nonzero percentage below 50")
    entries = _collapsed(modes)
    if args.mode is not None:
        targets = [_select_mode(entries, args.mode, doc)]
    else:
        targets = [m for m in entries if m.oscillatory and not m.near_repeated]
    if not targets:
        raise UsageError("no oscillatory modes to tune")

    rho = comp.kind.params[param]
    fraction = args.pct / 100.0
    bumped = doc.network.with_param(comp_name, param, rho * (1.0 + fraction))
    bumped_modes = find_modes(build_ynodal(bumped))

    results = []
    for target in targets:
        art = mode_artifacts(ynodal, target.eigenvalue, det=det)
        factors = {f.component: f for f in component_factors(doc.network, art)}
        dy = comp.kind.param_derivative(param, art.eigenvalue)
        ps = parameter_sensitivity_factor(factors[comp_name], param, dy, rho)
        predicted = predict_tuning(ps, fraction)
        moved = track_mode(bumped_modes, art.eigenvalue)
        actual = moved - art.eigenvalue
        error = prediction_error(predicted, actual)
        dead = abs(predicted.real) <= 1e-6 * abs(predicted)
        results.append(
            {
                "mode": {
                    "index": entries.index(target),
                    "re": target.eigenvalue.real,
                    "im": target.eigenvalue.imag,
                    "freq_hz": target.frequency_hz,
                },
                "predicted": _complex_fields(predicted),
                "actual": _complex_fields(actual),
                "error": error,
                "direction_correct": bool(
                    dead or predicted.real * actual.real >= 0.0
                ),
            }
        )
    _emit(
        {
            "network": doc.name,
            "parameter": args.param,
            "pct": args.pct,
            "results": results,
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="netmodal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modes", help="list oscillatory and real modes")
    p.add_argument("network", help="network description file")
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("greybox", help="layered sensitivity report for one mode")
    p.add_argument("network")
    p.add_argument("--mode", required=True, help="mode index or frequency")
    p.add_argument("--fraction", type=float, default=5.0,
                   help="tuning fraction in percent (default 5)")
    p.add_argument("--significance", type=float, default=5.0,
                   help="layer-3 listing cutoff in percent of the top value")
    p.set_defaults(func=cmd_greybox)

    p = sub.add_parser("scan", help="frequency scan of an impedance entry")
    p.add_argument("network")
    p.add_argument("--fmin", type=float, required=True,
                   help="lowest frequency (in the file's declared unit)")
    p.add_argument("--fmax", type=float, required=True,
                   help="highest frequency (in the file's declared unit)")
    p.add_argument("--points", type=int, required=True,
                   help="log-spaced grid size")
    p.add_argument("--entry", required=True, help="'k,i' (1-based) or 'all'")
    p.add_argument("--out-dir", help="write Z_<k>_<i>.csv files here")
    p.add_argument("--plot-data", action="store_true",
                   help="two-column freq/magnitude output instead of CSV")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("fit", help="pole-residue identification from spectra")
    p.add_argument("spectra", help="directory of Z_<k>_<i>.csv files")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--iters", type=int, default=10)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("tune", help="predict and verify a parameter change")
    p.add_argument("network")
    p.add_argument("--param", required=True, help="<component>.<parameter>")
    p.add_argument("--pct", type=float, required=True,
                   help="parameter change in percent")
    p.add_argument("--mode", help="mode index or frequency (default: all)")
    p.set_defaults(func=cmd_tune)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (NetworkFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UsageError, ModelDataError, FitSetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrackingError, RepeatedModeError, ResidueConvergenceError,
            ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
