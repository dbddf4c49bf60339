"""The three workloads: their inputs, operations and checks.

Every round of a workload attempts the same operations: fixed inputs (the
shipped sample and the nets that carry a known fault) plus seeded nets whose
topologies are fixed and whose R, L, C values are drawn from the benchmark
seed and the round.  Operations run through netmodal's
public functions (``corpus``) or through ``netmodal.cli.main`` in-process
(``greybox``, ``fit``); each one is checked afterwards against ``oracle``.
"""

from __future__ import annotations

import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from netmodal import cli, modes, network
from netmodal.statespace import random_rlc_network

from oracle import Net, eigenvalues, nearest, reference, rel_gap, set_gap

SAMPLE = str(Path(__file__).resolve().parent.parent / "src" / "netmodal" / "data"
             / "three_node.net")
TOPOLOGY_SEED = 2024
MODE_TOL = 1e-6  # relative gap of a mode to the oracle eigenvalue
RESIDUE_TOL = 1e-6  # relative gap of a residue (or of a sensitivity) to the oracle
FIT_RESIDUE_TOL = 1e-5
SPECTRUM_TOL = 1e-9  # CSV values carry 12 significant digits


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    mode_gap: Optional[float] = None
    residue_gap: Optional[float] = None


@dataclass
class Op:
    label: str
    kept: bool  # the input carries a known fault of the program
    run: Callable[[], object]  # the timed part
    check: Callable[[object], Verdict]
    prepare: Optional[Callable[[], None]] = None  # untimed, before ``run``


# ---------------------------------------------------------------------------
# inputs


def from_model(model) -> Net:
    """Plain description of an all-RLC ``NetworkModel``."""
    return Net(
        n=len(model.nodes),
        shunts=tuple(
            (s.name, s.node, s.kind.resistance, s.kind.inductance, s.kind.capacitance)
            for s in model.shunts
        ),
        branches=tuple(
            (b.name, b.node_a, b.node_b, b.kind.resistance, b.kind.inductance)
            for b in model.branches
        ),
    )


def to_model(net: Net):
    return network.NetworkModel(
        [network.Node(k) for k in range(1, net.n + 1)],
        [network.Shunt(node, network.ShuntRLC(r, l, c), name)
         for name, node, r, l, c in net.shunts],
        [network.Branch(a, b, network.SeriesRL(r, l), name)
         for name, a, b, r, l in net.branches],
    )


def read_net_file(path) -> Net:
    """Minimal reader for the RLC subset of the ``.net`` format."""
    sections = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            sections.append((line.strip("[]"), {}))
        elif line:
            key, value = (part.strip() for part in line.split("=", 1))
            sections[-1][1][key] = value
    n = sum(1 for kind, _ in sections if kind == "node")
    shunts = tuple(
        (f["name"], int(f["node"]), float(f["r"]), float(f["l"]), float(f["c"]))
        for kind, f in sections if kind == "shunt"
    )
    branches = tuple(
        (f["name"], int(f["from"]), int(f["to"]), float(f["r"]), float(f["l"]))
        for kind, f in sections if kind == "branch"
    )
    return Net(n, shunts, branches)


def seeded_net(seed: int, round_index: int, n: int, k: int = 0, draw: int = 0) -> Net:
    """Net ``k`` of size ``n`` in a round.  Its topology is the same in
    every round and for every seed (that of random_rlc_network with
    default_rng([TOPOLOGY_SEED, n, k])); every R, L, C is redrawn from the
    seed, the round and ``draw``, log-uniformly in [0.1, 10] as that
    generator does."""
    shape = from_model(random_rlc_network(
        np.random.default_rng([TOPOLOGY_SEED, n, k]), n_nodes=n))
    rng = np.random.default_rng([seed, round_index, n, k, draw])
    current = np.array([v for _, _, v in shape.params()])
    return shape.scaled(10.0 ** rng.uniform(-1.0, 1.0, current.size) / current)


def fixed_net(rng_seed: int, n: int, index: int) -> Net:
    """Net ``index`` of the sequence random_rlc_network(default_rng(rng_seed), n)."""
    rng = np.random.default_rng(rng_seed)
    for _ in range(index):
        random_rlc_network(rng, n_nodes=n)
    return from_model(random_rlc_network(rng, n_nodes=n))


def jittered_sample(seed: int, round_index: int, k: int) -> Net:
    """The shipped sample with every parameter scaled by 10**U(-0.1, 0.1)."""
    base = read_net_file(SAMPLE)
    rng = np.random.default_rng([seed, round_index, 0, k])
    return base.scaled(10.0 ** rng.uniform(-0.1, 0.1, len(list(base.params()))))


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process ``netmodal`` command.
    An uncaught exception is returned as its text in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # the command must not crash; record how it did
            rc = f"uncaught {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def _cz(obj) -> complex:
    return complex(obj["re"], obj["im"])


# ---------------------------------------------------------------------------
# corpus: the identity route through the library


class Corpus:
    """build_ynodal -> det -> find_modes -> mode_artifacts -> build_zsys ->
    residue_by_limit on two seeded nets of each size 2..5 per round."""

    name = "corpus"
    python_bound = True  # times follow the host-speed probe (see probe.py)
    sizes = (2, 3, 4, 5)
    per_size = 2

    def __init__(self, seed: int, work: Path, quick: bool = False):
        self.seed = seed
        if quick:
            self.sizes, self.per_size = (2, 3), 1

    def round(self, r: int):
        return [self._op(seeded_net(self.seed, r, n, k), f"seeded-n{n}-{k}")
                for n in self.sizes for k in range(self.per_size)]

    def _op(self, net: Net, label: str) -> Op:
        model = to_model(net)

        def run():
            try:
                y = network.build_ynodal(model)
                det = y.det()
                found = modes.find_modes(y, det=det)
                arts = [
                    modes.mode_artifacts(y, m.eigenvalue, det=det)
                    for m in found
                    if m.oscillatory and m.eigenvalue.imag > 0 and not m.near_repeated
                ]
                zsys = network.build_zsys(model)
                limits = [modes.residue_by_limit(zsys, a.eigenvalue) for a in arts]
            except Exception as exc:  # a failed operation, not a failed benchmark
                return exc
            return found, arts, limits

        return Op(f"corpus:{label}", False, run, lambda out: check_corpus(net, out))


def check_corpus(net: Net, out) -> Verdict:
    if isinstance(out, Exception):
        return Verdict(False, f"raised {type(out).__name__}: {out}")
    found, arts, limits = out
    ref = reference(net)
    mode_gap = set_gap([m.eigenvalue for m in found], ref.eigenvalues)
    if not mode_gap <= MODE_TOL:
        return Verdict(False, f"modes off the oracle by {mode_gap:.2e}", mode_gap)
    expected = [z for z in ref.oscillatory()
                if not np.any((np.abs(ref.eigenvalues - z) < 1e-6 * max(1.0, abs(z)))
                               & (ref.eigenvalues != z))]
    if len(arts) != len(expected):
        return Verdict(False, f"{len(arts)} artifacts for {len(expected)} simple modes", mode_gap)
    residue_gap, limit_gap = 0.0, 0.0
    for art, limit in zip(arts, limits):
        want = ref.residue_at(art.eigenvalue)
        mode_gap = max(mode_gap, abs(art.eigenvalue - nearest(ref.eigenvalues, art.eigenvalue))
                       / max(1.0, abs(art.eigenvalue)))
        residue_gap = max(residue_gap, rel_gap(art.residue, want))
        limit_gap = max(limit_gap, rel_gap(limit, want))
    if not (mode_gap <= MODE_TOL and residue_gap <= RESIDUE_TOL and limit_gap <= RESIDUE_TOL):
        return Verdict(False, f"mode {mode_gap:.2e}, artifact residue {residue_gap:.2e}, "
                       f"limit residue {limit_gap:.2e}", mode_gap, residue_gap)
    return Verdict(True, mode_gap=mode_gap, residue_gap=residue_gap)


# ---------------------------------------------------------------------------
# greybox: the root-cause session through the CLI


# Nets of random_rlc_network(default_rng(106), n) on which det loses or
# duplicates modes; (n, index in that sequence) -> kept as known faults.
GREYBOX_KEPT = ((6, 17), (8, 0), (8, 3))
# Nets of the same sequence above five nodes that are solved correctly; they
# keep the Richardson adjugate path (dimension > 5) in the workload.
GREYBOX_FIXED = ((6, 0), (8, 1))
TUNE_PCTS = (1.0, 0.5, 0.2, 0.1)  # the first step at which tracking is clear is used
TRACK_MARGIN = 30.0


class Session:
    """Oracle answers for one net: the mode greybox reports on, the
    parameter tune changes and its step, and the sensitivities both are
    checked against.  ``usable`` is false when the net offers no such
    session: no oscillatory mode, a near-repeated target, or no step at
    which tune's nearest-mode tracking is clear of its refusal threshold."""

    def __init__(self, net: Net, path: str):
        self.net, self.path = net, path
        self.ref = reference(net)
        self.usable = False
        if not self.ref.oscillatory().size:
            return
        self.target = self.ref.least_damped()
        others = np.abs(self.ref.eigenvalues - self.target)
        if np.sort(others)[1] < 1e-5 * abs(self.target):
            return
        self.index = int(np.argmin(np.abs(self.ref.listing() - self.target)))
        self.sens = self.ref.sensitivities(self.target)
        self.rho = {(c, p): v for c, p, v in net.params()}
        self.normalized = {key: value * self.rho[key] for key, value in self.sens.items()}
        self.param = max(self.normalized, key=lambda key: abs(self.normalized[key]))
        # the guidance direction: move the mode to the left
        sign = -1.0 if self.normalized[self.param].real > 0 else 1.0
        for pct in TUNE_PCTS:
            if self._tracks(sign * pct):
                self.pct, self.usable = sign * pct, True
                return

    def _tracks(self, pct: float) -> bool:
        """True when, for every oscillatory mode, the re-solved mode nearest
        to it is TRACK_MARGIN times closer than the next one (``tune`` refuses
        below a ratio of 10)."""
        comp, param = self.param
        rho = self.rho[self.param]
        bumped = eigenvalues(self.net.with_param(comp, param, rho * (1.0 + pct / 100.0)))
        for lam in self.ref.oscillatory():
            d = np.sort(np.abs(bumped - lam))
            if d[1] <= TRACK_MARGIN * d[0]:
                return False
        return True


class Greybox:
    """``netmodal modes``, ``greybox`` and ``tune`` on the sample, seeded nets
    of 3-5 nodes, and fixed nets of 6 and 8 nodes."""

    name = "greybox"
    python_bound = True
    sizes = (3, 4, 5)

    def __init__(self, seed: int, work: Path, quick: bool = False):
        self.seed, self.work = seed, work
        self.sizes = (3,) if quick else self.sizes
        kept = GREYBOX_KEPT[:1] if quick else GREYBOX_KEPT
        fixed = () if quick else GREYBOX_FIXED
        self.fixed = [(Session(read_net_file(SAMPLE), SAMPLE), "sample", False)]
        for group, is_kept in ((fixed, False), (kept, True)):
            for n, index in group:
                label = f"rng106-n{n}-{index}"
                session = self._session(fixed_net(106, n, index), label)
                if not session.usable:
                    raise RuntimeError(f"{label} offers no greybox session")
                self.fixed.append((session, label, is_kept))

    def _session(self, net: Net, label: str) -> Session:
        path = self.work / f"{label}.net"
        path.write_text(net.text(label))
        return Session(net, str(path))

    def round(self, r: int):
        sessions = list(self.fixed)
        for n in self.sizes:
            label = f"seeded-n{n}"
            draw = 0  # redraw the values until the net offers a session
            while not (session := self._session(seeded_net(self.seed, r, n, draw=draw),
                                                label)).usable:
                draw += 1
            sessions.append((session, label, False))
        ops = []
        for s, label, kept in sessions:
            comp, param = s.param
            commands = (
                ("modes", ["modes", s.path], check_modes),
                ("greybox", ["greybox", s.path, "--mode", str(s.index)], check_greybox),
                ("tune", ["tune", s.path, "--param", f"{comp}.{param}", "--pct", str(s.pct)],
                 check_tune),
            )
            for command, argv, checker in commands:
                ops.append(Op(
                    f"greybox:{label}:{command}", kept,
                    lambda argv=argv: run_cli(argv),
                    lambda out, s=s, checker=checker: checker(s, out),
                ))
        return ops


def _json_output(out):
    rc, stdout, stderr = out
    if rc != 0:
        return None, Verdict(False, f"exit {rc}: {stderr.strip()[:200]}")
    return json.loads(stdout), None


def check_modes(s: Session, out) -> Verdict:
    doc, bad = _json_output(out)
    if bad:
        return bad
    found = [complex(m["re"], m["im"]) for m in doc["modes"]]
    gap = set_gap(found, s.ref.upper())
    return Verdict(gap <= MODE_TOL, f"listing off the oracle by {gap:.2e}", gap)


def check_greybox(s: Session, out) -> Verdict:
    doc, bad = _json_output(out)
    if bad:
        return bad
    lam = s.target
    mode_gap = abs(_cz(doc["mode"]) - lam) / max(1.0, abs(lam))
    if not mode_gap <= MODE_TOL:
        return Verdict(False, f"reported mode off by {mode_gap:.2e}", mode_gap)
    want = {name: s.ref.component_shift(name, lam)
            for name in [c[0] for c in s.net.shunts + s.net.branches]}
    scale = max(abs(v) for v in want.values())
    if sorted(e["component"] for e in doc["layer2"]) != sorted(want):
        return Verdict(False, "layer 2 does not list every component", mode_gap)
    residue_gap = max(abs(_cz(e) - want[e["component"]]) / scale for e in doc["layer2"])
    residue_gap = max(residue_gap, max(
        abs(e["value"] - abs(want[e["component"]])) / scale for e in doc["layer1"]))
    top = max(abs(v) for v in s.normalized.values())
    sens_gap = 0.0
    for p in doc["layer3"]:
        key = (p["component"], p["param"])
        sens_gap = max(sens_gap,
                       abs(_cz(p["sens"]) - s.sens[key]) * s.rho[key] / top,
                       abs(_cz(p["normalized"]) - s.normalized[key]) / top)
    listed = {(p["component"], p["param"]) for p in doc["layer3"]}
    if s.param not in listed:
        return Verdict(False, f"layer 3 misses the top parameter {s.param}", mode_gap, residue_gap)
    ok = residue_gap <= RESIDUE_TOL and sens_gap <= RESIDUE_TOL
    return Verdict(ok, f"layers 1-2 off by {residue_gap:.2e}, layer 3 by {sens_gap:.2e}",
                   mode_gap, residue_gap)


def check_tune(s: Session, out) -> Verdict:
    doc, bad = _json_output(out)
    if bad:
        return bad
    comp, param = s.param
    fraction = s.pct / 100.0
    rho = s.rho[s.param]
    bumped = eigenvalues(s.net.with_param(comp, param, rho * (1.0 + fraction)))
    expected = s.ref.oscillatory()
    found = [_cz(r["mode"]) for r in doc["results"]]
    mode_gap = set_gap(found, expected)
    if not mode_gap <= MODE_TOL:
        return Verdict(False, f"tuned modes off the oracle by {mode_gap:.2e}", mode_gap)
    worst = 0.0
    for result, lam in zip(doc["results"], found):
        lam = nearest(np.asarray(expected), lam)
        scale = abs(lam) * abs(fraction)
        actual = nearest(bumped, lam) - lam
        worst = max(worst, abs(_cz(result["actual"]) - actual) / scale)
        predicted = s.ref.sensitivity(lam, comp, param) * rho * fraction
        worst = max(worst, abs(_cz(result["predicted"]) - predicted) / scale)
    return Verdict(worst <= RESIDUE_TOL, f"predicted/actual off by {worst:.2e}", mode_gap)


# ---------------------------------------------------------------------------
# fit: the black-box route through the CLI


FMIN, FMAX = 0.01, 100.0  # rad/s; the nets are written with frequency_unit = rads
FIT_POINTS = 200
FIT_LARGE_POINTS = 400  # the 5x5 set: its joint least-squares matrix dominates memory
# Seeded random nets are left out: the relocation stalls on some of them, even
# at two nodes, so their failures would depend on the seed.
FIT_JITTERED = 6


class Fit:
    """``netmodal scan --entry all`` then ``netmodal fit`` at the true order."""

    name = "fit"
    # The 5x5 fit, most of a round, is dense LAPACK work whose time moves by
    # about 12 % while the probe's moves by 2x: its times are left as measured.
    python_bound = False

    def __init__(self, seed: int, work: Path, quick: bool = False):
        self.seed, self.work = seed, work
        self.quick = quick
        # (label, net, points, kept).  random_rlc_network(default_rng(3), n) has
        # real poles on which the relocation stalls: known faults.
        self.fixed = [("sample", read_net_file(SAMPLE), FIT_POINTS, False),
                      ("rng3-n3", fixed_net(3, 3, 0), FIT_POINTS, True)]
        if not quick:
            self.fixed.append(("rng3-n5", fixed_net(3, 5, 0), FIT_LARGE_POINTS, True))

    def round(self, r: int):
        inputs = list(self.fixed)
        inputs += [(f"jittered-sample-{k}", jittered_sample(self.seed, r, k), FIT_POINTS, False)
                   for k in range(1 if self.quick else FIT_JITTERED)]
        return [self._op(label, net, points, kept) for label, net, points, kept in inputs]

    def _op(self, label, net, points, kept) -> Op:
        path = self.work / f"{label}.net"
        path.write_text(net.text(label))
        out_dir = self.work / f"{label}-spectra"
        order = len(net.shunts) + len(net.branches) + net.n
        scan = ["scan", str(path), "--fmin", str(FMIN), "--fmax", str(FMAX),
                "--points", str(points), "--entry", "all", "--out-dir", str(out_dir)]
        fit = ["fit", str(out_dir), "--order", str(order), "--iters", "10"]

        def prepare():
            shutil.rmtree(out_dir, ignore_errors=True)

        def run():
            first = run_cli(scan)
            return first, run_cli(fit) if first[0] == 0 else None

        return Op(f"fit:{label}", kept, run,
                  lambda out: check_fit(net, out_dir, out), prepare)


def read_spectra(directory: Path, n: int):
    """(freq_hz, values[points, n, n]) from the CSV files, read here."""
    values, freq = [], None
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            rows = np.loadtxt(directory / f"Z_{k}_{i}.csv", delimiter=",", skiprows=1)
            freq = rows[:, 0]
            values.append(rows[:, 1] + 1j * rows[:, 2])
    return freq, np.array(values).T.reshape(len(freq), n, n)


def check_fit(net: Net, out_dir: Path, out) -> Verdict:
    scanned, fitted = out
    if scanned[0] != 0:
        return Verdict(False, f"scan exit {scanned[0]}: {scanned[2].strip()[:200]}")
    doc, bad = _json_output(fitted)
    if bad:
        return bad
    ref = reference(net)
    freq, spectra = read_spectra(out_dir, net.n)
    s = 2j * np.pi * freq
    truth = ref.impedance(s)
    peak = np.abs(truth).max(axis=0)
    scan_gap = float(np.max(np.abs(spectra - truth) / peak))
    if not scan_gap <= SPECTRUM_TOL:
        return Verdict(False, f"scan off the oracle impedance by {scan_gap:.2e}")
    poles = np.array([_cz(p) for p in doc["poles"]])
    mode_gap = set_gap(poles, ref.upper())
    model = np.zeros_like(truth)
    residue_gap = 0.0
    for j, (p, meta) in enumerate(zip(poles, doc["poles"])):
        res = np.zeros((net.n, net.n), dtype=complex)
        for key, entry in doc["entries"].items():
            k, i = (int(x) for x in key.split(","))
            res[k - 1, i - 1] = _cz(entry["residues"][j])
        model += res[None] / (s - p)[:, None, None]
        if meta["pair"]:
            model += np.conj(res)[None] / (s - np.conj(p))[:, None, None]
        residue_gap = max(residue_gap, rel_gap(res, ref.residue_at(p)))
    for key, entry in doc["entries"].items():
        k, i = (int(x) for x in key.split(","))
        model[:, k - 1, i - 1] += _cz(entry["direct"])
    model_gap = rel_gap(model, truth)
    ok = mode_gap <= MODE_TOL and residue_gap <= FIT_RESIDUE_TOL and model_gap <= MODE_TOL
    return Verdict(ok, f"poles {mode_gap:.2e}, residues {residue_gap:.2e}, "
                   f"model {model_gap:.2e}, reported misfit {doc['misfit']:.2e}",
                   mode_gap, residue_gap)


WORKLOADS = {w.name: w for w in (Corpus, Greybox, Fit)}
