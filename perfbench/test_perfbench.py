"""The benchmark's own tests: a quick run of every workload end to end, and
checkers that reject deliberately wrong answers.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from oracle import reference, state_space
from workloads import (
    Corpus,
    Fit,
    SAMPLE,
    Session,
    check_greybox,
    check_modes,
    check_tune,
    read_net_file,
    run_cli,
    seeded_net,
    to_model,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# failed operations per quick round: the known faults kept in each workload
QUICK_KEPT = {"corpus": 0, "greybox": 3, "fit": 1}


def _run(*extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0",
                "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == QUICK_KEPT[workload]
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = _run("--workload", "greybox", "--seed", "3", "--seconds", "0", "--trace", "1",
                "--quick")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in ("rational.det_s", "rational.pointwise_evals", "modes.mode_artifacts_s",
                 "greybox.mode_report_s", "netfile.parse_s", "cli.self_s"):
        assert metrics[name]["value"] > 0, name
    assert metrics["vectorfit.fit_s"]["value"] == 0.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_oracle_agrees_with_the_package_state_space():
    from netmodal.statespace import build_state_space
    import numpy as np

    net = seeded_net(5, 0, 4)
    ours = np.sort_complex(np.linalg.eigvals(state_space(net)[0]))
    theirs = np.sort_complex(build_state_space(to_model(net)).eigenvalues())
    assert np.allclose(ours, theirs, rtol=1e-12, atol=1e-12)


def _op(workload, label):
    return next(op for op in workload.round(0) if op.label == label)


def test_corpus_check_rejects_a_moved_mode_or_residue(tmp_path):
    op = _op(Corpus(4, tmp_path, quick=True), "corpus:seeded-n3-0")
    out = op.run()
    assert op.check(out).ok
    found, arts, limits = out
    found[0].eigenvalue += 1e-5 * abs(found[0].eigenvalue)
    assert not op.check(out).ok
    found, arts, limits = op.run()
    arts[0].residue = arts[0].residue * (1 + 1e-5)
    assert not op.check((found, arts, limits)).ok
    found, arts, limits = op.run()
    limits[-1] = limits[-1] * (1 + 1e-5)
    assert not op.check((found, arts, limits)).ok


def _edit(out, change):
    rc, stdout, stderr = out
    doc = json.loads(stdout)
    change(doc)
    return rc, json.dumps(doc), stderr


def _scale(entry, factor):
    entry["re"] *= factor
    entry["im"] *= factor


def test_greybox_checks_reject_wrong_answers():
    s = Session(read_net_file(SAMPLE), SAMPLE)
    comp, param = s.param
    listing = run_cli(["modes", SAMPLE])
    report = run_cli(["greybox", SAMPLE, "--mode", str(s.index)])
    tuned = run_cli(["tune", SAMPLE, "--param", f"{comp}.{param}", "--pct", str(s.pct)])
    assert check_modes(s, listing).ok
    assert check_greybox(s, report).ok
    assert check_tune(s, tuned).ok

    def move_mode(doc):
        doc["modes"][0]["im"] *= 1 + 1e-5

    assert not check_modes(s, _edit(listing, move_mode)).ok
    assert not check_modes(s, _edit(listing, lambda d: d["modes"].pop())).ok
    assert not check_greybox(s, _edit(report, lambda d: _scale(d["layer2"][0], 1 + 1e-4))).ok
    assert not check_greybox(
        s, _edit(report, lambda d: _scale(d["layer3"][0]["normalized"], 1 + 1e-4))).ok
    for field in ("actual", "predicted"):
        def nudge(doc, field=field):
            for result in doc["results"]:
                _scale(result[field], 1 + 1e-3)

        assert not check_tune(s, _edit(tuned, nudge)).ok
    assert not check_modes(s, (4, "", "error: numerical failure")).ok


def test_fit_check_rejects_a_moved_pole_or_residue(tmp_path):
    op = _op(Fit(2, tmp_path, quick=True), "fit:sample")
    op.prepare()
    scanned, fitted = op.run()
    assert op.check((scanned, fitted)).ok
    pole = lambda d: _scale(d["poles"][0], 1 + 1e-5)
    assert not op.check((scanned, _edit(fitted, pole))).ok
    residue = lambda d: _scale(d["entries"]["1,1"]["residues"][0], 1 + 1e-3)
    assert not op.check((scanned, _edit(fitted, residue))).ok
    csv = tmp_path / "sample-spectra" / "Z_1_2.csv"
    rows = csv.read_text().splitlines()
    freq, re_part, im_part = rows[50].split(",")
    rows[50] = f"{freq},{float(re_part) * (1 + 1e-6)!r},{im_part}"
    csv.write_text("\n".join(rows) + "\n")
    assert not op.check((scanned, fitted)).ok


def test_residues_match_the_impedance_near_a_mode():
    ref = reference(read_net_file(SAMPLE))
    lam = ref.least_damped()
    eps = 1e-6 * abs(lam)
    limit = eps * ref.impedance([lam + eps])[0]
    assert abs(limit - ref.residue_at(lam)).max() < 1e-4 * abs(ref.residue_at(lam)).max()
