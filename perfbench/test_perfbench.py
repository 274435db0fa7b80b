"""Tests of the benchmark itself: tracer bindings, digests, output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import spans
import workloads
from worker import import_package

HERE = Path(__file__).resolve().parent
TW = import_package()


def _bindings(package="twoweight"):
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is not None and (name == package
                                or name.startswith(package + ".")):
            for key, val in vars(mod).items():
                out[(name, key)] = val
    for key, val in vars(TW.measure.Measure).items():
        out[("Measure", key)] = val
    return out


def test_install_rebinds_callers_and_restore_undoes_every_binding():
    before = _bindings()
    tracer = spans.Tracer().install()
    try:
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        assert ("twoweight.harness", "whitney_energy") in changed
        assert ("twoweight.energy", "shifted_corona") in changed
        assert ("twoweight.corona", "sharp_cross") in changed
        assert ("twoweight.singular", "apply") in changed
        assert ("twoweight.energy", "kernel_apply") in changed   # an alias
        assert ("Measure", "in_box") in changed
        assert ("Measure", "subset") in changed
        assert set(during) == set(before)
    finally:
        tracer.restore()
    after = _bindings()
    assert set(after) == set(before)
    assert all(after[k] is before[k] for k in before)


def test_restore_after_an_exception_inside_the_traced_block():
    before = _bindings()
    with pytest.raises(ValueError):
        with spans.Tracer():
            TW.harness.RunConfig(dim=3)
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_a_failed_install_restores_what_it_had_rebound():
    before = _bindings()
    with pytest.raises(AttributeError):
        spans.Tracer(spanned=("harness.cli_main", "harness.no_such_name"),
                     counted=()).install()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_install_twice_is_refused():
    tracer = spans.Tracer().install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()


def _verify_text():
    h = TW.harness
    cfg = h.RunConfig(dim=1, resolution=4, natoms=12, seed=3)
    return h.format_report(h.verify_theorem(cfg))


def test_traced_operation_returns_the_untraced_digest():
    plain = workloads.digest(_verify_text())
    with spans.Tracer() as tracer:
        traced = workloads.digest(_verify_text())
    assert traced == plain
    snap = tracer.snapshot()
    assert snap["harness.verify_theorem"]["calls"] == 1
    assert snap["singular.apply"]["calls"] > 0
    assert snap["measure.in_box"]["calls"] > 0
    assert "self_s" not in snap["measure.in_box"]
    assert all(v.get("self_s", 0.0) >= 0.0 for v in snap.values())


def test_cli_pass_digests_match_under_tracing():
    wl = workloads.WORKLOADS["cli_small"]
    # the seven subcommands of the first 2-D configuration
    ops = [op for op in wl.build(TW, 5) if "--dim 2" in op.label][:7]
    plain, problems = wl.check(ops, [op.call() for op in ops])
    assert not problems
    with spans.Tracer():
        traced, problems = wl.check(ops, [op.call() for op in ops])
    assert not problems
    assert [o.digest for o in traced] == [o.digest for o in plain]


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.a")

    def inner():
        time.sleep(0.05)

    def outer():
        time.sleep(0.01)
        mod.inner()

    mod.inner, mod.outer = inner, outer
    return {"fakepkg": pkg, "fakepkg.a": mod}


def test_self_time_is_span_time_minus_child_spans(monkeypatch):
    for name, mod in _fake_package().items():
        monkeypatch.setitem(sys.modules, name, mod)
    mod = sys.modules["fakepkg.a"]
    with spans.Tracer("fakepkg", ("a.outer", "a.inner"), ()) as tracer:
        t0 = time.perf_counter()
        mod.outer()
        total = time.perf_counter() - t0
    assert tracer.calls == {"a.outer": 1, "a.inner": 1}
    outer, inner = tracer.self_s["a.outer"], tracer.self_s["a.inner"]
    assert outer >= 0.01 and inner >= 0.05
    assert outer < inner                # the child's time is not counted
    assert outer + inner <= total


def test_check_report_flags_missing_sections_and_bad_checks():
    obj = json.loads(_verify_text())
    assert workloads.check_report(obj, 12) == []
    assert workloads.check_report(obj, 13)       # wrong atom count
    broken = dict(obj, checks=obj["checks"] + [{"name": "x", "pass": "yes",
                                                 "witness": ""}])
    assert any("malformed" in p for p in workloads.check_report(broken, 12))
    del broken["coronas"]
    assert workloads.check_report(broken, 12)


def _cli_outputs(text):
    full = json.loads(text)
    out = []
    for cmd, keep in workloads.CLI_SECTIONS.items():
        shown = full if keep is None else \
            {k: full[k] for k in keep + ("config", "checks")}
        out.append((0, TW.harness.format_report(shown) + "\n", ""))
    return out


def test_cli_check_counts_exit_1_as_failed_and_flags_mismatches():
    wl = workloads.WORKLOADS["cli_small"]
    ops = wl.build(TW, 5)[:7]
    good = _cli_outputs(_verify_text())
    outcomes, problems = wl.check(ops, good)
    assert problems == [] and {o.status for o in outcomes} == {"ok"}
    crashed = [(1, "", "error: family has no nonempty cube\n")] * 7
    outcomes, problems = wl.check(ops, crashed)
    assert problems == [] and {o.status for o in outcomes} == {"failed"}
    tampered = good[:1] + [(0, good[2][1], "")] + good[2:]
    assert wl.check(ops, tampered)[1]
    mixed = good[:6] + [crashed[0]]
    assert wl.check(ops, mixed)[1]


def test_kernel_check_detects_a_wrong_transpose():
    sg, h = TW.singular, TW.harness
    kernel = sg.make_kernel(2, 0.0, seed=0, samples=50)
    sigma, omega = h.generate_pair("random_atomic", {"dim": 2,
                                                     "resolution": 4,
                                                     "natoms": 30}, 1)
    rng = np.random.default_rng(0)
    f, g = rng.standard_normal(30), rng.standard_normal(30)
    norm = sg.operator_norm(kernel, sigma, omega)
    tf = sg.apply(kernel, sigma, f, omega)
    tg = sg.apply(kernel, omega, g, sigma, transpose=True)
    check = workloads.KernelWorkload._check_trio
    assert check(norm, tf, sigma, f, tg, omega, g) == []
    assert check(norm, tf, sigma, f, -tg, omega, g)
    assert check(0.5 * norm * 1e-3, tf, sigma, f, tg, omega, g)


def test_derived_seeds_are_fixed_per_workload_and_seed():
    a = workloads.derive_seeds("verify_1d", 7, 4)
    assert a == workloads.derive_seeds("verify_1d", 7, 4)
    assert a != workloads.derive_seeds("verify_2d", 7, 4)
    assert a != workloads.derive_seeds("verify_1d", 8, 4)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
