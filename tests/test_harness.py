import ast
import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import twoweight
from twoweight import harness
from twoweight.grid import scaled_box4
from twoweight.harness import (
    RunConfig,
    cli_main,
    dump_pair,
    format_report,
    generate_pair,
    load_pair_file,
    verify_theorem,
    write_report,
)
from twoweight.measure import Measure, common_points


# ------------------------------------------------------------ config

def test_config_defaults_valid():
    cfg = RunConfig()
    assert cfg.dim == 1 and cfg.generator == "random_atomic"


def test_config_rejects_bad_fields():
    for kwargs in ({"dim": 3}, {"alpha": 2.0}, {"eps": 1.5},
                   {"resolution": 9}, {"c0": 1.0}, {"gamma": 6.0},
                   {"c_en": 0.5}, {"delta_trunc": 5.0, "radius": 1.0},
                   {"generator": "bogus"}):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)


def test_config_parameter_chain():
    RunConfig(r_param=1, tau_param=2, rho_param=4)
    with pytest.raises(ValueError, match="tau > r"):
        RunConfig(r_param=2, tau_param=2, rho_param=9)
    with pytest.raises(ValueError, match="tau > r"):
        RunConfig(r_param=1, tau_param=2, rho_param=3)
    RunConfig(r_param=1)  # partial triples are not constrained


# ------------------------------------------------------------ generators

def test_random_atomic_deterministic():
    a = generate_pair("random_atomic", {"resolution": 4}, 1)
    b = generate_pair("random_atomic", {"resolution": 4}, 1)
    for x, y in zip(a, b):
        assert np.array_equal(x.points, y.points)
        assert np.array_equal(x.masses, y.masses)
    c = generate_pair("random_atomic", {"resolution": 4}, 2)
    assert not (np.array_equal(a[0].points, c[0].points)
                and np.array_equal(a[0].masses, c[0].masses))


def test_common_atoms_share_points():
    sigma, omega = generate_pair("common_atoms", {"resolution": 4}, 3)
    assert len(common_points(sigma, omega)) > 0


def test_doubling_like_is_doubling():
    from twoweight.grid import make_grid
    for dim, res in ((1, 4), (2, 3)):
        sigma, _ = generate_pair("doubling_like",
                                 {"dim": dim, "resolution": res,
                                  "alpha": 0.0}, 4)
        g = make_grid(dim, res, 0, {"kind": "beta",
                                    "bits": [[0] * res] * dim})
        bound = 2 ** dim * 1.25 + 1e-12
        p4 = 4 * sigma.points       # quarter units
        for q in g.cubes():
            qm = sigma.masses[sigma.in_box(
                np.array(q.lo) * 1, np.array(q.lo) + q.side)].sum()
            lo4, hi4 = scaled_box4(q, 2.0)
            dm = sigma.masses[((p4 >= lo4) & (p4 < hi4)).all(axis=1)].sum()
            if qm > 0:
                assert dm <= bound * qm


def test_cantor_like_structure():
    sigma, omega = generate_pair("cantor_like", {"resolution": 6}, 0)
    assert sigma.masses.sum() == pytest.approx(1.0)
    assert omega.natoms > 0
    again, _ = generate_pair("cantor_like", {"resolution": 6}, 5)
    assert np.array_equal(sigma.points, again.points)
    with pytest.raises(ValueError, match="one dimensional"):
        generate_pair("cantor_like", {"dim": 2, "resolution": 3}, 0)


def test_pair_file_roundtrip(tmp_path):
    sigma, omega = generate_pair("random_atomic", {"resolution": 4}, 7)
    path = tmp_path / "pair.json"
    path.write_text(dump_pair(sigma, omega))
    s2, o2 = load_pair_file(str(path))
    assert np.array_equal(sigma.points, s2.points)
    assert np.array_equal(omega.masses, o2.masses)


def test_pair_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n")
    with pytest.raises(ValueError, match="line 2"):
        load_pair_file(str(bad))
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"sigma": {"dim": 1, "resolution": 2,
                                             "atoms": []}}))
    with pytest.raises(ValueError, match="omega"):
        load_pair_file(str(missing))


# ------------------------------------------------------------ verify

def test_verify_trivial_pair_indeterminate():
    empty = Measure.from_atoms(1, 4, [])
    omega = Measure.from_atoms(1, 4, [((3,), 1.0)])
    rep = verify_theorem(RunConfig(), pair=(empty, omega))
    assert rep["ntv"]["indeterminate"] is True
    assert rep["ntv"]["ntv"] == 0.0
    assert rep["testing"]["norm"] == 0.0


def test_verify_single_disjoint_pair():
    sigma = Measure.from_atoms(1, 2, [((0,), 1.0)])
    omega = Measure.from_atoms(1, 2, [((3,), 1.0)])
    rep = verify_theorem(RunConfig(resolution=2), pair=(sigma, omega))
    assert rep["testing"]["forward"] == pytest.approx(
        rep["testing"]["norm"])
    assert rep["ntv"]["ratio"] <= 1.0
    assert all(c["pass"] for c in rep["checks"])


def test_verify_all_checks_pass_across_generators():
    for kind in ("random_atomic", "common_atoms", "doubling_like",
                 "cantor_like"):
        for seed in (0, 1):
            cfg = RunConfig(generator=kind, seed=seed,
                            resolution=4, family_kind="unit")
            rep = verify_theorem(cfg)
            bad = [c for c in rep["checks"] if not c["pass"]]
            assert not bad, (kind, seed, bad)


def test_verify_deterministic_report():
    cfg = RunConfig(seed=11)
    a = format_report(verify_theorem(cfg))
    b = format_report(verify_theorem(RunConfig(seed=11)))
    assert a == b


def test_verify_resolution_declaration_is_stable():
    sigma, omega = generate_pair("random_atomic", {"resolution": 4}, 5)
    r4 = verify_theorem(RunConfig(resolution=4), pair=(sigma, omega))
    r5 = verify_theorem(RunConfig(resolution=5), pair=(sigma, omega))
    for key in ("a2", "testing", "ntv"):
        a = {k: v for k, v in r4[key].items() if isinstance(v, float)}
        b = {k: v for k, v in r5[key].items() if isinstance(v, float)}
        assert a == b
    assert r4["energy"]["strong"] == r5["energy"]["strong"]


def test_report_serialization_17_digits(tmp_path):
    rep = verify_theorem(RunConfig(seed=2))
    text = format_report(rep)
    obj = json.loads(text)
    assert isinstance(obj["testing"]["norm"], str)
    assert float(obj["testing"]["norm"]) == rep["testing"]["norm"]
    out = tmp_path / "report.json"
    write_report(rep, str(out))
    assert out.exists()
    csv_file = tmp_path / "report.csv"
    assert csv_file.exists()
    lines = csv_file.read_text().splitlines()
    assert lines[0] == "name,value"
    assert len(lines) > 5


def test_report_schema_fields():
    rep = verify_theorem(RunConfig(seed=3))
    for key in ("config", "a2", "energy", "testing", "functional_energy",
                "halfspace", "goodness_mc", "coronas", "checks"):
        assert key in rep
    for c in rep["checks"]:
        assert set(c) == {"name", "pass", "witness"}


# ------------------------------------------------------------ CLI

def test_cli_verify_exit_zero(capsys):
    code = cli_main(["verify", "--dim", "1", "--alpha", "0",
                     "--res", "4", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert '"checks"' in out


def test_cli_subcommand_sections(capsys):
    assert cli_main(["prob-bad", "--res", "3", "--seed", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "goodness_mc" in out and "a2" not in out
    assert cli_main(["corona", "--res", "3", "--seed", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "coronas" in out and "halfspace" not in out


@pytest.mark.parametrize("seed", [0, 2])
def test_cli_2d_verify_with_omega_off_the_first_gamma_cube(seed, capsys):
    # these exited 1 ("family has no nonempty cube") while the gamma-grid
    # family was rooted on the one cube gg.cube(0, 0)
    code = cli_main(["verify", "--dim", "2", "--res", "3",
                     "--seed", str(seed)])
    captured = capsys.readouterr()
    assert code in (0, 2) and captured.err.count("error") == 0
    assert '"checks"' in captured.out


def test_cli_missing_file_exit_one(capsys):
    assert cli_main(["verify", "--pairs", "/no/such/file.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_usage_error_exit_one(capsys):
    assert cli_main(["frobnicate"]) == 1
    assert cli_main([]) == 1


def test_cli_bad_config_exit_one(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"dim": 3}))
    assert cli_main(["verify", "--config", str(cfgfile)]) == 1


def test_cli_pairs_and_out(tmp_path, capsys):
    sigma, omega = generate_pair("random_atomic", {"resolution": 4}, 9)
    pfile = tmp_path / "pair.json"
    pfile.write_text(dump_pair(sigma, omega))
    ofile = tmp_path / "rep.json"
    code = cli_main(["verify", "--pairs", str(pfile),
                     "--out", str(ofile)])
    assert code == 0
    assert ofile.exists() and (tmp_path / "rep.csv").exists()


def test_cli_invariant_violation_exit_two(monkeypatch, capsys):
    monkeypatch.setattr(harness, "carleson_norm", lambda *a, **k: 99.0)
    code = cli_main(["verify", "--res", "4", "--seed", "7"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().err


def test_cli_deterministic_report_files(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert cli_main(["report", "--res", "4", "--seed", "5",
                         "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("field, value", [
    ("radius", math.inf),           # overflowed in the kernel
    ("c_en", math.nan),             # passed every range check: exit 0
    ("c0", math.nan),               # exit 2 with bound=nan
    ("budget_ratio", -1.0),         # failed the half-space checks
])
def test_cli_rejects_non_finite_and_out_of_range_config(field, value,
                                                        tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"resolution": 2, field: value}))
    assert cli_main(["verify", "--config", str(cfgfile)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and field in captured.err


def _measure_obj(dim, atoms):
    return {"dim": dim, "resolution": 2,
            "atoms": [{"num": num, "mass": m} for num, m in atoms]}


_ONE_D = _measure_obj(1, [([1], "1.0"), ([3], "2.0")])


@pytest.mark.parametrize("sigma, omega, argv, message", [
    pytest.param(_measure_obj(2, [([1, 2], "1.0")]),
                 _measure_obj(2, [([0, 1], "1.5")]), [], "dim",
                 id="2d_pair_without_dim_2"),
    pytest.param(_ONE_D, _ONE_D, ["--dim", "2"], "dim",
                 id="1d_pair_under_dim_2"),
    pytest.param(_measure_obj(3, [([1, 2, 3], "1.0")]),
                 _measure_obj(3, [([0, 1, 2], "1.0")]), [], "dim",
                 id="3d_pair"),
    pytest.param(_ONE_D, _measure_obj(1, [([2], "nan")]), [],
                 "non-finite mass", id="nan_mass"),
    pytest.param(_measure_obj(1, [([1.5], "1.0")]), _ONE_D, [],
                 "not an integer", id="fractional_coordinate"),
    pytest.param(_measure_obj(1, [([1], "1e308"), ([1], "1e308")]), _ONE_D,
                 [], "non-finite mass", id="merged_mass_overflows"),
])
def test_cli_rejects_bad_pair_file(sigma, omega, argv, message, tmp_path,
                                   capsys):
    pfile = tmp_path / "pair.json"
    pfile.write_text(json.dumps({"sigma": sigma, "omega": omega}))
    assert cli_main(["verify", "--pairs", str(pfile)] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("field, config, pair", [
    pytest.param("mass", {}, {"sigma": _measure_obj(1, [([1], "x")]),
                              "omega": _ONE_D}, id="mass"),
    pytest.param("generator_params", {"generator_params": "x"},
                 {"sigma": _ONE_D, "omega": _ONE_D}, id="generator_params"),
    pytest.param("radius", {"radius": 1e308}, None, id="radius"),
    # its squared separations overflowed, and the sampling looped forever
    pytest.param("radius", {"radius": 1e200}, None, id="radius_squared"),
])
def test_cli_exit_one_names_the_field(field, config, pair, tmp_path,
                                      capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"resolution": 2, **config}))
    argv = ["verify", "--config", str(cfgfile)]
    if pair is not None:
        pfile = tmp_path / "pair.json"
        pfile.write_text(json.dumps(pair))
        argv += ["--pairs", str(pfile)]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert any(line.startswith("error: ") and field in line
               for line in captured.err.splitlines()), captured.err


@pytest.mark.parametrize("sigma_nums, omega_nums, message", [
    # sigma at -1/4, 1/4 and 5/4: every check passed on the root [0, 1)
    # with 2 of the 7 sigma mass inside it
    pytest.param([-1, 1, 5], [1, 3], r"sigma atom \[-1\]", id="sigma"),
    pytest.param([1, 3], [0, 4], r"omega atom \[4\]", id="omega"),
])
def test_verify_rejects_atoms_outside_the_unit_cube(sigma_nums, omega_nums,
                                                    message, tmp_path,
                                                    capsys):
    sigma, omega = (Measure.from_atoms(1, 2, [((k,), 2.0 ** i)
                                              for i, k in enumerate(nums)])
                    for nums in (sigma_nums, omega_nums))
    with pytest.raises(ValueError, match=message):
        verify_theorem(RunConfig(resolution=2), pair=(sigma, omega))
    pfile = tmp_path / "pair.json"
    pfile.write_text(dump_pair(sigma, omega))
    assert cli_main(["verify", "--pairs", str(pfile)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_verify_rejects_a_pair_of_another_dim():
    sigma = Measure.from_atoms(2, 2, [((1, 2), 1.0)])
    with pytest.raises(ValueError, match="dim"):
        verify_theorem(RunConfig(dim=1), pair=(sigma, sigma))


# ------------------------------------------------------------ CLI fuzz
# Whatever the config file and the pair file hold, the CLI exits 0, 1 or
# 2 without a traceback, and an exit 1 says why on an "error: " line.

_ODD = st.sampled_from([math.nan, math.inf, -math.inf, "x", -1, -2.5, 0,
                        None, [], {}, True, 1e308, 2 ** 64])
_CONFIG_VALUE = st.one_of(
    _ODD, st.sampled_from(harness._GENERATORS + ("unit", "random", "global")),
    st.integers(-2, 3), st.floats(-2, 6),
    st.floats(allow_nan=True, allow_infinity=True))
# out takes no string: a valid one would write a report file
_CONFIG = st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(RunConfig)]),
    _CONFIG_VALUE, max_size=2).filter(
        lambda d: not isinstance(d.get("out"), str))


@st.composite
def _pair(draw):
    """A pair file of one random dim, perhaps with a bad mass or a
    fractional coordinate in sigma."""
    dim = draw(st.integers(1, 3))

    def measure():
        res = draw(st.integers(0, 3))
        atoms = draw(st.lists(st.tuples(
            st.lists(st.integers(-1, 2 ** res), min_size=dim, max_size=dim),
            st.floats(1e-3, 1e3) | st.floats(1e-3, 1e3).map(repr)),
            max_size=4))
        return {"dim": dim, "resolution": res,
                "atoms": [{"num": num, "mass": m} for num, m in atoms]}

    sigma, omega = measure(), measure()
    flaw = draw(st.sampled_from([None, None, "mass", "num"]))
    if flaw and sigma["atoms"]:
        sigma["atoms"][0][flaw] = draw(st.sampled_from(
            ["1e308", "nan", "inf", "-1", "0", "x", None])) \
            if flaw == "mass" else [1.5] * dim
    return {"sigma": sigma, "omega": omega}


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(list(harness._SECTION)), config=_CONFIG,
       pair=st.none() | _pair(), dim=st.sampled_from([None, 1, 2]))
def test_cli_fuzz_exits_0_1_or_2_and_explains_exit_1(tmp_path_factory,
                                                     command, config, pair,
                                                     dim):
    where = tmp_path_factory.mktemp("fuzz")
    argv = [command, "--config", str(where / "cfg.json")]
    (where / "cfg.json").write_text(json.dumps({"resolution": 2, **config}))
    if pair is not None:
        (where / "pair.json").write_text(json.dumps(pair))
        argv += ["--pairs", str(where / "pair.json")]
        dim = pair["sigma"]["dim"] if dim is None else dim
    if dim is not None:
        argv += ["--dim", str(dim)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        assert any(line.startswith("error: ")
                   for line in err.getvalue().splitlines())


# ------------------------------------------------------------ benchmark spans

def test_every_benchmark_span_resolves():
    # the benchmark's tracer rebinds these names and raises on a missing
    # one, so a traced benchmark run would fail where no test does
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANNED and spans.COUNTED
    for target in spans.SPANNED + spans.COUNTED:
        mod, *attrs = target.split(".")
        obj = importlib.import_module(f"twoweight.{mod}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
            assert obj is not None, target
        assert callable(obj), target


def test_every_name_in_all_resolves():
    # a stale __all__ entry breaks `from twoweight.x import *`
    for path in sorted(Path(twoweight.__file__).parent.glob("*.py")):
        mod = importlib.import_module(f"twoweight.{path.stem}")
        missing = [n for n in getattr(mod, "__all__", ())
                   if not hasattr(mod, n)]
        assert not missing, f"{path.stem}.__all__ names {missing}"


# ------------------------------------------------------------ dependencies

def test_fresh_import_loads_no_scipy():
    # scipy is a test-only dependency: importing the package must not
    # pull it in (scipy.optimize alone used to cost most of the import).
    src = str(Path(twoweight.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, twoweight.harness; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    for path in Path(twoweight.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n == "scipy" or n.startswith("scipy.")
                           for n in names), f"{path.name} imports {names}"
