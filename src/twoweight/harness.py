"""Measure-pair generators, the verification driver, reports, and the CLI.

Every run is deterministic for a fixed configuration and seed.  Reports
serialize real numbers as 17-significant-digit decimal strings so the
output is byte-stable across platforms, and a CSV of the scalar
constants is written next to every report file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .bfamily import make_family
from .corona import (
    carleson_norm,
    cz_stopping,
    energy_stopping,
    generation_masses,
    stopping_data,
)
from .energy import (
    functional_energy_context,
    functional_energy_estimate,
    halfspace_testing,
    mu_bar_from_corona,
    strong_energy,
    whitney_energy,
)
from .grid import bad_probability_mc, cube_dict, make_grid
from .measure import Measure, common_points
from .poisson_a2 import a2_constants
from .singular import TestingReport, make_kernel, ntv, testing_constants

__all__ = [
    "RunConfig",
    "generate_pair",
    "load_pair_file",
    "verify_theorem",
    "format_report",
    "write_report",
    "cli_main",
]

_GENERATORS = ("random_atomic", "common_atoms", "doubling_like",
               "cantor_like", "file")
# the types that RunConfig's annotations name
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str,
                "dict": dict}


@dataclass
class RunConfig:
    dim: int = 1
    alpha: float = 0.0
    eps: float = 0.9
    resolution: int = 4
    levels: int = 0
    c0: float = 4.0
    gamma: float = 2.0
    c_en: float = 2.0
    delta_trunc: float = 1e-3
    radius: float = 1e3
    depth: int = 2
    seed: int = 0
    generator: str = "random_atomic"
    generator_params: dict = field(default_factory=dict)
    natoms: int | None = None
    family_kind: str = "unit"
    budget_ratio: float = 1e3
    r_param: int | None = None
    tau_param: int | None = None
    rho_param: int | None = None
    out: str | None = None

    def __post_init__(self):
        for f in fields(self):
            v, kind = getattr(self, f.name), f.type.split(" | ")[0]
            if v is None and f.type.endswith("None"):
                continue
            # a JSON true is no number, though bool subclasses int
            if isinstance(v, bool) or not isinstance(v, _FIELD_TYPES[kind]):
                raise ValueError(f"{f.name} must be {kind}, got {v!r}")
            # NaN fails no comparison below and an infinity overflows later
            if kind == "float" and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v!r}")
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if not 0 <= self.alpha < self.dim:
            raise ValueError("alpha must lie in [0, dim)")
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        if self.resolution < 1 or self.resolution > (8 if self.dim == 1
                                                     else 5):
            raise ValueError("resolution out of the supported range")
        if self.levels != 0:        # the grids get resolution scale bits
            raise ValueError(f"levels must be 0, got {self.levels!r}")
        if self.c0 <= 1:
            raise ValueError("c0 must exceed 1")
        if not 1 < self.gamma <= 5:
            raise ValueError("gamma must lie in (1, 5]")
        if self.c_en <= 1:
            raise ValueError("c_en must exceed 1")
        if not 0 < self.delta_trunc < self.radius:
            raise ValueError("need 0 < delta_trunc < radius")
        if self.budget_ratio <= 0:
            raise ValueError("budget_ratio must be positive")
        if self.generator not in _GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        have = (self.r_param, self.tau_param, self.rho_param)
        if all(v is not None for v in have):
            if not (self.tau_param > self.r_param
                    and self.rho_param > self.r_param + self.tau_param):
                raise ValueError("need tau > r and rho > r + tau")


# ---------------------------------------------------------------------------
# generators


def _random_measure(rng, dim, res, natoms):
    side = 2 ** res
    total = side ** dim
    natoms = min(natoms, total)
    flat = rng.choice(total, size=natoms, replace=False)
    pts = [((int(k),) if dim == 1 else (int(k) % side, int(k) // side))
           for k in flat]
    ms = rng.random(natoms) + 0.1
    return Measure.from_atoms(dim, res, [(p, float(m))
                                         for p, m in zip(pts, ms)])


def _cantor_points(res):
    # keep the lattice points whose consecutive bit pairs are 00 or 11,
    # a middle-half Cantor set at resolution res
    out = []
    for k in range(2 ** res):
        bits = [(k >> i) & 1 for i in range(res)]
        if all(bits[2 * i] == bits[2 * i + 1] for i in range(res // 2)):
            out.append(k)
    return out


def generate_pair(kind: str, params: dict, seed: int) -> tuple:
    """A reproducible measure pair of the requested kind."""
    dim = int(params.get("dim", 1))
    res = int(params.get("resolution", 4))
    natoms = int(params.get("natoms", min(12, 2 ** (dim * res))))
    rng = np.random.default_rng(seed)
    if kind == "random_atomic":
        return (_random_measure(rng, dim, res, natoms),
                _random_measure(rng, dim, res, natoms))
    if kind == "common_atoms":
        sigma = _random_measure(rng, dim, res, natoms)
        omega = _random_measure(rng, dim, res, natoms)
        shared = sigma.points[: max(1, natoms // 3)]
        extra = [(tuple(int(c) for c in p), float(rng.random() + 0.1))
                 for p in shared]
        atoms = [(tuple(int(c) for c in omega.points[i]),
                  float(omega.masses[i])) for i in range(omega.natoms)]
        merged: dict = {}
        for p, m in atoms + extra:
            merged[p] = merged.get(p, 0.0) + m
        omega = Measure.from_atoms(dim, res, list(merged.items()))
        return sigma, omega
    if kind == "doubling_like":
        alpha = float(params.get("alpha", 0.0))
        side = 2 ** res
        base = (2.0 ** -res) ** (dim - alpha)

        def full(jitter):
            pts = [((k,) if dim == 1 else (k % side, k // side))
                   for k in range(side ** dim)]
            ms = base * (1.0 + 0.25 * jitter)
            return Measure.from_atoms(dim, res, [(p, float(m)) for p, m
                                                 in zip(pts, ms)])
        return (full(rng.random(side ** dim)),
                full(rng.random(side ** dim)))
    if kind == "cantor_like":
        if dim != 1:
            raise ValueError("cantor_like is one dimensional")
        pts = _cantor_points(res)
        w = 1.0 / len(pts)
        sigma = Measure.from_atoms(1, res, [((k,), w) for k in pts])
        shifted = [(k + 1) % 2 ** res for k in pts]
        omega = Measure.from_atoms(1, res, [((k,), w) for k in
                                            sorted(set(shifted))])
        return sigma, omega
    if kind == "file":
        return load_pair_file(params["path"])
    raise ValueError(f"unknown generator kind {kind!r}")


def load_pair_file(path: str) -> tuple:
    """Pair file: JSON object with measure objects under sigma and omega."""
    with open(path) as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: parse error at line {e.lineno}: {e.msg}") \
            from e
    out = []
    for key in ("sigma", "omega"):
        if key not in obj:
            raise ValueError(f"{path}: missing top-level field {key!r}")
        m = obj[key]
        for fld in ("dim", "resolution", "atoms"):
            if fld not in m:
                raise ValueError(f"{path}: {key} missing field {fld!r}")
        out.append(Measure.from_atoms(
            m["dim"], m["resolution"],
            [(a["num"], a["mass"]) for a in m["atoms"]]))
    return tuple(out)


def dump_pair(sigma: Measure, omega: Measure) -> str:
    """The pair file `load_pair_file` reads; masses are written as their
    repr, so they read back bit-exactly."""
    return json.dumps({key: {"dim": mu.dim, "resolution": mu.resolution,
                             "atoms": [{"num": p, "mass": m} for p, m in
                                       zip(mu.points.tolist(),
                                           mu.masses.tolist())]}
                       for key, mu in (("sigma", sigma), ("omega", omega))},
                      indent=1)


# ---------------------------------------------------------------------------
# verification driver


def verify_theorem(cfg: RunConfig, pair=None) -> dict:
    """All constants of one pair plus the hard invariant checks.

    Returns the report dictionary; every entry of checks carries a name,
    a pass flag, and a witness string.  The norm-to-aggregate ratio is
    recorded but never asserted against an unknown comparison constant.
    """
    if pair is None:
        gp = dict(cfg.generator_params)
        gp.setdefault("dim", cfg.dim)
        gp.setdefault("resolution", cfg.resolution)
        gp.setdefault("alpha", cfg.alpha)
        if cfg.natoms is not None:
            gp.setdefault("natoms", cfg.natoms)
        sigma, omega = generate_pair(cfg.generator, gp, cfg.seed)
    else:
        sigma, omega = pair
    if sigma.dim != cfg.dim or omega.dim != cfg.dim:
        raise ValueError(f"pair has dims ({sigma.dim}, {omega.dim}), "
                         f"config has dim {cfg.dim}")
    # the one place lattices meet: the pair moves onto the finer of its
    # two, and every grid, cube and measure below lives on it.  The
    # enumeration depth follows the atoms' own lattice, so declaring a
    # finer resolution without moving any atom changes nothing
    res = max(sigma.resolution, omega.resolution)
    sigma, omega = sigma.rescale(res), omega.rescale(res)
    # every corona, energy and A2 constant is rooted at the unit cube
    for name, mu in (("sigma", sigma), ("omega", omega)):
        out = ((mu.points < 0) | (mu.points >= 2 ** res)).any(axis=1)
        if out.any():
            raise ValueError(f"{name} atom {mu.points[out][0].tolist()} at "
                             f"resolution {res} lies outside the unit cube")
    if res != cfg.resolution:
        cfg = RunConfig(**{**asdict(cfg), "resolution": res})
    grid = make_grid(cfg.dim, cfg.resolution, cfg.levels,
                     {"kind": "beta",
                      "bits": [[0] * cfg.resolution] * cfg.dim})
    grids = [grid]
    root = grid.cube(0, (0,) * cfg.dim)
    checks = []

    def check(name, ok, witness):
        checks.append({"name": name, "pass": bool(ok),
                       "witness": str(witness)})

    a2 = a2_constants(sigma, omega, grids, cfg.alpha)
    erep = strong_energy(sigma, omega, grids, cfg.alpha, depth=cfg.depth)
    wh = whitney_energy(sigma, omega, grids, cfg.alpha, cfg.gamma,
                        ("hole", "partial", "plug"), depth=1)
    erep.whitney = {variant: val for variant, (val, _) in wh.items()}

    kernel = make_kernel(cfg.dim, cfg.alpha, delta_trunc=cfg.delta_trunc,
                         radius=cfg.radius, seed=cfg.seed)
    tol = 1e-9
    if sigma.natoms and omega.natoms:
        fam_sigma = make_family(cfg.family_kind, sigma, grid, root,
                                seed=cfg.seed)
        fam_omega = make_family(cfg.family_kind, omega, grid, root,
                                seed=cfg.seed + 1)
        trep = testing_constants(kernel, sigma, omega, fam_sigma,
                                 fam_omega)
        check("necessity_forward",
              trep.forward <= fam_sigma.C_b * trep.norm + tol,
              f"forward={trep.forward!r} C_b={fam_sigma.C_b!r} "
              f"norm={trep.norm!r}")
        check("necessity_dual",
              trep.dual <= fam_omega.C_b * trep.norm + tol,
              f"dual={trep.dual!r} C_b={fam_omega.C_b!r} "
              f"norm={trep.norm!r}")
        del fam_sigma, fam_omega    # their memory serves the later stages
    else:
        trep = TestingReport()
    summary = ntv(trep, a2, erep.aggregate)

    rng = np.random.default_rng(cfg.seed)
    f = rng.pareto(2.0, sigma.natoms) + 0.1 if sigma.natoms else \
        np.zeros(0)
    coronas = {}
    if sigma.natoms:
        cz = cz_stopping(sigma, f, root, cfg.c0)
        sd = stopping_data(cz, f)
        cz_car = sd["carleson"]
        cz_bound = cfg.c0 / (cfg.c0 - 1.0)
        check("cz_carleson", cz_car <= cz_bound + tol,
              f"carleson={cz_car!r} bound={cz_bound!r}")
        coronas["cz"] = {
            "stopping_count": len(cz.stopping),
            "carleson": cz_car,
            "avg_control": sd["avg_control"],
            "generation_masses": generation_masses(cz),
        }
        check("cz_avg_control", sd["avg_control_ok"],
              f"avg_control={sd['avg_control']!r}")

        en = energy_stopping(sigma, omega, root, cfg.c_en,
                             erep.aggregate, a2.aggregate, cfg.alpha)
        en_car = carleson_norm(en.stopping, sigma)
        check("energy_carleson", en_car <= 2.0 + tol,
              f"carleson={en_car!r}")
        coronas["energy"] = {
            "stopping_count": len(en.stopping),
            "carleson": en_car,
            "generation_masses": generation_masses(en),
        }
    else:
        cz = None

    fenergy = {"value": 0.0, "best_kind": None, "dictionary_size": 0}
    half = {"forward_lhs": 0.0, "forward_rhs": 0.0, "forward_ratio": None,
            "backward_lhs": 0.0, "backward_rhs": 0.0,
            "backward_ratio": None}
    if cz is not None and omega.natoms:
        gg = make_grid(cfg.dim, cfg.resolution, cfg.levels,
                       {"kind": "gamma",
                        "g": (2 ** cfg.resolution * 2 // 3,) * cfg.dim})
        # rooted on every level-0 cube of gg that holds omega atoms, so
        # that the family covers all of omega
        cells = (omega.points - gg.off(0)) // gg.side_units(0)
        fam_g = make_family("unit", omega, gg, [
            gg.cube(0, c) for c in sorted(set(map(tuple, cells.tolist())))])
        ctx = functional_energy_context(cz, gg, fam_g, cfg.eps, cfg.alpha)
        fenergy = functional_energy_estimate(ctx, sigma, cfg.alpha, root,
                                             seed=cfg.seed)
        _, mu_bar = mu_bar_from_corona(ctx)
        half = halfspace_testing(root, mu_bar, sigma, cfg.alpha,
                                 {"e2": erep.aggregate, "calA2": a2.calA2,
                                  "calA2_star": a2.calA2_star,
                                  "punct": a2.punct})
        recount = sum(q for _, q in ctx)
        tent = mu_bar.second_coordinate_sq_integral(root)
        check("halfspace_recount",
              abs(tent - recount) <= 1e-10 * max(1.0, recount),
              f"tent={tent!r} recount={recount!r}")
        for key in ("forward_ratio", "backward_ratio"):
            if half[key] is not None:
                check(f"halfspace_{key}",
                      half[key] <= cfg.budget_ratio,
                      f"{key}={half[key]!r}")

    k_grid = (4, 6, 8)
    gmc = {}
    for k in k_grid:
        est, err = bad_probability_mc(cfg.dim, k, cfg.eps, 10000, cfg.seed)
        gmc[str(k)] = {"estimate": est, "stderr": err}

    report = {
        "config": {k: v for k, v in asdict(cfg).items() if k != "out"},
        "pair": {"sigma_atoms": sigma.natoms, "omega_atoms": omega.natoms,
                 "common_atoms": len(common_points(sigma, omega))},
        "a2": a2.as_dict(),
        "energy": erep.as_dict(),
        "testing": trep.as_dict(),
        "ntv": summary,
        "functional_energy": fenergy,
        "halfspace": half,
        "goodness_mc": gmc,
        "coronas": coronas,
        "checks": checks,
    }
    return report


# ---------------------------------------------------------------------------
# serialization


def _stable(obj):
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return str(obj)
        return format(obj, ".17g")
    if isinstance(obj, dict):
        return {str(k): _stable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return _stable(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if hasattr(obj, "lo"):
        return cube_dict(obj)
    return obj


def format_report(report: dict) -> str:
    return json.dumps(_stable(report), indent=1, sort_keys=True)


def _scalar_rows(report, prefix=""):
    rows = []
    if isinstance(report, dict):
        for k in sorted(report):
            rows.extend(_scalar_rows(report[k], f"{prefix}{k}."))
    elif isinstance(report, (int, float)) and not isinstance(report, bool):
        rows.append((prefix[:-1], format(float(report), ".17g")))
    return rows


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(format_report(report) + "\n")
    csv_path = path + ".csv" if not path.endswith(".json") \
        else path[:-5] + ".csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "value"])
        for name, value in _scalar_rows(report):
            w.writerow([name, value])


# ---------------------------------------------------------------------------
# CLI


def _build_parser():
    p = argparse.ArgumentParser(prog="twoweight",
                                description="two-weight testing toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("constants", "corona", "energy", "poisson-test",
                 "prob-bad", "verify", "report"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--dim", type=int, default=None)
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--eps", type=float, default=None)
        sp.add_argument("--res", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--pairs", default=None)
        sp.add_argument("--out", default=None)
    return p


def _config_from_args(args) -> RunConfig:
    base = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
    if args.dim is not None:
        base["dim"] = args.dim
    if args.alpha is not None:
        base["alpha"] = args.alpha
    if args.eps is not None:
        base["eps"] = args.eps
    if args.res is not None:
        base["resolution"] = args.res
    if args.seed is not None:
        base["seed"] = args.seed
    if args.out is not None:
        base["out"] = args.out
    if args.pairs is not None:
        base["generator"] = "file"
        gp = base.setdefault("generator_params", {})
        if not isinstance(gp, dict):
            raise ValueError(f"generator_params must be dict, got {gp!r}")
        gp["path"] = args.pairs
    return RunConfig(**base)


_SECTION = {
    "constants": ("a2", "testing", "ntv", "energy"),
    "corona": ("coronas",),
    "energy": ("energy", "functional_energy"),
    "poisson-test": ("halfspace",),
    "prob-bad": ("goodness_mc",),
    "verify": None,
    "report": None,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        cfg = _config_from_args(args)
        pair = None
        if args.pairs is not None:
            pair = load_pair_file(args.pairs)
        report = verify_theorem(cfg, pair=pair)
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as e:
        # OverflowError: a finite number too large for the computation
        print(f"error: {e}", file=sys.stderr)
        return 1
    keep = _SECTION[args.command]
    shown = report if keep is None else \
        {k: report[k] for k in keep + ("config", "checks")}
    text = format_report(shown)
    if cfg.out:
        try:
            write_report(shown, cfg.out)
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    else:
        print(text)
    failed = [c for c in report["checks"] if not c["pass"]]
    if failed:
        for c in failed:
            print(f"FAIL {c['name']}: {c['witness']}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(cli_main())
