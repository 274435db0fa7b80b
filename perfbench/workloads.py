"""The benchmark's workloads: inputs from a seed, operations, output checks.

Each workload turns the run seed into a fixed list of operations (its
"pass").  Building that list is the workload's set-up; running it is
the measured work.  Operations look the package's functions up on the
module objects at call time, so a tracer that rebinds module globals
sees every call.  Checks run after the pass, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

REPORT_SECTIONS = frozenset({
    "config", "pair", "a2", "energy", "testing", "ntv", "functional_energy",
    "halfspace", "goodness_mc", "coronas", "checks",
})
# Checks every verify of a pair with nonempty measures must record.
REQUIRED_CHECKS = frozenset({
    "necessity_forward", "necessity_dual", "cz_carleson", "cz_avg_control",
    "energy_carleson", "halfspace_recount",
})
# The CLI's subcommands and the report sections each one prints.
CLI_SECTIONS = {
    "constants": ("a2", "testing", "ntv", "energy"),
    "corona": ("coronas",),
    "energy": ("energy", "functional_energy"),
    "poisson-test": ("halfspace",),
    "prob-bad": ("goodness_mc",),
    "verify": None,
    "report": None,
}


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    inputs: tuple = ()      # what the output check needs besides the output


@dataclass
class Outcome:
    """Result of one operation after checking.

    status is "ok", "checks_failed" (a verification check of the program
    failed: a finding, not an operation failure) or "failed" (the call
    raised, or the CLI exited 1 on a valid configuration).
    """

    status: str
    digest: str
    note: str = ""


def derive_seeds(workload: str, seed: int, count: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2 ** 31) for _ in range(count)]


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _finite(value: str) -> bool:
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


def check_report(obj, natoms: int | None) -> list:
    """Problems with a full report as printed by ``format_report``."""
    problems = []
    if not isinstance(obj, dict) or set(obj) != REPORT_SECTIONS:
        got = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
        return [f"report sections {got}"]
    checks = obj["checks"]
    names = []
    for c in checks:
        if not (isinstance(c, dict) and set(c) == {"name", "pass", "witness"}
                and isinstance(c["name"], str) and isinstance(c["pass"], bool)
                and isinstance(c["witness"], str)):
            problems.append(f"malformed check {c!r}")
        else:
            names.append(c["name"])
    if len(names) != len(set(names)):
        problems.append(f"duplicate check names {names}")
    missing = REQUIRED_CHECKS - set(names)
    if missing:
        problems.append(f"missing checks {sorted(missing)}")
    pair = obj["pair"]
    if natoms is not None and (pair.get("sigma_atoms") != natoms
                               or pair.get("omega_atoms") != natoms):
        problems.append(f"pair atoms {pair} != {natoms}")
    testing = obj["testing"]
    for key in ("forward", "dual", "norm"):
        if not _finite(testing.get(key)) or float(testing[key]) < 0.0:
            problems.append(f"testing.{key} = {testing.get(key)!r}")
    if obj["ntv"].get("norm") != testing.get("norm"):
        problems.append("ntv.norm differs from testing.norm")
    return problems


def _json_or_none(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def _report_status(obj) -> str:
    ok = all(c.get("pass") is True for c in obj.get("checks", ()))
    return "ok" if ok else "checks_failed"


# ---------------------------------------------------------------------------
# workloads


class VerifyWorkload:
    """``verify_theorem`` plus ``format_report`` on random atomic pairs."""

    def __init__(self, name, why, dim, res, natoms, count):
        self.name, self.why = name, why
        self.dim, self.res, self.natoms, self.count = dim, res, natoms, count

    def build(self, tw, seed):
        h = tw.harness
        ops = []
        for s in derive_seeds(self.name, seed, self.count):
            cfg = h.RunConfig(dim=self.dim, resolution=self.res,
                              natoms=self.natoms, seed=s)
            pair = h.generate_pair(
                "random_atomic", {"dim": self.dim, "resolution": self.res,
                                  "natoms": self.natoms, "alpha": cfg.alpha},
                s)

            def call(cfg=cfg, pair=pair):
                return h.format_report(h.verify_theorem(cfg, pair=pair))
            ops.append(Op(f"verify dim={self.dim} res={self.res} "
                          f"atoms={self.natoms} seed={s}", call))
        return ops

    def check(self, ops, outputs):
        outcomes, problems = [], []
        for op, text in zip(ops, outputs):
            if isinstance(text, BaseException):
                outcomes.append(Outcome("failed", "", repr(text)))
                continue
            obj = json.loads(text)
            found = check_report(obj, self.natoms)
            problems += [f"{op.label}: {p}" for p in found]
            outcomes.append(Outcome(_report_status(obj), digest(text)))
        return outcomes, problems


class CliWorkload:
    """In-process ``cli_main`` for every subcommand, output captured."""

    name = "cli_small"
    why = ("all seven CLI subcommands at small sizes: fixed costs "
           "(kernel validation, CLI glue) dominate; shows exit-1 crashes")
    # (dim, res, seeds).  Every subcommand of a configuration runs the
    # same verify, so latencies form one cluster per configuration, and a
    # median that falls at the edge of a cluster jumps with the seed and
    # with the machine's speed.  The 1-D ops (fixed costs: kernel
    # validation, CLI glue) are the majority, 42 of 56, so the median lies
    # inside their six-configuration cluster.  The 2-D configuration costs
    # about three times as much per op, carries half of wall_s and is the
    # one that most often exits 1 on valid input ("family has no nonempty
    # cube").
    #
    # The configurations' groups are spread evenly over the pass, so that
    # each cluster's samples span the whole pass and not one stretch of
    # the machine's speed.
    configs = ((1, 4, 6), (2, 3, 2))

    def build(self, tw, seed):
        h = tw.harness
        groups = []     # (place in the pass, dim, res, seed)
        for dim, res, count in self.configs:
            for i, s in enumerate(derive_seeds(f"{self.name}:{dim}d", seed,
                                               count)):
                groups.append(((i + 0.5) / count, dim, res, s))
        ops = []
        for _, dim, res, s in sorted(groups):
            for cmd in CLI_SECTIONS:
                argv = [cmd, "--dim", str(dim), "--res", str(res),
                        "--seed", str(s)]

                def call(argv=argv):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        code = h.cli_main(argv)
                    return code, out.getvalue(), err.getvalue()
                ops.append(Op(" ".join(argv), call))
        return ops

    def check(self, ops, outputs):
        outcomes, problems = [], []
        size = len(CLI_SECTIONS)
        for g in range(0, len(ops), size):
            group = list(zip(ops[g:g + size], outputs[g:g + size]))
            o, p = self._check_group(group)
            outcomes += o
            problems += p
        return outcomes, problems

    @staticmethod
    def _outcome(out) -> Outcome:
        if isinstance(out, BaseException):
            return Outcome("failed", "", repr(out))
        code, text, err = out
        if code == 0:
            return Outcome("ok", digest(text))
        if code == 2:
            return Outcome("checks_failed", digest(text))
        return Outcome("failed", "", err.strip())

    def _check_group(self, group):
        """One configuration's seven subcommands, checked against each other."""
        outcomes = [self._outcome(out) for _, out in group]
        if any(isinstance(out, BaseException) for _, out in group):
            return outcomes, []     # the cross-checks need every output
        label = " ".join(group[0][0].label.split()[1:])
        problems = []
        codes = {out[0] for _, out in group}
        if len(codes) != 1 or not codes <= {0, 1, 2}:
            problems.append(f"{label}: exit codes {sorted(codes)}")
        by_cmd = {op.label.split()[0]: out for op, out in group}
        full_code, full_text, _ = by_cmd["verify"]
        if full_code == 1:
            for op, (code, out, err) in group:
                if out or not err.startswith("error: "):
                    problems.append(f"{op.label}: exit 1 without an "
                                    "error message alone")
            return outcomes, problems
        full = _json_or_none(full_text)
        if full is None:
            return outcomes, problems + [f"{label}: verify printed no JSON"]
        problems += [f"{label}: {p}" for p in check_report(full, None)]
        failed_checks = [c["name"] for c in full["checks"] if not c["pass"]]
        want_code = 2 if failed_checks else 0
        if by_cmd["report"][1] != full_text:
            problems.append(f"{label}: report and verify outputs differ")
        for op, (code, out, err) in group:
            keep = CLI_SECTIONS[op.label.split()[0]]
            want = full if keep is None else \
                {k: full[k] for k in keep + ("config", "checks")}
            if code != want_code:
                problems.append(f"{op.label}: exit {code}, checks want "
                                f"{want_code}")
            elif _json_or_none(out) != want:
                problems.append(f"{op.label}: sections differ from verify")
            for name in failed_checks:
                if f"FAIL {name}:" not in err:
                    problems.append(f"{op.label}: FAIL {name} not reported")
        return outcomes, problems


class KernelWorkload:
    """Operator norm and forward/transpose apply on large 2-D pairs."""

    name = "kernel_large"
    why = ("operator_norm and forward/transpose apply on 2-D pairs of 2100 "
           "and 3000 atoms: the power-iteration path and O(N^2) memory")
    sizes = (2100, 3000, 2100, 3000)
    res = 7

    def build(self, tw, seed):
        h, sg = tw.harness, tw.singular
        ops = []
        seeds = derive_seeds(self.name, seed, len(self.sizes) + 1)
        kernel = sg.make_kernel(2, 0.0, seed=seeds[-1])
        for n, s in zip(self.sizes, seeds):
            sigma, omega = h.generate_pair(
                "random_atomic", {"dim": 2, "resolution": self.res,
                                  "natoms": n}, s)
            rng = np.random.default_rng(s)
            f = rng.standard_normal(sigma.natoms)
            g = rng.standard_normal(omega.natoms)
            tag = f"atoms={n} seed={s}"
            ops.append(Op(f"operator_norm {tag}",
                          lambda k=kernel, a=sigma, b=omega:
                          sg.operator_norm(k, a, b),
                          inputs=(sigma, omega, f, g)))
            ops.append(Op(f"apply {tag}", lambda k=kernel, a=sigma, b=omega,
                          x=f: sg.apply(k, a, x, b)))
            ops.append(Op(f"apply_transpose {tag}",
                          lambda k=kernel, a=sigma, b=omega, y=g:
                          sg.apply(k, b, y, a, transpose=True)))
        return ops

    def check(self, ops, outputs):
        outcomes, problems = [], []
        for i in range(0, len(ops), 3):
            trio = outputs[i:i + 3]
            for out in trio:
                if isinstance(out, BaseException):
                    outcomes.append(Outcome("failed", "", repr(out)))
                elif isinstance(out, float):
                    outcomes.append(Outcome("ok", digest(repr(out)),
                                            repr(out)))
                else:
                    outcomes.append(Outcome("ok", digest(out.tobytes())))
            if any(isinstance(out, BaseException) for out in trio):
                continue
            label = ops[i].label.split(" ", 1)[1]
            sigma, omega, f, g = ops[i].inputs
            norm, tf, tg = trio
            problems += [f"{label}: {p}" for p in
                         self._check_trio(norm, tf, sigma, f, tg, omega, g)]
        return outcomes, problems

    @staticmethod
    def _check_trio(norm, tf, sigma, f, tg, omega, g):
        """Norm bounds both Rayleigh quotients; apply and transpose are dual.

        <Tf, g>_omega = <f, T*g>_sigma for the transpose as ``apply``
        defines it, to rounding.
        """
        problems = []
        if not (math.isfinite(norm) and norm > 0.0):
            return [f"operator norm {norm!r}"]
        if tf.shape != (omega.natoms,) or tg.shape != (sigma.natoms,):
            return [f"apply shapes {tf.shape} {tg.shape}"]
        f_norm = math.sqrt(float(sigma.masses @ (f * f)))
        g_norm = math.sqrt(float(omega.masses @ (g * g)))
        tf_norm = math.sqrt(float(omega.masses @ (tf * tf)))
        tg_norm = math.sqrt(float(sigma.masses @ (tg * tg)))
        if tf_norm > norm * f_norm * (1 + 1e-6):
            problems.append(f"|Tf| {tf_norm!r} > norm * |f| "
                            f"{norm * f_norm!r}")
        if tg_norm > norm * g_norm * (1 + 1e-6):
            problems.append(f"|T*g| {tg_norm!r} > norm * |g| "
                            f"{norm * g_norm!r}")
        lhs = float(omega.masses @ (tf * g))
        rhs = float(sigma.masses @ (f * tg))
        scale = tf_norm * g_norm + f_norm * tg_norm
        if abs(lhs - rhs) > 1e-9 * scale:
            problems.append(f"<Tf,g> {lhs!r} != <f,T*g> {rhs!r}")
        return problems


WORKLOADS = {w.name: w for w in (
    VerifyWorkload("verify_1d", "verify_theorem at dim 1, res 8, 200 atoms: "
                   "kernel testing constants (singular.apply) dominate",
                   1, 8, 200, 4),
    # At res 5 one 2-D verify took 8-12 s and its cost moved with the seed
    # by a quarter; with two of them in a pass the seed alone spread the
    # pass time by 0.17 of its median.  Res 4 runs four in a pass, each
    # within a tenth of the others.
    VerifyWorkload("verify_2d", "verify_theorem at dim 2, res 4, 100 atoms: "
                   "Whitney energy and shifted coronas dominate",
                   2, 4, 100, 4),
    CliWorkload(),
    KernelWorkload(),
)}


def known_reds(tw) -> dict:
    """The two recorded known-red magnitudes of the acceptance suite.

    The Poisson maximum of the equal-weight measure at M=8 over the whole
    standard grid tree (continuum bound 2) and the Monte-Carlo bad
    probability at twelve-level separation (target 0.2).
    """
    M = 8
    mu = tw.measure.Measure.from_atoms(
        1, M, [((k,), 2.0 ** -M) for k in range(2 ** M)])
    grid = tw.grid.make_grid(1, M, 0, {"kind": "beta", "bits": [[0] * M]})
    worst, stack = 0.0, [grid.cube(0, (0,))]
    while stack:
        q = stack.pop()
        worst = max(worst, tw.poisson_a2.poisson("standard", q, mu, 0.0))
        if q.level < q.resolution:
            stack.extend(q.children())
    est, err = tw.grid.bad_probability_mc(1, 12, 0.5, 10000, 42)
    return {"poisson_max_M8": worst, "bad_probability_k12": est,
            "bad_probability_k12_stderr": err}
