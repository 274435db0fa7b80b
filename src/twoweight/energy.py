"""Energy constants, functional energy, and half-space testing.

Strong and Whitney energies are suprema over enumerated cubes and dyadic
subpartitions; the subpartition search is a dynamic program over the
tree, so deeper searches never lose to shallower ones.  Functional
energy is estimated from below over a finite dictionary of test
functions, and the Appendix-style half-space inequalities are evaluated
verbatim on atomic measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bfamily import mart_apply, sharp_norm_sq, sharp_norms_sq, \
    star_norm_sq
from .corona import Corona, HalfSpaceMeasure, shifted_corona
from .grid import Cube, cube_arrays, cube_at, cube_dict, holders, \
    scaled_box4, whitney
from .measure import Measure, mass
from .poisson_a2 import _norm_moment, halfspace_poisson, poisson, \
    poisson_kernel
from .singular import apply as kernel_apply

__all__ = [
    "EnergyReport",
    "strong_energy",
    "whitney_energy",
    "monotonicity_check",
    "functional_energy_context",
    "functional_energy_lhs",
    "functional_energy_estimate",
    "mu_bar_from_corona",
    "halfspace_testing",
]


# ---------------------------------------------------------------------------
# strong energy


@dataclass
class EnergyReport:
    strong: float = 0.0
    strong_star: float = 0.0
    depth: int | None = None
    strong_witness: Cube | None = None
    strong_partition: list = field(default_factory=list)
    strong_star_witness: Cube | None = None
    whitney: dict = field(default_factory=dict)

    @property
    def aggregate(self) -> float:
        return self.strong + self.strong_star

    def as_dict(self) -> dict:
        return {
            "strong": self.strong,
            "strong_star": self.strong_star,
            "aggregate": self.aggregate,
            "depth": self.depth,
            "strong_witness": cube_dict(self.strong_witness),
            "strong_star_witness": cube_dict(self.strong_star_witness),
            "whitney": dict(self.whitney),
        }


def _strong_ratios(tp, grids, k: int, alpha: float, depth) -> tuple:
    """Each top's best subpartition sum over its mass, measure k of the
    pair the ambient and the other the moments, and a function giving
    top i's best subpartition as (depth, index) pairs."""
    from .levels import best_sums, partition, strong_terms
    ratio, runs = np.zeros(len(tp.gi)), {}
    for g, grid in enumerate(grids):
        rows, d = tp.by_depth(g, k, depth)
        amb, mom = tp.tables[g][k], tp.tables[g][1 - k]
        terms = strong_terms(amb, mom, tp.lev[rows], tp.lo[rows], d, alpha,
                             tp.slices(g, k, rows), tp.moment[1 - k, rows])
        best, found = best_sums(terms, d, grid.dim)
        ratio[rows] = best / tp.mass[k, rows]
        runs[g] = rows, found

    def parts(i: int) -> list:
        rows, found = runs[tp.gi[i]]
        t = int(np.flatnonzero(rows == i)[0])
        a, terms, best = [r for r in found if r[0] <= t][-1]
        return partition(terms, best, grids[tp.gi[i]].dim, t - a)
    return ratio, parts


def _strong_one_direction(tp, grids, k, alpha, depth):
    from .levels import pieces
    ratio, parts = _strong_ratios(tp, grids, k, alpha, depth)
    i = int(np.argmax(ratio)) if len(ratio) else 0
    if not len(ratio) or ratio[i] <= 0.0:
        return 0.0, None, []
    grid, level, aug = grids[tp.gi[i]], int(tp.lev[i]), tp.aug[i]
    top = tp.lo[i:i + 1]
    return math.sqrt(ratio[i]), cube_at(grid, level, tp.lo[i], aug), [
        cube_at(grid, level + d, pieces(grid, level, top, d)[0, m], aug)
        for d, m in parts(i)]


def strong_energy(sigma: Measure, omega: Measure, grids, alpha: float,
                  depth: int | None = 3) -> EnergyReport:
    """Strong energy constants of the pair, both directions.

    The value squared is the largest, over enumerated cubes I and dyadic
    subpartitions of I at most `depth` levels deep (None for unlimited),
    of the normalized sum of squared Poisson-to-sidelength quotients
    weighted by the second omega-moments of the pieces.
    """
    if depth is not None and depth < 1:
        raise ValueError("depth must be at least 1 (or None)")
    if not 0 <= alpha < sigma.dim:
        raise ValueError("alpha must lie in [0, n)")
    tp = sigma.tops(grids, omega)
    s, w, p = _strong_one_direction(tp, grids, 0, alpha, depth)
    s2, w2, _ = _strong_one_direction(tp, grids, 1, alpha, depth)
    return EnergyReport(strong=s, strong_star=s2, depth=depth,
                        strong_witness=w, strong_partition=p,
                        strong_star_witness=w2)


# ---------------------------------------------------------------------------
# Whitney energies


_WHITNEY_VARIANTS = ("hole", "partial", "plug")


def _whitney_ratios(tp, grids, alpha: float, gamma: float, names,
                    depth) -> np.ndarray:
    """(variants, tops) best subpartition sums over the sigma-masses."""
    from .levels import best_sums, whitney_terms
    ratio = np.zeros((len(names), len(tp.gi)))
    for g, grid in enumerate(grids):
        rows, d = tp.by_depth(g, 0, depth)
        terms = whitney_terms(*tp.tables[g], tp.lev[rows], tp.lo[rows], d,
                              alpha, gamma, names, tp.slices(g, 0, rows))
        for r, name in enumerate(names):
            ratio[r, rows] = best_sums(terms[name], d, grid.dim)[0] \
                / tp.mass[0, rows]
    return ratio


def whitney_energy(sigma: Measure, omega: Measure, grids, alpha: float,
                   gamma: float, variants, depth: int | None = None) -> dict:
    """Whitney-decomposed energies with a hole, partial hole, or plug.

    For each enumerated cube I and each subpartition piece, the Whitney
    cubes M of the piece contribute Poisson quotients of sigma on I with
    gamma*M removed (hole), M removed (partial), or nothing removed
    (plug), weighted by the omega-moments of M.  Returns {variant:
    (value, witness cube)} for the variants named, all from one pass
    over the cubes.
    """
    if not 1.0 < gamma <= 5.0:
        raise ValueError("gamma must lie in (1, 5]")
    if not 0 <= alpha < sigma.dim:
        raise ValueError("alpha must lie in [0, n)")
    names = tuple(variants)
    for name in names:
        if name not in _WHITNEY_VARIANTS:
            raise ValueError(f"unknown Whitney variant {name!r}")
    tp = sigma.tops(grids, omega)
    found = {}
    for r, name in zip(_whitney_ratios(tp, grids, alpha, gamma, names,
                                       depth), names):
        i = int(np.argmax(r)) if len(r) else 0
        found[name] = (math.sqrt(r[i]), cube_at(
            grids[tp.gi[i]], int(tp.lev[i]), tp.lo[i], tp.aug[i])) \
            if len(r) and r[i] > 0.0 else (0.0, None)
    return found


# ---------------------------------------------------------------------------
# monotonicity and pivotal checks


def monotonicity_check(kernel, i_cube: Cube, j_cube: Cube,
                       mu_meas: Measure, mu_density, psi, family,
                       delta: float = 1.0, gamma: float = 2.0) -> dict:
    """Evaluates both sides of the one-sided monotonicity estimate.

    The left side pairs the operator applied to the signed measure with
    the dual martingale difference of psi on J; the right side is the
    compact Poisson-energy functional of |mu| on J times the star norm.
    Requires gamma*J inside I and mu supported outside I.
    """
    omega = family.mu
    lo4, hi4 = scaled_box4(j_cube, gamma)
    if not all(i_cube.lo4[a] <= lo4[a] and hi4[a] <= i_cube.hi4[a]
               for a in range(j_cube.dim)):
        raise ValueError("gamma*J must sit inside I")
    if bool(mu_meas.in_cube(i_cube).any()):
        raise ValueError("mu must be supported outside I")
    psi = np.asarray(psi, dtype=np.float64)
    dens = np.asarray(mu_density, dtype=np.float64)

    box_psi = mart_apply(family, "Box", j_cube, psi)
    t_mu = kernel_apply(kernel, mu_meas, dens, omega)
    lhs = abs(float(np.dot(omega.masses, t_mu * box_psi)))

    keep = np.abs(dens) * mu_meas.masses > 0
    mu_abs = Measure(mu_meas.dim, mu_meas.resolution, mu_meas.points[keep],
                     (mu_meas.masses * np.abs(dens))[keep])
    ell = j_cube.sidelength
    p_std = poisson("standard", j_cube, mu_abs, kernel.alpha) / ell
    p_small = poisson("small", j_cube, mu_abs, kernel.alpha,
                      delta=delta) / ell
    sharp_j = math.sqrt(sharp_norm_sq(family, [j_cube]))
    mom_j = math.sqrt(_norm_moment(j_cube, omega))
    phi = p_std * sharp_j + p_small * mom_j
    star = math.sqrt(star_norm_sq(family, [j_cube], psi))

    rhs = phi * star
    if rhs > 0.0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else math.inf

    piv_denom = poisson("standard", j_cube, mu_abs, kernel.alpha) \
        * math.sqrt(mass(j_cube, omega)) \
        * math.sqrt(float(np.dot(omega.masses, box_psi * box_psi)))
    pivotal = lhs / piv_denom if piv_denom > 0.0 else \
        (0.0 if lhs == 0.0 else math.inf)
    return {"lhs": lhs, "phi": phi, "star": star, "ratio": ratio,
            "pivotal": pivotal}


# ---------------------------------------------------------------------------
# functional energy


def functional_energy_context(corona: Corona, grid_g, fam_omega, eps: float,
                              alpha: float) -> list:
    """Whitney cubes of the corona tops with their shifted-corona energies.

    Returns a list of (M, q) where M runs over the Whitney cubes of each
    stopping cube F and q is the sharp-norm square of the coordinate
    pseudoprojection onto the shifted-corona cubes inside M, summed over
    them in `grid_g.cubes()` order (the int 0 when there are none).
    """
    out, n = [], corona.root.dim
    shifts = shifted_corona(corona, grid_g, eps)
    norms = sharp_norms_sq(fam_omega, sum(shifts, []))
    at = np.cumsum([0] + [len(s) for s in shifts])
    for f_cube, shift, a in zip(corona.stopping, shifts, at.tolist()):
        ms = sum(whitney(f_cube), [])       # chosen, then residual
        i, k = holders(*cube_arrays(ms, n), *cube_arrays(shift, n))
        o = np.argsort(i, kind="stable")    # each sum in shift order
        v = np.bincount(k[o], norms[a + i[o]], len(ms))
        count = np.bincount(k, minlength=len(ms))
        out += [(m, x if c else 0) for m, x, c in zip(ms, v.tolist(),
                                                      count.tolist())]
    return out


def functional_energy_lhs(h, context, sigma: Measure, alpha: float):
    """Whitney-Poisson pairing of |h| dsigma against the context energies,
    for one function h over sigma's atoms (a float back) or a stack of
    them, one per row (an array back): one matrix of Poisson values
    serves every row, and each row is summed on its own, so equal rows
    give equal values."""
    h = np.asarray(h, dtype=np.float64)
    stack, rows = np.atleast_2d(h), [(m, q) for m, q in context if q > 0.0]
    out = np.zeros(len(stack))
    if rows and sigma.natoms:
        ell = np.array([m.sidelength for m, _ in rows])
        q = np.array([q for _, q in rows])
        d = sigma.coords_float() - np.array([m.center() for m, _ in rows])[
            :, None]
        kern = poisson_kernel("standard", ell[:, None],
                              np.sqrt((d * d).sum(axis=2)), sigma.dim, alpha)
        step = max(1, (1 << 14) // kern.size)     # products per block
        for b in range(0, len(out), step):
            hw = np.abs(stack[b:b + step]) * sigma.masses
            p = (hw[:, None] * kern).sum(axis=2)
            out[b:b + step] = ((p / ell) ** 2 * q).sum(axis=1)
    return float(out[0]) if h.ndim == 1 else out


def functional_energy_estimate(context, sigma: Measure, alpha: float,
                               root: Cube, seed: int = 0,
                               n_sign: int = 8) -> dict:
    """Lower estimate of the functional energy constant over a dictionary.

    The dictionary holds normalized cube indicators plus random sign
    vectors; the estimate is the largest square root of the pairing per
    unit L2(sigma) norm of h.  The indicators are of the nonempty cubes
    below root, depth first, off the level table of root's grid.
    """
    rng = np.random.default_rng(seed)
    lv = sigma.levels(root.grid)
    walk = lv.subtree(root).tolist()
    stack = np.zeros((len(walk) + n_sign, sigma.natoms))
    for d, r in enumerate(walk):
        stack[d, lv.atoms(r)] = 1.0 / math.sqrt(mass(lv.atoms(r), sigma))
    for d in range(len(walk), len(stack)):
        signs = rng.choice([-1.0, 1.0], size=sigma.natoms)
        stack[d] = signs / math.sqrt(float(sigma.masses.sum()))
    vals = np.r_[0.0, functional_energy_lhs(stack, context, sigma, alpha)]
    i = int(np.argmax(vals))        # the first largest, 0 if none is > 0
    return {"value": math.sqrt(vals[i]), "dictionary_size": len(stack),
            "best_kind": None if i == 0 else "indicator" if i <= len(walk)
            else "signs"}


# ---------------------------------------------------------------------------
# half-space testing


def mu_bar_from_corona(context) -> tuple:
    """Half-space measures (mu, mu/t^2) from a functional-energy context."""
    cubes = [m for m, _ in context]
    masses = np.array([q for _, q in context], dtype=np.float64)
    mu = HalfSpaceMeasure.from_cubes(cubes, masses)
    sides = np.array([m.sidelength for m in cubes], dtype=np.float64)
    scaled = np.divide(masses, sides * sides, out=np.zeros_like(masses),
                       where=sides > 0)
    mu_bar = HalfSpaceMeasure.from_cubes(cubes, scaled)
    return mu, mu_bar


def halfspace_testing(i_cube: Cube, mu_bar: HalfSpaceMeasure,
                      sigma: Measure, alpha: float, consts: dict) -> dict:
    """Forward and backward half-space Poisson testing on one cube.

    consts needs e2, calA2, calA2_star, punct.  Both sides of each
    inequality are returned along with their quotients (None when the
    right side vanishes).
    """
    n = sigma.dim
    lv = sigma.levels(i_cube.grid)
    sel_i = np.zeros(sigma.natoms, dtype=bool)
    sel_i[lv.atoms(lv.rows(i_cube.level, np.array(i_cube.lo)))] = True
    sigma_i = sigma.subset(sel_i)
    qs = float(sigma.masses[sel_i].sum())

    centers = mu_bar.centers4.astype(np.float64) / 2.0 ** (mu_bar.resolution
                                                           + 2)
    ts = mu_bar.sides.astype(np.float64) / 2.0 ** mu_bar.resolution
    fwd_lhs = 0.0
    for c, t, w in zip(centers, ts, mu_bar.masses):
        if w <= 0.0 or t <= 0.0:
            continue
        val = halfspace_poisson("forward", alpha=alpha, n=n, x=c, t=t,
                                rho=sigma_i)
        fwd_lhs += w * val * val
    fwd_rhs = (consts["e2"] ** 2 + consts["calA2"] + consts["calA2_star"]
               + consts["punct"]) * qs

    tent = mu_bar.tent_mask(i_cube)
    bwd_lhs = 0.0
    if tent.any():
        ys = centers[tent]
        tt = ts[tent]
        ws = mu_bar.masses[tent]
        for x, w in zip(sigma.coords_float(), sigma.masses):
            val = halfspace_poisson("dual", alpha=alpha, n=n, x=x,
                                    upper_atoms=(ys, tt, ws))
            bwd_lhs += w * val * val
    bwd_rhs = (consts["e2"] ** 2 + consts["calA2"] + consts["punct"]) \
        * mu_bar.second_coordinate_sq_integral(i_cube)

    return {
        "forward_lhs": fwd_lhs,
        "forward_rhs": fwd_rhs,
        "forward_ratio": fwd_lhs / fwd_rhs if fwd_rhs > 0.0 else None,
        "backward_lhs": bwd_lhs,
        "backward_rhs": bwd_rhs,
        "backward_ratio": bwd_lhs / bwd_rhs if bwd_rhs > 0.0 else None,
    }
