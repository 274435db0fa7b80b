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

from .bfamily import mart_apply, sharp_norm_sq, star_norm_sq
from .corona import Corona, HalfSpaceMeasure, shifted_corona
from .grid import Cube, cube_at, cube_dict, kids, scaled_box4, whitney
from .measure import Measure, mass
from .poisson_a2 import _norm_moment, halfspace_poisson, poisson
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


def _weighted(mu: Measure, dens) -> Measure:
    """The measure with the given nonnegative density against mu."""
    dens = np.abs(np.asarray(dens, dtype=np.float64))
    keep = dens * mu.masses > 0
    return Measure(mu.dim, mu.resolution, mu.points[keep],
                   (mu.masses * dens)[keep])


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


def _groups(grids, cubes, tables, depth, by_level=False):
    """(grid, its tables, rows, masses, DP depth) of the enumerated cubes
    of positive mass in the first table, by grid and DP depth (and by
    level with by_level)."""
    gi, lev, aug, lo = cubes
    for g, grid in enumerate(grids):
        tabs = tables(grid)
        rows = np.flatnonzero(gi == g)
        qs = tabs[0].stats(*tabs[0].cube_slices(lev[rows], lo[rows],
                                                aug[rows]))[0]
        rows, qs = rows[qs > 0], qs[qs > 0]
        d = grid.M - lev[rows]
        d = d if depth is None else np.minimum(d, depth)
        key = lev[rows] if by_level else d
        for v in sorted(set(key.tolist())):
            yield grid, tabs, rows[key == v], qs[key == v], int(d[key == v][0])


def _strong_one_direction(grids, cubes, tables, alpha, depth):
    from .levels import partition, pieces, strong_terms, subpartition
    gi, lev, aug, lo = cubes
    ratio = np.zeros(len(gi))
    for grid, (amb, mom), rows, qs, d in _groups(grids, cubes, tables,
                                                 depth):
        terms = strong_terms(amb, mom, lev[rows], lo[rows], aug[rows], d,
                             alpha)
        ratio[rows] = subpartition(terms, grid.dim, d)[0][:, 0] / qs
    i = int(np.argmax(ratio)) if len(ratio) else 0
    if not len(ratio) or ratio[i] <= 0.0:
        return 0.0, None, []
    grid, level, top = grids[gi[i]], int(lev[i]), lo[i:i + 1]
    d = grid.M - level if depth is None else min(depth, grid.M - level)
    amb, mom = tables(grid)
    terms = strong_terms(amb, mom, level, top, aug[i:i + 1], d, alpha)
    best = subpartition(terms, grid.dim, d)
    parts = [cube_at(grid, level + k, pieces(grid, level, top, k)[0, m],
                     aug[i]) for k, m in partition(terms, best, grid.dim, 0)]
    return math.sqrt(ratio[i]), cube_at(grid, level, lo[i], aug[i]), parts


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
    from .levels import Levels, tops
    cubes = tops(grids, sigma, omega)
    tabs = {g: (Levels(sigma, g), Levels(omega, g)) for g in grids}
    s, w, p = _strong_one_direction(grids, cubes, tabs.get, alpha, depth)
    s2, w2, _ = _strong_one_direction(grids, cubes, lambda g: tabs[g][::-1],
                                      alpha, depth)
    return EnergyReport(strong=s, strong_star=s2, depth=depth,
                        strong_witness=w, strong_partition=p,
                        strong_star_witness=w2)


# ---------------------------------------------------------------------------
# Whitney energies


_WHITNEY_VARIANTS = ("hole", "partial", "plug")


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
    from .levels import Levels, subpartition, tops, whitney_terms
    cubes = tops(grids, sigma, omega)
    gi, lev, aug, lo = cubes
    ratio = np.zeros((len(names), len(gi)))
    for grid, (amb, mom), rows, qs, d in _groups(
            grids, cubes, lambda g: (Levels(sigma, g), Levels(omega, g)),
            depth, by_level=True):
        terms = whitney_terms(amb, mom, int(lev[rows[0]]), lo[rows],
                              aug[rows], d, alpha, gamma, names)
        for r, name in enumerate(names):
            ratio[r, rows] = subpartition(terms[name], grid.dim,
                                          d)[0][:, 0] / qs
    found = {}
    for r, name in zip(ratio, names):
        i = int(np.argmax(r)) if len(r) else 0
        found[name] = (math.sqrt(r[i]), cube_at(grids[gi[i]], int(lev[i]),
                                                lo[i], aug[i])) \
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

    mu_abs = _weighted(mu_meas, dens)
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
    pseudoprojection onto the shifted-corona cubes inside M.
    """
    body_cache: dict = {}
    contrib: dict = {}      # shifted-corona cube -> its sharp-norm square
    out = []
    for f_cube in corona.stopping:
        shift = shifted_corona(corona, f_cube, grid_g, eps, body_cache)
        for j in shift:
            if j not in contrib:
                contrib[j] = sharp_norm_sq(fam_omega, [j])
        chosen, residual = whitney(f_cube)
        for m in chosen + residual:
            q = sum(contrib[j] for j in shift if m.contains_cube(j))
            out.append((m, q))
    return out


def functional_energy_lhs(h, context, sigma: Measure, alpha: float) -> float:
    """Whitney-Poisson pairing of |h| dsigma against the context energies."""
    h = np.asarray(h, dtype=np.float64)
    hs = _weighted(sigma, h)
    total = 0.0
    for m, q in context:
        if q <= 0.0:
            continue
        p = poisson("standard", m, hs, alpha)
        total += (p / m.sidelength) ** 2 * q
    return total


def functional_energy_estimate(context, sigma: Measure, alpha: float,
                               root: Cube, seed: int = 0,
                               n_sign: int = 8) -> dict:
    """Lower estimate of the functional energy constant over a dictionary.

    The dictionary holds normalized cube indicators plus random sign
    vectors; the estimate is the largest square root of the pairing per
    unit L2(sigma) norm of h.
    """
    rng = np.random.default_rng(seed)
    dictionary = []
    stack = [root]
    while stack:            # depth first, below nonempty cubes only
        q = stack.pop()
        sel = sigma.in_cube(q)
        qm = float(sigma.masses[sel].sum())
        if qm > 0.0:
            dictionary.append(("indicator", sel.astype(np.float64)
                               / math.sqrt(qm)))
            stack.extend(kids(q))
    for _ in range(n_sign):
        signs = rng.choice([-1.0, 1.0], size=sigma.natoms)
        nrm = math.sqrt(float(sigma.masses.sum()))
        dictionary.append(("signs", signs / nrm))
    best, kind = 0.0, None
    for name, h in dictionary:
        val = functional_energy_lhs(h, context, sigma, alpha)
        if val > best:
            best, kind = val, name
    return {"value": math.sqrt(best), "best_kind": kind,
            "dictionary_size": len(dictionary)}


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
    sel_i = sigma.in_cube(i_cube)
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
