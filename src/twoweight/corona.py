"""Stopping-time constructions on dyadic trees over atomic measures.

A corona decomposition is a forest of stopping cubes inside a root cube
together with the criterion each stopping cube satisfied.  Everything
below works with exact finite recursions: averages and tent masses are
finite sums, and stopping cubes come from depth-first scans of the
dyadic tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Cube, Grid, cube_arrays, dilate4, holders, kids, \
    morton_index, sharp_cross
from .measure import Measure, average, mass

__all__ = [
    "Corona",
    "HalfSpaceMeasure",
    "cz_stopping",
    "accretive_stopping",
    "energy_stopping",
    "stopping_data",
    "indented_corona",
    "shifted_corona",
    "carleson_norm",
    "generation_masses",
]


# ---------------------------------------------------------------------------
# the corona object


@dataclass
class Corona:
    kind: str
    mu: Measure
    root: Cube
    stopping: list                       # all stopping cubes, root first
    parent: dict                         # forest parent links, root -> None
    alpha_bound: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    criteria: dict = field(default_factory=dict)   # cube -> firing record
    energies: dict = field(default_factory=dict)   # top -> stopping energy^2

    def forest_children(self, f: Cube) -> list:
        return [g for g in self.stopping if self.parent.get(g) == f]

    def corona_of(self, f: Cube) -> list:
        """Cubes of the restricted corona below f, coarse to fine; the
        walk stops at f's forest children, found by key."""
        below, out, stack = set(self.forest_children(f)), [], [f]
        while stack:
            q = stack.pop()
            out.append(q)
            stack.extend(c for c in kids(q) if c not in below)
        return sorted(out, key=lambda q: (-q.side, q.lo))

    def depth(self, f: Cube) -> int:
        d, cur = 0, f
        while self.parent.get(cur) is not None:
            cur = self.parent[cur]
            d += 1
        return d

# ---------------------------------------------------------------------------
# the stopping-time driver


def _stop(mu: Measure, root: Cube, criterion) -> tuple:
    """One stopping-time construction below root.

    criterion(top) returns test(q, qs) for the corona of top: the record
    of the criteria that the cube q, of mu-mass qs > 0, fires, empty when
    q stays in the corona.  Each corona is scanned depth first from the
    children of its top; zero-mass cubes are skipped, and every stopping
    cube becomes a new top.  Returns (stopping cubes coarse to fine,
    forest parents, records of the non-root stopping cubes).
    """
    stopping, parents, crit = [root], {root: None}, {}
    queue = [root]
    while queue:
        top = queue.pop()
        test = criterion(top)
        stack = kids(top)
        while stack:
            q = stack.pop()
            qs = float(mu.masses[mu.atoms(q)].sum())
            if qs <= 0.0:
                continue
            rec = test(q, qs)
            if rec:
                stopping.append(q)
                parents[q] = top
                crit[q] = rec
                queue.append(q)
            else:
                stack.extend(kids(q))
    return sorted(stopping, key=lambda q: (-q.side, q.lo)), parents, crit


# ---------------------------------------------------------------------------
# Calderon-Zygmund stopping times


def cz_stopping(mu: Measure, f, root: Cube, c0: float) -> Corona:
    """Stopping cubes where the local average of |f| jumps by factor c0.

    Generations are recursive: below each stopping cube the comparison
    average resets to that cube's own.
    """
    if c0 <= 1.0:
        raise ValueError("c0 must exceed 1")
    f_abs = np.abs(np.asarray(f, dtype=np.float64))
    alphas = {}

    def criterion(top: Cube):
        a_top = alphas[top] = average(top, mu, f_abs)

        def test(q: Cube, qs: float) -> dict:
            a = average(q, mu, f_abs)
            return {"cz": a} if a_top > 0.0 and a > c0 * a_top else {}

        return test

    order, parents, crit = _stop(mu, root, criterion)
    return Corona("cz", mu, root, order, parents, alphas,
                  params={"c0": c0}, criteria=crit)


# ---------------------------------------------------------------------------
# accretive / weak-testing stopping times


def accretive_stopping(fam, t_diag, root: Cube, gamma: float,
                       big_gamma: float, t_const: float) -> Corona:
    """Stop where the family average degenerates or local testing blows up.

    t_diag(q, top) must return the integral over q of |T(b_top)|^2
    against the target measure, with b_top the family's function on the
    current corona top.  A cube stops when |avg b_top| < gamma or that
    integral exceeds big_gamma * t_const^2 * |q|_sigma.
    """
    if not 0.0 < gamma < 1.0 < big_gamma:
        raise ValueError("need 0 < gamma < 1 < big_gamma")
    mu = fam.mu
    thresh = big_gamma * t_const * t_const

    def criterion(top: Cube):
        b_top = fam.b(top)

        def test(q: Cube, qs: float) -> dict:
            rec = {}
            a = average(q, mu, b_top)
            if abs(a) < gamma:
                rec["accretive"] = a
            ti = t_diag(q, top)
            if ti > thresh * qs:
                rec["weak_testing"] = ti / qs
            return rec

        return test

    order, parents, crit = _stop(mu, root, criterion)
    return Corona("accretive", mu, root, order, parents,
                  params={"gamma": gamma, "big_gamma": big_gamma,
                          "t_const": t_const}, criteria=crit)


# ---------------------------------------------------------------------------
# energy stopping times


def energy_stopping(sigma: Measure, omega: Measure, root: Cube,
                    c_en: float, e2: float, a2: float, alpha: float,
                    depth: int | None = None) -> Corona:
    """Stop where the subpartition energy reaches c_en(e2^2 + a2)|I|_sigma.

    The Poisson ambient is sigma on the current corona top, whose whole
    subtree is solved at once.  The per-corona stopping energy (largest
    quotient over strictly inner cubes) is recorded; by construction it
    stays below the threshold.
    """
    if c_en <= 1.0:
        raise ValueError("c_en must exceed 1")
    from .levels import strong_terms, subpartition
    tau = c_en * (e2 * e2 + a2)
    grid = root.grid
    amb, mom = sigma.levels(grid), omega.levels(grid)
    energies = {}

    def criterion(top: Cube):
        lo, d = np.array([top.lo]), grid.M - top.level
        terms = strong_terms(amb, mom, top.level, lo, np.zeros(1, bool), d,
                             alpha)
        best = subpartition(terms, grid.dim,
                            d if depth is None else min(depth, d))
        energies[top] = 0.0

        def test(q: Cube, qs: float) -> dict:
            k = q.level - top.level
            rel = [(a - b) // q.side for a, b in zip(q.lo, top.lo)]
            val = float(best[k][0, morton_index(rel, k)]) / qs
            if val >= tau and tau > 0.0:
                return {"energy": val}
            energies[top] = max(energies[top], val)
            return {}

        return test

    order, parents, crit = _stop(sigma, root, criterion)
    return Corona("energy", sigma, root, order, parents,
                  params={"c_en": c_en, "e2": e2, "a2": a2, "alpha": alpha,
                          "depth": depth, "tau": tau},
                  criteria=crit, energies=energies)


# ---------------------------------------------------------------------------
# stopping data verification


def stopping_data(corona: Corona, f) -> dict:
    """Checks the four stopping-data properties and the quasi-orthogonality.

    Returns the measured constants; `ok` collects per-property pass flags
    with witnesses for any failure.
    """
    mu = corona.mu
    f = np.asarray(f, dtype=np.float64)
    f_abs = np.abs(f)
    c0 = corona.params.get("c0", 1.0)
    norm_sq = float(np.dot(mu.masses, f * f))

    # (1) corona control of averages
    prop1, wit1 = 0.0, None
    for top in corona.stopping:
        a = corona.alpha_bound.get(top, 0.0)
        if a <= 0.0:
            continue
        for q in corona.corona_of(top):
            if float(mu.masses[mu.atoms(q)].sum()) <= 0.0:
                continue
            r = average(q, mu, f_abs) / a
            if r > prop1:
                prop1, wit1 = r, (top, q)

    # (2) sigma-Carleson of the stopping family
    carleson = carleson_norm(corona.stopping, mu)

    # (3) quasi-orthogonality sum
    quasi = sum(corona.alpha_bound.get(top, 0.0) ** 2
                * mass(top, mu) for top in corona.stopping)
    quasi_ratio = quasi / norm_sq if norm_sq > 0 else 0.0

    # (4) monotonicity of the alpha bounds along the forest
    mono, wit4 = True, None
    for top in corona.stopping:
        p = corona.parent.get(top)
        if p is not None and corona.alpha_bound.get(top, 0.0) \
                < corona.alpha_bound.get(p, 0.0) - 1e-12:
            mono, wit4 = False, (p, top)

    # pointwise quasi-orthogonal sum against f
    g = np.zeros(mu.natoms)
    for top in corona.stopping:
        g[mu.atoms(top)] += corona.alpha_bound.get(top, 0.0)
    qorth = float(np.dot(mu.masses, g * g)) / norm_sq if norm_sq > 0 else 0.0

    a0 = max(c0, carleson, math.sqrt(quasi_ratio) if quasi_ratio > 0 else 0.0)
    return {
        "a0": a0,
        "avg_control": prop1,
        "avg_control_ok": prop1 <= c0 + 1e-12,
        "avg_control_witness": wit1,
        "carleson": carleson,
        "quasi_ratio": quasi_ratio,
        "alpha_monotone": mono,
        "alpha_monotone_witness": wit4,
        "qorth_ratio": qorth,
    }


# ---------------------------------------------------------------------------
# half-space measures and tents


@dataclass
class HalfSpaceMeasure:
    """Atomic measure on the upper half space with dyadic-friendly atoms.

    Atoms sit at (center, t) where t is a cube sidelength; coordinates
    are stored as integer quarter units so tent membership is exact.
    """

    dim: int
    resolution: int
    centers4: np.ndarray           # (k, dim) int64, quarter units
    sides: np.ndarray              # (k,) int64, lattice units
    masses: np.ndarray

    @staticmethod
    def from_cubes(cubes, masses) -> "HalfSpaceMeasure":
        cubes = list(cubes)
        masses = np.asarray(masses, dtype=np.float64)
        if len(cubes) != len(masses):
            raise ValueError("one mass per cube required")
        if not cubes:
            return HalfSpaceMeasure(0, 0, np.zeros((0, 0), dtype=np.int64),
                                    np.zeros(0, dtype=np.int64), masses)
        return HalfSpaceMeasure(cubes[0].dim, cubes[0].resolution,
                                np.array([q.center4 for q in cubes],
                                         dtype=np.int64),
                                np.array([q.side for q in cubes],
                                         dtype=np.int64), masses)

    @property
    def total(self) -> float:
        return float(self.masses.sum())

    def tent_mask(self, k: Cube) -> np.ndarray:
        """Atoms (c, t) whose cube of side t centered at c sits inside k."""
        if len(self.masses) == 0:
            return np.zeros(0, dtype=bool)
        if k.resolution != self.resolution:
            raise ValueError(f"cube at resolution {k.resolution} meets a "
                             f"measure at resolution {self.resolution}")
        off = np.abs(self.centers4 - np.array(k.center4)).max(axis=1)
        return (self.sides <= k.side) & (off <= 2 * (k.side - self.sides))

    def second_coordinate_sq_integral(self, k: Cube | None = None) -> float:
        """Integral of t^2, optionally over the tent of k."""
        t = self.sides / 2.0 ** self.resolution
        if k is None:
            return float(np.dot(self.masses, t * t))
        sel = self.tent_mask(k)
        return float(np.dot(self.masses[sel], (t * t)[sel]))


# ---------------------------------------------------------------------------
# the indented subforest


def indented_corona(l_cubes) -> tuple:
    """Subforest of cubes whose triples nest in their forest parents.

    Accepts the flat collection (or generations) and returns (levels,
    parent) where levels[k] lists the depth-k cubes; every cube at depth
    one or more satisfies 3H inside its parent exactly.
    """
    flat = list(dict.fromkeys(q for item in l_cubes for q in (
        [item] if isinstance(item, Cube) else item)))
    if not flat:
        return [], {}
    lo, side = cube_arrays(flat, flat[0].dim)
    i, k = holders(lo, side, lo, side)
    i, k = i[i != k], k[i != k]         # flat[k] strictly holds flat[i]
    t_lo, t_hi = dilate4(lo[i], side[i], 3)
    nest = ((4 * lo[k] <= t_lo)
            & (t_hi <= 4 * (lo[k] + side[k][:, None]))).all(axis=1)
    tier = sorted(set(range(len(flat))) - set(i.tolist()))
    levels, parent = [], {flat[t]: None for t in tier}
    while tier:
        levels.append(sorted({flat[t] for t in tier},
                             key=lambda q: (-q.side, q.lo)))
        nxt = []
        for h in tier:      # its largest candidates, in the family's order
            cands = set(i[(k == h) & nest].tolist())
            for c in sorted(cands - set(i[np.isin(k, list(cands))].tolist())):
                parent[flat[c]] = flat[h]
                nxt.append(c)
        tier = nxt
    return levels, parent


# ---------------------------------------------------------------------------
# shifted coronas


def shifted_corona(corona: Corona, grid_g: Grid, eps: float) -> list:
    """The shifted coronas of the stopping cubes, in their order, each in
    `grid_g.cubes()` order: J lies in F's when its crossover (one
    `sharp_cross` call finds them all) exists and lies in F's restricted
    corona, that is when F is the deepest stopping cube holding it."""
    js = list(grid_g.cubes())
    crossed = [(j, q) for j, (q, _) in zip(
        js, sharp_cross(js, corona.root.grid, eps)) if q is not None]
    stop = cube_arrays(corona.stopping, corona.root.dim)
    i, k = holders(*stop, *cube_arrays([q for _, q in crossed],
                                       corona.root.dim))
    o = np.argsort(-stop[1][k], kind="stable")    # the deepest holder last
    top = dict(zip(i[o].tolist(), k[o].tolist()))
    out = [[] for _ in corona.stopping]
    for a in sorted(top):
        out[top[a]].append(crossed[a][0])
    return out


# ---------------------------------------------------------------------------
# Carleson norms and generation masses


def carleson_norm(cube_family, mu: Measure) -> float:
    """Largest quotient sum of member masses inside S over |S|_mu."""
    fam = list(cube_family)
    uniq = list(dict.fromkeys(fam))
    m = np.array([mass(s, mu) for s in uniq])
    i, k = holders(*cube_arrays(uniq, mu.dim),
                   *cube_arrays(fam, mu.dim))       # uniq[k] holds fam[i]
    o = np.argsort(i, kind="stable")                # each sum in fam order
    tot = np.bincount(k[o], np.array([mass(f, mu) for f in fam])[i[o]],
                      len(uniq))
    return float((tot[m > 0] / m[m > 0]).max(initial=0.0))


def generation_masses(corona: Corona) -> list:
    """Total stopping-cube mass per forest depth, depth 0 first."""
    by_depth = {}
    for f in corona.stopping:
        by_depth.setdefault(corona.depth(f), 0.0)
        by_depth[corona.depth(f)] += mass(f, corona.mu)
    return [by_depth[k] for k in sorted(by_depth)]
