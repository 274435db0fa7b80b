"""Stopping-time constructions on dyadic trees over atomic measures.

A corona decomposition is a forest of stopping cubes inside a root cube
together with the criterion each stopping cube satisfied.  Everything
below works with exact finite recursions: averages and tent masses are
finite sums, and stopping cubes come from one array pass per corona top
over the rows of the measure's level table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Cube, Grid, cube_arrays, cube_at, dilate4, holders, \
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
    # rows of mu.levels(root.grid): each stopping cube's, and each row's
    # top as an index into stopping (-1 outside the root)
    rows: np.ndarray = field(default_factory=lambda: np.zeros(0, int))
    top_of: np.ndarray = field(default_factory=lambda: np.zeros(0, int))

    def forest_children(self, f: Cube) -> list:
        return [g for g in self.stopping if self.parent.get(g) == f]

    def corona_of(self, f: Cube) -> list:
        """Nonempty cubes of the restricted corona below f, coarse to
        fine: the rows whose top is f."""
        lv = self.mu.levels(self.root.grid)
        rows = np.flatnonzero(self.top_of == self.stopping.index(f))
        return sorted((_cube(lv, r) for r in rows.tolist()),
                      key=lambda q: (-q.side, q.lo))

    def depth(self, f: Cube) -> int:
        d, cur = 0, f
        while self.parent.get(cur) is not None:
            cur = self.parent[cur]
            d += 1
        return d

# ---------------------------------------------------------------------------
# the stopping-time driver


def _cube(lv, r: int) -> Cube:
    return cube_at(lv.grid, int(lv.level[r]), lv.corner[r])


def _stopping_time(kind: str, mu: Measure, root: Cube, criterion,
                   **fields) -> Corona:
    """One stopping-time construction below root on mu's level table.

    criterion(top, t, rows) returns {name: (fires, value)}, arrays over
    the rows below the top, of row t (`Levels.below` order; the nonempty
    cubes).  A row is tested when no row strictly between it and its top
    fired, and the tested rows that fire, with the values of the names
    they fire, become the next tops: one array pass per top.
    """
    lv = mu.levels(root.grid)
    r0 = int(lv.rows(root.level, np.array(root.lo)))
    cube, parent, crit = {r0: root}, {root: None}, {}
    top = np.full(len(lv.level), -1)                # each row's top row
    queue = [r0]
    while queue:
        t = queue.pop()
        sub = lv.below(t) if t >= 0 else np.full(1, t)     # an empty root
        rows = sub[1:]
        tests = criterion(cube[t], t, rows)
        fires = np.any([hit for hit, _ in tests.values()], axis=0)
        # the rows below a fired row follow it in the walk, up to the
        # first that ends at or before its start
        f, n = np.flatnonzero(fires), len(rows) + 1
        end = np.searchsorted(-lv.en[rows], -lv.st[rows[f]])
        under = np.cumsum(np.bincount(f + 1, minlength=n)
                          - np.bincount(end, minlength=n))[:-1] > 0
        top[sub[np.r_[True, ~(fires | under)]]] = t
        for i in f[~under[f]].tolist():
            r = int(rows[i])
            q = cube[r] = _cube(lv, r)
            parent[q] = cube[t]
            crit[q] = {name: float(v[i]) for name, (hit, v) in tests.items()
                       if hit[i]}
            queue.append(r)
    order = sorted(cube, key=lambda r: (-cube[r].side, cube[r].lo))
    place = np.zeros(len(lv.level), dtype=np.int64)
    place[order] = np.arange(len(order))
    return Corona(kind, mu, root, [cube[r] for r in order], parent,
                  criteria=crit, rows=np.array(order),
                  top_of=np.where(top >= 0, place[top], -1), **fields)


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
    lv = mu.levels(root.grid)
    avg = lv.averages(f_abs)
    alphas = {}

    def criterion(top: Cube, t: int, rows) -> dict:
        a_top = alphas[top] = average(lv.atoms(t), mu, f_abs)
        return {"cz": ((a_top > 0.0) & (avg[rows] > c0 * a_top), avg[rows])}

    return _stopping_time("cz", mu, root, criterion, alpha_bound=alphas,
                          params={"c0": c0})


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
    lv = mu.levels(root.grid)
    thresh = big_gamma * t_const * t_const

    def criterion(top: Cube, t: int, rows) -> dict:
        a, qs = lv.averages(fam.b(top))[rows], lv.mass[rows]
        ti = np.array([t_diag(_cube(lv, r), top) for r in rows.tolist()])
        return {"accretive": (np.abs(a) < gamma, a),
                "weak_testing": (ti > thresh * qs, ti / qs)}

    return _stopping_time("accretive", mu, root, criterion,
                          params={"gamma": gamma, "big_gamma": big_gamma,
                                  "t_const": t_const})


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
    val = np.zeros(len(amb.level))      # each row's quotient under its top

    def criterion(top: Cube, t: int, rows) -> dict:
        d, lo, aug = grid.M - top.level, np.array([top.lo]), np.zeros(1, bool)
        r = amb.cube_rows(top.level, lo, aug)[0]
        terms = strong_terms(amb, mom, top.level, lo, d, alpha,
                             (amb.st[r], amb.en[r]),
                             mom.cube_rows(top.level, lo, aug)[2])
        best = subpartition(terms, grid.dim,
                            d if depth is None else min(depth, d))
        k = amb.level[rows] - top.level
        rel = (amb.corner[rows] - top.lo) >> (grid.M - amb.level[rows, None])
        for lev in sorted(set(k.tolist())):
            at = k == lev
            val[rows[at]] = best[lev][0, morton_index(rel[at].T, lev)]
        val[rows] /= amb.mass[rows]
        return {"energy": ((val[rows] >= tau) & (tau > 0.0), val[rows])}

    cor = _stopping_time("energy", sigma, root, criterion,
                         params={"c_en": c_en, "e2": e2, "a2": a2,
                                 "alpha": alpha, "depth": depth, "tau": tau})
    val[cor.rows] = 0.0                 # a top is no inner cube
    cor.energies = {q: float(val[cor.top_of == i].max(initial=0.0))
                    for i, q in enumerate(cor.stopping)}
    return cor


# ---------------------------------------------------------------------------
# stopping data verification


def stopping_data(corona: Corona, f) -> dict:
    """Checks the four stopping-data properties and the quasi-orthogonality.

    Returns the measured constants; `ok` collects per-property pass flags
    with witnesses for any failure.
    """
    mu = corona.mu
    lv = mu.levels(corona.root.grid)
    f = np.asarray(f, dtype=np.float64)
    c0 = corona.params.get("c0", 1.0)
    norm_sq = float(np.dot(mu.masses, f * f))
    alpha = np.array([corona.alpha_bound.get(top, 0.0)
                      for top in corona.stopping])

    # (1) corona control of averages, the first largest ratio in the
    # order of the tops and each corona coarse to fine
    prop1, wit1 = 0.0, None
    rows = np.flatnonzero(corona.top_of >= 0)
    top = corona.top_of[rows]
    ratio = np.divide(lv.averages(np.abs(f))[rows], alpha[top],
                      out=np.zeros(len(rows)), where=alpha[top] > 0.0)
    o = np.lexsort((*lv.corner[rows].T[::-1], lv.level[rows], top))
    if len(o) and ratio[i := o[np.argmax(ratio[o])]] > 0.0:
        prop1 = float(ratio[i])
        wit1 = (corona.stopping[top[i]], _cube(lv, rows[i]))

    # (2) sigma-Carleson of the stopping family
    carleson = carleson_norm(corona.stopping, mu)

    # (3) quasi-orthogonality sum
    quasi = sum(a * a * mass(lv.atoms(r), mu)
                for a, r in zip(alpha.tolist(), corona.rows.tolist()))
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
    for a, r in zip(alpha.tolist(), corona.rows.tolist()):
        g[lv.atoms(r)] += a
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
    """Largest quotient sum of member masses inside S over |S|_mu, for
    cubes of one grid."""
    fam = list(cube_family)
    if not fam:
        return 0.0
    uniq = list(dict.fromkeys(fam))
    lv = mu.levels(fam[0].grid)
    rows = lv.rows([q.level for q in uniq], cube_arrays(uniq, mu.dim)[0])
    m = np.array([mass(lv.atoms(r), mu) for r in rows.tolist()])
    i, k = holders(*cube_arrays(uniq, mu.dim),
                   *cube_arrays(fam, mu.dim))       # uniq[k] holds fam[i]
    o = np.argsort(i, kind="stable")                # each sum in fam order
    at = {q: j for j, q in enumerate(uniq)}
    tot = np.bincount(k[o], m[[at[f] for f in fam]][i[o]], len(uniq))
    return float((tot[m > 0] / m[m > 0]).max(initial=0.0))


def generation_masses(corona: Corona) -> list:
    """Total stopping-cube mass per forest depth, depth 0 first."""
    lv = corona.mu.levels(corona.root.grid)
    by_depth = {}
    for f, r in zip(corona.stopping, corona.rows.tolist()):
        by_depth.setdefault(corona.depth(f), 0.0)
        by_depth[corona.depth(f)] += mass(lv.atoms(r), corona.mu)
    return [by_depth[k] for k in sorted(by_depth)]
