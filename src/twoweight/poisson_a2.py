"""Poisson integrals and Muckenhoupt-type constants for a weight pair.

All integrals are finite sums over the atoms of the measures, so every
value here is exact up to float rounding.  The suprema defining the
constants are taken over an enumerated cube family: every cube of each
supplied grid plus the augmented cubes (side-doubled cubes whose dyadic
children belong to the grid), restricted to cubes meeting the joint
support of the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Cube, cube_at, cube_dict
from .measure import Measure, common_points

__all__ = [
    "A2Report",
    "poisson",
    "poisson_kernel",
    "halfspace_poisson",
    "a2_constants",
    "enumerate_cubes",
]


# ---------------------------------------------------------------------------
# Poisson integrals


def _center_distances(q: Cube, mu: Measure) -> np.ndarray:
    c = np.array(q.center4, dtype=np.float64) / 2 ** (q.resolution + 2)
    if mu.natoms == 0:
        return np.zeros(0)
    d = mu.coords_float() - c
    return np.sqrt((d * d).sum(axis=1))


def poisson_kernel(kind: str, ell, dist, n: int, alpha: float,
                   delta: float | None = None):
    """Poisson kernel of a cube of side ell in R^n at distance dist from
    its centre (scalars or arrays alike)."""
    if kind == "standard":
        return ell / (ell + dist) ** (n + 1 - alpha)
    if kind == "reproducing":
        return (ell / (ell + dist) ** 2) ** (n - alpha)
    if kind == "small":
        if delta is None or delta <= 0:
            raise ValueError("kind='small' needs delta > 0")
        return ell ** (1 + delta) / (ell + dist) ** (n + 1 + delta - alpha)
    raise ValueError(f"unknown Poisson kind {kind!r}")


def poisson(kind: str, q: Cube, mu: Measure, alpha: float,
            delta: float | None = None) -> float:
    """Poisson integral of mu on the cube Q.

    standard     sum w * l / (l + |x - c|)^(n+1-alpha)
    reproducing  sum w * (l / (l + |x - c|)^2)^(n-alpha)
    small        sum w * l^(1+delta) / (l + |x - c|)^(n+1+delta-alpha)
    """
    if not 0 <= alpha < mu.dim:
        raise ValueError("alpha must lie in [0, n)")
    return float(np.dot(mu.masses, poisson_kernel(
        kind, q.sidelength, _center_distances(q, mu), mu.dim, alpha, delta)))


def halfspace_poisson(direction: str, *, alpha: float, n: int,
                      x=None, t: float | None = None, rho: Measure | None = None,
                      upper_atoms=None) -> float:
    """Upper-half-space Poisson integral or its dual.

    forward: value at (x, t), t > 0, of the half-space kernel applied to
             the measure rho on R^n:  sum w * t / (t^2+|x-y|^2)^((n+1-alpha)/2).
    dual:    value at x of the dual kernel applied to an atomic measure on
             the upper half space, given as (ys, ts, ws):
             sum w * t^2 / (t^2+|x-y|^2)^((n+1-alpha)/2).
    """
    ex = (n + 1 - alpha) / 2
    if direction == "forward":
        if t is None or t <= 0:
            raise ValueError("forward kernel needs t > 0")
        if rho is None or rho.natoms == 0:
            return 0.0
        d = rho.coords_float() - np.asarray(x, dtype=np.float64)
        d2 = (d * d).sum(axis=1)
        return float(np.dot(rho.masses, t / (t * t + d2) ** ex))
    if direction == "dual":
        if upper_atoms is None:
            return 0.0
        ys, ts, ws = upper_atoms
        ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
        ts = np.asarray(ts, dtype=np.float64)
        ws = np.asarray(ws, dtype=np.float64)
        if len(ws) == 0:
            return 0.0
        if np.any(ts <= 0):
            raise ValueError("upper-half-space atoms need t > 0")
        d = ys - np.asarray(x, dtype=np.float64)
        d2 = (d * d).sum(axis=1)
        return float(np.dot(ws, ts ** 2 / (ts ** 2 + d2) ** ex))
    raise ValueError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# cube enumeration


def enumerate_cubes(grids, sigma: Measure, omega: Measure):
    """All cubes of the grids (plus augmented ones) meeting the supports."""
    from .levels import tops
    for g, level, aug, lo in zip(*tops(grids, sigma, omega)):
        yield cube_at(grids[g], level, lo, aug)


# ---------------------------------------------------------------------------
# Muckenhoupt constants


@dataclass
class A2Report:
    calA2: float = 0.0
    calA2_star: float = 0.0
    classicalA2: float = 0.0
    classicalA2_diverges: bool = False
    punct: float = 0.0
    punct_star: float = 0.0
    energyA2: float = 0.0
    energyA2_star: float = 0.0
    witnesses: dict = field(default_factory=dict)

    @property
    def aggregate(self) -> float:
        return self.calA2 + self.calA2_star + self.punct + self.punct_star

    def as_dict(self) -> dict:
        return {
            "calA2": self.calA2,
            "calA2_star": self.calA2_star,
            "classicalA2": self.classicalA2,
            "classicalA2_diverges": self.classicalA2_diverges,
            "punct": self.punct,
            "punct_star": self.punct_star,
            "energyA2": self.energyA2,
            "energyA2_star": self.energyA2_star,
            "aggregate": self.aggregate,
            "witnesses": {k: cube_dict(q)
                          for k, q in self.witnesses.items()},
        }


def _norm_moment(q: Cube, mu: Measure) -> float:
    """Integral of |x - m_Q|^2 over Q against mu (0 on empty cubes)."""
    idx = mu.atoms(q)
    w = mu.masses[idx]
    tot = float(w.sum())
    if tot <= 0:
        return 0.0
    xs = mu.coords_float()[idx]
    m = (w[:, None] * xs).sum(axis=0) / tot
    d2 = ((xs - m) ** 2).sum(axis=1)
    return float(np.dot(w, d2))


def a2_constants(sigma: Measure, omega: Measure, grids,
                 alpha: float) -> A2Report:
    """Muckenhoupt constants of the pair over an enumerated cube family.

    The energy variants are evaluated with the plain martingale projection
    (unit testing functions), for which the sharp-norm square of x/l(Q)
    collapses to the normalized second moment of omega (resp. sigma) on Q.
    A hole (the reproducing Poisson integral off Q) is summed only where
    the other measure has mass in Q, the only cubes that read it, in
    dense blocks that add the atoms around Q's left to right.
    """
    if sigma.dim != omega.dim or sigma.resolution != omega.resolution:
        raise ValueError("weight pair must share dimension and resolution")
    n = sigma.dim
    if not 0 <= alpha < n:
        raise ValueError("alpha must lie in [0, n)")
    from .levels import tops
    pts = common_points(sigma, omega)
    rep = A2Report(classicalA2_diverges=bool(pts))
    gi, lev, aug, lo = tops(grids, sigma, omega)
    # per measure (sigma, omega) and cube: mass, moment, hole, the
    # heaviest atom at a common point (the largest over the cube's slices)
    cols = np.zeros((4, 2, len(gi)))
    ell = np.zeros(len(gi))
    for g, grid in enumerate(grids):
        rows = np.flatnonzero(gi == g)
        side = 2 ** (grid.M - lev[rows])
        ell[rows] = side / 2.0 ** grid.M
        tabs = [mu.levels(grid) for mu in (sigma, omega)]
        sl = [lv.cube_slices(lev[rows], lo[rows], aug[rows]) for lv in tabs]
        for k, (mu, lv, (s, e)) in enumerate(zip((sigma, omega), tabs, sl)):
            cols[:2, k, rows] = lv.cube_stats(lev[rows], lo[rows], aug[rows])
            v = np.where([tuple(p) in pts for p in mu.points], mu.masses, 0.0)
            top = np.maximum.reduceat(np.append(v[lv.order], 0.0),
                                      np.stack([s, e], -1).ravel())[::2]
            cols[3, k, rows] = np.where(e > s, top.reshape(s.shape),
                                        0.0).max(axis=1)
        for k, (lv, (s, e)) in enumerate(zip(tabs, sl)):
            on = cols[0, 1 - k, rows] > 0.0
            cols[2, k, rows[on]] = lv.outside(s[on], e[on], lo[rows[on]],
                                              side[on], alpha, "reproducing")
    (qs, qw), (ms, mw), (hs, hw), (bs, bw) = cols
    size = ell ** (n - alpha)  # |Q|^(1 - alpha/n)
    cands = {
        "calA2": (qw > 0.0, hs * qw / size),
        "calA2_star": (qs > 0.0, hw * qs / size),
        "classicalA2": ((qs > 0.0) & (qw > 0.0), qs * qw / size ** 2),
        "punct": (qs > 0.0, (qw - bw) * qs / size ** 2),
        "punct_star": (qw > 0.0, (qs - bs) * qw / size ** 2),
        "energyA2": (qs > 0.0, (mw / ell ** 2) * qs / size ** 2),
        "energyA2_star": (qw > 0.0, (ms / ell ** 2) * qw / size ** 2),
    }
    for key, (ok, val) in cands.items():
        val = np.where(ok, val, 0.0)
        i = int(np.argmax(val)) if len(val) else 0
        if len(val) and val[i] > 0.0:
            setattr(rep, key, float(val[i]))
            rep.witnesses[key] = cube_at(grids[gi[i]], lev[i], lo[i], aug[i])
    return rep
