"""Truncated dyadic grids and their geometry.

All coordinates are integers.  A grid at resolution M works in lattice
units of 2^-M; centres, goodness distances and dilates use quarter
units 2^-(M+2) so that centres and dilate endpoints stay exact.

Two parameterizations of the random grids are supported:

* Construction #1: independent scale bits beta_i in {0,1} per axis for
  each level i in (N, M].  The level-l offset (lattice units) is
  off(l) = sum_{i=l+1}^{M} 2^{M-i} beta_i, so off(M) = 0 and
  off(l) = off(l+1) + 2^{M-l-1} beta_{l+1}, which forces nesting.
* Construction #2: a single translation g in [0, 2^{M-N}) applied to
  every level.

Both have parameter space of size 2^{n(M-N)}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Grid",
    "Cube",
    "cube_dict",
    "make_grid",
    "whitney",
    "is_eps_good",
    "sharp_cross",
    "cube_arrays",
    "holders",
    "m_deep",
    "bad_probability_mc",
    "dilate4",
    "scaled_box4",
]


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class Grid:
    """Truncated dyadic grid on levels N..M (side of a level-l cube: 2^-l).

    offsets[axis][l - N] is the level-l offset in lattice units 2^-M.
    """

    dim: int
    M: int
    N: int
    offsets: tuple

    def off(self, level: int) -> tuple:
        return tuple(self.offsets[a][level - self.N] for a in range(self.dim))

    @cached_property
    def level_arrays(self) -> tuple:
        """(offsets, sides) as int64 arrays of shapes (levels, dim) and
        (levels, 1), row level - N."""
        levels = np.arange(self.N, self.M + 1, dtype=np.int64)
        return (np.array(self.offsets, dtype=np.int64).T,
                (np.int64(1) << (self.M - levels))[:, None])

    def side_units(self, level: int) -> int:
        return 2 ** (self.M - level)

    def cube(self, level: int, coords) -> "Cube":
        s = self.side_units(level)
        off = self.off(level)
        lo = tuple(off[a] + s * int(coords[a]) for a in range(self.dim))
        return Cube(self.M, lo, s, level, self)

    def cube_containing(self, level: int, point_units) -> "Cube":
        """The level-`level` grid cube whose half-open box contains the point."""
        s = self.side_units(level)
        off = self.off(level)
        coords = tuple((int(point_units[a]) - off[a]) // s
                       for a in range(self.dim))
        return self.cube(level, coords)

    def corners(self, level: int, lo_units=None, hi_units=None,
                augmented: bool = False) -> np.ndarray:
        """(cubes, dim) corners, first axis slowest, of the level-`level`
        cubes meeting the box [lo, hi) (default [0,1)^n); augmented, of
        the cubes of that side whose dyadic children are grid cubes."""
        lo = np.asarray((0,) * self.dim if lo_units is None else lo_units)
        hi = np.asarray((2 ** self.M,) * self.dim if hi_units is None
                        else hi_units)
        a = int(augmented)
        if a and level >= self.M:
            return np.zeros((0, self.dim), dtype=np.int64)
        # augmented corners range over the level-(level+1) lattice, so the
        # family holds the grid cubes of that side too
        step = self.side_units(level + a)
        off = np.array(self.off(level + a), dtype=np.int64)
        k0 = (lo - off - 2 * a * step) // step + a
        k1 = -((off - hi) // step)
        cells = np.indices(tuple(np.maximum(k1 - k0, 0))).reshape(self.dim, -1)
        return (cells.T + k0) * step + off

    def cubes_at_level(self, level: int, lo_units=None, hi_units=None):
        """All level-`level` cubes meeting the box [lo, hi) (default [0,1)^n)."""
        s = self.side_units(level)
        for c in self.corners(level, lo_units, hi_units).tolist():
            yield Cube(self.M, tuple(c), s, level, self)

    def cubes(self, lo_units=None, hi_units=None):
        for level in range(self.N, self.M + 1):
            yield from self.cubes_at_level(level, lo_units, hi_units)


@dataclass(frozen=True)
class Cube:
    """Half-open cube lo + [0, side)^n in lattice units 2^-resolution.

    `grid` is a navigation handle only; augmented cubes carry grid=None.
    Identity is purely geometric on one lattice: the cubes of a
    computation, and the measures they meet, share one resolution.
    """

    resolution: int
    lo: tuple
    side: int
    level: int = field(compare=False)
    grid: Grid | None = field(default=None, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def hi(self) -> tuple:
        return tuple(x + self.side for x in self.lo)

    @property
    def sidelength(self) -> float:
        return self.side / 2.0 ** self.resolution

    @property
    def lo4(self) -> tuple:
        return tuple(4 * x for x in self.lo)

    @property
    def hi4(self) -> tuple:
        return tuple(4 * (x + self.side) for x in self.lo)

    @property
    def center4(self) -> tuple:
        return tuple(4 * x + 2 * self.side for x in self.lo)

    def center(self) -> np.ndarray:
        return np.array(self.center4, dtype=np.float64) / 2.0 ** (self.resolution + 2)

    def contains_cube(self, other: "Cube") -> bool:
        if other.resolution != self.resolution:
            raise ValueError(f"cube at resolution {other.resolution} meets a "
                             f"cube at resolution {self.resolution}")
        return all(self.lo[a] <= other.lo[a]
                   and other.lo[a] + other.side <= self.lo[a] + self.side
                   for a in range(self.dim))

    def parent(self) -> "Cube":
        if self.grid is None:
            raise ValueError("cube has no grid handle")
        if self.level <= self.grid.N:
            raise ValueError("parent would leave the truncated level range")
        return self.grid.cube_containing(self.level - 1, self.lo)

    def children(self) -> list:
        if self.level >= self.resolution:
            raise ValueError("children would leave the truncated level range")
        half = self.side // 2
        out = []
        for bits in itertools.product((0, 1), repeat=self.dim):
            lo = tuple(self.lo[a] + half * bits[a] for a in range(self.dim))
            out.append(Cube(self.resolution, lo, half, self.level + 1, self.grid))
        return out


def cube_dict(q: Cube | None) -> dict | None:
    """JSON-ready form of a cube: lattice corner, side and resolution."""
    if q is None:
        return None
    return {"lo": list(q.lo), "side": q.side, "resolution": q.resolution}


def cube_at(grid: Grid, level: int, lo, aug: bool = False) -> Cube:
    """The cube of side 2^-level at the lattice corner lo; an augmented
    cube (aug) carries no grid handle."""
    return Cube(grid.M, tuple(map(int, lo)), grid.side_units(level),
                int(level), None if aug else grid)


# ---------------------------------------------------------------------------
# construction


def make_grid(dim: int, M: int, N: int, param) -> Grid:
    """Build a grid from a parameter spec.

    param is a dict with "kind" one of:
      "beta"   bits[axis][i] for levels i = N+1..M (Construction #1)
      "gamma"  g[axis], integer translation in lattice units, 0 <= g < 2^{M-N}
      "random" seed; draws Construction #1 bits reproducibly
    """
    if not (N <= 0 <= M):
        raise ValueError(f"need N <= 0 <= M, got N={N}, M={M}")
    if N < -16 or M > 20:
        raise ValueError("levels outside the supported range [-16, 20]")
    kind = param["kind"]
    if kind == "random":
        rng = np.random.default_rng(param["seed"])
        bits = rng.integers(0, 2, size=(dim, M - N))
        param = {"kind": "beta", "bits": bits.tolist()}
        kind = "beta"
    if kind == "beta":
        bits = param["bits"]
        if len(bits) != dim or any(len(b) != M - N for b in bits):
            raise ValueError(f"need {dim} axes of {M - N} bits")
        offsets = []
        for a in range(dim):
            offs = [0] * (M - N + 1)  # index: level - N
            for lev in range(M - 1, N - 1, -1):
                b = int(bits[a][lev + 1 - (N + 1)])
                if b not in (0, 1):
                    raise ValueError("scale bits must be 0 or 1")
                offs[lev - N] = offs[lev + 1 - N] + b * 2 ** (M - lev - 1)
            offsets.append(tuple(offs))
        return Grid(dim, M, N, tuple(offsets))
    if kind == "gamma":
        g = param["g"]
        if len(g) != dim:
            raise ValueError(f"need {dim} translation components")
        offsets = []
        for a in range(dim):
            ga = int(g[a])
            if not 0 <= ga < 2 ** (M - N):
                raise ValueError(f"translation {ga} outside [0, 2^(M-N))")
            offsets.append(tuple(ga for _ in range(N, M + 1)))
        return Grid(dim, M, N, tuple(offsets))
    raise ValueError(f"unknown grid construction {kind!r}")


# ---------------------------------------------------------------------------
# Whitney decomposition


def morton_cells(n: int, k: int) -> np.ndarray:
    """(2^(nk), n) cells of the subcubes k levels down, in Morton order;
    k = 1 gives the `Cube.children` order."""
    m = np.arange(1 << (n * k))
    rel = np.zeros((len(m), n), dtype=np.int64)
    for j in range(k):
        for a in range(n):
            rel[:, a] |= ((m >> (n * (k - j) - 1 - a)) & 1) << (k - 1 - j)
    return rel


def morton_index(rel, k: int):
    """Morton index of the subcube with cells rel, k levels down: an int
    for int cells, an array for arrays of cells."""
    m = 0 * rel[0]
    for j in range(k - 1, -1, -1):
        for r in rel:
            m = (m << 1) | ((r >> j) & 1)
    return m


@lru_cache(maxsize=None)
def whitney_cells(depth: int, dim: int) -> tuple:
    """Whitney cubes of the cube [0, 2^depth)^n, in finest lattice units.

    Returns (corners, sides, chosen): the maximal subcubes S with 3S
    inside the cube (chosen), then the finest tiles none of them covers,
    each depth first in child order.  The scan runs coarse to fine, so a
    candidate overlapping a chosen cube never arises.  The arrays are
    built once per (depth, dim) and read-only.
    """
    big = 1 << depth
    found = [] if depth else [(np.zeros((1, dim), dtype=np.int64), 1, False)]
    cur, side = morton_cells(dim, 1) * (big // 2), big // 2
    while depth and len(cur):
        inside = ((cur >= side) & (cur + 2 * side <= big)).all(axis=1)
        found.append((cur[inside], side, True))
        if side == 1:
            found.append((cur[~inside], 1, False))
            break
        side //= 2
        cur = (cur[~inside][:, None] + side * morton_cells(dim, 1)).reshape(
            -1, dim)
    corners = np.concatenate([c for c, _, _ in found])
    sides = np.concatenate([np.full(len(c), s) for c, s, _ in found])
    chosen = np.concatenate([np.full(len(c), f) for c, _, f in found])
    order = np.lexsort((morton_index(corners.T, depth), ~chosen))
    out = corners[order], sides[order], chosen[order]
    for a in out:
        a.flags.writeable = False
    return out


def whitney(k: Cube):
    """Maximal subcubes S with 3S inside K, truncated at the finest level.

    Returns (cubes, residual) where residual is the list of finest-level
    tiles of K not covered by any returned cube.
    """
    corners, sides, chosen = whitney_cells(k.resolution - k.level, k.dim)
    out = ([], [])
    for c, s, f in zip((corners + k.lo).tolist(), sides.tolist(),
                       chosen.tolist()):
        out[not f].append(Cube(k.resolution, tuple(c), s,
                               k.resolution - s.bit_length() + 1, k.grid))
    return out


# ---------------------------------------------------------------------------
# goodness and crossovers


def _good(rel, side, big: int, eps: float) -> tuple:
    """(good, squared quarter-unit gap) of the cubes rel + [0, side)^n
    inside [0, big)^n against its body, the boundaries of its Whitney
    cubes: good when the gap exceeds 2 l(J)^eps l(K)^(1-eps), squared.

    The Whitney cube holding a cell is the largest dyadic S with 3S
    inside (a subcube of a cube inside is inside).  A cube whose first
    and last cells lie in one such S lies in S, and any path from it to
    another Whitney boundary crosses that of S, so its gap is the gap to
    the boundary of S; any other cube meets a Whitney boundary (at side
    >= 4 every finest boundary tile touches a Whitney cube): gap 0.
    Without Whitney cubes (big <= 2) all are good, the gaps None.
    """
    if big <= 2:
        return np.ones(len(rel), dtype=bool), None
    ends = np.stack([rel, rel + side[:, None] - 1])     # first, last cells
    t, c = np.zeros(ends.shape[:2], dtype=np.int64), np.zeros_like(ends)
    s = big // 2
    while s:
        cell = ends // s * s
        ok = (t == 0) & ((cell >= s) & (cell + 2 * s <= big)).all(axis=2)
        t[ok], c[ok] = s, cell[ok]
        s //= 2
    gap = np.minimum(ends[0] - c[0], c[0] + t[0][:, None] - 1 - ends[1])
    same = (t[0] > 0) & (t[0] == t[1]) & (c[0] == c[1]).all(axis=1)
    d2q = np.where(same, 16 * gap.min(axis=1) ** 2, 0)
    u = np.array(sorted(set(side.tolist())), dtype=np.int64)
    t2q = np.array([64.0 * sd ** (2 * eps) * big ** (2 - 2 * eps)
                    for sd in u.tolist()])
    return d2q.astype(np.float64) > t2q[np.searchsorted(u, side)], d2q


def is_eps_good(j: Cube, k: Cube, eps: float):
    """Whether dist(J, body K) exceeds 2 l(J)^eps l(K)^(1-eps), for J
    inside K; returns (good, distance)."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if j.resolution != k.resolution:
        raise ValueError(f"J at resolution {j.resolution} and K at "
                         f"resolution {k.resolution}: goodness needs one "
                         "lattice")
    if not k.contains_cube(j):
        raise ValueError("goodness needs J inside K")
    good, d2q = _good(np.array([j.lo]) - k.lo, np.array([j.side]), k.side,
                      eps)
    return bool(good[0]), math.inf if d2q is None else \
        math.sqrt(d2q[0]) / 2 ** (k.resolution + 2)


def sharp_cross(cubes, grid: Grid, eps: float) -> list:
    """(q, j_flat) of each cube J of `cubes`: q is the smallest grid cube
    with J good in every grid supercube K >= q, j_flat the grandchild of
    q holding J's centre (None when q is missing or J is larger than the
    grandchildren).  One cube is a list of one.

    One integer pass per grid level: the ancestors of J are the grid
    cubes holding it, from the first level whose cube does until one
    does not, and q is the last before the first in which J is bad.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    cubes = list(cubes)
    for res in {j.resolution for j in cubes} - {grid.M}:
        raise ValueError(f"J at resolution {res} and K at resolution "
                         f"{grid.M}: goodness needs one lattice")
    lo, side = cube_arrays(cubes, grid.dim)
    off, sides = grid.level_arrays
    row, q_lo = np.full(len(lo), -1), np.zeros_like(lo)
    live, begun = np.ones(len(lo), dtype=bool), np.zeros(len(lo), dtype=bool)
    for li, s in enumerate(sides[:, 0].tolist()):
        corner = off[li] + (lo - off[li]) // s * s
        holds = live & (side <= s) & (lo + side[:, None] <= corner + s).all(
            axis=1)
        live &= (side <= s) & (holds | ~begun)
        begun |= holds
        at = np.flatnonzero(holds)
        good = _good(lo[at] - corner[at], side[at], s, eps)[0]
        row[at[good]], q_lo[at[good]] = li, corner[at[good]]
        live[at[~good]] = False
    qs = np.where(row >= 0, sides[row, 0], 4)[:, None]
    # the grandchild of side qs / 4 holding the centre, in quarter units
    flat = q_lo + (4 * lo + 2 * side[:, None] - 4 * q_lo) // qs * (qs // 4)
    return [(None, None) if r < 0 else (
        Cube(grid.M, tuple(a), s, grid.N + r, grid),
        Cube(grid.M, tuple(b), s // 4, grid.N + r + 2, grid)
        if 4 * js <= s else None)
        for r, js, s, a, b in zip(row.tolist(), side.tolist(),
                                  qs[:, 0].tolist(), q_lo.tolist(),
                                  flat.tolist())]


# ---------------------------------------------------------------------------
# containment by code


def cube_arrays(cubes, dim: int) -> tuple:
    """(corners (k, n), sides (k,)) of a list of cubes."""
    return (np.array([q.lo for q in cubes], dtype=np.int64).reshape(-1, dim),
            np.array([q.side for q in cubes], dtype=np.int64))


def holders(m_lo, m_side, lo, side) -> tuple:
    """(i, k) index arrays of the pairs where cube k of the first set
    (corners m_lo, sides m_side; no cube twice) holds cube i of the
    second, on one lattice.

    J lies in M exactly when J's first and last lattice points fall in
    M's cell of the lattice M.lo + side Z^n, so each (side, phase) of the
    first set takes one integer pass instead of a scan of pairs.
    """
    m_lo, m_side, lo, side = (np.asarray(x, dtype=np.int64)
                              for x in (m_lo, m_side, lo, side))
    cls = np.column_stack([m_side, m_lo % m_side[:, None]])
    out = [np.zeros((0, 2), dtype=np.int64)]
    for s, *phase in sorted(set(map(tuple, cls.tolist()))):
        ks = np.flatnonzero((cls == [s, *phase]).all(axis=1))
        cell = (lo - phase) // s
        at = np.flatnonzero((cell == (lo + side[:, None] - 1 - phase) // s)
                            .all(axis=1))
        # cells as codes in the box of the members' cells
        base = (m_lo[ks] - phase) // s
        c0, span = base.min(axis=0), np.ptp(base, axis=0) + 1
        rel, dims = cell[at] - c0, tuple(span.tolist())
        inbox = ((rel >= 0) & (rel < span)).all(axis=1)
        at, code = at[inbox], np.ravel_multi_index(tuple(rel[inbox].T), dims)
        mcode = np.ravel_multi_index(tuple((base - c0).T), dims)
        o = np.argsort(mcode, kind="stable")
        pos = np.minimum(np.searchsorted(mcode[o], code), len(o) - 1)
        hit = mcode[o][pos] == code
        out.append(np.column_stack([at[hit], ks[o][pos[hit]]]))
    return tuple(np.concatenate(out).T)


# ---------------------------------------------------------------------------
# deep embedding


def m_deep(k: Cube, rho: int, eps: float, grid: Grid | None = None):
    """Maximal J with l(J) <= 2^-rho l(K) and d(J, dK) >= 2 l(J)^eps l(K)^(1-eps)."""
    if rho < 1:
        raise ValueError("rho must be a positive integer")
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    g = grid if grid is not None else k.grid
    if g is None:
        raise ValueError("m_deep needs a grid")
    chosen: list[Cube] = []
    for level in range(k.level + rho, g.M + 1):
        s = g.side_units(level)
        lo = g.corners(level, k.lo, k.hi)
        # dist(J, dK) in lattice units, negative outside K
        d = np.minimum(lo - k.lo, np.add(k.lo, k.side) - lo - s).min(axis=1)
        ok = d >= 2.0 * s ** eps * k.side ** (1 - eps)
        held = holders(*cube_arrays(chosen, k.dim), lo, np.full(len(lo), s))
        ok[held[0]] = False
        chosen += [Cube(g.M, tuple(c), s, level, g) for c in lo[ok].tolist()]
    return chosen


# ---------------------------------------------------------------------------
# dilates


def dilate4(corners, sides, factor) -> tuple:
    """(lo4, hi4) arrays of the concentric dilates factor*Q of the cubes
    with corners (..., n) and sides (...) in lattice units; every dilate
    must have quarter-lattice corners."""
    sides = np.asarray(sides, dtype=np.int64)
    half4 = factor * 2 * sides  # half sides in quarter units
    h = np.round(half4)
    off = np.abs(half4 - h) > 1e-9
    if off.any():
        raise ValueError(f"dilate {factor} of side {sides[off].min()} "
                         "leaves the quarter lattice")
    h = h.astype(np.int64)[..., None]
    c4 = 4 * np.asarray(corners, dtype=np.int64) + 2 * sides[..., None]
    return c4 - h, c4 + h


def scaled_box4(q: Cube, factor) -> tuple:
    """(lo4, hi4) of the concentric dilate factor*Q; needs exact quarters."""
    lo4, hi4 = dilate4(q.lo, q.side, factor)
    return tuple(lo4.tolist()), tuple(hi4.tolist())


# ---------------------------------------------------------------------------
# Monte-Carlo goodness probabilities


@lru_cache(maxsize=32)
def _unit_body_points(depth: int) -> np.ndarray:
    """Sorted endpoints of the Whitney intervals of [0,1) down to 2^-depth."""
    c, s, chosen = whitney_cells(depth, 1)
    c, s = c[chosen, 0], s[chosen]
    return np.array(sorted(set(np.r_[c, c + s].tolist()))) / 2 ** depth


def _axis_bad_fraction(k: int, eps: float, shifts: np.ndarray) -> np.ndarray:
    """Per-trial badness of J = [0, 2^-k) against a shifted unit interval.

    The containing side-1 cube is [-t, 1-t); its body is the unit body
    translated by -t.  J is bad when its distance to the body is at most
    2 * 2^(-eps k), or when it straddles two side-1 cubes.
    """
    lj = 2.0 ** (-k)
    thresh = 2.0 * lj ** eps
    depth = min(k + 10, 20)
    pts = _unit_body_points(depth)
    straddle = shifts > 1.0 - lj
    # nearest body point to the interval [t, t + lj] in body coordinates
    left = np.searchsorted(pts, shifts)
    right = np.searchsorted(pts, shifts + lj)
    inside = right > left  # a body point falls inside J: distance 0
    dist = np.full(len(shifts), np.inf)
    has_left = left > 0
    dist[has_left] = shifts[has_left] - pts[left[has_left] - 1]
    has_right = right < len(pts)
    dr = pts[right[has_right]] - (shifts[has_right] + lj)
    dist[has_right] = np.minimum(dist[has_right], dr)
    dist[inside] = 0.0
    return straddle | (dist <= thresh)


def bad_probability_mc(dim: int, k: int, eps: float, trials: int, seed: int):
    """Monte-Carlo estimate of P(J is k-bad) with J of side 2^-k.

    Grids are sampled through a uniform translation per axis; axes are
    independent, so the n-dimensional estimate combines the per-axis
    fractions as 1 - prod(1 - p_axis).  Returns (estimate, stderr).
    """
    if trials < 1000:
        raise ValueError("need at least 10^3 trials")
    if k == 0:
        return 1.0, 0.0
    rng = np.random.default_rng(seed)
    p_axes, var_axes = [], []
    for _ in range(dim):
        shifts = rng.random(trials)
        bad = _axis_bad_fraction(k, eps, shifts)
        p = float(bad.mean())
        p_axes.append(p)
        var_axes.append(p * (1 - p) / trials)
    est = 1.0
    var = 0.0
    for a in range(dim):
        others = 1.0
        for b in range(dim):
            if b != a:
                others *= 1.0 - p_axes[b]
        var += others ** 2 * var_axes[a]
        est *= 1.0 - p_axes[a]
    return 1.0 - est, math.sqrt(var)
