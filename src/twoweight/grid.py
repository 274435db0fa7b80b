"""Truncated dyadic grids and their geometry.

All coordinates are integers.  A grid at resolution M works in lattice
units of 2^-M; regions, bodies and distances use quarter units 2^-(M+2)
so that centers, thirds-of-corners and dilate endpoints stay exact.

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
    "kids",
    "Region",
    "make_grid",
    "whitney",
    "body",
    "skeleton",
    "is_eps_good",
    "sharp_cross",
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


def kids(q: Cube) -> list:
    """Dyadic children of q, none at the finest level."""
    if q.level >= q.resolution:
        return []
    return q.children()


@dataclass(frozen=True)
class Region:
    """Finite union of boxes in quarter units 2^-(resolution+2).

    Boxes may be degenerate (hi == lo on some axis); those carry no mass
    but participate in distance computations as closed sets.
    """

    resolution: int
    boxes4: tuple

    @cached_property
    def _arrays4(self) -> tuple:
        """(lo4, hi4) of the boxes as (boxes, dim) int64 arrays."""
        return tuple(np.array([b[k] for b in self.boxes4], dtype=np.int64)
                     for k in (0, 1))

    def gap2(self, lo4, hi4) -> int:
        """Squared distance from the box [lo4, hi4] to the nonempty region."""
        blo, bhi = self._arrays4
        gap = np.maximum(np.maximum(blo - np.asarray(hi4),
                                    np.asarray(lo4) - bhi), 0)
        return int((gap * gap).sum(axis=1).min())


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
# Whitney decomposition and body


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


def whitney_cells(depth: int, dim: int) -> tuple:
    """Whitney cubes of the cube [0, 2^depth)^n, in finest lattice units.

    Returns (corners, sides, chosen): the maximal subcubes S with 3S
    inside the cube (chosen), then the finest tiles none of them covers,
    each depth first in child order.  The scan runs coarse to fine, so a
    candidate overlapping a chosen cube never arises.
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
    return corners[order], sides[order], chosen[order]


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


def _faces4(q: Cube):
    """Closed boundary faces of a cube as degenerate quarter-unit boxes."""
    lo4, hi4 = q.lo4, q.hi4
    for a in range(q.dim):
        for pos in (lo4[a], hi4[a]):
            flo = tuple(pos if b == a else lo4[b] for b in range(q.dim))
            fhi = tuple(pos if b == a else hi4[b] for b in range(q.dim))
            yield flo, fhi


def body(k: Cube) -> Region:
    """Union of the boundaries of the Whitney cubes of K."""
    cubes, _ = whitney(k)
    faces = {f for s in cubes for f in _faces4(s)}
    return Region(k.resolution, tuple(sorted(faces)))


def skeleton(k: Cube) -> Region:
    """Union of the boundaries of the children of K."""
    faces = {f for c in k.children() for f in _faces4(c)}
    return Region(k.resolution, tuple(sorted(faces)))


# ---------------------------------------------------------------------------
# goodness


def is_eps_good(j: Cube, k: Cube, eps: float, body_k: Region | None = None):
    """Whether dist(J, body K) exceeds 2 l(J)^eps l(K)^(1-eps).

    Returns (good, distance).  The comparison is done on squared
    quarter-unit quantities; for eps = 1/2 and square side products it
    is exact integer-versus-integer.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if j.resolution != k.resolution:
        raise ValueError(f"J at resolution {j.resolution} and K at "
                         f"resolution {k.resolution}: goodness needs one "
                         "lattice")
    if j.side > k.side:
        raise ValueError("goodness needs l(J) <= l(K)")
    if body_k is None:
        body_k = body(k)
    if not body_k.boxes4:
        return True, math.inf
    d2q = body_k.gap2(j.lo4, j.hi4)
    # threshold in quarter units: 8 * sideJ^eps * sideK^(1-eps)
    t2q = 64.0 * j.side ** (2 * eps) * k.side ** (2 - 2 * eps)
    dist = math.sqrt(d2q) / 2 ** (k.resolution + 2)
    return float(d2q) > t2q, dist


def _ancestor_chain(j: Cube, grid: Grid):
    """Grid cubes containing J, coarsest first, finest last.

    Every level's cube holding J's corner comes from one integer array
    operation; the chain is the first run of levels whose cube holds J.
    Each cube is built only when the caller asks for it.
    """
    count = grid.M - grid.N + 1 - (j.side - 1).bit_length()  # sides >= J's
    if count <= 0:
        return
    off, sides = (a[:count] for a in grid.level_arrays)
    lo = np.array(j.lo, dtype=np.int64)
    corners = off + (lo - off) // sides * sides
    holds = np.all(lo + j.side <= corners + sides, axis=1).tolist() + [False]
    if True not in holds:
        return
    first = holds.index(True)
    for i in range(first, holds.index(False, first)):
        yield Cube(grid.M, tuple(corners[i].tolist()), int(sides[i, 0]),
                   grid.N + i, grid)


def sharp_cross(j: Cube, grid: Grid, eps: float, body_cache: dict | None = None):
    """Smallest supercube Q with J good in every grid supercube K >= Q.

    Returns (q, j_flat) where j_flat is the grandchild of q containing J
    (None when q is missing or has no grandchildren above the cutoff).
    """
    q = None
    for k in _ancestor_chain(j, grid):
        if body_cache is not None and k in body_cache:
            bk = body_cache[k]
        else:
            bk = body(k)
            if body_cache is not None:
                body_cache[k] = bk
        good, _ = is_eps_good(j, k, eps, bk)
        if good:
            q = k
        else:
            break
    if q is None:
        return None, None
    j_flat = None
    if q.level + 2 <= grid.M and j.sidelength <= q.sidelength / 4:
        jc4 = j.center4
        for g in (gg for c in q.children() for gg in c.children()):
            if all(g.lo4[a] <= jc4[a] < g.hi4[a] for a in range(g.dim)):
                j_flat = g
                break
    return q, j_flat


# ---------------------------------------------------------------------------
# deep embedding


def _dist_to_boundary_units(j: Cube, k: Cube) -> int:
    """dist(J, dK) in lattice units, for J inside K (negative if outside)."""
    return min(min(j.lo[a] - k.lo[a],
                   (k.lo[a] + k.side) - (j.lo[a] + j.side))
               for a in range(j.dim))


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
        for j in g.cubes_at_level(level, k.lo, k.hi):
            if not k.contains_cube(j):
                continue
            if any(c.contains_cube(j) for c in chosen):
                continue
            d = _dist_to_boundary_units(j, k)
            # threshold in lattice units: 2 sideJ^eps sideK^(1-eps)
            if d >= 2.0 * s ** eps * k.side ** (1 - eps):
                chosen.append(j)
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
    g = make_grid(1, depth, 0, {"kind": "beta", "bits": [[0] * depth]})
    k = g.cube(0, (0,))
    cubes, _ = whitney(k)
    pts = set()
    for s in cubes:
        pts.add(s.lo[0] / 2 ** depth)
        pts.add((s.lo[0] + s.side) / 2 ** depth)
    return np.array(sorted(pts))


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
