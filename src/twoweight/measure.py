"""Finite atomic measures on the dyadic lattice.

Atoms live on the lattice (1/2^M)Z^n so that cube membership is exact
integer arithmetic.  A cube meets a measure only on the measure's own
lattice; `harness.verify_theorem` moves a pair onto one lattice first.
Masses are floats; the pair file format (`harness.dump_pair`) writes
their repr, which reads back bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Measure",
    "PointSet",
    "mass",
    "average",
    "common_points",
    "at_points_of",
]


def _lattice_coord(c) -> int:
    """A lattice coordinate; a float must be integral (and so finite)."""
    if isinstance(c, float) and not c.is_integer():
        raise ValueError(f"atom coordinate {c!r} is not an integer")
    return int(c)


@dataclass(frozen=True, eq=False)       # equality is identity
class Measure:
    """Finite atomic nonnegative measure at resolution 2^-M.

    points : integer numerators, shape (natoms, dim); atom i sits at
             points[i] / 2^resolution.
    masses : strictly positive atom masses, shape (natoms,).
    """

    dim: int
    resolution: int
    points: np.ndarray
    masses: np.ndarray
    # (side, phase) -> {cell: ascending atom indices}, built by atoms()
    _index: dict = field(default_factory=dict, init=False, repr=False)
    # grid -> the measure's level table on it, built by levels()
    _levels: dict = field(default_factory=dict, init=False, repr=False)
    # (grids, other measure) -> the pair's enumerated cubes, built by tops()
    _tops: dict = field(default_factory=dict, init=False, repr=False)

    @staticmethod
    def from_atoms(dim, resolution, atoms) -> "Measure":
        """Build a measure from (coords, mass) pairs, merging duplicates."""
        merged: dict[tuple, float] = {}
        for coords, m in atoms:
            key = tuple(map(_lattice_coord, coords))
            if len(key) != dim:
                raise ValueError(f"atom {key} has dim {len(key)}, expected {dim}")
            try:
                fm = float(m)
            except (TypeError, ValueError):
                raise ValueError(f"atom at {key} has mass {m!r}, not a "
                                 "number") from None
            if fm <= 0:
                raise ValueError(f"atom at {key} has nonpositive mass {m}")
            merged[key] = merged.get(key, 0.0) + fm
            if not math.isfinite(merged[key]):   # NaN, or a sum overflowed
                raise ValueError(f"atom at {key} has non-finite mass "
                                 f"{merged[key]}")
        keys = sorted(merged)
        pts = np.array(keys, dtype=np.int64).reshape(len(keys), dim)
        ms = np.array([merged[k] for k in keys], dtype=np.float64)
        return Measure(dim, resolution, pts, ms)

    @property
    def natoms(self) -> int:
        return len(self.masses)

    def coords_float(self) -> np.ndarray:
        """Atom locations as floats (exact: dyadic rationals)."""
        return self.points.astype(np.float64) / float(2 ** self.resolution)

    def in_box(self, lo, hi) -> np.ndarray:
        """Boolean mask of atoms in the half-open box [lo, hi), lattice units."""
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        return np.all((self.points >= lo) & (self.points < hi), axis=1)

    def atoms(self, q) -> np.ndarray:
        """Ascending indices of the atoms in the cube q, a cube of the
        measure's lattice.

        The cube is a cell of the index of its (side, phase), which is
        built on first use.
        """
        if q.resolution != self.resolution:
            raise ValueError(f"cube at resolution {q.resolution} meets a "
                             f"measure at resolution {self.resolution}")
        side = q.side
        phase = tuple(x % side for x in q.lo)
        cells = self._index.get((side, phase))
        if cells is None:
            cells = self._index[side, phase] = self._cells(side, phase)
        return cells.get(tuple((x - p) // side for x, p in zip(q.lo, phase)),
                         _NO_ATOMS)

    def _cells(self, side: int, phase: tuple) -> dict:
        """Cell -> its atoms, from one stable sort of the atoms by cell."""
        if self.natoms == 0:
            return {}
        cell = (self.points - np.array(phase, dtype=np.int64)) // side
        order = np.lexsort(cell.T[::-1])
        order.flags.writeable = False  # the cells handed out are its views
        cell = cell[order]
        cuts = np.flatnonzero((cell[1:] != cell[:-1]).any(axis=1)) + 1
        keys = map(tuple, cell[np.r_[0, cuts]].tolist())
        return dict(zip(keys, np.split(order, cuts)))

    def levels(self, grid):
        """The measure's `levels.Levels` table on the grid, built once."""
        if grid not in self._levels:
            from .levels import Levels
            self._levels[grid] = Levels(self, grid)
        return self._levels[grid]

    def tops(self, grids, other):
        """The `levels.Tops` of the pair (self, other) on the grids: the
        enumerated cubes with their slices and (mass, moment) in both
        measures' level tables, built once."""
        key = (tuple(grids), other)
        if key not in self._tops:
            from .levels import Tops
            self._tops[key] = Tops(grids, self, other)
        return self._tops[key]

    def in_cube(self, q) -> np.ndarray:
        """Boolean mask of atoms in the cube q: the view of atoms(q)."""
        mask = np.zeros(self.natoms, dtype=bool)
        mask[self.atoms(q)] = True
        return mask

    def rescale(self, resolution: int) -> "Measure":
        """Re-express atoms at a finer lattice 2^-resolution (exact)."""
        if resolution < self.resolution:
            raise ValueError("can only rescale to a finer resolution")
        f = 2 ** (resolution - self.resolution)
        return Measure(self.dim, resolution, self.points * f, self.masses)

    def subset(self, mask) -> "Measure":
        """Restriction of the measure to the atoms selected by the mask."""
        mask = np.asarray(mask, dtype=bool)
        return Measure(self.dim, self.resolution, self.points[mask],
                       self.masses[mask])

    def scaled(self, lam: float) -> "Measure":
        return Measure(self.dim, self.resolution, self.points,
                       self.masses * lam)


_NO_ATOMS = np.zeros(0, dtype=np.int64)

PointSet = frozenset  # of integer coordinate tuples at a shared resolution


def mass(q, mu: Measure) -> float:
    """Total mu-mass of a cube, an (lo, hi) box in mu's units or the
    ascending indices of some atoms."""
    idx = mu.atoms(q) if hasattr(q, "lo") else q if isinstance(
        q, np.ndarray) else np.flatnonzero(mu.in_box(*q))
    return float(mu.masses[idx].sum())


def average(q, mu: Measure, f: np.ndarray) -> float:
    """E_Q f under mu, for f an array of values over the atoms of mu and
    Q a cube or the ascending indices of its atoms.

    A cube of zero mu-mass has average 0.
    """
    idx = mu.atoms(q) if hasattr(q, "lo") else q
    tot = float(mu.masses[idx].sum())
    if tot <= 0.0:
        return 0.0
    return float(np.dot(mu.masses[idx], f[idx])) / tot


def at_points_of(mu: Measure, other: Measure) -> np.ndarray:
    """Mask of the atoms of mu that sit where other has an atom: one
    sort of both measures' points, other's first among equal points."""
    both = np.concatenate([other.points, mu.points])
    own = np.arange(len(both)) - other.natoms     # below 0: other's atoms
    o = np.lexsort((own, *both.T[::-1]))
    p, own = both[o], own[o]
    first = np.r_[True, (p[1:] != p[:-1]).any(axis=1)]
    lead = own[first][np.cumsum(first) - 1]     # the first of each point
    out = np.zeros(mu.natoms, dtype=bool)
    out[own[own >= 0]] = lead[own >= 0] < 0
    return out


def common_points(sigma: Measure, omega: Measure) -> PointSet:
    """Common atom locations of two measures at the same resolution."""
    if sigma.resolution != omega.resolution:
        raise ValueError("measures must share a resolution")
    shared = sigma.points[at_points_of(sigma, omega)].tolist()
    return frozenset(map(tuple, shared))

