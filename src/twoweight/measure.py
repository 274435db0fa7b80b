"""Finite atomic measures on the dyadic lattice.

Atoms live on the lattice (1/2^M)Z^n so that cube membership is exact
integer arithmetic.  Masses are stored both as floats (for numerics) and
as the original decimal strings (for bit-exact round trips through the
file format).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Measure",
    "PointSet",
    "mass",
    "average",
    "common_points",
    "load_measure",
    "dump_measure",
]


def _lattice_coord(c) -> int:
    """A lattice coordinate; a float must be integral (and so finite)."""
    if isinstance(c, float) and not c.is_integer():
        raise ValueError(f"atom coordinate {c!r} is not an integer")
    return int(c)


def _mass_str(m) -> str:
    if isinstance(m, str):
        return m
    return repr(float(m))


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
    mass_strs: tuple = ()
    # (side, phase) -> {cell: ascending atom indices}, built by atoms()
    _index: dict = field(default_factory=dict, init=False, repr=False)

    @staticmethod
    def from_atoms(dim, resolution, atoms) -> "Measure":
        """Build a measure from (coords, mass) pairs, merging duplicates."""
        merged: dict[tuple, float] = {}
        strs: dict[tuple, str] = {}
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
            if key in merged:
                merged[key] += fm
                strs[key] = _mass_str(merged[key])
            else:
                merged[key] = fm
                strs[key] = _mass_str(m)
            if not math.isfinite(merged[key]):   # NaN, or a sum overflowed
                raise ValueError(f"atom at {key} has non-finite mass "
                                 f"{merged[key]}")
        keys = sorted(merged)
        pts = np.array(keys, dtype=np.int64).reshape(len(keys), dim)
        ms = np.array([merged[k] for k in keys], dtype=np.float64)
        return Measure(dim, resolution, pts, ms, tuple(strs[k] for k in keys))

    @property
    def natoms(self) -> int:
        return len(self.masses)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def coords_float(self) -> np.ndarray:
        """Atom locations as floats (exact: dyadic rationals)."""
        return self.points.astype(np.float64) / float(2 ** self.resolution)

    def in_box(self, lo, hi) -> np.ndarray:
        """Boolean mask of atoms in the half-open box [lo, hi), lattice units."""
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        return np.all((self.points >= lo) & (self.points < hi), axis=1)

    def atoms(self, q) -> np.ndarray:
        """Ascending indices of the atoms in the cube q, at any resolution.

        The cube becomes the box of lattice points it holds, a cell of
        the index of its (side, phase), which is built on first use.
        """
        shift = self.resolution - q.resolution
        if shift >= 0:
            side = q.side << shift
            lo = [x << shift for x in q.lo]
        else:  # finer than the lattice: the first lattice point >= each edge
            lo = [-(-x >> -shift) for x in q.lo]
            hi = [-(-(x + q.side) >> -shift) for x in q.lo]
            side = min(b - a for a, b in zip(lo, hi))
            if side <= 0:
                return _NO_ATOMS
        phase = tuple(x % side for x in lo)
        cells = self._index.get((side, phase))
        if cells is None:
            cells = self._index[side, phase] = self._cells(side, phase)
        return cells.get(tuple((x - p) // side for x, p in zip(lo, phase)),
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

    def in_cube(self, q) -> np.ndarray:
        """Boolean mask of atoms in the cube q: the view of atoms(q)."""
        mask = np.zeros(self.natoms, dtype=bool)
        mask[self.atoms(q)] = True
        return mask

    def in_box4(self, lo4, hi4) -> np.ndarray:
        """Membership against a box given in quarter-lattice units 2^-(M+2)."""
        p4 = self.points * 4
        lo4 = np.asarray(lo4, dtype=np.int64)
        hi4 = np.asarray(hi4, dtype=np.int64)
        return np.all((p4 >= lo4) & (p4 < hi4), axis=1)

    def rescale(self, resolution: int) -> "Measure":
        """Re-express atoms at a finer lattice 2^-resolution (exact)."""
        if resolution < self.resolution:
            raise ValueError("can only rescale to a finer resolution")
        f = 2 ** (resolution - self.resolution)
        return Measure(self.dim, resolution, self.points * f, self.masses,
                       self.mass_strs)

    def subset(self, mask) -> "Measure":
        """Restriction of the measure to the atoms selected by the mask."""
        mask = np.asarray(mask, dtype=bool)
        strs = tuple(np.array(self.mass_strs, dtype=object)[mask]) \
            if self.mass_strs else ()
        return Measure(self.dim, self.resolution, self.points[mask],
                       self.masses[mask], strs)

    def scaled(self, lam: float) -> "Measure":
        masses = self.masses * lam
        return Measure(self.dim, self.resolution, self.points, masses,
                       tuple(map(_mass_str, masses)) if self.mass_strs
                       else ())


_NO_ATOMS = np.zeros(0, dtype=np.int64)

PointSet = frozenset  # of integer coordinate tuples at a shared resolution


def mass(q, mu: Measure) -> float:
    """Total mu-mass of a cube or an (lo, hi) box in mu's units."""
    idx = mu.atoms(q) if hasattr(q, "lo") else np.flatnonzero(mu.in_box(*q))
    return float(mu.masses[idx].sum())


def average(q, mu: Measure, f: np.ndarray) -> float:
    """E_Q f under mu, for f an array of values over the atoms of mu.

    A cube of zero mu-mass has average 0.
    """
    idx = mu.atoms(q)
    tot = float(mu.masses[idx].sum())
    if tot <= 0.0:
        return 0.0
    return float(np.dot(mu.masses[idx], f[idx])) / tot


def common_points(sigma: Measure, omega: Measure) -> PointSet:
    """Common atom locations of two measures at the same resolution."""
    if sigma.resolution != omega.resolution:
        raise ValueError("measures must share a resolution")
    a = {tuple(p) for p in sigma.points}
    b = {tuple(p) for p in omega.points}
    return frozenset(a & b)


# ---------------------------------------------------------------------------
# file format


def dump_measure(mu: Measure) -> str:
    strs = mu.mass_strs or tuple(map(_mass_str, mu.masses))
    atoms = [
        {"num": [int(c) for c in mu.points[i]], "mass": strs[i]}
        for i in range(mu.natoms)
    ]
    return json.dumps(
        {"dim": mu.dim, "resolution": mu.resolution, "atoms": atoms},
        indent=1,
    )


def load_measure(text: str) -> Measure:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"measure parse error at line {e.lineno}: {e.msg}") from e
    for key in ("dim", "resolution", "atoms"):
        if key not in obj:
            raise ValueError(f"measure file missing field {key!r}")
    return Measure.from_atoms(
        obj["dim"],
        obj["resolution"],
        [(a["num"], a["mass"]) for a in obj["atoms"]],
    )
