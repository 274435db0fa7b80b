"""Level tables: a measure's atoms in the Morton order of a grid.

Sorting the atoms once by their path of grid cells, coarse to fine (the
hashed oct-tree of Warren and Salmon, SC'93, on exact integer dyadic
coordinates), makes every grid cube a contiguous slice [start, end) of
that order, an augmented cube its 2^n child slices and a complement the
slices between them.  Every sum over a cube adds up its atoms directly,
slice by slice, never a total minus the part left out.  The energy layer
imports this module on first use, so importing the package does not
compile it.

The subpartitions below a set of tops are (tops x 2^(nk)) arrays, the
pieces k levels down in Morton (child) order: the children of piece m
are pieces 2^n m .. 2^n m + 2^n - 1 one level down.  The tables live for
one call.
"""

from __future__ import annotations

import numpy as np

from .grid import dilate4, morton_cells, whitney_cells
from .poisson_a2 import poisson_kernel

_BLOCK = 1 << 12        # atoms per block of a ragged sum, to bound memory


def _one_lattice(mu, grid):
    if mu.resolution != grid.M:
        raise ValueError(f"measure at resolution {mu.resolution} meets "
                         f"a grid at resolution {grid.M}")


def support_bounds(ms):
    pts = [m.points for m in ms if m.natoms]
    if not pts:
        return None
    allp = np.vstack(pts)
    return allp.min(axis=0), allp.max(axis=0) + 1


def tops(grids, sigma, omega) -> tuple:
    """The cubes of `enumerate_cubes` as (grid index, level, augmented,
    corner) arrays, in its order: per grid, its cubes meeting the support
    box level by level, then its augmented cubes, each cube kept at its
    first appearance."""
    rows = []
    b = support_bounds((sigma, omega))
    for gi, g in enumerate(grids):
        _one_lattice(sigma, g)
        _one_lattice(omega, g)
        for aug in (False, True) if b is not None else ():
            for lev in range(g.N, g.M if aug else g.M + 1):
                rows.append((gi, lev, aug, g.corners(lev, *b, aug)))
    rows = rows or [(0, 0, False, np.zeros((0, sigma.dim), dtype=np.int64))]
    gi, lev, aug = (np.concatenate([np.full(len(r[3]), r[i]) for r in rows])
                    for i in range(3))
    lo = np.concatenate([r[3] for r in rows])
    res = np.array([g.M for g in grids])[gi]
    key = np.column_stack([res, res - lev, lo])     # what Cube equality sees
    o = np.lexsort(key.T[::-1])                     # stable: first copy first
    new = np.ones(len(o), dtype=bool)
    new[1:] = (key[o][1:] != key[o][:-1]).any(axis=1)
    first = o[new]
    keep = first[np.lexsort((first,))]
    return gi[keep], lev[keep], aug[keep], lo[keep]


def kid_sums(best: np.ndarray, n: int) -> np.ndarray:
    """Sums over each piece's 2^n children, left to right."""
    c = best.reshape(best.shape[0], -1, 1 << n)
    tot = c[..., 0].copy()
    for i in range(1, 1 << n):
        tot += c[..., i]
    return tot


def subpartition(terms, n: int, passes: int) -> list:
    """Best subpartition sums below every piece of a (tops x pieces) tree.

    terms[k] holds the terms of the pieces k levels below the tops.  A
    piece keeps its own term when that is at least the sum of its
    children's best.  After p passes each best looks p levels down.
    """
    best = list(terms)
    for _ in range(passes):
        best = [np.maximum(t, kid_sums(b, n))
                for t, b in zip(terms, best[1:])] + best[-1:]
    return best


def partition(terms, best, n: int, t: int) -> list:
    """(depth, index) of the pieces of top t's best subpartition, depth
    first in child order."""
    out, stack = [], [(0, 0)]
    while stack:
        k, m = stack.pop()
        kids = np.arange(m << n, (m + 1) << n)
        if k + 1 < len(terms) and terms[k][t, m] < kid_sums(
                best[k + 1][t:t + 1, kids], n)[0, 0]:
            stack.extend((k + 1, c) for c in kids[::-1].tolist())
        else:
            out.append((k, m))
    return out


def ragged(starts: np.ndarray, ends: np.ndarray):
    """Blocks of rows over row-wise slices (rows, r): yields (rows,
    owner within the block, atom position), each row's atoms in order."""
    lens = ends - starts
    cum = np.cumsum(lens.sum(axis=1))
    i = 0
    while i < len(cum):
        base = cum[i - 1] if i else 0
        j = max(i + 1, int(np.searchsorted(cum, base + _BLOCK, "right")))
        ln, st = lens[i:j].ravel(), starts[i:j].ravel()
        c = np.cumsum(ln)
        owner = np.repeat(np.arange(j - i).repeat(lens.shape[1]), ln)
        yield slice(i, j), owner, np.arange(c[-1]) + np.repeat(st - c + ln,
                                                               ln)
        i = j


class Levels:
    """The atoms of mu in the Morton order of grid, with the slice of
    every nonempty grid cube of every level."""

    def __init__(self, mu, grid):
        _one_lattice(mu, grid)
        self.grid, self.n = grid, grid.dim
        off, sides = grid.level_arrays
        # (levels, atoms, n)
        cells = (mu.points[None] - off[:, None]) // sides[:, None]
        self.order = np.lexsort(
            cells.transpose(0, 2, 1).reshape(len(cells) * self.n, -1)[::-1])
        self.w = mu.masses[self.order]
        self.x = mu.coords_float()[self.order]
        self.p4 = 4 * mu.points[self.order]     # quarter units
        # the nonempty cubes of all levels under one sorted code: level
        # l's cells, offset by lo[l], in mixed radix span[l], plus base[l]
        self.lo = cells.min(axis=1, initial=0)
        self.span = cells.max(axis=1, initial=0) - self.lo + 1
        self.base = np.cumsum(np.r_[0, self.span.prod(axis=1)[:-1]])
        codes, st, en = [], [], []
        for li, c in enumerate(cells[:, self.order]):
            new = np.ones(len(c), dtype=bool)
            new[1:] = (c[1:] != c[:-1]).any(axis=1)
            st.append(np.flatnonzero(new))
            en.append(np.append(st[-1][1:], len(c)))
            codes.append(self._code(li, c[st[-1]]))
        o = np.lexsort((np.concatenate(codes),))
        # -1 ends each array: no code is -1
        self.codes, self.st, self.en = (np.append(np.concatenate(x)[o], v)
                                        for x, v in ((codes, -1), (st, 0),
                                                     (en, 0)))

    def _code(self, li, cells):
        """Codes of cells (..., n) of the levels li - N (broadcast), -2
        outside the box of the level's nonempty cells."""
        rel, span = cells - self.lo[li], self.span[li]
        code = rel[..., 0]
        for a in range(1, self.n):
            code = code * span[..., a] + rel[..., a]
        return np.where(((rel >= 0) & (rel < span)).all(axis=-1),
                        self.base[li] + code, -2)

    def slices(self, level, corners) -> tuple:
        """[start, end) of the grid cubes at level (one or one per cube)
        with the given corners (..., n) in grid lattice units; (0, 0) when
        empty."""
        off, sides = self.grid.level_arrays
        li = np.asarray(level) - self.grid.N
        code = self._code(li, (np.asarray(corners) - off[li])
                          // sides[li, 0][..., None])
        i = np.searchsorted(self.codes[:-1], code)
        hit = self.codes[i] == code
        return np.where(hit, self.st[i], 0), np.where(hit, self.en[i], 0)

    def cube_slices(self, level, corners, aug) -> tuple:
        """(cubes, 2^n) slices: a grid cube in the first column, an
        augmented cube (aug) as its children one level down."""
        level = np.broadcast_to(level, aug.shape)
        s = np.zeros((len(corners), 1 << self.n), dtype=np.int64)
        e = s.copy()
        s[~aug, 0], e[~aug, 0] = self.slices(level[~aug], corners[~aug])
        if aug.any():
            half = 2 ** (self.grid.M - 1 - level[aug])
            s[aug], e[aug] = self.slices(
                (level[aug] + 1)[:, None], corners[aug][:, None]
                + half[:, None, None] * morton_cells(self.n, 1))
        return s, e

    def complement(self, starts, ends) -> tuple:
        """Slices of the atoms outside each row's disjoint slices."""
        top = len(self.w)   # disjoint slices: starts and ends sort alike
        row = np.arange(len(starts)).repeat(starts.shape[1])
        s, e = (y.ravel()[np.lexsort((y.ravel(), row))].reshape(starts.shape)
                for y in (np.where(ends > starts, x, top)
                          for x in (starts, ends)))
        edge = np.full((len(s), 1), top)
        return np.hstack([0 * edge, e]), np.hstack([s, edge])

    def stats(self, starts, ends) -> tuple:
        """(mass, second moment about the barycentre) of each row's atoms,
        the moment in two passes: barycentre, then squared distances."""
        mass, mom = np.zeros(len(starts)), np.zeros(len(starts))
        for rows, own, pos in ragged(starts, ends):
            k = rows.stop - rows.start
            w, x = self.w[pos], self.x[pos]
            m = np.bincount(own, w, k)
            c = np.column_stack([np.bincount(own, w * x[:, a], k)
                                 for a in range(self.n)])
            d = x - (c / np.where(m > 0, m, 1.0)[:, None])[own]
            mass[rows] = m
            mom[rows] = np.bincount(own, w * (d * d).sum(axis=1), k)
        return mass, mom

    def poisson(self, starts, ends, lo, side, alpha: float,
                kind: str = "standard", holes=(None,)) -> np.ndarray:
        """Poisson integrals of each row's atoms at grid cubes (corners lo,
        sides side), one row per hole: without the atoms in the box
        hole = (lo4, hi4), grid quarter units per cube, or all of them
        where hole is None."""
        n, res = self.n, self.grid.M
        ell = side / 2.0 ** res
        centre = (4 * lo + 2 * side[:, None]) / 2.0 ** (res + 2)
        out = np.zeros((len(holes), len(starts)))
        for rows, own, pos in ragged(starts, ends):
            k = rows.stop - rows.start
            d = self.x[pos] - centre[rows][own]
            dist = np.sqrt((d * d).sum(axis=1))
            v = self.w[pos] * poisson_kernel(kind, ell[rows][own], dist, n,
                                             alpha)
            p4 = self.p4[pos]
            for h, box in enumerate(holes):
                out[h, rows] = np.bincount(own, v if box is None else np.where(
                    ((p4 >= box[0][rows][own])
                     & (p4 < box[1][rows][own])).all(axis=1),
                    0.0, v), k)
        return out


def pieces(grid, level, lo, k: int) -> np.ndarray:
    """(tops, 2^(nk), n) corners of the pieces k levels below the tops at
    level (one or one per top)."""
    side = 2 ** (grid.M - k - np.asarray(level))
    return lo[:, None] + side[..., None, None] * morton_cells(grid.dim, k)


def strong_terms(amb: Levels, mom: Levels, level, lo, aug, depth: int,
                 alpha: float) -> list:
    """terms[k] (tops, 2^(nk)) of the strong energy below tops at level
    (one or one per top).

    term(J) = (P(J, amb on the top) / l(J))^2 times the mom-moment of J;
    a piece whose moment is 0 adds nothing and is skipped.
    """
    g, n = amb.grid, amb.n
    level = np.broadcast_to(level, aug.shape)
    a_s, a_e = amb.cube_slices(level, lo, aug)
    terms = []
    for k in range(depth + 1):
        corners = pieces(g, level, lo, k).reshape(-1, n)
        lev = np.repeat(level + k, 1 << (n * k))
        s, e = mom.cube_slices(lev, corners, aug.repeat(1 << (n * k)) & (
            k == 0))
        sel = np.flatnonzero((e - s).sum(axis=1) > 0)
        m2 = mom.stats(s[sel], e[sel])[1]
        sel, m2 = sel[m2 > 0], m2[m2 > 0]
        top, side = sel >> (n * k), 2 ** (g.M - lev[sel])
        p = amb.poisson(a_s[top], a_e[top], corners[sel], side, alpha)[0]
        term = np.zeros(len(corners))
        term[sel] = (p / (side / 2.0 ** g.M)) ** 2 * m2
        terms.append(term.reshape(len(lo), -1))
    return terms


def whitney_terms(amb: Levels, mom: Levels, level: int, lo, aug, depth: int,
                  alpha: float, gamma: float, names) -> dict:
    """{variant: terms[k]} of the Whitney energies below tops at level.

    term(J) sums, over the Whitney cubes M of J in `whitney` order,
    (P(M, amb on the top minus the hole) / l(M))^2 times the mom-moment
    of M.  The hole is gamma M (hole), M (partial) or empty (plug).
    """
    g, n = amb.grid, amb.n
    a_s, a_e = amb.cube_slices(level, lo, aug)
    terms = {name: [] for name in names}
    for k in range(depth + 1):
        wc, ws, _ = whitney_cells(g.M - level - k, n)
        corners = (pieces(g, level, lo, k)[:, :, None] + wc).reshape(-1, n)
        side = np.tile(ws, len(corners) // len(ws))
        s, e = np.zeros((2, len(corners)), dtype=np.int64)
        for sd in sorted(set(ws.tolist())):
            at = side == sd
            s[at], e[at] = mom.slices(g.M - sd.bit_length() + 1, corners[at])
        sel = np.flatnonzero(e > s)
        m2 = mom.stats(s[sel, None], e[sel, None])[1]
        sel, m2 = sel[m2 > 0], m2[m2 > 0]
        c, sd = corners[sel], side[sel]
        top = sel // (len(ws) << (n * k))
        box = {"plug": None, "partial": (4 * c, 4 * (c + sd[:, None]))}
        if "hole" in names:
            # the dilates of the template, checked for every side, moved
            # to each piece's corner
            t = sel % len(ws)
            base = 4 * (c - wc[t])
            box["hole"] = tuple(base + x[t] for x in dilate4(wc, ws, gamma))
        p = amb.poisson(a_s[top], a_e[top], c, sd, alpha,
                        holes=[box[name] for name in names])
        for name, v in zip(names, p):
            term = np.bincount(sel // len(ws), (v / (sd / 2.0 ** g.M)) ** 2
                               * m2, len(corners) // len(ws))
            terms[name].append(term.reshape(len(lo), -1))
    return terms

