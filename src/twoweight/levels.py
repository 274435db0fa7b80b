"""Level tables: a measure's atoms in the Morton order of a grid.

Sorting the atoms once by their path of grid cells, coarse to fine (the
hashed oct-tree of Warren and Salmon, SC'93, on exact integer dyadic
coordinates), makes every grid cube a contiguous slice [start, end) of
that order and an augmented cube its 2^n child slices.  A table is
built once per measure and grid (`Measure.levels`), with the (mass,
second moment) of every row (`Levels.moments`).  Every sum over a cube
adds up its atoms directly, never a total minus the part left out: an
A2 hole takes the kernel on all atoms in dense (cubes x atoms) blocks,
0 on the cube's own slices, and adds each row left to right.  The
energy layer imports this module on first use, so importing the
package does not compile it.

The subpartitions below a set of tops are (tops x 2^(nk)) arrays, the
pieces k levels down in Morton (child) order: the children of piece m
are pieces 2^n m .. 2^n m + 2^n - 1 one level down.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .grid import dilate4, morton_cells, whitney_cells
from .poisson_a2 import poisson_kernel

_BLOCK = 1 << 14        # entries per block of a ragged or dense sum


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


def flat(starts: np.ndarray, ends: np.ndarray) -> tuple:
    """(owner, position) of the atoms of the slices [start, end), in order."""
    lens = ends - starts
    own = np.repeat(np.arange(len(lens)), lens)
    return own, np.arange(len(own)) + np.repeat(starts - np.cumsum(lens)
                                                + lens, lens)


def ragged(starts: np.ndarray, ends: np.ndarray):
    """Blocks of rows over row-wise slices (rows, r): yields (rows,
    owner within the block, atom position), each row's atoms in order."""
    lens = ends - starts
    cum = np.cumsum(lens.sum(axis=1))
    i = 0
    while i < len(cum):
        base = cum[i - 1] if i else 0
        j = max(i + 1, int(np.searchsorted(cum, base + _BLOCK, "right")))
        st = starts[i:j].ravel()
        own, pos = flat(st, st + lens[i:j].ravel())
        yield slice(i, j), own // lens.shape[1], pos
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
        self.masses, self.w = mu.masses, mu.masses[self.order]
        self.x = mu.coords_float()[self.order]
        self.p4 = 4 * mu.points[self.order]     # quarter units
        # the nonempty cubes of all levels under one sorted code: level
        # l's cells, offset by lo[l], in mixed radix span[l], plus base[l]
        self.lo = cells.min(axis=1, initial=0)
        self.span = cells.max(axis=1, initial=0) - self.lo + 1
        self.base = np.cumsum(np.r_[0, self.span.prod(axis=1)[:-1]])
        codes, st, en, lo = [], [], [], []
        for li, c in enumerate(cells[:, self.order]):
            new = np.ones(len(c), dtype=bool)
            new[1:] = (c[1:] != c[:-1]).any(axis=1)
            st.append(np.flatnonzero(new))
            en.append(np.append(st[-1][1:], len(c)))
            codes.append(self._code(li, c[st[-1]]))
            lo.append(off[li] + c[st[-1]] * sides[li])
        o = np.lexsort((np.concatenate(codes),))
        # -1 ends each array: no code is -1
        self.codes, self.st, self.en = (np.append(np.concatenate(x)[o], v)
                                        for x, v in ((codes, -1), (st, 0),
                                                     (en, 0)))
        # level and corner of each nonempty cube, row by row
        self.level = grid.N + np.repeat(np.arange(len(cells)),
                                        [len(x) for x in st])[o]
        self.corner = np.concatenate(lo).reshape(-1, self.n)[o]
        self.mass = self.sums(mu.masses)

    def _code(self, li, cells):
        """Codes of cells (..., n) of the levels li - N (broadcast), -2
        outside the box of the level's nonempty cells."""
        rel, span = cells - self.lo[li], self.span[li]
        code = rel[..., 0]
        for a in range(1, self.n):
            code = code * span[..., a] + rel[..., a]
        return np.where(((rel >= 0) & (rel < span)).all(axis=-1),
                        self.base[li] + code, -2)

    def rows(self, level, corners) -> np.ndarray:
        """Rows of the grid cubes at level (one or one per cube) holding
        the corners (..., n); -1, the arrays' ends, where empty."""
        off, sides = self.grid.level_arrays
        li = np.asarray(level) - self.grid.N
        code = self._code(li, (np.asarray(corners) - off[li])
                          // sides[li, 0][..., None])
        i = np.searchsorted(self.codes[:-1], code)
        return np.where(self.codes[i] == code, i, -1)

    def slices(self, level, corners) -> tuple:
        """[start, end) of the cubes of `rows`; (0, 0) when empty."""
        i = self.rows(level, corners)
        return self.st[i], self.en[i]

    @cached_property
    def walk(self) -> tuple:
        """(rows, place, -end): all rows in the order of a depth first
        walk that stacks children in child order, by end (down), level;
        each row's place in it; minus the end along it."""
        w = np.lexsort((self.level, -self.en[:-1]))
        place = np.empty_like(w)
        place[w] = np.arange(len(w))
        return w, place, -self.en[w]

    def below(self, r: int) -> np.ndarray:
        """Rows of the nonempty cubes below row r, r first, in walk order:
        up to the first row that ends at or before r's start."""
        w, place, key = self.walk
        return w[place[r]:np.searchsorted(key, -self.st[r])]

    def subtree(self, root) -> np.ndarray:
        """`below` the row of the grid cube root; empty if root is."""
        g = self.grid
        if not g.N <= root.level <= g.M or root != g.cube_containing(
                root.level, root.lo):
            raise ValueError(f"{root} is not a cube of the grid")
        r = int(self.rows(root.level, np.array(root.lo)))
        return self.below(r) if r >= 0 else np.zeros(0, dtype=np.int64)

    def atoms(self, r: int) -> np.ndarray:
        """Ascending indices of row r's atoms (none for -1), as
        `Measure.atoms` gives them, so that a sum over them adds as there."""
        idx = self.order[self.st[r]:self.en[r]]
        return idx[np.argsort(idx, kind="stable")]

    def sums(self, v) -> np.ndarray:
        """Each row's sum of v, one value per atom of the measure, in
        table order; 0 at the arrays' ends."""
        own, pos = flat(self.st[:-1], self.en[:-1])
        return np.append(np.bincount(own, v[self.order[pos]]), 0.0)

    def averages(self, f) -> np.ndarray:
        """Each row's average of f under the measure; 0 at the ends."""
        tot = self.sums(self.masses * f)
        return np.divide(tot, self.mass, out=tot, where=self.mass > 0)

    def cube_slices(self, level, corners, aug) -> tuple:
        """(cubes, 2^n) slices: a grid cube in the first column, an
        augmented cube (aug) as its children one level down."""
        level, g = np.broadcast_to(level, aug.shape), self.grid
        # one lookup: a grid cube's corner fills every column, and all
        # but its first are emptied
        half = aug * 2 ** (g.M - 1 - np.minimum(level, g.M - 1))
        r = self.rows((level + aug)[:, None], corners[:, None]
                      + half[:, None, None] * morton_cells(self.n, 1))
        r[~aug, 1:] = -1
        return self.st[r], self.en[r]

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

    @cached_property
    def moments(self) -> tuple:
        """`stats` of every row in one pass, each with the bits of a `stats`
        call on its cube alone; 0 at the arrays' ends."""
        return tuple(np.append(m, 0.0) for m in self.stats(
            self.st[:-1, None], self.en[:-1, None]))

    def cube_stats(self, level, corners, aug) -> tuple:
        """`stats` of the cubes of `cube_slices`, level one per cube: a
        grid cube's read from `moments` by row, an augmented cube's (aug)
        summed again."""
        r = self.rows(level, corners)
        out = tuple(m[r] for m in self.moments)
        if aug.any():
            out[0][aug], out[1][aug] = self.stats(*self.cube_slices(
                level[aug], corners[aug], aug[aug]))
        return out

    def _kernel(self, kind, at, lo, side, alpha: float):
        """w times the Poisson kernel at the atoms `at` of the grid cubes
        (corners lo, sides side), for any broadcast of atoms and cubes."""
        centre = (4 * lo + 2 * side[..., None]) / 2.0 ** (self.grid.M + 2)
        d2 = 0.0
        for a in range(self.n):
            d = self.x[at, a] - centre[..., a]
            d2 = d2 + d * d
        return self.w[at] * poisson_kernel(kind, side / 2.0 ** self.grid.M,
                                           np.sqrt(d2), self.n, alpha)

    def poisson(self, starts, ends, lo, side, alpha: float,
                kind: str = "standard", holes=(None,)) -> np.ndarray:
        """Poisson integrals of each row's atoms at grid cubes (corners lo,
        sides side), one row per hole: without the atoms in the box
        hole = (lo4, hi4), grid quarter units per cube, or all of them
        where hole is None."""
        out = np.zeros((len(holes), len(starts)))
        for rows, own, pos in ragged(starts, ends):
            k = rows.stop - rows.start
            v = self._kernel(kind, pos, lo[rows][own], side[rows][own], alpha)
            p4 = self.p4[pos]
            for h, box in enumerate(holes):
                out[h, rows] = np.bincount(own, v if box is None else np.where(
                    ((p4 >= box[0][rows][own])
                     & (p4 < box[1][rows][own])).all(axis=1),
                    0.0, v), k)
        return out

    def outside(self, starts, ends, lo, side, alpha: float,
                kind: str) -> np.ndarray:
        """Poisson integrals of the atoms outside each row's slices at
        grid cubes (corners lo, sides side), in (rows x atoms) blocks of
        at most _BLOCK entries: the kept atoms in the order of the slices
        around the row's."""
        out, pos = np.zeros(len(starts)), np.arange(len(self.w))
        step = max(1, _BLOCK // max(len(pos), 1))
        for i in range(0, len(starts) if len(pos) else 0, step):
            b = slice(i, i + step)
            v = self._kernel(kind, pos, lo[b, None], side[b, None], alpha)
            v[((pos >= starts[b, :, None])
               & (pos < ends[b, :, None])).any(axis=1)] = 0.0
            out[b] = np.cumsum(v, axis=1)[:, -1]
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
        m2 = mom.cube_stats(lev, corners, aug.repeat(1 << (n * k)) & (
            k == 0))[1]
        sel = np.flatnonzero(m2 > 0)
        top, side = sel >> (n * k), 2 ** (g.M - lev[sel])
        p = amb.poisson(a_s[top], a_e[top], corners[sel], side, alpha)[0]
        term = np.zeros(len(corners))
        term[sel] = (p / (side / 2.0 ** g.M)) ** 2 * m2[sel]
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
        m2 = mom.moments[1][mom.rows(g.M - np.log2(side).astype(np.int64),
                                     corners)]
        sel = np.flatnonzero(m2 > 0)
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
                               * m2[sel], len(corners) // len(ws))
            terms[name].append(term.reshape(len(lo), -1))
    return terms

