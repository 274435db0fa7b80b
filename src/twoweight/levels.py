"""Level tables: a measure's atoms in the Morton order of a grid.

Sorting the atoms once by their path of grid cells, coarse to fine (the
hashed oct-tree of Warren and Salmon, SC'93, on exact integer dyadic
coordinates), makes every grid cube a contiguous slice [start, end) of
that order and an augmented cube its 2^n child slices.  A table is
built once per measure and grid (`Measure.levels`), with the (mass,
second moment) of every row (`Levels.moments`); a cube's row is one
read of a dense table indexed by the cube's (level, cell) code.  Every
sum over a cube adds up its atoms directly, never a total minus the
part left out: an A2 hole takes the kernel on all atoms in dense (cubes
x atoms) blocks, 0 on the cube's own slices, and adds each row left to
right.  The enumerated cubes of a pair, with their slices and moments
in both tables, are found once per pair and grids (`Measure.tops`) and
shared by the A2 constants and the energies.  The energy layer imports
this module on first use, so importing the package does not compile it.

The subpartitions below a set of tops are (tops x 2^(nk)) arrays, the
pieces k levels down in Morton (child) order: the children of piece m
are pieces 2^n m .. 2^n m + 2^n - 1 one level down.  The terms k levels
down are built for all tops of a grid at once, one row lookup and one
Poisson call per depth; the tops come coarse first, so those reaching
depth k are a prefix, and the DP runs on the slice of each group of
equal depth.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .grid import dilate4, morton_cells, whitney_cells
from .poisson_a2 import poisson_kernel

_BLOCK = 1 << 14        # entries per block of a ragged or dense sum
_TABLE = 1 << 22        # entries of a level table's code -> row table


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


def ragged_blocks(sizes: np.ndarray):
    """Slices of consecutive rows of the given sizes, each with at most
    _BLOCK entries in all or a single row."""
    cum = np.cumsum(sizes)
    i = 0
    while i < len(cum):
        base = cum[i - 1] if i else 0
        j = max(i + 1, int(np.searchsorted(cum, base + _BLOCK, "right")))
        yield slice(i, j)
        i = j


def ragged(starts: np.ndarray, ends: np.ndarray):
    """Blocks of rows over row-wise slices (rows, r): yields (rows,
    owner within the block, atom position), each row's atoms in order."""
    lens = ends - starts
    for rows in ragged_blocks(lens.sum(axis=1)):
        st = starts[rows].ravel()
        own, pos = flat(st, st + lens[rows].ravel())
        yield rows, own // lens.shape[1], pos


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
        # each level's box of nonempty cells, first axis slowest: cell c
        # of level l has code base[l] + (c - lo[l]) . stride[l], and
        # table[code] is its row (-1, the arrays' ends, where empty)
        lo = cells.min(axis=1) if mu.natoms else 0 * off
        span = cells.max(axis=1) + 1 - lo if mu.natoms else 0 * off
        stride = np.ones_like(span)
        for a in range(self.n - 2, -1, -1):
            stride[:, a] = stride[:, a + 1] * span[:, a + 1]
        size = span.prod(axis=1)
        entries = span.astype(float).prod(axis=1).sum()  # int64 can wrap
        if entries > _TABLE:
            raise ValueError(f"the level table would hold {entries:.0f} "
                             f"cells, more than {_TABLE}: the atoms spread "
                             "too far for the grid")
        base = np.cumsum(size) - size
        codes, st, en, corner = [], [], [], []
        for li, c in enumerate(cells[:, self.order]):
            new = np.ones(len(c), dtype=bool)
            new[1:] = (c[1:] != c[:-1]).any(axis=1)
            st.append(np.flatnonzero(new))
            en.append(np.append(st[-1][1:], len(c)))
            codes.append(base[li] + (c[st[-1]] - lo[li]) @ stride[li])
            corner.append(off[li] + c[st[-1]] * sides[li])
        codes = np.concatenate(codes)
        o = np.lexsort((codes,))
        self.table = np.full(size.sum() + 1, -1)
        self.table[codes[o]] = np.arange(len(o))
        # per level (column): lattice origin of the box, span, stride,
        # base, shift
        self.key = np.vstack([(off + lo * sides).T, span.T, stride.T, base,
                              grid.M - grid.N - np.arange(len(off))])
        # -1 ends each array
        self.st, self.en = (np.append(np.concatenate(x)[o], 0)
                            for x in (st, en))
        # level and corner of each nonempty cube, row by row
        self.level = grid.N + np.repeat(np.arange(len(cells)),
                                        [len(x) for x in st])[o]
        self.corner = np.concatenate(corner).reshape(-1, self.n)[o]
        self.mass = self.sums(mu.masses)

    def rows(self, level, corners) -> np.ndarray:
        """Rows of the grid cubes at level (one or one per cube) holding
        the corners (..., n); -1, the arrays' ends, where empty.

        One read of the dense table: it has an entry for every cell of
        each level's box of nonempty cells, so for a measure in the unit
        cube at most (2^l + 1)^n at level l, about sum_l 2^(nl) in all
        (87,381 entries, 0.7 MB, at (2, 8)); `_TABLE` bounds it.
        """
        n, c, key = self.n, np.asarray(corners), self.key
        li = np.asarray(level) - self.grid.N
        code, shift = key[3 * n][li], key[3 * n + 1][li]
        for a in range(n):
            rel = (c[..., a] - key[a][li]) >> shift
            code = code + rel * key[2 * n + a][li]
            far = (rel < 0) | (rel >= key[n + a][li])
            out = far if a == 0 else out | far
        return self.table[np.where(out, -1, code)]

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

    def cube_rows(self, level, corners, aug) -> tuple:
        """(rows, mass, moment) of grid cubes and augmented cubes (aug),
        level one per cube or one for all: the (cubes, 2^n) rows of their
        slices, a grid cube's in the first column and an augmented cube's
        children one level down; their `stats`, a grid cube's read from
        `moments` by row and an augmented cube's summed again."""
        level, g = np.broadcast_to(level, aug.shape), self.grid
        # one lookup: a grid cube's corner fills every column, and all
        # but its first are emptied
        half = aug * 2 ** (g.M - 1 - np.minimum(level, g.M - 1))
        r = self.rows((level + aug)[:, None], corners[:, None]
                      + half[:, None, None] * morton_cells(self.n, 1))
        r[~aug, 1:] = -1
        mass, mom = (m[r[:, 0]] for m in self.moments)
        if aug.any():
            mass[aug], mom[aug] = self.stats(self.st[r[aug]], self.en[r[aug]])
        return r, mass, mom

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

    def _kernel(self, kind, at, lo, side, alpha: float, own=slice(None)):
        """w times the Poisson kernel at the atoms `at` of the grid cubes
        (corners lo, sides side) picked by own, for any broadcast of atoms
        and cubes; centres and sides are found once per cube."""
        g = self.grid
        centre = ((4 * lo + 2 * side[..., None]) / 2.0 ** (g.M + 2))[own]
        d2 = 0.0
        for a in range(self.n):
            d = self.x[at, a] - centre[..., a]
            d2 = d2 + d * d
        return self.w[at] * poisson_kernel(kind, (side / 2.0 ** g.M)[own],
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
            v = self._kernel(kind, pos, lo[rows], side[rows], alpha, own)
            p4 = self.p4[pos] if any(h is not None for h in holes) else None
            for h, box in enumerate(holes):
                kept = v
                if box is not None:     # 0 in the box, one axis at a time
                    lo4, hi4, off = box[0][rows], box[1][rows], True
                    for a in range(self.n):
                        off = off & (p4[:, a] >= lo4[own, a]) & (
                            p4[:, a] < hi4[own, a])
                    kept = np.where(off, 0.0, v)
                out[h, rows] = np.bincount(own, kept, k)
        return out

    def outside(self, starts, ends, lo, side, alpha: float,
                kind: str) -> np.ndarray:
        """Poisson integrals of the atoms outside each row's slices at
        grid cubes (corners lo, sides side), in (rows x atoms) blocks of
        at most _BLOCK entries: the kept atoms in the order of the slices
        around the row's."""
        out, n = np.zeros(len(starts)), len(self.w)
        step = max(1, _BLOCK // max(n, 1))
        for i in range(0, len(starts) if n else 0, step):
            b = slice(i, i + step)
            v = self._kernel(kind, slice(None), lo[b, None], side[b, None],
                             alpha)
            own, pos = flat(starts[b].ravel(), ends[b].ravel())
            v[own // starts.shape[1], pos] = 0.0    # the row's own atoms
            out[b] = np.cumsum(v, axis=1)[:, -1]
        return out


class Tops:
    """The cubes of `tops` for a pair on some grids that hold an atom of
    either measure, in the same order, each with the rows of its slices
    and its (mass, moment) in both measures' level tables (measure k: 0
    for sigma, 1 for omega); built once per pair and grids
    (`Measure.tops`).  A cube empty in both measures adds to no constant
    and no energy."""

    def __init__(self, grids, sigma, omega):
        gi, lev, aug, lo = tops(grids, sigma, omega)
        self.tables = [(sigma.levels(g), omega.levels(g)) for g in grids]
        t = len(gi)
        # 32-bit rows: the tops live as long as sigma
        rows = np.zeros((2, t, 1 << sigma.dim), dtype=np.int32)
        mass, moment = np.zeros((2, t)), np.zeros((2, t))
        for g, tabs in enumerate(self.tables):
            at = np.flatnonzero(gi == g)
            for k, lv in enumerate(tabs):
                rows[k, at], mass[k, at], moment[k, at] = lv.cube_rows(
                    lev[at], lo[at], aug[at])
        keep = (mass > 0).any(axis=0)
        self.gi, self.lev, self.aug, self.lo = (x[keep]
                                                for x in (gi, lev, aug, lo))
        self.rows, self.mass, self.moment = (x[:, keep]
                                             for x in (rows, mass, moment))
        self.at = [np.flatnonzero(self.gi == g) for g in range(len(grids))]

    def slices(self, g: int, k: int, rows) -> tuple:
        """(starts, ends) of the tops `rows` of grid g in measure k."""
        lv, r = self.tables[g][k], self.rows[k, rows]
        return lv.st[r], lv.en[r]

    def by_depth(self, g: int, k: int, depth) -> tuple:
        """(rows, DP depths) of grid g's tops of positive mass in measure
        k, coarse levels first, so the depths do not increase: each top
        looks min(M - level, depth) levels down (depth None: no limit)."""
        rows = self.at[g][self.mass[k, self.at[g]] > 0]
        rows = rows[np.lexsort((self.lev[rows],))]
        d = self.tables[g][k].grid.M - self.lev[rows]
        return rows, d if depth is None else np.minimum(d, depth)


def pieces(grid, level, lo, k: int) -> np.ndarray:
    """(tops, 2^(nk), n) corners of the pieces k levels below the tops at
    level (one or one per top)."""
    side = 2 ** (grid.M - k - np.asarray(level))
    return lo[:, None] + side[..., None, None] * morton_cells(grid.dim, k)


def best_sums(terms, depth, n: int) -> tuple:
    """Each top's best subpartition sum, from terms[k] (tops reaching k,
    2^(nk)) of tops whose DP depths do not increase: one `subpartition`
    per run of equal depth, on its slice of the terms.  Also (start,
    terms, best) of each run, for `partition`."""
    out, runs = np.zeros(len(depth)), []
    edge = np.flatnonzero(np.diff(depth, prepend=-1, append=-1)).tolist()
    for a, b in zip(edge[:-1], edge[1:]):
        d = int(depth[a])
        part = [t[a:b] for t in terms[:d + 1]]
        best = subpartition(part, n, d)
        out[a:b] = best[0][:, 0]
        runs.append((a, part, best))
    return out, runs


def strong_terms(amb: Levels, mom: Levels, level, lo, depth, alpha: float,
                 slices, m0) -> list:
    """terms[k] (tops reaching depth k, 2^(nk)) of the strong energy
    below tops at level, with the tops' slices of amb and mom-moments m0;
    depth, one per top or one for all, does not increase, so the tops
    reaching depth k come first.

    term(J) = (P(J, amb on the top) / l(J))^2 times the mom-moment of J;
    a piece whose moment is 0 adds nothing and is skipped.  Each depth
    takes one row lookup and one Poisson call for all tops.
    """
    g, n = amb.grid, amb.n
    level, depth = (np.broadcast_to(x, len(lo)) for x in (level, depth))
    a_s, a_e = slices
    terms = []
    for k in range(int(depth.max(initial=-1)) + 1):
        t = int((depth >= k).sum())
        corners = pieces(g, level[:t], lo[:t], k).reshape(-1, n)
        lev = np.repeat(level[:t] + k, 1 << (n * k))
        m2 = m0[:t] if k == 0 else mom.moments[1][mom.rows(lev, corners)]
        sel = np.flatnonzero(m2 > 0)
        top, side = sel >> (n * k), 2 ** (g.M - lev[sel])
        p = amb.poisson(a_s[top], a_e[top], corners[sel], side, alpha)[0]
        term = np.zeros(len(corners))
        term[sel] = (p / (side / 2.0 ** g.M)) ** 2 * m2[sel]
        terms.append(term.reshape(t, -1))
    return terms


def whitney_terms(amb: Levels, mom: Levels, level, lo, depth, alpha: float,
                  gamma: float, names, slices) -> dict:
    """{variant: terms[k]} of the Whitney energies below tops at level,
    with the tops' slices of amb; levels do not decrease and depths do
    not increase along the tops, so the tops reaching depth k come first.

    term(J) sums, over the Whitney cubes M of J in `whitney` order,
    (P(M, amb on the top minus the hole) / l(M))^2 times the mom-moment
    of M.  The hole is gamma M (hole), M (partial) or empty (plug).  Each
    depth takes one row lookup and one Poisson call per block of tops
    with at most _BLOCK cells in all (one block at desk scale), every
    piece's cells in a run in template order.
    """
    g, n = amb.grid, amb.n
    terms = {name: [] for name in names}
    if not len(lo):
        return terms
    # the template of every depth a piece can have, one after another
    tpl = [whitney_cells(d, n) for d in range(g.M - int(level[0]) + 1)]
    wc, ws = (np.concatenate([x[i] for x in tpl]) for i in range(2))
    size = np.array([len(x[1]) for x in tpl])
    first, wlev = np.cumsum(size) - size, g.M - np.log2(ws).astype(np.int64)
    # the dilates, checked for every side
    dil = dilate4(wc, ws, gamma) if "hole" in names else None
    for k in range(int(depth[0]) + 1):
        t = int((depth >= k).sum())
        d = g.M - level[:t] - k
        part = {name: [] for name in names}
        for b in ragged_blocks(size[d] << (n * k)):
            d_b = np.repeat(d[b], 1 << (n * k))
            piece, at = flat(first[d_b], first[d_b] + size[d_b])
            corner = pieces(g, level[b], lo[b], k).reshape(-1, n)
            corners = corner[piece] + wc[at]
            m2 = mom.moments[1][mom.rows(wlev[at], corners)]
            sel = np.flatnonzero(m2 > 0)
            c, sd, own, at = corners[sel], ws[at[sel]], piece[sel], at[sel]
            box = {"plug": None, "partial": (4 * c, 4 * (c + sd[:, None]))}
            if dil is not None:
                box["hole"] = tuple(4 * corner[own] + x[at] for x in dil)
            top = b.start + (own >> (n * k))
            p = amb.poisson(slices[0][top], slices[1][top], c, sd, alpha,
                            holes=[box[name] for name in names])
            for name, v in zip(names, p):
                part[name].append(np.bincount(
                    own, (v / (sd / 2.0 ** g.M)) ** 2 * m2[sel], len(corner)))
        for name in names:
            terms[name].append(np.concatenate(part[name]).reshape(t, -1))
    return terms
