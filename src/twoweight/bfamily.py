"""Weakly accretive testing families and martingale-difference calculus.

A family assigns to every cube Q below a root a function b_Q supported
on the atoms of Q.  Children where b changes (or where the integral of b
vanishes, which would break the division in the natural operators) are
"broken"; everything downstream (box/flat/broken operators, Carleson
averaging, sharp and star square functions) keys off that split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .grid import Cube, Grid, cube_arrays, cube_at
from .measure import Measure, average

__all__ = [
    "BFamily",
    "make_family",
    "truncate_family",
    "reverse_holder_adjust",
    "mart_apply",
    "expand",
    "frame_and_riesz",
    "telescope_check",
    "projection_check",
    "sharp_norm_sq",
    "sharp_norms_sq",
    "star_norm_sq",
]

_ZERO = 1e-14
_INF_TOL = 1e-13    # certified gap of the broken-child infimum, relative
_INF_STEPS = 100    # descent steps before the best value is returned
_DRAWS = 1 << 16    # random values drawn per block of a random family


@dataclass(eq=False)
class BFamily:
    """A testing family as arrays over the rows of its level-table walk.

    Family row r is the cube of row rows[r] of mu.levels(grid), depth
    first below the roots; above[r] is its parent's table row (-1 for a
    root).  Entries entry[r]:entry[r + 1] of own, pos and bval are the
    atoms of the cube in table order: owner row, table position and b.
    Cubes are built only for the Cube-keyed view below.
    """

    mu: Measure
    grid: Grid
    root: Cube
    p: float                # accretivity exponent, math.inf allowed
    kind: str = "explicit"
    rows: np.ndarray = field(default_factory=lambda: np.zeros(0, int))
    above: np.ndarray = field(default_factory=lambda: np.zeros(0, int))
    bval: np.ndarray = field(default_factory=lambda: np.zeros(0))
    c_b: float = field(default=0.0, init=False)
    C_b: float = field(default=0.0, init=False)

    def __post_init__(self):
        from .levels import flat
        lv, rows = self.mu.levels(self.grid), self.rows
        self.lv, self.level, self.corner = lv, lv.level[rows], lv.corner[rows]
        self.entry = np.r_[0, np.cumsum(lv.en[rows] - lv.st[rows])]
        self.own, self.pos = flat(lv.st[rows], lv.en[rows])
        self.masses = lv.mass[rows]
        # family row of each table row (-1 at the arrays' ends), of each
        # row's parent, and each entry's entry in its parent's row
        self.inv = np.full(len(lv.st), -1)
        self.inv[rows] = np.arange(len(rows))
        self.parent = self.inv[self.above]
        up = self.parent[self.own]
        self.up = np.where(up >= 0, self.entry[up] + self.pos
                           - lv.st[rows[up]], -1)
        self.broken = np.zeros(len(rows), dtype=bool)  # set by _classify

    def cube(self, r: int) -> Cube:
        return cube_at(self.grid, int(self.level[r]), self.corner[r])

    def rows_of(self, cubes) -> np.ndarray:
        """Family rows of the cubes, -1 for a cube outside the family."""
        g, lo = self.grid, cube_arrays(cubes, self.mu.dim)[0]
        level = np.array([q.level for q in cubes], dtype=np.int64)
        ok = (level >= g.N) & (level <= g.M)
        t = self.lv.rows(np.where(ok, level, g.N), lo)
        return self.inv[np.where(ok & (self.lv.corner[t] == lo).all(axis=1),
                                 t, -1)]

    # ---- the Cube-keyed view, built on first use

    @cached_property
    def values(self) -> dict:
        """{cube: b_Q as a full-length atom array, zero off Q}, walk order."""
        out = np.zeros((len(self.rows), self.mu.natoms))
        out[self.own, self.lv.order[self.pos]] = self.bval
        return {self.cube(r): v for r, v in enumerate(out)}

    @cached_property
    def broken_children(self) -> dict:
        """{cube: frozenset of its broken children}: those where b changes
        or has integral 0."""
        cubes, out = list(self.values), {}
        for r in np.flatnonzero(self.broken).tolist():
            out.setdefault(cubes[self.parent[r]], set()).add(cubes[r])
        return {q: frozenset(c) for q, c in out.items()}

    def cubes(self):
        """Nonempty cubes of the family, coarse to fine."""
        return sorted(self.values, key=lambda q: (-q.side, q.lo))

    def b(self, q: Cube) -> np.ndarray:
        return self.values.get(q, np.zeros(self.mu.natoms))

    def children_of(self, q: Cube):
        if q.level >= self.grid.M:
            return []
        return [c for c in q.children() if c in self.values]

    def mass(self, q: Cube) -> float:
        return float(self.mu.masses[self.mu.atoms(q)].sum())


def _classify(fam: BFamily):
    """Set (c_b, C_b) over the nonempty cubes, raising on a cube whose
    average of b is not positive, and mark the broken children: those
    where b changes or has integral 0.  The b of a family cube is 0 off
    it, so b changes on a child exactly where it differs from the
    parent's b on the child's atoms."""
    n, own, v, w = len(fam.rows), fam.own, fam.bval, fam.lv.w[fam.pos]
    ints = np.bincount(own, w * v, n)
    kid = fam.up >= 0
    changes = np.bincount(own[kid], v[kid] != v[fam.up[kid]], n) > 0
    fam.broken = (fam.parent >= 0) & ((np.abs(ints) <= _ZERO) | changes)
    ok = fam.masses > 0
    tot = np.where(ok, fam.masses, 1.0)
    fam.avg = np.where(ok, ints / tot, np.nan)      # average of b per row
    if len(bad := np.flatnonzero(fam.avg <= 0)):
        q = fam.cube(bad[0])
        raise ValueError(f"accretivity fails on cube lo={q.lo} "
                         f"side={q.side}: average {fam.avg[bad[0]]}")
    if not ok.any():
        raise ValueError("family has no nonempty cube")
    top = np.maximum.reduceat(np.abs(v), fam.entry[:-1]) if math.isinf(
        fam.p) else (np.bincount(own, w * np.abs(v) ** fam.p, n) / tot) ** (
        1.0 / fam.p)
    fam.c_b, fam.C_b = float(fam.avg[ok].min()), float(top[ok].max())


def make_family(kind: str, mu: Measure, grid: Grid, root,
                p: float = 4.0, seed: int | None = None,
                values: dict | None = None,
                global_values=None) -> BFamily:
    """Build a testing family on all nonempty subcubes of the root.

    root is a cube or a list of disjoint cubes, walked in that order
    (the first is the family's root).  kinds: "unit" (b_Q = 1_Q),
    "random" (fresh values in [1/2, 2] per cube, every child broken),
    "global" (one function restricted everywhere, nothing broken),
    "explicit" (caller-supplied dict).
    """
    if not (p > 2):
        raise ValueError("accretivity exponent must exceed 2")
    if kind not in ("unit", "random", "global", "explicit"):
        raise ValueError(f"unknown family kind {kind!r}")
    if kind == "explicit" and values is None:
        raise ValueError("explicit family needs values")
    roots = [root] if isinstance(root, Cube) else list(root)
    lv = mu.levels(grid)
    walk = [lv.subtree(q) for q in roots]
    rows = np.concatenate(walk) if walk else np.zeros(0, dtype=np.int64)
    level = lv.level[rows]
    # the table row of each row's parent: the cell one level up that
    # holds its corner; none for a root
    top = np.repeat([q.level for q in roots], [len(x) for x in walk])
    up = np.where(level > top, lv.rows(np.maximum(level - 1, grid.N),
                                       lv.corner[rows]), -1)
    if kind == "explicit":
        cubes = [cube_at(grid, lev, lo) for lev, lo in
                 zip(level.tolist(), lv.corner[rows].tolist())]
        keep = np.array([q in values for q in cubes], dtype=bool)
        rows, up = rows[keep], up[keep]
    fam = BFamily(mu, grid, roots[0], p, kind, rows, up)
    atom = lv.order[fam.pos]
    if kind == "unit":
        fam.bval = np.ones(len(atom))
    elif kind == "random":
        # one draw over all atoms per cube, in walk order, a block of
        # cubes at a time
        rng = np.random.default_rng(seed)
        step, fam.bval = max(1, _DRAWS // max(mu.natoms, 1)), np.zeros(
            len(atom))
        for a in range(0, len(rows), step):
            e = slice(fam.entry[a], fam.entry[min(a + step, len(rows))])
            fam.bval[e] = rng.uniform(0.5, 2.0, (
                min(step, len(rows) - a), mu.natoms))[fam.own[e] - a, atom[e]]
    elif kind == "global":
        fam.bval = np.asarray(global_values if global_values is not None
                              else np.ones(mu.natoms), dtype=np.float64)[atom]
    else:
        fam.bval = np.zeros(len(atom))
        for r, q in enumerate(q for q, k in zip(cubes, keep) if k):
            e = slice(fam.entry[r], fam.entry[r + 1])
            fam.bval[e] = np.asarray(values[q], dtype=np.float64)[atom[e]]
    _classify(fam)
    return fam


# ---------------------------------------------------------------------------
# truncation to an infinity-accretive family


def truncate_family(fam: BFamily, eps: float) -> BFamily:
    """Cap each b_Q at the level lambda(eps) and double, giving p = infinity.

    lambda = (p/(p-2) * C_b^p / eps)^(1/(p-2)); the capped family keeps its
    averages at least 1 provided the input averages were at least 1.
    """
    if not 0 < eps <= 0.25:
        raise ValueError("eps must lie in (0, 1/4]")
    if math.isinf(fam.p):
        raise ValueError("family is already infinity-accretive")
    p, cb, v = fam.p, fam.C_b, fam.bval
    lam = (p / (p - 2) * cb ** p / eps) ** (1.0 / (p - 2))
    with np.errstate(invalid="ignore"):
        capped = np.where(np.abs(v) <= lam, v, lam * np.sign(v))
    out = replace(fam, p=math.inf, kind=fam.kind + "-truncated",
                  bval=2.0 * capped)
    _classify(out)
    if len(bad := np.flatnonzero(np.abs(out.avg) < 1.0 - 1e-12)):
        q = out.cube(bad[0])
        raise ValueError(f"truncated average {abs(out.avg[bad[0]])} below 1"
                         f" on cube lo={q.lo} side={q.side}; input averages "
                         "must be at least 1")
    if np.abs(out.bval).max(initial=0.0) > 2 * lam + 1e-12:
        raise ValueError("truncation failed to cap the family")
    out.trunc_lambda = lam
    return out


# ---------------------------------------------------------------------------
# reverse-Hoelder adjustment


def reverse_holder_adjust(fam: BFamily, q: Cube, children, delta: float):
    """Flatten b_Q on the children of Q whose average is tiny relative to
    their sup norm, so that averages control sup norms.

    Returns (new_values, adjusted) where adjusted lists the modified
    children.
    """
    cb = fam.C_b
    dmax = 1.0 / (2 ** (fam.mu.dim + 1) * cb ** 3)
    if not 0 < delta < dmax:
        raise ValueError(f"delta must lie in (0, {dmax})")
    w = fam.mu.masses
    v = fam.values[q].copy()
    root_s = math.sqrt(cb * delta)
    adjusted = []
    for qi in children:
        sel = fam.mu.in_cube(qi)
        tot = float(w[sel].sum())
        if tot <= 0:
            continue
        vi = fam.values[q][sel]
        wi = w[sel]
        avg = float(np.dot(wi, vi)) / tot
        sup = float(np.abs(vi).max(initial=0.0))
        if not (sup <= _ZERO or abs(avg) < (delta / cb) * sup):
            continue  # the child is "big": leave b_Q alone there
        avg_abs = float(np.dot(wi, np.abs(vi))) / tot
        pos = np.maximum(vi, 0.0)
        neg = np.maximum(-vi, 0.0)
        if avg_abs <= _ZERO:
            new = np.full(vi.shape, delta)
        elif avg_abs <= root_s:
            new = np.full(vi.shape, avg_abs)
        else:
            int_p = float(np.dot(wi, pos))
            int_n = float(np.dot(wi, neg))
            if int_n > int_p:
                new = pos - neg * (1.0 + root_s)
            else:
                new = (1.0 + root_s) * pos - neg
        v[sel] = new
        adjusted.append(qi)
    return v, adjusted


# ---------------------------------------------------------------------------
# martingale operators


def _e_op(fam: BFamily, q: Cube, f: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1_Q (int_Q f b dmu) / (int_Q b dmu), guarded on degenerate cubes."""
    sel = fam.mu.in_cube(q)
    w = fam.mu.masses
    den = float(np.dot(w[sel], b[sel]))
    if abs(den) <= _ZERO:
        return np.zeros(fam.mu.natoms)
    num = float(np.dot(w[sel], (f * b)[sel]))
    return sel * (num / den)


def _f_op(fam: BFamily, q: Cube, f: np.ndarray, b: np.ndarray,
          hat: bool = False) -> np.ndarray:
    """1_Q b (int_Q f dmu) / (int_Q b dmu); the hat variant drops the b."""
    sel = fam.mu.in_cube(q)
    w = fam.mu.masses
    den = float(np.dot(w[sel], b[sel]))
    if abs(den) <= _ZERO:
        return np.zeros(fam.mu.natoms)
    num = float(np.dot(w[sel], f[sel]))
    ratio = num / den
    if hat:
        return sel * ratio
    return np.where(sel, b, 0.0) * ratio


def mart_apply(fam: BFamily, op: str, q: Cube, f) -> np.ndarray:
    """Evaluate one martingale operator at a cube, per-atom.

    E, F, Fhat          expectation / accretive averaging and its hat
    Delta, Box          martingale differences (E resp. F version)
    BoxBrokPi           correction sum over broken children
    Nabla, NablaHat     Carleson averaging over broken children
    FlatBoxHat, FlatBox flat differences (averages over broken children
                        removed); FlatBox multiplies back by b_Q
    FlatBoxBrok         sum of accretive averages over broken children
    """
    f = np.asarray(f, dtype=np.float64)
    w = fam.mu.masses
    bq = fam.b(q)
    # below the finest level there are no children: all difference and
    # broken-child operators vanish by convention
    if q.level >= fam.grid.M and op in (
            "Delta", "Box", "BoxBrokPi", "Nabla", "NablaHat",
            "FlatBoxHat", "FlatBox", "FlatBoxBrok"):
        return np.zeros(fam.mu.natoms)
    if op == "E":
        return _e_op(fam, q, f, bq)
    if op == "F":
        return _f_op(fam, q, f, bq)
    if op == "Fhat":
        return _f_op(fam, q, f, bq, hat=True)
    if op == "Delta":
        out = -_e_op(fam, q, f, bq)
        for c in fam.children_of(q):
            out += _e_op(fam, c, f, fam.b(c))
        return out
    if op == "Box":
        out = -_f_op(fam, q, f, bq)
        for c in fam.children_of(q):
            out += _f_op(fam, c, f, fam.b(c))
        return out
    if op == "BoxBrokPi":
        out = np.zeros(fam.mu.natoms)
        for c in fam.broken_children.get(q, ()):
            out += _f_op(fam, c, f, fam.b(c)) - _f_op(fam, c, f, bq)
        return out
    if op == "Nabla":
        f_abs = np.abs(f)
        out = np.zeros(fam.mu.natoms)
        for c in fam.broken_children.get(q, ()):
            out += fam.mu.in_cube(c) * average(c, fam.mu, f_abs)
        return out
    if op == "NablaHat":
        f_abs = np.abs(f)
        top = average(q, fam.mu, f_abs)
        out = np.zeros(fam.mu.natoms)
        for c in fam.broken_children.get(q, ()):
            out += fam.mu.in_cube(c) * (average(c, fam.mu, f_abs) + top)
        return out
    if op in ("FlatBoxHat", "FlatBox"):
        sel = fam.mu.in_cube(q)
        den_q = float(np.dot(w[sel], bq[sel]))
        gq = 0.0 if abs(den_q) <= _ZERO \
            else float(np.dot(w[sel], f[sel])) / den_q
        out = np.zeros(fam.mu.natoms)
        brok = fam.broken_children.get(q, frozenset())
        for c in fam.children_of(q):
            cs = fam.mu.in_cube(c)
            if c in brok:
                out -= cs * gq
            else:
                den_c = float(np.dot(w[cs], bq[cs]))
                gc = 0.0 if abs(den_c) <= _ZERO \
                    else float(np.dot(w[cs], f[cs])) / den_c
                out += cs * (gc - gq)
        if op == "FlatBox":
            return out * bq
        return out
    if op == "FlatBoxBrok":
        out = np.zeros(fam.mu.natoms)
        for c in fam.broken_children.get(q, ()):
            out += _f_op(fam, c, f, fam.b(c))
        return out
    raise ValueError(f"unknown martingale operator {op!r}")


def _l2(fam: BFamily, g: np.ndarray) -> float:
    return float(np.dot(fam.mu.masses, g * g))


# ---------------------------------------------------------------------------
# expansion / frames


def expand(fam: BFamily, f):
    """Coefficients {Q: Box_Q f} plus the top term, with the L2 residual."""
    f = np.asarray(f, dtype=np.float64)
    coeffs = {}
    recon = mart_apply(fam, "F", fam.root, f)
    for q in fam.values:
        c = mart_apply(fam, "Box", q, f)
        coeffs[q] = c
        recon = recon + c
    residual = math.sqrt(_l2(fam, f - recon))
    return coeffs, residual


def frame_and_riesz(fam: BFamily, f, collection=None):
    """Frame sums, the upper-Riesz ratio and the star norm of a batch.

    Returns a dict with the squared function norm, the box- and
    delta-flavoured frame sums (each including the top averaging term),
    and for the chosen collection the energy of its pseudoprojection.
    """
    f = np.asarray(f, dtype=np.float64)
    norm2 = _l2(fam, f)
    box_sum = _l2(fam, mart_apply(fam, "F", fam.root, f))
    delta_sum = _l2(fam, mart_apply(fam, "E", fam.root, f))
    nabla_hat_sum = 0.0
    for q in fam.values:
        nab2 = _l2(fam, mart_apply(fam, "Nabla", q, f))
        box_sum += _l2(fam, mart_apply(fam, "Box", q, f)) + nab2
        delta_sum += _l2(fam, mart_apply(fam, "Delta", q, f)) + nab2
        nabla_hat_sum += _l2(fam, mart_apply(fam, "NablaHat", q, f))
    out = {
        "norm_sq": norm2,
        "box_frame_sum": box_sum,
        "delta_frame_sum": delta_sum,
        "box_frame_ratio": box_sum / norm2 if norm2 > 0 else 0.0,
        "delta_frame_ratio": delta_sum / norm2 if norm2 > 0 else 0.0,
        "nabla_hat_sum": nabla_hat_sum,
    }
    if collection is not None:
        psi = np.zeros(fam.mu.natoms)
        bound = 0.0
        star2 = 0.0
        for q in collection:
            bq_f = mart_apply(fam, "Box", q, f)
            psi = psi + bq_f
            bound += _l2(fam, bq_f)
            star2 += _l2(fam, bq_f) \
                + _l2(fam, mart_apply(fam, "Nabla", q, f))
            bound += _l2(fam, mart_apply(fam, "NablaHat", q, f))
        out["psi_norm_sq"] = _l2(fam, psi)
        out["riesz_bound"] = bound
        out["riesz_ratio"] = out["psi_norm_sq"] / bound if bound > 0 else 0.0
        out["star_norm_sq"] = star2
    return out


# ---------------------------------------------------------------------------
# sharp and star square functions (vector argument allowed)


def _broken_inf_term(fam: BFamily, q: Cube, coords: np.ndarray,
                     extra_candidates=()) -> tuple:
    """(value, gap): inf over z of sum_{J' broken} |J'| (E_{J'} |x - z|)^2.

    The infimum lies in [value - gap, value].  The search starts from the
    best of the broken children's barycentres, the parent's barycentre
    and the extra candidates, and only descends from there.
    """
    brok = fam.broken_children.get(q, frozenset())
    brok = [c for c in brok if fam.mass(c) > 0]
    if not brok:
        return 0.0, 0.0
    w = fam.mu.masses
    sels = [fam.mu.in_cube(c) for c in brok + [q]]
    cands = [coords[sel].T @ w[sel] / w[sel].sum() for sel in sels]
    cands.extend(np.asarray(c, dtype=np.float64) for c in extra_candidates)
    inside = np.any(sels[:-1], axis=0)
    member = (np.array(sels[:-1]) * w)[:, inside]
    return _certified_min(coords[inside], member, cands)


def _certified_min(pts: np.ndarray, member: np.ndarray, cands) -> tuple:
    """(value, gap) for f(z) = sum_J (sum_i member[J, i] |pts_i - z|)^2 / m_J,
    m_J the row sums of member, searched from the best candidate.

    f is convex, and its minimiser z* lies in the convex hull of pts
    (projecting z onto the hull shortens every distance), so for any
    subgradient s at z, f(z*) >= f(z) - |s| max_i |pts_i - z|.  With the
    minimal-norm subgradient at every point visited, the largest such
    bound is the lower end of the gap and the smallest value its upper
    end.

    Each step tries a Newton step on the smooth part, then a steepest-
    descent step (the other order on an atom), each halved until f falls
    by a fixed share of its slope; a whole step may also leave f level up
    to rounding, which lets Newton polish where f no longer resolves.  It
    then moves to the nearest atom if that lowers f.  The search stops
    once the gap is at most _INF_TOL of the value, when no step moves,
    or after _INF_STEPS steps, and never raises.
    """
    mass = member.sum(axis=1)
    eye = np.eye(pts.shape[1])
    # about one atom: the same f, without cancellation far from 0
    o, pts = pts[0], pts - pts[0]

    def value(z):
        g = member @ np.sqrt(((pts - z) ** 2).sum(axis=1))
        return float((g * g / mass).sum())

    z = min((c - o for c in cands), key=value)
    f = best = value(z)
    low = 0.0
    for step in range(_INF_STEPS + 1):
        diff = z - pts
        dist = np.sqrt((diff * diff).sum(axis=1))
        off = dist > 0.0
        u = np.zeros_like(diff)
        u[off] = diff[off] / dist[off, None]
        coef = 2 * (member @ dist) / mass        # d f / d g_J
        big_g = member @ u                       # gradients of the g_J
        s = coef @ big_g
        # an atom at z adds a ball of radius coef @ member[:, i]; the
        # shortest subgradient is s shrunk by that radius
        norm_s = float(np.linalg.norm(s))
        if norm_s > 0.0:
            ball = float(coef @ member[:, ~off].sum(axis=1))
            s *= max(0.0, 1.0 - ball / norm_s)
            norm_s = float(np.linalg.norm(s))
        low = max(low, f - norm_s * float(dist.max()))
        if best - low <= _INF_TOL * best or step == _INF_STEPS:
            break
        a = np.zeros(len(dist))                  # curvature across u_i
        a[off] = (coef @ member)[off] / dist[off]
        hess = 2 * (big_g.T / mass) @ big_g \
            + a.sum() * eye - (u * a[:, None]).T @ u
        slack = f * (1.0 + 4 * np.finfo(float).eps)
        steps = [-np.linalg.lstsq(hess, s, rcond=None)[0],
                 -s * (dist.max() / norm_s)]
        if not off.all():           # on an atom -s is the steepest descent
            steps.reverse()
        moved = False
        for p in steps:
            t, slope = 1.0, min(float(s @ p), 0.0)
            for _ in range(64):
                if np.array_equal(zt := z + t * p, z):
                    break
                ft = value(zt)
                if ft < f + 1e-4 * t * slope or (t == 1.0 and ft <= slack):
                    z, f, moved = zt, ft, True
                    break
                t /= 2
            if moved:
                break
        near = pts[np.argmin(((pts - z) ** 2).sum(axis=1))]
        if (fn := value(near)) < f:
            z, f, moved = near, fn, True
        if not moved:
            break
        best = min(best, f)
    return best, max(best - low, 0.0)


def sharp_norms_sq(fam: BFamily, cubes, coords=None) -> np.ndarray:
    """Squared sharp norm of the pseudoprojection of x onto each cube
    alone, 0 for a cube outside the family.  Delta_Q x, E_P x - E_Q x on
    a child P of Q in the family and -E_Q x elsewhere on Q, comes from
    row sums for all cubes at once; the broken-child infimum is searched
    cube by cube."""
    coords = np.asarray(fam.mu.coords_float() if coords is None else coords,
                        dtype=np.float64)
    n, own, w = len(fam.rows), fam.own, fam.lv.w[fam.pos]
    x, wb = coords[fam.lv.order[fam.pos]], w * fam.bval
    den = np.bincount(own, wb, n)[:, None]
    num = np.column_stack([np.bincount(own, wb * x[:, a], n)
                           for a in range(x.shape[1])])
    e = np.divide(num, den, out=np.zeros_like(num),
                  where=np.abs(den) > _ZERO)
    kid = np.full(len(own), -1)
    kid[fam.up[fam.up >= 0]] = own[fam.up >= 0]
    d = np.where(kid[:, None] >= 0, e[kid], 0.0) - e[own]
    delta = np.bincount(own, w * (d * d).sum(axis=1), n)
    delta[fam.level >= fam.grid.M] = 0.0
    r = fam.rows_of(cubes)
    out = np.r_[delta, 0.0][r]
    split = np.r_[np.bincount(fam.parent[fam.broken], minlength=n) > 0,
                  False]
    for i in np.flatnonzero(split[r]).tolist():
        out[i] += _broken_inf_term(fam, fam.cube(r[i]), coords)[0]
    return out


def sharp_norm_sq(fam: BFamily, cubes, coords=None) -> float:
    """Squared sharp norm of the pseudoprojection of x onto the cubes."""
    return float(sharp_norms_sq(fam, cubes, coords).sum())


def star_norm_sq(fam: BFamily, cubes, psi) -> float:
    """Squared star norm: box pieces plus broken-average pieces, no inf."""
    psi = np.asarray(psi, dtype=np.float64)
    total = 0.0
    for q in cubes:
        if q not in fam.values:
            continue
        total += _l2(fam, mart_apply(fam, "Box", q, psi))
        total += _l2(fam, mart_apply(fam, "Nabla", q, psi))
    return total


# ---------------------------------------------------------------------------
# identity checks


def telescope_check(fam: BFamily, k: Cube, lcube: Cube, f) -> float:
    """Residual of the telescoping identity along the chain from K to L.

    Sums plain averages over the K-child of the flat-hat differences for
    pi(K) up to L and compares with the matching difference of averaged
    hat operators; K a broken child of its parent selects the one-term
    branch.
    """
    f = np.asarray(f, dtype=np.float64)
    if k == lcube:
        return 0.0
    if not lcube.contains_cube(k):
        raise ValueError("need K inside L")
    chain = []
    cur = k
    while cur != lcube:
        parent = cur.parent()
        chain.append((parent, cur))
        cur = parent
    total = 0.0
    for i_cube, i_k in chain:
        g = mart_apply(fam, "FlatBoxHat", i_cube, f)
        total += average(i_k, fam.mu, g)
    e_l = average(lcube, fam.mu, mart_apply(fam, "Fhat", lcube, f))
    if k in fam.broken_children.get(k.parent(), frozenset()):
        want = -e_l
    else:
        want = average(k, fam.mu, mart_apply(fam, "Fhat", k, f)) - e_l
    return abs(total - want)


def projection_check(fam: BFamily, r: Cube, q: Cube, f) -> float:
    """Residual of Delta_R Delta_Q = [R == Q] Delta_Q applied to f."""
    f = np.asarray(f, dtype=np.float64)
    inner = mart_apply(fam, "Delta", q, f)
    lhs = mart_apply(fam, "Delta", r, inner)
    rhs = inner if r == q else np.zeros_like(inner)
    return math.sqrt(_l2(fam, lhs - rhs))
