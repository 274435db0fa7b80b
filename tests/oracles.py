"""Test-side reference implementations.

These are earlier forms of code under test, kept apart from the package
so that a refactor is checked against an implementation it does not
share: the cube lookup as a scan of every atom, the A2 loop over
restricted measures, the body and the goodness distance face by face,
the crossover cube by cube, the stopping-time driver as the depth
first walk cube by cube that it was before it read level-table rows
(`stop`), the family walk cube by cube and over every subcube, its
classification cube by cube, the testing constants with one kernel
product per cube, the sharp norms with one martingale difference per
cube and coordinate, the coronas, the Carleson sums and the functional
energy by containment scans and one Poisson call per cube, the
best-subpartition recursion, one energy pass per Whitney variant and
per strong direction, the kernel matrix and operator applied in one
shot with the coordinates last, the ancestor chain walked level by
level, the broken-child infimum by scipy's Nelder-Mead, the kernel
validation sweep one pair at a time, the A2 hole as a ragged sum
over the slices around a cube's (`complement`, `hole_sum`), the row
lookup as a search of one sorted code array (`rows`), and the strong
and Whitney terms built once per grid and DP depth (or level) group
(`strong_groups`, `whitney_groups`).  Tests compare the live code with
them.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from twoweight import singular
from twoweight.grid import cube_at, dilate4, scaled_box4, whitney, \
    whitney_cells
from twoweight.levels import partition, pieces, subpartition
from twoweight.measure import Measure, common_points
from twoweight.poisson_a2 import A2Report, enumerate_cubes, poisson, \
    poisson_kernel


def atoms_in(mu, q):
    """Mask of mu's atoms in the cube q of mu's lattice, comparing every
    atom."""
    lo = np.array(q.lo, dtype=np.int64)
    return np.all((mu.points >= lo) & (mu.points < lo + q.side), axis=1)


def augmented_cubes(g):
    """The augmented cubes of every level of the grid g, from its
    augmented corners."""
    return [cube_at(g, level, lo, True) for level in range(g.N, g.M)
            for lo in g.corners(level, augmented=True)]


def close(got, want, rel=1e-12):
    """Equal structures whose floats agree to rel, relative."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(
            close(got[k], want[k], rel) for k in want)
    if isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(
            close(g, w, rel) for g, w in zip(got, want))
    if isinstance(want, float):
        return math.isclose(got, want, rel_tol=rel, abs_tol=0.0)
    return got == want


def atoms_in_scaled(mu, q, factor):
    """Mask of mu's atoms in the concentric dilate factor*Q."""
    lo4, hi4 = scaled_box4(q, factor)
    p4 = 4 * mu.points
    return np.all((p4 >= lo4) & (p4 < hi4), axis=1)


def _kids(q):
    if q.level >= q.resolution:
        return []
    return q.children()


def _subtree(q):
    stack = [q]
    while stack:
        c = stack.pop()
        yield c
        stack.extend(_kids(c))


def _avg(mu, f, q):
    sel = atoms_in(mu, q)
    tot = float(mu.masses[sel].sum())
    if tot <= 0.0:
        return 0.0
    return float(np.dot(mu.masses[sel], f[sel])) / tot


def _avg_abs(mu, f, q):
    return _avg(mu, np.abs(f), q)


def _mass(mu, q):
    return float(mu.masses[atoms_in(mu, q)].sum())


def _coarse_to_fine(cubes):
    return sorted(cubes, key=lambda q: (-q.side, q.lo))


# ---------------------------------------------------------------------------
# subpartition recursion


def best_partition(top, depth, term_fn):
    """Largest subpartition sum of term_fn below top, with its partition."""
    def solve(q, d):
        own = term_fn(q)
        kids = _kids(q)
        if not kids or (d is not None and d <= 0):
            return own, [q]
        tot, parts = 0.0, []
        for c in kids:
            v, p = solve(c, None if d is None else d - 1)
            tot += v
            parts.extend(p)
        if own >= tot:
            return own, [q]
        return tot, parts

    return solve(top, depth)


def best_subpartition(top, sigma_amb, omega, alpha, depth=None):
    """cube -> best subpartition energy below it, over the subtree of top."""
    term = {}
    for q in _subtree(top):
        p = poisson("standard", q, sigma_amb, alpha)
        term[q] = (p / q.sidelength) ** 2 * norm_moment(q, omega)

    def solve(q, d):
        kids = _kids(q)
        if not kids or (d is not None and d <= 0):
            return term[q]
        return max(term[q],
                   sum(solve(c, None if d is None else d - 1)
                       for c in kids))

    return {q: solve(q, depth) for q in _subtree(top)}


def make_family(kind, mu, roots, p=4.0, seed=None, values=None,
                global_values=None):
    """The family walk cube by cube: (values, children, broken children,
    c_b, C_b), each cube's atoms looked up and its children made."""
    rng = np.random.default_rng(seed)
    if kind == "global" and global_values is None:
        global_values = np.ones(mu.natoms)
    vals, children, stack = {}, {}, list(roots[::-1])
    while stack:
        q = stack.pop()
        sel = atoms_in(mu, q)
        if not sel.any():
            continue
        kids = _kids(q)
        stack.extend(kids)
        children[q] = kids
        if kind == "unit":
            vals[q] = sel.astype(np.float64)
        elif kind == "random":
            vals[q] = np.where(sel, rng.uniform(0.5, 2.0, mu.natoms), 0.0)
        elif kind == "global":
            vals[q] = np.where(sel, global_values, 0.0)
        elif q in values:
            vals[q] = np.where(sel, values[q], 0.0)
    children = {q: [c for c in ch if c in vals] for q, ch in children.items()}
    w = mu.masses
    broken = {}
    for q in vals:
        brok = frozenset(
            c for c in children[q]
            if not np.array_equal(vals[c], vals[q] * atoms_in(mu, c))
            or abs(float(np.dot(w, vals[c]))) <= 1e-14)
        if brok:
            broken[q] = brok
    c_lo, c_hi = math.inf, 0.0
    for q, v in vals.items():
        tot = _mass(mu, q)
        c_lo = min(c_lo, float(np.dot(w, v)) / tot)
        if math.isinf(p):
            c_hi = max(c_hi, float(np.abs(v).max(initial=0.0)))
        else:
            c_hi = max(c_hi, (float(np.dot(w, np.abs(v) ** p)) / tot)
                       ** (1.0 / p))
    return vals, children, broken, c_lo, c_hi


def classify(fam):
    """(c_b, C_b, broken children) of a family's Cube-keyed view, cube by
    cube: one dot product over all atoms per cube, and the children
    compared with the parent on the child's atoms."""
    w, values = fam.mu.masses, fam.values
    ints = {q: float(np.dot(w, v)) for q, v in values.items()}
    c_lo, c_hi, broken = math.inf, 0.0, {}
    for q, v in values.items():
        brok = frozenset(c for c in fam.children_of(q)
                         if abs(ints[c]) <= 1e-14
                         or (values[c][fam.mu.atoms(c)]
                             != v[fam.mu.atoms(c)]).any())
        if brok:
            broken[q] = brok
        tot = _mass(fam.mu, q)
        c_lo = min(c_lo, ints[q] / tot)
        if math.isinf(fam.p):
            c_hi = max(c_hi, float(np.abs(v).max(initial=0.0)))
        else:
            c_hi = max(c_hi, (float(np.dot(w, np.abs(v) ** fam.p)) / tot)
                       ** (1.0 / fam.p))
    return c_lo, c_hi, broken


def family_values(kind, mu, root, seed=None):
    """{cube: b_Q} of a unit or random family, walking every subcube of
    the root (empty ones included) in depth-first order."""
    rng = np.random.default_rng(seed)
    values = {}
    for q in _subtree(root):
        sel = atoms_in(mu, q)
        if not sel.any():
            continue
        if kind == "unit":
            values[q] = sel.astype(np.float64)
        else:
            values[q] = np.where(sel, rng.uniform(0.5, 2.0, mu.natoms), 0.0)
    return values


# ---------------------------------------------------------------------------
# stopping times, cube by cube


def stop(mu, root, criterion):
    """One stopping-time construction below root, walked cube by cube.

    criterion(top) returns test(q, qs) for the corona of top: the record
    of the criteria that the cube q, of mu-mass qs > 0, fires, empty when
    q stays in the corona.  Each corona is scanned depth first from the
    children of its top; zero-mass cubes are skipped, and every stopping
    cube becomes a new top.
    """
    stopping, parents, crit = [root], {root: None}, {}
    queue = [root]
    while queue:
        top = queue.pop()
        test = criterion(top)
        stack = list(_kids(top))
        while stack:
            q = stack.pop()
            qs = _mass(mu, q)
            if qs <= 0.0:
                continue
            rec = test(q, qs)
            if rec:
                stopping.append(q)
                parents[q] = top
                crit[q] = rec
                queue.append(q)
            else:
                stack.extend(_kids(q))
    return {"stopping": _coarse_to_fine(stopping), "parent": parents,
            "criteria": crit}


def cz_stopping(mu, f, root, c0):
    alphas = {}

    def criterion(top):
        a_top = alphas[top] = _avg_abs(mu, f, top)

        def test(q, qs):
            a = _avg_abs(mu, f, q)
            return {"cz": a} if a_top > 0.0 and a > c0 * a_top else {}
        return test

    return {**stop(mu, root, criterion), "alpha_bound": alphas}


def accretive_stopping(fam, t_diag, root, gamma, big_gamma, t_const):
    thresh = big_gamma * t_const * t_const

    def criterion(top):
        b_top = fam.b(top)

        def test(q, qs):
            rec = {}
            a = _avg(fam.mu, b_top, q)
            if abs(a) < gamma:
                rec["accretive"] = a
            ti = t_diag(q, top)
            if ti > thresh * qs:
                rec["weak_testing"] = ti / qs
            return rec
        return test

    return stop(fam.mu, root, criterion)


def energy_stopping(sigma, omega, root, c_en, e2, a2, alpha, depth=None):
    tau = c_en * (e2 * e2 + a2)
    energies = {}

    def criterion(top):
        amb = sigma.subset(atoms_in(sigma, top))
        best = best_subpartition(top, amb, omega, alpha, depth)
        energies[top] = 0.0

        def test(q, qs):
            val = best[q] / qs
            if val >= tau and tau > 0.0:
                return {"energy": val}
            energies[top] = max(energies[top], val)
            return {}
        return test

    return {**stop(sigma, root, criterion), "energies": energies}


# ---------------------------------------------------------------------------
# A2 constants over restricted measures


def norm_moment(q, mu):
    sel = atoms_in(mu, q)
    w = mu.masses[sel]
    tot = float(w.sum())
    if tot <= 0:
        return 0.0
    xs = mu.coords_float()[sel]
    m = (w[:, None] * xs).sum(axis=0) / tot
    return float(np.dot(w, ((xs - m) ** 2).sum(axis=1)))


def puncture(q, mu, pts):
    sel = atoms_in(mu, q)
    best = 0.0
    for i in np.nonzero(sel)[0]:
        if tuple(mu.points[i]) in pts:
            best = max(best, float(mu.masses[i]))
    return float(mu.masses[sel].sum()) - best


def complement(lv, starts, ends):
    """Slices of the table lv's atoms outside each row's disjoint slices."""
    top = len(lv.w)   # disjoint slices: starts and ends sort alike
    row = np.arange(len(starts)).repeat(starts.shape[1])
    s, e = (y.ravel()[np.lexsort((y.ravel(), row))].reshape(starts.shape)
            for y in (np.where(ends > starts, x, top)
                      for x in (starts, ends)))
    edge = np.full((len(s), 1), top)
    return np.hstack([0 * edge, e]), np.hstack([s, edge])


def hole_sum(lv, starts, ends, lo, side, alpha, kind):
    """Poisson integrals of the atoms off each row's slices: the ragged
    sum over the complement's slices that `Levels.outside` replaced."""
    return lv.poisson(*complement(lv, starts, ends), lo, side, alpha,
                      kind)[0]


def a2_constants(sigma, omega, grids, alpha, include_augmented=True):
    """Over the enumerated cubes, or without include_augmented over the
    sub-family of those that carry a grid (augmented cubes carry none)."""
    n = sigma.dim
    pts = common_points(sigma, omega)
    rep = A2Report(classicalA2_diverges=bool(pts))
    for q in enumerate_cubes(grids, sigma, omega):
        if not include_augmented and q.grid is None:
            continue
        ell = q.sidelength
        size = ell ** (n - alpha)
        s_in = atoms_in(sigma, q)
        w_in = atoms_in(omega, q)
        qs = float(sigma.masses[s_in].sum())
        qw = float(omega.masses[w_in].sum())
        if qs == 0.0 and qw == 0.0:
            continue
        cands = {}
        if qw > 0.0:
            hole = poisson("reproducing", q, sigma.subset(~s_in), alpha)
            cands["calA2"] = hole * qw / size
        if qs > 0.0:
            hole = poisson("reproducing", q, omega.subset(~w_in), alpha)
            cands["calA2_star"] = hole * qs / size
        if qs > 0.0 and qw > 0.0:
            cands["classicalA2"] = qs * qw / size ** 2
        if qs > 0.0:
            cands["punct"] = puncture(q, omega, pts) * qs / size ** 2
        if qw > 0.0:
            cands["punct_star"] = puncture(q, sigma, pts) * qw / size ** 2
        if qs > 0.0:
            cands["energyA2"] = (norm_moment(q, omega) / ell ** 2) \
                * qs / size ** 2
        if qw > 0.0:
            cands["energyA2_star"] = (norm_moment(q, sigma) / ell ** 2) \
                * qw / size ** 2
        for key, val in cands.items():
            if val > getattr(rep, key):
                setattr(rep, key, val)
                rep.witnesses[key] = q
    return rep


# ---------------------------------------------------------------------------
# goodness, face by face


@dataclass(frozen=True)
class Region:
    """Finite union of closed boxes (lo4, hi4) in quarter units; a face
    is a box with hi == lo on one axis."""

    resolution: int
    boxes4: tuple


def _faces4(q):
    lo4, hi4 = q.lo4, q.hi4
    for a in range(q.dim):
        for pos in (lo4[a], hi4[a]):
            yield (tuple(pos if b == a else lo4[b] for b in range(q.dim)),
                   tuple(pos if b == a else hi4[b] for b in range(q.dim)))


def body(k):
    """Union of the boundaries of the Whitney cubes of K, face by face."""
    faces = {f for s in whitney(k)[0] for f in _faces4(s)}
    return Region(k.resolution, tuple(sorted(faces)))


def skeleton(k):
    """Union of the boundaries of the children of K, face by face."""
    faces = {f for c in k.children() for f in _faces4(c)}
    return Region(k.resolution, tuple(sorted(faces)))


def dist2_min(lo4, hi4, reg):
    """Smallest squared gap from the box [lo4, hi4] to a face of reg."""
    def gap2(blo, bhi):
        return sum(max(0, blo[a] - hi4[a], lo4[a] - bhi[a]) ** 2
                   for a in range(len(lo4)))

    return min(gap2(blo, bhi) for blo, bhi in reg.boxes4)


def is_eps_good(j, k, eps, body_k):
    if not body_k.boxes4:
        return True, math.inf
    d2q = dist2_min(j.lo4, j.hi4, body_k)
    t2q = 64.0 * j.side ** (2 * eps) * k.side ** (2 - 2 * eps)
    return float(d2q) > t2q, math.sqrt(d2q) / 2 ** (k.resolution + 2)


def ancestor_chain(j, grid):
    """Grid cubes containing J, coarsest first, one level at a time."""
    chain = []
    for level in range(grid.N, grid.M + 1):
        if grid.side_units(level) < j.side:
            break
        k = grid.cube_containing(level, j.lo)
        if k.contains_cube(j):
            chain.append(k)
        elif chain:
            break
    return chain


def sharp_cross(j, grid, eps, bodies):
    """The finest ancestor of J in grid with J good in it and above."""
    q = None
    for k in ancestor_chain(j, grid):
        if k not in bodies:
            bodies[k] = body(k)
        if not is_eps_good(j, k, eps, bodies[k])[0]:
            break
        q = k
    return q


def flat_grandchild(j, q):
    """The grandchild of q holding J's centre, scanning all of them; None
    without q or when J is larger than the grandchildren."""
    if q is None or q.level + 2 > q.resolution \
            or j.sidelength > q.sidelength / 4:
        return None
    jc4 = j.center4
    for g in (gg for c in q.children() for gg in c.children()):
        if all(g.lo4[a] <= jc4[a] < g.hi4[a] for a in range(g.dim)):
            return g
    return None


# ---------------------------------------------------------------------------
# coronas by containment scans


def corona_of(corona, f):
    """Cubes of the restricted corona below f, each child tested against
    every forest child of f, coarse to fine."""
    below = [g for g in corona.stopping if corona.parent.get(g) == f]
    out, stack = [], [f]
    while stack:
        q = stack.pop()
        out.append(q)
        stack.extend(c for c in _kids(q)
                     if not any(g.contains_cube(c) for g in below))
    return _coarse_to_fine(out)


def carleson_norm(cube_family, mu):
    fam = list(cube_family)
    best = 0.0
    for s in dict.fromkeys(fam):
        ms = _mass(mu, s)
        if ms <= 0.0:
            continue
        tot = sum(_mass(mu, f2) for f2 in fam if s.contains_cube(f2))
        best = max(best, tot / ms)
    return best


def avg_control(corona, f):
    """Largest average of |f| over a nonempty cube of a restricted corona
    relative to its top's alpha bound, with the first (top, cube) that
    reaches it."""
    f_abs = np.abs(np.asarray(f, dtype=np.float64))
    best, wit = 0.0, None
    for top in corona.stopping:
        a = corona.alpha_bound.get(top, 0.0)
        if a <= 0.0:
            continue
        for q in corona_of(corona, top):
            if _mass(corona.mu, q) <= 0.0:
                continue
            r = _avg(corona.mu, f_abs, q) / a
            if r > best:
                best, wit = r, (top, q)
    return best, wit


def shifted_corona(corona, f_cube, grid_g, eps):
    """The cubes of grid_g whose crossover lies in f_cube but in none of
    its forest children, each crossover found cube by cube."""
    below = [g for g in corona.stopping if corona.parent.get(g) == f_cube]
    bodies, out = {}, []
    for j in grid_g.cubes():
        q = sharp_cross(j, corona.root.grid, eps, bodies)
        if q is not None and f_cube.contains_cube(q) \
                and not any(g.contains_cube(q) for g in below):
            out.append(j)
    return out


def functional_energy_context(corona, grid_g, fam_omega, eps, sharp_norm_sq):
    """(M, q) over the Whitney cubes M of every stopping cube, q summed
    over the shifted-corona cubes that M contains, each tested."""
    out = []
    for f_cube in corona.stopping:
        shift = shifted_corona(corona, f_cube, grid_g, eps)
        chosen, residual = whitney(f_cube)
        for m in chosen + residual:
            out.append((m, sum(sharp_norm_sq(fam_omega, [j]) for j in shift
                               if m.contains_cube(j))))
    return out


def functional_energy_lhs(h, context, sigma, alpha):
    """The pairing from one `poisson` call on a fresh measure per cube."""
    dens = np.abs(np.asarray(h, dtype=np.float64))
    keep = dens * sigma.masses > 0
    hs = Measure(sigma.dim, sigma.resolution, sigma.points[keep],
                 (sigma.masses * dens)[keep])
    total = 0.0
    for m, q in context:
        if q <= 0.0:
            continue
        total += (poisson("standard", m, hs, alpha) / m.sidelength) ** 2 * q
    return total


def functional_energy_estimate(context, sigma, alpha, root, seed=0,
                               n_sign=8):
    """The dictionary walked cube by cube, one pairing per entry."""
    rng = np.random.default_rng(seed)
    dictionary = []
    stack = [root]
    while stack:
        q = stack.pop()
        sel = atoms_in(sigma, q)
        qm = float(sigma.masses[sel].sum())
        if qm > 0.0:
            dictionary.append(("indicator", sel / math.sqrt(qm)))
            stack.extend(_kids(q))
    for _ in range(n_sign):
        signs = rng.choice([-1.0, 1.0], size=sigma.natoms)
        dictionary.append(("signs",
                           signs / math.sqrt(float(sigma.masses.sum()))))
    best, kind = 0.0, None
    for name, h in dictionary:
        val = functional_energy_lhs(h, context, sigma, alpha)
        if val > best:
            best, kind = val, name
    return {"value": math.sqrt(best), "best_kind": kind,
            "dictionary_size": len(dictionary)}


# ---------------------------------------------------------------------------
# energies, one pass per Whitney variant and per strong direction
# (each quotient from poisson() on a fresh Measure.subset of sigma)


def whitney_energy(sigma, omega, grids, alpha, gamma, variant, depth):
    best, witness = 0.0, None
    for i in enumerate_cubes(grids, sigma, omega):
        sel_i = atoms_in(sigma, i)
        qs = float(sigma.masses[sel_i].sum())
        if qs <= 0.0:
            continue

        def term(j):
            out = 0.0
            chosen, residual = whitney(j)
            for m in chosen + residual:
                if variant == "hole":
                    sel = sel_i & ~atoms_in_scaled(sigma, m, gamma)
                elif variant == "partial":
                    sel = sel_i & ~atoms_in(sigma, m)
                else:
                    sel = sel_i
                p = poisson("standard", m, sigma.subset(sel), alpha)
                out += (p / m.sidelength) ** 2 * norm_moment(m, omega)
            return out

        val, _ = best_partition(i, depth, term)
        if val / qs > best:
            best, witness = val / qs, i
    return math.sqrt(best), witness


def strong_energy(sigma, omega, cubes, alpha, depth):
    best, witness, partition = 0.0, None, []
    for i in cubes:
        qs = float(sigma.masses[atoms_in(sigma, i)].sum())
        if qs <= 0.0:
            continue
        amb = sigma.subset(atoms_in(sigma, i))

        def term(j):
            p = poisson("standard", j, amb, alpha)
            return (p / j.sidelength) ** 2 * norm_moment(j, omega)

        val, parts = best_partition(i, depth, term)
        if val / qs > best:
            best, witness, partition = val / qs, i, parts
    return math.sqrt(best), witness, partition


def kernel_values(spec, xs, ys):
    """Truncated kernel values with the coordinates on the last axis
    throughout, vector values included."""
    diff = xs - ys
    r = np.sqrt((diff * diff).sum(axis=-1))
    keep = (r > spec.delta_trunc) & (r < spec.radius)
    if spec.kind == "custom":
        out = np.zeros(r.shape)
        xb, yb = np.broadcast_arrays(xs, ys)
        for idx in zip(*np.nonzero(keep)):
            out[idx] = spec.func(xb[idx], yb[idx])
        return out
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = r ** (-(diff.shape[-1] - spec.alpha + 1))
    scale[r == 0.0] = 0.0
    if spec.kind == "riesz":
        return np.where(keep, diff[..., spec.component] * scale, 0.0)
    return np.where(keep[..., None], diff * scale[..., None], 0.0)


def eval_matrix(spec, xs, ys):
    """The kernel matrix over xs x ys from one broadcast evaluation."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    return kernel_values(spec, xs[:, None, :], ys[None, :, :])


def apply(kernel, sigma, f, omega, transpose=False):
    """The operator at the omega atoms from the whole kernel matrix."""
    if transpose:
        kt = eval_matrix(kernel, sigma.coords_float(), omega.coords_float())
        k = np.swapaxes(kt, 0, 1)
    else:
        k = eval_matrix(kernel, omega.coords_float(), sigma.coords_float())
    wf = sigma.masses * np.asarray(f, dtype=np.float64)
    return np.einsum("ijd,j->id", k, wf) if k.ndim == 3 else k @ wf


# ---------------------------------------------------------------------------
# the broken-child infimum by Nelder-Mead


def sharp_norm_sq(fam, cubes, coords=None):
    """The squared sharp norm cube by cube: Delta_Q applied to each
    coordinate by mart_apply, plus the broken-child infimum."""
    from twoweight.bfamily import _broken_inf_term, mart_apply
    coords = fam.mu.coords_float() if coords is None else coords
    total = 0.0
    for q in cubes:
        if q not in fam.values:
            continue
        for a in range(coords.shape[1]):
            g = mart_apply(fam, "Delta", q, coords[:, a])
            total += float(np.dot(fam.mu.masses, g * g))
        total += _broken_inf_term(fam, q, coords)[0]
    return total


def one_direction(k, src, dst, fam):
    """(constant, witness, [(cube, quotient)] coarse to fine) of one
    testing direction: one product of the kernel matrix (dst x src) with
    the full-length b_Q per cube, each integral over dst.atoms(Q)."""
    best, witness, rows = 0.0, None, []
    for q in fam.cubes():
        qs = fam.mass(q)
        if qs <= 0.0:
            continue
        vals = singular._matvec(k, src.masses * fam.b(q))
        sq = vals * vals
        sq = sq.sum(axis=1) if sq.ndim == 2 else sq
        idx = dst.atoms(q)
        quot = float(np.dot(dst.masses[idx], sq[idx])) / qs
        rows.append((q, quot))
        if quot > best:
            best, witness = quot, q
    return math.sqrt(best), witness, rows


def broken_inf_term(fam, q, coords, extra_candidates=()):
    """inf over z of sum_{J' broken} |J'| (E_{J'} |x - z|)^2, by a
    Nelder-Mead search from the best of the natural candidates."""
    brok = fam.broken_children.get(q, frozenset())
    brok = [c for c in brok if fam.mass(c) > 0]
    if not brok:
        return 0.0
    w = fam.mu.masses
    sels = [atoms_in(fam.mu, c) for c in brok]

    def objective(z):
        tot = 0.0
        for sel in sels:
            d = np.sqrt(((coords[sel] - z) ** 2).sum(axis=1))
            m = float(w[sel].sum())
            tot += m * (float(np.dot(w[sel], d)) / m) ** 2
        return tot

    cands = [coords[sel].T @ w[sel] / w[sel].sum() for sel in sels]
    qsel = atoms_in(fam.mu, q)
    cands.append(coords[qsel].T @ w[qsel] / w[qsel].sum())
    cands.extend(np.asarray(c, dtype=np.float64) for c in extra_candidates)
    best = min(cands, key=objective)
    res = minimize(objective, best, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 400})
    return min(objective(best), float(res.fun))


# ---------------------------------------------------------------------------
# the kernel validation sweep, one pair at a time


def loop_sweep(spec, samples, rng):
    """The validation sweep one pair at a time, each kernel value from a
    one-by-one kernel matrix."""
    n = spec.dim

    def value(x, y):
        return singular._eval_matrix(spec, x[None, :], y[None, :])[0, 0]

    worst_size, worst_grad, worst_pair = 0.0, 0.0, None
    xs, ys = singular._sample_pairs(n, spec.delta_trunc, spec.radius,
                                    samples, rng)
    for x, y in zip(xs, ys):
        r = float(np.sqrt(((x - y) ** 2).sum()))
        rs = r ** (n - spec.alpha)      # scaled in before squaring
        v = value(x, y) * rs
        q = float(np.sqrt((v * v).sum()) if spec.vector_valued else abs(v))
        if q > worst_size:
            worst_size, worst_pair = q, (x.copy(), y.copy())
        h = 1e-6 * r
        grad2 = 0.0
        for axis in range(n):
            xp = x.copy()
            xp[axis] += h
            xm = x.copy()
            xm[axis] -= h
            rp = np.sqrt(((xp - y) ** 2).sum())
            rm = np.sqrt(((xm - y) ** 2).sum())
            if not (spec.delta_trunc < rp < spec.radius
                    and spec.delta_trunc < rm < spec.radius):
                grad2 = -1.0
                break
            d = (value(xp, y) - value(xm, y)) * rs * (r / (2 * h))
            grad2 += float((d * d).sum())
        if grad2 >= 0.0:
            worst_grad = max(worst_grad, math.sqrt(grad2))
    return worst_size, worst_grad, worst_pair


# ---------------------------------------------------------------------------
# the level table's row lookup by a sorted code array, and the energy
# terms built per grid and DP depth (strong) or level (Whitney)


def rows(lv, level, corners):
    """`Levels.rows` by one sorted code array: level l's cells, offset by
    the low corner of the box of its nonempty cells (and 0), in mixed
    radix, plus the sizes of the boxes before; searchsorted, then an
    equality check (-2 codes a cell outside its level's box)."""
    g, n = lv.grid, lv.n
    off, sides = g.level_arrays
    own = lv.level
    cells = (lv.corner - off[own - g.N]) // sides[own - g.N]
    lo = np.zeros((len(off), n), dtype=np.int64)
    span = np.ones((len(off), n), dtype=np.int64)
    for li in range(len(off)):
        c = cells[own - g.N == li]
        lo[li] = c.min(axis=0, initial=0)
        span[li] = c.max(axis=0, initial=0) - lo[li] + 1
    base = np.cumsum(np.r_[0, span.prod(axis=1)[:-1]])

    def code(li, c):
        rel, sp = c - lo[li], span[li]
        out = rel[..., 0]
        for a in range(1, n):
            out = out * sp[..., a] + rel[..., a]
        return np.where(((rel >= 0) & (rel < sp)).all(axis=-1),
                        base[li] + out, -2)

    codes = np.append(code(own - g.N, cells), -1)
    assert (np.diff(codes[:-1]) > 0).all()      # rows in code order
    li = np.asarray(level) - g.N
    c = code(li, (np.asarray(corners) - off[li]) // sides[li, 0][..., None])
    i = np.searchsorted(codes[:-1], c)
    return np.where(codes[i] == c, i, -1)


def poisson_rows(lv, starts, ends, lo, side, alpha, kind, holes):
    """`Levels.poisson` one row at a time: the row's atoms in slice order,
    the kernel at the cube's centre, the atoms in a hole box dropped, the
    rest added left to right."""
    out = np.zeros((len(holes), len(starts)))
    for r in range(len(starts)):
        at = np.concatenate([np.arange(s, e, dtype=np.int64)
                             for s, e in zip(starts[r], ends[r])])
        d = lv.x[at] - (4 * lo[r] + 2 * side[r]) / 2.0 ** (lv.grid.M + 2)
        d2 = 0.0
        for a in range(lv.n):
            d2 = d2 + d[:, a] * d[:, a]
        ell = np.full(len(at), side[r] / 2.0 ** lv.grid.M)
        v = lv.w[at] * poisson_kernel(kind, ell, np.sqrt(d2), lv.n, alpha)
        for h, box in enumerate(holes):
            if box is not None:
                v_h = np.where(((lv.p4[at] >= box[0][r])
                                & (lv.p4[at] < box[1][r])).all(axis=1),
                               0.0, v)
            out[h, r] = np.cumsum(np.r_[0.0, v if box is None else v_h])[-1]
    return out


def strong_terms(amb, mom, level, lo, aug, depth, alpha):
    """terms[k] (tops, 2^(nk)) of the strong energy below tops at level,
    one `Levels.poisson` call per depth for one group of tops."""
    g, n = amb.grid, amb.n
    level = np.broadcast_to(level, aug.shape)
    r = amb.cube_rows(level, lo, aug)[0]
    a_s, a_e = amb.st[r], amb.en[r]
    terms = []
    for k in range(depth + 1):
        corners = pieces(g, level, lo, k).reshape(-1, n)
        lev = np.repeat(level + k, 1 << (n * k))
        m2 = mom.cube_rows(lev, corners,
                           aug.repeat(1 << (n * k)) & (k == 0))[2]
        sel = np.flatnonzero(m2 > 0)
        top, side = sel >> (n * k), 2 ** (g.M - lev[sel])
        p = amb.poisson(a_s[top], a_e[top], corners[sel], side, alpha)[0]
        term = np.zeros(len(corners))
        term[sel] = (p / (side / 2.0 ** g.M)) ** 2 * m2[sel]
        terms.append(term.reshape(len(lo), -1))
    return terms


def whitney_terms(amb, mom, level, lo, aug, depth, alpha, gamma, names):
    """{variant: terms[k]} of the Whitney energies below tops at one
    level, one template per depth shifted to every piece."""
    g, n = amb.grid, amb.n
    r = amb.cube_rows(level, lo, aug)[0]
    a_s, a_e = amb.st[r], amb.en[r]
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


def _groups(grids, cubes, tables, depth, by_level=False):
    """(grid, its tables, rows, masses, DP depth) of the enumerated cubes
    of positive mass in the first table, by grid and DP depth (and by
    level with by_level)."""
    gi, lev, aug, lo = cubes
    for g, grid in enumerate(grids):
        tabs = tables(grid)
        rows = np.flatnonzero(gi == g)
        qs = tabs[0].cube_rows(lev[rows], lo[rows], aug[rows])[1]
        rows, qs = rows[qs > 0], qs[qs > 0]
        d = grid.M - lev[rows]
        d = d if depth is None else np.minimum(d, depth)
        key = lev[rows] if by_level else d
        for v in sorted(set(key.tolist())):
            yield grid, tabs, rows[key == v], qs[key == v], int(d[key == v][0])


def strong_groups(grids, cubes, tables, alpha, depth):
    """Each top's best subpartition sum over its mass, the strong terms
    built once per grid and DP depth, and the partition of the first
    largest, its terms built again: (ratios, [(depth, index), ...])."""
    gi, lev, aug, lo = cubes
    ratio = np.zeros(len(gi))
    for grid, (amb, mom), rows, qs, d in _groups(grids, cubes, tables,
                                                 depth):
        terms = strong_terms(amb, mom, lev[rows], lo[rows], aug[rows], d,
                             alpha)
        ratio[rows] = subpartition(terms, grid.dim, d)[0][:, 0] / qs
    i = int(np.argmax(ratio)) if len(ratio) else 0
    if not len(ratio) or ratio[i] <= 0.0:
        return ratio, []
    grid, level = grids[gi[i]], int(lev[i])
    d = grid.M - level if depth is None else min(depth, grid.M - level)
    amb, mom = tables(grid)
    terms = strong_terms(amb, mom, level, lo[i:i + 1], aug[i:i + 1], d,
                         alpha)
    best = subpartition(terms, grid.dim, d)
    return ratio, partition(terms, best, grid.dim, 0)


def whitney_groups(grids, cubes, tables, alpha, gamma, names, depth):
    """(variants, tops) best subpartition sums over the masses, the
    Whitney terms built once per grid and level."""
    gi, lev, aug, lo = cubes
    ratio = np.zeros((len(names), len(gi)))
    for grid, (amb, mom), rows, qs, d in _groups(grids, cubes, tables,
                                                 depth, by_level=True):
        terms = whitney_terms(amb, mom, int(lev[rows[0]]), lo[rows],
                              aug[rows], d, alpha, gamma, names)
        for r, name in enumerate(names):
            ratio[r, rows] = subpartition(terms[name], grid.dim,
                                          d)[0][:, 0] / qs
    return ratio
