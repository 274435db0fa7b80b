"""Test-side reference implementations.

These are earlier forms of code under test, kept apart from the package
so that a refactor is checked against an implementation it does not
share: the cube lookup as a scan of every atom, the A2 loop over
restricted measures, the face-by-face goodness distance, the
stopping-time constructions as three separate loops, the family walk
over every subcube, the best-subpartition recursion, one energy pass
per Whitney variant and per strong direction, the kernel matrix and
operator applied in one shot with the coordinates last, the ancestor
chain walked level by level, the broken-child infimum by scipy's
Nelder-Mead, and the kernel validation sweep one pair at a time.  Tests
compare the live code with them.
"""

import math

import numpy as np
from scipy.optimize import minimize

from twoweight import singular
from twoweight.grid import body, cube_at, scaled_box4, whitney
from twoweight.measure import common_points
from twoweight.poisson_a2 import A2Report, enumerate_cubes, poisson


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
# stopping times, one loop each


def cz_stopping(mu, f, root, c0):
    f = np.asarray(f, dtype=np.float64)
    stopping, parents, alphas, crit = [root], {root: None}, {}, {}
    queue = [root]
    while queue:
        top = queue.pop()
        a_top = _avg_abs(mu, f, top)
        alphas[top] = a_top
        stack = list(_kids(top))
        while stack:
            q = stack.pop()
            if _mass(mu, q) <= 0.0:
                continue
            a = _avg_abs(mu, f, q)
            if a_top > 0.0 and a > c0 * a_top:
                stopping.append(q)
                parents[q] = top
                crit[q] = {"cz": a}
                queue.append(q)
            else:
                stack.extend(_kids(q))
    return {"stopping": _coarse_to_fine(stopping), "parent": parents,
            "criteria": crit, "alpha_bound": alphas}


def accretive_stopping(fam, t_diag, root, gamma, big_gamma, t_const):
    mu = fam.mu
    thresh = big_gamma * t_const * t_const
    stopping, parents, crit = [root], {root: None}, {}
    queue = [root]
    while queue:
        top = queue.pop()
        b_top = fam.b(top)
        stack = list(_kids(top))
        while stack:
            q = stack.pop()
            qs = _mass(mu, q)
            if qs <= 0.0:
                continue
            rec = {}
            a = _avg(mu, b_top, q)
            if abs(a) < gamma:
                rec["accretive"] = a
            ti = t_diag(q, top)
            if ti > thresh * qs:
                rec["weak_testing"] = ti / qs
            if rec:
                stopping.append(q)
                parents[q] = top
                crit[q] = rec
                queue.append(q)
            else:
                stack.extend(_kids(q))
    return {"stopping": _coarse_to_fine(stopping), "parent": parents,
            "criteria": crit}


def energy_stopping(sigma, omega, root, c_en, e2, a2, alpha, depth=None):
    tau = c_en * (e2 * e2 + a2)
    stopping, parents, crit, energies = [root], {root: None}, {}, {}
    queue = [root]
    while queue:
        top = queue.pop()
        amb = sigma.subset(atoms_in(sigma, top))
        best = best_subpartition(top, amb, omega, alpha, depth)
        x_sq = 0.0
        stack = list(_kids(top))
        while stack:
            q = stack.pop()
            qs = _mass(sigma, q)
            if qs <= 0.0:
                continue
            val = best[q] / qs
            if val >= tau and tau > 0.0:
                stopping.append(q)
                parents[q] = top
                crit[q] = {"energy": val}
                queue.append(q)
            else:
                x_sq = max(x_sq, val)
                stack.extend(_kids(q))
        energies[top] = x_sq
    return {"stopping": _coarse_to_fine(stopping), "parent": parents,
            "criteria": crit, "energies": energies}


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
