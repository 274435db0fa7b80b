"""Test-side reference implementations.

These are earlier forms of code under test, kept apart from the package
so that a refactor is checked against an implementation it does not
share: the stopping-time constructions as five separate loops, and the
best-subpartition recursion.  Tests compare the live code with them.
"""

import numpy as np

from twoweight.bfamily import make_family, reverse_holder_adjust
from twoweight.poisson_a2 import _norm_moment, poisson


def atoms_in(mu, q):
    f = 2 ** (mu.resolution - q.resolution)
    lo = np.array(q.lo, dtype=np.int64) * f
    return mu.in_box(lo, lo + q.side * f)


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
        term[q] = (p / q.sidelength) ** 2 * _norm_moment(q, omega)

    def solve(q, d):
        kids = _kids(q)
        if not kids or (d is not None and d <= 0):
            return term[q]
        return max(term[q],
                   sum(solve(c, None if d is None else d - 1)
                       for c in kids))

    return {q: solve(q, depth) for q in _subtree(top)}


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


def _shadow_pass(fam, omega, f, t_factory, root, params):
    mu = fam.mu
    c0 = params["c0"]
    gamma, big_gamma = params["gamma"], params["big_gamma"]
    thresh = big_gamma * params["t_const"] ** 2
    tau = params["c_en"] * (params["e2"] ** 2 + params["a2"])
    alpha = params["alpha"]
    stopping, parents, crit = [root], {root: None}, {}
    queue = [root]
    while queue:
        top = queue.pop()
        a_top = _avg_abs(mu, f, top)
        b_top = fam.b(top)
        t_int = t_factory(b_top)
        amb = mu.subset(atoms_in(mu, top))
        best = best_subpartition(top, amb, omega, alpha)
        stack = list(_kids(top))
        while stack:
            q = stack.pop()
            qs = _mass(mu, q)
            if qs <= 0.0:
                continue
            rec = {}
            a = _avg_abs(mu, f, q)
            if a_top > 0.0 and a > c0 * a_top:
                rec["cz"] = a
            ab = _avg(mu, b_top, q)
            if abs(ab) < gamma:
                rec["accretive"] = ab
            ti = t_int(q)
            if ti > thresh * qs:
                rec["weak_testing"] = ti / qs
            if tau > 0.0 and best[q] / qs >= tau:
                rec["energy"] = best[q] / qs
            if rec:
                stopping.append(q)
                parents[q] = top
                crit[q] = rec
                queue.append(q)
            else:
                stack.extend(_kids(q))
    return stopping, parents, crit


def iterated_stopping(fam, omega, f, t_factory, root, params):
    f = np.asarray(f, dtype=np.float64)
    shadow, sh_parents, sh_crit = _shadow_pass(fam, omega, f, t_factory,
                                               root, params)
    shadow_set = set(shadow)
    work = fam
    adjusted_at = {}
    for top in _coarse_to_fine(shadow_set):
        kids = [g for g in shadow_set if sh_parents.get(g) == top]
        if not kids:
            adjusted_at[top] = []
            continue
        new_top_value, adj = reverse_holder_adjust(work, top, kids,
                                                   params["delta"],
                                                   mode="corona")
        values = dict(work.values)
        values[top] = new_top_value
        work = make_family("explicit", work.mu, work.grid, work.root,
                           p=work.p, values=values)
        adjusted_at[top] = adj
    adjusted = work

    mu = fam.mu
    gamma, big_gamma = params["gamma"], params["big_gamma"]
    thresh = big_gamma * params["t_const"] ** 2
    stopping, parents, crit = [root], {root: None}, {}
    queue = [root]
    while queue:
        top = queue.pop()
        b_top = adjusted.b(top)
        t_int = t_factory(b_top)
        stack = list(_kids(top))
        while stack:
            q = stack.pop()
            qs = _mass(mu, q)
            if qs <= 0.0:
                continue
            rec = dict(sh_crit.get(q, {})) if q in shadow_set else {}
            if q in shadow_set:
                rec["shadow"] = True
            ab = _avg(mu, b_top, q)
            if abs(ab) < gamma:
                rec["accretive_adjusted"] = ab
            ti = t_int(q)
            if ti > thresh * qs:
                rec["weak_testing_adjusted"] = ti / qs
            if rec:
                stopping.append(q)
                parents[q] = top
                crit[q] = rec
                queue.append(q)
            else:
                stack.extend(_kids(q))
    order = _coarse_to_fine(stopping)
    alphas = {}
    for q in order:
        base = _avg_abs(mu, f, q)
        p = parents.get(q)
        alphas[q] = base if p is None else max(base, alphas[p])
    return {"stopping": order, "parent": parents, "criteria": crit,
            "alpha_bound": alphas, "shadow": _coarse_to_fine(shadow_set),
            "adjusted_at": adjusted_at, "adjusted": adjusted}
