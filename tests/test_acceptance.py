"""End-to-end acceptance checks for the whole package.

Each test exercises one advertised guarantee at desk scale (dimensions 1
and 2, at most a few hundred atoms) and finishes in seconds.  Exact
identities are checked to 1e-10 or better; inequality budgets are the
recorded constants from the module documentation.
"""

import math

import numpy as np
import pytest

from twoweight.bfamily import (
    expand,
    frame_and_riesz,
    make_family,
    projection_check,
    reverse_holder_adjust,
    telescope_check,
    truncate_family,
)
from twoweight.corona import (
    accretive_stopping,
    carleson_norm,
    cz_stopping,
    energy_stopping,
    indented_corona,
)
from twoweight.energy import (
    functional_energy_context,
    halfspace_testing,
    mu_bar_from_corona,
    strong_energy,
)
from twoweight.grid import (
    bad_probability_mc,
    m_deep,
    make_grid,
    scaled_box4,
    sharp_cross,
)
from twoweight.harness import dump_pair, generate_pair
from twoweight.measure import Measure, mass
from twoweight.poisson_a2 import a2_constants, poisson
from twoweight.singular import (
    local_test_integrals,
    make_kernel,
    ntv,
    testing_constants,
)


def std_grid(dim=1, M=3):
    return make_grid(dim, M, 0, {"kind": "beta", "bits": [[0] * M] * dim})


def lattice_measure(rng, dim=1, M=3):
    pts = [(k,) if dim == 1 else (k % 2 ** M, k // 2 ** M)
           for k in range(2 ** (dim * M))]
    return Measure.from_atoms(dim, M, [(p, float(m)) for p, m in
                                       zip(pts, rng.random(len(pts)) + 0.2)])


def sparse_measure(rng, dim=1, M=4, natoms=10):
    side = 2 ** M
    pick = rng.choice(side ** dim, size=natoms, replace=False)
    coords = [((int(k),) if dim == 1 else (int(k) % side, int(k) // side))
              for k in pick]
    return Measure.from_atoms(dim, M, [(p, float(m)) for p, m in
                                       zip(coords, rng.random(natoms) + 0.1)])


def subtree(q):
    stack, out = [q], []
    while stack:
        c = stack.pop()
        out.append(c)
        if c.level < c.resolution:
            stack.extend(c.children())
    return out


def contains4(outer, lo4, hi4):
    return all(outer.lo4[a] <= lo4[a] and hi4[a] <= outer.hi4[a]
               for a in range(len(lo4)))


# ------------------------------------------------- martingale reduction

def test_haar_reconstruction_and_frame_on_random_measures():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        natoms = int(rng.integers(4, 14))
        mu = sparse_measure(rng, M=4, natoms=natoms)
        g = std_grid(M=4)
        root = g.cube(0, (0,))
        fam = make_family("unit", mu, g, root)
        f = rng.standard_normal(mu.natoms)
        norm = math.sqrt(float(np.dot(mu.masses, f * f)))
        _, residual = expand(fam, f)
        assert residual <= 1e-10 * max(norm, 1e-30)
        rep = frame_and_riesz(fam, f)
        assert abs(rep["box_frame_ratio"] - 1.0) <= 1e-10
        assert abs(rep["delta_frame_ratio"] - 1.0) <= 1e-10


def test_projection_identity_exhaustive_small_grid():
    rng = np.random.default_rng(1)
    mu = lattice_measure(rng, M=3)
    g = std_grid(M=3)
    root = g.cube(0, (0,))
    b = rng.uniform(0.5, 2.0, mu.natoms)
    for fam in (make_family("unit", mu, g, root),
                make_family("global", mu, g, root, global_values=b)):
        f = rng.standard_normal(mu.natoms)
        cubes = fam.cubes()
        for r in cubes:
            for q in cubes:
                assert projection_check(fam, r, q, f) <= 1e-10


def test_telescoping_identity_random_triples():
    done = 0
    for block in range(25):
        rng = np.random.default_rng(1000 + block)
        mu = lattice_measure(rng, M=4)
        g = std_grid(M=4)
        root = g.cube(0, (0,))
        if block % 2:
            fam = make_family("global", mu, g, root,
                              global_values=rng.uniform(0.5, 2.0, mu.natoms))
        else:
            fam = make_family("unit", mu, g, root)
        inner = [q for q in fam.cubes() if q.level >= 1]
        for _ in range(20):
            k = inner[int(rng.integers(len(inner)))]
            lcube = k
            for _ in range(int(rng.integers(1, k.level + 1))):
                lcube = lcube.parent()
            f = rng.standard_normal(mu.natoms)
            scale = max(1.0, float(np.abs(f).max()))
            assert telescope_check(fam, k, lcube, f) <= 1e-10 * scale
            done += 1
    assert done == 500


def test_truncation_bounds_on_random_p8_families():
    eps = 0.25
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        mu = lattice_measure(rng, M=3)
        g = std_grid(M=3)
        root = g.cube(0, (0,))
        fam = make_family("random", mu, g, root, p=8, seed=seed)
        hat = truncate_family(fam, eps)
        lam = hat.trunc_lambda
        w = mu.masses
        for q, v in fam.values.items():
            sel = fam.mu.in_cube(q)
            tot = float(w[sel].sum())
            hv = hat.values[q]
            avg = abs(float(np.dot(w, hv))) / tot
            assert avg >= 1.0 - 1e-12
            assert np.abs(hv).max(initial=0.0) <= 2 * lam + 1e-12
            tail = float(np.dot(w[sel], np.where(np.abs(v[sel]) > lam,
                                                 v[sel] ** 2, 0.0)))
            assert tail <= eps * tot + 1e-12


def test_reverse_holder_adjustment_constants():
    adjusted_total = 0
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        mu = lattice_measure(rng, M=3)
        g = std_grid(M=3)
        root = g.cube(0, (0,))
        fam0 = make_family("unit", mu, g, root)
        w = mu.masses
        vals = {}
        for q in fam0.values:
            sel = fam0.mu.in_cube(q)
            vals[q] = np.where(sel, rng.uniform(1.0, 3.0, mu.natoms), 0.0)
        left, right = root.children()
        lsel = fam0.mu.in_cube(left)
        style = seed % 3
        if style == 0:
            # b_root vanishes on the left child
            vals[root] = np.where(lsel, 0.0, vals[root])
        else:
            # signed near-cancellation with a positive tilt; style 2
            # shrinks the whole child so the constant-average branch fires
            bal = np.where(rng.random(mu.natoms) < 0.5, 1.0, -1.0) \
                * rng.uniform(0.5, 2.5, mu.natoms)
            tot = float(w[lsel].sum())
            bal = bal - float(np.dot(w[lsel], bal[lsel])) / tot + 1e-6
            if style == 2:
                bal = bal * 1e-4
            vals[root] = np.where(lsel, bal, vals[root])
        rsel = fam0.mu.in_cube(root)
        tot = float(w[rsel].sum())
        avg = float(np.dot(w, vals[root])) / tot
        if avg < 1.1:
            mask = ~lsel & rsel
            lift = (1.1 - avg) * tot / float(w[mask].sum())
            vals[root] = vals[root] + lift * mask
        fam = make_family("explicit", mu, g, root, p=math.inf, values=vals)
        cb = fam.C_b
        delta = 0.9 / (2 ** 2 * cb ** 3)
        v, adjusted = reverse_holder_adjust(fam, root, root.children(),
                                            delta)
        avg_new = float(np.dot(w, v)) / tot
        assert avg_new >= 1.0 - 1e-12
        assert np.abs(v).max() <= 2 * (1 + math.sqrt(cb)) * cb + 1e-10
        for qi in adjusted:
            sel = fam.mu.in_cube(qi)
            ai = abs(float(np.dot(w[sel], v[sel])) / float(w[sel].sum()))
            sup = float(np.abs(v[sel]).max())
            assert sup > 0
            assert sup <= (16 * cb / delta) * ai + 1e-10
            adjusted_total += 1
    assert adjusted_total >= 30


# -------------------------------------------------------- Carleson bounds

def test_cz_corona_carleson_bound():
    c0 = 4.0
    for seed in range(100):
        rng = np.random.default_rng(4000 + seed)
        mu = lattice_measure(rng, M=4)
        root = std_grid(M=4).cube(0, (0,))
        f = rng.pareto(2.0, mu.natoms) + 0.1
        cor = cz_stopping(mu, f, root, c0)
        assert carleson_norm(cor.stopping, mu) <= c0 / (c0 - 1.0) + 1e-9


def test_accretive_corona_carleson_bound():
    gamma, big_gamma = 0.25, 4.0
    kernel = make_kernel(1, 0.0, "riesz")
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        sigma = lattice_measure(rng, M=4)
        omega = lattice_measure(rng, M=4)
        g = std_grid(M=4)
        root = g.cube(0, (0,))
        fam = make_family("unit", sigma, g, root)
        rep = testing_constants(kernel, sigma, omega, fam, fam)
        cache = {}

        def t_diag(q, top):
            if top not in cache:
                cache[top] = local_test_integrals(kernel, sigma, omega,
                                                  fam.b(top))
            return cache[top](q)

        cor = accretive_stopping(fam, t_diag, root, gamma, big_gamma,
                                 rep.forward)
        bound = fam.C_b ** 2 / (1 - gamma) ** 2 \
            + big_gamma / (big_gamma - 1)
        assert carleson_norm(cor.stopping, sigma) <= bound + 1e-9


def test_energy_corona_carleson_bound():
    for seed in range(100):
        rng = np.random.default_rng(6000 + seed)
        sigma = lattice_measure(rng, M=4)
        omega = lattice_measure(rng, M=4)
        grid = std_grid(M=4)
        root = grid.cube(0, (0,))
        e2 = strong_energy(sigma, omega, [grid], 0.0, depth=None).aggregate
        a2 = a2_constants(sigma, omega, [grid], 0.0)
        cor = energy_stopping(sigma, omega, root, 2.0, e2, a2.aggregate,
                              0.0)
        assert carleson_norm(cor.stopping, sigma) <= 2.0 + 1e-9


# -------------------------------------------------------- geometry exacts

def test_tripled_cube_sits_inside_crossing_grandchild():
    rng = np.random.default_rng(7)
    total = 0
    for trial in range(400):
        gd = make_grid(1, 6, 0, {"kind": "random",
                                 "seed": int(rng.integers(1 << 30))})
        gg = make_grid(1, 6, 0, {"kind": "gamma",
                                 "g": (int(rng.integers(64)),)})
        js = list(gg.cubes())
        for j, (q, j_flat) in zip(js, sharp_cross(js, gd, 0.9)):
            if j_flat is None:
                continue
            total += 1
            lo4, hi4 = scaled_box4(j, 3.0)
            assert contains4(j_flat, lo4, hi4)
            # the grandchild keeps away from the boundary of its ancestor
            assert all(j_flat.lo[a] > q.lo[a]
                       and j_flat.lo[a] + j_flat.side < q.lo[a] + q.side
                       for a in range(1))
        if total >= 1000:
            break
    assert total >= 1000


def test_deep_subcubes_admit_dilation_inside_parent():
    g = std_grid(M=6)
    found = 0
    for level, coord in ((0, 0), (1, 1), (2, 2)):
        k = g.cube(level, (coord,))
        # only dilation factors that stay on the quarter lattice
        for rho, eps in ((2, 0.5), (4, 0.5), (4, 0.75), (3, 2.0 / 3.0)):
            gam = 1 + 4 * 2 ** (rho * (1 - eps))
            out = m_deep(k, rho, eps, g)
            found += len(out)
            for j in out:
                lo4, hi4 = scaled_box4(j, gam)
                assert contains4(k, lo4, hi4)
    assert found > 100


def test_indented_cubes_tripled_inside_their_parents():
    rng = np.random.default_rng(8)
    kept = 0
    for trial in range(40):
        g = std_grid(M=6)
        cubes = [q for q in subtree(g.cube(0, (0,))) if q.level >= 1]
        pick = rng.choice(len(cubes), size=12, replace=False)
        levels, parent = indented_corona([cubes[i] for i in pick])
        for tier in levels:
            for h in tier:
                top = parent[h]
                if top is None:
                    continue
                lo4, hi4 = scaled_box4(h, 3.0)
                assert contains4(top, lo4, hi4)
                kept += 1
    assert kept > 40


# ------------------------------------------------------------- necessity

def _pair_catalog(tmp_path):
    """100 generated pairs spanning every generator kind."""
    out = []
    for i in range(13):
        out.append(generate_pair("random_atomic",
                                 {"dim": 1, "resolution": 4, "natoms": 6},
                                 i))
    for i in range(12):
        out.append(generate_pair("random_atomic",
                                 {"dim": 2, "resolution": 3, "natoms": 6},
                                 100 + i))
    for i in range(13):
        out.append(generate_pair("common_atoms",
                                 {"dim": 1, "resolution": 4, "natoms": 6},
                                 200 + i))
    for i in range(12):
        out.append(generate_pair("common_atoms",
                                 {"dim": 2, "resolution": 3, "natoms": 6},
                                 300 + i))
    for i in range(13):
        out.append(generate_pair("doubling_like",
                                 {"dim": 1, "resolution": 4}, 400 + i))
    for i in range(12):
        out.append(generate_pair("doubling_like",
                                 {"dim": 2, "resolution": 3}, 500 + i))
    for i in range(13):
        out.append(generate_pair("cantor_like",
                                 {"dim": 1, "resolution": 5}, 600 + i))
    for i in range(12):
        pair = generate_pair("random_atomic",
                             {"dim": 1, "resolution": 4, "natoms": 5},
                             700 + i)
        path = tmp_path / f"pair{i}.json"
        path.write_text(dump_pair(*pair))
        out.append(generate_pair("file", {"path": str(path)}, 0))
    assert len(out) == 100
    return out


def test_testing_constants_never_exceed_operator_norm(tmp_path):
    for n, (sigma, omega) in enumerate(_pair_catalog(tmp_path)):
        res = max(sigma.resolution, omega.resolution)
        sigma, omega = sigma.rescale(res), omega.rescale(res)
        dim = sigma.dim
        g = std_grid(dim=dim, M=res)
        root = g.cube(0, (0,) * dim)
        kernel = make_kernel(dim, 0.0, delta_trunc=1e-3, radius=1e3,
                             seed=n)
        fam_s = make_family("unit", sigma, g, root)
        fam_o = make_family("unit", omega, g, root)
        rep = testing_constants(kernel, sigma, omega, fam_s, fam_o)
        assert rep.forward <= fam_s.C_b * rep.norm + 1e-9
        assert rep.dual <= fam_o.C_b * rep.norm + 1e-9


# ------------------------------------------------------ equal-weight pair

def _equal_weight(M):
    w = 2.0 ** -M
    return Measure.from_atoms(1, M, [((k,), w) for k in range(2 ** M)])


def test_equal_weight_poisson_at_most_two():
    # The bound 2 holds for Lebesgue measure, not for this lattice
    # measure: atoms of mass h = 2^-M sit at the points k*h.  A dyadic
    # cube of side l = m*h centred at c has Poisson integral at most
    # sum_{k in Z} m / (m + |k - c/h|)^2.  For m = 1, c lies halfway
    # between atoms and the sum is pi^2 - 8 ~ 1.8696.  For m >= 2, c is
    # an atom and the sum is 1/m + 2m * psi'(m + 1): largest at m = 2,
    # where it is 2*pi^2/3 - 9/2 ~ 2.0797, and tending to 2 as m grows.
    # The finite measure approaches that supremum from below as M grows
    # (1.962 at M=6, 2.019 at M=7, 2.0490 at M=8); at M=8 the largest
    # value is on the side-2h cube [126, 128)*h, centred at the atom 127.
    M = 8
    mu = _equal_weight(M)
    g = std_grid(M=M)
    worst = 0.0
    for q in subtree(g.cube(0, (0,))):
        worst = max(worst, poisson("standard", q, mu, 0.0))
    sup = 2 * math.pi ** 2 / 3 - 4.5
    assert worst <= sup + 1e-9, f"max Poisson integral {worst!r}"
    c = 2 ** (M - 1) - 1
    closed = math.fsum(2 / (2 + abs(k - c)) ** 2 for k in range(2 ** M))
    assert worst == pytest.approx(closed, rel=1e-12), (
        f"max Poisson integral {worst!r}, side-2h cube at {c}: {closed!r}")


def test_equal_weight_strong_energy_constant():
    M = 8
    mu = _equal_weight(M)
    rep = strong_energy(mu, mu, [std_grid(M=M)], 0.0, depth=None)
    assert 0.0 < rep.strong ** 2 <= 10.0
    assert rep.strong == pytest.approx(rep.strong_star)


# --------------------------------------------------- energy-A2 comparison

def test_energy_a2_dominated_by_punctured_a2(tmp_path):
    worst = 0.0
    for sigma, omega in _pair_catalog(tmp_path):
        res = max(sigma.resolution, omega.resolution)
        sigma, omega = sigma.rescale(res), omega.rescale(res)
        g = std_grid(dim=sigma.dim, M=res)
        a2 = a2_constants(sigma, omega, [g], 0.0)
        assert a2.energyA2 <= 8.0 * a2.punct + 1e-12
        if a2.punct > 0:
            worst = max(worst, a2.energyA2 / a2.punct)
    print(f"largest energy-A2 / punctured-A2 quotient: {worst:.6f}")


# -------------------------------------------------------- Poisson decay

def test_poisson_decay_for_deep_cubes_and_small_kernel_gain():
    eps, alpha, delta = 0.5, 0.0, 1.0
    M = 6
    g = std_grid(M=M)
    top = g.cube(0, (0,))
    worst_decay = 0.0
    worst_gain = 0.0
    decay_instances = 0
    for trial in range(250):
        rng = np.random.default_rng(9000 + trial)
        natoms = int(rng.integers(1, 6))
        pts = rng.integers(3 * 2 ** M, 10 * 2 ** M,
                           size=(natoms, 1)).astype(np.int64)
        mu = Measure(dim=1, resolution=M, points=pts,
                     masses=rng.uniform(0.1, 2.0, natoms))
        p_top = poisson("standard", top, mu, alpha)
        gains = []
        for s in range(2, M + 1):
            j = g.cube(s, (2 ** (s - 1),))
            lj = 2.0 ** -s
            p_j = poisson("standard", j, mu, alpha)
            gap = min(j.lo[0], 2 ** M - j.lo[0] - j.side) * 2.0 ** -M
            if gap > 2 * lj ** eps:
                # the middle cube keeps the required distance from the
                # boundary of the top cube at this level
                bound = lj ** (1 - eps * (1 + 1 - alpha)) * p_top
                worst_decay = max(worst_decay, p_j / bound)
                decay_instances += 1
            p_small = poisson("small", j, mu, alpha, delta=delta)
            gains.append(p_small / p_j)
            worst_gain = max(worst_gain,
                             gains[-1] / lj ** (delta * (1 - eps)))
        for a, b in zip(gains, gains[1:]):
            assert b <= 2 * a
    assert decay_instances == 500
    assert worst_decay <= 100.0
    assert worst_gain <= 100.0
    print(f"decay quotient max {worst_decay:.6f}, "
          f"gain quotient max {worst_gain:.6f}")


# ------------------------------------------------- goodness probability

def _badness_curve():
    out = {}
    for k in (4, 6, 8, 10, 12):
        out[k] = bad_probability_mc(1, k, 0.5, 10000, 42)
    return out


def test_bad_probability_monotone_in_separation():
    curve = _badness_curve()
    ks = sorted(curve)
    for a, b in zip(ks, ks[1:]):
        pa, ea = curve[a]
        pb, eb = curve[b]
        assert pb <= pa + 3 * (ea + eb)


def test_bad_probability_small_at_twelve_levels():
    # Known red: with badness measured against the boundaries of all
    # Whitney cubes, the forbidden neighborhoods cover about half of the
    # shift space even at twelve-level separation (measured 0.50 +- 0.005).
    # A 0.2 target would need the sparser convention that only penalizes
    # proximity to the coarse-grid hyperplanes.
    est, err = bad_probability_mc(1, 12, 0.5, 10000, 42)
    assert est <= 0.2, f"estimate {est!r} (stderr {err!r})"


# ------------------------------------------------- half-space testing

def _corona_halfspace(seed, M):
    rng = np.random.default_rng(seed)
    sigma = lattice_measure(rng, M=M)
    omega = lattice_measure(rng, M=M)
    return _halfspace_from_pair(sigma, omega, M, seed)


def _halfspace_from_pair(sigma, omega, M, seed):
    gd = std_grid(M=M)
    gg = make_grid(1, M, 0, {"kind": "gamma", "g": (2 ** M * 23 // 64,)})
    root = gd.cube(0, (0,))
    rng = np.random.default_rng(seed + 1)
    f = rng.pareto(2.0, sigma.natoms) + 0.1
    corona = cz_stopping(sigma, f, root, 2.0)
    fam = make_family("unit", omega, gg, gg.cube(0, (0,)))
    ctx = functional_energy_context(corona, gg, fam, 0.9, 0.0)
    _, mu_bar = mu_bar_from_corona(ctx)
    total = sum(q for _, q in ctx)
    a2 = a2_constants(sigma, omega, [gd, gg], 0.0)
    e2 = strong_energy(sigma, omega, [gd, gg], 0.0, depth=2).aggregate
    out = halfspace_testing(root, mu_bar, sigma, 0.0,
                            {"e2": e2, "calA2": a2.calA2,
                             "calA2_star": a2.calA2_star,
                             "punct": a2.punct})
    recount = abs(mu_bar.second_coordinate_sq_integral(root) - total)
    return out, recount, total


def test_halfspace_recount_and_ratio_budget():
    nontrivial = 0
    for seed in range(50):
        out, recount, total = _corona_halfspace(10_000 + seed, M=6)
        assert recount <= 1e-10 * max(1.0, total)
        for key in ("forward_ratio", "backward_ratio"):
            if out[key] is not None:
                assert math.isfinite(out[key])
                assert out[key] <= 1e3
        if total > 0:
            nontrivial += 1
            assert out["forward_ratio"] is not None
            assert out["backward_ratio"] is not None
    assert nontrivial >= 40


def test_halfspace_ratios_stable_under_refinement():
    for seed in range(3):
        rng = np.random.default_rng(11_000 + seed)
        sigma = lattice_measure(rng, M=6)
        omega = lattice_measure(rng, M=6)
        coarse, _, t1 = _halfspace_from_pair(sigma, omega, 6, seed)
        fine, _, t2 = _halfspace_from_pair(sigma.rescale(7),
                                           omega.rescale(7), 7, seed)
        assert t1 > 0 and t2 > 0
        for key in ("forward_ratio", "backward_ratio"):
            a, b = coarse[key], fine[key]
            assert a is not None and b is not None and a > 0 and b > 0
            assert 0.5 <= b / a <= 2.0


# ------------------------------------------------- norm against the sum

def _norm_to_sum_ratio(sigma, omega, seed):
    res = max(sigma.resolution, omega.resolution)
    sigma, omega = sigma.rescale(res), omega.rescale(res)
    dim = sigma.dim
    g = std_grid(dim=dim, M=res)
    root = g.cube(0, (0,) * dim)
    a2 = a2_constants(sigma, omega, [g], 0.0)
    e2 = strong_energy(sigma, omega, [g], 0.0, depth=2).aggregate
    kernel = make_kernel(dim, 0.0, delta_trunc=1e-3, radius=1e3, seed=seed)
    fam_s = make_family("unit", sigma, g, root)
    fam_o = make_family("unit", omega, g, root)
    rep = testing_constants(kernel, sigma, omega, fam_s, fam_o)
    return ntv(rep, a2, e2)["ratio"]


def test_norm_bounded_by_constant_sum_on_many_pairs():
    kinds = ("random_atomic", "common_atoms", "doubling_like",
             "cantor_like")
    worst = 0.0
    for i in range(200):
        kind = kinds[i % 4]
        params = {"dim": 1, "resolution": 4, "natoms": 6}
        if kind == "cantor_like":
            params = {"dim": 1, "resolution": 5}
        if kind == "doubling_like":
            params = {"dim": 1, "resolution": 4}
        sigma, omega = generate_pair(kind, params, 20_000 + i)
        ratio = _norm_to_sum_ratio(sigma, omega, i)
        assert ratio is not None and math.isfinite(ratio)
        worst = max(worst, ratio)
    print(f"largest norm / constant-sum quotient: {worst:.6f}")


def test_norm_to_sum_ratio_stable_under_resolution_doubling():
    for i in range(20):
        sigma, omega = generate_pair(
            "random_atomic", {"dim": 1, "resolution": 4, "natoms": 6},
            30_000 + i)
        a = _norm_to_sum_ratio(sigma, omega, i)
        b = _norm_to_sum_ratio(sigma.rescale(5), omega.rescale(5), i)
        assert a is not None and b is not None
        assert 0.5 <= b / a <= 2.0
