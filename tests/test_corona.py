import math

import numpy as np
import pytest

from twoweight.bfamily import make_family
from twoweight.corona import (
    HalfSpaceMeasure,
    accretive_stopping,
    carleson_norm,
    cz_stopping,
    energy_stopping,
    generation_masses,
    indented_corona,
    shifted_corona,
    stopping_data,
)
from twoweight.grid import make_grid, sharp_cross
from twoweight.measure import Measure, mass
from twoweight.singular import local_test_integrals, make_kernel, \
    testing_constants

import oracles


def std_grid(dim=1, M=3):
    return make_grid(dim, M, 0, {"kind": "beta", "bits": [[0] * M] * dim})


def lattice_measure(rng, dim=1, M=3):
    pts = [(k,) if dim == 1 else (k % 2 ** M, k // 2 ** M)
           for k in range(2 ** (dim * M))]
    return Measure.from_atoms(dim, M, [(p, float(m)) for p, m in
                                       zip(pts, rng.random(len(pts)) + 0.2)])


def subtree(q):
    stack, out = [q], []
    while stack:
        c = stack.pop()
        out.append(c)
        if c.level < c.resolution:
            stack.extend(c.children())
    return out


# ------------------------------------------------------------ cz stopping

def test_cz_constant_function_single_corona():
    rng = np.random.default_rng(0)
    mu = lattice_measure(rng)
    g = std_grid()
    root = g.cube(0, (0,))
    cor = cz_stopping(mu, np.full(mu.natoms, 3.0), root, 4.0)
    assert cor.stopping == [root]
    assert cor.alpha_bound[root] == pytest.approx(3.0)


def test_cz_four_atom_example():
    mu = Measure.from_atoms(1, 2, [((k,), 0.25) for k in range(4)])
    g = std_grid(M=2)
    root = g.cube(0, (0,))
    cor = cz_stopping(mu, np.array([0.0, 0.0, 0.0, 8.0]), root, 2.0)
    assert len(cor.stopping) == 2
    extra = [q for q in cor.stopping if q != root][0]
    assert extra.lo == (3,) and extra.side == 1


def test_cz_rejects_small_constant():
    rng = np.random.default_rng(1)
    mu = lattice_measure(rng)
    root = std_grid().cube(0, (0,))
    with pytest.raises(ValueError, match="c0"):
        cz_stopping(mu, np.ones(mu.natoms), root, 1.0)


def test_cz_carleson_and_criterion_exactness():
    c0 = 4.0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        mu = lattice_measure(rng, M=4)
        f = rng.standard_normal(mu.natoms) * rng.integers(1, 20, mu.natoms)
        root = std_grid(M=4).cube(0, (0,))
        cor = cz_stopping(mu, f, root, c0)
        assert carleson_norm(cor.stopping, mu) <= c0 / (c0 - 1.0) + 1e-12

        def avg_abs(q):
            sel_mass = mass(q, mu)
            if sel_mass <= 0:
                return None
            lo = np.array(q.lo) * 2 ** (mu.resolution - q.resolution)
            sel = mu.in_box(lo, lo + q.side * 2 ** (mu.resolution
                                                    - q.resolution))
            return float(np.dot(mu.masses[sel], np.abs(f[sel]))) / sel_mass

        for top in cor.stopping:
            a_top = cor.alpha_bound[top]
            for child in cor.forest_children(top):
                assert avg_abs(child) > c0 * a_top
            for q in cor.corona_of(top):
                if q == top:
                    continue
                a = avg_abs(q)
                if a is not None:
                    assert a <= c0 * a_top + 1e-12


# ----------------------------------------------------- accretive stopping

def test_accretive_inert_single_corona():
    rng = np.random.default_rng(2)
    mu = lattice_measure(rng)
    g = std_grid()
    root = g.cube(0, (0,))
    fam = make_family("unit", mu, g, root)
    cor = accretive_stopping(fam, lambda q, top: 0.0, root, 0.5, 4.0, 1.0)
    assert cor.stopping == [root]


def test_accretive_small_average_child_stops():
    mu = Measure.from_atoms(1, 2, [((k,), 0.25) for k in range(4)])
    g = std_grid(M=2)
    root = g.cube(0, (0,))
    child = g.cube(1, (0,))
    values = {}
    for q in subtree(root):
        values[q] = np.ones(4)
    v = np.ones(4)
    v[:2] = 0.4   # average 0.4 on the left child, below gamma
    values[root] = v
    fam = make_family("explicit", mu, g, root, values=values)
    cor = accretive_stopping(fam, lambda q, top: 0.0, root, 0.8, 4.0, 1.0)
    assert child in cor.stopping
    assert "accretive" in cor.criteria[child]


def test_accretive_carleson_and_weak_testing():
    big_gamma, gamma = 4.0, 0.25
    k = make_kernel(1, 0.0, "riesz")
    for seed in range(4):
        rng = np.random.default_rng(seed + 10)
        sigma = lattice_measure(rng, M=4)
        omega = lattice_measure(rng, M=4)
        g = std_grid(M=4)
        root = g.cube(0, (0,))
        fam = make_family("unit", sigma, g, root)
        rep = testing_constants(k, sigma, omega, fam, fam)
        t = rep.forward
        cache = {}

        def t_diag(q, top):
            if top not in cache:
                cache[top] = local_test_integrals(k, sigma, omega,
                                                  fam.b(top))
            return cache[top](q)

        cor = accretive_stopping(fam, t_diag, root, gamma, big_gamma, t)
        bound = fam.C_b ** 2 / (1 - gamma) ** 2 \
            + big_gamma / (big_gamma - 1)
        assert carleson_norm(cor.stopping, sigma) <= bound + 1e-9
        # weak testing holds on every strictly inner corona cube
        for top in cor.stopping:
            for q in cor.corona_of(top):
                if q == top or mass(q, sigma) <= 0:
                    continue
                assert t_diag(q, top) <= \
                    big_gamma * t * t * mass(q, sigma) + 1e-12


def test_accretive_parameter_validation():
    rng = np.random.default_rng(3)
    mu = lattice_measure(rng)
    g = std_grid()
    root = g.cube(0, (0,))
    fam = make_family("unit", mu, g, root)
    with pytest.raises(ValueError, match="gamma"):
        accretive_stopping(fam, lambda q, t: 0.0, root, 1.5, 4.0, 1.0)


# -------------------------------------------------------- energy stopping

def test_energy_single_omega_atom_single_corona():
    rng = np.random.default_rng(4)
    sigma = lattice_measure(rng)
    omega = Measure.from_atoms(1, 3, [((5,), 2.0)])
    root = std_grid().cube(0, (0,))
    cor = energy_stopping(sigma, omega, root, 2.0, 1.0, 1.0, 0.0)
    assert cor.stopping == [root]
    assert cor.energies[root] == 0.0


def test_energy_huge_constant_single_corona():
    rng = np.random.default_rng(5)
    sigma = lattice_measure(rng)
    omega = lattice_measure(rng)
    root = std_grid().cube(0, (0,))
    cor = energy_stopping(sigma, omega, root, 1e12, 1.0, 1.0, 0.0)
    assert cor.stopping == [root]


def full_depth_strong_energy_sq(sigma, omega, root, alpha):
    best = 0.0
    for q in subtree(root):
        qs = mass(q, sigma)
        if qs <= 0:
            continue
        lo = np.array(q.lo) * 2 ** (sigma.resolution - q.resolution)
        sel = sigma.in_box(lo, lo + q.side * 2 ** (sigma.resolution
                                                   - q.resolution))
        amb = sigma.subset(sel)
        best = max(best,
                   oracles.best_subpartition(q, amb, omega, alpha)[q] / qs)
    return best


def test_energy_carleson_at_most_two_and_bounds():
    c_en = 2.0
    hit = 0
    for seed in range(6):
        rng = np.random.default_rng(seed + 20)
        sigma = lattice_measure(rng, M=4)
        omega = lattice_measure(rng, M=4)
        root = std_grid(M=4).cube(0, (0,))
        e2 = math.sqrt(full_depth_strong_energy_sq(sigma, omega, root, 0.0))
        cor = energy_stopping(sigma, omega, root, c_en, e2, 0.0, 0.0)
        assert carleson_norm(cor.stopping, sigma) <= 2.0 + 1e-9
        tau = cor.params["tau"]
        for top in cor.stopping:
            assert cor.energies[top] < tau + 1e-12
            if top != root:
                assert cor.criteria[top]["energy"] >= tau
        if len(cor.stopping) > 1:
            hit += 1
            masses = generation_masses(cor)
            for a, b in zip(masses, masses[1:]):
                assert b <= a / c_en + 1e-9
    assert hit > 0


# ----------------------------------------------------------- stopping data

def test_stopping_data_single_corona():
    rng = np.random.default_rng(7)
    mu = lattice_measure(rng)
    root = std_grid().cube(0, (0,))
    cor = cz_stopping(mu, np.full(mu.natoms, 2.0), root, 4.0)
    rep = stopping_data(cor, np.full(mu.natoms, 2.0))
    assert rep["avg_control_ok"] and rep["alpha_monotone"]
    assert rep["carleson"] == pytest.approx(1.0)
    assert rep["a0"] == pytest.approx(4.0)


def test_stopping_data_on_random_cz():
    for seed in range(4):
        rng = np.random.default_rng(seed + 50)
        mu = lattice_measure(rng, M=4)
        f = rng.standard_normal(mu.natoms) * rng.integers(1, 30, mu.natoms)
        root = std_grid(M=4).cube(0, (0,))
        cor = cz_stopping(mu, f, root, 4.0)
        rep = stopping_data(cor, f)
        assert rep["avg_control_ok"]
        assert rep["alpha_monotone"]
        assert rep["carleson"] <= 4.0 / 3.0 + 1e-12
        assert rep["qorth_ratio"] >= 0.0


# ------------------------------------- stopping times against the oracle
# tests/oracles.py keeps the stopping-time driver as the walk cube by
# cube (`stop`) that it was before it read level-table rows.  Stopping
# cubes and parents must be equal.  The live records are row sums, in
# table order, so they agree to 1e-12; the alpha bounds of the tops are
# summed as before and agree exactly.


def sparse_measure(rng, dim, M, natoms):
    side = 2 ** M
    flat = rng.choice(side ** dim, size=natoms, replace=False)
    pts = [(int(k),) if dim == 1 else (int(k) % side, int(k) // side)
           for k in flat]
    return Measure.from_atoms(dim, M, [(p, float(m)) for p, m in
                                       zip(pts, rng.random(natoms) + 0.1)])


def oracle_instance(dim, seed):
    rng = np.random.default_rng(seed)
    M = 5 if dim == 1 else 3
    sigma = sparse_measure(rng, dim, M, 20)
    omega = sparse_measure(rng, dim, M, 20)
    g = std_grid(dim=dim, M=M)
    root = g.cube(0, (0,) * dim)
    f = rng.standard_normal(sigma.natoms) * rng.integers(1, 30, sigma.natoms)
    return sigma, omega, g, root, f


def assert_same_corona(cor, want):
    assert cor.stopping == want["stopping"] and cor.parent == want["parent"]
    for key in ("criteria", "alpha_bound", "energies"):
        if key in want:
            assert oracles.close(getattr(cor, key), want[key]), key


@pytest.mark.parametrize("c0", [1.2, 2.0, 4.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_cz_stopping_matches_oracle(dim, c0):
    sigma, omega, g, root, f = oracle_instance(dim, 63)
    cor = cz_stopping(sigma, f, root, c0)
    want = oracles.cz_stopping(sigma, f, root, c0)
    assert_same_corona(cor, want)
    assert cor.alpha_bound == want["alpha_bound"]
    assert len(generation_masses(cor)) >= (3 if c0 < 2.0 else 2)


@pytest.mark.parametrize("dim", [1, 2])
def test_cz_and_accretive_match_oracle(dim):
    sigma, omega, g, root, f = oracle_instance(dim, 60 + dim)
    cor = cz_stopping(sigma, f, root, 2.0)
    assert len(cor.stopping) > 1
    assert_same_corona(cor, oracles.cz_stopping(sigma, f, root, 2.0))

    fam = make_family("random", sigma, g, root, seed=dim)
    k = make_kernel(dim, 0.0, "riesz")
    t = testing_constants(k, sigma, omega, fam, fam).forward
    cache = {}

    def t_diag(q, top):
        if top not in cache:
            cache[top] = local_test_integrals(k, sigma, omega, fam.b(top))
        return cache[top](q)

    cor = accretive_stopping(fam, t_diag, root, 0.9, 1.5, 0.5 * t)
    assert len(cor.stopping) > 1
    assert_same_corona(cor, oracles.accretive_stopping(
        fam, t_diag, root, 0.9, 1.5, 0.5 * t))


def test_stopping_below_an_empty_root_matches_oracle():
    sigma = Measure.from_atoms(1, 3, [((k,), 1.0 + k) for k in range(4)])
    root, f = std_grid().cube(1, (1,)), np.arange(4.0)
    assert_same_corona(cz_stopping(sigma, f, root, 2.0),
                       oracles.cz_stopping(sigma, f, root, 2.0))
    cor = energy_stopping(sigma, sigma, root, 2.0, 0.5, 0.0, 0.0)
    assert_same_corona(cor, oracles.energy_stopping(sigma, sigma, root, 2.0,
                                                    0.5, 0.0, 0.0))
    assert cor.corona_of(root) == [] and generation_masses(cor) == [0.0]


@pytest.mark.parametrize("depth", [1, None])
@pytest.mark.parametrize("dim", [1, 2])
def test_energy_stopping_matches_oracle(dim, depth):
    sigma, omega, g, root, f = oracle_instance(dim, 70 + dim)
    e2 = 0.3 * math.sqrt(full_depth_strong_energy_sq(sigma, omega, root,
                                                     0.0))
    cor = energy_stopping(sigma, omega, root, 2.0, e2, 0.0, 0.0, depth)
    assert len(cor.stopping) > 1
    assert_same_corona(cor, oracles.energy_stopping(
        sigma, omega, root, 2.0, e2, 0.0, 0.0, depth))


# ----------------------------------------------------- half-space measures

def test_tent_membership_matches_containment():
    g = std_grid(M=3)
    root = g.cube(0, (0,))
    cubes = subtree(root)
    hs = HalfSpaceMeasure.from_cubes(cubes, np.ones(len(cubes)))
    for k in cubes:
        inside = hs.tent_mask(k)
        expected = np.array([k.contains_cube(j) for j in cubes])
        assert np.array_equal(inside, expected)
    with pytest.raises(ValueError, match="cube at resolution 4 meets a "
                       "measure at resolution 3"):
        hs.tent_mask(std_grid(M=4).cube(0, (0,)))


def test_tent_union_and_t2_integral():
    g = std_grid(M=3)
    a, b = g.cube(1, (0,)), g.cube(1, (4,))
    child = g.cube(2, (0,))
    hs = HalfSpaceMeasure.from_cubes([child, b], [2.0, 3.0])
    assert hs.masses[hs.tent_mask(a)].sum() == 2.0
    assert hs.masses[hs.tent_mask(a) | hs.tent_mask(b)].sum() == 5.0
    assert hs.second_coordinate_sq_integral() == \
        pytest.approx(2.0 * 0.25 ** 2 + 3.0 * 0.5 ** 2)


# ------------------------------------------------------- indented corona

def test_indented_single_cube():
    root = std_grid().cube(0, (0,))
    levels, parent = indented_corona([root])
    assert levels == [[root]] and parent[root] is None


def test_indented_nested_chain():
    g = std_grid(M=6)
    a = g.cube(0, (0,))
    b = g.cube(3, (3,))        # [3/8, 1/2): tripled is [1/4, 5/8]
    c = g.cube(6, (28,))       # [28/64, 29/64): tripled stays inside b
    levels, parent = indented_corona([a, b, c])
    assert levels == [[a], [b], [c]]
    assert parent[b] == a and parent[c] == b


def test_indented_boundary_cube_excluded():
    g = std_grid(M=3)
    a = g.cube(0, (0,))
    edge = g.cube(3, (0,))     # shares the left face of a
    levels, parent = indented_corona([a, edge])
    assert edge not in parent
    assert levels == [[a]]


# -------------------------------------------------------- shifted corona

def test_shifted_coronas_partition_crossed_cubes():
    eps = 0.9
    g_d = std_grid(M=6)
    g_g = make_grid(1, 6, 0, {"kind": "gamma", "g": (23,)})
    rng = np.random.default_rng(12)
    mu = lattice_measure(rng, M=6)
    f = rng.standard_normal(mu.natoms) * rng.integers(1, 30, mu.natoms)
    root = g_d.cube(0, (0,))
    cor = cz_stopping(mu, f, root, 3.0)
    expected = sum(q is not None and root.contains_cube(q)
                   for q, _ in sharp_cross(g_g.cubes(), g_d, eps))
    counts = {}
    for shift in shifted_corona(cor, g_g, eps):
        for j in shift:
            counts[j] = counts.get(j, 0) + 1
    assert all(v == 1 for v in counts.values())
    assert sum(counts.values()) == expected
    assert expected > 0


def test_shifted_corona_memo_finds_each_crossover_once(monkeypatch):
    # all the shifted coronas come from one sharp_cross call that sees
    # every cube of the other grid once, and they equal the coronas
    # found top by top with a crossover per cube
    import twoweight.corona as corona_mod
    eps = 0.9
    g_d = std_grid(M=5)
    g_g = make_grid(1, 5, 0, {"kind": "gamma", "g": (11,)})
    rng = np.random.default_rng(15)
    mu = lattice_measure(rng, M=5)
    f = rng.standard_normal(mu.natoms) * rng.integers(1, 30, mu.natoms)
    cor = cz_stopping(mu, f, g_d.cube(0, (0,)), 3.0)
    assert len(cor.stopping) > 1
    plain = [oracles.shifted_corona(cor, top, g_g, eps)
             for top in cor.stopping]
    calls = []

    def counted(cubes, grid, eps):
        calls.append(list(cubes))
        return sharp_cross(calls[-1], grid, eps)

    monkeypatch.setattr(corona_mod, "sharp_cross", counted)
    memo = shifted_corona(cor, g_g, eps)
    assert memo == plain
    assert len(calls) == 1
    assert calls[0] == list(g_g.cubes())


# --------------------------------------------------------- carleson norm

def test_carleson_singleton():
    rng = np.random.default_rng(13)
    mu = lattice_measure(rng)
    root = std_grid().cube(0, (0,))
    assert carleson_norm([root], mu) == pytest.approx(1.0)


def test_carleson_nested_chain_uniform():
    M = 4
    mu = Measure.from_atoms(1, M, [((k,), 1.0 / 2 ** M)
                                   for k in range(2 ** M)])
    g = std_grid(M=M)
    chain = [g.cube(lev, (0,)) for lev in range(M + 1)]
    assert carleson_norm(chain, mu) == pytest.approx(2.0 - 2.0 ** -M)


