"""The level tables, and the walks that the array layer replaced.

The strong, Whitney and A2 comparisons with oracles.py sit next to the
other tests of those functions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoweight.grid as grid_mod
import twoweight.harness as harness
import twoweight.levels as levels_mod
from twoweight.bfamily import make_family, sharp_norm_sq, sharp_norms_sq
from twoweight.corona import (
    carleson_norm,
    cz_stopping,
    energy_stopping,
    shifted_corona,
    stopping_data,
)
from twoweight.grid import Cube, make_grid, sharp_cross
from twoweight.energy import (
    functional_energy_context,
    functional_energy_estimate,
    functional_energy_lhs,
)
from twoweight.harness import RunConfig, generate_pair, verify_theorem
from twoweight.levels import Levels, tops
from twoweight.measure import Measure

import oracles

def std_grid(dim=1, M=3):
    return make_grid(dim, M, 0, {"kind": "beta", "bits": [[0] * M] * dim})


def draw(rng, dim, M, natoms):
    side = 2 ** M
    flat = rng.choice(side ** dim, size=natoms, replace=False)
    pts = [(int(k),) if dim == 1 else (int(k) % side, int(k) // side)
           for k in flat]
    return Measure.from_atoms(dim, M, [(p, float(m)) for p, m in
                                       zip(pts, rng.random(natoms) + 0.1)])


def pair(dim, kind, seed, natoms=14):
    m = 4 if dim == 1 else 3
    if kind == "common_atoms":
        return generate_pair("common_atoms", {"dim": dim, "resolution": m,
                                              "natoms": natoms}, seed)
    rng = np.random.default_rng(seed)
    sigma, omega = draw(rng, dim, m, natoms), draw(rng, dim, m, natoms)
    return sigma, omega if kind == "random" else Measure.from_atoms(dim, m,
                                                                    [])


# ------------------------------------------------------------ level tables

GRIDS = [(1, 5, 0, {"kind": "beta", "bits": [[0] * 5]}),
         (1, 4, -2, {"kind": "random", "seed": 3}),
         (2, 3, 0, {"kind": "gamma", "g": [3, 5]}),
         (2, 3, -1, {"kind": "random", "seed": 4})]


def every_cube(g):
    """(level, corner, augmented) arrays of every grid and augmented cube
    of g."""
    cubes = list(g.cubes()) + oracles.augmented_cubes(g)
    return (np.array([q.level for q in cubes]),
            np.array([q.lo for q in cubes]),
            np.array([q.grid is None for q in cubes]))


@pytest.mark.parametrize("dim,M,N,param,finer", [
    grid + (finer,) for grid, finer in zip(GRIDS, (0, 1, 0, 1))])
def test_slices_hold_the_atoms_of_every_cube(dim, M, N, param, finer):
    # a measure on the grid's lattice; one on a finer lattice is refused
    g = make_grid(dim, M, N, param)
    if finer:
        fine = draw(np.random.default_rng(M), dim, M + finer, 4)
        for build in (lambda: Levels(fine, g), lambda: tops([g], fine, fine)):
            with pytest.raises(ValueError, match=f"measure at resolution "
                               f"{M + finer} meets a grid at resolution {M}"):
                build()
    mu = draw(np.random.default_rng(M), dim, M, 3 * 2 ** dim)
    lv = Levels(mu, g)
    cubes = list(g.cubes()) + oracles.augmented_cubes(g)
    assert any(q.grid is None for q in cubes)
    for q in cubes:
        r = lv.cube_rows(q.level, np.array([q.lo]),
                         np.array([q.grid is None]))[0]
        s, e = lv.st[r], lv.en[r]
        inside = np.concatenate([lv.order[a:b] for a, b in zip(s[0], e[0])])
        want = oracles.atoms_in(mu, q)
        assert sorted(inside) == list(np.flatnonzero(want))
        s, e = oracles.complement(lv, s, e)
        outside = np.concatenate([lv.order[a:b] for a, b in zip(s[0], e[0])])
        assert sorted(outside) == list(np.flatnonzero(~want))


@pytest.mark.parametrize("dim,M,N,param", GRIDS)
def test_dense_rows_are_the_sorted_search(dim, M, N, param):
    # lattice points inside and outside every level's box of nonempty
    # cells, one level for all and one per point, and 0-d lookups
    g = make_grid(dim, M, N, param)
    rng = np.random.default_rng(M - N)
    far = rng.integers(-2 ** (M + 1), 2 ** (M + 1), (400, dim))
    for natoms in (3 * 2 ** dim, 1, 0):
        mu = draw(rng, dim, M, natoms)
        lv, pts = Levels(mu, g), np.vstack([far, mu.points])
        assert len(lv.table) - 1 <= sum((2 ** max(lev, 0) + 1) ** dim
                                        for lev in range(N, M + 1))
        for level in range(N, M + 1):
            got = lv.rows(level, pts)
            assert got.tolist() == oracles.rows(lv, level, pts).tolist()
            assert (got == -1).any() and ((got >= 0).any() == bool(natoms))
        level = rng.integers(N, M + 1, len(pts))
        got = lv.rows(level, pts)
        assert got.tolist() == oracles.rows(lv, level, pts).tolist()
        # -1 reads the arrays' ends: an empty slice
        assert (lv.st[got] == lv.en[got])[got == -1].all()
        for r in range(len(lv.st) - 1):
            one = lv.rows(lv.level[r], lv.corner[r])
            assert np.ndim(one) == 0 and int(one) == r
        assert int(lv.rows(N, np.array([2 ** (M + 3)] * dim))) == -1


def test_a_table_past_the_cap_is_refused(monkeypatch):
    mu = draw(np.random.default_rng(1), 2, 4, 12)
    g = std_grid(2, 4)
    size = len(Levels(mu, g).table) - 1
    monkeypatch.setattr(levels_mod, "_TABLE", size - 1)
    with pytest.raises(ValueError, match=f"would hold {size} cells"):
        Levels(mu, g)
    monkeypatch.setattr(levels_mod, "_TABLE", size)
    assert len(Levels(mu, g).table) == size + 1


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("kind", ["standard", "reproducing"])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("dim,M,N,param", GRIDS)
def test_dense_hole_is_the_ragged_sum_bit_for_bit(dim, M, N, param, alpha,
                                                  kind, block, monkeypatch):
    # the kernel on all atoms with the cube's own slices set to 0, summed
    # left to right, adds the kept atoms in the ragged sum's order, so
    # the values are equal, not close; a block of 7 entries holds one
    # cube, so every row is its own block
    if block:
        monkeypatch.setattr(levels_mod, "_BLOCK", block)
    g = make_grid(dim, M, N, param)
    level, lo, aug = every_cube(g)
    side = 2 ** (M - level)
    for natoms in (3 * 2 ** dim, 0):
        lv = Levels(draw(np.random.default_rng(M), dim, M, natoms), g)
        r = lv.cube_rows(level, lo, aug)[0]
        s, e = lv.st[r], lv.en[r]
        got = lv.outside(s, e, lo, side, alpha, kind)
        want = oracles.hole_sum(lv, s, e, lo, side, alpha, kind)
        assert got.tolist() == want.tolist()
        assert (got > 0).any() == bool(natoms)


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("dim,M,N,param", GRIDS)
def test_poisson_is_the_sum_row_by_row(dim, M, N, param, alpha, block,
                                       monkeypatch):
    # each row's kernel values, holes dropped, added left to right, so
    # the values are equal whatever the blocks
    if block:
        monkeypatch.setattr(levels_mod, "_BLOCK", block)
    g = make_grid(dim, M, N, param)
    level, lo, aug = every_cube(g)
    side = 2 ** (M - level)
    lv = Levels(draw(np.random.default_rng(M), dim, M, 3 * 2 ** dim), g)
    r = lv.cube_rows(level, lo, aug)[0]
    s, e = lv.st[r], lv.en[r]
    # boxes that hold all, part or none of each cube's atoms
    holes = (None, (4 * lo, 4 * lo + 2 * side[:, None]),
             grid_mod.dilate4(lo, side, 2.0), (4 * lo, 4 * lo))
    for kind in ("standard", "reproducing"):
        got = lv.poisson(s, e, lo, side, alpha, kind, holes)
        want = oracles.poisson_rows(lv, s, e, lo, side, alpha, kind, holes)
        assert got.tolist() == want.tolist()
        assert (got[0] > got[1]).any() and (got[1] > 0).any()
        assert not got[2].any() and got[3].tolist() == got[0].tolist()


@pytest.mark.parametrize("dim,M,N,param", GRIDS)
def test_row_moments_are_the_stats_of_each_row(dim, M, N, param):
    g = make_grid(dim, M, N, param)
    lv = Levels(draw(np.random.default_rng(M), dim, M, 3 * 2 ** dim), g)
    mass, mom = lv.moments
    for r in range(len(lv.st) - 1):
        want = lv.stats(lv.st[r:r + 1, None], lv.en[r:r + 1, None])
        assert (mass[r], mom[r]) == (want[0][0], want[1][0])
    assert mass[-1] == mom[-1] == 0.0 and (mom > 0).any()
    assert mass.tolist() == lv.mass.tolist()
    # a grid cube's row, an augmented cube's children, an empty cube's 0
    level, lo, aug = every_cube(g)
    r, *got = lv.cube_rows(level, lo, aug)
    want = lv.stats(lv.st[r], lv.en[r])
    assert [x.tolist() for x in got] == [x.tolist() for x in want]
    assert aug.any() and (got[0] == 0).any()


# ------------------------------------------------ energy stopping, alpha > 0

@pytest.mark.parametrize("depth", [2, None])
@pytest.mark.parametrize("dim,kind", [(1, "common_atoms"), (2, "random"),
                                      (1, "empty_omega")])
def test_energy_stopping_matches_the_loop(dim, kind, depth):
    sigma, omega = pair(dim, kind, 24)
    g = std_grid(dim, sigma.resolution)
    root = g.cube(0, (0,) * dim)
    want = oracles.energy_stopping(sigma, omega, root, 2.0, 0.5, 0.0, 0.5,
                                   depth)
    cor = energy_stopping(sigma, omega, root, 2.0, 0.5, 0.0, 0.5, depth)
    assert cor.stopping == want["stopping"] and cor.parent == want["parent"]
    assert oracles.close(cor.criteria, want["criteria"])
    assert oracles.close(cor.energies, want["energies"])


@pytest.mark.parametrize("depth", [1, None])
@pytest.mark.parametrize("dim,kind", [(1, "common_atoms"), (2, "random"),
                                      (1, "empty_omega")])
def test_energy_stopping_terms_are_the_per_top_terms(dim, kind, depth,
                                                     monkeypatch):
    # the criterion's strong terms, one top at a time as before they
    # were batched: the same coronas and the same bits
    sigma, omega = pair(dim, kind, 24)
    root = std_grid(dim, sigma.resolution).cube(0, (0,) * dim)
    args = (sigma, omega, root, 1.5, 0.05, 0.0, 0.5, depth)
    got = energy_stopping(*args)

    def per_top(amb, mom, level, lo, d, alpha, slices, m0):
        return oracles.strong_terms(amb, mom, level, lo,
                                    np.zeros(len(lo), bool), int(d), alpha)

    monkeypatch.setattr(levels_mod, "strong_terms", per_top)
    want = energy_stopping(*args)
    assert got.stopping == want.stopping and got.parent == want.parent
    assert got.criteria == want.criteria and got.energies == want.energies
    assert (len(got.stopping) > 1) == (kind != "empty_omega")


# ------------------------------------------------------------ object churn

def test_a_verify_builds_few_children(monkeypatch):
    # before the level tables a (2, 5, 200, 1) verify made 18,890
    # Cube.children calls; before the coronas read table rows a
    # (1, 8, 200, 1) verify made 751, and 2,450 Measure.atoms calls
    calls = {"children": 0, "atoms": 0}

    def counted(name, real):
        def run(*args):
            calls[name] += 1
            return real(*args)
        return run

    monkeypatch.setattr(Cube, "children", counted("children", Cube.children))
    monkeypatch.setattr(Measure, "atoms", counted("atoms", Measure.atoms))
    for dim, M in ((2, 5), (1, 8)):
        calls.update(children=0, atoms=0)
        verify_theorem(RunConfig(dim=dim, resolution=M, natoms=200, seed=1))
        assert calls["children"] == 0 and calls["atoms"] <= 20


@pytest.mark.parametrize("kind", ["unit", "random"])
@pytest.mark.parametrize("dim,M", [(1, 5), (2, 3)])
def test_family_walk_matches_the_walk_over_every_subcube(dim, M, kind):
    mu = draw(np.random.default_rng(dim), dim, M, 2 ** (dim * M) // 3)
    root = std_grid(dim, M).cube(0, (0,) * dim)
    fam = make_family(kind, mu, root.grid, root, seed=5)
    want = oracles.family_values(kind, mu, root, seed=5)
    assert list(fam.values) == list(want)
    assert all(np.array_equal(fam.values[q], want[q]) for q in want)


@pytest.mark.parametrize("dim,M,eps", [(1, 6, 0.9), (2, 4, 0.9)])
def test_sharp_cross_builds_only_the_cubes_it_looks_at(dim, M, eps,
                                                       monkeypatch):
    # the crossovers come from integer arrays: no goodness test of one
    # cube, and a Cube built only for each q and j_flat returned
    g_d = make_grid(dim, M, 0, {"kind": "random", "seed": 9})
    g_g = make_grid(dim, M, 0, {"kind": "gamma", "g": [2 ** M // 3] * dim})
    js = list(g_g.cubes())
    built = []

    def counted(*args):
        built.append(Cube(*args))
        return built[-1]

    def refused(*args):
        raise AssertionError("a crossover looked at one cube")

    monkeypatch.setattr(grid_mod, "Cube", counted)
    monkeypatch.setattr(grid_mod, "is_eps_good", refused)
    got = sharp_cross(js, g_d, eps)
    monkeypatch.undo()
    assert len(built) == sum(x is not None for pair in got for x in pair)
    bodies = {}
    assert [q for q, _ in got] == [oracles.sharp_cross(j, g_d, eps, bodies)
                                   for j in js]
    assert any(q is not None for q, _ in got) or dim == 2


# --------------------------------------- the cube walks against their loops

def cz_pair(dim, seed):
    """A pair on every point of the 2^-6 lattice (1-D) or half of the
    2^-3 lattice (2-D), with a CZ corona of more than one stopping cube."""
    M = 6 if dim == 1 else 3
    rng = np.random.default_rng(seed)
    sigma, omega = (draw(rng, dim, M, 2 ** (dim * M) // dim) for _ in "so")
    root = std_grid(dim, M).cube(0, (0,) * dim)
    f = rng.pareto(1.0, sigma.natoms) + 0.1
    cor = cz_stopping(sigma, f, root, 2.0)
    assert len(cor.stopping) > 1
    return sigma, omega, root, f, cor


@pytest.mark.parametrize("eps", [0.5, 0.9])
@pytest.mark.parametrize("dim,M,N", [(1, 7, 0), (1, 5, -1), (2, 4, 0),
                                     (2, 3, -1)])
def test_crossovers_equal_the_cube_by_cube_loop(dim, M, N, eps):
    g_d = make_grid(dim, M, N, {"kind": "random", "seed": M})
    for shift in (1, 2 ** M // 3, 2 ** (M - N) - 3):
        g_g = make_grid(dim, M, N, {"kind": "gamma", "g": [shift] * dim})
        js = list(g_g.cubes()) + list(g_d.cubes())
        bodies = {}
        for j, (q, flat) in zip(js, sharp_cross(js, g_d, eps)):
            want = oracles.sharp_cross(j, g_d, eps, bodies)
            assert (q, getattr(q, "level", None)) \
                == (want, getattr(want, "level", None))
            want = oracles.flat_grandchild(j, want)
            assert (flat, getattr(flat, "level", None)) \
                == (want, getattr(want, "level", None))


@pytest.mark.parametrize("dim,seed", [(1, 3), (1, 8), (2, 5)])
def test_coronas_by_code_equal_the_containment_scans(dim, seed):
    # the coronas are read off table rows, so they hold the nonempty
    # cubes only; the averages are row sums, in another order than the
    # scans' sums
    sigma, _, root, f, cor = cz_pair(dim, seed)
    for top in cor.stopping:
        assert cor.corona_of(top) == [q for q in oracles.corona_of(cor, top)
                                      if oracles.atoms_in(sigma, q).any()]
    for fam in (cor.stopping, cor.stopping[::-1] + cor.stopping[:2]):
        assert carleson_norm(fam, sigma) == oracles.carleson_norm(fam, sigma)
    sd = stopping_data(cor, f)
    value, witness = oracles.avg_control(cor, f)
    assert oracles.close(sd["avg_control"], value)
    assert sd["avg_control_witness"] == witness
    g = root.grid
    for shift in (1, 2 ** g.M // 3):
        g_g = make_grid(dim, g.M, 0, {"kind": "gamma", "g": [shift] * dim})
        for eps in (0.5, 0.9):
            assert shifted_corona(cor, g_g, eps) == [
                oracles.shifted_corona(cor, top, g_g, eps)
                for top in cor.stopping]


@pytest.mark.parametrize("dim,seed", [(1, 3), (1, 8), (2, 5)])
def test_functional_energy_equals_the_loops(dim, seed):
    sigma, omega, root, _, cor = cz_pair(dim, seed)
    g_g = make_grid(dim, root.grid.M, 0,
                    {"kind": "gamma", "g": [2 ** root.grid.M // 3] * dim})
    fam = make_family("unit", omega, g_g, g_g.cube(0, (0,) * dim))
    ctx = functional_energy_context(cor, g_g, fam, 0.9, 0.0)
    want = oracles.functional_energy_context(cor, g_g, fam, 0.9,
                                             oracles.sharp_norm_sq)
    assert [(m, m.level, type(q)) for m, q in ctx] \
        == [(m, m.level, type(q)) for m, q in want]
    assert oracles.close([q for _, q in ctx], [q for _, q in want])
    assert dim == 2 or any(q > 0 for _, q in ctx)
    rng = np.random.default_rng(seed)
    hs = rng.standard_normal((5, sigma.natoms))
    got = functional_energy_lhs(hs, ctx, sigma, 0.5)
    for h, v in zip(hs, got):
        assert oracles.close(v, oracles.functional_energy_lhs(h, ctx, sigma,
                                                              0.5))
        assert oracles.close(functional_energy_lhs(h, ctx, sigma, 0.5), v)
    est = functional_energy_estimate(ctx, sigma, 0.5, root, seed=seed)
    assert oracles.close(est, oracles.functional_energy_estimate(
        ctx, sigma, 0.5, root, seed=seed))


@pytest.mark.parametrize("kind", ["unit", "random", "global", "explicit"])
@pytest.mark.parametrize("dim,M", [(1, 5), (2, 3)])
def test_family_equals_the_cube_by_cube_walk(dim, M, kind):
    rng = np.random.default_rng(dim + M)
    mu = draw(rng, dim, M, 2 ** (dim * M) // 3)
    g = make_grid(dim, M, 0, {"kind": "gamma", "g": [2 ** M // 3] * dim})
    cells = (mu.points - g.off(0)) // g.side_units(0)
    roots = [g.cube(0, c) for c in sorted(set(map(tuple, cells.tolist())))]
    extra = {"global": {"global_values": rng.random(mu.natoms) + 0.5},
             "explicit": {"values": {q: rng.random(mu.natoms) + 0.5
                                     for q in g.cubes() if q.level != 1}}}
    fam = make_family(kind, mu, g, roots, seed=7, **extra.get(kind, {}))
    vals, children, broken, c_b, big_c = oracles.make_family(
        kind, mu, roots, seed=7, **extra.get(kind, {}))
    assert list(fam.values) == list(vals)
    assert all(np.array_equal(fam.values[q], vals[q]) for q in vals)
    assert {q: fam.children_of(q) for q in vals} == {
        q: children[q] for q in vals}
    assert fam.broken_children == broken
    # c_b and C_b sum each cube's atoms in table order, not all atoms
    assert oracles.close([fam.c_b, fam.C_b], [c_b, big_c], rel=1e-15)
    loop = oracles.classify(fam)
    assert oracles.close([fam.c_b, fam.C_b], list(loop[:2]), rel=1e-15)
    assert loop[2] == broken
    assert bool(broken) == (kind in ("random", "explicit"))


@pytest.mark.parametrize("kind", ["unit", "random", "explicit"])
@pytest.mark.parametrize("dim,M", [(1, 5), (2, 3)])
def test_sharp_norms_equal_the_cube_by_cube_loop(dim, M, kind):
    # every cube of a gamma grid, empty ones and one off the grid
    # included; the explicit family leaves out level 1, so Delta meets
    # atoms in no family child
    rng = np.random.default_rng(3 * dim + M)
    mu = draw(rng, dim, M, 2 ** (dim * M) // 3)
    g = make_grid(dim, M, 0, {"kind": "gamma", "g": [2 ** M // 3] * dim})
    cells = (mu.points - g.off(0)) // g.side_units(0)
    roots = [g.cube(0, c) for c in sorted(set(map(tuple, cells.tolist())))]
    vals = {q: rng.random(mu.natoms) + 0.5 for q in g.cubes()
            if q.level != 1}
    fam = make_family(kind, mu, g, roots, seed=2, values=vals)
    cubes = list(g.cubes()) + [std_grid(dim, M).cube(1, (1,) * dim)]
    got = sharp_norms_sq(fam, cubes)
    want = [oracles.sharp_norm_sq(fam, [q]) for q in cubes]
    # where Delta_Q x vanishes (one child holding all of Q's mass) the
    # loop leaves a rounding residue of about 1e-33
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-28)
    assert any(v > 0 for v in want) and got[-1] == 0.0
    assert oracles.close(sharp_norm_sq(fam, cubes),
                         oracles.sharp_norm_sq(fam, cubes))


def test_a_verify_sums_the_moments_of_few_cubes_again(monkeypatch):
    # grid cubes read their (mass, moment) from the table's rows; stats
    # runs once per table and for the augmented cubes of each energy
    # pass (49 calls per (1, 8, 200, 1) verify before the row moments)
    calls = []
    real = Levels.stats

    def counted(self, *args):
        calls.append(self)
        return real(self, *args)

    monkeypatch.setattr(Levels, "stats", counted)
    for dim, M in ((1, 8), (2, 5)):
        calls.clear()
        verify_theorem(RunConfig(dim=dim, resolution=M, natoms=200, seed=1))
        assert 0 < len(calls) <= 16


def test_a_verify_builds_each_level_table_once(monkeypatch):
    # one table per (measure, grid): sigma and omega on the grid, omega
    # on the gamma grid
    calls = []
    real = Levels.__init__

    def counted(self, mu, grid):
        calls.append((mu, grid))
        real(self, mu, grid)

    monkeypatch.setattr(Levels, "__init__", counted)
    verify_theorem(RunConfig(dim=1, resolution=8, natoms=200))
    assert 0 < len(calls) <= 3


def test_a_verify_batches_the_energy_layer(monkeypatch):
    # one enumeration of the tops per verify, and one row lookup and one
    # Poisson call per stage and depth: at (2, 4, 100) a verify made 3
    # tops, 80 rows and 30 poisson calls when each energy pass built
    # its own tops and its terms per group
    calls = {"tops": 0, "rows": 0, "poisson": 0}

    def counted(name, real):
        def run(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return run

    monkeypatch.setattr(levels_mod, "tops", counted("tops", levels_mod.tops))
    for name in ("rows", "poisson"):
        monkeypatch.setattr(Levels, name, counted(name, getattr(Levels,
                                                                 name)))
    verify_theorem(RunConfig(dim=2, resolution=4, natoms=100, seed=1))
    assert calls["tops"] == 1
    assert 0 < calls["rows"] <= 32 and 0 < calls["poisson"] <= 13


def test_a_verify_finds_no_family_atoms_by_cube(monkeypatch):
    # the families, the testing constants and the functional-energy
    # context read the level tables: no Measure.atoms call, and no Cube
    # view of a family
    calls, inside, families = [], [], []
    real_atoms = Measure.atoms

    def atoms(self, q):
        calls.append(bool(inside))
        return real_atoms(self, q)

    def watched(name):
        real = getattr(harness, name)

        def run(*args, **kwargs):
            inside.append(name)
            try:
                out = real(*args, **kwargs)
            finally:
                inside.pop()
            if name == "make_family":
                families.append(out)
            return out
        monkeypatch.setattr(harness, name, run)

    monkeypatch.setattr(Measure, "atoms", atoms)
    for name in ("make_family", "testing_constants",
                 "functional_energy_context"):
        watched(name)
    report = verify_theorem(RunConfig(dim=1, resolution=8, natoms=200))
    assert float(report["functional_energy"]["value"]) > 0.0
    assert len(families) == 3 and not any(calls)
    assert not any("values" in vars(f) for f in families)


def test_a_verify_finds_containment_by_code(monkeypatch):
    # a verify with a nonzero functional energy finds its crossovers in
    # one call per context and tests no containment cube by cube
    import twoweight.corona as corona_mod
    calls = {"contains": 0, "cross": 0, "context": 0}
    real_contains, real_cross = Cube.contains_cube, corona_mod.sharp_cross
    real_context = harness.functional_energy_context

    def contains(self, other):
        calls["contains"] += 1
        return real_contains(self, other)

    def cross(*args):
        calls["cross"] += 1
        return real_cross(*args)

    def context(*args):
        calls["context"] += 1
        return real_context(*args)

    monkeypatch.setattr(Cube, "contains_cube", contains)
    monkeypatch.setattr(corona_mod, "sharp_cross", cross)
    monkeypatch.setattr(harness, "functional_energy_context", context)
    report = verify_theorem(RunConfig(dim=1, resolution=8, natoms=200))
    assert float(report["functional_energy"]["value"]) > 0.0
    assert calls == {"contains": 0, "cross": 1, "context": 1}


# --------------------------------------------------- the gamma-grid family

@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 2), res=st.integers(1, 4),
       natoms=st.integers(1, 12), seed=st.integers(0, 10 ** 6))
def test_valid_configs_run_and_the_family_covers_omega(dim, res, natoms,
                                                        seed):
    # an exception here is an exit 1 of the CLI on a valid config
    families = []
    real = harness.make_family

    def kept(kind, mu, grid, root, **kw):
        families.append((mu, root, real(kind, mu, grid, root, **kw)))
        return families[-1][2]

    harness.make_family = kept
    try:
        report = verify_theorem(RunConfig(dim=dim, resolution=min(res, 3),
                                          natoms=natoms, seed=seed))
    finally:
        harness.make_family = real
    assert {c["name"] for c in report["checks"]} >= {"halfspace_recount"}
    omega, roots, fam = families[-1]
    under = sum(len(omega.atoms(q)) for q in roots)
    assert isinstance(roots, list) and under == omega.natoms
    assert all(q in fam.values for q in roots)
