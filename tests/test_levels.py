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
from twoweight.bfamily import make_family
from twoweight.corona import energy_stopping
from twoweight.grid import Cube, make_grid, sharp_cross
from twoweight.harness import RunConfig, generate_pair, verify_theorem
from twoweight.levels import Levels
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

@pytest.mark.parametrize("dim,M,N,param,finer", [
    (1, 5, 0, {"kind": "beta", "bits": [[0] * 5]}, 0),
    (1, 4, -2, {"kind": "random", "seed": 3}, 1),
    (2, 3, 0, {"kind": "gamma", "g": [3, 5]}, 0),
    (2, 3, -1, {"kind": "random", "seed": 4}, 1)])
def test_slices_hold_the_atoms_of_every_cube(dim, M, N, param, finer):
    # a measure on the grid's lattice, or on a finer one
    g = make_grid(dim, M, N, param)
    mu = draw(np.random.default_rng(M), dim, M + finer, 3 * 2 ** dim)
    lv = Levels(mu, g)
    cubes = list(g.cubes()) + list(g.augmented_cubes())
    assert any(q.grid is None for q in cubes)
    for q in cubes:
        s, e = lv.cube_slices(q.level, np.array([q.lo]),
                              np.array([q.grid is None]))
        inside = np.concatenate([lv.order[a:b] for a, b in zip(s[0], e[0])])
        want = oracles.atoms_in(mu, q)
        assert sorted(inside) == list(np.flatnonzero(want))
        s, e = lv.complement(s, e)
        outside = np.concatenate([lv.order[a:b] for a, b in zip(s[0], e[0])])
        assert sorted(outside) == list(np.flatnonzero(~want))


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


# ------------------------------------------------------------ object churn

def test_a_verify_builds_few_children(monkeypatch):
    # 18,890 Cube.children calls before the level tables
    calls = []
    real = Cube.children

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Cube, "children", counted)
    verify_theorem(RunConfig(dim=2, resolution=5, natoms=200, seed=1))
    assert 0 < len(calls) <= 1889


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
    g_d = make_grid(dim, M, 0, {"kind": "random", "seed": 9})
    g_g = make_grid(dim, M, 0, {"kind": "gamma", "g": [2 ** M // 3] * dim})
    built, looked = [], []
    chain, good = grid_mod._ancestor_chain, grid_mod.is_eps_good

    def counted_chain(j, grid):
        for k in chain(j, grid):
            built.append(k)
            yield k

    def counted_good(j, k, eps, body_k=None):
        looked.append(k)
        return good(j, k, eps, body_k)

    monkeypatch.setattr(grid_mod, "_ancestor_chain", counted_chain)
    monkeypatch.setattr(grid_mod, "is_eps_good", counted_good)
    found = 0
    for j in g_g.cubes():
        q, _ = sharp_cross(j, g_d, eps, {})
        assert q == oracles.sharp_cross(j, g_d, eps, {})
        found += q is not None
    assert built == looked
    assert found > 0 or dim == 2    # 2-D crossovers need a deeper grid


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
