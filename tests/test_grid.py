import itertools
import math

import numpy as np
import pytest

from twoweight.grid import (
    Cube,
    bad_probability_mc,
    holders,
    is_eps_good,
    m_deep,
    make_grid,
    sharp_cross,
    whitney,
    whitney_cells,
)

import oracles


def std_grid(dim=1, M=3, N=0):
    bits = [[0] * (M - N) for _ in range(dim)]
    return make_grid(dim, M, N, {"kind": "beta", "bits": bits})


def meet(a, b):
    """Whether the half-open cubes a and b overlap."""
    return all(a.lo[i] < b.lo[i] + b.side and b.lo[i] < a.lo[i] + a.side
               for i in range(a.dim))


# ---------------------------------------------------------------- make_grid

def test_zero_shift_is_standard_grid():
    g = std_grid(M=3)
    q = g.cube(1, (1,))
    assert q.lo == (4,) and q.side == 4  # [1/2, 1)


def test_translation_shifts_every_cube():
    g = make_grid(1, 3, 0, {"kind": "gamma", "g": [1]})  # shift 1/8
    for level in range(0, 4):
        q = g.cube(level, (0,))
        assert q.lo == (1,)


def test_parameter_space_and_seeded_draw():
    # dim=2, M=2, N=0: 2^(2*2) = 16 parameterizations; seeded draw is stable
    g1 = make_grid(2, 2, 0, {"kind": "random", "seed": 7})
    g2 = make_grid(2, 2, 0, {"kind": "random", "seed": 7})
    assert g1 == g2
    all_bits = list(itertools.product([0, 1], repeat=4))
    grids = {make_grid(2, 2, 0, {"kind": "beta",
                                 "bits": [list(b[:2]), list(b[2:])]})
             for b in all_bits}
    assert len(grids) == 16


def test_make_grid_rejects_bad_params():
    with pytest.raises(ValueError):
        make_grid(1, 3, 1, {"kind": "beta", "bits": [[0, 0]]})  # N > 0
    with pytest.raises(ValueError):
        make_grid(1, 3, 0, {"kind": "gamma", "g": [8]})  # g >= 2^(M-N)
    with pytest.raises(ValueError):
        make_grid(1, 3, 0, {"kind": "beta", "bits": [[0, 0]]})  # wrong len


def test_construction1_nesting():
    g = make_grid(1, 4, 0, {"kind": "random", "seed": 3})
    for level in range(0, 4):
        for q in g.cubes_at_level(level):
            for c in q.children():
                assert q.contains_cube(c)
                assert c.parent() == q


def test_nesting_exhaustive_small():
    g = make_grid(2, 3, 0, {"kind": "random", "seed": 11})
    cubes = list(g.cubes())
    for a in cubes:
        for b in cubes:
            if meet(a, b):
                assert a.contains_cube(b) or b.contains_cube(a)


# ---------------------------------------------------------------- relatives

def test_double_parent():
    g = std_grid(M=3)
    q = g.cube(3, (3,))  # [3/8, 1/2)
    anc = q.parent().parent()
    assert anc.lo == (0,) and anc.side == 4  # pi^2 = [0, 1/2)
    assert anc.parent().side == 8


def test_relatives_level_overflow():
    g = std_grid(M=2)
    with pytest.raises(ValueError):
        g.cube(0, (0,)).parent()  # parent above the root level


# ---------------------------------------------------------------- whitney

def test_whitney_unit_interval():
    g = std_grid(M=4)
    k = g.cube(0, (0,))
    cubes, residual = whitney(k)
    los = {(c.lo[0], c.side) for c in cubes}
    assert (4, 4) in los and (8, 4) in los  # [1/4,1/2) and [1/2,3/4)
    # brute force: maximal S with 3S in K among levels <= 4
    brute = []
    for level in range(1, 5):
        for s in g.cubes_at_level(level):
            if not k.contains_cube(s):
                continue
            if not (k.lo[0] <= s.lo[0] - s.side
                    and s.lo[0] + 2 * s.side <= k.lo[0] + k.side):
                continue
            brute.append(s)
    maximal = [s for s in brute
               if not any(t.contains_cube(s) and t != s for t in brute)]
    assert set(cubes) == set(maximal)
    # disjointness and coverage accounting
    covered = sum(c.side for c in cubes) + sum(r.side for r in residual)
    assert covered == k.side


def test_whitney_at_finest_level_is_empty():
    g = std_grid(M=2)
    k = g.cube(2, (1,))
    cubes, residual = whitney(k)
    assert cubes == [] and residual == [k]


def test_whitney_2d_distance_to_boundary():
    g = std_grid(dim=2, M=4)
    k = g.cube(0, (0, 0))
    cubes, _ = whitney(k)
    assert cubes
    for s in cubes:
        d = min(min(s.lo[a] - k.lo[a],
                    k.lo[a] + k.side - (s.lo[a] + s.side))
                for a in range(2))
        assert d >= s.side


def test_whitney_pairwise_disjoint():
    g = std_grid(dim=2, M=4)
    cubes, _ = whitney(g.cube(0, (0, 0)))
    for a, b in itertools.combinations(cubes, 2):
        assert not meet(a, b)


@pytest.mark.parametrize("depth,dim", [(0, 1), (3, 1), (4, 2), (2, 3)])
def test_whitney_templates_are_shared_and_read_only(depth, dim):
    # one template per (depth, dim), shared by every caller, so no caller
    # may write to it
    got = whitney_cells(depth, dim)
    assert whitney_cells(depth, dim) is got
    fresh = whitney_cells.__wrapped__(depth, dim)
    assert all(np.array_equal(a, b) and a.dtype == b.dtype
               for a, b in zip(got, fresh))
    for a in got:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            a += 1


# ---------------------------------------------------------------- body

def test_body_contains_half():
    g = std_grid(M=4)
    b = oracles.body(g.cube(0, (0,)))
    pts = {lo[0] for lo, hi in b.boxes4}
    assert 4 * 8 in pts  # the point 1/2 in quarter units


def test_skeleton_unit_interval():
    g = std_grid(M=3)
    s = oracles.skeleton(g.cube(0, (0,)))
    pts = sorted({lo[0] for lo, hi in s.boxes4})
    assert pts == [0, 16, 32]  # {0, 1/2, 1} in quarter units


def test_dist_to_body_matches_brute_force():
    g = std_grid(M=4)
    k = g.cube(0, (0,))
    b = oracles.body(k)
    j = g.cube(4, (10,))  # [5/8, 11/16)
    pts = sorted({lo[0] for lo, hi in b.boxes4})
    brute = min(min(abs(p - j.lo4[0]), abs(p - j.hi4[0]))
                if not (j.lo4[0] <= p <= j.hi4[0]) else 0
                for p in pts) / 2 ** 6
    assert is_eps_good(j, k, 0.5)[1] == pytest.approx(brute)


# ---------------------------------------------------------------- goodness

def test_touching_body_is_bad_for_every_eps():
    g = std_grid(M=4)
    k = g.cube(0, (0,))
    j = g.cube(4, (8,))  # [1/2, 9/16), touches the body point 1/2
    for eps in (0.1, 0.5, 0.9):
        good, d = is_eps_good(j, k, eps)
        assert not good and d == 0.0


def test_self_case_is_bad():
    g = std_grid(M=4)
    k = g.cube(0, (0,))
    good, _ = is_eps_good(k, k, 0.5)
    assert not good


def test_containment_needs_one_lattice():
    # [0, 1/2) at 2^-4 and [1/2, 1) at 2^-3 share the corner numerator 4
    # with different meanings; read on one lattice, the first would hold
    # the second
    with pytest.raises(ValueError, match="cube at resolution 3 meets a "
                       "cube at resolution 4"):
        Cube(4, (0,), 8, 1).contains_cube(Cube(3, (4,), 4, 1))


def test_goodness_needs_one_lattice():
    k = std_grid(M=4).cube(0, (0,))
    for j in (std_grid(M=3).cube(3, (5,)), std_grid(M=5).cube(5, (5,))):
        with pytest.raises(ValueError, match=f"J at resolution {j.resolution}"
                           " and K at resolution 4"):
            is_eps_good(j, k, 0.5)


def test_goodness_threshold_example():
    # J = [9/16, 10/16), K = [0,1), eps = 1/2: threshold 2*(1/16)^(1/2) = 1/2
    g = std_grid(M=4)
    k = g.cube(0, (0,))
    j = g.cube(4, (9,))
    good, d = is_eps_good(j, k, 0.5)
    assert good == (d > 0.5)


# ---------------------------------------------------------------- sharp cross

def test_sharp_cross_always_bad_gives_none():
    g = std_grid(M=4)
    j = g.cube(4, (8,))  # touches 1/2, the body of every ancestor [0,2^-l)
    # the root is [0,1); J touches its body point 1/2, so nothing qualifies
    q, _ = sharp_cross([j], g, 0.5)[0]
    assert q is None


def test_sharp_cross_is_finest_all_good_ancestor():
    g = std_grid(M=6, N=0)
    eps = 0.5
    for coords in (37, 21, 11, 52):
        j = g.cube(6, (coords,))
        chain = []
        for level in range(0, 7):
            k = g.cube_containing(level, j.lo)
            if k.contains_cube(j):
                chain.append(k)
        expected = None
        for k in chain:
            if is_eps_good(j, k, eps)[0]:
                expected = k
            else:
                break
        q, _ = sharp_cross([j], g, eps)[0]
        assert q == expected


def test_sharp_cross_monotone_under_inclusion():
    g = std_grid(M=6, N=0)
    eps = 0.5
    for c in range(0, 64, 3):
        j = g.cube(6, (c,))
        parent = j.parent()
        (qj, _), (qp, _) = sharp_cross([j, parent], g, eps)
        if qp is not None and qj is not None:
            assert qj.contains_cube(j)
            # J' subset J implies (J')^sharp subset J^sharp
            assert qp.contains_cube(qj) or qp == qj


def test_key_fact_flat_grandchild():
    # at eps = 1/2 goodness at the root needs dist > 2*2^(-k/2), and the
    # farthest any point sits from the root body is about 1/8, so the
    # level gap k must reach 9 before any cube can qualify
    g = std_grid(M=9, N=0)
    eps = 0.5
    checked = 0
    js = [g.cube(9, (c,)) for c in range(0, 512, 7)]
    for j, (q, jf) in zip(js, sharp_cross(js, g, eps)):
        if q is None or q.level + 2 > g.M:
            continue
        if j.sidelength > q.sidelength / 4:
            continue
        assert jf is not None and jf.contains_cube(j)
        # 3J inside J^flat
        assert all(jf.lo[a] <= j.lo[a] - j.side
                   and j.lo[a] + 2 * j.side <= jf.lo[a] + jf.side
                   for a in range(1))
        # J^flat is a grandchild of J^sharp off its boundary
        assert jf.side * 4 == q.side
        assert q.lo[0] < jf.lo[0] and jf.lo[0] + jf.side < q.lo[0] + q.side
        checked += 1
    assert checked > 0


# ---------------------------------------------------------------- m_deep

def test_m_deep_eps_one_collapses_threshold():
    g = std_grid(M=5)
    k = g.cube(0, (0,))
    out = m_deep(k, rho=2, eps=1.0)
    for j in out:
        d = min(j.lo[0] - k.lo[0], k.lo[0] + k.side - (j.lo[0] + j.side))
        assert d >= 2 * j.side
    assert out  # nonempty at this depth


def test_m_deep_gamma_dilate_inside():
    g = std_grid(dim=2, M=5)
    k = g.cube(0, (0, 0))
    rho, eps = 2, 0.5
    gamma = 1 + 4 * 2 ** (rho * (1 - eps))
    for j in m_deep(k, rho, eps):
        # gammaJ in K, checked via the exact distance chain
        half_extra = (gamma - 1) / 2 * j.side
        for a in range(2):
            assert j.lo[a] - k.lo[a] >= half_extra - 1e-9
            assert k.lo[a] + k.side - (j.lo[a] + j.side) >= half_extra - 1e-9


def test_m_deep_disjoint_and_bounded_overlap():
    g = std_grid(M=6)
    k = g.cube(0, (0,))
    out = m_deep(k, 1, 0.5)
    for a, b in itertools.combinations(out, 2):
        assert not meet(a, b)
    # overlap count of the gamma-dilates on the finest lattice
    gamma = 1 + 4 * 2 ** 0.5
    counts = [0] * (2 ** 6)
    for j in out:
        c = j.lo[0] + j.side / 2
        lo = c - gamma * j.side / 2
        hi = c + gamma * j.side / 2
        for t in range(2 ** 6):
            if lo <= t + .5 < hi:
                counts[t] += 1
    # gamma = 1 + 4*sqrt(2) =~ 6.66, so a small two-sided pile-up of
    # nested scales is expected; the point is that it stays bounded
    assert max(counts) <= 16


# ---------------------------------------------------------------- MC goodness

def test_bad_probability_k0_degenerate():
    assert bad_probability_mc(1, 0, 0.5, 1000, 1) == (1.0, 0.0)


def test_bad_probability_decay():
    est = {}
    for k in (4, 6, 8, 10, 12):
        p, se = bad_probability_mc(1, k, 0.5, 10_000, 42)
        est[k] = (p, se)
    ks = sorted(est)
    for a, b in zip(ks, ks[1:]):
        pa, sa = est[a]
        pb, sb = est[b]
        assert pb <= pa + 3 * math.hypot(sa, sb)


def test_bad_probability_dim2_combines_axes():
    p1, _ = bad_probability_mc(1, 6, 0.5, 20_000, 9)
    p2, _ = bad_probability_mc(2, 6, 0.5, 20_000, 9)
    assert p2 == pytest.approx(1 - (1 - p1) ** 2, abs=0.05)


def test_bad_probability_needs_trials():
    with pytest.raises(ValueError):
        bad_probability_mc(1, 4, 0.5, 10, 0)


@pytest.mark.parametrize("dim,M", [(1, 6), (2, 4)])
def test_goodness_matches_the_face_by_face_oracle(dim, M):
    g = make_grid(dim, M, 0, {"kind": "random", "seed": 11})
    shifted = make_grid(dim, M, 0, {"kind": "gamma", "g": [5] * dim})
    root = g.cube(0, (0,) * dim)
    for k in (root, root.children()[0], root.children()[-1]):
        reg = oracles.body(k)
        for j in g.cubes(k.lo, k.hi):
            if j.side > k.side:
                continue
            for eps in (0.5, 0.9):
                assert is_eps_good(j, k, eps) \
                    == oracles.is_eps_good(j, k, eps, reg)
    bodies = {}
    js = list(shifted.cubes())
    for eps in (0.5, 0.9):
        assert [q for q, _ in sharp_cross(js, g, eps)] \
            == [oracles.sharp_cross(j, g, eps, bodies) for j in js]


@pytest.mark.parametrize("dim,M,N", [(1, 6, 0), (1, 5, -2), (2, 4, 0),
                                     (2, 3, -1)])
def test_ancestor_chain_matches_the_level_by_level_oracle(dim, M, N):
    # J from the grid itself and from a shifted grid, with their
    # augmented cubes (no grid handle); the grid cubes that `holders`
    # finds holding J are its ancestor chain, coarse to fine
    g = make_grid(dim, M, N, {"kind": "random", "seed": 3})
    h = make_grid(dim, M, N, {"kind": "gamma", "g": [3] * dim})
    js = [j for x in (g, h) for j in list(x.cubes())
          + oracles.augmented_cubes(x)]
    grid_cubes = list(g.cubes())
    i, k = holders([c.lo for c in grid_cubes], [c.side for c in grid_cubes],
                   [j.lo for j in js], [j.side for j in js])
    seen = 0
    for n, j in enumerate(js):
        live = sorted((grid_cubes[x] for x in k[i == n].tolist()),
                      key=lambda c: c.level)
        want = oracles.ancestor_chain(j, g)
        assert [(c.lo, c.side, c.level) for c in live] \
            == [(c.lo, c.side, c.level) for c in want]
        seen += bool(want)
    assert 0 < seen < len(js)