import math

import numpy as np
import pytest

import oracles
from twoweight import bfamily
from twoweight.bfamily import (
    _broken_inf_term,
    _certified_min,
    expand,
    frame_and_riesz,
    make_family,
    mart_apply,
    projection_check,
    reverse_holder_adjust,
    sharp_norm_sq,
    star_norm_sq,
    telescope_check,
    truncate_family,
)
from twoweight.grid import make_grid
from twoweight.measure import Measure


def std_grid(dim=1, M=3):
    return make_grid(dim, M, 0, {"kind": "beta", "bits": [[0] * M] * dim})


def lattice_measure(rng, dim=1, M=3):
    """A positive mass on every lattice point (no degenerate cubes)."""
    pts = [(k,) if dim == 1 else (k % 2 ** M, k // 2 ** M)
           for k in range(2 ** (dim * M))]
    return Measure.from_atoms(dim, M, [(p, float(m)) for p, m in
                                       zip(pts, rng.random(len(pts)) + 0.2)])


def setup_unit(M=3, seed=0, dim=1):
    rng = np.random.default_rng(seed)
    mu = lattice_measure(rng, dim=dim, M=M)
    g = std_grid(dim=dim, M=M)
    root = g.cube(0, (0,) * dim)
    return mu, g, root, rng


# ---------------------------------------------------------------- families

def test_unit_family_constants():
    mu, g, root, _ = setup_unit()
    fam = make_family("unit", mu, g, root)
    assert fam.c_b == pytest.approx(1.0)
    assert fam.C_b == pytest.approx(1.0)
    assert fam.broken_children == {}


def test_random_family_constants_in_range():
    mu, g, root, _ = setup_unit(seed=4)
    fam = make_family("random", mu, g, root, p=4, seed=1)
    assert 0.5 <= fam.c_b <= 2.0
    assert fam.C_b <= 2.0
    # independent redraw per cube breaks every child
    assert fam.broken_children


def test_negative_average_rejected_with_witness():
    mu, g, root, _ = setup_unit()
    bad = {q: None for q in ()}
    vals = {}
    fam0 = make_family("unit", mu, g, root)
    for q in fam0.values:
        vals[q] = fam0.values[q].copy()
    victim = next(q for q in fam0.values if q.side == 2)
    vals[victim] = -vals[victim]
    with pytest.raises(ValueError, match="accretivity fails"):
        make_family("explicit", mu, g, root, values=vals)
    del bad


# ---------------------------------------------------------------- truncation

def test_lambda_choice_closed_form():
    # p=4, C_b=1, eps=1/4: lambda = (2 * 4)^(1/2) = 2 sqrt(2)
    lam = (4 / (4 - 2) * 1.0 ** 4 / 0.25) ** (1 / (4 - 2))
    assert lam == pytest.approx(2 * math.sqrt(2))


def test_truncation_below_lambda_doubles():
    mu, g, root, _ = setup_unit()
    fam = make_family("unit", mu, g, root, p=4)
    hat = truncate_family(fam, 0.25)
    assert math.isinf(hat.p)
    assert hat.trunc_lambda == pytest.approx(2 * math.sqrt(2))
    for q, v in fam.values.items():
        assert np.allclose(hat.values[q], 2.0 * v)


def test_truncation_tail_mass_and_caps():
    # a nearly massless atom carries a large value in the coarse cubes, so
    # the accretivity average stays modest while the sup blows past lambda
    M = 3
    atoms = [((k,), 1.0) for k in range(2 ** M - 1)] + [((2 ** M - 1,), 1e-6)]
    mu = Measure.from_atoms(1, M, atoms)
    g = std_grid(M=M)
    root = g.cube(0, (0,))
    fam0 = make_family("unit", mu, g, root)
    vals = {}
    for q in fam0.values:
        sel = fam0.mu.in_cube(q)
        base = np.ones(mu.natoms)
        if q.side >= 4:  # spike the tiny atom, only in coarse cubes
            base = np.where(mu.points[:, 0] == 2 ** M - 1, 19.0, base)
        vals[q] = np.where(sel, base, 0.0)
    fam = make_family("explicit", mu, g, root, p=8, values=vals)
    eps = 0.25
    hat = truncate_family(fam, eps)
    lam = hat.trunc_lambda
    w = mu.masses
    bitten = False
    for q, v in fam.values.items():
        sel = fam.mu.in_cube(q)
        tot = float(w[sel].sum())
        tail = float(np.dot(w[sel], np.where(np.abs(v[sel]) > lam,
                                             v[sel] ** 2, 0.0)))
        assert tail <= eps * tot + 1e-9
        hv = hat.values[q]
        assert np.abs(hv).max(initial=0.0) <= 2 * lam + 1e-12
        avg = abs(float(np.dot(w, hv))) / tot
        assert avg >= 1.0 - 1e-12
        if np.any(np.abs(v[sel]) > lam):
            bitten = True
    assert bitten


def test_truncation_rejects_bad_eps():
    mu, g, root, _ = setup_unit()
    fam = make_family("unit", mu, g, root, p=4)
    with pytest.raises(ValueError):
        truncate_family(fam, 0.3)


# ---------------------------------------------------------------- reverse Hoelder

def test_no_small_child_keeps_b():
    mu, g, root, _ = setup_unit()
    fam = make_family("unit", mu, g, root)
    v, adjusted = reverse_holder_adjust(fam, root, root.children(), 0.01)
    assert adjusted == []
    assert np.array_equal(v, fam.values[root])


def test_zero_average_child_gets_delta():
    mu, g, root, rng = setup_unit(M=3, seed=9)
    fam = make_family("unit", mu, g, root)
    kids = root.children()
    left = kids[0]
    lsel = fam.mu.in_cube(left)
    # b_root vanishes identically on the left child (the child cubes keep
    # their own functions, so accretivity of the family is untouched)
    fam.values[root] = np.where(lsel, 0.0, fam.values[root])
    delta = 0.001
    v, adjusted = reverse_holder_adjust(fam, root, kids, delta)
    assert left in adjusted
    assert np.allclose(v[lsel], delta)
    # the right child was untouched
    rsel = fam.mu.in_cube(kids[1])
    assert np.allclose(v[rsel], 1.0)


def test_children_conclusions_on_random_instances():
    rng = np.random.default_rng(17)
    hits = 0
    for trial in range(50):
        mu, g, root, _ = setup_unit(M=3, seed=100 + trial)
        fam0 = make_family("unit", mu, g, root)
        w = mu.masses
        vals = {}
        for q in fam0.values:
            sel = fam0.mu.in_cube(q)
            base = rng.uniform(1.0, 3.0, mu.natoms)
            vals[q] = np.where(sel, base, 0.0)
        # make b_root nearly cancel on the left child so the smallness
        # criterion fires there; the right child keeps it accretive
        left, right = root.children()
        lsel = fam0.mu.in_cube(left)
        signs = np.where(rng.random(mu.natoms) < 0.5, 1.0, -1.0)
        bal = signs * rng.uniform(0.5, 2.5, mu.natoms)
        pos = float(np.dot(w[lsel], np.maximum(bal, 0)[lsel]))
        neg = float(np.dot(w[lsel], np.maximum(-bal, 0)[lsel]))
        if pos > 0 and neg > 0:
            scale = rng.choice([1e-4, 1.0])  # tiny avg (B) or tiny values (G+)
            bal = np.where(bal > 0, bal / pos, bal / neg) \
                * float(w[lsel].sum()) * (1 + rng.uniform(-1e-4, 1e-4))
            if scale != 1.0:
                bal = bal * scale
            vals[root] = np.where(lsel, bal, vals[root])
        rsel = fam0.mu.in_cube(root)
        tot = float(w[rsel].sum())
        avg = float(np.dot(w, vals[root])) / tot
        if avg < 1.0:
            vals[root] = vals[root] + (1.0 - avg + 0.1) * (~lsel & rsel)
        fam = make_family("explicit", mu, g, root, p=math.inf, values=vals)
        cb = fam.C_b
        delta = 0.9 / (2 ** 2 * cb ** 3)
        kids = root.children()
        v, adjusted = reverse_holder_adjust(fam, root, kids, delta)
        w = mu.masses
        rsel = fam.mu.in_cube(root)
        tot = float(w[rsel].sum())
        avg_new = float(np.dot(w, v)) / tot
        # the total perturbation per adjusted child is of size sqrt(C_b d)
        assert avg_new >= 1.0 - 4 * math.sqrt(cb * delta) - 1e-10
        assert np.abs(v).max() <= 2 * (1 + math.sqrt(cb)) * cb + 1e-10
        for qi in adjusted:
            sel = fam.mu.in_cube(qi)
            ai = abs(float(np.dot(w[sel], v[sel])) / float(w[sel].sum()))
            sup = float(np.abs(v[sel]).max())
            assert sup > 0
            assert sup <= (16 * cb / delta) * ai + 1e-10
            hits += 1
    assert hits > 0


def test_delta_range_rejected():
    mu, g, root, _ = setup_unit()
    fam = make_family("unit", mu, g, root)
    with pytest.raises(ValueError):
        reverse_holder_adjust(fam, root, root.children(), 0.5)


# ---------------------------------------------------------------- operators

def test_box_of_constant_vanishes():
    mu, g, root, _ = setup_unit()
    fam = make_family("unit", mu, g, root)
    f = np.full(mu.natoms, 3.0)
    for q in fam.values:
        assert np.allclose(mart_apply(fam, "Box", q, f), 0.0, atol=1e-12)


def test_haar_difference_two_atoms():
    mu = Measure.from_atoms(1, 2, [((1,), 1.0), ((3,), 1.0)])  # 1/4 and 3/4
    g = std_grid(M=2)
    root = g.cube(0, (0,))
    fam = make_family("unit", mu, g, root)
    f = np.array([1.0, 3.0])
    d = mart_apply(fam, "Delta", root, f)
    assert d[0] == pytest.approx(-1.0)
    assert d[1] == pytest.approx(1.0)


def test_flat_plus_broken_equals_box():
    mu, g, root, _ = setup_unit(M=3, seed=2)
    fam = make_family("random", mu, g, root, p=4, seed=5)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(mu.natoms)
    for q in fam.values:
        lhs = mart_apply(fam, "Box", q, f)
        rhs = mart_apply(fam, "FlatBox", q, f) \
            + mart_apply(fam, "FlatBoxBrok", q, f)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_box_range_orthogonal_to_constants():
    mu, g, root, _ = setup_unit(M=3, seed=6)
    fam = make_family("random", mu, g, root, p=4, seed=8)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(mu.natoms)
    for q in fam.values:
        out = mart_apply(fam, "Box", q, f)
        assert abs(float(np.dot(mu.masses, out))) < 1e-10


def test_broken_pi_controlled_by_nabla_hat():
    mu, g, root, _ = setup_unit(M=3, seed=12)
    fam = make_family("random", mu, g, root, p=4, seed=2)
    rng = np.random.default_rng(3)
    cb = fam.C_b / fam.c_b
    cap = 2 * fam.C_b * (1 + fam.C_b / fam.c_b) / fam.c_b + 5
    for _ in range(5):
        f = rng.standard_normal(mu.natoms)
        for q in fam.values:
            lhs = np.abs(mart_apply(fam, "BoxBrokPi", q, f))
            rhs = mart_apply(fam, "NablaHat", q, f)
            mask = rhs > 1e-13
            assert np.all(lhs[~mask] < 1e-10)
            if mask.any():
                assert np.max(lhs[mask] / rhs[mask]) <= cap
    del cb


def test_carleson_embedding_for_nabla_hat():
    mu, g, root, _ = setup_unit(M=4, seed=13)
    fam = make_family("random", mu, g, root, p=4, seed=4)
    rng = np.random.default_rng(5)
    for _ in range(5):
        f = rng.standard_normal(mu.natoms)
        rep = frame_and_riesz(fam, f)
        assert rep["nabla_hat_sum"] <= 40 * rep["norm_sq"]


# ---------------------------------------------------------------- expansion

def test_expand_constant_unit_family():
    mu, g, root, _ = setup_unit()
    fam = make_family("unit", mu, g, root)
    f = np.full(mu.natoms, 2.0)
    coeffs, residual = expand(fam, f)
    assert residual <= 1e-12
    for q, c in coeffs.items():
        assert np.allclose(c, 0.0, atol=1e-12)


def test_expand_exact_reconstruction_unit():
    mu, g, root, rng = setup_unit(M=4, seed=20)
    fam = make_family("unit", mu, g, root)
    f = rng.standard_normal(mu.natoms)
    _, residual = expand(fam, f)
    assert residual <= 1e-10 * math.sqrt(float(np.dot(mu.masses, f * f)))


def test_expand_exact_reconstruction_random_family():
    mu, g, root, rng = setup_unit(M=4, seed=21)
    fam = make_family("random", mu, g, root, p=4, seed=31)
    f = rng.standard_normal(mu.natoms)
    _, residual = expand(fam, f)
    assert residual <= 1e-10 * math.sqrt(float(np.dot(mu.masses, f * f)))


# ---------------------------------------------------------------- frames

def test_unit_family_frame_ratio_one():
    mu, g, root, rng = setup_unit(M=3, seed=30)
    fam = make_family("unit", mu, g, root)
    f = rng.standard_normal(mu.natoms)
    rep = frame_and_riesz(fam, f)
    assert rep["box_frame_ratio"] == pytest.approx(1.0, abs=1e-10)
    assert rep["delta_frame_ratio"] == pytest.approx(1.0, abs=1e-10)


def test_random_family_frame_bounded_below():
    worst = math.inf
    for seed in range(20):
        mu, g, root, rng = setup_unit(M=3, seed=200 + seed)
        fam = make_family("random", mu, g, root, p=4, seed=seed)
        f = rng.standard_normal(mu.natoms)
        rep = frame_and_riesz(fam, f)
        worst = min(worst, rep["box_frame_ratio"])
        assert rep["box_frame_ratio"] > 0
    assert worst > 0.01  # recorded lower frame constant on this batch


def test_upper_riesz_single_cube():
    mu, g, root, rng = setup_unit(M=3, seed=40)
    fam = make_family("random", mu, g, root, p=4, seed=41)
    f = rng.standard_normal(mu.natoms)
    rep = frame_and_riesz(fam, f, collection=[g.cube(1, (0,))])
    assert rep["psi_norm_sq"] <= rep["riesz_bound"] + 1e-12


def test_upper_riesz_full_collection():
    mu, g, root, rng = setup_unit(M=3, seed=42)
    fam = make_family("random", mu, g, root, p=4, seed=43)
    f = rng.standard_normal(mu.natoms)
    rep = frame_and_riesz(fam, f, collection=list(fam.values))
    # recorded upper-Riesz constant: psi norm controlled by box + nabla sums
    assert rep["psi_norm_sq"] <= 10 * rep["riesz_bound"]


def test_star_norm_matches_report():
    mu, g, root, rng = setup_unit(M=3, seed=44)
    fam = make_family("random", mu, g, root, p=4, seed=45)
    f = rng.standard_normal(mu.natoms)
    cubes = [q for q in fam.values if q.side >= 2]
    direct = star_norm_sq(fam, cubes, f)
    rep = frame_and_riesz(fam, f, collection=cubes)
    assert direct == pytest.approx(rep["star_norm_sq"])


def test_sharp_norm_unit_family_is_variance_sum():
    mu, g, root, _ = setup_unit(M=3, seed=46)
    fam = make_family("unit", mu, g, root)
    total = sharp_norm_sq(fam, list(fam.values))
    x = mu.coords_float()[:, 0]
    w = mu.masses
    m = float(np.dot(w, x)) / float(w.sum())
    assert total == pytest.approx(float(np.dot(w, (x - m) ** 2)), rel=1e-9)


def test_sharp_norm_broken_term_nonnegative():
    mu, g, root, _ = setup_unit(M=3, seed=47)
    fam = make_family("random", mu, g, root, p=4, seed=48)
    v = sharp_norm_sq(fam, list(fam.values))
    assert v >= 0


@pytest.mark.parametrize("a, b, start", [
    ((0.125,), (0.75,), (0.9,)),
    ((0.1, 0.2), (0.7, 0.5), (0.9, 0.9)),
    ((0.25, 0.25), (0.25, 0.75), (0.6, 0.1)),
])
def test_broken_inf_two_equal_atoms(a, b, start):
    # m (E|x - z|)^2 with x = a or b, each of mass m/2: the mean distance
    # is at least |a - b|/2, with equality on the whole segment [a, b].
    m = 1.5
    pts = np.array([a, b], dtype=np.float64)
    want = m * (np.linalg.norm(pts[0] - pts[1]) / 2) ** 2
    value, gap = _certified_min(pts, np.array([[m / 2, m / 2]]),
                                [np.array(start, dtype=np.float64)])
    assert value == pytest.approx(want, rel=1e-13)
    assert 0.0 <= gap <= 1e-13 * value


@pytest.mark.parametrize("start", [(0.5,), (0.0625,), (0.9,)])
def test_broken_inf_one_atom_child_is_zero(start):
    # One broken child holding one atom: |J'| |x - z|^2 vanishes exactly
    # at z = x, where |x - z| is not differentiable.
    mu = Measure.from_atoms(1, 3, [((5,), 0.7)])
    g = std_grid()
    fam = make_family("random", mu, g, g.cube(0, (0,)), seed=3)
    parent = g.cube(2, (2,))
    assert fam.broken_children[parent] == {g.cube(3, (5,))}
    assert _broken_inf_term(fam, parent, mu.coords_float()) == (0.0, 0.0)
    value, gap = _certified_min(mu.coords_float(), np.array([[0.7]]),
                                [np.array(start)])
    assert value == 0.0 and gap == 0.0


def _point_cloud(seed):
    """Broken children as random atom groups in dims 1-2, every third
    cloud with one atom 50 times heavier (its minimiser often sits on or
    next to an atom)."""
    rng = np.random.default_rng(seed)
    dim = 1 + seed % 2
    sizes = rng.integers(1, 5, size=rng.integers(1, 4))
    pts = rng.random((sizes.sum(), dim))
    w = rng.random(sizes.sum()) + 0.05
    if seed % 3 == 0:
        w[rng.integers(len(w))] *= 50
    member = np.zeros((len(sizes), len(pts)))
    ends = np.cumsum(sizes)
    for row, lo, hi in zip(member, ends - sizes, ends):
        row[lo:hi] = w[lo:hi]
    cands = [row @ pts / row.sum() for row in member] + [w @ pts / w.sum()]
    return pts, member, cands


def _objective(pts, member, z):
    g = member @ np.sqrt(((pts - z) ** 2).sum(axis=1))
    return float((g * g / member.sum(axis=1)).sum())


@pytest.mark.parametrize("dim, M", [(1, 3), (1, 4), (2, 2), (2, 3)])
def test_broken_inf_certified_against_nelder_mead(dim, M):
    eps = np.finfo(float).eps
    for seed in range(4):
        rng = np.random.default_rng(seed)
        pts = [(k,) if dim == 1 else (k % 2 ** M, k // 2 ** M)
               for k in range(2 ** (dim * M))]
        keep = rng.random(len(pts)) < 0.7
        mu = Measure.from_atoms(dim, M, [
            (p, float(m)) for p, m, k in
            zip(pts, rng.random(len(pts)) + 0.2, keep) if k])
        g = std_grid(dim=dim, M=M)
        fam = make_family("random", mu, g, g.cube(0, (0,) * dim), seed=seed)
        coords, w = mu.coords_float(), mu.masses
        extra = [rng.random(dim)]
        for q in fam.values:
            value, gap = _broken_inf_term(fam, q, coords, extra)
            brok = [c for c in fam.broken_children.get(q, ())
                    if fam.mass(c) > 0]
            if not brok:
                assert (value, gap) == (0.0, 0.0)
                continue
            sels = [mu.in_cube(c) for c in brok + [q]]
            member = np.array([np.where(s, w, 0.0) for s in sels[:-1]])
            cands = [coords[s].T @ w[s] / w[s].sum() for s in sels] + extra
            start = min(_objective(coords, member, z) for z in cands)
            assert value <= start * (1 + 4 * eps)
            assert 0.0 <= gap <= 1e-12 * value
            # the oracle attains its value, so it is at least the infimum
            nm = oracles.broken_inf_term(fam, q, coords, extra)
            assert value - gap <= nm * (1 + 4 * eps)


def test_broken_inf_certified_on_heavy_atom_clouds():
    eps = np.finfo(float).eps
    for seed in range(300):
        pts, member, cands = _point_cloud(seed)
        value, gap = _certified_min(pts, member, cands)
        start = min(_objective(pts, member, z) for z in cands)
        atoms = min(_objective(pts, member, z) for z in pts)
        assert value <= start and 0.0 <= gap <= 1e-12 * value, seed
        assert value - gap <= atoms * (1 + 4 * eps), seed


def test_broken_inf_certified_on_tight_clouds_far_from_zero():
    # clouds 1e-6 wide about 0.5: searched on absolute coordinates the
    # differences x_i - z lost about six digits and the worst gap read
    # 6.2e-8 of the value; about one atom it reads below 1e-13
    for seed in range(300):
        pts, member, cands = _point_cloud(seed)
        value, gap = _certified_min(0.5 + 1e-6 * pts, member,
                                    [0.5 + 1e-6 * c for c in cands])
        assert 0.0 <= gap <= 1e-12 * value, seed


@pytest.mark.parametrize("steps", [0, 1])
def test_broken_inf_cut_short_keeps_a_valid_gap(monkeypatch, steps):
    # stopped before it converges, the search still returns without
    # raising, and its gap still bounds the distance to the infimum
    monkeypatch.setattr(bfamily, "_INF_STEPS", steps)
    eps = np.finfo(float).eps
    loose = 0
    for seed in range(60):
        pts, member, cands = _point_cloud(seed)
        value, gap = _certified_min(pts, member, cands)
        monkeypatch.setattr(bfamily, "_INF_STEPS", 100)
        inf = _certified_min(pts, member, cands)[0]
        monkeypatch.setattr(bfamily, "_INF_STEPS", steps)
        assert inf <= value <= min(_objective(pts, member, z)
                                   for z in cands)
        assert value - gap <= inf * (1 + 4 * eps), seed
        loose += gap > 1e-9 * value
    assert loose > 0


# ---------------------------------------------------------------- identities

def test_telescope_trivial_and_unit():
    mu, g, root, rng = setup_unit(M=4, seed=50)
    fam = make_family("unit", mu, g, root)
    f = rng.standard_normal(mu.natoms)
    k = g.cube(3, (5,))
    assert telescope_check(fam, k, k, f) == 0.0
    for lev, c in ((0, 0), (1, 1), (2, 2)):
        lcube = g.cube(lev, (c,))
        if not lcube.contains_cube(k):
            continue
        assert telescope_check(fam, k, lcube, f) <= 1e-10


def test_telescope_global_family():
    mu, g, root, rng = setup_unit(M=4, seed=51)
    b = rng.uniform(0.5, 2.0, mu.natoms)
    fam = make_family("global", mu, g, root, global_values=b)
    f = rng.standard_normal(mu.natoms)
    k = g.cube(4, (11,))
    assert telescope_check(fam, k, root, f) <= 1e-10


def test_telescope_broken_child_branch():
    # a family whose b changes below one cube: the chain ending at a
    # broken child must match the single-term branch
    mu, g, root, rng = setup_unit(M=3, seed=52)
    fam0 = make_family("unit", mu, g, root)
    vals = {q: fam0.values[q].copy() for q in fam0.values}
    stop = g.cube(2, (1,))  # [1/4, 1/2): new testing function below here
    for q in list(vals):
        if stop.contains_cube(q):
            sel = fam0.mu.in_cube(q)
            vals[q] = np.where(sel, 1.7, 0.0)
    fam = make_family("explicit", mu, g, root, p=math.inf, values=vals)
    assert stop in fam.broken_children.get(stop.parent(), frozenset())
    f = rng.standard_normal(mu.natoms)
    assert telescope_check(fam, stop, root, f) <= 1e-10


def test_projection_identity_unit_and_global():
    mu, g, root, rng = setup_unit(M=3, seed=53)
    b = rng.uniform(0.5, 2.0, mu.natoms)
    for fam in (make_family("unit", mu, g, root),
                make_family("global", mu, g, root, global_values=b)):
        f = rng.standard_normal(mu.natoms)
        cubes = fam.cubes()
        for r in cubes:
            for q in cubes:
                res = projection_check(fam, r, q, f)
                assert res <= 1e-10
