import math
import warnings

import numpy as np
import pytest

import twoweight.singular as sg
from twoweight.bfamily import BFamily, make_family
from twoweight.grid import make_grid
from twoweight.measure import Measure
from twoweight.poisson_a2 import A2Report, a2_constants
from twoweight.singular import (
    apply,
    local_test_integrals,
    make_kernel,
    ntv,
    operator_norm,
    testing_constants,
)

import oracles


def std_grid(dim=1, M=3):
    return make_grid(dim, M, 0, {"kind": "beta", "bits": [[0] * M] * dim})


def lattice_measure(rng, dim=1, M=3):
    pts = [(k,) if dim == 1 else (k % 2 ** M, k // 2 ** M)
           for k in range(2 ** (dim * M))]
    return Measure.from_atoms(dim, M, [(p, float(m)) for p, m in
                                       zip(pts, rng.random(len(pts)) + 0.2)])


CUSTOM = dict(kind="custom", func=lambda x, y: 0.5 / float(x[0] - y[0]),
              c_cz=1.0)


def _kernel(dim, kw):
    kw = dict(kw)
    return make_kernel(dim, kw.pop("alpha", 0.0), kw.pop("kind"), **kw)


def single_atom(dim, M, point, w=1.0):
    return Measure.from_atoms(dim, M, [(point, w)])


# ------------------------------------------------------------- make_kernel

def test_riesz_1d_matches_reciprocal():
    k = make_kernel(1, 0.0, "riesz")
    sigma = single_atom(1, 3, (0,))
    omega = single_atom(1, 3, (4,))   # coordinate 1/2
    out = apply(k, sigma, np.ones(1), omega)
    assert out[0] == pytest.approx(1.0 / 0.5)


@pytest.mark.parametrize("dim,alpha,kind", [
    (1, 0.0, "riesz"), (2, 0.5, "riesz"), (2, 0.5, "riesz_vector"),
    (1, 0.0, "riesz_vector")])
def test_validation_sweep_matches_pairwise_loop(dim, alpha, kind):
    spec = make_kernel(dim, alpha, kind, samples=10)
    size, grad, pair = sg._validation_sweep(spec, 300,
                                            np.random.default_rng(11))
    want = oracles.loop_sweep(spec, 300, np.random.default_rng(11))
    assert size == pytest.approx(want[0], rel=1e-12)
    assert grad == pytest.approx(want[1], rel=1e-12) and grad > 0.0
    assert np.array_equal(pair[0], want[2][0])
    assert np.array_equal(pair[1], want[2][1])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["riesz", "riesz_vector"])
def test_validation_constant_holds_at_large_radii(dim, kind):
    # the sizes and gradients are scaled by their powers of r before they
    # are squared: unscaled, they under- or overflow from about 1e60 on
    want = make_kernel(dim, 0.0, kind, radius=1e3).c_cz
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for radius in (1e50, 1e60, 1e100, 1e150):
            got = make_kernel(dim, 0.0, kind, radius=radius).c_cz
            assert got == pytest.approx(want, rel=1e-6), radius


def test_riesz_validation_constant_near_one():
    k = make_kernel(1, 0.0, "riesz", samples=1000, seed=3)
    assert 0.5 <= k.c_cz <= 2.0


def test_bad_truncation_rejected():
    with pytest.raises(ValueError, match="delta_trunc"):
        make_kernel(1, 0.0, "riesz", delta_trunc=2.0, radius=1.0)


def test_custom_kernel_size_violation_names_pair():
    bad = lambda x, y: 5.0 / abs(float(x[0] - y[0]))
    with pytest.raises(ValueError, match="size bound fails"):
        make_kernel(1, 0.0, "custom", func=bad, c_cz=1.0)


def test_custom_kernel_within_claim_accepted():
    ok = lambda x, y: 0.5 / abs(float(x[0] - y[0]))
    k = make_kernel(1, 0.0, "custom", func=ok, c_cz=1.0)
    assert k.c_cz == 1.0


def test_component_out_of_range():
    with pytest.raises(ValueError, match="component"):
        make_kernel(2, 0.5, "riesz", component=2)


# ------------------------------------------------------------------ apply

def test_apply_zero_function():
    k = make_kernel(1, 0.0, "riesz")
    rng = np.random.default_rng(0)
    sigma = lattice_measure(rng)
    omega = lattice_measure(rng)
    assert np.all(apply(k, sigma, np.zeros(sigma.natoms), omega) == 0.0)


def test_apply_linearity():
    k = make_kernel(1, 0.0, "riesz")
    rng = np.random.default_rng(1)
    sigma = lattice_measure(rng)
    omega = lattice_measure(rng)
    f = rng.standard_normal(sigma.natoms)
    g = rng.standard_normal(sigma.natoms)
    lhs = apply(k, sigma, f + g, omega)
    rhs = apply(k, sigma, f, omega) + apply(k, sigma, g, omega)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_hard_truncation_zeroes_close_pairs():
    # neighbours at distance 1/8 fall inside the cutoff and contribute 0
    k = make_kernel(1, 0.0, "riesz", delta_trunc=0.2)
    sigma = Measure.from_atoms(1, 3, [((0,), 1.0), ((1,), 1.0)])
    omega = single_atom(1, 3, (0,))
    out = apply(k, sigma, np.ones(2), omega)
    assert out[0] == 0.0


def test_common_atom_diagonal_removed():
    k = make_kernel(1, 0.0, "riesz")
    sigma = single_atom(1, 3, (2,))
    omega = Measure.from_atoms(1, 3, [((2,), 1.0), ((6,), 1.0)])
    out = apply(k, sigma, np.ones(1), omega)
    assert out[0] == 0.0 and out[1] != 0.0


def test_vector_kernel_shape_and_magnitude():
    k = make_kernel(2, 0.5, "riesz_vector")
    sigma = single_atom(2, 3, (0, 0))
    omega = single_atom(2, 3, (4, 4))
    out = apply(k, sigma, np.ones(1), omega)
    assert out.shape == (1, 2)
    r = math.sqrt(2) / 2
    assert np.linalg.norm(out[0]) == pytest.approx(r ** (0.5 - 2))


def _counting_custom():
    """A custom kernel and the list of pairs its func was called with
    after validation."""
    calls = []

    def func(x, y):
        calls.append((tuple(x), tuple(y)))
        return 0.5 / float(x[0] - y[0])
    kernel = make_kernel(1, 0.0, "custom", func=func, c_cz=1.0)
    calls.clear()
    return kernel, calls


BLOCK_KERNELS = [
    (1, dict(kind="riesz")),
    (2, dict(kind="riesz", component=1, alpha=0.5)),
    (2, dict(kind="riesz_vector", alpha=0.5)),
    (1, CUSTOM),
]


@pytest.mark.parametrize("block", [16, None])
@pytest.mark.parametrize("dim,kw", BLOCK_KERNELS)
def test_blocked_eval_matrix_equals_the_one_shot_matrix(monkeypatch, block,
                                                        dim, kw):
    kernel = _kernel(dim, kw)
    rng = np.random.default_rng(12)
    # with the default block, 700 rows of 100 entries make blocks of
    # 327, 327 and 46 rows; a 16-entry block takes 3 rows of 5 at a time
    rows, cols = (10, 5) if block else (700, 100)
    if block:
        monkeypatch.setattr(sg, "_BLOCK", block)
    xs = rng.integers(0, 64, (rows, dim)) / 64.0
    ys = rng.integers(0, 64, (cols, dim)) / 64.0
    got = sg._eval_matrix(kernel, xs, ys)
    assert np.array_equal(got, oracles.eval_matrix(kernel, xs, ys))
    assert got.shape == (rows, cols) + ((dim,) if kernel.vector_valued
                                        else ())
    # the norm stacks a vector kernel's components by a reshape, no copy
    assert np.moveaxis(got, -1, 0).flags.c_contiguous \
        or not kernel.vector_valued


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("dim,kw", BLOCK_KERNELS)
def test_streamed_apply_matches_the_whole_matrix(monkeypatch, transpose,
                                                 dim, kw):
    kernel = _kernel(dim, kw)
    rng = np.random.default_rng(13)
    sigma = _sparse_measure(rng, dim, 6 // dim, 23)
    omega = _sparse_measure(rng, dim, 6 // dim, 17)
    f = rng.standard_normal(sigma.natoms)
    want = oracles.apply(kernel, sigma, f, omega, transpose)
    monkeypatch.setattr(sg, "_BLOCK", 40)     # blocks of 1 or 2 rows
    got = apply(kernel, sigma, f, omega, transpose=transpose)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("transpose", [False, True])
def test_custom_kernel_called_once_per_kept_pair(monkeypatch, transpose):
    rng = np.random.default_rng(14)
    sigma = _sparse_measure(rng, 1, 6, 23)
    omega = _sparse_measure(rng, 1, 6, 17)
    f = np.ones(sigma.natoms)
    (k1, whole), (k2, streamed), (k3, blocked) = (_counting_custom()
                                                  for _ in range(3))
    oracles.apply(k1, sigma, f, omega, transpose)
    monkeypatch.setattr(sg, "_BLOCK", 40)
    apply(k2, sigma, f, omega, transpose=transpose)
    xs, ys = omega.coords_float(), sigma.coords_float()
    if transpose:
        xs, ys = ys, xs
    sg._eval_matrix(k3, xs, ys)
    # atoms closer than the radius: only common atoms are cut off
    common = len(set(sigma.points[:, 0]) & set(omega.points[:, 0]))
    assert len(whole) == sigma.natoms * omega.natoms - common > 0
    assert streamed == whole and blocked == whole


# ---------------------------------------------------------- operator_norm

def test_norm_empty_sigma():
    k = make_kernel(1, 0.0, "riesz")
    sigma = Measure(1, 3, np.zeros((0, 1), dtype=np.int64), np.zeros(0))
    omega = single_atom(1, 3, (0,))
    assert operator_norm(k, sigma, omega) == 0.0


def test_norm_single_pair_distance_half():
    k = make_kernel(1, 0.0, "riesz")
    sigma = single_atom(1, 3, (0,))
    omega = single_atom(1, 3, (4,))
    assert operator_norm(k, sigma, omega) == pytest.approx(2.0)


def test_norm_permutation_invariant():
    k = make_kernel(1, 0.0, "riesz")
    rng = np.random.default_rng(5)
    pts = rng.choice(64, size=12, replace=False)
    ws = rng.random(12) + 0.1
    atoms = [((int(p),), float(w)) for p, w in zip(pts, ws)]
    sigma = Measure.from_atoms(1, 6, atoms)
    perm = rng.permutation(12)
    sigma2 = Measure.from_atoms(1, 6, [atoms[i] for i in perm])
    omega = lattice_measure(rng, M=3).rescale(6)
    n1 = operator_norm(k, sigma, omega)
    n2 = operator_norm(k, sigma2, omega)
    assert n1 == pytest.approx(n2, rel=1e-8)


def test_power_iteration_matches_svd(monkeypatch):
    import twoweight.singular as sg
    k = make_kernel(1, 0.0, "riesz")
    rng = np.random.default_rng(7)
    sigma = lattice_measure(rng, M=4)
    omega = lattice_measure(rng, M=4)
    dense = operator_norm(k, sigma, omega)
    monkeypatch.setattr(sg, "_SVD_CUTOFF", 1)
    assert operator_norm(k, sigma, omega) == pytest.approx(dense, rel=1e-6)


def _lanczos_calls(monkeypatch, cutoff=0):
    """Set the dense-SVD cutoff and count the Lanczos norm's calls."""
    calls = []
    real = sg._lanczos_norm
    monkeypatch.setattr(sg, "_SVD_CUTOFF", cutoff)
    monkeypatch.setattr(sg, "_lanczos_norm",
                        lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("dim,kw,n_sigma,n_omega", [
    (1, dict(kind="riesz"), 16, 16),
    (1, dict(kind="riesz", alpha=0.4), 5, 30),
    (2, dict(kind="riesz", component=1, alpha=0.5), 21, 21),
    (2, dict(kind="riesz_vector", alpha=0.5), 21, 22),
    (2, dict(kind="riesz_vector"), 40, 7),
    (1, CUSTOM, 12, 9),
    (1, dict(kind="riesz"), 1, 20),
    (2, dict(kind="riesz_vector"), 1, 20),
    (1, dict(kind="riesz"), 20, 1),
])
def test_lanczos_norm_matches_dense_svd(monkeypatch, dim, kw, n_sigma,
                                        n_omega):
    kernel = _kernel(dim, kw)
    rng = np.random.default_rng(3 * n_sigma + n_omega)
    sigma = _sparse_measure(rng, dim, 6 // dim, n_sigma)
    omega = _sparse_measure(rng, dim, 6 // dim, n_omega)
    dense = operator_norm(kernel, sigma, omega)
    calls = _lanczos_calls(monkeypatch)
    got = operator_norm(kernel, sigma, omega)
    assert len(calls) == 1 and dense > 0.0
    assert abs(got - dense) <= 1e-12 * dense


def test_lanczos_norm_of_the_all_truncated_matrix_is_zero(monkeypatch):
    kernel = make_kernel(2, 0.0, "riesz_vector", delta_trunc=5.0,
                         radius=10.0)
    rng = np.random.default_rng(4)
    sigma = _sparse_measure(rng, 2, 3, 30)
    omega = _sparse_measure(rng, 2, 3, 25)
    calls = _lanczos_calls(monkeypatch)
    assert operator_norm(kernel, sigma, omega) == 0.0 and len(calls) == 1


@pytest.mark.parametrize("steps,cycles", [(3, 50), (2, 1)])
def test_lanczos_restarts_instead_of_raising(monkeypatch, steps, cycles):
    kernel = make_kernel(1, 0.0, "riesz")
    rng = np.random.default_rng(9)
    sigma = _sparse_measure(rng, 1, 6, 40)
    omega = _sparse_measure(rng, 1, 6, 35)
    dense = operator_norm(kernel, sigma, omega)
    _lanczos_calls(monkeypatch)
    monkeypatch.setattr(sg, "_LANCZOS_STEPS", steps)
    monkeypatch.setattr(sg, "_LANCZOS_CYCLES", cycles)
    got = operator_norm(kernel, sigma, omega)
    # a Ritz value never exceeds the norm; enough restarts reach it
    assert 0.0 < got <= dense * (1 + 1e-12)
    if cycles > 1:
        assert abs(got - dense) <= 1e-12 * dense


def test_reorthogonalisation_holds_for_a_vector_near_the_span():
    # one Gram-Schmidt pass leaves about 1e-16 / 1e-10 of the span in r
    rng = np.random.default_rng(10)
    basis = np.linalg.qr(rng.standard_normal((100, 5)))[0].T
    r = basis.T @ rng.standard_normal(5) + 1e-10 * rng.standard_normal(100)
    out = sg._orthogonalise(r, basis)
    assert np.abs(basis @ out).max() <= 1e-14 * np.linalg.norm(out)


def test_atom_cap_refuses_before_evaluating():
    k = make_kernel(1, 0.0, "riesz")
    big = Measure(1, 14, np.arange(10_001, dtype=np.int64)[:, None],
                  np.ones(10_001))
    with pytest.raises(ValueError, match="10\\^4"):
        operator_norm(k, big, single_atom(1, 14, (3,)))


def test_lanczos_norm_just_above_the_cutoff(monkeypatch):
    _assert_lanczos_above_the_cutoff(monkeypatch, "riesz",
                                     sg._SVD_CUTOFF + 1, 40)


def test_lanczos_vector_norm_just_above_the_cutoff(monkeypatch):
    # 2 x 1001 stacked rows: one row block per component
    _assert_lanczos_above_the_cutoff(monkeypatch, "riesz_vector",
                                     40, sg._SVD_CUTOFF // 2 + 1)


def _assert_lanczos_above_the_cutoff(monkeypatch, kind, n_sigma, n_omega):
    kernel = make_kernel(2, 0.0, kind)
    rng = np.random.default_rng(11)
    sigma = _sparse_measure(rng, 2, 6, n_sigma)
    omega = _sparse_measure(rng, 2, 6, n_omega)
    calls = _lanczos_calls(monkeypatch, cutoff=sg._SVD_CUTOFF)
    got = operator_norm(kernel, sigma, omega)
    k = oracles.eval_matrix(kernel, omega.coords_float(),
                            sigma.coords_float())
    if k.ndim == 3:
        k = np.concatenate([k[:, :, c] for c in range(k.shape[2])])
    wl = np.tile(np.sqrt(omega.masses), len(k) // omega.natoms)
    a = wl[:, None] * k * np.sqrt(sigma.masses)[None, :]
    dense = float(np.linalg.svd(a, compute_uv=False)[0])
    assert len(calls) == 1 and abs(got - dense) <= 1e-12 * dense


# ------------------------------------------------------- testing constants

def setup_pair(seed=0, M=3):
    rng = np.random.default_rng(seed)
    sigma = lattice_measure(rng, M=M)
    omega = lattice_measure(rng, M=M)
    g = std_grid(M=M)
    root = g.cube(0, (0,))
    bf = make_family("random", sigma, g, root, seed=seed + 1)
    bs = make_family("random", omega, g, root, seed=seed + 2)
    return sigma, omega, g, root, bf, bs


def test_zero_kernel_gives_zero_testing():
    zero = make_kernel(1, 0.0, "custom", func=lambda x, y: 0.0, c_cz=1.0)
    sigma, omega, _, _, bf, bs = setup_pair(seed=2)
    rep = testing_constants(zero, sigma, omega, bf, bs)
    assert rep.forward == 0.0 and rep.dual == 0.0 and rep.norm == 0.0


def test_unit_family_single_pair_testing_equals_norm():
    k = make_kernel(1, 0.0, "riesz")
    sigma = single_atom(1, 3, (0,))
    omega = single_atom(1, 3, (4,))
    g = std_grid()
    root = g.cube(0, (0,))
    bf = make_family("unit", sigma, g, root)
    bs = make_family("unit", omega, g, root)
    rep = testing_constants(k, sigma, omega, bf, bs)
    assert rep.forward == pytest.approx(rep.norm) == pytest.approx(2.0)


def test_necessity_on_random_pairs():
    k = make_kernel(1, 0.0, "riesz")
    for seed in range(8):
        sigma, omega, _, _, bf, bs = setup_pair(seed=seed)
        rep = testing_constants(k, sigma, omega, bf, bs)
        assert rep.forward <= bf.C_b * rep.norm + 1e-9
        assert rep.dual <= bs.C_b * rep.norm + 1e-9


def test_local_integrals_match_report():
    k = make_kernel(1, 0.0, "riesz")
    sigma, omega, _, root, bf, _ = setup_pair(seed=3)
    local = local_test_integrals(k, sigma, omega, bf.b(root))
    rep = testing_constants(k, sigma, omega, bf, bf)
    row = next(r for r in rep.table
               if r["direction"] == "forward" and r["cube"] == root)
    assert local(root) / bf.mass(root) == pytest.approx(row["quotient"])


def _loop_testing_constants(kernel, sigma, omega, bfam, bstar_fam):
    """Testing constants with one kernel application, hence one kernel
    matrix, per cube, and the norm from operator_norm."""
    def direction(fam, transpose, name):
        best, witness, rows = 0.0, None, []
        for q in fam.cubes():
            qs = fam.mass(q)
            if qs <= 0.0:
                continue
            if transpose:
                vals = apply(kernel, omega, fam.b(q), sigma, transpose=True)
                target = sigma
            else:
                vals = apply(kernel, sigma, fam.b(q), omega)
                target = omega
            sq = vals * vals
            if sq.ndim == 2:
                sq = sq.sum(axis=1)
            sel = target.in_box(*_lattice_box(target, q))
            quot = float(np.dot(target.masses[sel], sq[sel])) / qs
            rows.append({"direction": name, "cube": q, "quotient": quot})
            if quot > best:
                best, witness = quot, q
        return math.sqrt(best), witness, rows

    fwd, fw, ft = direction(bfam, False, "forward")
    dual, dw, dt = direction(bstar_fam, True, "dual")
    return fwd, dual, operator_norm(kernel, sigma, omega), fw, dw, ft + dt


def _lattice_box(mu, q):
    f = 2 ** (mu.resolution - q.resolution)
    lo = np.array(q.lo, dtype=np.int64) * f
    return lo, lo + q.side * f


def _sparse_measure(rng, dim, M, natoms):
    pts = rng.choice(2 ** (dim * M), size=natoms, replace=False)
    coords = [tuple(int(p) // 2 ** (M * a) % 2 ** M for a in range(dim))
              for p in pts]
    return Measure.from_atoms(dim, M, [(c, float(rng.random() + 0.2))
                                       for c in coords])


def _no_cubes(mu, g, root):
    return BFamily(mu, g, root, {}, 4.0, 0.0, 0.0, kind="unit")


def _assert_matches_loop(kernel, sigma, omega, bf, bs):
    rep = testing_constants(kernel, sigma, omega, bf, bs)
    fwd, dual, nrm, fw, dw, rows = _loop_testing_constants(
        kernel, sigma, omega, bf, bs)
    assert rep.forward == fwd and rep.dual == dual and rep.norm == nrm
    assert rep.forward_witness == fw and rep.dual_witness == dw
    assert rep.table == rows


@pytest.mark.parametrize("dim,M,kw", [
    (1, 4, dict(kind="riesz")),
    (1, 4, dict(kind="riesz", alpha=0.4)),
    (2, 3, dict(kind="riesz", component=1, alpha=0.5)),
    (2, 3, dict(kind="riesz_vector", alpha=0.5)),
    (1, 4, CUSTOM),
])
@pytest.mark.parametrize("family", ["unit", "random"])
def test_testing_constants_match_per_cube_loop(dim, M, kw, family):
    kw = dict(kw)
    kernel = make_kernel(dim, kw.pop("alpha", 0.0), kw.pop("kind"), **kw)
    rng = np.random.default_rng(17 * dim + M)
    n = 2 ** (dim * M) // 3
    sigma = _sparse_measure(rng, dim, M, n)
    omega = _sparse_measure(rng, dim, M, n + 1)
    g = std_grid(dim=dim, M=M)
    root = g.cube(0, (0,) * dim)
    bf = make_family(family, sigma, g, root, seed=3)
    bs = make_family(family, omega, g, root, seed=4)
    _assert_matches_loop(kernel, sigma, omega, bf, bs)


@pytest.mark.parametrize("kind", ["riesz", "riesz_vector"])
def test_testing_constants_with_an_empty_measure_match_loop(kind):
    kernel = make_kernel(1, 0.0, kind)
    rng = np.random.default_rng(2)
    full = lattice_measure(rng)
    empty = Measure(1, 3, np.zeros((0, 1), dtype=np.int64), np.zeros(0))
    g = std_grid()
    root = g.cube(0, (0,))
    fam = make_family("random", full, g, root, seed=5)
    # empty omega: forward quotients integrate over no atoms
    _assert_matches_loop(kernel, full, empty, fam, _no_cubes(empty, g, root))
    rep = testing_constants(kernel, full, empty, fam,
                            _no_cubes(empty, g, root))
    assert rep.forward == 0.0 and rep.norm == 0.0 and len(rep.table) > 0
    # empty sigma: dual quotients integrate over no atoms
    _assert_matches_loop(kernel, empty, full, _no_cubes(empty, g, root), fam)


def test_apply_transpose_is_the_swapped_forward_matrix():
    k = make_kernel(2, 0.5, "riesz_vector")
    rng = np.random.default_rng(8)
    sigma = _sparse_measure(rng, 2, 3, 20)
    omega = _sparse_measure(rng, 2, 3, 25)
    g = rng.standard_normal(omega.natoms)
    fwd = sg._eval_matrix(k, omega.coords_float(), sigma.coords_float())
    want = np.einsum("ijd,j->id", np.swapaxes(fwd, 0, 1), omega.masses * g)
    assert np.array_equal(apply(k, omega, g, sigma, transpose=True), want)


# -------------------------------------------------------------------- ntv

def test_ntv_all_zero_indeterminate():
    zero = make_kernel(1, 0.0, "custom", func=lambda x, y: 0.0, c_cz=1.0)
    sigma, omega, g, _, bf, bs = setup_pair(seed=4)
    rep = testing_constants(zero, sigma, omega, bf, bs)
    out = ntv(rep, A2Report(), 0.0)
    assert out["ntv"] == 0.0 and out["indeterminate"]
    assert out["ratio"] is None


def test_ntv_single_disjoint_pair_finite_ratio():
    k = make_kernel(1, 0.0, "riesz")
    sigma = single_atom(1, 3, (0,))
    omega = single_atom(1, 3, (4,))
    g = std_grid()
    root = g.cube(0, (0,))
    bf = make_family("unit", sigma, g, root)
    bs = make_family("unit", omega, g, root)
    rep = testing_constants(k, sigma, omega, bf, bs)
    a2 = a2_constants(sigma, omega, [g], 0.0)
    out = ntv(rep, a2, 0.0)
    assert out["ratio"] is not None and 0.0 < out["ratio"] <= 1.0
    assert not out["classicalA2_diverges"]


def test_ntv_scaling_degree_one():
    k = make_kernel(1, 0.0, "riesz")
    rng = np.random.default_rng(9)
    sigma = lattice_measure(rng)
    omega = lattice_measure(rng)
    g = std_grid()
    root = g.cube(0, (0,))
    lam = 9.0

    def full(s, o):
        bf = make_family("unit", s, g, root)
        bs = make_family("unit", o, g, root)
        rep = testing_constants(k, s, o, bf, bs)
        return ntv(rep, a2_constants(s, o, [g], 0.0), 0.0)

    base = full(sigma, omega)
    scaled = full(sigma.scaled(lam), omega.scaled(lam))
    assert scaled["ntv"] == pytest.approx(lam * base["ntv"], rel=1e-9)
    assert scaled["ratio"] == pytest.approx(base["ratio"], rel=1e-9)
