"""Fractional singular kernels, truncation, and testing constants.

Everything acts on atomic measures, so the truncated operator is a finite
sum and the two-weight norm is the largest singular value of an explicit
mass-weighted kernel matrix.  Truncation is a hard cutoff: atom pairs at
distance outside the open interval (delta, R) contribute nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Cube, cube_at, cube_dict
from .measure import Measure
from .poisson_a2 import A2Report

__all__ = [
    "KernelSpec",
    "TestingReport",
    "make_kernel",
    "apply",
    "operator_norm",
    "testing_constants",
    "local_test_integrals",
    "ntv",
]

_SVD_CUTOFF = 2000     # largest matrix side for the dense SVD
_BLOCK = 1 << 15       # kernel entries evaluated per row block
_LANCZOS_STEPS = 128   # bidiagonalisation steps before a restart
_LANCZOS_CYCLES = 50   # restarts before the best estimate is returned
_LANCZOS_TOL = 1e-13   # top Ritz residual, relative to the value
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class KernelSpec:
    """A validated alpha-fractional kernel with hard truncation."""

    dim: int
    alpha: float
    kind: str                      # "riesz", "riesz_vector", or "custom"
    delta_trunc: float
    radius: float
    c_cz: float                    # smallest admissible size/gradient constant
    component: int | None = None   # for kind == "riesz"
    func: object = None            # for kind == "custom": K(x, y) -> float

    @property
    def vector_valued(self) -> bool:
        return self.kind == "riesz_vector"


@dataclass
class TestingReport:
    forward: float = 0.0
    dual: float = 0.0
    norm: float = 0.0
    forward_witness: Cube | None = None
    dual_witness: Cube | None = None
    # (direction, grid, levels, corners, quotients), coarse to fine
    quotients: list = field(default_factory=list, repr=False)

    @property
    def table(self) -> list:
        """Per-cube quotients, forward then dual, built on each read."""
        return [{"direction": name, "cube": cube_at(grid, lev, lo),
                 "quotient": v}
                for name, grid, level, corner, quot in self.quotients
                for lev, lo, v in zip(level.tolist(), corner.tolist(),
                                      quot.tolist())]

    def as_dict(self) -> dict:
        return {
            "forward": self.forward,
            "dual": self.dual,
            "norm": self.norm,
            "forward_witness": cube_dict(self.forward_witness),
            "dual_witness": cube_dict(self.dual_witness),
        }


# ---------------------------------------------------------------------------
# kernel construction and evaluation


def _kernel_values(spec: KernelSpec, xs: np.ndarray, ys: np.ndarray):
    """Truncated kernel values K(x, y); zero outside (delta, R).

    xs and ys are point arrays that broadcast against each other, with
    the coordinates on the last axis.  The result has their broadcast
    shape without that axis, plus a trailing dim axis for vector kernels,
    which is outermost in memory: a matrix of vector values is a view of
    its components stacked as row blocks.  Custom kernels call func once
    per pair kept, in row-major order.
    """
    diff = np.subtract(np.moveaxis(xs, -1, 0), np.moveaxis(ys, -1, 0),
                       order="C")          # coordinates first
    r = np.sqrt((diff * diff).sum(axis=0))
    keep = (r > spec.delta_trunc) & (r < spec.radius)
    if spec.kind == "custom":
        out = np.zeros(r.shape)
        xb, yb = np.broadcast_arrays(xs, ys)
        for idx in zip(*np.nonzero(keep)):
            out[idx] = spec.func(xb[idx], yb[idx])
        return out
    p = len(diff) - spec.alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = r ** -(p + 1)
        if spec.radius > _TINY ** (-1 / (p + 1)):
            # far pairs: r^-(p+1) underflows, so divide diff by r first
            far = keep & (scale < _TINY)
            diff = np.where(far, diff / r, diff)
            scale = np.where(far, r ** -p, scale)
    scale[r == 0.0] = 0.0
    if spec.kind == "riesz":
        return np.where(keep, diff[spec.component] * scale, 0.0)
    return np.moveaxis(np.where(keep, diff * scale, 0.0), 0, -1)


def _row_blocks(spec: KernelSpec, xs: np.ndarray, ys: np.ndarray):
    """(lo, vals), vals[i - lo, j] = K(xs[i], ys[j]), in row blocks of
    about _BLOCK entries; custom kernels are called in row-major order."""
    step = max(1, _BLOCK // max(len(ys), 1))
    for lo in range(0, len(xs), step):
        yield lo, _kernel_values(spec, xs[lo:lo + step, None, :],
                                 ys[None, :, :])


def _eval_matrix(spec: KernelSpec, xs: np.ndarray, ys: np.ndarray):
    """Truncated kernel values for every x in xs against every y in ys.

    Shape (len(xs), len(ys)), with a trailing dim axis for vector kernels;
    at most 10^4 points a side.  A vector kernel's matrix is a view of a
    (dim, len(xs), len(ys)) array, as _kernel_values lays it out.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    if max(len(xs), len(ys)) > 10_000:
        raise ValueError("atom counts must stay at or below 10^4")
    if spec.vector_valued:
        out = np.moveaxis(np.empty((xs.shape[1], len(xs), len(ys))), 0, -1)
    else:
        out = np.empty((len(xs), len(ys)))
    for lo, vals in _row_blocks(spec, xs, ys):
        out[lo:lo + len(vals)] = vals
    return out


def _sample_pairs(dim, delta, radius, count, rng):
    """Point pairs (xs, ys) with separation strictly inside (delta, radius)."""
    xs_ok, ys_ok = [np.zeros((0, dim))], [np.zeros((0, dim))]
    got = 0
    while got < count:
        xs = rng.uniform(-radius, radius, size=(4 * count, dim))
        ys = rng.uniform(-radius, radius, size=(4 * count, dim))
        r = np.sqrt(((xs - ys) ** 2).sum(axis=1))
        ok = (r > delta * 1.0001) & (r < radius * 0.9999)
        xs_ok.append(xs[ok])
        ys_ok.append(ys[ok])
        got += int(ok.sum())
    return np.concatenate(xs_ok)[:count], np.concatenate(ys_ok)[:count]


def _validation_sweep(spec: KernelSpec, samples: int, rng):
    """Largest size and gradient quotients over sampled point pairs.

    The gradient is a central difference with step 1e-6 * |x - y| along
    each axis of x.  Pairs are sampled 1e-4 inside the truncation range,
    so every shifted point stays inside it.  Each value is scaled by its
    power of r before it is squared, so neither underflows at large r.
    Zero and NaN quotients never count.
    """
    n = spec.dim
    x, y = _sample_pairs(n, spec.delta_trunc, spec.radius, samples, rng)
    r = np.sqrt(((x - y) ** 2).sum(axis=1))
    rp = (r ** (n - spec.alpha))[:, None]
    v = _kernel_values(spec, x, y).reshape(len(r), -1) * rp
    size = np.sqrt((v * v).sum(axis=1))
    size = np.where(size > 0.0, size, 0.0)
    worst_size = float(size.max(initial=0.0))
    worst_pair = None
    if worst_size > 0.0:
        i = int(np.argmax(size))
        worst_pair = (x[i].copy(), y[i].copy())

    h = 1e-6 * r
    grad2 = np.zeros(len(r))
    for axis in range(n):
        xp = x.copy()
        xp[:, axis] += h
        xm = x.copy()
        xm[:, axis] -= h
        d = _kernel_values(spec, xp, y) - _kernel_values(spec, xm, y)
        # times r^(n - alpha + 1), with r / 2h = 5e5 kept apart
        d = d.reshape(len(r), -1) * rp * (r / (2 * h))[:, None]
        grad2 += (d * d).sum(axis=1)
    grad = np.sqrt(grad2)
    grad = np.where(grad > 0.0, grad, 0.0)
    return worst_size, float(grad.max(initial=0.0)), worst_pair


def make_kernel(dim: int, alpha: float, kind: str = "riesz", *,
                component: int = 0, func=None, c_cz: float | None = None,
                delta_trunc: float = 1e-3, radius: float = 1e3,
                samples: int = 1000, seed: int = 0) -> KernelSpec:
    """Build and validate a truncated kernel.

    Riesz kinds get their admissible constant measured by the sweep.  A
    custom kernel must come with a claimed c_cz; the sweep rejects it,
    naming the worst pair, if the size bound fails anywhere sampled.
    """
    if not 0 <= alpha < dim:
        raise ValueError("alpha must lie in [0, dim)")
    if not 0 < delta_trunc < radius:
        raise ValueError("truncation needs 0 < delta_trunc < radius")
    if not math.isfinite(4.0 * dim * radius * radius):
        # the validation sweep squares separations up to 2 radius per axis
        raise ValueError(f"radius {radius!r} is too large: squared "
                         "distances in the validation sweep overflow")
    if kind in ("riesz", "riesz_vector"):
        comp = component if kind == "riesz" else None
        if comp is not None and not 0 <= comp < dim:
            raise ValueError(f"component {comp} out of range for dim {dim}")
        spec = KernelSpec(dim, alpha, kind, delta_trunc, radius, 0.0,
                          component=comp)
    elif kind == "custom":
        if func is None or c_cz is None:
            raise ValueError("custom kernel needs func and a claimed c_cz")
        spec = KernelSpec(dim, alpha, kind, delta_trunc, radius, float(c_cz),
                          func=func)
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    rng = np.random.default_rng(seed)
    size, grad, pair = _validation_sweep(spec, samples, rng)
    if kind == "custom":
        if size > spec.c_cz * (1 + 1e-9):
            x, y = pair
            raise ValueError(
                f"size bound fails: |K| * r^(n-alpha) = {size} > {spec.c_cz} "
                f"at x={x.tolist()} y={y.tolist()}")
        return spec
    measured = max(size, grad)
    return KernelSpec(dim, alpha, kind, delta_trunc, radius, measured,
                      component=spec.component)


# ---------------------------------------------------------------------------
# operator application and norm


def apply(kernel: KernelSpec, sigma: Measure, f, omega: Measure,
          transpose: bool = False) -> np.ndarray:
    """Values of the truncated operator (against sigma) at the omega atoms.

    f is an array over the sigma atoms.  With transpose=True the kernel
    arguments are swapped, giving the dual operator.  Vector kernels
    return shape (omega.natoms, dim).  The kernel is streamed in row
    blocks of omega atoms, or of sigma atoms summed with transpose=True.
    """
    wf = sigma.masses * _over_atoms(f, sigma)
    xs, ys = omega.coords_float(), sigma.coords_float()
    out = np.zeros((len(xs),) + xs.shape[1:] * kernel.vector_valued)
    if transpose:
        for lo, vals in _row_blocks(kernel, ys, xs):
            out += _matvec(np.swapaxes(vals, 0, 1), wf[lo:lo + len(vals)])
    else:
        for lo, vals in _row_blocks(kernel, xs, ys):
            out[lo:lo + len(vals)] = _matvec(vals, wf)
    return out


def _over_atoms(f, mu: Measure) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (mu.natoms,):
        raise ValueError("f must be an array over the sigma atoms")
    return f


def _matvec(k: np.ndarray, wf: np.ndarray) -> np.ndarray:
    """A kernel matrix, with or without a trailing dim axis, times wf."""
    if k.ndim == 3:
        return np.einsum("ijd,j->id", k, wf)
    return k @ wf


def _matrix_norm(kernel: KernelSpec, k: np.ndarray, sigma: Measure,
                 omega: Measure) -> float:
    """Norm of the operator whose (omega x sigma) kernel matrix is k: dense
    SVD up to _SVD_CUTOFF stacked rows and columns, Lanczos above."""
    if sigma.natoms == 0 or omega.natoms == 0:
        return 0.0
    d = kernel.dim if kernel.vector_valued else 1
    if kernel.vector_valued:    # components stacked as row blocks: a view
        k = np.moveaxis(k, -1, 0).reshape(d * omega.natoms, sigma.natoms)
    wl = np.tile(np.sqrt(omega.masses), d)
    if max(len(k), sigma.natoms) > _SVD_CUTOFF:
        return _lanczos_norm(k, wl, np.sqrt(sigma.masses))
    a = wl[:, None] * k * np.sqrt(sigma.masses)[None, :]
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _orthogonalise(r: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """r minus its projection on the orthonormal rows of basis, twice."""
    for _ in range(2):
        r = r - basis.T @ (basis @ r)
    return r


def _lanczos_norm(k: np.ndarray, wl: np.ndarray, wr: np.ndarray) -> float:
    """Largest singular value of A = diag(wl) k diag(wr), by Golub-Kahan-
    Lanczos bidiagonalisation A V = U B (Golub & Kahan 1965) with full
    reorthogonalisation from a seeded random start; each product with A
    or its transpose is one matrix-vector product with k.  It stops once
    the top Ritz residual beta_j |y_j| is at most _LANCZOS_TOL theta, or
    once the Krylov space closes (theta is then exact).  It restarts from
    the top Ritz vector every _LANCZOS_STEPS steps, at most
    _LANCZOS_CYCLES times."""
    m, n = k.shape
    steps = min(_LANCZOS_STEPS, min(m, n) + 1)
    v, theta = np.random.default_rng(0).standard_normal(n), 0.0
    for _ in range(_LANCZOS_CYCLES):
        us, vs = np.zeros((steps, m)), np.zeros((steps + 1, n))
        alpha, beta = np.zeros(steps), np.zeros(steps)
        vs[0] = v / np.linalg.norm(v)
        for j in range(steps):
            # A v_j - beta_{j-1} u_{j-1}; beta[-1] is still 0 at j = 0
            r = wl * (k @ (wr * vs[j])) - beta[j - 1] * us[j - 1]
            alpha[j] = np.linalg.norm(r := _orthogonalise(r, us[:j]))
            if alpha[j] > 0.0:      # else the space closed: beta_j = 0
                us[j] = r / alpha[j]
                s = wr * ((wl * us[j]) @ k) - alpha[j] * vs[j]
                beta[j] = np.linalg.norm(s := _orthogonalise(s, vs[:j + 1]))
            y, sv, xt = np.linalg.svd(np.diag(alpha[:j + 1])
                                      + np.diag(beta[:j], 1))
            theta = float(sv[0])
            if beta[j] * abs(y[j, 0]) <= _LANCZOS_TOL * theta:
                return theta
            vs[j + 1] = s / beta[j]
        v = xt[0] @ vs[:steps]
    return theta


def operator_norm(kernel: KernelSpec, sigma: Measure, omega: Measure) -> float:
    """Two-weight L2(sigma) -> L2(omega) norm of the truncated operator."""
    k = _eval_matrix(kernel, omega.coords_float(), sigma.coords_float())
    return _matrix_norm(kernel, k, sigma, omega)


# ---------------------------------------------------------------------------
# testing constants


def local_test_integrals(kernel: KernelSpec, sigma: Measure, omega: Measure,
                         b, transpose: bool = False):
    """Callable q -> integral over q of |T(b)|^2 against omega.

    With transpose=True the roles swap: b lives on the omega atoms and
    the result integrates against sigma.
    """
    vals, dst = (apply(kernel, omega, b, sigma, True), sigma) if transpose \
        else (apply(kernel, sigma, b, omega), omega)
    sq = (vals * vals).reshape(len(vals), -1).sum(axis=1)

    def integral(q: Cube) -> float:
        idx = dst.atoms(q)
        return float(np.dot(dst.masses[idx], sq[idx]))

    return integral


def _one_direction(k: np.ndarray, src: Measure, dst: Measure,
                   fam) -> tuple:
    """(constant, witness, (levels, corners, quotients) coarse to fine).
    T(b_Q) is summed at the dst atoms of Q only, over the src atoms of Q
    only: the kernel entries of all (cube, dst atom) pairs, in ragged
    blocks, and each integral a slice of dst's level table."""
    from .levels import flat, ragged
    if fam.mu.natoms != src.natoms:
        raise ValueError("f must be an array over the sigma atoms")
    lv, atom = dst.levels(fam.grid), fam.lv.order[fam.pos]
    yrow, ypos = flat(*lv.slices(fam.level, fam.corner))
    wb, sq = src.masses[atom] * fam.bval, np.zeros(len(yrow))
    for blk, own, e in ragged(fam.entry[yrow][:, None],
                              fam.entry[yrow + 1][:, None]):
        y = k[lv.order[ypos[blk]][own], atom[e]].reshape(len(e), -1)
        sq[blk] = sum(np.bincount(own, y[:, a] * wb[e], len(sq[blk])) ** 2
                      for a in range(y.shape[1]))
    order = np.lexsort((*fam.corner.T[::-1], fam.level))
    order = order[fam.masses[order] > 0]
    quot = np.bincount(yrow, lv.w[ypos] * sq, len(fam.rows))[order] \
        / fam.masses[order]
    i = int(np.argmax(quot)) if len(quot) else 0
    best = quot[i] if len(quot) and quot[i] > 0.0 else 0.0
    return (math.sqrt(best), fam.cube(order[i]) if best else None,
            (fam.level[order], fam.corner[order], quot))


def testing_constants(kernel: KernelSpec, sigma: Measure, omega: Measure,
                      bfam, bstar_fam) -> TestingReport:
    """Forward and dual b-testing constants plus the operator norm.

    The forward constant squares to the largest value, over the cubes of
    the forward family, of int_Q |T(b_Q)|^2 domega / |Q|_sigma; the dual
    swaps every role.  Cubes of zero source mass are skipped.  All three
    constants come from one evaluation of the kernel matrix: the dual
    uses its transpose.
    """
    k = _eval_matrix(kernel, omega.coords_float(), sigma.coords_float())
    fwd, fw, ft = _one_direction(k, sigma, omega, bfam)
    dual, dw, dt = _one_direction(np.swapaxes(k, 0, 1), omega, sigma,
                                  bstar_fam)
    nrm = _matrix_norm(kernel, k, sigma, omega)
    return TestingReport(forward=fwd, dual=dual, norm=nrm,
                         forward_witness=fw, dual_witness=dw,
                         quotients=[("forward", bfam.grid, *ft),
                                    ("dual", bstar_fam.grid, *dt)])


def ntv(testing: TestingReport, a2: A2Report, e2: float) -> dict:
    """Aggregate constant: forward + dual + sqrt(A2 aggregate) + energy.

    The ratio norm / aggregate is None (flagged indeterminate) when the
    aggregate vanishes; the classical-A2 divergence flag is passed through.
    """
    total = testing.forward + testing.dual + math.sqrt(a2.aggregate) + e2
    if total > 0.0:
        ratio, indet = testing.norm / total, False
    else:
        ratio, indet = None, True
    return {
        "ntv": total,
        "norm": testing.norm,
        "ratio": ratio,
        "indeterminate": indet,
        "classicalA2_diverges": a2.classicalA2_diverges,
        "components": {
            "forward": testing.forward,
            "dual": testing.dual,
            "sqrt_a2": math.sqrt(a2.aggregate),
            "energy": e2,
        },
    }
