"""Embedding optimization: classical-MDS initialization and deterministic descent.

The initialization needs only the top m eigenpairs, which come from a
Householder tridiagonalization written without BLAS calls; `top_eigenpairs`
trusts its input, which `classical_mds_init` checks. The descent is full-batch
gradient descent with backtracking line search over losses whose gradients are
assembled without BLAS calls too, so no result depends on the BLAS thread
count, at any n. Each trial point's distances are computed once, one per
unordered pair (`loss.pair_distances`), and handed to the problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NumericalError, ValidationError, _check_int
from .loss import pair_distances


@dataclass(frozen=True, eq=False)
class Embedding:
    """An n x m coordinate matrix, immutable after construction."""

    coords: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.coords.ndim != 2:
            raise ValidationError(f"embedding must be 2-d, got shape {self.coords.shape}")
        if not np.isfinite(self.coords).all():
            raise ValidationError("embedding coordinates must be finite")
        self.coords.flags.writeable = False

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def m(self) -> int:
        return self.coords.shape[1]


STEP0 = 0.1  # the first line search starts from twice this step
CONV_WINDOW = 10  # convergence compares the loss with the one this many steps back
MIN_STEP = 1e-18  # a line search halving the step below this ends the run


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 2000
    conv_rel: float = 1e-9
    seed: int = 0
    init: str = "classical"  # "classical" | "random" | "given"
    init_coords: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        _check_int("max_iters", self.max_iters)
        _check_int("seed", self.seed)
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.init not in ("classical", "random", "given"):
            raise ValidationError(f"unknown init mode {self.init!r}")


@dataclass(frozen=True)
class MinimizeResult:
    embedding: Embedding
    loss: float
    exit_reason: str
    grad_norm: float
    n_iters: int
    trace: tuple[tuple[int, float, float, float], ...]  # (iter, loss, step, grad norm)


def double_centered_gram(targets: np.ndarray) -> np.ndarray:
    """B = -1/2 J (D * D) J, D * D elementwise, without matrix products (deterministic
    reductions).

    Computed in one fresh n x n buffer that starts as D * D: the row, column and
    grand means are subtracted and added in place, then each pair of mirrored
    off-diagonal entries is replaced by their mean (there, the bytes of
    `(b + b.T) / 2`), so B is exactly symmetric whether or not the row and
    column means round alike.
    """
    t = np.asarray(targets, dtype=float)
    b = t * t
    row = b.mean(axis=1, keepdims=True)
    col = b.mean(axis=0, keepdims=True)
    grand = b.mean()
    b -= row
    b -= col
    b += grand
    b *= -0.5
    for i in range(b.shape[0] - 1):
        pair = b[i, i + 1 :] + b[i + 1 :, i]
        pair /= 2.0
        b[i, i + 1 :] = pair
        b[i + 1 :, i] = pair
    return b


HOUSEHOLDER_BLOCK_ROWS = 64  # rows per rank-2 update block of `_householder_tridiagonal`


def _householder_tridiagonal(a: np.ndarray):
    """Reduce the exactly symmetric matrix a, in place, to tridiagonal T = Q^T a Q.

    Golub & Van Loan, Matrix Computations, Algorithm 8.3.1. Only elementwise
    numpy and einsum reductions touch n-sized operands, so no BLAS thread
    pool takes part and the bytes do not depend on the BLAS thread count.
    Every rank-2 update subtracts fl(v_i w_j) + fl(w_i v_j), which is exactly
    symmetric; it is formed one block of `HOUSEHOLDER_BLOCK_ROWS` rows at a
    time, in two reused contiguous buffers. So row k equals column k when
    column k is reduced, and its reflector vector v is stored in row k, which
    no later step reads. The column's norm is still summed over the strided
    column: einsum sums strided and contiguous operands in different orders.

    Returns (diagonal, off-diagonal, reflectors); reflector (k, v, beta)
    is H = I - beta v v^T acting on rows k+1.. and Q = H_0 H_1 ... H_{n-3}.
    Columns whose part below the subdiagonal is already zero get no reflector.
    """
    n = a.shape[0]
    off = np.empty(n - 1)
    reflectors = []
    rows = min(HOUSEHOLDER_BLOCK_ROWS, n)
    vw, wv = np.empty(rows * n), np.empty(rows * n)
    for k in range(n - 2):
        x = a[k + 1 :, k]
        tail = float(np.einsum("i,i->", x[1:], x[1:]))
        if tail == 0.0:
            off[k] = x[0]
            continue
        alpha = -math.copysign(math.sqrt(x[0] * x[0] + tail), x[0])
        v = a[k, k + 1 :]  # x, contiguous
        v[0] -= alpha
        beta = 2.0 / float(np.einsum("i,i->", v, v))
        sub = a[k + 1 :, k + 1 :]
        p = beta * np.einsum("ij,j->i", sub, v)
        w = p - (0.5 * beta * float(np.einsum("i,i->", p, v))) * v
        size = n - k - 1
        for start in range(0, size, rows):
            stop = min(start + rows, size)
            count = (stop - start) * size
            block = np.multiply(v[start:stop, None], w, out=vw[:count].reshape(-1, size))
            block += np.multiply(w[start:stop, None], v, out=wv[:count].reshape(-1, size))
            sub[start:stop] -= block
        off[k] = alpha
        reflectors.append((k, v, beta))
    if n >= 2:
        off[n - 2] = a[n - 1, n - 2]
    return np.diagonal(a).copy(), off, reflectors


def _apply_reflectors(reflectors, z: np.ndarray) -> np.ndarray:
    """Q z for the Q of `_householder_tridiagonal`, last reflector first."""
    y = z.copy()
    for k, v, beta in reversed(reflectors):
        rows = y[k + 1 :]
        rows -= (beta * v)[:, None] * np.einsum("i,ij->j", v, rows)[None, :]
    return y


def top_eigenpairs(a: np.ndarray, m: int):
    """The top min(m, n) eigenpairs of a finite, exactly symmetric float matrix,
    by descending eigenvalue. The matrix is overwritten; the caller checks it
    (`classical_mds_init` builds it from checked targets).

    Householder tridiagonalization, then the top eigenpairs of the
    tridiagonal matrix (LAPACK bisection and inverse iteration on O(n) data,
    `scipy.linalg.eigh_tridiagonal`), transformed back. Nothing there runs on
    the BLAS thread pool, so the bytes do not depend on the BLAS thread count.

    Equal eigenvalues keep the solver's order (stable sort). Each vector's
    largest-magnitude entry is made positive. When the m-th eigenvalue equals
    the (m+1)-th, the columns returned for it are one deterministic
    orthonormal set inside its eigenspace; which set is not a function of the
    spectrum alone.

    Returns (eigenvalues, eigenvectors as columns).
    """
    n = a.shape[0]
    take = min(m, n)
    diag, off, reflectors = _householder_tridiagonal(a)
    evals, z = eigh_tridiagonal(diag, off, select="i", select_range=(n - take, n - 1))
    evecs = _apply_reflectors(reflectors, z)
    order = np.argsort(-evals, kind="stable")[:take]
    evals = evals[order]
    evecs = evecs[:, order]
    for col in range(take):
        idx = int(np.argmax(np.abs(evecs[:, col])))
        if evecs[idx, col] < 0:
            evecs[:, col] = -evecs[:, col]
    return evals, evecs


def classical_mds_init(targets: np.ndarray, m: int) -> Embedding:
    """Classical multidimensional scaling of a finite target-distance matrix.

    The targets must be square and finite and m at least 1 (else
    `ValidationError`); targets whose squares or their means overflow raise
    `NumericalError`. These are the only checks between outside input and
    the eigensolver. Double centering (`double_centered_gram`, whose fresh,
    exactly symmetric Gram matrix `top_eigenpairs` then overwrites) is
    followed by the top-m eigenpairs, scaled by the square root of the
    (clipped) eigenvalues. Exact for targets realizable in m dimensions, up
    to rotation and translation. Asymmetric targets are embedded by the
    symmetric part of their Gram matrix. The bytes do not depend on the
    BLAS thread count. When the m-th and (m+1)-th eigenvalues are equal, the
    coordinates for that eigenvalue use a deterministic orthonormal set
    inside its eigenspace.
    """
    t = np.asarray(targets, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValidationError(f"target matrix must be square, got shape {t.shape}")
    if not np.isfinite(t).all():
        raise ValidationError("classical MDS needs finite targets; apply a policy first")
    if m < 1:
        raise ValidationError(f"embedding dimension must be >= 1, got {m}")
    if t.shape[0] == 0:  # the empty space: no rows, no eigenpairs
        return Embedding(np.zeros((0, m)))
    with np.errstate(over="ignore", invalid="ignore"):
        gram = double_centered_gram(t)
    if not (math.isfinite(gram.min(initial=0.0)) and math.isfinite(gram.max(initial=0.0))):
        with np.errstate(over="ignore"):
            overflow = np.argwhere(~np.isfinite(t * t))
        if overflow.size:
            i, j = overflow[0]
            raise NumericalError(f"squared target at ({i}, {j}) overflows: {float(t[i, j])!r}")
        raise NumericalError("the means of the squared targets overflow")
    evals, evecs = top_eigenpairs(gram, m)
    n = t.shape[0]
    take = evals.shape[0]
    coords = evecs * np.sqrt(np.clip(evals, 0.0, None))
    if take < m:
        coords = np.hstack([coords, np.zeros((n, m - take))])
    return Embedding(np.ascontiguousarray(coords))


def random_init(n: int, m: int, seed: int) -> Embedding:
    """Uniform coordinates in [-0.5, 0.5] from a named splittable generator."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return Embedding(rng.uniform(-0.5, 0.5, size=(n, m)))


def initial_coords(problem, cfg: OptimizerConfig) -> np.ndarray:
    if cfg.init == "given":
        if cfg.init_coords is None:
            raise ValidationError("init mode 'given' needs init_coords")
        a0 = np.array(cfg.init_coords, dtype=float)
        if a0.shape != (problem.n, problem.m):
            raise ValidationError(
                f"init_coords shape {a0.shape} != ({problem.n}, {problem.m})"
            )
        return a0
    if cfg.init == "random":
        return random_init(problem.n, problem.m, cfg.seed).coords.copy()
    return classical_mds_init(problem.init_targets(), problem.m).coords.copy()


def minimize(problem, cfg: OptimizerConfig = OptimizerConfig()) -> MinimizeResult:
    """Full-batch gradient descent with backtracking halving line search.

    Accepted steps never increase the loss; the carried step doubles before
    each line search so the step size adapts in both directions. Each trial
    point's condensed pair distances are computed once and handed to
    `problem.loss`, and the accepted point's also to `problem.grad`.
    Deterministic for fixed config and inputs.
    """
    a = initial_coords(problem, cfg)
    delta = pair_distances(a)
    f = problem.loss(a, delta)
    if not math.isfinite(f):
        raise NumericalError(f"loss at initialization is {f!r}", trace=[])
    step = STEP0
    g = problem.grad(a, delta)
    gnorm = float(np.abs(g).max(initial=0.0))
    trace = [(0, f, step, gnorm)]
    exit_reason = "max_iters"
    it = 0
    for it in range(1, cfg.max_iters + 1):
        if not math.isfinite(gnorm):  # the max of |g| is NaN or inf with g
            raise NumericalError("gradient became non-finite", trace=trace)
        if gnorm == 0.0:
            exit_reason = "stationary"
            break
        step = step * 2.0
        while True:
            candidate = a - step * g
            candidate_delta = pair_distances(candidate)
            f_new = problem.loss(candidate, candidate_delta)
            if math.isfinite(f_new) and f_new <= f:
                break
            step *= 0.5
            if step < MIN_STEP:
                break
        if step < MIN_STEP:
            exit_reason = "step_underflow"
            break
        a, f = candidate, f_new
        g = problem.grad(a, candidate_delta)
        gnorm = float(np.abs(g).max(initial=0.0))
        trace.append((it, f, step, gnorm))
        if len(trace) > CONV_WINDOW:
            f_old = trace[-1 - CONV_WINDOW][1]
            if f_old - f < cfg.conv_rel * max(abs(f_old), 1e-300):
                exit_reason = "converged"
                break
    return MinimizeResult(
        embedding=Embedding(np.ascontiguousarray(a)),
        loss=f,
        exit_reason=exit_reason,
        grad_norm=gnorm,
        n_iters=it,
        trace=tuple(trace),
    )

