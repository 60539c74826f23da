"""State matrices, stability bounds, and closed-form steady-state algebra.

Conventions used throughout:

* A chain of order d stacks positions above velocities, one column per
  planar axis.  The estimator state matrix is 2d x 2d; the lagged variant
  inserts a layer of one-step-old velocities and is 3d x 3d.
* The four chain matrices (estimator, lagged estimator, formation,
  lagged formation) are one assembly, ``_chain_matrix``: they differ only
  in the stale-velocity layer and the vertex's row.  These dense
  matrices are the reference layer the step functions and the modal
  blocks are checked against; no run path builds them.  Every radius a
  run needs comes from ``chain_modes``, which splits a chain matrix into
  d small blocks with the same eigenvalues.
* ``spectral_radius`` takes a 2 x 2 or 3 x 3 block's radius from the
  roots of its characteristic quadratic or cubic in closed form; only
  the larger dense matrices go to LAPACK, so no run path calls it.
* ``beta = alpha * dt / 2`` is the single dimensionless parameter all the
  closed forms depend on.  The readout algebra needs beta in (0, 1): at 0
  the geometric-recursion roots collide, at 1 denominators vanish.
* ``steady_gain(d, beta, strategy)`` is the last diagonal entry of the
  inverse of ``readout_matrix(d, beta, strategy)``; half of it is the
  steady-state velocity-magnitude ratio between the chain tail and the
  excitation, which is what the integer readout inverts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import quoted, require

STRATEGIES = ("S1", "S2")
# The chain kind each readout strategy steps: S2 reads the one-step-old velocities.
ESTIMATOR_KIND = {"S1": "estimator", "S2": "lagged_estimator"}


def _require_strategy(strategy: str) -> None:
    require(strategy in STRATEGIES, "strategy",
            f"must be one of {STRATEGIES}, got {quoted(strategy)}")


def _require_beta(beta: float, alpha: float | None = None, dt: float | None = None) -> None:
    """beta in (0, 1); given the gains it comes from, a fault names alpha."""
    gains = "" if alpha is None else f"alpha*dt/2 = {beta:.6g} (alpha {alpha}, dt {dt})"
    require(0.0 < beta < 1.0, "alpha" if gains else "beta",
            f"beta = {gains or beta} must lie in (0, 1)")


def _require_readout(d: int, beta: float, strategy: str) -> None:
    """Domain of the readout algebra: a known strategy, beta in (0, 1), d >= 1."""
    _require_strategy(strategy)
    _require_beta(beta)
    if d < 1:
        raise ValueError(f"order must be >= 1, got {d}")


@dataclass(frozen=True)
class EstimationParams:
    """Gain alpha (1/s^2 scale) and sampling interval dt (s)."""

    alpha: float
    dt: float

    def __post_init__(self):
        # dt first: a sweep derives its alpha from dt (``harness.scaled_params``).
        for name, value in (("dt", self.dt), ("alpha", self.alpha)):
            require(value > 0.0, name, f"must be positive, got {value}")
        _require_beta(self.beta, self.alpha, self.dt)

    @property
    def beta(self) -> float:
        return self.alpha * self.dt / 2.0


@dataclass(frozen=True, eq=False)
class SystemMatrices:
    """A dense state matrix together with its input map.

    ``kind`` is one of "estimator", "lagged_estimator", "formation",
    "lagged_formation", "cascade".  ``order`` is the chain order the blocks
    were built for; ``input_matrix`` is the excitation column for the
    estimators and the anchor/spacing input map for the formation chains
    (None for cascades).
    """

    kind: str
    order: int
    dense: np.ndarray
    input_matrix: np.ndarray | None = None


def _sym_tridiagonal(n: int, diag: float, off: float) -> np.ndarray:
    m = np.zeros((n, n))
    np.fill_diagonal(m, diag)
    idx = np.arange(n - 1)
    m[idx, idx + 1] = off
    m[idx + 1, idx] = off
    return m


# Chain kind -> (stacked layers, smallest order, message for a smaller one).
_KINDS = {
    "estimator": (2, 1, "chain order must be >= 1, got {}"),
    "lagged_estimator": (3, 1, "chain order must be >= 1, got {}"),
    "formation": (2, 2, "formation chain needs n >= 2 robots, got {}"),
    "lagged_formation": (3, 2, "formation chain needs n >= 2 robots, got {}"),
}


def _chain_layers(kind: str, order: int) -> int:
    """Layers of a chain matrix of ``kind``; ValueError for an unknown kind
    or an order below the kind's smallest."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {tuple(_KINDS)}, got {kind!r}")
    layers, smallest, message = _KINDS[kind]
    if order < smallest:
        raise ValueError(message.format(order))
    return layers


def _chain_matrix(kind: str, order: int, params: EstimationParams) -> SystemMatrices:
    """Dense state matrix and input map of one chain of ``kind``.

    The layout is [q, v] or, lagged, [q(k), v(k-1), v(k)], d = ``order``
    rows per layer.  Positions integrate the current velocities; the
    velocity update applies alpha times the position coupling (-1 on the
    diagonal, 1/2 off it: the fixed anchor and the origin-pinned virtual
    robot absorb the boundary terms) plus the neighbour average (1/2 off
    the diagonal) of the current layer, or of the stale one the lagged
    layout shifts the current velocities into.

    An estimator's input is its excitation, halved into the last row.  A
    formation chain's terminal vertex leaves midpoint-seeking for
    full-gain tracking of its predecessor, alpha (q_{n-1} - q_n) +
    v_{n-1}, which adds two entries to the last row; its input map carries
    the anchor position and velocity into the first robot's velocity row
    and the spacing target into the vertex's.  O(d^2) memory: a reference
    for small orders, not built on any run path.
    """
    layers = _chain_layers(kind, order)
    d, size = order, layers * order
    eye = np.eye(d)
    update = [params.alpha * _sym_tridiagonal(d, -1.0, 0.5), _sym_tridiagonal(d, 0.0, 0.5)]
    if layers == 2:
        dense = np.block([[eye, params.dt * eye], update])
    else:
        zero = np.zeros((d, d))
        dense = np.block([[eye, zero, params.dt * eye], [zero, zero, eye], update + [zero]])
    if kind.endswith("formation"):
        dense[-1, d - 2] += 0.5 * params.alpha
        dense[-1, 2 * d - 2] += 0.5  # v_{n-1}: current layer, or the lagged stale one
        input_matrix = np.zeros((size, 3))
        input_matrix[size - d, 0] = 0.5 * params.alpha  # anchor position -> first robot
        input_matrix[size - d, 1] = 0.5                 # anchor velocity -> first robot
        input_matrix[-1, 2] = -params.alpha             # spacing target -> vertex
    else:
        input_matrix = np.zeros((size, 1))
        input_matrix[-1, 0] = 0.5
    return SystemMatrices(kind=kind, order=d, dense=dense, input_matrix=input_matrix)


def build_estimator_matrix(n_prime: int, params: EstimationParams) -> SystemMatrices:
    """State matrix of the latest-measurement estimator chain, [q, v]."""
    return _chain_matrix("estimator", n_prime, params)


def build_lagged_estimator_matrix(n_prime: int, params: EstimationParams) -> SystemMatrices:
    """State matrix of the two-instant estimator chain, [q(k), v(k-1), v(k)]."""
    return _chain_matrix("lagged_estimator", n_prime, params)


def build_formation_matrix(n: int, params: EstimationParams) -> SystemMatrices:
    """State matrix of one formation chain (n movable robots, vertex last)."""
    return _chain_matrix("formation", n, params)


def build_lagged_formation_matrix(n: int, params: EstimationParams) -> SystemMatrices:
    """State matrix of one formation chain under the lagged (sigma = 2) law,
    whose vertex reads its predecessor's stale velocity."""
    return _chain_matrix("lagged_formation", n, params)


def build_cascade_matrix(n: int, chains: int, params: EstimationParams) -> SystemMatrices:
    """Block lower-triangular matrix of ``chains`` equal formation chains.

    Each diagonal block is the single-chain formation matrix; the
    sub-diagonal block couples a chain's first robot to the previous
    chain's terminal vertex (position with gain alpha/2, velocity with 1/2).
    Being block triangular, its eigenvalues are those of the diagonal
    block, repeated once per chain.
    """
    if chains < 1:
        raise ValueError(f"need at least one chain, got {chains}")
    chain = build_formation_matrix(n, params)
    size = 2 * n
    dense = np.zeros((chains * size, chains * size))
    coupling = np.zeros((size, size))
    coupling[n, n - 1] = 0.5 * params.alpha
    coupling[n, 2 * n - 1] = 0.5
    for c in range(chains):
        lo = c * size
        dense[lo:lo + size, lo:lo + size] = chain.dense
        if c > 0:
            dense[lo:lo + size, lo - size:lo] = coupling
    return SystemMatrices(kind="cascade", order=n, dense=dense)


def chain_modes(order: int, params: EstimationParams, kind: str) -> np.ndarray:
    """The chain matrix of ``kind`` split into its ``order`` modal blocks.

    Every block of a chain matrix is a polynomial in one matrix K, half the
    path adjacency (with the vertex correction for the formation kinds),
    so they share K's eigenvectors.  In the mode of K's eigenvalue mu_k
    the 2d x 2d matrix acts as [[1, dt], [alpha (mu_k - 1), mu_k]] and the
    3d x 3d lagged one as [[1, 0, dt], [0, 0, 1], [alpha (mu_k - 1), mu_k, 0]];
    the dense matrix has exactly the eigenvalues of its blocks.  An
    estimator chain ends at a free robot, mu_k = cos(k pi / (d + 1)).  A
    formation chain's vertex tracks its predecessor as if it had a
    mirrored neighbour q_{n+1} = q_{n-1}, mu_k = cos((2k - 1) pi / (2n)).

    Returns an ``(order, 2, 2)`` stack, ``(order, 3, 3)`` for the lagged
    kinds.
    """
    size = _chain_layers(kind, order)
    k = np.arange(1, order + 1)
    if kind.endswith("formation"):
        mu = np.cos((2 * k - 1) * np.pi / (2 * order))
    else:
        mu = np.cos(k * np.pi / (order + 1))
    blocks = np.zeros((order, size, size))
    blocks[:, 0, 0] = 1.0
    blocks[:, 0, -1] = params.dt
    blocks[:, -1, 0] = params.alpha * (mu - 1.0)
    blocks[:, -1, 1] = mu
    if size == 3:
        blocks[:, 1, 2] = 1.0
    return blocks


def _block_radius(m: np.ndarray) -> np.ndarray:
    """Spectral radius of each 2 x 2 or 3 x 3 matrix in a stack, from the
    roots of its characteristic polynomial z^k - c2 z^(k-1) + ... .

    A 2 x 2 block's larger root comes from the quadratic formula, its
    discriminant as (a - d)^2 + 4bc; a complex pair has modulus sqrt(det).
    A 3 x 3 block's real root comes from the depressed cubic, in
    trigonometric form when all three roots are real (the one of largest
    modulus) and by Cardano otherwise.  One Newton step on det(zI - M),
    evaluated from the shifted diagonal, polishes that root: near z = 1
    the shift cancels exactly, so a slow mode keeps the digits a rounded
    coefficient would lose.  A step longer than 2^-30 of the root is
    dropped; only a near-double root, where no method resolves more than
    ~1e-8, asks for one.  Deflating the cubic's root leaves z^2 + e z + f,
    its constant c1 + r e, or c0 / r where r^2 exceeds that, so the
    larger roots divide out first (Wilkinson).
    """
    size = m.shape[-1]
    diagonal = [m[..., i, i] for i in range(size)]
    if size == 2:
        product = m[..., 0, 1] * m[..., 1, 0]

        def char(z):  # det(zI - M) and its slope in z
            s0, s1 = z - diagonal[0], z - diagonal[1]
            return s0 * s1 - product, s0 + s1
    else:
        p01, p02, p12 = (m[..., i, j] * m[..., j, i] for i, j in ((0, 1), (0, 2), (1, 2)))
        p_sum = p01 + p02 + p12
        cycles = (m[..., 0, 1] * m[..., 1, 2] * m[..., 2, 0]
                  + m[..., 0, 2] * m[..., 1, 0] * m[..., 2, 1])

        def char(z):
            s0, s1, s2 = z - diagonal[0], z - diagonal[1], z - diagonal[2]
            s12 = s1 * s2
            return (s0 * (s12 - p12) - s1 * p02 - s2 * p01 - cycles,
                    s0 * (s1 + s2) + s12 - p_sum)

    c2 = sum(diagonal)
    with np.errstate(all="ignore"):  # each branch is computed for every block
        if size == 2:
            c0, _ = char(0.0)
            disc = (diagonal[0] - diagonal[1]) ** 2 + 4.0 * product
            r = (c2 + np.copysign(np.sqrt(np.abs(disc)), c2)) / 2.0
        else:
            minus_c0, c1 = char(0.0)
            shift = c2 / 3.0
            p = (c1 - c2 * shift) / 3.0  # z = t + shift: t^3 + 3p t + 2q = 0
            q = (c1 * shift + minus_c0) / 2.0 - shift * shift * shift
            h = q * q + p * p * p
            s = np.sqrt(np.abs(p))
            # Near a double root rounding can put the cosine just past +-1.
            angle = np.arccos(np.minimum(np.maximum(q / (p * s), -1.0), 1.0)) / 3.0
            top = 2.0 * s * np.cos(angle) + shift
            bottom = 2.0 * s * np.cos(angle + 2.0 * np.pi / 3.0) + shift
            w = np.cbrt(-q - np.copysign(np.sqrt(np.abs(h)), q))
            cardano = np.where(w == 0.0, 0.0, w - p / w) + shift
            r = np.where(h < 0.0, np.where(np.abs(top) >= np.abs(bottom), top, bottom),
                         cardano)
        value, slope = char(r)
        step = value / slope
        r = np.where(np.abs(step) <= 2.0 ** -30 * np.abs(r), r - step, r)
        if size == 2:
            return np.where(disc < 0.0, np.sqrt(np.abs(c0)), np.abs(r))
        e = r - c2
        f = c1 + r * e
        f = np.where(r * r > np.abs(f), -minus_c0 / r, f)
        disc = e * e - 4.0 * f
        pair = np.where(disc < 0.0, np.sqrt(np.abs(f)), (np.abs(e) + np.sqrt(np.abs(disc))) / 2.0)
    return np.maximum(np.abs(r), pair)


def spectral_radius(matrix: np.ndarray) -> float:
    """max |lambda| over the (complex) eigenvalues of a square real matrix,
    or of every matrix in a stack of shape ``(..., k, k)``.

    2 x 2 and 3 x 3 matrices, the ``chain_modes`` blocks, take the roots of
    their characteristic polynomials in closed form (``_block_radius``),
    O(1) per block, to about an ulp where the roots lie apart (a double
    root, for any method, to ~1e-8).  The stack is first scaled by one
    power of two, exactly, to a largest entry below 1, so no product
    overflows; underflow then costs at most ~2^-340 of that entry.
    Larger matrices, the dense reference layer, take one batched LAPACK
    Hessenberg/QR call (``np.linalg.eigvals``), O(N^3) at order N;
    non-convergence raises numpy's LinAlgError rather than returning
    garbage.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim < 2 or matrix.shape[-2] != matrix.shape[-1]:
        raise ValueError(f"matrix must be square or a stack of square matrices, "
                         f"got shape {matrix.shape}")
    peak = float(np.max(np.abs(matrix)))
    if not math.isfinite(peak):
        raise ValueError("matrix contains non-finite entries")
    if matrix.shape[-1] in (2, 3):
        exponent = math.frexp(peak)[1]
        return float(np.ldexp(np.max(_block_radius(np.ldexp(matrix, -exponent))), exponent))
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def stability_bound(n_prime: int, strategy: str) -> float:
    """Sufficient upper bound on alpha*dt for a Schur chain of order n_prime.

    S1: (1 - c^2) / (3 - c^2), S2: (1 - c^2) / (5 + c^2), c = cos(pi/(d+1)).
    Monotone decreasing in the chain order; both are sufficient only, so
    parameters above the bound may still be stable.
    """
    _require_strategy(strategy)
    if n_prime < 1:
        raise ValueError(f"chain order must be >= 1, got {n_prime}")
    c2 = math.cos(math.pi / (n_prime + 1)) ** 2
    if strategy == "S1":
        return (1.0 - c2) / (3.0 - c2)
    return (1.0 - c2) / (5.0 + c2)


def stability_limit(order: int, kind: str) -> float:
    """Exact alpha*dt limit of a chain of ``kind``: it is Schur exactly below.

    Jury's test on the ``chain_modes`` blocks (E. I. Jury, *Theory and
    Application of the z-Transform Method*, 1964): 1 for the 2 x 2 kinds, and
    1 - max mu = 1 - cos(pi/(d + 1)) or 1 - cos(pi/(2n)) for the lagged ones,
    as 2 sin^2(x/2) to keep its precision at large orders.  O(1)."""
    if _chain_layers(kind, order) == 2:
        return 1.0
    x = math.pi / (2 * order if kind == "lagged_formation" else order + 1)
    return 2.0 * math.sin(x / 2.0) ** 2



# --- steady-state readout algebra ---------------------------------------
#
# At steady state the chain oscillates with period two and the stacked
# velocities solve a tridiagonal Toeplitz system whose order-d leading
# principal submatrix we call the readout matrix: diagonal 1+beta with
# off-diagonals (1-beta)/2 for S1 and -(1+beta)/2 for S2.  The gain below
# is the last diagonal entry of its inverse.


def s1_recursion_roots(beta: float) -> tuple[float, float]:
    """Fixed points of the S1 gain recursion, (2(1+beta) +- 4 sqrt(beta)) / (1-beta)^2.

    The smaller root is the d -> infinity limit of the gain; the ratio of
    the distances to the two roots evolves geometrically in d, which is
    what makes the logarithmic readout work.
    """
    _require_beta(beta)
    sb = math.sqrt(beta)
    return 2.0 / (1.0 - sb) ** 2, 2.0 / (1.0 + sb) ** 2


def s1_readout_frame(beta: float) -> tuple[float, float, float, float]:
    """``(rho1, rho2, fb1, fb2)``: the recursion roots and the root-distance
    ratios of the S1 gain at orders 1 and 2, the frame of its log readout."""
    rho1, rho2 = s1_recursion_roots(beta)
    f1 = 1.0 / (1.0 + beta)
    f2 = (1.0 + beta) / ((1.0 + beta) ** 2 - (1.0 - beta) ** 2 / 4.0)
    fb1 = (f1 - rho1) / (f1 - rho2)
    fb2 = (f2 - rho1) / (f2 - rho2)
    return rho1, rho2, fb1, fb2


def readout_matrix(d: int, beta: float, strategy: str) -> np.ndarray:
    """Order-d steady-state system matrix for the given strategy."""
    _require_readout(d, beta, strategy)
    if strategy == "S1":
        return _sym_tridiagonal(d, 1.0 + beta, (1.0 - beta) / 2.0)
    return _sym_tridiagonal(d, 1.0 + beta, -(1.0 + beta) / 2.0)


def readout_determinant(d: int, beta: float, strategy: str) -> float:
    """Closed-form determinant of ``readout_matrix(d, beta, strategy)``.

    S1 is the two-geometric-terms solution of the second order determinant
    recursion; S2 collapses to (d+1) ((1+beta)/2)^d because its matrix is
    a scalar multiple of the unit tridiagonal Toeplitz pattern.
    """
    _require_readout(d, beta, strategy)
    if strategy == "S2":
        return (d + 1) * (1.0 + beta) ** d / 2.0 ** d
    sb = math.sqrt(beta)
    plus = (1.0 + beta) / 2.0 + sb
    minus = (1.0 + beta) / 2.0 - sb
    m1 = (2.0 * sb + beta + 1.0) / (4.0 * sb) * plus ** d
    m2 = (2.0 * sb - beta - 1.0) / (4.0 * sb) * minus ** d
    return m1 + m2


def steady_gain_recursive(d: int, beta: float, strategy: str) -> float:
    """Gain by iterating the bordered-inverse recursion from order 1.

    g(1) = 1/(1+beta); each extra robot updates g to 1 / (1+beta - c^2 g)
    with c the off-diagonal of the readout matrix.
    """
    _require_readout(d, beta, strategy)
    if strategy == "S1":
        csq = (1.0 - beta) ** 2 / 4.0
    else:
        csq = (1.0 + beta) ** 2 / 4.0
    g = 1.0 / (1.0 + beta)
    for _ in range(d - 1):
        g = 1.0 / (1.0 + beta - csq * g)
    return g


def steady_gain(d: int, beta: float, strategy: str) -> float:
    """Closed-form gain: last diagonal entry of the readout matrix inverse.

    S2 has the rational form 2d / ((d+1)(1+beta)).  S1 follows the
    geometric evolution of the root-distance ratio; once that ratio
    overflows the float range the gain has converged to the smaller
    recursion root to machine precision, so the limit is returned.
    """
    _require_readout(d, beta, strategy)
    if strategy == "S2":
        return 2.0 * d / ((d + 1) * (1.0 + beta))
    rho1, rho2, fb1, fb2 = s1_readout_frame(beta)
    try:
        fbar = fb1 * (fb2 / fb1) ** (d - 1)
    except OverflowError:
        return rho2
    if not math.isfinite(fbar):
        return rho2
    if fbar == 1.0:
        # Degenerate frame (beta so small that both roots round to 2 and
        # both ratios to 1): the closed form reads 0/0, the recursion not.
        return steady_gain_recursive(d, beta, "S1")
    return (rho1 - rho2 * fbar) / (1.0 - fbar)


def steady_ratio_closed(n_prime: int, beta: float, strategy: str) -> float:
    """Analytic steady velocity-magnitude ratio tail / excitation."""
    return steady_gain(n_prime, beta, strategy) / 2.0


def chain_equilibrium(
    matrices: SystemMatrices,
    anchor_position: np.ndarray,
    anchor_velocity: np.ndarray,
    l_star: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Limit state of one formation chain under a constant anchor input.

    Solves (I - A) x = B u per planar axis.  With a resting anchor the
    positions land at anchor - j * l_star for j = 1..n and the velocities
    vanish.  Raises if the chain matrix is not Schur, because then no
    limit exists.
    """
    if matrices.kind != "formation":
        raise ValueError(f"need a formation chain matrix, got kind={matrices.kind!r}")
    rho = spectral_radius(matrices.dense)
    if rho >= 1.0:
        raise ValueError(
            f"chain matrix is not Schur (spectral radius {rho:.6f} >= 1); "
            "no equilibrium to report"
        )
    n = matrices.order
    anchor_position = np.asarray(anchor_position, dtype=float)
    anchor_velocity = np.asarray(anchor_velocity, dtype=float)
    l_star = np.asarray(l_star, dtype=float)
    eye = np.eye(2 * n)
    positions = np.empty((n, 2))
    velocities = np.empty((n, 2))
    for axis in range(2):
        u = np.array([anchor_position[axis], anchor_velocity[axis], l_star[axis]])
        x = np.linalg.solve(eye - matrices.dense, matrices.input_matrix @ u)
        positions[:, axis] = x[:n]
        velocities[:, axis] = x[n:]
    return positions, velocities


def decay_seconds(rho: float | None, dt: float) -> float | None:
    """Seconds a mode of per-step radius ``rho`` takes to decay by 1e-2,
    ``ln(100) dt / -ln(rho)``; None when there is no radius or it is not
    below 1."""
    if rho is None or rho >= 1.0:
        return None
    return math.log(100.0) * dt / -math.log(rho)


def spectral_report(n_prime: int, params: EstimationParams) -> dict:
    """Stability summary for one chain order and parameter pair.

    The radii come from the modal blocks (``chain_modes``): the estimator
    chain ``rho_A``, its lagged variant ``rho_Ar``, and the formation chain
    of n_prime robots under the sigma = 1 and sigma = 2 laws, ``rho_Af`` and
    ``rho_Af_lagged`` (None at order 1), and their exact alpha*dt limits
    ``limit_*`` (``stability_limit``) next to the sufficient ``bound_*``.
    ``decay_s_Af`` and ``decay_s_Af_lagged`` turn the formation radii into
    seconds to decay by 1e-2, None when the radius is None or not below 1.
    """
    alpha_dt = params.alpha * params.dt
    bound_s1, bound_s2 = stability_bound(n_prime, "S1"), stability_bound(n_prime, "S2")
    kinds = [kind for kind, (_, smallest, _) in _KINDS.items() if n_prime >= smallest]
    limit = {kind: stability_limit(n_prime, kind) for kind in kinds}
    rho = {kind: spectral_radius(chain_modes(n_prime, params, kind)) for kind in kinds}
    return {
        "n_prime": n_prime,
        "alpha": params.alpha,
        "dt": params.dt,
        "beta": params.beta,
        "bound_s1": bound_s1,
        "bound_s2": bound_s2,
        "limit_s1": limit["estimator"],
        "limit_s2": limit["lagged_estimator"],
        "limit_Af": limit.get("formation"),
        "limit_Af_lagged": limit.get("lagged_formation"),
        "rho_A": rho["estimator"],
        "rho_Ar": rho["lagged_estimator"],
        "rho_Af": rho.get("formation"),
        "rho_Af_lagged": rho.get("lagged_formation"),
        "decay_s_Af": decay_seconds(rho.get("formation"), params.dt),
        "decay_s_Af_lagged": decay_seconds(rho.get("lagged_formation"), params.dt),
        "satisfies_s1": alpha_dt < bound_s1,
        "satisfies_s2": alpha_dt < bound_s2,
    }
