"""Assembly and Dirichlet solution of the magnetic Schrodinger operator,
boundary data production (truncated DtN matrices), and gauge
transformations.

The operator acts as

    L u = lap(u) - 2i <X, du> + (i div*(X) + |X|^2 + q) u

with the positive Laplacian and the real-bilinear pairing <.,.> of
1-forms (|dz|^2 = 0, <dz, dz_bar> = 2); the factored form built from
integrating factors is available separately for cross-validation.

Discretization: spectral collocation in the angle, second-order finite
differences in the radius, direct block-tridiagonal elimination with
dense angular blocks and diagonal radial couplings.  On a disk the
center value is one extra unknown, closed by the mean-value relation and
eliminated into ring 0's diagonal block (a rank-one update) before
factoring, so disk and annulus share one factorization and one sweep.
The factorization keeps the explicit inverse of each ring's Schur
complement: block LU with explicit diagonal inverses, the block-Thomas
scheme, which is stable for block-diagonally-dominant systems such as
these ring blocks.  The Schur term of the next ring is then a diagonal
scaling of the previous inverse.  Each inverse is a 2x2 block recursion
(`_inverse`) whose leaves are LU with partial pivoting (`np.linalg.inv`);
it does not pivot across its halves, a block LU whose stability Demmel,
Higham and Schreiber analyse (Numer. Linear Algebra Appl. 2 (1995)
173-190).

Boundary data has one layout, samples of shape (n_boundary_rings,
n_theta, ...) ordered as `PolarGrid.boundary_rings`: `MagneticOperator.solve`
runs all trailing (batch) columns in one sweep of matrix products, leaves
no state behind and eliminates forward only the span of columns with
inner-circle data (none on a disk).  The boundary jets that the DtN
builders post-map share that layout; a batch takes one
`PolarGrid.boundary_jet` and one `diff_theta` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    OneForm,
    PolarGrid,
    ScalarField,
    codiff,
    dbar_star,
    exterior_d,
    hodge_star,
    laplacian,
    wirtinger,
)
from .metrics import trace_from_samples, truncation_modes

# `_inverse` hands blocks of at most this order to `np.linalg.inv`.  One
# 96x128 operator (2-core x86-64, one BLAS thread) took 0.173, 0.156, 0.169
# and 0.231 s with leaves of 16, 32, 64 and 128 (no split)
_LEAF = 32

# `MagneticOperator` refuses a potential whose condition estimate exceeds this
CONDITION_LIMIT = 1e12

__all__ = [
    "PotentialPair",
    "DtnMatrix",
    "EigenvalueCollision",
    "magnetic_apply",
    "magnetic_apply_factored",
    "MagneticOperator",
    "dtn",
    "system_dtn",
    "dtn_and_diagonalized_system_dtn",
    "gauge_transform",
    "manufactured_potential",
    "save_dtn_csv",
    "load_dtn_csv",
]


class EigenvalueCollision(RuntimeError):
    """The Dirichlet problem is numerically singular at this discretization."""


@dataclass(frozen=True)
class PotentialPair:
    """A real connection 1-form X and a complex electric potential q."""

    X: OneForm
    q: ScalarField

    def __post_init__(self):
        self.X.grid.check_same(self.q.grid)
        if not self.X.is_real:
            raise ValueError("connection form X must be real-valued")

    @property
    def grid(self) -> PolarGrid:
        return self.X.grid

    def apriori_report(self) -> dict:
        """Discrete W^{1,4} / W^{2,4} norm sizes against an a-priori bound."""
        g = self.grid
        w = g.weights
        p = 4.0

        def lp(vals):
            return float(np.sum(w * np.abs(vals) ** p) ** (1.0 / p))

        dq = exterior_d(self.q)
        q_norm = (lp(self.q.values) ** p + lp(dq.c10) ** p + lp(dq.c01) ** p) ** (1 / p)
        pieces = [lp(self.X.c10), lp(self.X.c01)]
        for c in (self.X.c10, self.X.c01):
            d1 = exterior_d(ScalarField(g, c))
            pieces += [lp(d1.c10), lp(d1.c01)]
            for cc in (d1.c10, d1.c01):
                d2 = exterior_d(ScalarField(g, cc))
                pieces += [lp(d2.c10), lp(d2.c01)]
        x_norm = float(np.sum(np.array(pieces) ** p) ** (1 / p))
        return {"q_w1p": q_norm, "X_w2p": x_norm, "p": p}


@dataclass(frozen=True)
class DtnMatrix:
    """Truncated-Fourier Dirichlet-to-Neumann matrix.

    Entry [(ci, m), (cj, n)] is the m-th Fourier coefficient on circle ci
    of the magnetic normal derivative for Dirichlet datum e^{i n theta}
    placed on circle cj (zero on the others).
    """

    order: int
    circles: tuple
    matrix: np.ndarray


# ---------------------------------------------------------------------------
# operator application (collocation-free routes)
# ---------------------------------------------------------------------------


def _zeroth_coefficient(pot: PotentialPair) -> np.ndarray:
    X, q = pot.X, pot.q
    div_term = 1j * codiff(X).values
    sq = 2.0 * (X.c10 * X.c01 + X.c01 * X.c10)
    return div_term + sq + q.values


def magnetic_apply(pot: PotentialPair, u: ScalarField) -> ScalarField:
    """L u through the coordinate expansion, using the spectral/4th-order
    derivative routes (reference evaluation, independent of the solver)."""
    g = u.grid
    pot.grid.check_same(g)
    du = exterior_d(u)
    pairing = 2.0 * (pot.X.c10 * du.c01 + pot.X.c01 * du.c10)
    lap = laplacian(u)
    return ScalarField(g, lap.values - 2j * pairing + _zeroth_coefficient(pot) * u.values)


def magnetic_apply_factored(pot: PotentialPair, u: ScalarField, F: ScalarField) -> ScalarField:
    """L u through the factored form 2 F_bar dbar*(F_bar^{-1} F^{-1} dbar(F u)) + Q u,
    with F an integrating factor for the (0,1)-part of X.

    Oracle: it checks `magnetic_apply`, the coordinate expansion from which
    `manufactured_potential` builds its q, against the factored form that
    `dirac.reduce_schrodinger` rests on; `test_expansion_matches_factored_form`
    uses it as the reference."""
    g = u.grid
    Q = -hodge_star(exterior_d(pot.X)).values + pot.q.values
    inner = wirtinger(ScalarField(g, F.values * u.values), "dzbar")
    mid = OneForm(g, np.zeros(g.shape), inner.c01 / (np.conj(F.values) * F.values))
    outer = dbar_star(mid)
    return ScalarField(g, 2.0 * np.conj(F.values) * outer.values + Q * u.values)


# ---------------------------------------------------------------------------
# collocation solver
# ---------------------------------------------------------------------------


class MagneticOperator:
    """Factorized interior collocation operator for one potential pair."""

    def __init__(self, pot: PotentialPair):
        g = pot.grid
        self.grid = g
        n_r, n_t = g.shape
        dr = g.dr
        kind = g.domain.kind

        if kind == "disk":
            self.int_rings = np.arange(0, n_r - 1)
        else:
            self.int_rings = np.arange(1, n_r - 1)
        self.n_theta = n_t

        # the products of a huge X overflow; the finiteness check below then
        # refuses the coefficients, as the one signal
        with np.errstate(over="ignore", invalid="ignore"):
            eit = np.exp(1j * g.theta)
            X = pot.X
            zeroth = _zeroth_coefficient(pot)

            # per-ring blocks: the dense diagonal block is rebuilt from these
            # vectors by `_block`; diagonal off-couplings
            eye = np.eye(n_t)
            self._D1t = g.diff_theta(eye).T
            self._D2t = g.diff_theta(eye, order=2).T
            self._zeroth = zeroth[self.int_rings]
            r = g.r[self.int_rings][:, None]
            X10, X01 = X.c10[self.int_rings], X.c01[self.int_rings]
            P = X01 * np.conj(eit) + X10 * eit  # X(d/dr)
            self._t_over_r = 1j * (X10 * eit - X01 * np.conj(eit)) / r  # X(d/dtheta)/r
            self.lo = -1.0 / dr**2 + 1.0 / (2 * dr * r) + 1j * P / dr
            self.hi = -1.0 / dr**2 - 1.0 / (2 * dr * r) - 1j * P / dr
            coeffs = [self._zeroth, self._t_over_r, self.lo, self.hi]

            # disk center closure: mean-value Laplacian + first-order derivatives
            self.kind = kind
            if kind == "disk":
                x0, x1, s0 = g.center_value(np.stack([X.c10, X.c01, zeroth], axis=-1))
                self.center_diag = 4.0 / dr**2 + s0
                mean_w = np.full(n_t, 1.0 / n_t)
                self.center_row = (
                    -(4.0 / dr**2) * mean_w
                    - (4j / dr) * (x1 * np.conj(eit) + x0 * eit) * mean_w
                )
                coeffs += [self.center_row, self.center_diag]
        if not all(np.isfinite(c).all() for c in coeffs):
            raise ValueError("assembled operator coefficients must be finite")

        self._factor()

    def _block(self, a: int) -> np.ndarray:
        """Dense diagonal block of interior ring a (index into int_rings)."""
        r = self.grid.r[self.int_rings[a]]
        B = (-2j * self._t_over_r[a])[:, None] * self._D1t
        B -= self._D2t * (1.0 / r**2)
        B.flat[:: self.n_theta + 1] += 2.0 / self.grid.dr**2 + self._zeroth[a]
        return B

    def _factor(self) -> None:
        n_t = self.n_theta
        self.inv = []
        S = np.empty((n_t, n_t), dtype=complex, order="F")
        for a in range(len(self.int_rings)):
            D = self._block(a)
            if a > 0:
                # Schur term lo[a] inv[a-1] hi[a-1] of the diagonal couplings
                np.multiply(self.inv[a - 1], self.hi[a - 1], out=S)
                D -= np.multiply(self.lo[a][:, None], S, out=S)
            elif self.kind == "disk":
                # ring 0 couples to the center through the `lo` slot; the
                # center equation gives u_c = -center_row . u[0] / center_diag
                D -= np.outer(self.lo[0], self.center_row) / self.center_diag
            try:
                self.inv.append(_inverse(D))
            except np.linalg.LinAlgError:
                raise EigenvalueCollision(f"exactly singular block at interior ring {a}") from None
        # inverse-norm probe: a resonance amplifies the solve of random
        # boundary data
        z = np.random.default_rng(0).standard_normal((len(self.grid.boundary_rings), 2, n_t))
        boundary = z[:, 0] + 1j * z[:, 1]
        u = self.solve(boundary)
        amp = float(np.max(np.abs(u)) / np.max(np.abs(boundary)))
        op_scale = 4.0 / self.grid.dr**2
        self.condition_estimate = amp * op_scale
        if not np.isfinite(self.condition_estimate) or self.condition_estimate > CONDITION_LIMIT:
            raise EigenvalueCollision(
                f"near-singular Dirichlet system (condition estimate "
                f"{self.condition_estimate:.2e}); a Dirichlet eigenvalue collision "
                "is likely -- perturb q"
            )

    def solve(self, f: np.ndarray) -> np.ndarray:
        """Dirichlet solves in one sweep: boundary samples of shape
        (n_boundary_rings, n_theta, ...), ordered as `grid.boundary_rings`
        (a disk also takes (n_theta,)), to values of shape (n_r, n_theta, ...).
        The forward elimination carries only the span of columns with
        nonzero inner-circle data."""
        f = np.atleast_2d(np.asarray_chkfinite(f, dtype=complex))
        want = (len(self.grid.boundary_rings), self.n_theta)
        if f.shape[:2] != want:
            raise ValueError(f"boundary samples must have shape {want} + (batch...), got {f.shape}")
        batch = f.shape[2:]
        f = f.reshape(f.shape[:2] + (-1,))
        u = np.zeros((self.grid.n_r,) + f.shape[1:], dtype=complex)
        u[-1] = f[-1]
        x = u[self.int_rings[0] : self.int_rings[-1] + 1]  # a view: solved in place
        x[-1] -= self.hi[-1][:, None] * f[-1]
        if self.kind == "annulus":
            u[0] = f[0]
            x[0] -= self.lo[0][:, None] * f[0]
        J = len(x)
        cols = np.flatnonzero(np.any(x[0] != 0, axis=0))
        if cols.size:
            y = x[:, :, cols[0] : cols[-1] + 1]  # a view; zero columns in it stay zero
            for a in range(1, J):
                y[a] -= self.lo[a][:, None] * (self.inv[a - 1] @ y[a - 1])
        x[J - 1] = self.inv[J - 1] @ x[J - 1]
        for a in range(J - 2, -1, -1):
            x[a] = self.inv[a] @ (x[a] - self.hi[a][:, None] * x[a + 1])
        return u.reshape(u.shape[:2] + batch)

    def residual(self, vals: np.ndarray) -> float:
        """Relative residual of the discrete interior equations for values
        (n_r, n_theta).  On a disk the center value comes from the center
        equation center_diag * u_c + center_row . u[0] = 0, met by `solve`.

        Oracle: it checks `solve`, the block sweep behind every DtN matrix,
        by applying the unfactored ring blocks (`_block`) and couplings
        directly; `test_discrete_residual_small` and
        `test_residual_independent_of_later_solves` use it as the
        reference."""
        if self.kind == "disk":
            u_c = -(self.center_row @ vals[0]) / self.center_diag
        res = 0.0
        norm = 0.0
        for a, j in enumerate(self.int_rings):
            row = self._block(a) @ vals[j]
            row += self.lo[a] * (vals[j - 1] if j > 0 else u_c)
            row += self.hi[a] * vals[j + 1]
            res += np.sum(np.abs(row) ** 2)
            norm += np.sum(np.abs(vals[j]) ** 2)
        return math.sqrt(res) / max(math.sqrt(norm), 1e-300)


def _inverse(D: np.ndarray) -> np.ndarray:
    """Inverse of the square matrix D by 2x2 block recursion: invert the
    leading half, then the Schur complement of the trailing half.  Blocks
    of order at most `_LEAF` go to `np.linalg.inv`, whose LinAlgError on an
    exactly singular leaf propagates."""
    n = len(D)
    if n <= _LEAF:
        return np.linalg.inv(D)
    h = n // 2
    A_inv = _inverse(D[:h, :h])
    A_inv_B = A_inv @ D[:h, h:]
    C_A_inv = D[h:, :h] @ A_inv
    S_inv = _inverse(D[h:, h:] - D[h:, :h] @ A_inv_B)
    out = np.empty_like(D)
    out[h:, h:] = S_inv
    out[:h, h:] = -A_inv_B @ S_inv
    out[h:, :h] = -S_inv @ C_A_inv
    out[:h, :h] = A_inv - out[:h, h:] @ C_A_inv
    return out


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------

def _magnetic_normal(pot: PotentialPair, trace: np.ndarray, d_r: np.ndarray) -> np.ndarray:
    """d_nu u + i X(nu) u on the boundary circles from the jet of u."""
    g = pot.grid
    rings = list(g.boundary_rings)
    eit = np.exp(1j * g.theta)
    x_nu = pot.X.c10[rings] * eit + pot.X.c01[rings] * np.conj(eit)
    sign = np.array(g.boundary_signs())[:, None, None]
    return sign * (d_r + 1j * x_nu[:, :, None] * trace)


def _omega01_pullback(pot: PotentialPair, trace: np.ndarray, d_r: np.ndarray) -> np.ndarray:
    """Arclength-normalized pullback of star omega on the boundary circles,
    omega_01 e^{-i theta} with omega_01 = d_zbar u + i A_01 u, from the jet
    of u: the boundary rows of `PolarGrid.d_zbar` u + i A_01 u, since the
    jet's radial derivative is the boundary row of `diff_r`."""
    g = pot.grid
    rings = list(g.boundary_rings)
    A01 = pot.X.c01[rings][:, :, None]
    eit = np.exp(1j * g.theta)[:, None]
    r = g.r[rings][:, None, None]
    d_t = g.diff_theta(trace)
    om01 = 0.5 * eit * (d_r + 1j * d_t / r) + 1j * A01 * trace
    return om01 * np.conj(eit)


def _unit_fourier_response(pot: PotentialPair, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Boundary jet (`PolarGrid.boundary_jet`) of the solutions for the unit
    Fourier data, all from one batched solve: column cj * (2 order + 1) + k
    holds datum e^{i n theta}, n = k - order, on circle cj (zero on the
    others)."""
    g = pot.grid
    waves = np.exp(1j * np.outer(g.theta, truncation_modes(order, g.n_theta)))
    n_c = len(g.boundary_rings)
    data = np.kron(np.eye(n_c), waves).reshape(n_c, g.n_theta, -1)
    # the factored operator is freed before the jet copies the solutions
    return g.boundary_jet(MagneticOperator(pot).solve(data))


def _dtn_matrix(g: PolarGrid, order: int, rows: np.ndarray) -> DtnMatrix:
    """Matrix whose column k stacks, circle by circle, the modes
    -order..order of the boundary samples rows[:, :, k]."""
    radii = tuple(float(g.r[r]) for r in g.boundary_rings)
    coeffs = trace_from_samples(rows, order)
    return DtnMatrix(order=order, circles=radii, matrix=coeffs.reshape(-1, rows.shape[2]))


def dtn(pot: PotentialPair, order: int) -> DtnMatrix:
    """Truncated DtN matrix: the magnetic Neumann data of the unit Fourier
    response."""
    rows = _magnetic_normal(pot, *_unit_fourier_response(pot, order))
    return _dtn_matrix(pot.grid, order, rows)


def system_dtn(pot: PotentialPair, order: int) -> DtnMatrix:
    """Trace matrix of the first-order-system boundary data: for Dirichlet
    datum e^{i n theta} the row data is the arclength-normalized pullback
    of star omega, with omega = (dbar + iA) u the system's second component."""
    rows = _omega01_pullback(pot, *_unit_fourier_response(pot, order))
    return _dtn_matrix(pot.grid, order, rows)


def dtn_and_diagonalized_system_dtn(
    pot: PotentialPair, F: ScalarField, order: int
) -> tuple[DtnMatrix, DtnMatrix]:
    """`dtn` and the graph map of the diagonalized system's Cauchy data,
    both from one solve of the unit Fourier data.

    The conjugated sections carry traces (F u, pullback of star(conj(F)^{-1}
    omega)); in truncated Fourier space the graph map is G Fm^{-1} with Fm
    the boundary multiplication by F and G the transformed Neumann-side
    columns."""
    g = pot.grid
    trace, d_r = _unit_fourier_response(pot, order)
    F_b = F.values[list(g.boundary_rings)][:, :, None]
    Fm = _dtn_matrix(g, order, F_b * trace).matrix
    G = _dtn_matrix(g, order, _omega01_pullback(pot, trace, d_r) / np.conj(F_b))
    d = _dtn_matrix(g, order, _magnetic_normal(pot, trace, d_r))
    return d, replace(G, matrix=G.matrix @ np.linalg.inv(Fm))


def gauge_transform(
    pot: PotentialPair, f_gauge: ScalarField, require_zero_trace: bool = True
) -> PotentialPair:
    """X -> X + d f for real f; refuses when a required zero trace fails."""
    g = pot.grid
    vals = f_gauge.values
    if np.max(np.abs(vals.imag)) > 1e-12 * max(np.max(np.abs(vals)), 1.0):
        raise ValueError("gauge function must be real-valued")
    if require_zero_trace:
        edge = max(np.max(np.abs(vals[r])) for r in g.boundary_rings)
        if edge > 1e-10 * max(np.max(np.abs(vals)), 1.0):
            raise ValueError("gauge function must vanish on the boundary")
    df = exterior_d(ScalarField(g, vals.real.astype(complex)))
    return PotentialPair(pot.X + df, pot.q)


def manufactured_potential(u_star: ScalarField, X: OneForm) -> PotentialPair:
    """Potential pair for which u_star solves L u = 0 exactly:
    q := -(Delta^X u*) / u* (u* must not vanish)."""
    g = u_star.grid
    if np.min(np.abs(u_star.values)) < 1e-8:
        raise ValueError("manufactured solution must be bounded away from zero")
    zero_q = PotentialPair(X, ScalarField(g, np.zeros(g.shape)))
    Lu = magnetic_apply(zero_q, u_star)
    q = ScalarField(g, -Lu.values / u_star.values)
    return PotentialPair(X, q)


# ---------------------------------------------------------------------------
# DtN CSV interchange
# ---------------------------------------------------------------------------


def save_dtn_csv(path, d: DtnMatrix) -> None:
    lines = [f"DTN v1 {d.order} {len(d.circles)}"]
    lines.append(",".join(f"{r:.17g}" for r in d.circles))
    for i in range(d.matrix.shape[0]):
        for j in range(d.matrix.shape[1]):
            v = d.matrix[i, j]
            lines.append(f"{i},{j},{v.real:.17g},{v.imag:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dtn_csv(path) -> DtnMatrix:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[:2] != ["DTN", "v1"]:
            raise ValueError("bad DtN header, expected 'DTN v1 <order> <circles>'")
        order, n_c = int(header[2]), int(header[3])
        if order < 0 or n_c < 1:
            raise ValueError(f"bad DtN header: order {order}, {n_c} circles")
        circles = tuple(float(x) for x in fh.readline().split(","))
        if len(circles) != n_c:
            raise ValueError("bad circle count")
        if not all(map(math.isfinite, circles)):
            raise ValueError(f"non-finite DtN circle radius in {circles}")
        n = n_c * (2 * order + 1)
        mat = np.zeros((n, n), dtype=complex)
        seen = np.zeros((n, n), dtype=bool)
        for line in fh:
            i, j, re, im = line.split(",")
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"DtN entry ({i}, {j}) outside a {n}x{n} matrix")
            if seen[i, j]:
                raise ValueError(f"duplicate DtN entry ({i}, {j})")
            seen[i, j] = True
            mat[i, j] = float(re) + 1j * float(im)
            if not np.isfinite(mat[i, j]):
                raise ValueError(f"non-finite DtN entry ({i}, {j})")
    if not seen.all():
        raise ValueError(f"missing DtN entries, first {np.argwhere(~seen)[0].tolist()}")
    return DtnMatrix(order=order, circles=circles, matrix=mat)
