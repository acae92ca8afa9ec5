"""Truncated-Fourier realization of the Dirac-scale operator calculus.

A reference operator D = diag(n + twist/2pi) on the modes |n| <= N of the
circle defines Sobolev weights |D|^s (with the kernel weighted by 1), the
graded operator norms, heat traces, and the trace and summability bounds.
At finite rank every operator belongs to every order class, so the
boundedness questions are reported as norm tables across cutoffs with a
clearly-labeled heuristic trend classification, not as theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forms import expm_batched

__all__ = [
    "DiracModel",
    "TruncatedOperator",
    "sobolev_norm",
    "composition_check",
    "heat_trace",
    "heat_trace_with_tail",
    "summability_bound_check",
    "trace_cyclicity_check",
    "duhamel_derivative",
    "parametrix_test",
    "norm_table",
]


@dataclass(frozen=True)
class DiracModel:
    """Reference operator on circle modes |n| <= cutoff with spectrum n + twist/2pi."""

    cutoff: int
    twist: float = 0.0

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if not 0.0 <= self.twist < 2.0 * math.pi:
            raise ValueError("twist must lie in [0, 2 pi)")

    @property
    def size(self) -> int:
        return 2 * self.cutoff + 1

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.cutoff, self.cutoff + 1)

    @property
    def spectrum(self) -> np.ndarray:
        return self.modes + self.twist / (2.0 * math.pi)

    def matrix(self) -> np.ndarray:
        return np.diag(self.spectrum.astype(np.complex128))

    def abs_weights(self, power: float = 1.0) -> np.ndarray:
        """Diagonal of |D|**power; |D| is sqrt(D^2) with the kernel weighted 1."""
        a = np.abs(self.spectrum)
        a = np.where(a == 0.0, 1.0, a)
        return a**power

    def doubled(self) -> np.ndarray:
        """Odd self-adjoint [[0, D], [D, 0]] on the chirality-doubled space."""
        d = self.matrix()
        z = np.zeros_like(d)
        return np.block([[z, d], [d, z]])

    def doubled_weights(self, power: float = 1.0) -> np.ndarray:
        return np.concatenate([self.abs_weights(power), self.abs_weights(power)])


@dataclass
class TruncatedOperator:
    """A matrix on the truncated mode space tied to its reference operator."""

    matrix: np.ndarray
    reference: DiracModel
    doubled: bool = False

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)
        n = self.reference.size * (2 if self.doubled else 1)
        if self.matrix.shape != (n, n):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match mode space {n}"
            )

    def weights(self, power: float) -> np.ndarray:
        if self.doubled:
            return self.reference.doubled_weights(power)
        return self.reference.abs_weights(power)


def _as_pair(f: TruncatedOperator | np.ndarray, ref: DiracModel | None):
    if isinstance(f, TruncatedOperator):
        return f.matrix, f
    if ref is None:
        raise ValueError("a reference DiracModel is required for raw matrices")
    return np.asarray(f, dtype=np.complex128), TruncatedOperator(f, ref)


def sobolev_norm(f: TruncatedOperator, k: int, s: int) -> float:
    """Operator norm of |D|^(s-k) F |D|^(-s) (largest singular value)."""
    mat = f.matrix
    wl = f.weights(s - k)
    wr = f.weights(-float(s))
    weighted = wl[:, None] * mat * wr[None, :]
    return float(np.linalg.norm(weighted, 2))


def composition_check(
    f1: TruncatedOperator, k1: int, f2: TruncatedOperator, k2: int, s: int
) -> dict:
    """Report both sides of |F1 F2|_{k1+k2,s} <= |F1|_{k1,s-k2} |F2|_{k2,s}."""
    prod = TruncatedOperator(f1.matrix @ f2.matrix, f1.reference, f1.doubled)
    lhs = sobolev_norm(prod, k1 + k2, s)
    rhs = sobolev_norm(f1, k1, s - k2) * sobolev_norm(f2, k2, s)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "slack": rhs - lhs,
        "holds": lhs <= rhs * (1.0 + 1e-12) + 1e-14,
    }


def heat_trace(p: TruncatedOperator | np.ndarray, theta: float, ref=None) -> float:
    """Tr exp(-theta P^2) for hermitian P, with a Gaussian tail estimate.

    Returns the truncated sum; the discarded-tail estimate for a Dirac-type
    spectrum is exp(-theta lambda_max^2) scaled by the remaining geometric
    factor and is available through ``heat_trace_with_tail``.
    """
    return heat_trace_with_tail(p, theta, ref)[0]


def heat_trace_with_tail(p, theta: float, ref=None):
    if theta <= 0:
        raise ValueError("heat_trace requires theta > 0")
    mat, _ = _as_pair(p, ref)
    evals = np.linalg.eigvalsh(mat)
    value = float(np.exp(-theta * evals**2).sum())
    lam = float(np.abs(evals).max(initial=0.0))
    # tail over modes beyond the largest retained eigenvalue, spacing ~1
    ratio = math.exp(-theta * (2.0 * lam + 1.0))
    tail = 2.0 * math.exp(-theta * (lam + 1.0) ** 2) / max(1.0 - ratio, 1e-300)
    return value, tail


def summability_bound_check(
    p: TruncatedOperator,
    q: TruncatedOperator,
    theta: float,
    eps: float,
) -> dict:
    """Tr e^{-theta (P+Q)^2} against e^{theta (eps^-2 - 1) |Q|^2} Tr e^{-theta (1-eps^2) P^2}."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if theta <= 0:
        raise ValueError("theta must be positive")
    pm, qm = p.matrix, q.matrix
    lhs = float(np.exp(-theta * np.linalg.eigvalsh(pm + qm) ** 2).sum())
    qnorm = float(np.linalg.norm(qm, 2))
    rhs = math.exp(theta * (eps**-2 - 1.0) * qnorm**2) * float(
        np.exp(-theta * (1.0 - eps**2) * np.linalg.eigvalsh(pm) ** 2).sum()
    )
    return {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs, "holds": lhs <= rhs * (1 + 1e-12)}


def trace_cyclicity_check(
    f1: TruncatedOperator,
    p: TruncatedOperator,
    f2: TruncatedOperator,
    t: float,
    eps: float,
) -> dict:
    """Three-way agreement of Tr(F1 e^{-tP^2} F2) under cyclic rotation.

    Also reports the trace norm of F1 e^{-tP^2} F2 and its ratio to
    |F1|_{0,0} |F2|_{0,0} (the constant in that bound is not explicit, so
    only the measured ratio is printed).
    """
    if not t >= eps > 0:
        raise ValueError("requires t >= eps > 0")
    heat = expm_batched(-t * (p.matrix @ p.matrix))
    t1 = complex(np.trace(f1.matrix @ heat @ f2.matrix))
    t2 = complex(np.trace(heat @ f2.matrix @ f1.matrix))
    t3 = complex(np.trace(f2.matrix @ f1.matrix @ heat))
    spread = max(abs(t1 - t2), abs(t1 - t3), abs(t2 - t3))
    trace_norm = float(np.linalg.svd(f1.matrix @ heat @ f2.matrix, compute_uv=False).sum())
    denom = sobolev_norm(f1, 0, 0) * sobolev_norm(f2, 0, 0)
    return {
        "values": (t1, t2, t3),
        "spread": spread,
        "trace_norm": trace_norm,
        "norm_ratio": trace_norm / denom if denom else math.inf,
    }


def duhamel_derivative(path, u: float, eps: float) -> dict:
    """Derivative of u -> exp(-eps f(u)^2) via the heat-sandwich integral.

    Computes -int_0^eps exp(-sigma f^2) (d f^2/du) exp(-(eps-sigma) f^2)
    d sigma by 32-node Gauss quadrature (d f^2/du from a central difference
    with the small step 1e-5), and compares against central finite
    differences of the exponential at steps 0.05 and 0.025; the error ratio
    of the two should sit near 4 for a second-order-accurate comparison.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")

    def fmat(v):
        m = path(v)
        return m.matrix if isinstance(m, TruncatedOperator) else np.asarray(m)

    f0 = fmat(u)
    fsq = f0 @ f0
    du = 1e-5
    dfsq = (fmat(u + du) @ fmat(u + du) - fmat(u - du) @ fmat(u - du)) / (2.0 * du)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    sigma = 0.5 * eps * (nodes + 1.0)
    w = 0.5 * eps * weights
    # exp(-sigma F^2) for all nodes in one batch, both endpoints of the sandwich
    left = expm_batched(-sigma[:, None, None] * fsq)
    right = expm_batched(-(eps - sigma)[:, None, None] * fsq)
    integral = -np.einsum("q,qij,jk,qkl->il", w, left, dfsq, right)

    def heat_at(v):
        fv = fmat(v)
        return expm_batched(-eps * (fv @ fv))

    def fd_residual(h):
        fd = (heat_at(u + h) - heat_at(u - h)) / (2.0 * h)
        return float(np.abs(fd - integral).max())

    r1 = fd_residual(0.05)
    r2 = fd_residual(0.05 / 2.0)
    return {
        "derivative": integral,
        "fd_residual": r1,
        "fd_residual_half": r2,
        "richardson_ratio": r1 / r2 if r2 else math.inf,
    }


def norm_table(factory, cutoffs=(8, 16, 32, 64), k: int = -1, s_range=range(-4, 5)):
    """Rows (N, k, s, norm) for the operators produced by factory(N)."""
    rows = []
    for n in cutoffs:
        op = factory(n)
        for s in s_range:
            rows.append((n, k, int(s), sobolev_norm(op, k, s)))
    return rows


def _growth_slope(norms_by_cutoff):
    xs = np.log([float(n) for n, _ in norms_by_cutoff])
    ys = np.log([max(v, 1e-300) for _, v in norms_by_cutoff])
    if len(xs) < 2:
        return 0.0
    return float(np.polyfit(xs, ys, 1)[0])


def parametrix_test(factory, cutoffs=(8, 16, 32, 64)) -> dict:
    """Diagnostic boundedness trends for a candidate parametrix pair.

    factory(N) must return (P, Q) as TruncatedOperator at cutoff N.  For each
    cutoff the table records |PQ - I|_{-1,s}, |QP - I|_{-1,s} and
    ||P|^{-1}|_{-1,s} for s = -4..4; the classification compares the slope
    of the worst norm across cutoffs on a log-log fit against 0.5.  This is a
    heuristic trend report, not a statement about the untruncated operators.
    """
    tables = {"pq": [], "qp": [], "pinv": []}
    for n in cutoffs:
        p, q = factory(n)
        eye = np.eye(p.matrix.shape[0])
        pq = TruncatedOperator(p.matrix @ q.matrix - eye, p.reference, p.doubled)
        qp = TruncatedOperator(q.matrix @ p.matrix - eye, p.reference, p.doubled)
        w, vecs = np.linalg.eigh(p.matrix)
        absw = np.where(np.abs(w) < 1e-12, 1.0, np.abs(w))
        pinv_mat = (vecs / absw[None, :]) @ np.conj(vecs.T)
        pinv = TruncatedOperator(pinv_mat, p.reference, p.doubled)
        for name, op in (("pq", pq), ("qp", qp), ("pinv", pinv)):
            for s in range(-4, 5):
                tables[name].append((n, -1, int(s), sobolev_norm(op, -1, s)))
    report = {"tables": tables, "cutoffs": list(cutoffs)}
    trends = {}
    for name, rows in tables.items():
        worst = [
            (n, max(v for nn, _, _, v in rows if nn == n)) for n in cutoffs
        ]
        slope = _growth_slope(worst)
        # norms at the rounding floor grow with the weights, not the operator
        negligible = max(v for _, v in worst) < 1e-10
        trends[name] = {
            "worst_norms": worst,
            "slope": slope,
            "classification": "bounded-trend"
            if negligible or slope < 0.5
            else "growing",
        }
    report["trends"] = trends
    report["note"] = "heuristic finite-cutoff trend, not a proof of boundedness"
    return report
