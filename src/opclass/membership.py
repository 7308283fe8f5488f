"""Operator-class membership oracles.

Each class predicate reports a MembershipVerdict with a signed defect
(negative means the defining inequality is violated), an independently
checkable witness for non-membership, and the oracle that produced the
number. The inequality-defined classes (paranormal and its k-indexed
relatives) are decided by two independent routes:

* a pencil oracle that sweeps the least eigenvalue of a parameterized
  Hermitian pencil over a logarithmic grid, refined around its deepest
  local grid minima by Brent's parabolic and golden-section search, which
  stops in decision units: once its parabola predicts a gain of at most a
  thousandth of the decision band tol_decision * scale. The pencils of
  one matrix are stacked once and swept and refined together, and the
  witness eigenvectors are built from the same stack, each pencil with
  the values it gets alone,
* a sphere oracle that minimizes the exact defining defect over the unit
  sphere by projected gradient descent. Every defect is a difference of
  products of column norms ||M x||, so its gradient is analytic: one
  stacked product for the norms and one with the stacked adjoint. Each
  start takes Riemannian Barzilai-Borwein steps with monotone acceptance,
  and the descent stops in decision units: once its least value stalls
  within a millionth of the decision band tol_decision * scale. Every
  descent runs on a stack of problems, columns (problems, dim, n), and
  every defect is evaluated on a batch of columns at once.

For the quadratic pencil A - 2*z*B + z^2*C with A, B, C PSD, positivity for
every z > 0 is equivalent to the per-vector inequality
<Bx,x>^2 <= <Ax,x><Cx,x>, which is exactly the defining norm inequality, so
the two oracles decide the same set and any decisive disagreement is
surfaced as OracleDisagreement rather than resolved silently.

Decision semantics: with d the defect normalized by the class scale and
t = tol_decision, a verdict is Member when d >= -t/10, NonMember when
d <= -t (witness re-validated through the defining inequality), and
Inconclusive inside the band in between, which is the optimizer and
eigensolver noise floor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidPencil, OracleDisagreement
from .generators import make_rng
from .linalg import (
    DEFAULT_TOLERANCES,
    TolerancePolicy,
    as_operator,
    finite_frobenius_norm,
    frobenius_norm,
    matrix_power,
    operator_norm,
    psd_power,
    spectral_radius,
)
from .matio import complex_pairs

__all__ = [
    "Status",
    "Witness",
    "MembershipVerdict",
    "OperatorClass",
    "PencilSpec",
    "quasi_paranormal_pencil",
    "k_paranormal_pencil",
    "absolute_k_paranormal_pencil",
    "pencil_check",
    "sphere_check",
    "is_normal",
    "is_quasinormal",
    "quasinormal_embry",
    "is_hyponormal",
    "is_p_hyponormal",
    "is_class_a",
    "is_k_quasi_paranormal",
    "is_k_paranormal",
    "is_absolute_k_paranormal",
    "is_normaloid",
    "classify_all",
    "chain_violations",
]


class Status(str, Enum):
    MEMBER = "Member"
    NON_MEMBER = "NonMember"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Witness:
    """Location of the worst defect: a unit vector, a pencil parameter,
    or both."""

    vector: np.ndarray | None = None
    pencil_lambda: float | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {}
        if self.vector is not None:
            doc["vector"] = complex_pairs(self.vector)
        if self.pencil_lambda is not None:
            doc["lambda"] = float(self.pencil_lambda)
        return doc


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of one class predicate.

    ``defect`` is signed and raw (not normalized); ``threshold`` is the
    absolute decision cut that was applied to it, i.e. tol_decision (or the
    predicate's equality/PSD tolerance) times the class scale.
    """

    status: Status
    defect: float
    oracle: str
    witness: Witness | None = None
    threshold: float = 0.0
    seed: int | None = None

    @property
    def is_member(self) -> bool:
        return self.status is Status.MEMBER

    @property
    def is_definite(self) -> bool:
        return self.status is not Status.INCONCLUSIVE

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            "defect": float(self.defect),
            "oracle": self.oracle,
            "witness": self.witness.to_json_dict() if self.witness else None,
            "threshold": float(self.threshold),
            "seed": self.seed,
        }


# Every class name and the parameter its label takes: None, "p" for a p in
# (0, 1], or the least k. KQuasiParanormal at k = 0 is Paranormal, so its
# labels start at k = 1.
_CLASSES = {
    "Normal": None, "Quasinormal": None, "Hyponormal": None, "PHyponormal": "p",
    "ClassA": None, "Paranormal": None, "KParanormal": 1, "AbsoluteKParanormal": 1,
    "KQuasiParanormal": 1, "Normaloid": None,
}


@dataclass(frozen=True, order=True)
class OperatorClass:
    """Label of an operator class, with its k or p parameter when indexed:
    ``OperatorClass(name, k=...)`` or ``OperatorClass(name, p=...)``."""

    name: str
    k: int | None = None
    p: float | None = None

    def __post_init__(self) -> None:
        if self.name not in _CLASSES:
            raise ValueError(f"unknown operator class {self.name!r}")
        takes = _CLASSES[self.name]
        if takes is None:
            if self.k is not None or self.p is not None:
                raise ValueError(f"{self.name} takes no parameter")
        elif takes == "p":
            if self.k is not None or self.p is None or not 0 < self.p <= 1:
                raise ValueError(f"{self.name} takes p in (0, 1] and no k")
        elif self.p is not None or self.k is None or self.k < takes:
            raise ValueError(f"{self.name} takes an integer k >= {takes} and no p")

    @property
    def params(self) -> dict:
        doc: dict = {}
        if self.k is not None:
            doc["k"] = self.k
        if self.p is not None:
            doc["p"] = self.p
        return doc

    def __str__(self) -> str:
        if self.k is not None:
            return f"{self.name}(k={self.k})"
        if self.p is not None:
            return f"{self.name}(p={self.p:g})"
        return self.name


# ---------------------------------------------------------------------------
# Defect scales
# ---------------------------------------------------------------------------
#
# Every defining inequality is homogeneous in T; normalizing defects by
# max(1, ||T||)^degree makes the decision bands scale invariant.


def _scale(norm_t: float, degree: float) -> float:
    try:
        scale = max(1.0, norm_t) ** degree
    except OverflowError:
        scale = np.inf
    # max(1, nan) is 1, so a NaN norm needs its own test.
    if scale == np.inf or not math.isfinite(norm_t):
        raise ValueError(f"class scale max(1, ||T||)^{degree:g} overflows at ||T|| = {norm_t:.6g}")
    return scale


def _decide(defect: float, scale: float, tol: TolerancePolicy) -> tuple[Status, float]:
    """Three-way decision with the Inconclusive noise band; returns the
    status and the absolute threshold that was applied."""
    threshold = tol.tol_decision * scale
    if defect >= -threshold / 10.0:
        return Status.MEMBER, threshold
    if defect <= -threshold:
        return Status.NON_MEMBER, threshold
    return Status.INCONCLUSIVE, threshold


def _equality_verdict(residual: float, scale: float, tol: TolerancePolicy) -> MembershipVerdict:
    threshold = tol.tol_eq * scale
    status = Status.MEMBER if residual <= threshold else Status.NON_MEMBER
    return MembershipVerdict(
        status=status, defect=-residual, oracle="algebraic", threshold=threshold
    )


def _psd_verdict(
    diff: np.ndarray, scale: float, tol: TolerancePolicy
) -> MembershipVerdict:
    from .linalg import hermitian_eigen

    eig = hermitian_eigen(diff, tol)
    lam_min = float(eig.eigenvalues[0])
    threshold = tol.tol_psd * scale
    status = Status.MEMBER if lam_min >= -threshold else Status.NON_MEMBER
    witness = None
    if status is Status.NON_MEMBER:
        witness = Witness(vector=eig.eigenvectors[:, 0])
    return MembershipVerdict(
        status=status, defect=lam_min, oracle="algebraic", witness=witness,
        threshold=threshold,
    )


def _zero_operator(t: np.ndarray) -> bool:
    return not t.any()


def _member_zero() -> MembershipVerdict:
    # The zero operator satisfies every defining inequality with equality.
    return MembershipVerdict(
        status=Status.MEMBER, defect=0.0, oracle="algebraic", threshold=0.0
    )


# ---------------------------------------------------------------------------
# Pencil oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PencilSpec:
    """Hermitian pencil P(lam) = sum_j lam^(e_j) M_j on (lambda_lo, lambda_max].

    ``scale`` is the natural magnitude of P over the domain and normalizes
    least-eigenvalue defects for the decision band.
    """

    terms: tuple[tuple[float, np.ndarray], ...]
    lambda_lo: float
    lambda_max: float
    scale: float
    label: str = ""

    def __post_init__(self) -> None:
        if not self.terms:
            raise InvalidPencil("pencil needs at least one term")
        if not (0 < self.lambda_lo < self.lambda_max) or not np.isfinite(self.lambda_max):
            raise InvalidPencil("pencil domain must satisfy 0 < lambda_lo < lambda_max")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise InvalidPencil(f"pencil scale must be finite and positive, got {self.scale!r}")
        dims = {m.shape for _, m in self.terms}
        if len(dims) != 1:
            raise InvalidPencil(f"pencil terms have mixed shapes {dims}")
        for expo, m in self.terms:
            if expo < 0 or not np.isfinite(expo):
                raise InvalidPencil("pencil exponents must be finite and nonnegative")
            mm = np.asarray(m)
            if mm.ndim != 2 or mm.shape[0] != mm.shape[1]:
                raise InvalidPencil("pencil coefficients must be square")
            # The Hermitian check below is False for a NaN residual.
            if not np.isfinite(mm).all():
                raise InvalidPencil(f"pencil coefficient with exponent {expo} is not finite")
            resid = frobenius_norm(mm - mm.conj().T)
            if resid > DEFAULT_TOLERANCES.tol_eq * max(1.0, frobenius_norm(mm)):
                raise InvalidPencil(
                    f"pencil coefficient with exponent {expo} is not Hermitian"
                )

    @property
    def dim(self) -> int:
        return self.terms[0][1].shape[0]

    def evaluate(self, lams: np.ndarray) -> np.ndarray:
        """Stack of Hermitian P(lam) for each lam, shape (len(lams), n, n)."""
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        n = self.dim
        out = np.zeros((lams.size, n, n), dtype=np.complex128)
        for expo, m in self.terms:
            out += (lams**expo)[:, None, None] * m
        return (out + out.conj().transpose(0, 2, 1)) / 2.0


def _pencil(norm_t: float, terms, degree: int, label: str) -> PencilSpec:
    """PencilSpec on (1e-6 s, 4 s], s = max(1, ||T||^2), with scale
    max(1, ||T||)^degree."""
    s = max(1.0, norm_t**2)
    return PencilSpec(
        terms=terms, lambda_lo=1e-6 * s, lambda_max=4.0 * s,
        scale=_scale(norm_t, degree), label=label,
    )


# The pencil builders below take a validated matrix and its norm, which
# _dual_verdicts computes once for all pencils of a matrix; each public
# constructor checks its input and computes the norm itself.


def _public_pencil(name: str, t, k: int) -> PencilSpec:
    """The pencil of class ``name`` of _DUAL on T, k checked against its least k."""
    m = as_operator(t)
    _check_k(name, k)
    return _DUAL[name][2](m, k, operator_norm(m))


def _quasi_pencil(m: np.ndarray, k: int, norm_t: float) -> PencilSpec:
    pk = matrix_power(m, k)
    pk1 = m @ pk
    pk2 = m @ pk1
    a = pk2.conj().T @ pk2
    b = pk1.conj().T @ pk1
    c = pk.conj().T @ pk
    terms = ((0.0, a), (1.0, -2.0 * b), (2.0, c))
    return _pencil(norm_t, terms, 2 * k + 4, f"quasi-paranormal[k={k}]")


def quasi_paranormal_pencil(t, k: int) -> PencilSpec:
    """Quadratic pencil A - 2z B + z^2 C whose global positivity on z > 0 is
    k-quasi-paranormality (k = 0 gives paranormality)."""
    return _public_pencil("KQuasiParanormal", t, k)


def _weighted_pencil(m: np.ndarray, k: int, d: np.ndarray, label: str, norm_t: float) -> PencilSpec:
    """Pencil D - (k+1) lam^k T*T + k lam^(k+1) I. At a unit vector x its
    least value over lam is <Dx,x> - ||Tx||^(2k+2), so D = T*^(k+1) T^(k+1)
    decides k-paranormality and D = T*(T*T)^k T absolute-k-paranormality."""
    gram = m.conj().T @ m
    eye = np.eye(m.shape[0], dtype=np.complex128)
    terms = ((0.0, d), (float(k), -(k + 1.0) * gram), (float(k + 1), float(k) * eye))
    return _pencil(norm_t, terms, 2 * k + 2, label)


def _k_paranormal_pencil(m: np.ndarray, k: int, norm_t: float) -> PencilSpec:
    pk1 = matrix_power(m, k + 1)
    return _weighted_pencil(m, k, pk1.conj().T @ pk1, f"k-paranormal[k={k}]", norm_t)


def k_paranormal_pencil(t, k: int) -> PencilSpec:
    """Pencil T*^(k+1) T^(k+1) - (k+1) lam^k T*T + k lam^(k+1) I."""
    return _public_pencil("KParanormal", t, k)


def _absolute_k_paranormal_pencil(m: np.ndarray, k: int, norm_t: float) -> PencilSpec:
    gram = m.conj().T @ m
    d = m.conj().T @ matrix_power(gram, k) @ m
    return _weighted_pencil(m, k, d, f"absolute-k-paranormal[k={k}]", norm_t)


def absolute_k_paranormal_pencil(t, k: int) -> PencilSpec:
    """Pencil T*(T*T)^k T - (k+1) lam^k T*T + k lam^(k+1) I."""
    return _public_pencil("AbsoluteKParanormal", t, k)


# The oracles' budgets: pencil grid size and refined minima, sphere steps
# and the seeded random starts of the dual predicates.
_N_GRID, _MAX_REFINE, _MAX_ITER, _RESTARTS = 257, 8, 300, 8
# The pencil sweep's first pass eigensolves every _STRIDE-th grid point and
# the last. Its cell bounds are lowered by _MARGIN * dim * eps times
# sum_j lam^e_j ||H_j|| at the cell's right end, which covers the rounding
# of the eigensolves they are built from many times over. A margin 256
# times smaller eigensolves under 1% fewer points of the classify pools.
_STRIDE, _MARGIN, _EPS = 16, 65536.0, float(np.finfo(float).eps)
# The pencil engine eigensolves at most _CHUNK matrices in one call, so that
# the open cells of ten pencils need no more memory than those of one.
_CHUNK = 128
# The sphere's step rule: the growth of a step whose Barzilai-Borwein
# curvature <s,y> is not positive, and the range every accepted step is
# clamped to.
_GROW, _ALPHA_MIN, _ALPHA_MAX = 1.25, 1e-16, 1e16
# The sphere's stop rule, in decision units: a problem stops once its least
# value fell by at most _STALL * tol_decision * scale over the last _WINDOW
# steps, or once every column's next step is shorter than _MIN_STEP. A step
# that overshoots a narrow valley can be rejected 5 or 6 times in a row, so
# a shorter window would stop such a descent short of its minimum. The
# stall is judged per problem on its least value over all columns: once that
# stalls, columns still descending towards a deeper basin stop with it.
_STALL, _WINDOW, _MIN_STEP = 1e-6, 8, 1e-9
# The pencil refinement's golden-section fraction, and its stop rule in
# decision units: a search stops once its parabola predicts a gain of at
# most _GAIN * tol_decision * scale, a hundredth of the margin of a Member.
_GOLDEN, _GAIN = (3.0 - math.sqrt(5.0)) / 2.0, 1e-3


def _brent(a: float, b: float, width: float, gain: float):
    """Brent's search for the least lam -> lam_min(P(lam)) inside (a, b)
    (Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 5),
    as a coroutine: it yields one lambda at a time, is sent its value, and
    returns the best (lam, value) it probed.

    x, w and v are the three best probes. A step goes to the vertex of the
    parabola through them when that lies inside the bracket and moves less
    than half the step before last, and otherwise golden-section into the
    larger side of the bracket around x; no step is shorter than width / 4.
    The search stops once that bracket is at most ``width`` wide, or once the
    parabola is convex and its vertex lies at most ``gain`` below x's value.
    """
    tol = width / 4.0
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = yield x
    step = last = 0.0
    while max(x - a, b - x) > 2.0 * tol:
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        # The parabola's curvature is q / span and its vertex lies
        # p^2 / (q * span) below fx; span is 0 until x, w and v are distinct.
        span = 2.0 * (x - v) * (x - w) * (w - v)
        if span and p * p <= gain * q * span:
            break
        if q > 0.0:
            p = -p
        q = abs(q)
        before, last = last, step
        if abs(before) > tol and abs(p) < abs(0.5 * q * before) and q * (a - x) < p < q * (b - x):
            step = p / q
            if min(x + step - a, b - (x + step)) < 2.0 * tol:
                step = tol if x <= 0.5 * (a + b) else -tol
        else:
            last = (a if x >= 0.5 * (a + b) else b) - x
            step = _GOLDEN * last
        u = x + math.copysign(max(abs(step), tol), step)
        fu = yield u
        # A NaN best value gives way to any probe, so a finite one takes over.
        if fu <= fx or math.isnan(fx):
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def pencil_check(
    pencil: PencilSpec,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    n_grid: int = _N_GRID,
    max_refine: int = _MAX_REFINE,
) -> MembershipVerdict:
    """Global least-eigenvalue certificate for P(lam) >= 0 on the pencil
    domain: the least lambda_min(P(lam)) found on a logarithmic grid of
    ``n_grid`` points, refined around up to ``max_refine`` of its local
    minima, deepest first. The witness is the minimizing lambda and
    eigenvector.
    """
    if not isinstance(pencil, PencilSpec):
        raise InvalidPencil(f"expected PencilSpec, got {type(pencil).__name__}")
    if n_grid < 1 or max_refine < 0:
        raise ValueError(f"need n_grid >= 1 and max_refine >= 0, got {n_grid} and {max_refine}")
    [verdict] = _pencil_verdicts([pencil], n_grid, max_refine, tol)
    return verdict


class _PencilStack:
    """The terms of some pencils of one dimension and one number of terms,
    stacked once: coefficients (pencils, terms, n, n) and exponents
    (pencils, terms)."""

    def __init__(self, pencils):
        self.coefs = np.array([[m for _, m in p.terms] for p in pencils])
        exps = [[float(expo) for expo, _ in p.terms] for p in pencils]
        self.exps = np.array(exps)
        # The terms whose exponent is 0 in every pencil, and the first
        # pencil's exponents.
        self._constant = [not any(col) for col in zip(*exps)]
        self._first = exps[0]

    @functools.cached_property
    def _columns(self):
        """The distinct exponents, and each term's index among them."""
        uniq = sorted(set(self.exps.ravel().tolist()))
        return uniq, np.searchsorted(uniq, self.exps)

    def matrices(self, owner, lams: np.ndarray) -> np.ndarray:
        """P(lams[i]) of pencil owner[i] for every i, shape (len(lams), n, n),
        bit for bit what ``PencilSpec.evaluate`` gives: the same powers, the
        terms added in the same order, then the Hermitian part. ``owner`` is
        an array or a list of pencil indices."""
        # Powers of a scalar exponent, as evaluate takes them: numpy squares
        # at 2.0, where its power of an exponent array rounds differently.
        if len(self.coefs) == 1:
            # One pencil needs no gather: its coefficients broadcast over lams.
            powers = [None if constant else lams**expo
                      for constant, expo in zip(self._constant, self._first)]
            coefs = self.coefs[0]
        else:
            uniq, column = self._columns
            table, at = np.array([lams**expo for expo in uniq]), np.arange(lams.size)
            powers = [table[c, at] for c in column[owner].T]
            coefs = self.coefs[owner].swapaxes(0, 1)
        out = np.zeros((lams.size,) + self.coefs.shape[2:], dtype=np.complex128)
        for constant, power, m in zip(self._constant, powers, coefs):
            # lam^0 is 1, and 1 * m differs from m only in signs of zero,
            # which adding to the zero start erases.
            out += m if constant else power[:, None, None] * m
        out += out.conj().transpose(0, 2, 1)
        out /= 2.0
        return out

    def least(self, owner, lams: np.ndarray) -> np.ndarray:
        """lam_min(P(lams[i])) of pencil owner[i] for every i, eigensolved
        _CHUNK matrices at a time."""
        if lams.size <= _CHUNK:
            return np.linalg.eigvalsh(self.matrices(owner, lams))[:, 0]
        return np.concatenate([self.least(owner[s : s + _CHUNK], lams[s : s + _CHUNK])
                               for s in range(0, lams.size, _CHUNK)])


def _sweep(stack: _PencilStack, lams: np.ndarray):
    """lam -> lam_min(P(lam)) of every pencil of ``stack`` on its grid, row
    p of ``lams`` (pencils, n), eigensolved only where it may lie at or
    below the least value of the pencil's coarse first pass.

    The first pass eigensolves every _STRIDE-th point and the last point of
    every pencil, and the Hermitian parts H_j of their terms, in one stack.
    On the cell [l, r] between two neighbouring first-pass points, Weyl's
    inequality gives for every lam in it

        lam_min(P(lam)) >= f(l) + sum_j (lam^e_j - l^e_j) lam_min(H_j),
        lam_min(P(lam)) >= f(r) + sum_j (lam^e_j - r^e_j) lam_max(H_j).

    Every term is monotone in lam, so on each grid step it is bounded by the
    lesser of its values at the step's ends, and the bound holds between the
    grid points too. A cell whose bound, less the rounding margin, lies
    above the pencil's least first-pass value on every step holds no grid
    minimum and no lambda a refinement could improve with, so it is skipped.
    The bounds of all pencils are computed together. The other cells are
    eigensolved, with one point beyond each end, so that the local minima
    found in them are those of the full grid; the open points of all
    pencils share one eigensolve per _CHUNK matrices.

    Returns (values, evaluated, local), each of ``lams``'s shape: the values
    with +inf at the skipped points, the mask of eigensolved points, and the
    mask of the local grid minima among the points whose neighbours were
    eigensolved too. Each pencil's rows are those it gets alone.
    """
    count, n = lams.shape
    # The first-pass points, and for every step s, from point s to s + 1,
    # its cell s // _STRIDE and that cell's left and right first-pass points.
    coarse = np.minimum(np.arange(0, n + _STRIDE - 1, _STRIDE), n - 1)
    cell = np.arange(n - 1) // _STRIDE
    left, right = coarse[cell], coarse[cell + 1]
    coefs = stack.coefs
    herm = (coefs + coefs.conj().transpose(0, 1, 3, 2)) / 2.0
    first = stack.matrices(np.arange(count * coarse.size) // coarse.size,
                           lams.take(coarse, 1).ravel())
    eig = np.linalg.eigvalsh(np.concatenate([first, herm.reshape((-1,) + herm.shape[2:])]))
    first_mins = eig[: first.shape[0], 0].reshape(count, -1)
    mins, evaluated = np.full(lams.shape, np.inf), np.zeros(lams.shape, dtype=bool)
    mins[:, coarse], evaluated[:, coarse] = first_mins, True
    spectra = eig[first.shape[0] :].reshape(count, -1, eig.shape[-1])
    least_h, most_h = spectra[:, :, :1], spectra[:, :, -1:]
    powers = lams[:, :, None] ** stack.exps[:, None, :]

    def from_end(end, extreme):
        # A term rises with lam where its extreme is >= 0, so it is least at
        # the left end of a step there and at the right end elsewhere.
        least = np.where(extreme.transpose(0, 2, 1) >= 0, powers[:, :-1], powers[:, 1:])
        at_end = (powers @ extreme)[..., 0].take(end, 1)
        return mins.take(end, 1) + (least @ extreme)[..., 0] - at_end

    size = (powers @ np.maximum(-least_h, most_h))[..., 0]
    floor = np.maximum(from_end(left, least_h), from_end(right, most_h))
    floor -= _MARGIN * coefs.shape[-1] * _EPS * size.take(right, 1)
    # A NaN bound leaves its cell open.
    least_coarse = first_mins.min(axis=1, keepdims=True)
    open_step = ~(np.minimum.reduceat(floor, coarse[:-1], axis=1) > least_coarse).take(cell, 1)
    # Step s opens points s and s + 1, and s - 1 and s + 2 beyond them;
    # reach[:, i + 1] is point i.
    reach = np.zeros((count, n + 2), dtype=bool)
    for shift in range(4):
        reach[:, shift : shift + n - 1] |= open_step
    need = reach[:, 1:-1] & ~evaluated
    if need.any():
        mins[need] = stack.least(need.nonzero()[0], lams[need])
        evaluated |= need
    padded, known = np.full((count, n + 2), np.inf), np.ones((count, n + 2), dtype=bool)
    padded[:, 1:-1], known[:, 1:-1] = mins, evaluated
    local = evaluated & known[:, :-2] & known[:, 2:]
    local &= (mins <= padded[:, :-2]) & (mins <= padded[:, 2:])
    return mins, evaluated, local


def _pencil_verdicts(pencils, n_grid: int, max_refine: int, tol: TolerancePolicy) -> list:
    """The verdicts of some pencils of one dimension and one number of
    terms, on the least (lambda, lambda_min(P(lambda))) found on each.

    The pencils' terms are stacked once (``_PencilStack``) and swept
    together, each on its own grid (see ``_sweep``); pencils with one domain
    share its ``geomspace``. The grid minimum and every refined minimum are
    those of the full sweep, except that local minima in skipped cells,
    which lie above the grid minimum, take none of the ``max_refine`` slots.
    The Brent searches of all pencils then share one stacked build and
    eigensolve per round, one lambda per search; each stops in decision
    units of its pencil's scale (see ``_brent``), and each pencil merges
    only its own. The witness eigenvectors come from one more build on the
    same stack, at every pencil's least lambda, and one stacked eigh. Every
    verdict is the one the pencil gets alone.
    """
    stack, grids = _PencilStack(pencils), {}
    for pencil in pencils:
        domain = (pencil.lambda_lo, pencil.lambda_max)
        if domain not in grids:
            grids[domain] = np.geomspace(*domain, n_grid)
    lams = np.array([grids[pencil.lambda_lo, pencil.lambda_max] for pencil in pencils])
    mins, _, local = _sweep(stack, lams)
    bests, searches = [], []  # searches: (pencil index, Brent coroutine)
    for p, (pencil, grid, values) in enumerate(zip(pencils, lams, mins)):
        best = int(np.argmin(values))
        bests.append((float(grid[best]), float(values[best])))
        width, gain = 1e-6 * pencil.lambda_max, _GAIN * tol.tol_decision * pencil.scale
        # The bracket ends are grid points, so neither can beat the grid
        # minimum; a search only has to track the points it probes inside.
        # The stable sort orders equal minima by lambda, whichever cells the
        # sweep skipped.
        own = local[p].nonzero()[0]
        for idx in own[np.argsort(values[own], kind="stable")][:max_refine].tolist():
            a, b = float(grid[max(idx - 1, 0)]), float(grid[min(idx + 1, n_grid - 1)])
            if b - a > width:
                searches.append((p, _brent(a, b, width, gain)))
    asks = {i: next(search) for i, (_, search) in enumerate(searches)}
    found = [None] * len(searches)
    while asks:
        live = list(asks)
        vals = stack.least([searches[i][0] for i in live], np.array(list(asks.values())))
        for i, val in zip(live, vals.tolist()):
            try:
                asks[i] = searches[i][1].send(val)
            except StopIteration as done:
                found[i] = done.value
                del asks[i]
    # Deepest first, and only a strictly smaller value replaces the best.
    for (p, _), (lam, val) in zip(searches, found):
        if val < bests[p][1]:
            bests[p] = (lam, val)
    best_lams = np.array([lam for lam, _ in bests])
    _, vecs = np.linalg.eigh(stack.matrices(np.arange(len(pencils)), best_lams))
    verdicts = []
    for pencil, (lam, val), v in zip(pencils, bests, vecs):
        status, threshold = _decide(val, pencil.scale, tol)
        verdicts.append(MembershipVerdict(
            status=status, defect=val, oracle="pencil",
            witness=Witness(vector=v[:, 0], pencil_lambda=lam), threshold=threshold,
        ))
    return verdicts


# ---------------------------------------------------------------------------
# Sphere oracle
# ---------------------------------------------------------------------------


def _central_gradient(f, dim: int):
    """Values of the batched defect ``f`` and its gradient by central
    differences along every real and imaginary coordinate of every column,
    renormalized to the sphere: 4 * dim more evaluations per column."""
    h = 5e-6
    eye = np.eye(dim)
    steps = h * np.concatenate([eye, -eye, 1j * eye, -1j * eye], axis=1)

    def value_and_gradient(x: np.ndarray):
        flat = (x[:, :, None] + steps[:, None, :]).reshape(dim, -1)
        flat = flat / np.linalg.norm(flat, axis=0, keepdims=True)
        vals = f(flat).reshape(x.shape[1], 4, dim)
        grad = ((vals[:, 0, :] - vals[:, 1, :]) + 1j * (vals[:, 2, :] - vals[:, 3, :])).T
        return f(x), grad / (2.0 * h)

    return value_and_gradient


def sphere_check(
    defect,
    dim: int,
    restarts: int = 8,
    *,
    seed: int = 0,
    warm_starts: np.ndarray | None = None,
    scale: float = 1.0,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    value_and_gradient=None,
) -> MembershipVerdict:
    """Minimize a continuous defect over the unit sphere of C^dim.

    ``defect`` maps a (dim, n) batch of unit columns to an array of their
    values, shape (n,); a ValueError names this contract if it returns
    anything else on the start columns. ``scale`` must be finite and positive.

    Projected gradient descent runs from ``restarts`` seeded random starts
    (stream ``seed + index``) plus every standard basis vector and any
    supplied warm starts (finite nonzero columns of a (dim, n) array).
    Restarts are reduced by minimum, so the result does not depend on
    evaluation order.

    Each column takes Barzilai-Borwein steps and moves only when its value
    falls. The descent stops in decision units: once its least value fell
    by at most 1e-6 * tol_decision * ``scale`` over the last 8 steps, once
    every column's next step is shorter than 1e-9, or after 300 steps.

    ``value_and_gradient``, when given, maps a (dim, n) batch of unit columns
    to the values of ``defect``, shape (n,), and its Euclidean gradient,
    shape (dim, n), in the d/dRe + i d/dIm convention. Each step calls it
    once, at the trial point, and projects the gradient onto the tangent
    space of the sphere, g - Re(x^H g) x. Without it, the gradient is
    estimated by central differences, 4 * dim defect evaluations per column.
    The descent runs as a stack of one problem, columns (1, dim, n).
    """
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    x = _starts(dim, restarts, seed, warm_starts)
    shape = getattr(defect(x), "shape", None)
    if shape != (x.shape[1],):
        raise ValueError(f"defect must map a (dim, n) batch to an array of shape (n,), got {shape}")
    if value_and_gradient is None:
        value_and_gradient = _central_gradient(defect, dim)

    def one_problem(stack: np.ndarray):
        vals, grad = value_and_gradient(stack[0])
        return vals[None], grad[None]

    [(val, vec)] = _descend(one_problem, x[None], [tol.tol_decision * scale],
                            lambda rows: one_problem)
    return _sphere_verdict(val, vec, scale, tol, seed)


def _sphere_verdict(val: float, vec: np.ndarray, scale: float, tol: TolerancePolicy, seed: int):
    status, threshold = _decide(val, scale, tol)
    return MembershipVerdict(
        status=status, defect=val, oracle="sphere", witness=Witness(vector=vec),
        threshold=threshold, seed=seed,
    )


def _starts(dim: int, restarts: int, seed: int, warm_starts) -> np.ndarray:
    """The sphere's start columns, shape (dim, n): the standard basis, the
    normalized warm starts, then ``restarts`` seeded random unit vectors."""
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    starts = [np.eye(dim, dtype=np.complex128)]
    if warm_starts is not None and np.size(warm_starts):
        ws = np.asarray(warm_starts, dtype=np.complex128)
        shaped = ws.ndim == 2 and ws.shape[0] == dim and np.isfinite(ws).all()
        norms = np.linalg.norm(ws, axis=0, keepdims=True) if shaped else np.nan
        if not np.all(np.isfinite(norms) & (norms > 0)):
            raise ValueError(f"warm_starts must be a ({dim}, n) array of finite nonzero columns")
        starts.append(ws / norms)
    rand = np.empty((dim, restarts), dtype=np.complex128)
    for i in range(restarts):
        g = make_rng(seed, i)
        z = g.standard_normal(dim) + 1j * g.standard_normal(dim)
        rand[:, i] = z / np.linalg.norm(z)
    starts.append(rand)
    return np.concatenate(starts, axis=1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real inner products Re(a^H b) of the columns of a and b."""
    return np.add.reduce((a.conj() * b).real, axis=-2)


def _tangent(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Projection of Euclidean gradients onto the sphere's tangent space at
    the unit columns of x: g - Re(x^H g) x."""
    return grad - _dot(x, grad)[..., None, :] * x


def _descend(value_and_gradient, x: np.ndarray, band, take) -> list:
    """Projected gradient descent from every column of a stack of problems,
    x of shape (problems, dim, n).

    ``value_and_gradient`` maps x to values, shape (problems, n), and
    Euclidean gradients of x's shape. Every column keeps its own step and
    moves only when its trial lowers its value. After such a step it takes
    the Barzilai-Borwein step <s,s>/<s,y> (real inner products, s the move,
    y the change of the tangent gradient), or grows by _GROW when
    <s,y> <= 0, clamped to [_ALPHA_MIN, _ALPHA_MAX]; after a rejected trial
    it halves. ``band`` holds each problem's decision threshold
    tol_decision * scale. A problem stops once its least
    value fell by at most _STALL * band over the last _WINDOW steps, or once
    every column's next step, alpha * |tangent gradient|, is below
    _MIN_STEP; it then leaves the stack, and ``take`` maps the indices of
    the problems left to their own ``value_and_gradient``.
    Returns each problem's least value and its column: on a tie the one
    reached at the earliest step, then the lowest column, so the result does
    not depend on which problems share the stack.
    """
    fx, grad = value_and_gradient(x)
    tangent = _tangent(x, grad)
    alpha = np.full(fx.shape, 0.25)
    stamp = np.zeros(fx.shape, dtype=np.intp)  # step of each column's last improvement
    floor = _STALL * np.asarray(band, dtype=float)
    # Each problem's least value _WINDOW steps ago; slot step % _WINDOW.
    history = np.full((len(x), _WINDOW), np.inf)
    history[:, 0] = np.fmin.reduce(fx, axis=-1)
    rows = np.arange(len(x))
    best: list = [None] * rows.size

    def finish(done):
        for r in np.flatnonzero(done):
            f, s = fx[r], stamp[r]
            c = int(f.argmin())
            if not np.isnan(f[c]):  # a NaN start is never improved on
                ties = np.flatnonzero(f == f[c])
                c = int(ties[s[ties].argmin()])
            best[rows[r]] = (float(f[c]), x[r, :, c].copy())

    for step in range(1, _MAX_ITER + 1):
        trial = x - alpha[..., None, :] * tangent
        # x is a unit vector and the step is tangent to the sphere, so no norm is 0.
        trial /= np.sqrt(_dot(trial, trial))[..., None, :]
        ft, gt = value_and_gradient(trial)
        tangent_t = _tangent(trial, gt)

        # A rejected column keeps its point, value and tangent gradient.
        improved = ft < fx
        if improved.any():
            s, y = trial - x, tangent_t - tangent
            sy = _dot(s, y)
            bb = np.divide(_dot(s, s), sy, out=alpha * _GROW, where=sy > 0)
            alpha = np.where(improved, np.clip(bb, _ALPHA_MIN, _ALPHA_MAX), alpha * 0.5)
            cols = improved[..., None, :]
            x, tangent = np.where(cols, trial, x), np.where(cols, tangent_t, tangent)
            fx, stamp = np.where(improved, ft, fx), np.where(improved, step, stamp)
        else:
            alpha = alpha * 0.5

        least, slot = np.fmin.reduce(fx, axis=-1), step % _WINDOW
        stalled = history[:, slot] - least <= floor
        history[:, slot] = least
        # A NaN column cannot move, so it counts as stopped.
        moving = alpha * np.sqrt(_dot(tangent, tangent)) >= _MIN_STEP
        done = stalled | ~moving.any(-1)  # per problem
        if done.any():
            finish(done)
            keep = np.flatnonzero(~done)
            if not keep.size:
                return best
            x, fx, tangent, alpha, stamp, history, floor = (
                a.take(keep, 0) for a in (x, fx, tangent, alpha, stamp, history, floor)
            )
            rows = rows[keep]
            value_and_gradient = take(rows)
    finish(np.ones(rows.size, dtype=bool))
    return best


# ---------------------------------------------------------------------------
# Algebraic predicates
# ---------------------------------------------------------------------------


def is_normal(t, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> MembershipVerdict:
    """T*T = TT* within tol_eq relative to max(1, ||T||^2)."""
    m = as_operator(t)
    # The scale goes first: it rejects a T whose products would overflow.
    scale = _scale(operator_norm(m), 2)
    comm = m.conj().T @ m - m @ m.conj().T
    return _equality_verdict(finite_frobenius_norm(comm), scale, tol)


def is_quasinormal(t, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> MembershipVerdict:
    """T commutes with T*T."""
    m = as_operator(t)
    scale = _scale(operator_norm(m), 3)
    resid = m @ m.conj().T @ m - m.conj().T @ m @ m
    return _equality_verdict(finite_frobenius_norm(resid), scale, tol)


def quasinormal_embry(
    t, kmax: int, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> MembershipVerdict:
    """Power-moment characterization: (T*)^k T^k = (T*T)^k for k = 2..kmax."""
    if kmax < 2:
        raise ValueError("kmax must be at least 2")
    m = as_operator(t)
    norm_t = operator_norm(m)
    worst = -np.inf
    status = Status.MEMBER
    threshold = tol.tol_eq * _scale(norm_t, 4)
    gram = m.conj().T @ m
    for k in range(2, kmax + 1):
        scale_k = _scale(norm_t, 2 * k)
        pk = matrix_power(m, k)
        resid = finite_frobenius_norm(pk.conj().T @ pk - matrix_power(gram, k))
        if resid > tol.tol_eq * scale_k:
            status = Status.NON_MEMBER
        if resid > worst:
            worst = resid
            threshold = tol.tol_eq * scale_k
    return MembershipVerdict(
        status=status, defect=-worst, oracle="algebraic", threshold=threshold
    )


def is_hyponormal(t, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> MembershipVerdict:
    """T*T - TT* positive semidefinite."""
    m = as_operator(t)
    scale = _scale(operator_norm(m), 2)
    diff = m.conj().T @ m - m @ m.conj().T
    return _psd_verdict(diff, scale, tol)


def is_p_hyponormal(
    t, p: float, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> MembershipVerdict:
    """(T*T)^p - (TT*)^p positive semidefinite, 0 < p <= 1."""
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    m = as_operator(t)
    if _zero_operator(m):
        return _member_zero()
    scale = _scale(operator_norm(m), 2 * p)
    diff = psd_power(m.conj().T @ m, p, tol) - psd_power(m @ m.conj().T, p, tol)
    return _psd_verdict(diff, scale, tol)


def is_class_a(t, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> MembershipVerdict:
    """((T*)^2 T^2)^(1/2) - T*T positive semidefinite."""
    m = as_operator(t)
    if _zero_operator(m):
        return _member_zero()
    scale = _scale(operator_norm(m), 2)
    m2 = m @ m
    diff = psd_power(m2.conj().T @ m2, 0.5, tol) - m.conj().T @ m
    return _psd_verdict(diff, scale, tol)


def is_normaloid(t, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> MembershipVerdict:
    """Spectral radius equals operator norm.

    Cross-checked against the power-norm identity ||T^n|| = ||T||^n for
    n = 2..6; a clash between the two demotes the verdict to Inconclusive.
    """
    m = as_operator(t)
    if _zero_operator(m):
        return _member_zero()
    norm_t = operator_norm(m)
    defect = spectral_radius(m) - norm_t
    scale = max(1.0, norm_t)
    threshold = tol.tol_decision * scale
    primary = Status.MEMBER if defect >= -threshold else Status.NON_MEMBER

    powers_ok = True
    for n in range(2, 7):
        lhs = operator_norm(matrix_power(m, n))
        rhs = norm_t**n
        if abs(lhs - rhs) > tol.tol_decision * max(1.0, rhs):
            powers_ok = False
            break
    cross = Status.MEMBER if powers_ok else Status.NON_MEMBER
    status = primary if primary is cross else Status.INCONCLUSIVE
    return MembershipVerdict(
        status=status, defect=defect, oracle="algebraic", threshold=threshold
    )


# ---------------------------------------------------------------------------
# Dual-oracle predicates
# ---------------------------------------------------------------------------


class _NormProductDefect:
    """Defect prod_i ||P_i x||^a_i - prod_j ||N_j x||^b_j of one or more
    problems, built by ``of`` from each problem's (pos, neg) lists of
    (matrix, exponent).

    The matrices are stacked once into (problems, rows, dim), so a batch of
    values costs one product and ``value_and_gradient`` adds one with the
    stacked adjoint. A problem with fewer terms on a side than another is
    padded with zero matrices of exponent 0: their factor is exactly 1 and
    their gradient coefficient 0, so padding changes no bit. The Euclidean
    gradient of ||M x|| is M*M x / ||M x||; a term with M x = 0 gets
    coefficient 0, the symmetric value central differences give at that
    kink.
    """

    def __init__(self, stack: np.ndarray, exps: np.ndarray, n_pos: int):
        # stack (problems, terms * rows, dim), exps (problems, terms, 1), positive side first.
        self._bounds = (0, n_pos)  # each side's terms, for multiply.reduceat
        self._side = (np.arange(exps.shape[1]) >= n_pos).astype(np.intp)  # each term's side
        self._stack, self._exps = stack, exps
        self._signed = np.where(self._side[:, None] == 0, exps, -exps)
        self._adjoint = stack.conj().transpose(0, 2, 1)

    @classmethod
    def of(cls, *problems) -> "_NormProductDefect":
        n_pos, n_neg = (max(len(side[i]) for side in problems) for i in (0, 1))
        zero = (np.zeros_like(problems[0][1][0][0]), 0)
        rows = [
            (*pos, *[zero] * (n_pos - len(pos)), *neg, *[zero] * (n_neg - len(neg)))
            for pos, neg in problems
        ]
        stack = np.array([np.vstack([m for m, _ in terms]) for terms in rows])
        exps = np.array([[e for _, e in terms] for terms in rows], dtype=float)[:, :, None]
        return cls(stack, exps, n_pos)

    def take(self, rows) -> "_NormProductDefect":
        """The defect of the problems at ``rows`` alone, padded as before."""
        return _NormProductDefect(self._stack.take(rows, 0), self._exps.take(rows, 0),
                                  self._bounds[1])

    def _eval(self, x: np.ndarray):
        y = (self._stack @ x).reshape(self._exps.shape[:-1] + (-1, x.shape[-1]))
        sq = np.add.reduce((y.conj() * y).real, axis=-2)
        powers = np.sqrt(sq) ** self._exps
        # The positive and the negative side's products, shape (problems, 2, n).
        return y, sq, np.multiply.reduceat(powers, self._bounds, axis=-2)

    def __call__(self, x):
        """Values of a one-problem defect at a unit vector, or at the columns
        of a (dim, n) batch, shape (n,)."""
        cols = np.asarray(x, dtype=np.complex128)
        single = cols.ndim == 1
        [(pos, neg)] = self._eval(cols[:, None] if single else cols)[2]
        return float(pos[0] - neg[0]) if single else pos - neg

    def value_and_gradient(self, x: np.ndarray):
        """Values and Euclidean gradients (d/dRe + i d/dIm) of every column
        of x, (problems, dim, n), from one stacked product: values of shape
        (problems, n), gradients of x's shape. A one-problem defect also
        takes a (dim, n) batch, for values (n,) and gradients (dim, n)."""
        y, sq, sides = self._eval(x)
        # Term i contributes +-a_i * (its side's product) / ||M_i x||^2 * M_i* M_i x.
        side = sides[:, self._side, :]
        coef = np.divide(self._signed * side, sq, out=np.zeros(sq.shape), where=sq > 0)
        grad = self._adjoint @ (coef[..., None, :] * y).reshape(len(y), -1, y.shape[-1])
        vals = sides[:, 0, :] - sides[:, 1, :]
        return vals.reshape(x.shape[:-2] + x.shape[-1:]), grad.reshape(x.shape)


def _quasi_terms(m: np.ndarray, k: int, tol: TolerancePolicy):
    pk = matrix_power(m, k)
    pk1 = m @ pk
    pk2 = m @ pk1
    return ((pk2, 1), (pk, 1)), ((pk1, 2),)


def _k_paranormal_terms(m: np.ndarray, k: int, tol: TolerancePolicy):
    return ((matrix_power(m, k + 1), 1),), ((m, k + 1),)


def _absolute_k_paranormal_terms(m: np.ndarray, k: int, tol: TolerancePolicy):
    mod_k = psd_power(m.conj().T @ m, k / 2.0, tol)
    return ((mod_k @ m, 1),), ((m, k + 1),)


def _warm_starts(m: np.ndarray) -> np.ndarray:
    _, _, vh = np.linalg.svd(m)
    return vh.conj().T


def _reconcile(
    sphere: MembershipVerdict, pencil: MembershipVerdict, defect_fn, label: str
) -> MembershipVerdict:
    """Combine the two oracle verdicts into a single class verdict.

    The reported defect is always the exact defining-inequality value, and
    every NonMember verdict carries a witness that has been re-evaluated
    through that inequality. Decisively opposite oracles raise
    OracleDisagreement instead of picking a side: a definite verdict is
    decisive when its defect exceeds ten times its own threshold. The
    combined verdict takes the sphere's threshold and seed.
    """
    if (
        sphere.is_definite
        and pencil.is_definite
        and sphere.status is not pencil.status
        and abs(sphere.defect) > 10.0 * sphere.threshold
        and abs(pencil.defect) > 10.0 * pencil.threshold
    ):
        raise OracleDisagreement(
            f"{label}: sphere says {sphere.status.value} (defect {sphere.defect:.3e}) "
            f"but pencil says {pencil.status.value} (defect {pencil.defect:.3e})"
        )
    certified = []
    for claim in (sphere, pencil):
        if claim.status is Status.NON_MEMBER:
            vec = claim.witness.vector / np.linalg.norm(claim.witness.vector)
            exact = float(defect_fn(vec))
            if exact <= -sphere.threshold:
                witness = Witness(vector=vec, pencil_lambda=claim.witness.pencil_lambda)
                certified.append((exact, claim.oracle, witness))
    if certified:
        # The deepest certified witness; min keeps the sphere's on a tie.
        status = Status.NON_MEMBER
        defect, oracle, witness = min(certified, key=lambda c: c[0])
    else:
        # A NonMember claim whose witness failed re-validation leaves the
        # verdict Inconclusive, even when the other oracle says Member.
        claims = {sphere.status, pencil.status}
        member = Status.MEMBER in claims and Status.NON_MEMBER not in claims
        status = Status.MEMBER if member else Status.INCONCLUSIVE
        defect, oracle, witness = sphere.defect, "sphere", sphere.witness
    return MembershipVerdict(
        status=status, defect=defect, oracle=oracle, witness=witness,
        threshold=sphere.threshold, seed=sphere.seed,
    )


# The classes both oracles decide, by OperatorClass name: the least k, the
# builder (m, k, tol) of the sphere defect's terms, the pencil builder
# (m, k, ||T||) and the degree in k of the sphere defect's scale.
_DUAL = {
    "KQuasiParanormal": (0, _quasi_terms, _quasi_pencil, lambda k: 2 * k + 2),
    "KParanormal": (1, _k_paranormal_terms, _k_paranormal_pencil, lambda k: k + 1),
    "AbsoluteKParanormal": (
        1, _absolute_k_paranormal_terms, _absolute_k_paranormal_pencil, lambda k: k + 1
    ),
}


def _check_k(name: str, k: int) -> None:
    least = _DUAL[name][0]
    if k < least:
        raise ValueError("k must be nonnegative" if least == 0 else "k must be a positive integer")


def _dual_verdicts(t, problems, tol: TolerancePolicy, seed: int) -> list:
    """Decide every (class name, k) of ``problems`` on T by both oracles.

    T's norm, SVD warm starts and seeded starts are computed once; the
    pencils are built on that norm. One descent runs over the columns of all
    problems, one block each, and the pencils are swept and refined as one
    stack (see ``_pencil_verdicts``). Each problem gets the
    verdict it gets alone, so the predicates are the one-problem case.
    """
    m = as_operator(t)
    for name, k in problems:
        _check_k(name, k)
    if _zero_operator(m):
        return [_member_zero() for _ in problems]
    norm_t = operator_norm(m)
    scales = [_scale(norm_t, _DUAL[name][3](k)) for name, k in problems]
    defect = _NormProductDefect.of(*(_DUAL[name][1](m, k, tol) for name, k in problems))
    pencils = [_DUAL[name][2](m, k, norm_t) for name, k in problems]
    x = np.repeat(_starts(m.shape[0], _RESTARTS, seed, _warm_starts(m))[None], len(problems), 0)
    bands = tol.tol_decision * np.array(scales)
    spheres = _descend(defect.value_and_gradient, x, bands,
                       lambda rows: defect.take(rows).value_and_gradient)
    return [
        _reconcile(_sphere_verdict(val, vec, scale, tol, seed), verdict, defect.take([p]),
                   pencil.label)
        for p, ((val, vec), scale, pencil, verdict) in enumerate(
            zip(spheres, scales, pencils, _pencil_verdicts(pencils, _N_GRID, _MAX_REFINE, tol))
        )
    ]


def is_k_quasi_paranormal(
    t,
    k: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    seed: int = 0,
) -> MembershipVerdict:
    """||T^(k+1) x||^2 <= ||T^(k+2) x|| ||T^k x|| for all x; k = 0 is
    paranormality. Decided by both oracles."""
    return _dual_verdicts(t, [("KQuasiParanormal", k)], tol, seed)[0]


def is_k_paranormal(
    t,
    k: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    seed: int = 0,
) -> MembershipVerdict:
    """||T x||^(k+1) <= ||T^(k+1) x|| on unit vectors, via the closed-form
    inner minimization of the pencil over its parameter."""
    return _dual_verdicts(t, [("KParanormal", k)], tol, seed)[0]


def is_absolute_k_paranormal(
    t,
    k: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    seed: int = 0,
) -> MembershipVerdict:
    """|| |T|^k T x || >= ||T x||^(k+1) on unit vectors, |T| = (T*T)^(1/2)."""
    return _dual_verdicts(t, [("AbsoluteKParanormal", k)], tol, seed)[0]


# ---------------------------------------------------------------------------
# Aggregate classification
# ---------------------------------------------------------------------------

DEFAULT_K_LIST = (1, 2, 3)
DEFAULT_P_LIST = (0.5,)


def classify_all(
    t,
    k_list=DEFAULT_K_LIST,
    p_list=DEFAULT_P_LIST,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    seed: int = 0,
) -> dict[OperatorClass, MembershipVerdict]:
    """Run every class predicate; keys follow the inclusion-chain order."""
    m = as_operator(t)
    k_list = tuple(k_list)
    if not all(float(k).is_integer() for k in k_list):
        raise ValueError(f"every k must be an integer, got {list(k_list)}")
    if any(k < 0 for k in k_list):
        raise ValueError(f"every k must be nonnegative, got {list(k_list)}")
    ks = tuple(k for k in map(int, k_list) if k >= 1)
    ps = tuple(float(p) for p in p_list)
    out: dict[OperatorClass, MembershipVerdict] = {}
    out[OperatorClass("Normal")] = is_normal(m, tol)
    out[OperatorClass("Quasinormal")] = is_quasinormal(m, tol)
    out[OperatorClass("Hyponormal")] = is_hyponormal(m, tol)
    for p in ps:
        out[OperatorClass("PHyponormal", p=p)] = is_p_hyponormal(m, p, tol)
    out[OperatorClass("ClassA")] = is_class_a(m, tol)
    # Paranormality is k-quasi-paranormality at k = 0; all dual classes of
    # the matrix are decided together.
    problems = [("KQuasiParanormal", 0)] + [
        (name, k) for name in ("KParanormal", "AbsoluteKParanormal", "KQuasiParanormal") for k in ks
    ]
    keys = [OperatorClass("Paranormal")] + [OperatorClass(name, k=k) for name, k in problems[1:]]
    out.update(zip(keys, _dual_verdicts(m, problems, tol, seed)))
    out[OperatorClass("Normaloid")] = is_normaloid(m, tol)
    return out


def chain_violations(verdicts: dict[OperatorClass, MembershipVerdict]) -> list[str]:
    """Inclusion-chain consistency over definite verdicts.

    Checks the main chain normal -> quasinormal -> hyponormal ->
    p-hyponormal -> class A -> paranormal -> normaloid, the two k-indexed
    chains paranormal -> {k-paranormal, absolute-k-paranormal} -> normaloid,
    and monotonicity of k-quasi-paranormality in k. Inconclusive verdicts
    never participate.
    """

    def status(cls: OperatorClass) -> Status | None:
        v = verdicts.get(cls)
        return v.status if v is not None else None

    def implies(a: OperatorClass, b: OperatorClass, out: list[str]) -> None:
        sa, sb = status(a), status(b)
        if sa is Status.MEMBER and sb is Status.NON_MEMBER:
            out.append(f"{a} is Member but {b} is NonMember")

    problems: list[str] = []
    para, normaloid = OperatorClass("Paranormal"), OperatorClass("Normaloid")
    chain = [OperatorClass(name) for name in ("Normal", "Quasinormal", "Hyponormal")]
    chain += sorted(c for c in verdicts if c.name == "PHyponormal")
    chain += [OperatorClass("ClassA"), para]
    present = [c for c in chain if c in verdicts]
    for a, b in zip(present, present[1:]):
        implies(a, b, problems)
    if para in verdicts and normaloid in verdicts:
        implies(para, normaloid, problems)

    for name in ("KParanormal", "AbsoluteKParanormal"):
        for cls in sorted(c for c in verdicts if c.name == name):
            implies(para, cls, problems)
            implies(cls, normaloid, problems)

    quasi = sorted(c for c in verdicts if c.name == "KQuasiParanormal")
    for cls in quasi:
        implies(para, cls, problems)
    for i, a in enumerate(quasi):
        for b in quasi[i + 1 :]:
            implies(a, b, problems)
    return problems
