"""Operator-class membership oracles.

Each class predicate reports a MembershipVerdict with a signed defect
(negative means the defining inequality is violated), an independently
checkable witness for non-membership, and the oracle that produced the
number. The inequality-defined classes (paranormal and its k-indexed
relatives) are decided by two independent routes:

* a pencil oracle that sweeps the least eigenvalue of a parameterized
  Hermitian pencil over a logarithmic grid. The sweep eigensolves a coarse
  pass, then bisects only the grid cells that a chord bound cannot place
  above the least value found so far: the least eigenvalue of an affine
  Hermitian family is concave, and Weyl's inequality covers each term's
  distance from its chord. Each pencil's common kernel, where all its
  terms vanish and no cell could close, is deflated before the sweep, and
  such a pencil reports at most 0. The sweep is refined around its deepest local
  grid minima by Brent's parabolic and golden-section search, which
  stops in decision units: once its parabola predicts a gain of at most a
  thousandth of the decision band tol_decision * scale. The pencils of
  one call, of one matrix or of many, are stacked once and swept and
  refined together, and the witness eigenvectors are built from the same
  stack, each pencil with the values it gets alone; in the dual engine a
  pencil leaves the stack after the sweep's first pass once its
  eigenvector there proves NonMember (see below),
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
the two oracles decide the same set. The pencil runs first: one unit vector
that breaks the defining inequality proves NonMember, however deep the
pencil's minimum lies. So the dual engine checks the eigenvector at each
pencil's least first-pass point, and a pencil whose vector proves
NonMember is the verdict there, with the defining value at that vector as
defect: it is neither bisected nor refined. The other pencils are swept
and refined, a pencil NonMember whose refined eigenvector proves it is the
verdict, and only the problems left descend on the sphere; every value of
one call reads one stack of its defining defects. The public
``pencil_check`` has no defining defect, so it sweeps and refines every
pencil. Where both oracles ran, a decisive disagreement is surfaced as
OracleDisagreement rather than resolved silently.

One call of ``classify_all`` or of the dual engine derives what its
verdicts share once per distinct T: ||T||, which the class scales, the
pencils and the algebraic predicates' private cores all read (the public
predicates take it themselves); one SVD T = U S V*, from which every
absolute-k sphere root |T|^k = V S^k V* and the sphere's warm starts V
are read, as are p-hyponormality's roots in ``classify_all``; and one
check of the terms of all its pencils, as one stack, by the checks of
PencilSpec. A root of the Gram T*T would lose the singular values of T
below about ||T|| sqrt(eps).

Decision semantics: with d the defect normalized by the class scale and
t = tol_decision, a verdict is Member when d >= -t/10, NonMember when
d <= -t (witness re-validated through the defining inequality), and
Inconclusive inside the band in between, which is the optimizer and
eigensolver noise floor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from numbers import Integral

import numpy as np

from .errors import InvalidPencil, OracleDisagreement
from .generators import make_rng
from .linalg import (
    DEFAULT_TOLERANCES,
    TolerancePolicy,
    as_operator,
    finite_frobenius_norm,
    hermitian_eigen,
    matrix_power,
    operator_norm,
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
        elif self.p is not None or not isinstance(self.k, Integral) or self.k < takes:
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


def _psd_verdict(diff: np.ndarray, scale: float, tol: TolerancePolicy) -> MembershipVerdict:
    # diff is Hermitian by construction but rounded at about ||T||^2 eps; its
    # Hermitian part passes hermitian_eigen's check, which returns it unchanged.
    eig = hermitian_eigen((diff + diff.conj().T) / 2.0, tol)
    lam_min = float(eig.eigenvalues[0])
    threshold = tol.tol_psd * scale
    status = Status.MEMBER if lam_min >= -threshold else Status.NON_MEMBER
    witness = Witness(vector=eig.eigenvectors[:, 0]) if status is Status.NON_MEMBER else None
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
        exps = np.array([[float(expo) for expo, _ in self.terms]])
        _check_terms([self.terms], exps, np.array([[m for _, m in self.terms]]))

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


def _check_terms(terms, exps: np.ndarray, coefs: np.ndarray) -> None:
    """The term checks of PencilSpec, on the terms of one or more pencils:
    ``terms`` holds each pencil's (exponent, matrix) pairs, ``exps`` their
    exponents as floats, (pencils, terms), and ``coefs`` their matrices
    stacked, (pencils, terms, n, n) when they are square. Each check runs
    once over all terms; the first failing term, pencil by pencil, raises
    InvalidPencil with its first failing check."""
    coefs = np.asarray(coefs, dtype=np.complex128)
    checks = [~((exps >= 0.0) & (exps < math.inf)),
              np.full(exps.shape, coefs.ndim != 4 or coefs.shape[2] != coefs.shape[3])]
    if not checks[1].any():
        # Squared Frobenius norms over the real and imaginary parts. The
        # Hermitian check is False for a NaN residual, so finiteness goes
        # first.
        parts = coefs.view(float)
        with np.errstate(invalid="ignore"):
            skew = (coefs - coefs.conj().swapaxes(-1, -2)).view(float)
        resid, size = (np.einsum("ptij,ptij->pt", x, x) for x in (skew, parts))
        checks.append(~np.isfinite(parts).all(axis=(-2, -1)))
        checks.append(resid > DEFAULT_TOLERANCES.tol_eq**2 * np.maximum(1.0, size))
    failed = np.stack(checks, -1)
    if not failed.any():
        return
    p, j = np.argwhere(failed.any(-1))[0]
    expo = terms[p][j][0]
    raise InvalidPencil((
        "pencil exponents must be finite and nonnegative",
        "pencil coefficients must be square",
        f"pencil coefficient with exponent {expo} is not finite",
        f"pencil coefficient with exponent {expo} is not Hermitian",
    )[int(failed[p, j].argmax())])


def _public_pencil(name: str, t, k: int) -> PencilSpec:
    """The pencil of class ``name`` of _DUAL on T, k checked against its least k."""
    m = as_operator(t)
    _check_k(name, k)
    # replace builds the pencil anew, through the checks the builder skips.
    return replace(_DUAL[name][2](m, k, operator_norm(m), DEFAULT_TOLERANCES)[1])


def quasi_paranormal_pencil(t, k: int) -> PencilSpec:
    """Quadratic pencil A - 2z B + z^2 C whose global positivity on z > 0 is
    k-quasi-paranormality (k = 0 gives paranormality)."""
    return _public_pencil("KQuasiParanormal", t, k)


def k_paranormal_pencil(t, k: int) -> PencilSpec:
    """Pencil T*^(k+1) T^(k+1) - (k+1) lam^k T*T + k lam^(k+1) I."""
    return _public_pencil("KParanormal", t, k)


def absolute_k_paranormal_pencil(t, k: int) -> PencilSpec:
    """Pencil T*(T*T)^k T - (k+1) lam^k T*T + k lam^(k+1) I."""
    return _public_pencil("AbsoluteKParanormal", t, k)


# The oracles' budgets: pencil grid size and refined minima, sphere steps
# and the seeded random starts of the dual predicates.
_N_GRID, _MAX_REFINE, _MAX_ITER, _RESTARTS = 257, 8, 300, 8
# The pencil sweep's first pass eigensolves every _STRIDE-th grid point and
# the last, and its rounds bisect the cells in between (see _sweep). A cell
# bound is lowered by _MARGIN * dim * eps times sum_j b^e_j ||H_j|| at the
# cell's right end b, which covers the rounding of the eigensolves and chord
# gaps it is built from many times over. A margin 256 times smaller
# eigensolves 1.6% fewer points of the classify-members pool and none fewer
# of classify-random. The stride also sets the resolution of the dual
# engine's proof, which reads the eigenvector at the least first-pass point
# (see _pencil_verdicts). At seed 2026, strides 16, 32 and 64 eigensolve
# 9,180, 4,860 and 3,205 sweep points of classify-random and 12,945, 10,295
# and 9,431 of classify-members; 16 and 32 prove all 540 and 193 pencil
# NonMembers at the first pass, 64 proves 511 and 176, and 32 runs both
# pools fastest.
_STRIDE, _MARGIN, _EPS = 32, 65536.0, float(np.finfo(float).eps)
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
    [verdict] = _pencil_verdicts(_PencilStack([pencil]), [pencil], n_grid, max_refine, tol)
    return verdict


def _hermitian(m: np.ndarray) -> np.ndarray:
    """The Hermitian parts (M + M*) / 2 of a stack of square matrices."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


class _PencilStack:
    """The terms of some pencils of one dimension and one number of terms,
    stacked once: coefficients (pencils, terms, n, n) and exponents
    (pencils, terms)."""

    def __init__(self, pencils):
        self.coefs = np.array([[m for _, m in p.terms] for p in pencils])
        self.exps = np.array([[float(expo) for expo, _ in p.terms] for p in pencils])

    def take(self, rows) -> "_PencilStack":
        """The stack of the pencils at ``rows`` alone."""
        out = object.__new__(_PencilStack)
        out.coefs, out.exps = self.coefs[rows], self.exps[rows]
        out.spectra = self.spectra[rows]
        return out

    @functools.cached_property
    def _constant(self):
        """Whether each term's exponent is 0 in every pencil."""
        return (self.exps == 0.0).all(0).tolist()

    @functools.cached_property
    def _columns(self):
        """The distinct exponents, and each term's index among them."""
        uniq = sorted(set(self.exps.ravel().tolist()))
        return uniq, np.searchsorted(uniq, self.exps)

    @functools.cached_property
    def spectra(self) -> np.ndarray:
        """The eigenvalues of the Hermitian part of every term, (pencils,
        terms, n), ascending; those of a deflated pencil's terms are its
        compression's, taken before the padding (see ``deflate``)."""
        return np.linalg.eigvalsh(_hermitian(self.coefs))

    def deflate(self, pencils, tol: TolerancePolicy):
        """Deflate the common kernel of each pencil of the stack in place,
        ``pencils`` giving their domains and scales, so that the stack keeps
        one dimension n; returns each pencil's rank r and, for every pencil
        deflated, the unitary W = [Q K] its terms are now written in.

        The kernel is spanned by the right singular vectors of the stacked
        Hermitian parts lambda_max^e_j H_j (terms * n, n) whose singular
        values are at most tol_rank * max(sigma_max, scale): the weights
        are each term's largest factor over the domain, and ``scale``, the
        pencil's natural magnitude, anchors the cut for terms that are
        rounding noise, as in ``linalg.kernel``. The terms of a pencil with
        0 < r < n become Q* M_j Q on the first r rows and columns and 0
        elsewhere, except that its exponent-0 term gets c I on the K block,
        c = sum_j lambda_max^e_j ||H_j||; c is at least lam_min(Q* P Q) on
        the whole domain, so lam_min of the deflated pencil is that of
        Q* P Q. A pencil with no exponent-0 term keeps its terms. A pencil
        with r = 0 has only vanishing terms and is not rotated. The spectra
        of a deflated pencil are those of its terms before the padding, so
        the sweep's rounding margin is that of the compression and does not
        grow with c: the eigensolve of the exactly block-diagonal padded
        matrix finds the compression's least value to within that margin.

        A kernel vector x has ||lambda_max^e_j H_j x|| at most the cut for
        every j, and c bounds sigma_max, so only a pencil whose top-exponent
        term has an eigenvalue of modulus at most the cut over its weight
        can have one: the others take no SVD.
        """
        count, _, n = self.spectra.shape
        weights = np.array([p.lambda_max for p in pencils])[:, None] ** self.exps
        scale = np.array([p.scale for p in pencils])
        norms = np.abs(self.spectra[..., [0, -1]]).max(-1)
        c = (weights * norms).sum(1)
        cut = tol.tol_rank * np.maximum(c, scale)
        top = (np.arange(count), self.exps.argmax(1))
        # An overflowing c leaves its pencil as it is.
        gated = np.flatnonzero((np.abs(self.spectra[top]).min(-1) * weights[top] <= cut)
                               & np.isfinite(c))
        ranks, bases, pads = np.full(count, n), {}, []
        if not gated.size:
            return ranks, bases
        stacked = weights[gated, :, None, None] * _hermitian(self.coefs[gated])
        _, sv, vh = np.linalg.svd(stacked.reshape(gated.size, -1, n), full_matrices=False)
        ranks[gated] = (sv > tol.tol_rank * np.maximum(sv[:, :1], scale[gated, None])).sum(1)
        for p, w in zip(gated.tolist(), vh.conj().swapaxes(-1, -2)):
            r, zero = ranks[p], np.flatnonzero(self.exps[p] == 0.0)
            if r in (0, n):
                continue
            if not zero.size:
                ranks[p] = n
                continue
            deflated = np.zeros_like(self.coefs[p])
            deflated[:, :r, :r] = w[:, :r].conj().T @ self.coefs[p] @ w[:, :r]
            self.coefs[p], bases[p] = deflated, w
            pads.append((p, zero[0], r))
        if bases:
            rows = list(bases)
            self.spectra[rows] = np.linalg.eigvalsh(_hermitian(self.coefs[rows]))
        for p, j, r in pads:
            self.coefs[p, j, r:, r:] = c[p] * np.eye(n - r)
        return ranks, bases

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
                      for constant, expo in zip(self._constant, self.exps[0].tolist())]
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


def _coarse(n: int) -> np.ndarray:
    """The first-pass points of an n-point grid: every _STRIDE-th and the last."""
    return np.minimum(np.arange(0, n + _STRIDE - 1, _STRIDE), n - 1)


def _first_pass(stack: _PencilStack, lams: np.ndarray) -> np.ndarray:
    """lam_min(P) of every pencil of ``stack`` at the first-pass points of
    its grid, row p of ``lams`` (pencils, n): shape (pencils, points),
    eigensolved _CHUNK matrices at a time."""
    count, coarse = len(lams), _coarse(lams.shape[1])
    return stack.least(np.arange(count * coarse.size) // coarse.size,
                       lams.take(coarse, 1).ravel()).reshape(count, -1)


def _sweep(stack: _PencilStack, lams: np.ndarray, first: np.ndarray):
    """lam -> lam_min(P(lam)) of every pencil of ``stack`` on its grid, row
    p of ``lams`` (pencils, n), eigensolved only where it may lie at or
    below the least value eigensolved so far on the pencil.

    ``first`` holds the values of the first pass (``_first_pass``) at every
    _STRIDE-th point and the last point of every pencil; those points count
    as eigensolved, and the cells between neighbouring first-pass points
    start open; the bounds read the spectra of the Hermitian parts H_j of
    their terms (``_PencilStack.spectra``).
    Each round bounds f = lam_min(P) on every open cell [a, b] from below.
    With chord_j the line through (a, a^e_j) and (b, b^e_j), the family
    Q(lam) = sum_j chord_j(lam) H_j is affine in lam and equals P at a and
    at b; lam_min of an affine Hermitian family is concave (Bhatia, *Matrix
    Analysis*, 1997, ch. III), so lam_min(Q) >= min(f(a), f(b)) on the
    cell. Weyl's inequality covers P - Q = sum_j (lam^e_j - chord_j) H_j:
    lam^e_j lies below its chord where e_j > 1 and above it where
    0 < e_j < 1, by at most G_j, the gap where lam^e_j has the chord's
    slope. So on the whole cell

        f(lam) >= min(f(a), f(b)) - sum_j G_j c_j,

    with c_j = lam_max(H_j)+ where e_j > 1, (-lam_min(H_j))+ where
    0 < e_j < 1, and 0 where e_j is 0 or 1; a cell's bound is this, less
    the rounding margin.

    A cell whose bound lies above the pencil's least value so far holds no
    grid point at or below it, and no lambda a refinement could improve
    with, so it is dropped. An open cell wider than one step has its
    midpoint eigensolved and is split there. An open one-step cell has the
    points beyond its ends eigensolved, so that the local minima found are
    those of the full grid; one whose outer neighbours are eigensolved
    already has nothing left to open and is not bounded. The new points of
    all pencils share one eigensolve per round and _CHUNK matrices.

    Returns (values, evaluated, local), each of ``lams``'s shape: the values
    with +inf at the skipped points, the mask of eigensolved points, and the
    mask of the local grid minima among the points whose neighbours were
    eigensolved too. Each pencil's rows are those it gets alone.
    """
    count, n = lams.shape
    coarse = _coarse(n)
    exps, spectra = stack.exps, stack.spectra
    # Column i + 1 is point i; the points beyond the grid count as
    # eigensolved, with value +inf.
    padded, known = np.full((count, n + 2), np.inf), np.ones((count, n + 2), dtype=bool)
    mins, evaluated = padded[:, 1:-1], known[:, 1:-1]
    evaluated[:] = False
    mins[:, coarse] = first
    evaluated[:, coarse] = True
    down, up = np.maximum(-spectra[..., 0], 0.0), np.maximum(spectra[..., -1], 0.0)
    # Rows of (pencils, 4, terms): the chord's exponent, with 2 in place of 0
    # and 1, whose c_j is 0 and at which 1 / (e_j - 1) is not finite; c_j;
    # e_j; and the rounding margin per unit of b^e_j.
    flat = (exps == 0.0) | (exps == 1.0)
    table = np.stack([np.where(flat, 2.0, exps),
                      np.where(flat, 0.0, np.where(exps > 1.0, up, down)), exps,
                      np.maximum(down, up) * (_MARGIN * spectra.shape[-1] * _EPS)], 1)
    # The open cells: their pencil and their left and right grid points.
    owner = np.repeat(np.arange(count), coarse.size - 1)
    lo, hi = np.tile(coarse[:-1], count), np.tile(coarse[1:], count)
    while owner.size:
        todo = (hi - lo > 1) | ~(known[owner, lo] & known[owner, hi + 2])
        owner, lo, hi = owner[todo], lo[todo], hi[todo]
        c, weight, e, margin = table[owner].transpose(1, 0, 2)
        a, b = lams[owner, lo][:, None], lams[owner, hi][:, None]
        fa, fb = mins[owner, lo], mins[owner, hi]
        pa, pb = a**c, b**c
        slope = (pb - pa) / (b - a)
        at = np.minimum(np.maximum((slope / c) ** (1.0 / (c - 1.0)), a), b)
        gap = np.abs(pa + slope * (at - a) - at**c)
        bound = np.minimum(fa, fb) - (gap * weight).sum(1)
        bound -= (b**e * margin).sum(1)
        # A NaN bound leaves its cell open.
        keep = ~(bound > mins.min(axis=1)[owner])
        owner, lo, hi = owner[keep], lo[keep], hi[keep]
        wide, mid = hi - lo > 1, (lo + hi) // 2
        need = np.zeros((count, n + 2), dtype=bool)
        need[owner[wide], mid[wide] + 1] = True
        need[owner[~wide], lo[~wide]] = need[owner[~wide], hi[~wide] + 2] = True
        need = need[:, 1:-1] & ~evaluated
        if need.any():
            mins[need] = stack.least(need.nonzero()[0], lams[need])
            evaluated |= need
        owner, lo, hi, mid = owner[wide], lo[wide], hi[wide], mid[wide]
        owner, lo, hi = np.tile(owner, 2), np.concatenate([lo, mid]), np.concatenate([mid, hi])
    local = evaluated & known[:, :-2] & known[:, 2:]
    local &= (mins <= padded[:, :-2]) & (mins <= padded[:, 2:])
    return mins, evaluated, local


def _pencil_verdicts(stack: _PencilStack, pencils, n_grid: int, max_refine: int,
                     tol: TolerancePolicy, proof=None) -> list:
    """The verdicts of some pencils of one dimension and one number of
    terms, on the least (lambda, lambda_min(P(lambda))) found on each.

    ``stack`` holds the pencils' terms, stacked once (``_PencilStack``) and
    checked already: a PencilSpec checks its terms when it is built, and
    the dual engine checks those of its unchecked pencils as one stack.
    Each pencil's common kernel is deflated in place
    (``_PencilStack.deflate``):
    its terms vanish there, so lambda_min(P) would be 0 at every lambda and
    no cell of the sweep could close. A pencil with a kernel reports
    min(0, v), v the least value of its compression Q* P Q to the kernel's
    complement, with a kernel vector as witness when v > 0 and Q times the
    compression's eigenvector otherwise. A pencil whose terms all vanish
    (rank 0) is 0 on its whole domain: it is not swept, and reports 0 at
    lambda_lo with the first standard basis vector as witness.

    The other pencils share one first pass (``_first_pass``). Given a
    ``proof``, every pencil whose least first-pass value reads NonMember
    gets its eigenvector there, from one stacked build and eigh, and
    ``proof(rows, claims)`` tells, for those pencils' indices and their
    NonMember verdicts at that point, which claims prove NonMember: one
    vector that breaks the defining inequality does, however deep the
    pencil's minimum lies. A proved pencil keeps that verdict and leaves
    the stack. The others, and every pencil without a proof, are swept on
    from their first pass and refined (see ``_pencil_minima``), so their
    verdicts do not depend on the proof. Every verdict is the one the
    pencil gets alone.
    """
    ranks, bases = stack.deflate(pencils, tol)

    def verdict(p, lam, val, vec):
        if p in bases:
            w, r = bases[p], ranks[p]
            val, vec = (0.0, w[:, r]) if val > 0.0 else (val, w[:, :r] @ vec[:r])
        status, threshold = _decide(val, pencils[p].scale, tol)
        return MembershipVerdict(
            status=status, defect=val, oracle="pencil",
            witness=Witness(vector=vec, pencil_lambda=lam), threshold=threshold,
        )

    unit = np.eye(stack.coefs.shape[-1], dtype=np.complex128)[0]
    verdicts = {p: verdict(p, pencils[p].lambda_lo, 0.0, unit)
                for p in np.flatnonzero(ranks == 0).tolist()}
    swept = np.flatnonzero(ranks).tolist()
    if not swept:
        return [verdicts[p] for p in range(len(pencils))]
    if verdicts:
        stack = stack.take(swept)
    grids = {}
    for p in swept:
        domain = (pencils[p].lambda_lo, pencils[p].lambda_max)
        if domain not in grids:
            grids[domain] = np.geomspace(*domain, n_grid)
    lams = np.array([grids[pencils[p].lambda_lo, pencils[p].lambda_max] for p in swept])
    first = _first_pass(stack, lams)
    rest = list(range(len(swept)))  # the rows of the stack that are swept on
    if proof is not None:
        best = first.argmin(1)
        at = lams[rest, _coarse(n_grid)[best]].tolist()
        least = first[rest, best].tolist()
        rows = [i for i in rest
                if _decide(least[i], pencils[swept[i]].scale, tol)[0] is Status.NON_MEMBER]
        if rows:
            _, vecs = np.linalg.eigh(stack.matrices(rows, np.array([at[i] for i in rows])))
            claims = [verdict(swept[i], at[i], least[i], v[:, 0]) for i, v in zip(rows, vecs)]
            for i, claim, proved in zip(rows, claims, proof([swept[i] for i in rows], claims)):
                if proved:
                    verdicts[swept[i]] = claim
            rest = [i for i in rest if swept[i] not in verdicts]
            if len(rest) < len(swept):
                stack, lams, first = stack.take(rest), lams[rest], first[rest]
    if rest:
        minima = _pencil_minima(stack, [pencils[swept[i]] for i in rest], lams, first,
                                max_refine, tol)
        for i, (lam, val, vec) in zip(rest, minima):
            verdicts[swept[i]] = verdict(swept[i], lam, val, vec)
    return [verdicts[p] for p in range(len(pencils))]


def _pencil_minima(stack: _PencilStack, pencils, lams: np.ndarray, first: np.ndarray,
                   max_refine: int, tol: TolerancePolicy) -> list:
    """The least (lambda, lambda_min(P(lambda)), unit eigenvector) found on
    each pencil of ``stack``, ``pencils`` giving their domains and scales,
    on its grid, row p of ``lams``, from its first-pass values, row p of
    ``first`` (``_first_pass``).

    The pencils are swept together, each on its own grid, in bisection
    rounds that share one eigensolve (see ``_sweep``). The grid minimum
    and every refined minimum are those of the full sweep, except that
    local minima in dropped cells, whose chord bound lies above the grid
    minimum on the whole cell, take none of the ``max_refine`` slots.
    The Brent searches of all pencils then share one stacked build and
    eigensolve per round, one lambda per search; each stops in decision
    units of its pencil's scale (see ``_brent``), and each pencil merges
    only its own. The eigenvectors come from one more build on the
    same stack, at every pencil's least lambda, and one stacked eigh.
    """
    n_grid = lams.shape[1]
    mins, _, local = _sweep(stack, lams, first)
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
    return [(lam, val, v[:, 0]) for (lam, val), v in zip(bests, vecs)]


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
    (start i draws from ``make_rng(seed, i)``, spawn lane i of the
    SeedSequence of ``seed``) plus every standard basis vector and any
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
    return _normal(m, operator_norm(m), tol)


def _normal(m: np.ndarray, norm_t: float, tol: TolerancePolicy) -> MembershipVerdict:
    # The scale goes first: it rejects a T whose products would overflow.
    scale = _scale(norm_t, 2)
    comm = m.conj().T @ m - m @ m.conj().T
    return _equality_verdict(finite_frobenius_norm(comm), scale, tol)


def is_quasinormal(t, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> MembershipVerdict:
    """T commutes with T*T."""
    m = as_operator(t)
    return _quasinormal(m, operator_norm(m), tol)


def _quasinormal(m: np.ndarray, norm_t: float, tol: TolerancePolicy) -> MembershipVerdict:
    scale = _scale(norm_t, 3)
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
    return _hyponormal(m, operator_norm(m), tol)


def _hyponormal(m: np.ndarray, norm_t: float, tol: TolerancePolicy) -> MembershipVerdict:
    scale = _scale(norm_t, 2)
    return _psd_verdict(m.conj().T @ m - m @ m.conj().T, scale, tol)


def is_p_hyponormal(
    t, p: float, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> MembershipVerdict:
    """(T*T)^p - (TT*)^p positive semidefinite, 0 < p <= 1, from one SVD
    T = U S V*: V S^(2p) V* - U S^(2p) U*. Roots of the Grams T*T and TT*
    would lose the singular values below about ||T|| sqrt(eps)."""
    m = as_operator(t)
    return _p_hyponormal(m, np.linalg.svd(m), p, tol)


def _p_hyponormal(m: np.ndarray, svd, p: float, tol: TolerancePolicy) -> MembershipVerdict:
    """``is_p_hyponormal`` of a validated T, given its SVD (numpy's U, S, V*)."""
    # The scale reads the SVD's own largest singular value, not ||T||.
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    if _zero_operator(m):
        return _member_zero()
    u, sv, vh = svd
    scale = _scale(float(sv[0]), 2 * p)
    sp = sv ** (2 * p)
    return _psd_verdict((vh.conj().T * sp) @ vh - (u * sp) @ u.conj().T, scale, tol)


def is_class_a(t, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> MembershipVerdict:
    """|T^2| - T*T positive semidefinite, |T^2| = ((T*)^2 T^2)^(1/2) = V S V*
    from one SVD T^2 = U S V*. A root of the Gram (T*)^2 T^2 would lose the
    singular values of T^2 below about ||T||^2 sqrt(eps)."""
    m = as_operator(t)
    return _class_a(m, operator_norm(m), tol)


def _class_a(m: np.ndarray, norm_t: float, tol: TolerancePolicy) -> MembershipVerdict:
    if _zero_operator(m):
        return _member_zero()
    scale = _scale(norm_t, 2)
    _, sv, vh = np.linalg.svd(m @ m)
    return _psd_verdict((vh.conj().T * sv) @ vh - m.conj().T @ m, scale, tol)


def is_normaloid(t, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> MembershipVerdict:
    """Spectral radius equals operator norm.

    Cross-checked against the power-norm identity ||T^n|| = ||T||^n for
    n = 2..6; a clash between the two demotes the verdict to Inconclusive.
    """
    m = as_operator(t)
    return _normaloid(m, operator_norm(m), tol)


def _normaloid(m: np.ndarray, norm_t: float, tol: TolerancePolicy) -> MembershipVerdict:
    if _zero_operator(m):
        return _member_zero()
    defect = spectral_radius(m) - norm_t
    scale = max(1.0, norm_t)
    threshold = tol.tol_decision * scale
    primary = Status.MEMBER if defect >= -threshold else Status.NON_MEMBER

    # |‖T^n‖ - ‖T‖^n| > tol * max(1, ‖T‖^n), divided through by ‖T‖^n so
    # that no power of T overflows: |‖(T/‖T‖)^n‖ - 1| * min(1, ‖T‖)^n > tol.
    # The factor min(1, ‖T‖)^n underflows to 0 where ‖T‖^-n would overflow.
    unit = m / norm_t
    powers_ok = True
    for n in range(2, 7):
        lhs = operator_norm(np.linalg.matrix_power(unit, n))
        if abs(lhs - 1.0) * min(1.0, norm_t) ** n > tol.tol_decision:
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
    stacked adjoint, and ``take`` selects problems without a new build. A
    problem with fewer terms on a side than another is padded with zero
    matrices of exponent 0: their factor is exactly 1 and their gradient
    coefficient 0, so padding changes no bit. The Euclidean
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
        """Values at the columns of a (problems, dim, n) stack, shape
        (problems, n); a one-problem defect also takes a (dim, n) batch, for
        values (n,), or a unit vector, for a float."""
        cols = np.asarray(x, dtype=np.complex128)
        if cols.ndim == 1:
            return float(self(cols[:, None])[0])
        sides = self._eval(cols)[2]
        return (sides[:, 0, :] - sides[:, 1, :]).reshape(cols.shape[:-2] + cols.shape[-1:])

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


def _proves(claim: MembershipVerdict, exact: float, threshold: float) -> bool:
    """Whether ``exact``, the defining defect at a NonMember ``claim``'s unit
    witness, is at most -``threshold``, the sphere's tol_decision * scale:
    one such vector proves NonMember, whichever oracle found it."""
    return claim.status is Status.NON_MEMBER and exact <= -threshold


def _reconcile(sphere: MembershipVerdict, pencil: MembershipVerdict, unit: np.ndarray,
               exact: float, label: str) -> MembershipVerdict:
    """Combine the two oracle verdicts of a problem that descended into a
    single class verdict; ``exact`` is the defining defect at ``unit``, the
    sphere's witness normalized. Decisively opposite oracles raise
    OracleDisagreement: a definite verdict is decisive when its defect
    exceeds ten times its own threshold. A sphere NonMember that ``exact``
    proves (``_proves``) is NonMember, with that defect and witness. A
    pencil NonMember here has failed the same rule before the descent, and
    a claim that is not proved leaves the verdict Inconclusive, even beside
    a Member. The verdict takes the sphere's threshold and seed.
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
    if _proves(sphere, exact, sphere.threshold):
        status, defect, witness = Status.NON_MEMBER, exact, Witness(vector=unit)
    else:
        claims = {sphere.status, pencil.status}
        member = Status.MEMBER in claims and Status.NON_MEMBER not in claims
        status = Status.MEMBER if member else Status.INCONCLUSIVE
        defect, witness = sphere.defect, sphere.witness
    return MembershipVerdict(
        status=status, defect=defect, oracle="sphere", witness=witness,
        threshold=sphere.threshold, seed=sphere.seed,
    )


# The builders of the classes both oracles decide. Each takes a validated
# matrix, its norm and the tolerances, checks its pencil's class scale
# before it forms any power of T, and returns a callable that forms the
# sphere defect's (positive, negative) terms, and the pencil, both from the
# same powers of T; a public pencil constructor never calls the callable.
# The callable takes T's SVD (numpy's U, S, V*), which the engine takes
# once per distinct T: the absolute-k classes read |T|^k = V S^k V* from
# it, and the other classes need none.


def _pencil(norm_t: float, scale: float, terms, label: str) -> PencilSpec:
    """PencilSpec on (1e-6 s, 4 s], s = max(1, ||T||^2), with scale ``scale``,
    its terms unchecked: the engine checks those of its whole stack at once
    (``_pencil_verdicts``), and a public constructor checks its pencil."""
    s = max(1.0, norm_t**2)
    pencil = object.__new__(PencilSpec)
    pencil.__dict__.update(terms=terms, lambda_lo=1e-6 * s, lambda_max=4.0 * s, scale=scale,
                           label=label)
    return pencil


def _quasi(m: np.ndarray, k: int, norm_t: float, tol: TolerancePolicy):
    """||T^(k+2) x|| ||T^k x|| - ||T^(k+1) x||^2, and the pencil A - 2z B + z^2 C
    of the Grams of T^(k+2), T^(k+1) and T^k."""
    scale = _scale(norm_t, 2 * k + 4)
    pk = np.linalg.matrix_power(m, k)
    pk1 = m @ pk
    pk2 = m @ pk1
    a, b, c = (p.conj().T @ p for p in (pk2, pk1, pk))
    pencil = _pencil(norm_t, scale, ((0.0, a), (1.0, -2.0 * b), (2.0, c)),
                     f"quasi-paranormal[k={k}]")
    return (lambda svd: (((pk2, 1), (pk, 1)), ((pk1, 2),))), pencil


def _weighted(k: int, d: np.ndarray, gram: np.ndarray):
    """Terms of the pencil D - (k+1) lam^k T*T + k lam^(k+1) I. At a unit
    vector x its least value over lam is <Dx,x> - ||Tx||^(2k+2), so
    D = T*^(k+1) T^(k+1) decides k-paranormality and D = T*(T*T)^k T
    absolute-k-paranormality."""
    eye = np.eye(gram.shape[0], dtype=np.complex128)
    return (0.0, d), (float(k), -(k + 1.0) * gram), (float(k + 1), float(k) * eye)


def _k_paranormal(m: np.ndarray, k: int, norm_t: float, tol: TolerancePolicy):
    """||T^(k+1) x|| - ||T x||^(k+1), and D = T*^(k+1) T^(k+1)."""
    scale = _scale(norm_t, 2 * k + 2)
    pk1 = np.linalg.matrix_power(m, k + 1)
    terms = _weighted(k, pk1.conj().T @ pk1, m.conj().T @ m)
    pencil = _pencil(norm_t, scale, terms, f"k-paranormal[k={k}]")
    return (lambda svd: (((pk1, 1),), ((m, k + 1),))), pencil


def _absolute_k_paranormal(m: np.ndarray, k: int, norm_t: float, tol: TolerancePolicy):
    """|| |T|^k T x || - ||T x||^(k+1), and D = T*(T*T)^k T."""
    scale = _scale(norm_t, 2 * k + 2)
    gram = m.conj().T @ m
    terms = _weighted(k, m.conj().T @ np.linalg.matrix_power(gram, k) @ m, gram)
    pencil = _pencil(norm_t, scale, terms, f"absolute-k-paranormal[k={k}]")

    def sphere(svd):
        _, sv, vh = svd
        return (((vh.conj().T * sv**k) @ vh @ m, 1),), ((m, k + 1),)

    return sphere, pencil


# The classes both oracles decide, by OperatorClass name: the least k, the
# degree in k of the sphere defect's scale, and the builder (m, k, ||T||, tol).
_DUAL = {
    "KQuasiParanormal": (0, lambda k: 2 * k + 2, _quasi),
    "KParanormal": (1, lambda k: k + 1, _k_paranormal),
    "AbsoluteKParanormal": (1, lambda k: k + 1, _absolute_k_paranormal),
}


def _check_k(name: str, k: int) -> None:
    least = _DUAL[name][0]
    if not isinstance(k, Integral):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < least:
        raise ValueError("k must be nonnegative" if least == 0 else "k must be a positive integer")


def _dual_verdicts(problems, tol: TolerancePolicy, facts=None) -> list:
    """Decide every (T, class name, k, seed) of ``problems`` by both
    oracles; all T share one dimension, else ValueError.

    Each distinct T (by identity) is validated once and gets one norm and
    one SVD, read from ``facts`` (id(T) -> (||T||, numpy's SVD of T)) where
    the caller has them; its pencils are built on that norm, and its
    absolute-k sphere roots |T|^k = V S^k V* and its warm starts V are read
    from that SVD. The zero operator is a Member of every class. The
    pencils of all other problems are stacked once, their terms checked
    at once by the checks of PencilSpec (``_check_terms``), and their
    defining defects are stacked once (``_NormProductDefect``). The pencils
    run first (see ``_pencil_verdicts``). After their shared first pass,
    one call on the rows of the defect stack gives the value at the unit
    eigenvector of every pencil whose least first-pass value reads
    NonMember; a value at most -tol_decision * scale (minus the sphere's
    threshold) proves NonMember (``_proves``), and that problem is decided
    at once, with that value as defect, oracle "pencil", the sphere's
    threshold and the seed, and leaves the sweep. The other pencils are
    swept and refined, and one more call gives the value at the unit
    eigenvector of each that is still a NonMember, decided by the same
    rule; no witness is evaluated twice. Only the problems left
    descend, on their rows of the stack: each distinct T among them gets
    one block of warm starts, each T and seed one block of seeded
    starts, and one descent runs over the columns of them all, one block
    each. One more call on those rows gives the value at every sphere's
    unit witness for ``_reconcile``. Each problem gets the verdict it gets
    alone, bit for bit, so the predicates are the one-problem case.
    """
    mats = {}
    for t, name, k, _ in problems:
        if id(t) not in mats:
            mats[id(t)] = as_operator(t)
        _check_k(name, k)
    if len({m.shape for m in mats.values()}) > 1:
        raise ValueError(f"a stack of dual problems needs one dimension, got "
                         f"{sorted({m.shape[0] for m in mats.values()})}")
    known = facts or {}
    facts = {key: known[key] if key in known else (operator_norm(m), np.linalg.svd(m))
             for key, m in mats.items() if not _zero_operator(m)}
    live = [(p, id(t), name, k, seed)
            for p, (t, name, k, seed) in enumerate(problems) if id(t) in facts]
    verdicts = [_member_zero() for _ in problems]
    if not live:
        return verdicts
    scales = [_scale(facts[key][0], _DUAL[name][1](k)) for _, key, name, k, _ in live]
    terms, pencils = zip(*(_DUAL[name][2](mats[key], k, facts[key][0], tol)
                           for _, key, name, k, _ in live))
    stack = _PencilStack(pencils)
    _check_terms([p.terms for p in pencils], stack.exps, stack.coefs)
    defect = _NormProductDefect.of(*(problem(facts[key][1])
                                     for problem, (_, key, _, _, _) in zip(terms, live)))
    proved = set()  # the indices into live of the problems the pencil decides

    def proof(rows, claims):
        """Decide the NonMember ``claims`` of live[rows] that their unit
        witnesses prove (``_proves``); returns which did."""
        units = np.array([c.witness.vector / np.linalg.norm(c.witness.vector) for c in claims])
        values = defect.take(rows)(units[..., None])[:, 0].tolist()
        for i, claim, unit, exact in zip(rows, claims, units, values):
            threshold = tol.tol_decision * scales[i]
            if _proves(claim, exact, threshold):
                p, seed = live[i][0], live[i][4]
                witness = Witness(vector=unit, pencil_lambda=claim.witness.pencil_lambda)
                verdicts[p] = MembershipVerdict(status=Status.NON_MEMBER, defect=exact,
                                                oracle="pencil", witness=witness,
                                                threshold=threshold, seed=seed)
                proved.add(i)
        return [i in proved for i in rows]

    claims = _pencil_verdicts(stack, pencils, _N_GRID, _MAX_REFINE, tol, proof)
    rows = [i for i, claim in enumerate(claims)
            if i not in proved and claim.status is Status.NON_MEMBER]
    if rows:
        proof(rows, [claims[i] for i in rows])
    rest = [i for i in range(len(live)) if i not in proved]  # the problems that descend
    if not rest:
        return verdicts
    pairs = [(live[i][1], live[i][4]) for i in rest]  # (T, seed) of each, T by identity
    starts = {(key, seed): _starts(mats[key].shape[0], _RESTARTS, seed,
                                   facts[key][1][2].conj().T)
              for key, seed in dict.fromkeys(pairs)}
    x = np.array([starts[pair] for pair in pairs])
    bands = tol.tol_decision * np.array([scales[i] for i in rest])
    descending = defect.take(rest)
    spheres = _descend(descending.value_and_gradient, x, bands,
                       lambda rows: descending.take(rows).value_and_gradient)
    units = np.array([vec / np.linalg.norm(vec) for _, vec in spheres])
    values = descending(units[..., None])[:, 0].tolist()
    for i, (val, vec), unit, exact in zip(rest, spheres, units, values):
        p, seed = live[i][0], live[i][4]
        verdicts[p] = _reconcile(_sphere_verdict(val, vec, scales[i], tol, seed), claims[i],
                                 unit, exact, pencils[i].label)
    return verdicts


def is_k_quasi_paranormal(
    t,
    k: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    seed: int = 0,
) -> MembershipVerdict:
    """||T^(k+1) x||^2 <= ||T^(k+2) x|| ||T^k x|| for all x; k = 0 is
    paranormality. Decided by both oracles."""
    return _dual_verdicts([(t, "KQuasiParanormal", k, seed)], tol)[0]


def is_k_paranormal(
    t,
    k: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    seed: int = 0,
) -> MembershipVerdict:
    """||T x||^(k+1) <= ||T^(k+1) x|| on unit vectors, via the closed-form
    inner minimization of the pencil over its parameter."""
    return _dual_verdicts([(t, "KParanormal", k, seed)], tol)[0]


def is_absolute_k_paranormal(
    t,
    k: int,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    *,
    seed: int = 0,
) -> MembershipVerdict:
    """|| |T|^k T x || >= ||T x||^(k+1) on unit vectors, |T| = (T*T)^(1/2)."""
    return _dual_verdicts([(t, "AbsoluteKParanormal", k, seed)], tol)[0]


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
    # One norm serves every predicate and the dual engine, and one SVD
    # p-hyponormality and the engine.
    norm_t, svd = operator_norm(m), np.linalg.svd(m)
    out: dict[OperatorClass, MembershipVerdict] = {}
    out[OperatorClass("Normal")] = _normal(m, norm_t, tol)
    out[OperatorClass("Quasinormal")] = _quasinormal(m, norm_t, tol)
    out[OperatorClass("Hyponormal")] = _hyponormal(m, norm_t, tol)
    for p in ps:
        out[OperatorClass("PHyponormal", p=p)] = _p_hyponormal(m, svd, p, tol)
    out[OperatorClass("ClassA")] = _class_a(m, norm_t, tol)
    # Paranormality is k-quasi-paranormality at k = 0; all dual classes of
    # the matrix are decided together.
    problems = [("KQuasiParanormal", 0)] + [
        (name, k) for name in ("KParanormal", "AbsoluteKParanormal", "KQuasiParanormal") for k in ks
    ]
    keys = [OperatorClass("Paranormal")] + [OperatorClass(name, k=k) for name, k in problems[1:]]
    out.update(zip(keys, _dual_verdicts([(m, name, k, seed) for name, k in problems], tol,
                                        {id(m): (norm_t, svd)})))
    out[OperatorClass("Normaloid")] = _normaloid(m, norm_t, tol)
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
