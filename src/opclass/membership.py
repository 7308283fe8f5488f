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
  stack, each pencil with the values it gets alone; the dual engine
  forms and checks only the pencils of the problems that the right
  singular vectors of T and of T^2 leave, and sweeps only those that no
  Loewner certificate settles (see below),
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
the two oracles decide the same set. One unit vector that breaks the
defining inequality proves NonMember, however deep the minimum lies, so
the dual engine first values the defining defect at T's right singular
vectors V, which are among the sphere's deterministic starts and turn
with T (so U T U* gets the verdict of T where T's singular values are
distinct), with no eigensolve: a problem that one of them proves
NonMember, with a value below 0 and at most minus the decision
threshold, is the verdict there, with that value as defect and that
column as witness, and its pencil is never formed. The problems V
leaves are valued the same way at the right singular vectors V2 of T^2,
which turn with T too, before any pencil is formed. Such a verdict rests
on that one value: no pencil cross-checks it. Every other problem forms
its pencil, which is checked. A problem is a Member when its pencil's
Loewner certificate holds: the least eigenvalue of one Hermitian matrix
built from the pencil's terms and T's SVD, D - V S^(2k+2) V* for the
weighted pencils D - (k+1) z^k T*T + k z^(k+1) I and a 2n x 2n block
matrix for the quasi pencils A - 2 z B + z^2 C, bounds lam_min(P) below
on the whole domain, with no grid (``_certificate_claims``); the
certificates of one call share one eigvalsh per size. That verdict is
final: its defect is the bound, its oracle the pencil, and the problem
is neither swept nor descends. Every pencil no certificate settles is
swept and refined for a claim, and its problem descends on the sphere,
from the eigenvector of a NonMember claim too, so an engine NonMember
is always proved at a unit vector the sphere found: a start column or a
descent's witness. Every value of
one call reads one stack of its defining defects, and the builders of one
T read one chain of its powers, each formed once. The public
``pencil_check`` has no defining defect, so it sweeps and refines every
pencil. Where both oracles ran, on the problems that descend, a decisive
disagreement is surfaced as OracleDisagreement rather than resolved
silently.

The predicates read ||T||, and the SVD T = U S V* where they need it,
from ``linalg`` (``operator_norm``, ``operator_svd``), which remembers
both for the last matrix seen, so the predicates of one ``classify_all``
call take one SVD of T of each kind. p-hyponormality's roots, the
absolute-k sphere roots |T|^k = V S^k V* and the sphere's warm starts V
are read from that SVD: a root of the Gram T*T would lose the singular
values of T below about ||T|| sqrt(eps).

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
    _scale,
    as_operator,
    finite_frobenius_norm,
    hermitian_eigen,
    matrix_power,
    operator_norm,
    operator_svd,
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
# linalg._scale, max(1, ||T||)^degree, makes the decision bands scale
# invariant for ||T|| >= 1 (see linalg.TolerancePolicy).


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


# The equality relations of an operator P, each as (the degree of its
# residual in P, the residual, which is 0 exactly when P satisfies it).
_RELATIONS = {
    "normal": (2, lambda p: p.conj().T @ p - p @ p.conj().T),
    "quasinormal": (3, lambda p: p @ p.conj().T @ p - p.conj().T @ p @ p),
    "zero": (1, lambda p: p),
}


def _power_verdict(m: np.ndarray, n: int, relation: str, tol: TolerancePolicy) -> MembershipVerdict:
    """Whether T^n satisfies ``relation`` of _RELATIONS, for a validated T:
    the Frobenius norm of its residual within tol_eq * max(1, ||T||)^(n *
    degree), on T's scale. T^n is derived from T, so its rounding is about
    ||T||^n eps whatever ||T^n|| is; judged on its own scale, the square of
    an index-2 nilpotent, 0 up to that rounding, would read not normal.
    The scale goes first: it rejects a T whose products would overflow."""
    degree, residual = _RELATIONS[relation]
    scale = _scale(operator_norm(m), n * degree)
    power = matrix_power(m, n) if n > 1 else m
    return _equality_verdict(finite_frobenius_norm(residual(power)), scale, tol)


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
        _check_terms([self.terms], exps, np.array([[m for _, m in self.terms]]), [self.scale])

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


def _check_terms(terms, exps: np.ndarray, coefs: np.ndarray, scales) -> None:
    """The term checks of PencilSpec, on the terms of one or more pencils:
    ``terms`` holds each pencil's (exponent, matrix) pairs, ``exps`` their
    exponents as floats, (pencils, terms), ``coefs`` their matrices
    stacked, (pencils, terms, n, n) when they are square, and ``scales``
    each pencil's ``scale``. Each check runs once over all terms; the first
    failing term, pencil by pencil, raises InvalidPencil with its first
    failing check. A term H_j is Hermitian when its skew residual is at
    most tol_eq * max(1, ||H_j||_F, scale): a term formed from powers of T
    cancels to far below the size of its factors, and its rounding is
    about eps times the pencil's scale, not its own size."""
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
        bound = np.maximum(np.sqrt(np.maximum(1.0, size)), np.asarray(scales, float)[:, None])
        checks.append(~np.isfinite(parts).all(axis=(-2, -1)))
        checks.append(np.sqrt(resid) > DEFAULT_TOLERANCES.tol_eq * bound)
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
    return replace(_DUAL[name][2](_Powers(m), k, operator_norm(m))[1]())


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
# of classify-random.
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
    max_refine: int = _MAX_REFINE,
) -> MembershipVerdict:
    """Global least-eigenvalue certificate for P(lam) >= 0 on the pencil
    domain: the least lambda_min(P(lam)) found on a logarithmic grid of
    ``_N_GRID`` points, refined around up to ``max_refine`` of its local
    minima, deepest first. The witness is the minimizing lambda and
    eigenvector.
    """
    if not isinstance(pencil, PencilSpec):
        raise InvalidPencil(f"expected PencilSpec, got {type(pencil).__name__}")
    if max_refine < 0:
        raise ValueError(f"need max_refine >= 0, got {max_refine}")
    [verdict] = _pencil_verdicts(_PencilStack([pencil]), [pencil], _N_GRID, max_refine, tol)
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
        """The stack of the pencils at ``rows`` alone, with their spectra
        once those are taken."""
        out = object.__new__(_PencilStack)
        out.coefs, out.exps = self.coefs[rows], self.exps[rows]
        if "spectra" in self.__dict__:
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


def _sweep(stack: _PencilStack, lams: np.ndarray):
    """lam -> lam_min(P(lam)) of every pencil of ``stack`` on its grid, row
    p of ``lams`` (pencils, n), eigensolved only where it may lie at or
    below the least value eigensolved so far on the pencil.

    The first pass (``_first_pass``) eigensolves every _STRIDE-th point and
    the last point of every pencil, and the cells between neighbouring
    first-pass points start open; the bounds read the spectra of the
    Hermitian parts H_j of their terms (``_PencilStack.spectra``).
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
    mins[:, coarse] = _first_pass(stack, lams)
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
                     tol: TolerancePolicy) -> list:
    """The verdicts of some pencils of one dimension and one number of
    terms, on the least (lambda, lambda_min(P(lambda))) found on each.

    ``stack`` holds the pencils' terms, stacked once (``_PencilStack``) and
    checked already: a PencilSpec checks its terms when it is built, and
    the dual engine checks those of the unchecked pencils it forms, the
    pencils of the problems that the right singular vectors of T and of
    T^2 leave, at once, and sweeps those that no certificate settles.
    Each pencil's common kernel is deflated in place
    (``_PencilStack.deflate``):
    its terms vanish there, so lambda_min(P) would be 0 at every lambda and
    no cell of the sweep could close. A pencil with a kernel reports
    min(0, v), v the least value of its compression Q* P Q to the kernel's
    complement, with a kernel vector as witness when v > 0 and Q times the
    compression's eigenvector otherwise. A pencil whose terms all vanish
    (rank 0) is 0 on its whole domain: it is not swept, and reports 0 at
    lambda_lo with the first standard basis vector as witness. The other
    pencils are swept and refined together (see ``_pencil_minima``). Every
    verdict is the one the pencil gets alone.
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
    minima = _pencil_minima(stack, [pencils[p] for p in swept], lams, max_refine, tol)
    for p, (lam, val, vec) in zip(swept, minima):
        verdicts[p] = verdict(p, lam, val, vec)
    return [verdicts[p] for p in range(len(pencils))]


def _pencil_minima(stack: _PencilStack, pencils, lams: np.ndarray, max_refine: int,
                   tol: TolerancePolicy) -> list:
    """The least (lambda, lambda_min(P(lambda)), unit eigenvector) found on
    each pencil of ``stack``, ``pencils`` giving their domains and scales,
    on its grid, row p of ``lams``.

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
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    x = _starts(_fixed_starts(dim, warm_starts), restarts, seed)
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


def _fixed_starts(dim: int, warm_starts) -> np.ndarray:
    """The sphere's deterministic start columns, shape (dim, n): the
    standard basis, then the normalized warm starts."""
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
    return np.concatenate(starts, axis=1)


def _starts(fixed: np.ndarray, restarts: int, seed: int) -> np.ndarray:
    """The sphere's start columns, shape (dim, n): the deterministic ones
    (``_fixed_starts``), then ``restarts`` seeded random unit vectors."""
    dim = len(fixed)
    rand = np.empty((dim, restarts), dtype=np.complex128)
    for i in range(restarts):
        g = make_rng(seed, i)
        z = g.standard_normal(dim) + 1j * g.standard_normal(dim)
        rand[:, i] = z / np.linalg.norm(z)
    return np.concatenate([fixed, rand], axis=1)


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
    return _power_verdict(as_operator(t), 1, "normal", tol)


def is_quasinormal(t, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> MembershipVerdict:
    """T commutes with T*T, within tol_eq relative to max(1, ||T||^3)."""
    return _power_verdict(as_operator(t), 1, "quasinormal", tol)


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
    return _psd_verdict(m.conj().T @ m - m @ m.conj().T, scale, tol)


def is_p_hyponormal(
    t, p: float, tol: TolerancePolicy = DEFAULT_TOLERANCES
) -> MembershipVerdict:
    """(T*T)^p - (TT*)^p positive semidefinite, 0 < p <= 1, from one SVD
    T = U S V*: V S^(2p) V* - U S^(2p) U*. Roots of the Grams T*T and TT*
    would lose the singular values below about ||T|| sqrt(eps)."""
    m = as_operator(t)
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    if _zero_operator(m):
        return _member_zero()
    u, sv, vh = operator_svd(m)
    # The scale reads the SVD's own largest singular value, not ||T||.
    scale = _scale(float(sv[0]), 2 * p)
    sp = sv ** (2 * p)
    return _psd_verdict((vh.conj().T * sp) @ vh - (u * sp) @ u.conj().T, scale, tol)


def is_class_a(t, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> MembershipVerdict:
    """|T^2| - T*T positive semidefinite, |T^2| = ((T*)^2 T^2)^(1/2) = V S V*
    from one SVD T^2 = U S V*. A root of the Gram (T*)^2 T^2 would lose the
    singular values of T^2 below about ||T||^2 sqrt(eps)."""
    m = as_operator(t)
    if _zero_operator(m):
        return _member_zero()
    scale = _scale(operator_norm(m), 2)
    _, sv, vh = np.linalg.svd(m @ m)
    return _psd_verdict((vh.conj().T * sv) @ vh - m.conj().T @ m, scale, tol)


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
    threshold = tol.tol_decision * _scale(norm_t, 1)
    primary = Status.MEMBER if defect >= -threshold else Status.NON_MEMBER

    # |‖T^n‖ - ‖T‖^n| > tol * max(1, ‖T‖^n), divided through by ‖T‖^n so
    # that no power of T overflows: |‖(T/‖T‖)^n‖ - 1| * min(1, ‖T‖)^n > tol.
    # The factor min(1, ‖T‖)^n underflows to 0 where ‖T‖^-n would overflow.
    # The power norms are not read through operator_norm, whose memo of T
    # they would replace.
    unit = m / norm_t
    powers_ok = True
    for n in range(2, 7):
        lhs = float(np.linalg.svd(np.linalg.matrix_power(unit, n), compute_uv=False).max())
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

    ``of`` stacks the padded term matrices of all problems in one array,
    (problems, terms, rows, dim), read as (problems, terms * rows, dim), so
    a batch of values costs one product and ``value_and_gradient`` adds one
    with the stacked adjoint, which is formed on the first gradient, so a
    defect that is only valued never forms it; ``take`` selects problems
    without a new build. A problem with fewer terms on a side than another
    is padded with zero matrices of exponent 0: their factor is exactly 1
    and their gradient coefficient 0, so padding changes no bit. The
    Euclidean gradient of ||M x|| is M*M x / ||M x||; a term with M x = 0
    gets coefficient 0, the symmetric value central differences give at
    that kink.
    """

    def __init__(self, stack: np.ndarray, exps: np.ndarray, n_pos: int):
        # stack (problems, terms * rows, dim), exps (problems, terms, 1), positive side first.
        self._bounds = (0, n_pos)  # each side's terms, for multiply.reduceat
        self._side = (np.arange(exps.shape[1]) >= n_pos).astype(np.intp)  # each term's side
        self._stack, self._exps = stack, exps
        self._signed = np.where(self._side[:, None] == 0, exps, -exps)

    @functools.cached_property
    def _adjoint(self) -> np.ndarray:
        return self._stack.conj().transpose(0, 2, 1)

    @classmethod
    def of(cls, *problems) -> "_NormProductDefect":
        n_pos, n_neg = (max(len(side[i]) for side in problems) for i in (0, 1))
        zero = (np.zeros_like(problems[0][1][0][0]), 0)
        rows = [
            (*pos, *[zero] * (n_pos - len(pos)), *neg, *[zero] * (n_neg - len(neg)))
            for pos, neg in problems
        ]
        mats = np.array([[m for m, _ in terms] for terms in rows])
        stack = mats.reshape(len(rows), -1, mats.shape[-1])
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


def _reconcile(sphere: MembershipVerdict, pencil: MembershipVerdict, unit: np.ndarray,
               exact: float, label: str) -> MembershipVerdict:
    """Combine the two oracle verdicts of a problem that descended into a
    single class verdict; ``exact`` is the defining defect at ``unit``, the
    sphere's witness normalized. Only the problems that no start column
    proves and no Loewner certificate settles descend, so the pencil's
    verdict here is always a sweep's claim. Decisively opposite oracles raise
    OracleDisagreement: a definite verdict is decisive when its defect
    exceeds ten times its own threshold. A sphere NonMember is NonMember,
    with ``exact`` as defect and ``unit`` as witness, when ``exact`` proves
    it: below 0 and at most -threshold, the sphere's tol_decision * scale,
    so a value of 0 proves nothing, even at tol_decision = 0. The pencil's
    verdict is only a claim: a NonMember claim that is not proved, either
    oracle's, leaves the verdict Inconclusive, even beside a Member. The
    verdict takes the sphere's threshold and seed.
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
    if sphere.status is Status.NON_MEMBER and exact < 0.0 and exact <= -sphere.threshold:
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


# The builders of the classes both oracles decide. Each takes the chain of
# powers of one validated matrix (``_Powers``), its norm and the tolerances,
# checks its pencil's class scale before it reads any power of T, and
# returns two callables, which form the sphere defect's (positive, negative)
# terms and the pencil from the same powers of T. The first takes T's SVD
# (numpy's U, S, V*), which the engine reads once per distinct T: the
# absolute-k classes read |T|^k = V S^k V* from it, and the other classes
# need none. The second takes no argument and forms the pencil's Gram
# coefficients: the engine calls it only for the problems that the right
# singular vectors of T and of T^2 leave, and a public pencil constructor
# calls it and never the first. T^3 and T^4 are T T^2 and T T^3 on the
# chain, where numpy's matrix_power forms T^2 T and T^2 T^2, so a builder
# rounds as matrix_power did up to T^2 and may differ from it beyond.


class _Powers:
    """The powers T^0 = I, T^1 = T, T^2, ... of one validated matrix, read
    as ``powers[j]``: each is formed once, as T @ T^(j-1), when it is first
    read, so a chain shared by every problem of one T forms each power once
    and none beyond the highest a problem reads."""

    def __init__(self, m: np.ndarray):
        self._chain = [np.eye(len(m), dtype=np.complex128), m]

    def __getitem__(self, j: int) -> np.ndarray:
        chain = self._chain
        while len(chain) <= j:
            chain.append(chain[1] @ chain[-1])
        return chain[j]


def _pencil(norm_t: float, scale: float, terms, label: str) -> PencilSpec:
    """PencilSpec on (1e-6 s, 4 s], s = max(1, ||T||)^2, with scale ``scale``,
    its terms unchecked: the engine checks those of the pencils it sweeps at
    once (``_check_terms``), and a public constructor checks its pencil."""
    s = _scale(norm_t, 2)
    pencil = object.__new__(PencilSpec)
    pencil.__dict__.update(terms=terms, lambda_lo=1e-6 * s, lambda_max=4.0 * s, scale=scale,
                           label=label)
    return pencil


def _quasi(powers: _Powers, k: int, norm_t: float):
    """||T^(k+2) x|| ||T^k x|| - ||T^(k+1) x||^2, and the pencil A - 2z B + z^2 C
    of the Grams of T^(k+2), T^(k+1) and T^k."""
    scale = _scale(norm_t, 2 * k + 4)
    pk, pk1, pk2 = powers[k], powers[k + 1], powers[k + 2]

    def pencil():
        a, b, c = (p.conj().T @ p for p in (pk2, pk1, pk))
        return _pencil(norm_t, scale, ((0.0, a), (1.0, -2.0 * b), (2.0, c)),
                       f"quasi-paranormal[k={k}]")

    return (lambda svd: (((pk2, 1), (pk, 1)), ((pk1, 2),))), pencil


def _weighted(k: int, d: np.ndarray, gram: np.ndarray):
    """Terms of the pencil D - (k+1) lam^k T*T + k lam^(k+1) I. At a unit
    vector x its least value over lam is <Dx,x> - ||Tx||^(2k+2), so
    D = T*^(k+1) T^(k+1) decides k-paranormality and D = T*(T*T)^k T
    absolute-k-paranormality."""
    eye = np.eye(gram.shape[0], dtype=np.complex128)
    return (0.0, d), (float(k), -(k + 1.0) * gram), (float(k + 1), float(k) * eye)


def _k_paranormal(powers: _Powers, k: int, norm_t: float):
    """||T^(k+1) x|| - ||T x||^(k+1), and D = T*^(k+1) T^(k+1)."""
    scale = _scale(norm_t, 2 * k + 2)
    m, pk1 = powers[1], powers[k + 1]

    def pencil():
        terms = _weighted(k, pk1.conj().T @ pk1, m.conj().T @ m)
        return _pencil(norm_t, scale, terms, f"k-paranormal[k={k}]")

    return (lambda svd: (((pk1, 1),), ((m, k + 1),))), pencil


def _absolute_k_paranormal(powers: _Powers, k: int, norm_t: float):
    """|| |T|^k T x || - ||T x||^(k+1), and D = T*(T*T)^k T."""
    scale = _scale(norm_t, 2 * k + 2)
    m = powers[1]

    def pencil():
        gram = m.conj().T @ m
        terms = _weighted(k, m.conj().T @ np.linalg.matrix_power(gram, k) @ m, gram)
        return _pencil(norm_t, scale, terms, f"absolute-k-paranormal[k={k}]")

    def sphere(svd):
        _, sv, vh = svd
        return (((vh.conj().T * sv**k) @ vh @ m, 1),), ((m, k + 1),)

    return sphere, pencil


# The classes both oracles decide, by OperatorClass name: the least k, the
# degree in k of the sphere defect's scale, and the builder (powers of T, k,
# ||T||).
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


def _start_verdicts(defect: _NormProductDefect, x: np.ndarray, scales, seeds,
                    tol: TolerancePolicy) -> dict:
    """The NonMember verdicts that some of the sphere's start columns prove,
    by row of ``defect``: x holds each problem's columns, (problems, dim,
    n), valued in one stacked call. The engine calls it for two stages: at
    the columns of V, T's right singular vectors, and then, on the rows V
    leaves, at the columns of V2, those of T^2. A problem's least value,
    ties to the lowest column and a NaN value never chosen, proves
    NonMember when it is below 0 and at most -tol_decision * scale, so a
    value of 0 proves nothing, even at tol_decision = 0; it is the
    verdict's defect, its column the witness, and the verdict takes the
    sphere's threshold and the problem's seed."""
    values = defect(x)
    rows = np.arange(len(x))
    cols = np.where(np.isnan(values), np.inf, values).argmin(-1)
    least = values[rows, cols]
    proved = np.flatnonzero((least < 0.0) & (least <= -tol.tol_decision * np.asarray(scales)))
    return {i: _sphere_verdict(float(least[i]), x[i, :, cols[i]].copy(), scales[i], tol, seeds[i])
            for i in proved.tolist()}


def _certificate_claims(pencils, names, facts, tol: TolerancePolicy) -> dict:
    """The Member verdicts that a Loewner certificate settles, by index into
    ``pencils``: the engine's pencils of the classes ``names``, each of a T
    whose (||T||, SVD U, S, V*) is the entry of ``facts``. A certificate is
    one Hermitian matrix built from its pencil's terms, whose least
    eigenvalue b bounds lam_min(P(lam)) from below on the whole domain:

    * the weighted pencils D - (k+1) lam^k G + k lam^(k+1) I, G = T*T: C = D
      - V S^(2k+2) V*. G^(k+1) = V S^(2k+2) V* commutes with G, and
      g^(k+1) - (k+1) lam^k g + k lam^(k+1) >= 0 for g, lam >= 0 by weighted
      AM-GM, so P(lam) >= C for every lam >= 0, and b = lam_min(C). At k = 1,
      C >= 0 is T*^2 T^2 >= (T*T)^2, the class A inequality;
    * the quasi pencils A - 2 lam B + lam^2 C: with lam = s mu, s the
      max(1, ||T||)^2 of the domain (1e-6 s, 4 s], x* P x = y* M_s y for
      y = [x; mu x] and M_s = [[A, -s B], [-s B, s^2 C]], and ||y||^2 = (1 +
      mu^2) ||x||^2 is at most 17 ||x||^2 on the domain. So b = lam_min(M_s)
      when that is at least 0, and 17 lam_min(M_s) when it is not.

    The certificates are stacked by size, n or 2n, one eigvalsh per size. A
    pencil whose b is a Member by ``_decide`` on the pencil's scale gets a
    Member verdict with defect b, unclamped, oracle ``pencil``, that
    threshold and no witness; the engine takes it as final, with the
    problem's seed, and neither sweeps nor descends that problem. Every
    other pencil, a NaN b too, is left to the sweep and the descent."""
    mats, weights = [], []
    for pencil, name, (norm_t, (_, sv, vh)) in zip(pencils, names, facts):
        (_, d), (e, g), (_, c) = pencil.terms
        if name == "KQuasiParanormal":
            s = _scale(norm_t, 2)
            off = (0.5 * s) * g  # g is -2 B
            n = len(d)
            block = np.empty((2 * n, 2 * n), dtype=np.complex128)
            block[:n, :n], block[n:, n:] = d, (s * s) * c
            block[:n, n:] = block[n:, :n] = off
            mats.append(block)
            weights.append(1.0 + (pencil.lambda_max / s) ** 2)
        else:
            mats.append(d - (vh.conj().T * sv ** (2 * int(e) + 2)) @ vh)
            weights.append(1.0)
    bounds = np.empty(len(mats))
    for size in {len(m) for m in mats}:
        rows = [i for i, m in enumerate(mats) if len(m) == size]
        bounds[rows] = np.linalg.eigvalsh(_hermitian(np.array([mats[i] for i in rows])))[:, 0]
    bounds = np.where(bounds < 0.0, np.array(weights) * bounds, bounds)
    claims = {}
    for i, (pencil, b) in enumerate(zip(pencils, bounds.tolist())):
        status, threshold = _decide(b, pencil.scale, tol)
        if status is Status.MEMBER:
            claims[i] = MembershipVerdict(status=status, defect=b, oracle="pencil",
                                          threshold=threshold)
    return claims


def _dual_verdicts(problems, tol: TolerancePolicy) -> list:
    """Decide every (T, class name, k, seed) of ``problems`` by both
    oracles; all T share one dimension, else ValueError.

    Each distinct T (by identity) is validated once and reads its norm and
    its SVD from ``linalg`` (``operator_norm``, ``operator_svd``); its
    builders share one chain of its powers (``_Powers``), which forms T^j
    once, as far as a problem reads; its pencils are built on that norm,
    and its absolute-k sphere roots |T|^k = V S^k V* and the columns of V
    are read from that SVD. The zero operator is a Member of every class.
    The defining defects of all other problems are stacked once
    (``_NormProductDefect``).

    One path: two start stages, the pencils of the rows they leave and their
    certificates, then the sweep, the descent and ``_reconcile`` of the rows
    no certificate settles. Each start stage is one call on the open rows of
    the defect stack (``_start_verdicts``), at the columns of one source,
    normalized, that turns with T: V, and then the right singular vectors V2
    of T^2, taken only for the matrices with an open row. A problem that one
    column proves NonMember is decided there, never forms its pencil and
    does not descend; the open rows are taken from the stack again only when
    a stage proved something. Every problem left forms its pencil (the
    builders' pencil callables); their terms are stacked once
    (``_PencilStack``) and checked at once by the checks of PencilSpec
    (``_check_terms``). Each pencil then gets its Loewner certificate, built
    from its terms and T's SVD, whose least eigenvalue bounds lam_min(P)
    below on the whole domain (``_certificate_claims``, one eigvalsh per
    certificate size). A problem whose certificate holds is a Member there,
    final, with that bound as defect, oracle ``pencil`` and its seed: it is
    not swept, does not descend and never meets ``_reconcile``. The rows of
    the defect stack and the pencils of the problems no certificate settles
    are taken again only when a certificate settled something; their pencils
    are swept and refined (``_pencil_verdicts``), each for a claim for
    ``_reconcile``, and only a claim. Every such problem then descends, on
    its row of the stack: each distinct T among them gets one block of
    deterministic starts, the standard basis and V (``_fixed_starts``), each
    T and seed one block of seeded starts, and one descent runs over the
    columns of them all, one block each. A problem whose pencil claims
    NonMember starts also from the claim's unit eigenvector, one more warm
    start in place of its last seeded start, so the descent begins at least
    as low as the pencil's minimum. One more call on those rows gives the
    value at every sphere's unit witness for ``_reconcile``. No witness is
    evaluated twice. Each problem gets the verdict it gets alone, bit for
    bit, so the predicates are the one-problem case.
    """
    mats = {}
    for t, name, k, _ in problems:
        if id(t) not in mats:
            mats[id(t)] = as_operator(t)
        _check_k(name, k)
    if len({m.shape for m in mats.values()}) > 1:
        raise ValueError(f"a stack of dual problems needs one dimension, got "
                         f"{sorted({m.shape[0] for m in mats.values()})}")
    facts = {key: (operator_norm(m), operator_svd(m))
             for key, m in mats.items() if not _zero_operator(m)}
    live = [(p, id(t), name, k, seed)
            for p, (t, name, k, seed) in enumerate(problems) if id(t) in facts]
    verdicts = [None if id(t) in facts else _member_zero() for t, *_ in problems]
    if not live:
        return verdicts
    scales = [_scale(facts[key][0], _DUAL[name][1](k)) for _, key, name, k, _ in live]
    powers = {key: _Powers(mats[key]) for key in facts}
    terms, pencils = zip(*(_DUAL[name][2](powers[key], k, facts[key][0])
                           for _, key, name, k, _ in live))
    defect = _NormProductDefect.of(*(problem(facts[key][1])
                                     for problem, (_, key, _, _, _) in zip(terms, live)))
    vs = {key: svd[2].conj().T for key, (_, svd) in facts.items()}
    seeds = [seed for *_, seed in live]
    # The problems still open, as indices into live, and their rows of the
    # defect stack, taken again only when a stage proved something: each
    # start stage values them at one source of columns, V and then V2, the
    # certificates read the rows the two leave, and the sweep and the
    # descent the rows no certificate settles.
    rest, left = list(range(len(live))), defect
    for source in (vs.__getitem__, lambda key: np.linalg.svd(powers[key][2])[2].conj().T):
        cols = {key: _unit_columns(source(key)) for key in dict.fromkeys(live[i][1] for i in rest)}
        proved = _start_verdicts(left, np.array([cols[live[i][1]] for i in rest]),
                                 [scales[i] for i in rest], [seeds[i] for i in rest], tol)
        if proved:
            for j, verdict in proved.items():
                verdicts[live[rest[j]][0]] = verdict
            kept = [j for j in range(len(rest)) if j not in proved]
            if not kept:
                return verdicts
            rest, left = [rest[j] for j in kept], left.take(kept)
    formed = [pencils[i]() for i in rest]
    stack = _PencilStack(formed)
    _check_terms([p.terms for p in formed], stack.exps, stack.coefs, [p.scale for p in formed])
    certified = _certificate_claims(formed, [live[i][2] for i in rest],
                                    [facts[live[i][1]] for i in rest], tol)
    if certified:
        for j, verdict in certified.items():
            verdicts[live[rest[j]][0]] = replace(verdict, seed=seeds[rest[j]])
        kept = [j for j in range(len(rest)) if j not in certified]
        if not kept:
            return verdicts
        rest, left, formed, stack = ([rest[j] for j in kept], left.take(kept),
                                     [formed[j] for j in kept], stack.take(kept))
    claims = _pencil_verdicts(stack, formed, _N_GRID, _MAX_REFINE, tol)
    pairs = [(live[i][1], seeds[i]) for i in rest]  # (T, seed) of each, T by identity
    # Only the matrices with a problem that descends get the whole block [I, V].
    fixed = {key: _fixed_starts(len(vs[key]), vs[key])
             for key in dict.fromkeys(key for key, _ in pairs)}
    starts = {(key, seed): _starts(fixed[key], _RESTARTS, seed)
              for key, seed in dict.fromkeys(pairs)}
    # A pencil NonMember claim's eigenvector is one more warm start of its
    # problem, in place of the last seeded start.
    x = np.array([starts[key, seed] if claim.status is not Status.NON_MEMBER else _starts(
        _fixed_starts(len(vs[key]), np.column_stack([vs[key], claim.witness.vector])),
        _RESTARTS - 1, seed) for (key, seed), claim in zip(pairs, claims)])
    bands = tol.tol_decision * np.array([scales[i] for i in rest])
    spheres = _descend(left.value_and_gradient, x, bands,
                       lambda kept: left.take(kept).value_and_gradient)
    units = np.array([vec / np.linalg.norm(vec) for _, vec in spheres])
    values = left(units[..., None])[:, 0].tolist()
    for i, (val, vec), unit, exact, claim, pencil in zip(rest, spheres, units, values,
                                                          claims, formed):
        verdicts[live[i][0]] = _reconcile(_sphere_verdict(val, vec, scales[i], tol, seeds[i]),
                                          claim, unit, exact, pencil.label)
    return verdicts


def _unit_columns(v: np.ndarray) -> np.ndarray:
    """The columns of v over their norms, as ``_fixed_starts`` normalizes
    its warm starts."""
    return v / np.linalg.norm(v, axis=0, keepdims=True)


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
    """Run every class predicate; keys follow the inclusion-chain order.
    KParanormal and AbsoluteKParanormal at k = 1 are paranormality itself
    and report the one Paranormal verdict (``_classify_plan``)."""
    m = as_operator(t)
    k_list = tuple(k_list)
    if not all(float(k).is_integer() for k in k_list):
        raise ValueError(f"every k must be an integer, got {list(k_list)}")
    if any(k < 0 for k in k_list):
        raise ValueError(f"every k must be nonnegative, got {list(k_list)}")
    ks = tuple(k for k in map(int, k_list) if k >= 1)
    ps = tuple(float(p) for p in p_list)
    head = [is_normal(m, tol), is_quasinormal(m, tol), is_hyponormal(m, tol)]
    head += [is_p_hyponormal(m, p, tol) for p in ps]
    head.append(is_class_a(m, tol))
    keys, problems, reads = _classify_plan(ks, ps)
    dual = _dual_verdicts([(m, name, k, seed) for name, k in problems], tol)
    return dict(zip(keys, [*head, *(dual[i] for i in reads), is_normaloid(m, tol)]))


@functools.lru_cache(maxsize=16)
def _classify_plan(ks: tuple, ps: tuple) -> tuple:
    """``classify_all``'s keys, in its order, its distinct dual problems
    (name, k), and for each dual key the index of the problem it reads,
    for the k >= 1 of ``ks`` and the p of ``ps``: the same on every call,
    so they are built, and their OperatorClass labels validated, once per
    (ks, ps). Paranormality is k-quasi-paranormality at k = 0, and
    KParanormal and AbsoluteKParanormal at k = 1 read that one problem,
    whose pencil (0, T*^2 T^2), (1, -2 T*T), (2, I) is theirs term for
    term; all dual problems of the matrix are decided together."""
    duals = (("KQuasiParanormal", 0),) + tuple(
        (name, k) for name in ("KParanormal", "AbsoluteKParanormal", "KQuasiParanormal") for k in ks
    )
    # KParanormal and AbsoluteKParanormal at k = 1 are paranormality:
    # ||Tx||^2 <= ||T^2 x|| for unit x, and || |T| y || = ||T y||.
    read = [duals[0] if k == 1 and name != "KQuasiParanormal" else (name, k) for name, k in duals]
    problems = tuple(dict.fromkeys(read))
    reads = tuple(map(problems.index, read))
    keys = [OperatorClass(name) for name in ("Normal", "Quasinormal", "Hyponormal")]
    keys += [OperatorClass("PHyponormal", p=p) for p in ps]
    keys += [OperatorClass("ClassA"), OperatorClass("Paranormal")]
    keys += [OperatorClass(name, k=k) for name, k in duals[1:]]
    keys.append(OperatorClass("Normaloid"))
    return tuple(keys), problems, reads


def chain_violations(verdicts: dict[OperatorClass, MembershipVerdict]) -> list[str]:
    """Inclusion-chain consistency over definite verdicts.

    Checks the main chain normal -> quasinormal -> hyponormal ->
    p-hyponormal (p descending) -> class A -> paranormal -> normaloid, the two k-indexed
    chains paranormal -> {k-paranormal, absolute-k-paranormal} -> normaloid,
    and monotonicity of k-quasi-paranormality in k. Inconclusive verdicts
    never participate. The implications to check depend on the classes
    alone (``_implications``); every status is read from one list. In
    ``classify_all``'s output KParanormal and AbsoluteKParanormal at k = 1
    are the Paranormal verdict, so the implications among those three
    hold by construction there.
    """
    keys = tuple(verdicts)
    status = [v.status for v in verdicts.values()]
    return [f"{keys[a]} is Member but {keys[b]} is NonMember" for a, b in _implications(keys)
            if status[a] is Status.MEMBER and status[b] is Status.NON_MEMBER]


@functools.lru_cache(maxsize=16)
def _implications(keys: tuple) -> tuple:
    """The implications ``chain_violations`` checks among the classes
    ``keys``, in its order, as (a, b) positions in ``keys``, class a
    implying class b; an implication with a class not in ``keys`` is left
    out. The same classes give the same pairs on every call, so they are
    derived once per tuple of keys."""
    at = {cls: i for i, cls in enumerate(keys)}
    para, normaloid = OperatorClass("Paranormal"), OperatorClass("Normaloid")
    chain = [OperatorClass(name) for name in ("Normal", "Quasinormal", "Hyponormal")]
    # p-hyponormal implies q-hyponormal for q <= p (Loewner-Heinz).
    chain += sorted((c for c in keys if c.name == "PHyponormal"), reverse=True)
    chain += [OperatorClass("ClassA"), para]
    present = [c for c in chain if c in at]
    pairs = [*zip(present, present[1:]), (para, normaloid)]
    for name in ("KParanormal", "AbsoluteKParanormal"):
        for cls in sorted(c for c in keys if c.name == name):
            pairs += [(para, cls), (cls, normaloid)]
    quasi = sorted(c for c in keys if c.name == "KQuasiParanormal")
    pairs += [(para, cls) for cls in quasi]
    pairs += [(a, b) for i, a in enumerate(quasi) for b in quasi[i + 1 :]]
    return tuple((at[a], at[b]) for a, b in pairs if a in at and b in at)
