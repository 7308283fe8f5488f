"""Seeded construction of structured matrices.

All generators are pure functions of their arguments and a 64-bit seed.
Randomness comes from the counter-based Philox engine; independent
substreams are derived from the seed plus small integer lane tags, so
identical inputs give bit-identical matrices on every platform and parallel
streams never share state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidIndex, InvalidSpec
from .linalg import _direct_sum

__all__ = [
    "GenSpec",
    "make_rng",
    "random_unitary",
    "random_normal",
    "random_ginibre",
    "jordan_nilpotent",
    "normaloid_counterexample",
    "root_of_scalar_instance",
    "k_quasi_member",
    "rr_instance",
    "build",
    "GENERATORS",
    "GENERATOR_KINDS",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF


def make_rng(seed: int, *lane: int) -> np.random.Generator:
    """Philox stream for ``seed``; ``lane`` selects an independent substream."""
    ss = np.random.SeedSequence(
        entropy=int(seed) & _MASK64, spawn_key=tuple(int(x) for x in lane)
    )
    return np.random.Generator(np.random.Philox(ss))


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary via QR of a complex Gaussian with phase-corrected R."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    ph = d / np.abs(d)
    return q * ph


def _annulus(rng: np.random.Generator, size: int, r_lo: float, r_hi: float) -> np.ndarray:
    radius = np.sqrt(rng.uniform(r_lo**2, r_hi**2, size))
    angle = rng.uniform(0.0, 2.0 * np.pi, size)
    return radius * np.exp(1j * angle)


def _normal(eig: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """U diag(eig) U* for a Haar unitary U drawn from ``rng``."""
    u = _haar(eig.size, rng)
    return (u * eig) @ u.conj().T


def random_unitary(dim: int, seed: int) -> np.ndarray:
    if dim < 1:
        raise InvalidSpec("dim must be at least 1")
    return _haar(dim, make_rng(seed, 0))


def random_normal(dim: int, seed: int, eigenvalues=None) -> np.ndarray:
    """U diag(eigenvalues) U* for a Haar unitary U; the default spectrum is
    uniform on the unit disk."""
    if dim < 1:
        raise InvalidSpec("dim must be at least 1")
    if eigenvalues is None:
        eig = _annulus(make_rng(seed, 1, 1), dim, 0.0, 1.0)
    else:
        eig = np.asarray(eigenvalues, dtype=np.complex128)
        if eig.shape != (dim,):
            raise InvalidSpec(f"need exactly {dim} eigenvalues, got {eig.shape}")
    return _normal(eig, make_rng(seed, 1, 0))


def random_ginibre(dim: int, seed: int) -> np.ndarray:
    """Complex Ginibre matrix scaled by 1/sqrt(dim)."""
    if dim < 1:
        raise InvalidSpec("dim must be at least 1")
    rng = make_rng(seed, 2)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return z / np.sqrt(dim)


def jordan_nilpotent(dim: int, index: int, seed: int) -> np.ndarray:
    """Direct sum of nilpotent Jordan blocks (largest of size ``index``)
    conjugated by a Haar unitary; the nil-index is exactly ``index``."""
    if not 2 <= index <= dim:
        raise InvalidIndex(f"need 2 <= index <= dim, got index={index}, dim={dim}")
    rng = make_rng(seed, 3)
    sizes = [index]
    rest = dim - index
    while rest > 0:
        s = int(rng.integers(1, min(index, rest) + 1))
        sizes.append(s)
        rest -= s
    # One superdiagonal of ones, cut at the end of every block.
    n0 = np.eye(dim, k=1, dtype=np.complex128)
    ends = np.cumsum(sizes)[:-1]
    n0[ends - 1, ends] = 0.0
    u = _haar(dim, make_rng(seed, 3, 1))
    return u @ n0 @ u.conj().T


def normaloid_counterexample(dim_m: int, dim_n: int, seed: int) -> np.ndarray:
    """Normal block M plus an index-2 nilpotent block N with ||N|| = ||M||/2.

    The direct sum is normaloid and has normal even powers without being
    normal. M draws its eigenvalues from the annulus [1/2, 1].
    """
    if dim_m < 1 or dim_n < 2:
        raise InvalidSpec("need dim_m >= 1 and dim_n >= 2")
    m = _normal(_annulus(make_rng(seed, 4, 0), dim_m, 0.5, 1.0), make_rng(seed, 4, 1))
    nil = jordan_nilpotent(dim_n, 2, (seed * 0x9E3779B97F4A7C15 + 1) & _MASK64)
    norm_m = float(np.linalg.norm(m, 2))
    norm_n = float(np.linalg.norm(nil, 2))
    nil = nil * (norm_m / 2.0 / norm_n)
    return _direct_sum(m, nil)


def root_of_scalar_instance(dim: int, n: int, lam: complex, seed: int) -> np.ndarray:
    """A normal matrix T with T^n = lam I: the principal n-th root of lam
    times a unitary of order n (conjugated diagonal of n-th roots of unity)."""
    if dim < 1 or n < 1:
        raise InvalidSpec("dim and n must be at least 1")
    rng = make_rng(seed, 5, 0)
    picks = rng.integers(0, n, dim)
    roots = np.exp(2j * np.pi * picks / n)
    v = _haar(dim, make_rng(seed, 5, 1))
    u = (v * roots) @ v.conj().T
    try:
        root = complex(lam) ** (1.0 / n) if lam != 0 else 0.0
    except OverflowError as exc:
        raise InvalidSpec(f"the {n}-th root of {lam} overflows") from exc
    return root * u


def k_quasi_member(dim_normal: int, dim_nil: int, k: int, seed: int) -> np.ndarray:
    """Normal block plus nilpotent block of index at most k+1.

    Direct sums of k-quasi-paranormal operators are k-quasi-paranormal and
    nilpotents of index up to k+1 belong to the class, so the output is a
    certified member. The normal block draws eigenvalues from the annulus
    [1/2, 1] to keep powers well separated from zero.
    """
    if k < 0:
        raise InvalidSpec("k must be nonnegative")
    if dim_normal < 0 or dim_nil < 0 or dim_normal + dim_nil < 1:
        raise InvalidSpec("block dimensions must be nonnegative and not both zero")
    blocks = []
    if dim_normal > 0:
        eig = _annulus(make_rng(seed, 6, 0), dim_normal, 0.5, 1.0)
        blocks.append(_normal(eig, make_rng(seed, 6, 1)))
    if dim_nil > 0:
        max_index = min(k + 1, dim_nil)
        if max_index < 2:
            blocks.append(np.zeros((dim_nil, dim_nil), dtype=np.complex128))
        else:
            rng = make_rng(seed, 6, 2)
            index = int(rng.integers(2, max_index + 1))
            blocks.append(
                jordan_nilpotent(dim_nil, index, (seed * 0x9E3779B97F4A7C15 + 2) & _MASK64)
            )
    return _direct_sum(*blocks)


def rr_instance(
    dim_a: int, dim_bc: int, seed: int, *, b_zero: bool = False
) -> np.ndarray:
    """Assembled square root of a normal operator with randomized blocks.

    B and C are drawn simultaneously diagonal in a shared Haar basis, C with
    spectrum in [1/2, 1] (strictly positive, hence injective); A, when
    present, is a random normal block with annulus spectrum.
    """
    from .decomposition import rr_assemble

    if dim_a < 0 or dim_bc < 1:
        raise InvalidSpec("need dim_a >= 0 and dim_bc >= 1")
    w = _haar(dim_bc, make_rng(seed, 7, 0))
    c_eig = make_rng(seed, 7, 1).uniform(0.5, 1.0, dim_bc)
    c = (w * c_eig) @ w.conj().T
    c = (c + c.conj().T) / 2.0
    if b_zero:
        b = np.zeros((dim_bc, dim_bc), dtype=np.complex128)
    else:
        b_eig = _annulus(make_rng(seed, 7, 2), dim_bc, 0.5, 1.0)
        b = (w * b_eig) @ w.conj().T
    a = None
    if dim_a > 0:
        a = _normal(_annulus(make_rng(seed, 7, 3), dim_a, 0.5, 1.0), make_rng(seed, 7, 4))
    return rr_assemble(a, b, c)


def _integer(params: dict, key: str) -> int:
    try:
        return int(params[key])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"generator needs integer parameter {key!r}") from exc


def _from_pairs(value, key: str, ndim: int) -> np.ndarray:
    """Complex numbers from finite [re, im] pairs: one pair (``ndim`` 1) or a
    list of them (``ndim`` 2). Viewing the pairs keeps a -0.0 imaginary part."""
    try:
        pairs = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"{key} must be finite [re, im] pairs: {exc}") from exc
    if pairs.ndim != ndim or pairs.shape[-1] != 2 or not np.isfinite(pairs).all():
        raise InvalidSpec(f"{key} must be finite [re, im] pairs, got {value!r}")
    return pairs.view(np.complex128)[..., 0]


# How a spec parameter of each type is read and checked.
_READERS = {
    "int": _integer,
    "flag": lambda params, key: bool(params.get(key, False)),
    "pair": lambda params, key: complex(_from_pairs(params.get(key, (1, 0)), key, 1)),
    # None keeps the builder's random spectrum.
    "pairs": lambda params, key: (
        None if params.get(key) is None else _from_pairs(params[key], key, 2)
    ),
}

# Builder keyword of a spec parameter whose name is a Python keyword.
_ARGUMENT = {"lambda": "lam"}

# Each kind's builder and the parameters its GenSpec records, in recorded
# order, each with its type in ``_READERS``.
GENERATORS = {
    "unitary": (random_unitary, {"dim": "int"}),
    "normal": (random_normal, {"dim": "int", "eigenvalues": "pairs"}),
    "ginibre": (random_ginibre, {"dim": "int"}),
    "jordan": (jordan_nilpotent, {"dim": "int", "index": "int"}),
    "counterexample": (normaloid_counterexample, {"dim_m": "int", "dim_n": "int"}),
    "scalar-root": (root_of_scalar_instance, {"dim": "int", "n": "int", "lambda": "pair"}),
    "k-quasi": (k_quasi_member, {"dim_normal": "int", "dim_nil": "int", "k": "int"}),
    "rr": (rr_instance, {"dim_a": "int", "dim_bc": "int", "b_zero": "flag"}),
}

GENERATOR_KINDS = tuple(GENERATORS)


@dataclass(frozen=True)
class GenSpec:
    """Serializable recipe: generator kind, seed, and kind-specific params."""

    kind: str
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise InvalidSpec(f"unknown generator kind {self.kind!r}")
        if not 0 <= int(self.seed) <= _MASK64:
            raise InvalidSpec("seed must fit in 64 bits")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "seed": int(self.seed), "params": dict(self.params)}

    @staticmethod
    def from_json_dict(doc: dict) -> "GenSpec":
        try:
            kind = doc["kind"]
            seed = int(doc["seed"])
            params = dict(doc.get("params", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"malformed generator spec: {exc}") from exc
        return GenSpec(kind=kind, seed=seed, params=params)

    @staticmethod
    def from_json(text: str) -> "GenSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"not valid JSON: {exc}") from exc
        return GenSpec.from_json_dict(doc)


def build(spec: GenSpec) -> np.ndarray:
    """Materialize the matrix described by a GenSpec."""
    builder, params = GENERATORS[spec.kind]
    return builder(seed=spec.seed, **{
        _ARGUMENT.get(key, key): _READERS[type_](spec.params, key)
        for key, type_ in params.items()
    })
