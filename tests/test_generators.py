import json

import numpy as np
import pytest

from opclass.decomposition import BlockLabel, nilpotent2_canonical, root_decompose, rr_check
from opclass.errors import InvalidIndex, InvalidSpec
from opclass.generators import (
    GenSpec,
    build,
    jordan_nilpotent,
    k_quasi_member,
    make_rng,
    normaloid_counterexample,
    random_ginibre,
    random_normal,
    random_unitary,
    root_of_scalar_instance,
    rr_instance,
)
from opclass.linalg import matrix_power, operator_norm
from opclass.membership import (
    Status,
    is_k_quasi_paranormal,
    is_normal,
    is_normaloid,
)


_STREAM_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1,
                 *np.random.default_rng(45).integers(0, 2**64, 4, dtype=np.uint64).tolist())


@pytest.mark.parametrize("lane", [(), (0,), (3, 1), (2**32,), (2**40 + 5, 7)], ids=repr)
def test_make_rng_is_numpys_seed_sequence_stream(lane):
    # make_rng hands SeedSequence the uint32 words that numpy assembles from
    # an int entropy and a spawn key; the stream and its spawned children
    # are those of numpy's own construction, bit for bit.
    for seed in _STREAM_SEEDS:
        ours = make_rng(seed, *lane)
        numpys = np.random.Generator(np.random.Philox(np.random.SeedSequence(
            entropy=seed & (2**64 - 1), spawn_key=lane)))
        for a, b in zip([ours, *ours.spawn(3)], [numpys, *numpys.spawn(3)]):
            np.testing.assert_array_equal(a.standard_normal(6), b.standard_normal(6))
            np.testing.assert_array_equal(a.integers(0, 2**63, 6), b.integers(0, 2**63, 6))


def test_make_rng_rejects_a_negative_lane_as_numpy_does():
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        np.random.SeedSequence(entropy=3, spawn_key=(1, -2))
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        make_rng(3, 1, -2)


def test_unitary_properties():
    u = random_unitary(5, 3)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-12)
    assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-10
    u1 = random_unitary(1, 9)
    assert abs(abs(u1[0, 0]) - 1.0) <= 1e-12


def test_determinism_is_bitwise():
    for fn, args in (
        (random_unitary, (4, 11)),
        (random_normal, (4, 11)),
        (random_ginibre, (4, 11)),
        (jordan_nilpotent, (5, 3, 11)),
        (normaloid_counterexample, (2, 2, 11)),
        (root_of_scalar_instance, (3, 3, 2.0 + 1j, 11)),
        (k_quasi_member, (3, 2, 1, 11)),
        (rr_instance, (2, 2, 11)),
    ):
        a, b = fn(*args), fn(*args)
        assert (a == b).all(), fn.__name__


def test_seeds_give_different_matrices():
    assert not np.allclose(random_unitary(4, 1), random_unitary(4, 2))


def test_random_normal_variants():
    n = random_normal(5, 7)
    assert is_normal(n).status is Status.MEMBER
    assert np.max(np.abs(np.linalg.eigvals(n))) <= 1.0 + 1e-9

    c = random_normal(3, 7, eigenvalues=[2.0, 2.0, 2.0])
    np.testing.assert_allclose(c, 2.0 * np.eye(3), atol=1e-12)

    h = random_normal(4, 7, eigenvalues=[1.0, -1.0, 0.5, 2.0])
    assert np.linalg.norm(h - h.conj().T) <= 1e-12

    with pytest.raises(InvalidSpec):
        random_normal(3, 7, eigenvalues=[1.0, 2.0])


def test_jordan_nilpotent_index_exact():
    for dim, index in ((2, 2), (5, 3), (6, 6)):
        n = jordan_nilpotent(dim, index, 3)
        assert np.linalg.norm(matrix_power(n, index)) <= 1e-10
        assert np.linalg.norm(matrix_power(n, index - 1)) > 1e-8
    with pytest.raises(InvalidIndex):
        jordan_nilpotent(3, 1, 0)
    with pytest.raises(InvalidIndex):
        jordan_nilpotent(3, 4, 0)


def test_jordan_nilpotent_is_quasi_member():
    for k in (1, 2, 3):
        n = jordan_nilpotent(k + 1, k + 1, seed=k)
        assert is_k_quasi_paranormal(n, k, seed=k).status is Status.MEMBER


def test_counterexample_guarantees():
    for seed in range(5):
        t = normaloid_counterexample(2, 2, seed)
        dim_m = 2
        m_blk = t[:dim_m, :dim_m]
        n_blk = t[dim_m:, dim_m:]
        # scaling contract: ||N|| = ||M|| / 2 exactly after rescaling
        assert operator_norm(n_blk) == pytest.approx(operator_norm(m_blk) / 2.0, rel=1e-12)
        assert is_normaloid(t).status is Status.MEMBER
        assert is_normal(t).status is Status.NON_MEMBER
        assert is_normal(t @ t).status is Status.MEMBER
        assert is_k_quasi_paranormal(t, 1, seed=seed).status is Status.MEMBER
    with pytest.raises(InvalidSpec):
        normaloid_counterexample(2, 1, 0)


def test_scalar_root_instances():
    t = root_of_scalar_instance(3, 1, 5.0 - 1j, 2)
    np.testing.assert_allclose(t, (5.0 - 1j) * np.eye(3), atol=1e-12)

    t = root_of_scalar_instance(3, 3, 8.0, 2)
    np.testing.assert_allclose(matrix_power(t, 3), 8.0 * np.eye(3), atol=1e-10)
    np.testing.assert_allclose(np.abs(np.linalg.eigvals(t)), 2.0, atol=1e-10)
    assert is_normal(t).status is Status.MEMBER

    t = root_of_scalar_instance(2, 4, 0.0, 2)
    np.testing.assert_allclose(t, np.zeros((2, 2)))


def test_k_quasi_member_guarantees():
    for seed in range(4):
        t = k_quasi_member(3, 2, 1, seed)
        assert is_k_quasi_paranormal(t, 1, seed=seed).status is Status.MEMBER
        assert is_normal(matrix_power(t, 2)).status is Status.MEMBER

    pure_nil = k_quasi_member(0, 3, 2, 1)
    assert is_k_quasi_paranormal(pure_nil, 2, seed=1).status is Status.MEMBER
    assert np.linalg.norm(matrix_power(pure_nil, 3)) <= 1e-10

    pure_normal = k_quasi_member(4, 0, 1, 1)
    assert is_normal(pure_normal).status is Status.MEMBER


def test_rr_instance_guarantees():
    for seed in range(4):
        t = rr_instance(2, 2, seed)
        assert rr_check(t).status is Status.MEMBER

    t = rr_instance(0, 3, 5, b_zero=True)
    assert np.linalg.norm(t @ t) <= 1e-12
    canon = nilpotent2_canonical(t)
    assert canon.residuals["c_min_singular"] > 0
    assert canon.residuals["basis"] < 1e-10

    # B = 0 instances with a normal block split under root_decompose with
    # the nilpotent part in [[0, C], [0, 0]] shape.
    t = rr_instance(2, 2, 6, b_zero=True)
    d = root_decompose(t, 2, 1, seed=6)
    nil = d.block(BlockLabel.NILPOTENT)
    assert nil is not None and nil.shape == (4, 4)
    assert np.linalg.norm(nil @ nil) <= 1e-10


def test_genspec_round_trip_and_build():
    spec = GenSpec("jordan", 5, {"dim": 4, "index": 3})
    text = json.dumps(spec.to_json_dict())
    back = GenSpec.from_json(text)
    assert back == spec
    np.testing.assert_array_equal(build(back), jordan_nilpotent(4, 3, 5))

    with pytest.raises(InvalidSpec):
        GenSpec("nope", 0, {})
    with pytest.raises(InvalidSpec):
        GenSpec.from_json("{bad json")
    with pytest.raises(InvalidSpec):
        build(GenSpec("jordan", 0, {"dim": 4}))


@pytest.mark.parametrize("params", [
    {"dim": 2, "eigenvalues": [[float("nan"), 0.0], [1.0, 0.0]]},
    {"dim": 2, "eigenvalues": [[1.0, float("inf")], [1.0, 0.0]]},
    {"dim": 2, "eigenvalues": [[1.0, 0.0, 0.0], [1.0, 0.0]]},
    {"dim": 2, "eigenvalues": [1.0, 0.0]},
])
def test_build_rejects_non_finite_or_malformed_eigenvalues(params):
    with pytest.raises(InvalidSpec, match="eigenvalues"):
        build(GenSpec("normal", 1, params))


@pytest.mark.parametrize("lam", [[float("inf"), 0.0], [0.0, float("nan")], [1.0], "8",
                                 [10**400, 0]])
def test_build_rejects_non_finite_or_malformed_lambda(lam):
    with pytest.raises(InvalidSpec, match="lambda"):
        build(GenSpec("scalar-root", 1, {"dim": 2, "n": 2, "lambda": lam}))


def test_build_rejects_non_integer_params():
    for dim in ("x", None, float("inf"), [3]):
        with pytest.raises(InvalidSpec, match="'dim'"):
            build(GenSpec("unitary", 1, {"dim": dim}))


def test_scalar_root_overflow_is_invalid_spec():
    # |lam| overflows a double although both parts are finite.
    with pytest.raises(InvalidSpec, match="overflows"):
        root_of_scalar_instance(2, 2, complex(1.5e308, 1.5e308), 1)


def test_build_keeps_a_negative_zero_eigenvalue_part():
    eig = [[1.0, -0.0], [-0.0, 1.0]]
    m = build(GenSpec("normal", 4, {"dim": 2, "eigenvalues": eig}))
    np.testing.assert_array_equal(m, random_normal(2, 4, [complex(1.0, -0.0), complex(-0.0, 1.0)]))


def test_build_covers_all_kinds():
    specs = [
        GenSpec("unitary", 1, {"dim": 3}),
        GenSpec("normal", 1, {"dim": 3}),
        GenSpec("normal", 1, {"dim": 2, "eigenvalues": [[1.0, 0.0], [0.0, 1.0]]}),
        GenSpec("ginibre", 1, {"dim": 3}),
        GenSpec("jordan", 1, {"dim": 3, "index": 2}),
        GenSpec("counterexample", 1, {"dim_m": 2, "dim_n": 2}),
        GenSpec("scalar-root", 1, {"dim": 3, "n": 2, "lambda": [4.0, 0.0]}),
        GenSpec("k-quasi", 1, {"dim_normal": 2, "dim_nil": 2, "k": 1}),
        GenSpec("rr", 1, {"dim_a": 1, "dim_bc": 2, "b_zero": True}),
    ]
    for spec in specs:
        m = build(spec)
        assert m.shape[0] == m.shape[1] >= 1


def _block_diag_reference(kind: str, *args) -> np.ndarray:
    """The generator ``kind`` as it was built with scipy.linalg.block_diag
    and a cast to complex, for the byte-for-byte comparison below."""
    import scipy.linalg

    from opclass import generators as g

    def block_diag(*blocks):
        return scipy.linalg.block_diag(*blocks).astype(np.complex128)

    def jordan(dim, index, seed):
        rng = g.make_rng(seed, 3)
        sizes, rest = [index], dim - index
        while rest > 0:
            s = int(rng.integers(1, min(index, rest) + 1))
            sizes.append(s)
            rest -= s
        n0 = block_diag(*[np.eye(s, k=1, dtype=np.complex128) for s in sizes])
        u = g._haar(dim, g.make_rng(seed, 3, 1))
        return u @ n0 @ u.conj().T

    if kind == "jordan":
        return jordan(*args)
    if kind == "rr":
        dim_a, dim_bc, seed = args
        w = g._haar(dim_bc, g.make_rng(seed, 7, 0))
        c = (w * g.make_rng(seed, 7, 1).uniform(0.5, 1.0, dim_bc)) @ w.conj().T
        c = (c + c.conj().T) / 2.0
        b = (w * g._annulus(g.make_rng(seed, 7, 2), dim_bc, 0.5, 1.0)) @ w.conj().T
        a = np.zeros((0, 0), dtype=np.complex128)
        if dim_a > 0:
            a = g._normal(g._annulus(g.make_rng(seed, 7, 3), dim_a, 0.5, 1.0),
                          g.make_rng(seed, 7, 4))
        return block_diag(a, np.block([[b, c], [np.zeros((dim_bc, dim_bc)), -b]]))
    if kind == "counterexample":
        dim_m, dim_n, seed = args
        m = g._normal(g._annulus(g.make_rng(seed, 4, 0), dim_m, 0.5, 1.0), g.make_rng(seed, 4, 1))
        nil = jordan(dim_n, 2, (seed * 0x9E3779B97F4A7C15 + 1) & g._MASK64)
        nil = nil * (float(np.linalg.norm(m, 2)) / 2.0 / float(np.linalg.norm(nil, 2)))
        return block_diag(m, nil)
    dim_normal, dim_nil, k, seed = args
    blocks = []
    if dim_normal > 0:
        eig = g._annulus(g.make_rng(seed, 6, 0), dim_normal, 0.5, 1.0)
        blocks.append(g._normal(eig, g.make_rng(seed, 6, 1)))
    if dim_nil > 0:
        max_index = min(k + 1, dim_nil)
        if max_index < 2:
            blocks.append(np.zeros((dim_nil, dim_nil), dtype=np.complex128))
        else:
            index = int(g.make_rng(seed, 6, 2).integers(2, max_index + 1))
            blocks.append(jordan(dim_nil, index, (seed * 0x9E3779B97F4A7C15 + 2) & g._MASK64))
    return block_diag(*blocks)


def _harness_blocks() -> list:
    """Lists of blocks as linalg._direct_sum gets them beyond the generators:
    0 x 0 blocks, as rr_assemble's absent A, the harness's fuglede-putnam
    commutant blocks and its normaloid-criterion normal plus nilpotent
    summands."""
    from opclass import generators as g

    groups = [[np.zeros((0, 0), dtype=complex), random_ginibre(3, 1)],
              [random_ginibre(2, 2), np.zeros((0, 0), dtype=complex), random_normal(1, 3)]]
    for dim in range(3, 13):
        for ts in (0, 1, 7):
            rng = g.make_rng(ts, 5)
            sizes, rest = [], dim
            while rest > 0:
                sizes.append(int(rng.integers(1, rest + 1)))
                rest -= sizes[-1]
            gauss = [g.make_rng(ts, 3, j) for j in range(len(sizes))]
            groups.append([r.standard_normal((s, s)) + 1j * r.standard_normal((s, s))
                           for r, s in zip(gauss, sizes)])
            d_nil = int(rng.integers(2, dim))
            normal = random_normal(dim - d_nil, ts)
            nil = jordan_nilpotent(d_nil, int(rng.integers(2, d_nil + 1)), ts ^ 0xABCD)
            groups.append([normal, nil * (operator_norm(normal) / 2.0 / operator_norm(nil))])
    return groups


def test_direct_sums_equal_block_diag_byte_for_byte():
    # The generators, rr_instance through rr_assemble, the decompositions
    # and the harness build their block-diagonal parts by slice assignment
    # (linalg._direct_sum); every output must be the block_diag
    # construction's, byte for byte, at dims 2-12, every index and block
    # split, and several seeds, with 0 x 0 blocks too.
    import scipy.linalg

    from opclass.linalg import _direct_sum

    cases = []
    for dim in range(2, 13):
        for seed in (0, 1, 7):
            cases += [("jordan", dim, index, seed) for index in range(2, dim + 1)]
            cases += [("counterexample", dim_m, dim - dim_m, seed) for dim_m in range(1, dim - 1)]
            cases += [("k-quasi", dim_normal, dim - dim_normal, k, seed)
                      for dim_normal in range(dim + 1) for k in range(4)]
            cases += [("rr", dim - 2 * dim_bc, dim_bc, seed) for dim_bc in range(1, dim // 2 + 1)]
    makers = {"jordan": jordan_nilpotent, "counterexample": normaloid_counterexample,
              "k-quasi": k_quasi_member, "rr": rr_instance}
    for kind, *args in cases:
        got, want = makers[kind](*args), _block_diag_reference(kind, *args)
        assert got.dtype == want.dtype and got.shape == want.shape, (kind, args)
        assert got.tobytes() == want.tobytes(), (kind, args)
    for blocks in _harness_blocks():
        got = _direct_sum(*blocks)
        want = scipy.linalg.block_diag(*blocks).astype(np.complex128)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), [b.shape for b in blocks]
