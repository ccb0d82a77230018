"""Tests for the tile-kernel entry ``compute_tile``.

Every tile of every driver runs through
:func:`repro.core.exec.compute_tile`, whatever the variant (fused GEMM,
sparse scatter, exact permutation testing) and wherever the operands come
from (hoisted views of a resident tensor, a packed source, a rank codebook,
or slabs staged per tile).  The fused float64 kernel must be
*bit-identical* to the reference :func:`repro.core.mi.mi_tile` at the
slab's native precision — it is the default kernel under every driver, so
any last-bit drift would silently change released results.  Mixed float32
mode trades those guarantees for speed within a documented tolerance.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.bspline import weight_codebook, weight_tensor
from repro.core.entropy import marginal_entropies
from repro.core.exec import (
    CodebookSource,
    PackedWeightSource,
    TensorSource,
    compute_tile,
)
from repro.core.mi import TileWorkspace, _finish_block, mi_tile, prepare_operands
from repro.core.mi_matrix import mi_matrix
from repro.core.sparsekernel import _reset_backend_cache
from repro.core.tiling import Tile
from repro.parallel.engine import (
    SerialEngine,
    SharedMemoryEngine,
    ThreadEngine,
)
from repro.stats.random import permutation_matrix

# Tile shapes chosen to hit the degenerate 1x1 fallback, odd sizes (which
# historically exposed BLAS transpose-dispatch differences), and edge tiles.
TILE_SHAPES = [(0, 1, 1, 2), (0, 4, 4, 8), (0, 7, 7, 18), (3, 9, 9, 18),
               (0, 6, 6, 7), (0, 18, 0, 18)]


@pytest.fixture(scope="module")
def spline_data():
    return np.random.default_rng(11).normal(size=(18, 96))


@pytest.fixture(scope="module")
def spline_weights(spline_data):
    return weight_tensor(spline_data)


@pytest.fixture(scope="module")
def dense_weights():
    # Dense strictly-positive joint mass: exposes summation-order drift that
    # the mostly-zero B-spline weights can mask.
    rng = np.random.default_rng(17)
    w = rng.dirichlet(np.ones(10), size=(18, 96))
    return np.ascontiguousarray(w)


def _reference(weights, t, base="nat"):
    """``mi_tile`` of tile ``t`` with compute_tile's diagonal mask applied."""
    ref = mi_tile(weights[t.i0 : t.i1], weights[t.j0 : t.j1], base=base)
    if t.is_diagonal:
        ref[~t.pair_mask()] = 0.0
    return ref


def _tile(source, t, base="nat", **kw):
    return compute_tile(source, source.entropies(base), t, base, **kw)


def _fresh_worker(fn):
    """``fn()`` on a new thread, hence with a fresh worker workspace."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn).result()


class TestFusedBitIdentity:
    @pytest.mark.parametrize("fixture", ["spline_weights", "dense_weights"])
    @pytest.mark.parametrize("base", ["nat", "bit"])
    @pytest.mark.parametrize("i0,i1,j0,j1", TILE_SHAPES)
    def test_into_matches_legacy_float64(self, fixture, base, i0, i1, j0, j1,
                                         request, slab_source):
        # Staged operands: slabs copied into the worker workspace per tile.
        weights = request.getfixturevalue(fixture)
        t = Tile(i0, i1, j0, j1)
        got = _tile(slab_source(weights), t, base)
        assert np.array_equal(got, _reference(weights, t, base))

    @pytest.mark.parametrize("fixture", ["spline_weights", "dense_weights"])
    @pytest.mark.parametrize("i0,i1,j0,j1", TILE_SHAPES)
    def test_block_matches_legacy_float64(self, fixture, i0, i1, j0, j1,
                                          request):
        # Hoisted operands: views of the process-cached repacked tensor.
        weights = request.getfixturevalue(fixture)
        t = Tile(i0, i1, j0, j1)
        got = _tile(TensorSource(weights), t)
        assert np.array_equal(got, _reference(weights, t))

    def test_float32_slab_native_precision(self, dense_weights, slab_source):
        # dtype=None keeps the slab's own precision: a float32 tensor runs a
        # float32 GEMM bit-identical to the legacy float32 mi_tile path,
        # from hoisted and from staged operands alike.
        w32 = dense_weights.astype(np.float32)
        for i0, i1, j0, j1 in TILE_SHAPES:
            t = Tile(i0, i1, j0, j1)
            ref = _reference(w32, t)
            assert np.array_equal(_tile(TensorSource(w32), t), ref)
            assert np.array_equal(_tile(slab_source(w32), t), ref)

    def test_workspace_reuse_across_tiles(self, spline_weights, slab_source):
        # One worker workspace carried across every tile shape of a grid
        # must give the same answers as a fresh workspace per call, and no
        # later tile may overwrite a block already returned.
        source = slab_source(spline_weights)
        tiles = [Tile(*shape) for shape in TILE_SHAPES]
        blocks = [_tile(source, t) for t in tiles]
        kept = [b.copy() for b in blocks]
        for t, block, copy in zip(tiles, blocks, kept):
            assert np.array_equal(block, copy)
            assert np.array_equal(block, _fresh_worker(lambda t=t: _tile(source, t)))

    def test_out_parameter(self, spline_weights):
        # The exact tester writes every permuted replica into one reused
        # block: its counts must match fresh per-replica blocks, and the
        # block returned to the caller must not alias that buffer.
        perms = permutation_matrix(4, 96, seed=7)
        h = marginal_entropies(spline_weights)
        t = Tile(0, 4, 4, 9)
        got = compute_tile(spline_weights, h, t, permutations=perms)
        kept = got.copy()
        compute_tile(spline_weights, h, Tile(4, 8, 9, 14), permutations=perms)
        assert np.array_equal(got, kept)
        wi, wj = spline_weights[0:4], spline_weights[4:9]
        observed = mi_tile(wi, wj)
        exceed = sum(mi_tile(wi[:, p], wj) >= observed for p in perms)
        assert np.array_equal(got[..., 0], observed)
        assert np.array_equal(got[..., 1], exceed)

    def test_out_shape_validated(self):
        # The shared MI finish of both block kernels checks the reused block.
        hj = np.zeros((4, 5))
        with pytest.raises(ValueError):
            _finish_block(hj, np.zeros(4), np.zeros(5), 4, 5, "nat", np.empty((3, 5)))

    def test_entropies_accepted(self, dense_weights):
        h = marginal_entropies(dense_weights)
        got = compute_tile(dense_weights, h, Tile(0, 7, 7, 18))
        assert np.array_equal(got, mi_tile(dense_weights[0:7], dense_weights[7:18]))


class TestKernelDtype:
    def test_float32_mixed_within_tolerance(self, dense_weights):
        ref = mi_tile(dense_weights[0:9], dense_weights[9:18])
        got = _tile(TensorSource(dense_weights), Tile(0, 9, 9, 18),
                    kernel_dtype="float32")
        # Documented tolerance of the mixed-precision mode: float32 GEMM,
        # float64 entropy accumulation.
        assert np.allclose(got, ref, rtol=1e-5, atol=1e-5)
        assert not np.array_equal(got, ref)  # it really ran in float32

    def test_float64_forced_is_exact(self, dense_weights):
        ref = mi_tile(dense_weights[0:9], dense_weights[9:18])
        got = _tile(TensorSource(dense_weights), Tile(0, 9, 9, 18),
                    kernel_dtype="float64")
        assert np.array_equal(got, ref)

    def test_unknown_dtype_rejected(self, dense_weights):
        with pytest.raises(ValueError):
            _tile(TensorSource(dense_weights), Tile(0, 4, 4, 8),
                  kernel_dtype="float16")

    def test_mi_matrix_kernel_dtype_float32(self, small_weights):
        ref = mi_matrix(small_weights, tile=8).mi
        got = mi_matrix(small_weights, tile=8, kernel_dtype="float32").mi
        assert np.allclose(got, ref, rtol=1e-5, atol=1e-5)

    def test_mi_matrix_kernel_dtype_float64_exact(self, small_weights):
        ref = mi_matrix(small_weights, tile=8).mi
        got = mi_matrix(small_weights, tile=8, kernel_dtype="float64").mi
        assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# The compute_tile contract table: variant x kernel dtype x source x tile
# ---------------------------------------------------------------------------

TABLE_TILES = {"offdiag": Tile(0, 7, 7, 18), "diagonal": Tile(4, 12, 4, 12),
               "1x1": Tile(3, 4, 9, 10), "ragged": Tile(8, 16, 16, 18)}
TABLE_SOURCES = ("tensor", "ndarray", "codebook", "slabs", "packed")
TABLE_CASES = [
    (variant, dtype, source, tile)
    for variant in ("fused", "sparse", "sparse-numpy", "exact")
    for dtype in ((None,) if variant == "exact" else (None, "float32"))
    for source in TABLE_SOURCES
    for tile in TABLE_TILES
]


@pytest.fixture(scope="module")
def sparse_reference(spline_weights):
    """Sparse float64 blocks from hoisted operands on the default backend."""
    _reset_backend_cache()
    source = TensorSource(spline_weights)
    return {name: _tile(source, t, kernel="sparse")
            for name, t in TABLE_TILES.items()}


@pytest.fixture()
def make_source(spline_data, spline_weights, slab_source):
    def make(name, dtype):
        if name == "tensor":
            return TensorSource(spline_weights)
        if name == "ndarray":
            return spline_weights
        if name == "codebook":
            return CodebookSource(*weight_codebook(spline_data))
        if name == "slabs":
            return slab_source(spline_weights)
        return PackedWeightSource.from_source(TensorSource(spline_weights),
                                              dtype=dtype)

    return make


class TestComputeTileTable:
    """One contract per row, whatever the operands' origin:

    * fused float64 and exact: bitwise ``mi_tile`` (exceedance counts
      bitwise those of ``mi_tile`` on permuted row slabs);
    * sparse float64: bitwise equal across sources and backends, and
      within 1e-13 of ``mi_tile``;
    * float32 kernel dtype: fused within 1e-5, sparse within 5e-6.
    """

    @pytest.mark.parametrize("variant,dtype,source,tile", TABLE_CASES)
    def test_contract(self, variant, dtype, source, tile, spline_weights,
                      make_source, sparse_reference, monkeypatch):
        w = spline_weights
        t = TABLE_TILES[tile]
        h = marginal_entropies(w)
        if variant == "sparse-numpy":
            monkeypatch.setenv("REPRO_SPARSE_BACKEND", "numpy")
            _reset_backend_cache()
        kernel = "sparse" if variant.startswith("sparse") else None
        perms = permutation_matrix(6, w.shape[1], seed=0) if variant == "exact" else None
        try:
            got = compute_tile(make_source(source, dtype), h, t, kernel=kernel,
                               kernel_dtype=dtype, permutations=perms)
        finally:
            _reset_backend_cache()
        ref = _reference(w, t)
        if variant == "exact":
            observed = mi_tile(w[t.i0 : t.i1], w[t.j0 : t.j1])
            exceed = np.zeros(ref.shape)
            for p in perms:
                exceed += mi_tile(w[t.i0 : t.i1][:, p], w[t.j0 : t.j1]) >= observed
            if t.is_diagonal:
                exceed[~t.pair_mask()] = 0.0
            assert np.array_equal(got[..., 0], ref)
            assert np.array_equal(got[..., 1], exceed)
        elif kernel is None and dtype is None:
            assert np.array_equal(got, ref)
        elif kernel is None:
            assert np.allclose(got, ref, rtol=1e-5, atol=1e-5)
        elif dtype is None:
            assert got.tobytes() == sparse_reference[tile].tobytes()
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)
        else:
            np.testing.assert_allclose(got, ref, rtol=0, atol=5e-6)

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            compute_tile(np.zeros((4, 0, 10)), np.zeros(4), Tile(0, 2, 2, 4))


class TestEngineEquivalence:
    @pytest.mark.parametrize("kernel_dtype", [None, "float32"])
    def test_all_engines_identical(self, small_weights, kernel_dtype):
        ref = mi_matrix(small_weights, tile=8, kernel_dtype=kernel_dtype).mi
        for engine in (SerialEngine(), ThreadEngine(n_workers=3),
                       SharedMemoryEngine(n_workers=3)):
            got = mi_matrix(small_weights, tile=8, engine=engine,
                            kernel_dtype=kernel_dtype).mi
            assert np.array_equal(got, ref), type(engine).__name__


class TestPrepareOperands:
    def test_cached_by_identity(self, spline_weights):
        a = prepare_operands(spline_weights)
        b = prepare_operands(spline_weights)
        assert a[0] is b[0] and a[1] is b[1]

    def test_dtype_key(self, spline_weights):
        r64, _ = prepare_operands(spline_weights, np.float64)
        r32, _ = prepare_operands(spline_weights, np.float32)
        assert r64.dtype == np.float64 and r32.dtype == np.float32

    def test_layout(self, spline_weights):
        n, m, b = spline_weights.shape
        row_ops, col_ops = prepare_operands(spline_weights)
        assert row_ops.shape == (n, b, m) and row_ops.flags.c_contiguous
        assert col_ops.shape == (m, n * b) and col_ops.flags.c_contiguous

    def test_dead_tensor_leaves_no_entry(self):
        # Entries hold the tensor weakly: a finished run's weights and
        # their hoisted copies must not outlive it in the cache.
        import gc

        from repro.core.mi import _OPERAND_CACHE

        w = weight_tensor(np.random.default_rng(4).normal(size=(6, 30)))
        ops = prepare_operands(w)
        assert prepare_operands(w) is ops
        key = (id(w), w.dtype)
        assert key in _OPERAND_CACHE._entries
        del w
        gc.collect()
        assert key not in _OPERAND_CACHE._entries

    def test_concurrent_threads_get_their_own_operands(self):
        # Threads create, look up and drop tensors while weakref callbacks
        # shrink the shared cache under them: every lookup must return the
        # operands of the tensor it was given, and nothing may raise.
        import sys
        import threading

        from repro.core.mi import _OPERAND_CACHE

        errors = []

        def worker(seed):
            gen = np.random.default_rng(seed)
            try:
                for _ in range(150):
                    w = gen.random((3, 5, 4))
                    # Six threads share two slots, so a second lookup may
                    # miss; the operands must still be w's own.
                    row_ops, col_ops = prepare_operands(w)
                    assert np.array_equal(row_ops, w.transpose(0, 2, 1))
                    assert np.array_equal(col_ops, w.transpose(1, 0, 2).reshape(5, 12))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(_OPERAND_CACHE._entries) <= 2


class TestTileWorkspace:
    def test_buffers_reused(self):
        ws = TileWorkspace()
        a = ws.array("x", (4, 8))
        b = ws.array("x", (4, 8))
        assert a is b

    def test_smaller_view_shares_buffer(self):
        ws = TileWorkspace()
        big = ws.array("x", (8, 8))
        small = ws.array("x", (2, 3))
        assert small.base is not None and big.base is small.base

    def test_dtype_change_reallocates(self):
        ws = TileWorkspace()
        a = ws.array("x", (4,), np.float64)
        b = ws.array("x", (4,), np.float32)
        assert b.dtype == np.float32 and a.dtype == np.float64


class TestAutotuner:
    def test_mi_matrix_autotune(self, small_weights):
        # The knob is deprecated and does nothing: the tile comes from the
        # measured rule, and no sidecar file is read or written.
        ref = mi_matrix(small_weights).mi
        with pytest.warns(DeprecationWarning, match="autotune"):
            tuned = mi_matrix(small_weights, autotune=True).mi
        assert np.array_equal(tuned, ref)