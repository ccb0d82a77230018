"""Cross-engine equivalence: every engine yields bit-identical results.

Tiles are pure functions of the weight tensor, so serial, thread and
shared-memory fork-pool (write-in-place) execution must produce *exactly*
the same MI matrix — not merely close.  The same holds for the
checkpointed driver, which reuses the engines per block-row, and for a
rank-codebook source, whose tiles stage their slabs.  Strictly, the
contract is bitwise at an equal BLAS thread count (see
:class:`TestBlasThreadedShapeEquivalence`); the shapes of the other
suites here sum alike at every count.
"""

import numpy as np
import pytest

from repro.core.bspline import weight_codebook, weight_tensor
from repro.core.checkpoint import mi_matrix_checkpointed
from repro.core.discretize import rank_transform
from repro.core.mi_matrix import mi_matrix
from repro.core.exec import CodebookSource
from repro.parallel.engine import (
    SerialEngine,
    SharedMemoryEngine,
    ThreadEngine,
    blas_budget,
)


def engines():
    return [
        ("serial", SerialEngine()),
        ("thread", ThreadEngine(n_workers=3)),
        ("sharedmem", SharedMemoryEngine(n_workers=3)),
    ]


@pytest.fixture(scope="module")
def reference(small_weights):
    return mi_matrix(small_weights, tile=8).mi


class TestMiMatrixEquivalence:
    @pytest.mark.parametrize("kind,engine", engines(), ids=[k for k, _ in engines()])
    def test_bit_identical_to_serial(self, kind, engine, small_weights, reference):
        out = mi_matrix(small_weights, tile=8, engine=engine).mi
        assert np.array_equal(out, reference), f"{kind} diverged from serial"

    def test_sharedmem_preallocated_out(self, small_weights, reference):
        out = np.zeros_like(reference)
        result = mi_matrix(small_weights, tile=8,
                           engine=SharedMemoryEngine(n_workers=3), out=out)
        assert result.mi is out
        assert np.array_equal(out, reference)

    def test_out_shape_validated(self, small_weights):
        with pytest.raises(ValueError, match="out"):
            mi_matrix(small_weights, tile=8, out=np.zeros((3, 3)))


class TestSparseKernelEquivalence:
    """The sparse kernel is pure per pair, so every engine must reproduce
    the serial sparse matrix bit for bit — including elastic, which ships
    the packed slabs (:class:`repro.core.exec.PackedWeightSource`) instead
    of the dense tensor."""

    @pytest.fixture(scope="class")
    def sparse_reference(self, small_weights):
        return mi_matrix(small_weights, tile=8, kernel="sparse").mi

    @pytest.mark.parametrize("kind,engine", engines(), ids=[k for k, _ in engines()])
    def test_bit_identical_to_serial(self, kind, engine, small_weights,
                                     sparse_reference):
        out = mi_matrix(small_weights, tile=8, kernel="sparse",
                        engine=engine).mi
        assert np.array_equal(out, sparse_reference), f"{kind} diverged"

    def test_bit_identical_elastic(self, small_weights, sparse_reference):
        import threading

        from repro.cluster.elastic import ElasticEngine, worker_main

        eng = ElasticEngine(n_workers=2, spawn=False, heartbeat=0.5)
        threads = [
            threading.Thread(
                target=worker_main,
                args=(eng.coordinator.host, eng.coordinator.port),
                kwargs={"name": f"t{i}"}, daemon=True)
            for i in range(2)
        ]
        for t in threads:
            t.start()
        try:
            eng.coordinator.wait_for_workers(2, timeout=10)
            out = mi_matrix(small_weights, tile=8, kernel="sparse",
                            engine=eng).mi
            assert np.array_equal(out, sparse_reference)
        finally:
            eng.close()
            for t in threads:
                t.join(timeout=5)

    def test_close_to_dense_reference(self, sparse_reference, reference):
        # The documented sparse-vs-GEMM summation-order bound (~1 ulp).
        np.testing.assert_allclose(sparse_reference, reference,
                                   rtol=0, atol=1e-13)

    def test_float32_identical_across_engines(self, small_weights):
        ref = mi_matrix(small_weights, tile=8, kernel="sparse",
                        kernel_dtype="float32").mi
        for kind, engine in engines()[1:]:
            out = mi_matrix(small_weights, tile=8, kernel="sparse",
                            kernel_dtype="float32", engine=engine).mi
            assert np.array_equal(out, ref), f"{kind} diverged (float32)"


class TestBlasThreadedShapeEquivalence:
    """The engines' BLAS contract: MI is bitwise equal at an equal BLAS
    thread count, whatever the engine, and within a stated bound across
    counts.

    OpenBLAS sums a GEMM in another order at 1 thread than at 2 for some
    inner dimensions (here the sample count m): across counts m = 256
    matches bitwise, while m = 600 and 3,137 differ in the last bits.
    Serial under ``blas_budget(2)``, ``ThreadEngine(2)`` (which holds that
    budget per dispatch) and ``SharedMemoryEngine(2)`` (whose workers get
    the same share) all run at one count.
    """

    @pytest.fixture(scope="class")
    def weights(self, request):
        rng = np.random.default_rng(15)
        return weight_tensor(rank_transform(rng.normal(size=(64, request.param))),
                             bins=10, order=3)

    @pytest.mark.parametrize("weights", [256, 600, 3137], indirect=True)
    @pytest.mark.parametrize("dtype", [None, "float32"])
    @pytest.mark.parametrize("cls", [SharedMemoryEngine, ThreadEngine])
    def test_bit_identical_to_serial(self, weights, cls, dtype):
        with blas_budget(2):
            ref = mi_matrix(weights, kernel_dtype=dtype).mi
        out = mi_matrix(weights, kernel_dtype=dtype, engine=cls(n_workers=2)).mi
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("weights", [256, 600, 3137], indirect=True)
    @pytest.mark.parametrize("dtype", [None, "float32"])
    def test_within_bound_across_counts(self, weights, dtype):
        uncapped = mi_matrix(weights, kernel_dtype=dtype).mi
        with blas_budget(2):
            capped = mi_matrix(weights, kernel_dtype=dtype).mi
        if weights.shape[1] == 256:
            assert np.array_equal(capped, uncapped)
        elif dtype is None:
            np.testing.assert_allclose(capped, uncapped, rtol=1e-12, atol=0)
        else:
            # The mixed-precision kernel's own documented tolerance.
            np.testing.assert_allclose(capped, uncapped, rtol=1e-5, atol=1e-5)


class TestCheckpointedEquivalence:
    @pytest.mark.parametrize("kind,engine", engines(), ids=[k for k, _ in engines()])
    def test_bit_identical(self, kind, engine, small_weights, reference, tmp_path):
        out = mi_matrix_checkpointed(small_weights, tmp_path / kind, tile=8,
                                     engine=engine)
        assert np.array_equal(out, reference), f"{kind} diverged from serial"

    def test_resume_with_engine(self, small_weights, reference, tmp_path):
        ck = tmp_path / "resume"
        assert mi_matrix_checkpointed(small_weights, ck, tile=8,
                                      interrupt_after_rows=1) is None
        out = mi_matrix_checkpointed(small_weights, ck, tile=8,
                                     engine=SharedMemoryEngine(n_workers=2))
        assert np.array_equal(out, reference)


class TestCodebookEquivalence:
    @pytest.mark.parametrize("kind,engine", engines(), ids=[k for k, _ in engines()])
    def test_bit_identical(self, kind, engine, small_dataset, reference):
        source = CodebookSource(*weight_codebook(
            rank_transform(small_dataset.expression), bins=10, order=3))
        out = mi_matrix(source, tile=8, engine=engine).mi
        assert np.array_equal(out, reference), f"{kind} diverged"


class TestIncrementalDeltaEquivalence:
    """The sample-increment dirty-tile replay is engine-independent: the
    delta path (null rebuild + selective tile replay) must yield the same
    network as a serial update — bitwise — on every engine, elastic
    included."""

    @pytest.fixture(scope="class")
    def streaming(self):
        from repro.core.incremental import NetworkUpdater
        from repro.core.pipeline import TingeConfig, reconstruct_network

        rng = np.random.default_rng(42)
        n, m, dm = 30, 100, 2
        full = rng.normal(size=(n, m + dm))
        for k in range(n // 6):
            full[2 * k + 1] = full[2 * k] + 0.3 * rng.normal(size=m + dm)
        data, new = full[:, :m], full[:, m:]
        cfg = TingeConfig(n_permutations=8, n_null_pairs=50, alpha=0.05,
                          seed=3, tile=8)
        res_old = reconstruct_network(data, config=cfg)

        def updater():
            return NetworkUpdater.from_result(res_old, data)

        serial = updater()
        ref_delta = serial.add_samples(new)
        assert ref_delta is not None
        return updater, new, serial.network, ref_delta

    @pytest.mark.parametrize("kind,engine", engines(),
                             ids=[k for k, _ in engines()])
    def test_delta_bit_identical(self, kind, engine, streaming):
        updater, new, ref_net, ref_delta = streaming
        u = updater()
        delta = u.add_samples(new, engine=engine)
        net = u.network
        assert net.threshold == ref_net.threshold, f"{kind} threshold diverged"
        assert np.array_equal(net.adjacency, ref_net.adjacency), f"{kind} diverged"
        assert np.array_equal(net.weights, ref_net.weights), f"{kind} diverged"
        # Same screen, same replay set, whatever runs the tiles.
        assert delta.pairs_recomputed == ref_delta.pairs_recomputed
        assert delta.tiles_dirty == ref_delta.tiles_dirty

    def test_delta_bit_identical_elastic(self, streaming):
        import threading

        from repro.cluster.elastic import ElasticEngine, worker_main

        updater, new, ref_net, ref_delta = streaming
        eng = ElasticEngine(n_workers=2, spawn=False, heartbeat=0.5)
        threads = [
            threading.Thread(
                target=worker_main,
                args=(eng.coordinator.host, eng.coordinator.port),
                kwargs={"name": f"t{i}"}, daemon=True)
            for i in range(2)
        ]
        for t in threads:
            t.start()
        try:
            eng.coordinator.wait_for_workers(2, timeout=10)
            u = updater()
            delta = u.add_samples(new, engine=eng)
            net = u.network
            assert net.threshold == ref_net.threshold
            assert np.array_equal(net.adjacency, ref_net.adjacency)
            assert np.array_equal(net.weights, ref_net.weights)
            assert delta.pairs_recomputed == ref_delta.pairs_recomputed
        finally:
            eng.close()
            for t in threads:
                t.join(timeout=5)
