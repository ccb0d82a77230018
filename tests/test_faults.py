"""Chaos suite: injected faults x engines x drivers.

Every test asserts the recovery invariant that matters at whole-genome
scale: a run under injected crash/hang/corrupt faults produces the
*bit-identical* MI matrix (and network) of a clean run, or — when the
retry budget is exhausted — enumerates exactly which tiles it gave up on
instead of aborting.
"""

import json

import numpy as np
import pytest

from repro.cluster.distributed import distributed_reconstruct
from repro.core.bspline import weight_tensor
from repro.core.checkpoint import checkpoint_status, mi_matrix_checkpointed
from repro.core.mi_matrix import mi_matrix
from repro.core.outofcore import build_weight_store, mi_matrix_outofcore
from repro.faults import (
    FAULT_KINDS,
    REPRO_FAULTS_ENV,
    FaultPlan,
    FaultPolicy,
    FaultToleranceExceeded,
    InjectedFault,
    plan_from_env,
    task_key,
)
from repro.obs import Tracer, fault_summary, load_events, write_jsonl
from repro.parallel import ENGINE_KINDS, make_engine

N_GENES = 14
TILE = 5  # 3x3 upper-tri block grid -> 6 tiles
CHAOS_SEED = 3  # faults tiles (0,5), (0,10), (10,10) at rate 0.5
CHAOS_RATE = 0.5

ENGINES = ["serial", "thread", "process", "sharedmem"]
FORK_ENGINES = ("process", "sharedmem")


@pytest.fixture(scope="module")
def weights():
    rng = np.random.default_rng(7)
    return weight_tensor(rng.normal(size=(N_GENES, 24)))


@pytest.fixture(scope="module")
def baseline(weights):
    return mi_matrix(weights, tile=TILE).mi


def _engine(kind, faults=None, n_workers=2):
    try:
        return make_engine(kind, n_workers=n_workers, faults=faults)
    except RuntimeError as exc:  # no fork start method on this platform
        pytest.skip(f"{kind} engine unavailable: {exc}")


def _chaos_plan(kind_of_fault, fork, max_failures=1):
    # Fork engines get a long hang + short timeout so hung-worker
    # replacement actually fires; in-process hangs can't be killed, so
    # they just add a short delay.
    hang = 2.0 if fork else 0.02
    return FaultPlan(seed=CHAOS_SEED, rate=CHAOS_RATE, kinds=(kind_of_fault,),
                     max_failures=max_failures, hang_seconds=hang)


class TestFaultPlan:
    def test_deterministic_across_instances(self):
        a = FaultPlan(seed=11, rate=0.5)
        b = FaultPlan(seed=11, rate=0.5)
        keys = [f"tile:{i}:{j}" for i in range(0, 40, 5) for j in range(0, 40, 5)]
        assert [a.decide(k) for k in keys] == [b.decide(k) for k in keys]
        c = FaultPlan(seed=12, rate=0.5)
        assert [a.decide(k) for k in keys] != [c.decide(k) for k in keys]

    def test_env_round_trip(self):
        plan = FaultPlan(seed=5, rate=0.3, kinds=("crash", "hang"),
                         max_failures=None, hang_seconds=0.5,
                         engine_failures=2, scope="all")
        back = FaultPlan.from_env(plan.to_env())
        assert (back.seed, back.rate, back.kinds) == (5, 0.3, ("crash", "hang"))
        assert back.max_failures is None
        assert back.hang_seconds == 0.5
        assert back.engine_failures == 2
        assert back.scope == "all"
        keys = [f"tile:{i}:{j}" for i in range(0, 30, 5) for j in range(0, 30, 5)]
        assert [plan.decide(k) for k in keys] == [back.decide(k) for k in keys]

    def test_plan_from_env(self, monkeypatch):
        monkeypatch.delenv(REPRO_FAULTS_ENV, raising=False)
        assert plan_from_env() is None
        monkeypatch.setenv(REPRO_FAULTS_ENV, FaultPlan(seed=9).to_env())
        assert plan_from_env().seed == 9
        monkeypatch.setenv(REPRO_FAULTS_ENV, "{not json")
        with pytest.raises(ValueError, match=REPRO_FAULTS_ENV):
            plan_from_env()

    def test_scope_tiles_only_faults_tiles(self):
        plan = FaultPlan(seed=1, rate=1.0)
        assert plan.decide("tile:0:0") is not None
        assert plan.decide("item:0") is None  # null-phase batches untouched
        assert FaultPlan(seed=1, rate=1.0, scope="all").decide("item:0") is not None

    def test_failure_budget_recovers(self):
        plan = FaultPlan(seed=1, rate=1.0, kinds=("crash",), max_failures=2)
        key = "tile:0:0"
        assert plan.should_fire(key) is not None
        plan.record_failure(0)  # int 0 -> "item:0", unrelated key
        assert plan.should_fire(key) is not None

        class T:
            i0, j0 = 0, 0

        plan.record_failure(T())
        assert plan.should_fire(key) is not None  # one failure burned of two
        plan.record_failure(T())
        assert plan.should_fire(key) is None  # budget exhausted -> runs clean

    def test_sticky_fault_never_recovers(self):
        plan = FaultPlan(seed=1, rate=1.0, kinds=("crash",), max_failures=None)

        class T:
            i0, j0 = 0, 0

        for _ in range(5):
            plan.record_failure(T())
        assert plan.should_fire("tile:0:0") is not None

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            FaultPlan(rate=1.5)
        with pytest.raises(ValueError, match="kinds"):
            FaultPlan(kinds=("segfault",))
        with pytest.raises(ValueError, match="scope"):
            FaultPlan(scope="rows")

    def test_task_key_stability(self):
        class T:
            i0, j0 = 3, 9

        assert task_key(T()) == "tile:3:9"
        assert task_key(7) == "item:7"
        assert task_key(np.int64(7)) == "item:7"
        assert task_key("x") == task_key("x")


class TestChaosMatrix:
    """The acceptance matrix: every fault kind x every engine recovers to
    the bit-identical MI matrix."""

    @pytest.mark.parametrize("kind", ENGINES)
    @pytest.mark.parametrize("fault", list(FAULT_KINDS))
    def test_recovers_bit_identical(self, weights, baseline, kind, fault):
        fork = kind in FORK_ENGINES
        if fault == "hang" and fork:
            timeout = 0.25
        else:
            timeout = None
        plan = _chaos_plan(fault, fork)
        assert plan.faulted(_tiles(weights))  # the seed must fault something
        eng = _engine(kind, faults=plan)
        tracer = Tracer()
        policy = FaultPolicy(max_retries=3, backoff=0.01, task_timeout=timeout)
        res = mi_matrix(weights, tile=TILE, engine=eng, tracer=tracer,
                        policy=policy)
        assert np.array_equal(res.mi, baseline)
        assert res.quarantined == []
        if fault == "crash":
            assert tracer.counters.get("task_retries", 0) >= 1
        elif fault == "corrupt":
            assert tracer.counters.get("task_corruptions", 0) >= 1
        elif fork:  # hang on a killable engine -> timeout + replacement
            assert tracer.counters.get("task_timeouts", 0) >= 1

    @pytest.mark.parametrize("kind", ENGINES)
    @pytest.mark.parametrize("fault", ["crash", "corrupt"])
    def test_sparse_kernel_recovers_bit_identical(self, weights, kind, fault):
        """Chaos through the sparse tile path: retries replay the packed
        scatter kernel and must land on the clean sparse matrix exactly."""
        fork = kind in FORK_ENGINES
        sparse_baseline = mi_matrix(weights, tile=TILE, kernel="sparse").mi
        plan = _chaos_plan(fault, fork)
        assert plan.faulted(_tiles(weights))
        eng = _engine(kind, faults=plan)
        tracer = Tracer()
        policy = FaultPolicy(max_retries=3, backoff=0.01)
        res = mi_matrix(weights, tile=TILE, kernel="sparse", engine=eng,
                        tracer=tracer, policy=policy)
        assert np.array_equal(res.mi, sparse_baseline)
        assert res.quarantined == []
        counter = "task_retries" if fault == "crash" else "task_corruptions"
        assert tracer.counters.get(counter, 0) >= 1

    def test_no_policy_crash_propagates(self, weights):
        plan = _chaos_plan("crash", fork=False)
        eng = _engine("thread", faults=plan)
        with pytest.raises(FaultToleranceExceeded, match=InjectedFault.__name__):
            mi_matrix(weights, tile=TILE, engine=eng)

    @pytest.mark.parametrize("kind", ["serial", "thread", "sharedmem"])
    def test_default_policy_raises_on_nan_tiles(self, weights, kind):
        """No policy means one attempt per tile: a NaN block aborts the run
        instead of leaving a silent hole in the network."""
        plan = FaultPlan(seed=CHAOS_SEED, rate=1.0, kinds=("corrupt",),
                         max_failures=None)
        with pytest.raises(FaultToleranceExceeded, match="corrupt"):
            mi_matrix(weights, tile=TILE, engine=_engine(kind, faults=plan))

    def test_no_faults_with_policy_is_identical(self, weights, baseline):
        tracer = Tracer()
        res = mi_matrix(weights, tile=TILE, engine=_engine("thread"),
                        tracer=tracer, policy=FaultPolicy(max_retries=2))
        assert np.array_equal(res.mi, baseline)
        assert all(tracer.counters.get(k, 0) == 0
                   for k in ("task_retries", "task_timeouts",
                             "task_corruptions", "tasks_quarantined",
                             "engine_fallbacks"))


def _tiles(weights):
    from repro.core.exec import TensorSource, plan_tiles

    return plan_tiles(TensorSource(weights), tile=TILE).tiles


class TestQuarantine:
    def test_sticky_faults_quarantine_instead_of_abort(self, weights, baseline):
        plan = FaultPlan(seed=CHAOS_SEED, rate=CHAOS_RATE, kinds=("crash",),
                         max_failures=None)  # never recovers
        poisoned = {s.key for s in plan.faulted(_tiles(weights))}
        assert poisoned  # the chaos seed must actually fault something
        tracer = Tracer()
        res = mi_matrix(weights, tile=TILE, engine=_engine("thread", plan),
                        tracer=tracer,
                        policy=FaultPolicy(max_retries=1, backoff=0.01,
                                           on_fault="quarantine"))
        assert {f"tile:{q.i0}:{q.j0}" for q in res.quarantined} == poisoned
        assert tracer.counters["tasks_quarantined"] == len(poisoned)
        for q in res.quarantined:
            assert np.all(res.mi[q.i0:q.i1, q.j0:q.j1] == 0.0)
            assert np.all(res.mi[q.j0:q.j1, q.i0:q.i1] == 0.0)  # mirrored zero
        # Untouched blocks match the clean run exactly.
        mask = np.ones_like(baseline, dtype=bool)
        for q in res.quarantined:
            mask[q.i0:q.i1, q.j0:q.j1] = False
            mask[q.j0:q.j1, q.i0:q.i1] = False
        assert np.array_equal(res.mi[mask], baseline[mask])

    def test_quarantine_mode_skips_retries(self, weights):
        plan = FaultPlan(seed=CHAOS_SEED, rate=CHAOS_RATE, kinds=("crash",),
                         max_failures=None)
        tracer = Tracer()
        res = mi_matrix(weights, tile=TILE, engine=_engine("thread", plan),
                        tracer=tracer,
                        policy=FaultPolicy(max_retries=3, backoff=0.01,
                                           on_fault="quarantine"))
        assert res.quarantined
        assert tracer.counters.get("task_retries", 0) == 0

    def test_on_fault_raise_aborts(self, weights):
        plan = FaultPlan(seed=CHAOS_SEED, rate=CHAOS_RATE, kinds=("crash",),
                         max_failures=None)
        with pytest.raises(FaultToleranceExceeded) as exc:
            mi_matrix(weights, tile=TILE, engine=_engine("thread", plan),
                      policy=FaultPolicy(max_retries=1, backoff=0.01,
                                         on_fault="raise"))
        assert exc.value.quarantined

    def test_engine_fault_spans_record_quarantine(self, weights, tmp_path):
        plan = FaultPlan(seed=CHAOS_SEED, rate=CHAOS_RATE, kinds=("crash",),
                         max_failures=None)
        tracer = Tracer()
        mi_matrix(weights, tile=TILE, engine=_engine("thread", plan),
                  tracer=tracer,
                  policy=FaultPolicy(max_retries=0, on_fault="quarantine"))
        path = write_jsonl(tracer, tmp_path / "trace.jsonl")
        summary = fault_summary(load_events(path))
        assert summary["tasks_quarantined"] >= 1
        assert summary["engine_fault_events"] >= 1


class TestEngineFallback:
    def test_injected_engine_failures_degrade_and_recover(self, weights, baseline):
        plan = FaultPlan(seed=0, rate=0.0, engine_failures=2)
        eng = _engine("sharedmem", faults=plan)
        tracer = Tracer()
        res = mi_matrix(weights, tile=TILE, engine=eng, tracer=tracer,
                        policy=FaultPolicy(max_retries=2, backoff=0.01))
        assert np.array_equal(res.mi, baseline)
        assert tracer.counters["engine_fallbacks"] == 2  # sharedmem->process->thread

    def test_fallback_does_not_trigger_without_policy(self, weights, baseline):
        # A healthy engine under the default policy never degrades.
        res = mi_matrix(weights, tile=TILE, engine=_engine("thread"))
        assert np.array_equal(res.mi, baseline)

    def test_make_engine_fallback_flag(self, monkeypatch):
        import repro.parallel.engine as engine_mod

        def broken(*args, **kwargs):
            raise RuntimeError("no fork support")

        monkeypatch.setattr(engine_mod.ProcessEngine, "__init__", broken)
        eng = make_engine("process", fallback=True)
        assert type(eng).__name__ == "ThreadEngine"
        with pytest.raises(RuntimeError):
            make_engine("process", fallback=False)


class TestMakeEngineValidation:
    def test_unknown_kind_message(self):
        with pytest.raises(ValueError) as exc:
            make_engine("gpu")
        assert str(exc.value) == (
            "unknown engine kind 'gpu'; valid kinds: "
            "serial, thread, process, sharedmem, elastic"
        )

    def test_engine_kinds_exported(self):
        assert ENGINE_KINDS == ("serial", "thread", "process", "sharedmem",
                                "elastic")

    def test_env_hook_attaches_plan(self, monkeypatch):
        plan = FaultPlan(seed=21, rate=0.25)
        monkeypatch.setenv(REPRO_FAULTS_ENV, plan.to_env())
        eng = make_engine("thread")
        assert eng.faults is not None and eng.faults.seed == 21
        monkeypatch.delenv(REPRO_FAULTS_ENV)
        assert make_engine("thread").faults is None

    def test_explicit_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(REPRO_FAULTS_ENV, FaultPlan(seed=21).to_env())
        eng = make_engine("thread", faults=FaultPlan(seed=5))
        assert eng.faults.seed == 5


class TestCheckpointUnderFaults:
    def test_interrupt_resume_identical(self, weights, baseline, tmp_path):
        plan = _chaos_plan("crash", fork=False)
        policy = FaultPolicy(max_retries=3, backoff=0.01)
        ck = tmp_path / "ck"
        first = mi_matrix_checkpointed(
            weights, ck, tile=TILE, interrupt_after_rows=1,
            engine=_engine("thread", plan), policy=policy)
        assert first is None  # interrupted mid-run
        status = checkpoint_status(ck)
        assert 0 < status["done_rows"] < status["total_rows"]
        # Resume under a fresh plan (fresh ledger: faults fire again).
        resumed = mi_matrix_checkpointed(
            weights, ck, tile=TILE,
            engine=_engine("thread", _chaos_plan("crash", fork=False)),
            policy=policy)
        assert np.array_equal(resumed, baseline)

    def test_quarantine_persisted_in_ledger(self, weights, tmp_path):
        plan = FaultPlan(seed=CHAOS_SEED, rate=CHAOS_RATE, kinds=("crash",),
                         max_failures=None)
        ck = tmp_path / "ck"
        out = mi_matrix_checkpointed(
            weights, ck, tile=TILE, engine=_engine("thread", plan),
            policy=FaultPolicy(max_retries=0, on_fault="quarantine"))
        assert out is not None
        recorded = checkpoint_status(ck)["quarantined"]
        assert recorded  # survives in the ledger on disk
        expected = {s.key for s in plan.faulted(_tiles(weights))}
        assert {f"tile:{d['i0']}:{d['j0']}" for d in recorded} == expected
        # Quarantined (never-computed) blocks are NaN in the assembled
        # matrix — not zeros masquerading as tested non-edges.  The
        # diagonal keeps the no-self-edge zero convention.
        for d in recorded:
            block = out[d["i0"]:d["i1"], d["j0"]:d["j1"]]
            i = np.arange(d["i0"], d["i1"])[:, None]
            j = np.arange(d["j0"], d["j1"])[None, :]
            assert np.all(np.isnan(block[i != j]))
            assert np.all(block[i == j] == 0.0)
            mirrored = out[d["j0"]:d["j1"], d["i0"]:d["i1"]]
            assert np.all(np.isnan(mirrored[j.T != i.T]))


class TestOutOfCoreUnderFaults:
    def test_chaos_identical_and_no_sidecar(self, weights, baseline, tmp_path):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(N_GENES, 24))
        store = build_weight_store(data, tmp_path / "w")
        clean = np.load(mi_matrix_outofcore(store, tmp_path / "clean", tile=TILE))
        out = mi_matrix_outofcore(
            store, tmp_path / "mi", tile=TILE,
            engine=_engine("thread", _chaos_plan("crash", fork=False)),
            policy=FaultPolicy(max_retries=3, backoff=0.01))
        assert np.array_equal(np.load(out), clean)
        assert not out.with_name(out.name + ".quarantine.json").exists()

    def test_sticky_faults_write_sidecar(self, weights, tmp_path):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(N_GENES, 24))
        store = build_weight_store(data, tmp_path / "w")
        plan = FaultPlan(seed=CHAOS_SEED, rate=CHAOS_RATE, kinds=("crash",),
                         max_failures=None)
        out = mi_matrix_outofcore(
            store, tmp_path / "mi", tile=TILE, engine=_engine("thread", plan),
            policy=FaultPolicy(max_retries=0, on_fault="quarantine"))
        sidecar = out.with_name(out.name + ".quarantine.json")
        assert sidecar.exists()
        records = json.loads(sidecar.read_text())
        assert records and all("i0" in r and "error" in r for r in records)
        mi = np.load(out)
        for r in records:
            assert np.all(mi[r["i0"]:r["i1"], r["j0"]:r["j1"]] == 0.0)


class TestDistributedRankLoss:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(0)
        return rng.normal(size=(20, 40))

    def test_rank_loss_bit_identical(self, data):
        base = distributed_reconstruct(data, n_ranks=4, tile=6)
        lossy = distributed_reconstruct(data, n_ranks=4, tile=6,
                                        lost_ranks=(1, 3))
        assert np.array_equal(base.mi, lossy.mi)
        assert base.threshold == lossy.threshold
        assert np.array_equal(base.network.adjacency, lossy.network.adjacency)
        assert lossy.lost_ranks == (1, 3)
        assert lossy.reassigned_tiles > 0
        assert lossy.tiles_per_rank[1] == 0 and lossy.tiles_per_rank[3] == 0

    def test_rank_loss_with_faulty_engine(self, data):
        base = distributed_reconstruct(data, n_ranks=4, tile=6)
        eng = _engine("thread", FaultPlan(seed=CHAOS_SEED, rate=CHAOS_RATE,
                                          kinds=("crash",)))
        faulty = distributed_reconstruct(
            data, n_ranks=4, tile=6, lost_ranks=(2,), engine=eng,
            policy=FaultPolicy(max_retries=3, backoff=0.01))
        assert np.array_equal(base.mi, faulty.mi)
        assert faulty.quarantined == []

    def test_cannot_lose_every_rank(self, data):
        with pytest.raises(ValueError, match="at least one must survive"):
            distributed_reconstruct(data, n_ranks=2, lost_ranks=(0, 1))
        with pytest.raises(ValueError, match="out of range"):
            distributed_reconstruct(data, n_ranks=2, lost_ranks=(5,))

    def test_comm_mark_failed(self):
        from repro.cluster.comm import LockstepComm

        comm = LockstepComm(3)
        comm.mark_failed(1)
        assert comm.alive == [0, 2]
        acc = comm.allreduce([np.ones(2), None, np.ones(2)])
        assert np.array_equal(acc[0], 2 * np.ones(2))
        with pytest.raises(ValueError, match="survive"):
            comm.mark_failed(0), comm.mark_failed(2)
        with pytest.raises(ValueError, match="live contribution"):
            LockstepComm(1).allreduce([None])


class TestDriverPaths:
    """Fault policy threading through every public driver."""

    def test_auto_reconstruct_reports_quarantine(self, tmp_path):
        from repro.core.driver import auto_reconstruct
        from repro.core.pipeline import TingeConfig

        rng = np.random.default_rng(2)
        data = rng.normal(size=(16, 30))
        clean = auto_reconstruct(data, checkpoint=False)
        plan = FaultPlan(seed=CHAOS_SEED, rate=CHAOS_RATE, kinds=("crash",))
        res = auto_reconstruct(
            data, checkpoint=False,
            config=TingeConfig(max_retries=3, on_fault="retry"),
            engine=_engine("thread", plan))
        assert np.array_equal(res.network.adjacency, clean.network.adjacency)
        assert res.quarantined == []

    def test_pipeline_config_policy(self, weights):
        from repro.core.pipeline import TingeConfig, reconstruct_network

        rng = np.random.default_rng(2)
        data = rng.normal(size=(16, 30))
        clean = reconstruct_network(data)
        plan = FaultPlan(seed=CHAOS_SEED, rate=CHAOS_RATE, kinds=("crash",))
        res = reconstruct_network(
            data, config=TingeConfig(max_retries=3, on_fault="retry"),
            engine=_engine("thread", plan))
        assert np.array_equal(res.network.adjacency, clean.network.adjacency)
        assert res.quarantined == []

    def test_config_validates_fault_fields(self):
        from repro.core.pipeline import TingeConfig

        with pytest.raises(ValueError, match="max_retries"):
            TingeConfig(max_retries=-1)
        with pytest.raises(ValueError, match="task_timeout"):
            TingeConfig(task_timeout=0.0)
        with pytest.raises(ValueError, match="on_fault"):
            TingeConfig(on_fault="panic")
        default = TingeConfig().fault_policy()
        assert (default.max_retries, default.on_fault) == (0, "raise")
        p = TingeConfig(max_retries=2, on_fault="quarantine").fault_policy()
        assert p.max_retries == 2 and p.on_fault == "quarantine"


class TestIncrementalChaos:
    """Chaos on the sample-increment path: injected faults during the
    dirty-tile replay retry to a network bit-identical to a clean update
    (and hence to a from-scratch run on the grown dataset)."""

    @pytest.fixture(scope="class")
    def streaming(self):
        from repro.core.incremental import NetworkUpdater
        from repro.core.pipeline import TingeConfig, reconstruct_network

        rng = np.random.default_rng(5)
        n, m, dm = N_GENES, 40, 2
        full = rng.normal(size=(n, m + dm))
        for k in range(4):
            full[2 * k + 1] = full[2 * k] + 0.35 * rng.normal(size=m + dm)
        data, new = full[:, :m], full[:, m:]
        cfg = TingeConfig(n_permutations=8, n_null_pairs=40, alpha=0.05,
                          seed=3, tile=TILE, max_retries=3, on_fault="retry")
        res_old = reconstruct_network(data, config=cfg)
        res_full = reconstruct_network(full, config=cfg)

        def updater():
            return NetworkUpdater.from_result(res_old, data)

        return updater, new, res_full

    @pytest.mark.parametrize("fault", ["crash", "corrupt"])
    def test_faulted_replay_recovers_bit_identical(self, streaming, fault):
        updater, new, res_full = streaming
        plan = _chaos_plan(fault, fork=False)
        tracer = Tracer()
        u = updater()
        delta = u.add_samples(new, engine=_engine("thread", faults=plan),
                              tracer=tracer)
        assert delta is not None
        assert delta.quarantined == []
        net = u.network
        assert net.threshold == res_full.network.threshold
        assert np.array_equal(net.adjacency, res_full.network.adjacency)
        counter = ("task_retries" if fault == "crash" else "task_corruptions")
        assert tracer.counters.get(counter, 0) >= 1

    def test_env_plan_reaches_replay(self, streaming, monkeypatch):
        """REPRO_FAULTS injects into the update exactly like any other
        tile run (forked engine workers read the same env)."""
        updater, new, res_full = streaming
        plan = FaultPlan(seed=CHAOS_SEED, rate=CHAOS_RATE, kinds=("crash",))
        monkeypatch.setenv(REPRO_FAULTS_ENV, plan.to_env())
        u = updater()
        delta = u.add_samples(new, engine=_engine("thread"))
        assert delta is not None
        net = u.network
        assert net.threshold == res_full.network.threshold
        assert np.array_equal(net.adjacency, res_full.network.adjacency)

    def test_sticky_fault_quarantines_tile_not_update(self, streaming):
        from repro.core.pipeline import TingeConfig

        updater, new, res_full = streaming
        plan = FaultPlan(seed=CHAOS_SEED, rate=CHAOS_RATE, kinds=("crash",),
                         max_failures=None)  # never recovers
        u = updater()
        u._config = TingeConfig(
            n_permutations=8, n_null_pairs=40, alpha=0.05, seed=3, tile=TILE,
            max_retries=1, on_fault="quarantine")
        delta = u.add_samples(new, engine=_engine("thread", faults=plan))
        # Either the poisoned tiles were among the dirty set (quarantine
        # recorded) or they were screened clean (nothing to poison);
        # both are valid — the update itself must survive.
        assert delta is not None
