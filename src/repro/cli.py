"""Command-line interface: the TINGe workflow without writing Python.

Four subcommands mirror the workflow of the original TINGe tool chain:

* ``repro generate``    — synthesize a ground-truth expression dataset.
* ``repro reconstruct`` — expression TSV/NPZ in, significant-edge TSV out.
* ``repro analyze``     — topology statistics (and accuracy, when the input
  dataset carries ground truth) of a reconstructed network.
* ``repro simulate``    — predicted runtimes on the modelled platforms
  (Xeon Phi / dual Xeon / Blue Gene/L) for a given problem shape.
* ``repro modules``     — community detection on a reconstructed network.
* ``repro consensus``   — stability-selection consensus over subsample
  reconstructions.
* ``repro sweep``       — design-space exploration (machines x threads x
  scheduler x affinity) on the machine models.
* ``repro serve``       — long-running reconstruction job daemon (HTTP)
  with a fingerprint-keyed result cache and checkpoint resume.

Run ``python -m repro <command> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TINGe-style mutual-information gene-network construction "
        "(reproduction of Misra, Pamnany & Aluru, IPDPS 2014).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a ground-truth dataset")
    gen.add_argument("--genes", type=int, default=200)
    gen.add_argument("--samples", type=int, default=300)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--preset", choices=["yeast", "arabidopsis", "microarray"],
                     default="yeast")
    gen.add_argument("--out", type=Path, required=True,
                     help=".npz (keeps ground truth) or .tsv (expression only)")

    rec = sub.add_parser("reconstruct", help="reconstruct a network from expression data")
    rec.add_argument("input", type=Path, help="expression .tsv or dataset .npz")
    rec.add_argument("--out", type=Path, required=True, help="edge-list .tsv output")
    rec.add_argument("--network-out", type=Path, default=None,
                     help="optional full GeneNetwork .npz output")
    rec.add_argument("--bins", type=int, default=10)
    rec.add_argument("--order", type=int, default=3)
    rec.add_argument("--permutations", type=int, default=30)
    rec.add_argument("--null-pairs", type=int, default=200)
    rec.add_argument("--alpha", type=float, default=0.01)
    rec.add_argument("--correction", choices=["bonferroni", "none", "bh"],
                     default="bonferroni")
    rec.add_argument("--dtype", choices=["float32", "float64"], default="float32")
    rec.add_argument("--tile", type=int, default=None)
    rec.add_argument("--kernel-dtype", choices=["float32", "float64"], default=None,
                     help="GEMM precision of the fused MI tile kernel; "
                          "default keeps the weight tensor's own precision "
                          "(bit-identical to previous releases), float32 "
                          "runs the mixed-precision kernel (float32 GEMM, "
                          "float64 entropy accumulation, MI error ~1e-6)")
    rec.add_argument("--kernel", choices=["fused", "sparse", "auto"],
                     default="fused",
                     help="MI tile kernel variant: fused (default, GEMM "
                          "workspace kernel, bit-identical to mi_tile), "
                          "sparse (compiled packed-weight kernel exploiting "
                          "B-spline sparsity; float64 within ~1 ulp of "
                          "mi_tile), or auto (measure all variants on a "
                          "slab sample and cache the per-host winner). "
                          "Composes with --kernel-dtype")
    rec.add_argument("--autotune", action="store_true",
                     help="measure candidate MI tile sizes on a slab sample "
                          "and use the empirically fastest; the winner is "
                          "cached per (samples, bins, dtype, engine, host). "
                          "Ignored when --tile is given")
    rec.add_argument("--dpi", type=float, default=None, metavar="TOLERANCE",
                     help="apply ARACNE DPI pruning with this tolerance")
    rec.add_argument("--engine",
                     choices=["serial", "thread", "process", "sharedmem",
                              "elastic"],
                     default="serial",
                     help="execution engine for the all-pairs MI stage; "
                          "'sharedmem' workers write the MI matrix in place "
                          "(process/sharedmem need the fork start method); "
                          "'elastic' spawns --workers worker subprocesses "
                          "behind a socket coordinator (see `repro worker`)")
    rec.add_argument("--workers", type=int, default=None)
    rec.add_argument("--schedule", choices=["static", "cyclic", "dynamic", "cost"],
                     default="dynamic",
                     help="tile scheduling policy for the MI stage: dynamic "
                          "chunk-1 self-scheduling (the paper's default), "
                          "static block / cyclic round-robin assignment, or "
                          "cost-ordered LPT dispatch")
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--testing", choices=["pooled", "exact"], default="pooled",
                     help="pooled global null (fast) or exact per-pair p-values")
    rec.add_argument("--max-retries", type=int, default=0,
                     help="retry budget per MI tile task before giving up "
                          "(0 = one attempt; with --on-fault raise a failing "
                          "tile aborts the run)")
    rec.add_argument("--task-timeout", type=float, default=None, metavar="SECONDS",
                     help="per-task timeout for the MI stage; hung workers "
                          "are killed and replaced (fork engines only)")
    rec.add_argument("--on-fault", choices=["retry", "quarantine", "raise"],
                     default="raise",
                     help="when a tile exhausts its retries: record it and "
                          "keep going (retry/quarantine) or abort (raise); "
                          "non-raise modes also enable engine fallback "
                          "(sharedmem -> process -> thread -> serial)")
    rec.add_argument("--record", type=Path, default=None,
                     help="write a provenance JSON record of the run")
    rec.add_argument("--trace", type=Path, default=None,
                     help="write a JSONL trace (spans, counters, worker "
                          "metrics) of the run")
    rec.add_argument("--chrome-trace", type=Path, default=None,
                     help="write a Chrome trace_event JSON (open in "
                          "chrome://tracing or Perfetto)")
    rec.add_argument("--progress", action="store_true",
                     help="render a live per-tile progress line on stderr")

    ana = sub.add_parser("analyze", help="summarize a reconstructed network")
    ana.add_argument("network", type=Path, help="GeneNetwork .npz (from reconstruct)")
    ana.add_argument("--truth", type=Path, default=None,
                     help="dataset .npz with ground truth for accuracy scoring")
    ana.add_argument("--hubs", type=int, default=10)

    mod = sub.add_parser("modules", help="detect gene modules in a network")
    mod.add_argument("network", type=Path, help="GeneNetwork .npz (from reconstruct)")
    mod.add_argument("--method", choices=["components", "modularity"],
                     default="modularity")
    mod.add_argument("--min-size", type=int, default=3)
    mod.add_argument("--truth", type=Path, default=None,
                     help="dataset .npz with ground truth for coherence scoring")

    con = sub.add_parser("consensus", help="stability-selection consensus network")
    con.add_argument("input", type=Path, help="expression .tsv or dataset .npz")
    con.add_argument("--out", type=Path, required=True, help="edge-list .tsv output")
    con.add_argument("--rounds", type=int, default=20)
    con.add_argument("--subsample", type=float, default=0.5)
    con.add_argument("--min-frequency", type=float, default=0.5)
    con.add_argument("--permutations", type=int, default=20)
    con.add_argument("--alpha", type=float, default=0.01)
    con.add_argument("--seed", type=int, default=0)

    sim = sub.add_parser("simulate", help="predict runtimes on the modelled platforms")
    sim.add_argument("--genes", type=int, default=15575)
    sim.add_argument("--samples", type=int, default=3137)
    sim.add_argument("--permutations", type=int, default=30,
                     help="fused permutations per pair (the paper's formulation)")
    sim.add_argument("--threads", type=int, default=None,
                     help="thread count (defaults to each machine's maximum)")

    swp = sub.add_parser("sweep", help="explore the machine design space")
    swp.add_argument("--genes", type=int, default=2000)
    swp.add_argument("--samples", type=int, default=3137)
    swp.add_argument("--permutations", type=int, default=30)
    swp.add_argument("--top", type=int, default=10)

    srv = sub.add_parser("serve", help="run the reconstruction job daemon")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8177,
                     help="listen port (0 = ephemeral, printed on startup)")
    srv.add_argument("--state-dir", type=Path, default=Path("serve-state"),
                     help="persistence root: results/ cache + checkpoints/")
    srv.add_argument("--workers", type=int, default=2,
                     help="concurrent reconstruction jobs")
    srv.add_argument("--max-queue", type=int, default=64,
                     help="queued-job depth cap; submissions beyond it get 429")
    srv.add_argument("--tenant-quota", type=int, default=None,
                     help="max active (queued+running) jobs per tenant")
    srv.add_argument("--max-datasets", type=int, default=64,
                     help="cap on registered streaming datasets "
                          "(POST /datasets beyond it gets 400)")
    srv.add_argument("--drain-timeout", type=float, default=None, metavar="SECONDS",
                     help="max seconds to wait for running jobs on shutdown")

    wrk = sub.add_parser(
        "worker",
        help="run one elastic worker against a coordinator",
        description="Join an elastic reconstruction as a worker: dial the "
                    "coordinator (an ElasticEngine — `repro reconstruct "
                    "--engine elastic` or a serve job with engine=elastic), "
                    "pull tile tasks until it says goodbye. Workers may "
                    "join and leave at any time; the final matrix is "
                    "bit-identical regardless.")
    wrk.add_argument("--connect", required=True, metavar="HOST:PORT",
                     help="coordinator address printed/configured by the run")
    wrk.add_argument("--name", default=None,
                     help="worker name reported to the coordinator "
                          "(default: pid-derived)")
    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    from repro.data import (
        arabidopsis_scale,
        microarray_dataset,
        save_dataset,
        write_expression_tsv,
        yeast_subset,
    )

    maker = {
        "yeast": yeast_subset,
        "arabidopsis": arabidopsis_scale,
        "microarray": microarray_dataset,
    }[args.preset]
    ds = maker(args.genes, args.samples, seed=args.seed)
    if args.out.suffix == ".npz":
        save_dataset(ds, args.out)
    elif args.out.suffix == ".tsv":
        write_expression_tsv(ds, args.out)
    else:
        print(f"error: unsupported output format {args.out.suffix!r} (use .npz or .tsv)",
              file=sys.stderr)
        return 2
    print(f"wrote {ds.n_genes} genes x {ds.m_samples} samples "
          f"({ds.truth.n_edges} true edges) to {args.out}")
    return 0


def _load_expression(path: Path):
    from repro.data import load_dataset, read_expression_tsv

    if path.suffix == ".npz":
        return load_dataset(path)
    if path.suffix == ".tsv":
        return read_expression_tsv(path)
    raise ValueError(f"unsupported input format {path.suffix!r} (use .npz or .tsv)")


def _cmd_reconstruct(args) -> int:
    from repro import TingeConfig, reconstruct_network
    from repro.bench import format_seconds
    from repro.data import write_edge_list
    from repro.faults.policy import FaultToleranceExceeded
    from repro.parallel import make_engine

    try:
        ds = _load_expression(args.input)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        config = TingeConfig(
            bins=args.bins, order=args.order,
            n_permutations=args.permutations, n_null_pairs=args.null_pairs,
            alpha=args.alpha, correction=args.correction,
            dtype=args.dtype, tile=args.tile, seed=args.seed,
            testing=args.testing, schedule=args.schedule,
            max_retries=args.max_retries, task_timeout=args.task_timeout,
            on_fault=args.on_fault, kernel_dtype=args.kernel_dtype,
            autotune=args.autotune, kernel=args.kernel,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    engine = None
    if args.engine != "serial":
        from repro.parallel import make_scheduler

        # Static policies shape the engines' own submission order too;
        # "dynamic" and "cost" keep the engines' chunk-1 pull (the plan
        # already orders cost-mode dispatch heaviest-first).
        policy = (make_scheduler(args.schedule)
                  if args.schedule in ("static", "cyclic") else None)
        try:
            # Non-raise fault modes also tolerate the *engine* being
            # unavailable: degrade along sharedmem -> process -> thread ->
            # serial instead of exiting.
            engine = make_engine(args.engine, n_workers=args.workers, policy=policy,
                                 fallback=args.on_fault != "raise")
        except (RuntimeError, ValueError) as exc:  # no fork support / bad worker count
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if getattr(engine, "kind", None) == "elastic":
            print(f"elastic coordinator on {engine.address} "
                  f"({engine.n_workers} local workers; more can join: "
                  f"repro worker --connect {engine.address})", flush=True)
    tracer = None
    if args.trace is not None or args.chrome_trace is not None:
        from repro.obs import Tracer

        tracer = Tracer(meta={
            "command": "reconstruct", "input": str(args.input),
            "engine": args.engine, "testing": args.testing,
        })
    progress = None
    if args.progress:
        from repro.obs import ProgressPrinter

        progress = ProgressPrinter(label="mi tiles")
    t0 = time.perf_counter()
    try:
        result = reconstruct_network(ds.expression, ds.genes, config,
                                     engine=engine, tracer=tracer,
                                     progress=progress)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FaultToleranceExceeded as exc:
        print(f"error: fault tolerance exhausted: {exc}", file=sys.stderr)
        return 3
    finally:
        # Only the elastic engine holds resources (worker subprocesses,
        # a listener socket); in-process pools are per-call.
        if engine is not None and hasattr(engine, "close"):
            engine.close()
    elapsed = time.perf_counter() - t0
    quarantined = getattr(result, "quarantined", [])
    if quarantined:
        print(f"warning: {len(quarantined)} tile(s) quarantined after "
              "exhausting retries; their MI blocks are zero:", file=sys.stderr)
        for q in quarantined:
            print(f"  tile [{q.i0}:{q.i1}, {q.j0}:{q.j1}]: {q.error}",
                  file=sys.stderr)
    if tracer is not None:
        from repro.obs import write_chrome_trace, write_jsonl

        if args.trace is not None:
            write_jsonl(tracer, args.trace)
            print(f"trace: {args.trace}")
        if args.chrome_trace is not None:
            write_chrome_trace(tracer, args.chrome_trace)
            print(f"chrome trace: {args.chrome_trace}")

    network = result.network
    if args.dpi is not None:
        from repro.baselines import dpi_prune
        from repro.core import GeneNetwork

        network = GeneNetwork(
            dpi_prune(result.mi, network.adjacency, tolerance=args.dpi),
            result.mi, network.genes, threshold=network.threshold,
        )
    write_edge_list(network.edge_list(), args.out)
    if args.network_out is not None:
        network.save(args.network_out)
    if args.record is not None:
        from repro.core.provenance import run_record, save_run_record

        save_run_record(run_record(result, ds.expression), args.record)
        print(f"provenance record: {args.record}")
    print(f"{ds.n_genes} genes x {ds.m_samples} samples -> "
          f"{network.n_edges} edges in {format_seconds(elapsed)}")
    for phase, seconds in result.timings.items():
        print(f"  {phase:<10} {format_seconds(seconds)}")
    print(f"edge list: {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import score_network, summarize, top_hubs
    from repro.bench import format_table
    from repro.core import GeneNetwork

    try:
        network = GeneNetwork.load(args.network)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: cannot load network: {exc}", file=sys.stderr)
        return 2
    print(format_table([summarize(network).as_row()], title=f"network: {args.network}"))
    print("\nhubs:", ", ".join(f"{g}({d})" for g, d in top_hubs(network, args.hubs)))
    if args.truth is not None:
        from repro.data import load_dataset

        ds = load_dataset(args.truth)
        if ds.truth is None:
            print("error: --truth dataset has no ground-truth network", file=sys.stderr)
            return 2
        c = score_network(network, ds.truth)
        print(f"accuracy: precision={c.precision:.3f} recall={c.recall:.3f} "
              f"f1={c.f1:.3f} (tp={c.tp} fp={c.fp} fn={c.fn})")
    return 0


def _cmd_simulate(args) -> int:
    from repro.baselines import estimate_cluster_run
    from repro.bench import format_seconds, format_table
    from repro.machine import (
        BLUEGENE_L_1024,
        KernelProfile,
        MachineSimulator,
        XEON_E5_2670_DUAL,
        XEON_PHI_5110P,
    )

    profile = KernelProfile(m_samples=args.samples,
                            n_permutations_fused=args.permutations)
    rows = []
    for machine in (XEON_PHI_5110P, XEON_E5_2670_DUAL):
        threads = args.threads or machine.max_threads
        sim = MachineSimulator(machine, profile)
        rows.append({
            "platform": machine.name,
            "threads": threads,
            "time": format_seconds(sim.predict_seconds(args.genes, threads)),
        })
    cluster = estimate_cluster_run(BLUEGENE_L_1024, args.genes, profile)
    rows.append({
        "platform": BLUEGENE_L_1024.name,
        "threads": BLUEGENE_L_1024.total_cores,
        "time": format_seconds(cluster.total),
    })
    print(format_table(
        rows,
        title=f"modelled reconstruction: {args.genes} genes x {args.samples} "
              f"samples, q={args.permutations}",
    ))
    return 0


def _cmd_modules(args) -> int:
    from repro.analysis import connected_modules, modularity_modules, module_purity
    from repro.bench import format_table
    from repro.core import GeneNetwork

    try:
        network = GeneNetwork.load(args.network)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: cannot load network: {exc}", file=sys.stderr)
        return 2
    finder = modularity_modules if args.method == "modularity" else connected_modules
    modules = finder(network, min_size=args.min_size)
    rows = [
        {"module": i, "size": m.size, "edges": m.n_internal_edges,
         "mean MI": f"{m.mean_internal_mi:.3f}",
         "members": ", ".join(m.genes[:6]) + ("..." if m.size > 6 else "")}
        for i, m in enumerate(modules)
    ]
    print(format_table(rows, title=f"{args.method} modules (min size {args.min_size})"))
    if args.truth is not None:
        from repro.data import load_dataset

        ds = load_dataset(args.truth)
        if ds.truth is None:
            print("error: --truth dataset has no ground-truth network", file=sys.stderr)
            return 2
        print(f"regulatory coherence: {module_purity(modules, ds.truth):.3f}")
    return 0


def _cmd_consensus(args) -> int:
    from repro import TingeConfig
    from repro.core.consensus import bootstrap_networks, consensus_network
    from repro.data import write_edge_list

    try:
        ds = _load_expression(args.input)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = TingeConfig(n_permutations=args.permutations, alpha=args.alpha,
                         seed=args.seed)
    result = bootstrap_networks(
        ds.expression, ds.genes, config,
        n_rounds=args.rounds, subsample_fraction=args.subsample, seed=args.seed,
    )
    network = consensus_network(result, min_frequency=args.min_frequency)
    write_edge_list(network.edge_list(), args.out)
    print(f"{args.rounds} rounds at {args.subsample:.0%} subsampling -> "
          f"{network.n_edges} edges stable at >= {args.min_frequency:.0%}")
    print(f"edge list: {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    from repro.bench import format_table
    from repro.machine import KernelProfile, XEON_E5_2670_DUAL, XEON_PHI_5110P
    from repro.machine.sweep import sweep
    from repro.parallel import DynamicScheduler, StaticScheduler, WorkStealingScheduler

    profile = KernelProfile(m_samples=args.samples,
                            n_permutations_fused=args.permutations)
    points = sweep(
        [XEON_PHI_5110P, XEON_E5_2670_DUAL],
        profile,
        args.genes,
        thread_counts={
            XEON_PHI_5110P.name: [60, 120, 240],
            XEON_E5_2670_DUAL.name: [16, 32],
        },
        policies=[StaticScheduler(), DynamicScheduler(chunk=1),
                  WorkStealingScheduler()],
        placements=["balanced", "compact"],
    )
    print(format_table([p.as_row() for p in points[: args.top]],
                       title=f"fastest {args.top} configurations, "
                             f"n={args.genes}, m={args.samples}"))
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.serve import ServeApp, make_server

    try:
        app = ServeApp(args.state_dir, n_workers=args.workers,
                       max_depth=args.max_queue, tenant_quota=args.tenant_quota,
                       max_datasets=args.max_datasets)
        server = make_server(app, host=args.host, port=args.port)
    except (OSError, ValueError) as exc:  # bad bind address / bad limits
        print(f"error: {exc}", file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    print(f"repro serve listening on http://{host}:{port} "
          f"(state: {args.state_dir}, workers: {args.workers})", flush=True)

    def _shutdown(signum, frame):
        # Flip to draining immediately (new submissions get 503); the
        # blocking drain + teardown happens on the main thread below.
        # server.shutdown must not run on the serve_forever thread.
        app.begin_drain()
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    try:
        server.serve_forever(poll_interval=0.25)
    finally:
        server.server_close()
        clean = app.drain(timeout=args.drain_timeout)
        if not clean:
            print("warning: shutdown timed out with jobs still running; "
                  "their checkpoints will resume on resubmission", file=sys.stderr)
        print(f"repro serve drained: {app.store.counts()}")
    return 0


def _cmd_worker(args) -> int:
    from repro.cluster.elastic import worker_main

    host, sep, port = args.connect.rpartition(":")
    if not sep or not port.isdigit():
        print(f"error: --connect wants HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    try:
        return worker_main(host or "127.0.0.1", int(port), name=args.name)
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach coordinator {args.connect}: {exc}",
              file=sys.stderr)
        return 1


_COMMANDS = {
    "generate": _cmd_generate,
    "reconstruct": _cmd_reconstruct,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "modules": _cmd_modules,
    "consensus": _cmd_consensus,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
}


def main(argv: "list[str] | None" = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
