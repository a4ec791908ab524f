"""Command-line interface for the workload-prediction pipeline.

Five subcommands mirror the pipeline stages:

- ``repro simulate`` — run (simulated) experiments and save them to a
  repository file;
- ``repro corpus`` — build one of the paper's standard corpora (grid
  execution with ``--jobs`` workers and an optional on-disk cache);
  ``--verify``/``--repair`` sweep that cache for corrupt or orphaned
  entries instead of building;
- ``repro select`` — rank telemetry features on a repository;
- ``repro similarity`` — 1-NN / mAP / NDCG of a representation+measure
  combination on a repository;
- ``repro predict`` — end-to-end scaling prediction from a reference
  repository and a target repository;
- ``repro synth`` — synthesize workload specs, either sampled from the
  seeded spec space (``--count``) or fitted to an exported telemetry
  corpus entry (``--template``/``--workload``); ``--verify`` simulates
  each spec and checks every property target within tolerance (see
  ``docs/synthesis.md``);
- ``repro serve`` — long-running HTTP/JSON prediction service over a
  reference corpus: ``POST /v1/rank`` and ``POST /v1/predict`` answer
  from a digest-keyed response cache, the persisted distance/fit
  caches, or a persistent worker pool; SIGTERM drains gracefully (see
  ``docs/serving.md``).

Every subcommand reads/writes the repository formats of
:class:`repro.workloads.repository.ExperimentRepository`: JSON, or the
compact ``.npz`` archive when the path ends in ``.npz``.

Experiment-producing subcommands accept ``--jobs N`` (parallel grid
execution over N worker processes; results are bit-identical to serial),
``--cache-dir PATH`` (content-addressed result cache, also settable via
the ``REPRO_CACHE_DIR`` environment variable), and ``--no-cache``.
Analysis subcommands (``similarity``, ``cluster``, ``predict``) accept
``--jobs N`` (parallel pairwise-distance computation, bit-identical to
serial) and ``--distance-cache PATH`` (content-addressed distance cache,
also settable via ``REPRO_DISTANCE_CACHE``; L2,1 and L1,1 skip it).
``select`` and ``predict`` additionally accept ``--fit-cache PATH``
(content-addressed model-fit cache, also settable via
``REPRO_FIT_CACHE``): a warm re-run of wrapper feature selection or
strategy evaluation performs zero model fits, and ``select --jobs N``
fans SFS candidate subsets over N workers with bit-identical output.

Observability flags are accepted by every pipeline subcommand:
``--log-level`` routes the library's structured logs to stderr,
``--trace-out`` records a Chrome ``trace_event`` file of the run (open
it in ``chrome://tracing`` or Perfetto), ``--metrics-out`` writes the
metric snapshot of the invocation as JSON, and ``--ledger`` (or
``$REPRO_LEDGER``) appends one row per invocation to the persistent run
ledger.  Actual results stay on stdout.

The ``repro obs`` subcommand reads those artifacts back: ``obs report``
(per-stage wall/CPU, critical path, cache hit rates), ``obs ledger``
(run history), ``obs diff`` (newest run vs its rolling baseline), and
``obs check-bench`` (``BENCH_*.json`` regression gate).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from repro.core import PipelineConfig, WorkloadPredictionPipeline
from repro.exceptions import ReproError, ValidationError
from repro.obs import (
    MetricsRegistry,
    RunManifest,
    Tracer,
    configure_logging,
    get_logger,
    get_metrics,
    set_metrics,
    set_tracer,
)
from repro.workloads import (
    SKU,
    ExperimentRepository,
    run_experiments,
    workload_by_name,
)
from repro.workloads.catalog import WORKLOAD_NAMES
from repro.workloads.features import ALL_FEATURES

logger = get_logger(__name__)


class _UsageError(ReproError):
    """A bad invocation: unknown name, missing input file, bad flags.

    Exit codes follow one convention across every subcommand: ``0`` for
    success, ``1`` for a domain failure (the command ran and the result
    is bad — a regression detected, a corrupt cache, a failed
    verification), ``2`` for a usage error (the command could not
    meaningfully start).  ``argparse`` exits with 2 on its own for
    malformed flags; this exception routes semantic usage errors —
    unknown measure names, missing input files — to the same code.
    """


def _load_repository(path: str | Path) -> ExperimentRepository:
    """Load a repository, dispatching on the file extension."""
    if not Path(path).exists():
        raise _UsageError(f"no such repository file: {path}")
    if str(path).endswith(".npz"):
        return ExperimentRepository.load_npz(path)
    return ExperimentRepository.load(path)


def _save_repository(repository: ExperimentRepository, path: str | Path) -> None:
    if str(path).endswith(".npz"):
        repository.save_npz(path)
    else:
        repository.save(path)


def _resolve_cache_dir(args) -> str | None:
    """The cache directory to use, honoring ``--no-cache`` and the env."""
    if args.no_cache:
        return None
    return args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None


def _resolve_distance_cache(args) -> str | None:
    """The pairwise-distance cache directory (flag, then env)."""
    return (
        args.distance_cache
        or os.environ.get("REPRO_DISTANCE_CACHE")
        or None
    )


def _resolve_fit_cache(args) -> str | None:
    """The model-fit cache directory (flag, then env)."""
    return args.fit_cache or os.environ.get("REPRO_FIT_CACHE") or None


def _resolve_ledger(args) -> str | None:
    """The run-ledger path (flag, then ``$REPRO_LEDGER``)."""
    return (
        getattr(args, "ledger", None)
        or os.environ.get("REPRO_LEDGER")
        or None
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Database workload prediction pipeline (EDBT 2025 repro)",
    )
    obs = argparse.ArgumentParser(add_help=False)
    group = obs.add_argument_group("observability")
    group.add_argument(
        "--log-level", default="WARNING",
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        help="stderr log verbosity for the repro logger hierarchy",
    )
    group.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace_event JSON of this invocation",
    )
    group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the invocation's metrics snapshot as JSON",
    )
    group.add_argument(
        "--metrics-format", default="json", choices=("json", "prometheus"),
        help="serialization for --metrics-out",
    )
    group.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append one row describing this invocation to the run "
        "ledger (a .jsonl file or a directory; default: $REPRO_LEDGER "
        "if set); inspect it with 'repro obs'",
    )
    grid = argparse.ArgumentParser(add_help=False)
    grid_group = grid.add_argument_group("grid execution")
    grid_group.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for grid execution (0 = one per CPU; "
        "results are bit-identical to serial)",
    )
    grid_group.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="content-addressed experiment cache directory "
        "(default: $REPRO_CACHE_DIR if set)",
    )
    grid_group.add_argument(
        "--no-cache", action="store_true",
        help="disable the experiment cache even if a directory is configured",
    )
    analysis = argparse.ArgumentParser(add_help=False)
    analysis_group = analysis.add_argument_group("analysis execution")
    analysis_group.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for pairwise-distance computation "
        "(0 = one per CPU; results are bit-identical to serial)",
    )
    analysis_group.add_argument(
        "--distance-cache", default=None, metavar="PATH",
        help="content-addressed pairwise-distance cache directory "
        "(default: $REPRO_DISTANCE_CACHE if set); pays off for "
        "Dependent-DTW (about 100x faster warm); L2,1 and L1,1 compute "
        "faster than even a warm cache answers and skip it "
        "(see docs/performance.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="run experiments and save a repository",
        parents=[obs, grid],
    )
    simulate.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES
    )
    simulate.add_argument("--cpus", type=int, default=8)
    simulate.add_argument("--memory-gb", type=float, default=32.0)
    simulate.add_argument("--terminals", type=int, default=8)
    simulate.add_argument("--runs", type=int, default=3)
    simulate.add_argument("--duration-s", type=float, default=3600.0)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--out", required=True, help="output path (.json or .npz)"
    )
    simulate.add_argument(
        "--append", action="store_true",
        help="append to an existing repository file",
    )

    corpus = sub.add_parser(
        "corpus", help="build one of the paper's standard corpora",
        parents=[obs, grid],
    )
    corpus.add_argument(
        "--kind", default="scaling",
        choices=("paper", "scaling", "production"),
        help="which standard corpus to build (Sections 4/5, 6, or 5.2.3)",
    )
    corpus.add_argument("--cpus", type=int, default=16,
                        help="SKU size for --kind paper")
    corpus.add_argument("--runs", type=int, default=3)
    corpus.add_argument("--duration-s", type=float, default=3600.0)
    corpus.add_argument("--sample-interval-s", type=float, default=10.0)
    corpus.add_argument(
        "--seed", type=int, default=None,
        help="corpus random_state (default: the paper's per-corpus seed)",
    )
    corpus.add_argument(
        "--out", default=None, help="output path (.json or .npz)"
    )
    corpus.add_argument(
        "--manifest-out", default=None, metavar="PATH",
        help="write the build's RunManifest (provenance) as JSON",
    )
    corpus.add_argument(
        "--verify", action="store_true",
        help="verify the integrity of the experiment cache instead of "
        "building (exit 1 if corrupt or orphaned entries are found)",
    )
    corpus.add_argument(
        "--repair", action="store_true",
        help="like --verify, but delete damaged entries so the next "
        "build recomputes them",
    )

    select = sub.add_parser(
        "select", help="rank features on a repository", parents=[obs]
    )
    select.add_argument("--corpus", required=True)
    select.add_argument("--strategy", default="RFE LogReg")
    select.add_argument("--top-k", type=int, default=7)
    select.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for wrapper-selection candidate fits "
        "(0 = one per CPU; results are bit-identical to serial)",
    )
    select.add_argument(
        "--fit-cache", default=None, metavar="PATH",
        help="content-addressed model-fit cache directory "
        "(default: $REPRO_FIT_CACHE if set)",
    )

    similarity = sub.add_parser(
        "similarity", help="evaluate a similarity method on a repository",
        parents=[obs, analysis],
    )
    similarity.add_argument("--corpus", required=True)
    similarity.add_argument(
        "--representation", default="hist", choices=("hist", "phase", "mts")
    )
    similarity.add_argument("--measure", default="L2,1")
    similarity.add_argument(
        "--features", default=None,
        help="comma-separated feature names (default: all 29)",
    )

    predict = sub.add_parser(
        "predict", help="end-to-end scaling prediction",
        parents=[obs, analysis],
    )
    predict.add_argument(
        "--manifest-out", default=None, metavar="PATH",
        help="write the prediction's RunManifest (provenance) as JSON",
    )
    predict.add_argument("--references", required=True)
    predict.add_argument("--target", required=True)
    predict.add_argument("--source-cpus", type=int, required=True)
    predict.add_argument("--target-cpus", type=int, required=True)
    predict.add_argument("--memory-gb", type=float, default=32.0)
    predict.add_argument("--strategy", default="SVM")
    predict.add_argument(
        "--context", default="pairwise", choices=("pairwise", "single")
    )
    predict.add_argument("--top-k", type=int, default=7)
    predict.add_argument(
        "--fit-cache", default=None, metavar="PATH",
        help="content-addressed model-fit cache directory "
        "(default: $REPRO_FIT_CACHE if set)",
    )

    cluster = sub.add_parser(
        "cluster", help="group a repository's experiments by similarity",
        parents=[obs, analysis],
    )
    cluster.add_argument("--corpus", required=True)
    cluster.add_argument("--clusters", type=int, default=3)
    cluster.add_argument(
        "--method", default="agglomerative",
        choices=("agglomerative", "kmedoids"),
    )
    cluster.add_argument("--measure", default="L2,1")

    synth = sub.add_parser(
        "synth",
        help="synthesize workload specs (spec-space sampling or "
        "trace fitting) with property-matching verification",
        parents=[obs, grid],
    )
    mode = synth.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="sample N specs from the seeded spec space",
    )
    mode.add_argument(
        "--template", default=None, metavar="PATH",
        help="repository file to clone a workload from (trace fitting)",
    )
    synth.add_argument(
        "--workload", default=None,
        help="template workload name (required when the --template "
        "repository holds several workloads)",
    )
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument(
        "--name", default=None,
        help="name for the synthesized clone (default: <template>-clone)",
    )
    synth.add_argument("--cpus", type=int, default=16,
                       help="verification SKU (sampler mode)")
    synth.add_argument("--memory-gb", type=float, default=32.0)
    synth.add_argument("--terminals", type=int, default=8)
    synth.add_argument("--duration-s", type=float, default=600.0)
    synth.add_argument("--sample-interval-s", type=float, default=10.0)
    synth.add_argument(
        "--max-refine-iters", type=int, default=8,
        help="refinement-loop iteration budget (trace fitting)",
    )
    synth.add_argument(
        "--verify", action="store_true",
        help="simulate each synthesized spec and check every property "
        "target within tolerance (exit 1 on any failure)",
    )
    synth.add_argument("--verify-runs", type=int, default=2)
    synth.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the synthesized specs as JSON",
    )
    synth.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="write the verification reports as JSON",
    )
    synth.add_argument(
        "--simulate-out", default=None, metavar="PATH",
        help="run the synthesized specs through the engine and save the "
        "resulting repository (.json or .npz); honors --jobs/--cache-dir",
    )
    synth.add_argument(
        "--simulate-runs", type=int, default=3,
        help="repetitions per spec for --simulate-out",
    )

    serve = sub.add_parser(
        "serve",
        help="serve rank/predict requests over HTTP from a warm, "
        "cached pipeline (see docs/serving.md)",
        parents=[obs, analysis],
    )
    serve.add_argument(
        "--references", required=True,
        help="reference corpus repository (.json or .npz), loaded once "
        "at boot; its digest is part of every response-cache key",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="listen port (0 picks a free port, printed at boot)",
    )
    serve.add_argument(
        "--fit-cache", default=None, metavar="PATH",
        help="content-addressed model-fit cache directory "
        "(default: $REPRO_FIT_CACHE if set)",
    )
    serve.add_argument(
        "--response-cache-size", type=int, default=1024, metavar="N",
        help="max entries in the in-process response cache",
    )
    serve.add_argument(
        "--response-cache-bytes", type=int, default=None, metavar="BYTES",
        help="max approximate bytes retained by the response cache "
        "(default: unbounded; entry count still applies)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="S",
        help="seconds to wait on SIGTERM/SIGINT for admitted requests "
        "to compute, one at a time",
    )
    serve.add_argument(
        "--subexperiments", type=int, default=10, metavar="N",
        help="systematic sub-experiments per run (the paper's 10)",
    )
    serve.add_argument("--strategy", default="SVM")
    serve.add_argument(
        "--context", default="pairwise", choices=("pairwise", "single")
    )
    serve.add_argument("--top-k", type=int, default=7)
    serve.add_argument(
        "--representation", default="hist", choices=("hist", "phase", "mts")
    )
    serve.add_argument("--measure", default="L2,1")
    serve.add_argument("--seed", type=int, default=0)

    # "obs" reads observability artifacts back; it deliberately does NOT
    # inherit the obs parent parser (its sub-subcommands define their own
    # --ledger, and an obs run should never append to the ledger).
    obs_cmd = sub.add_parser(
        "obs",
        help="cross-run observability: profile reports, run ledger, "
        "regression checks",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    report = obs_sub.add_parser(
        "report",
        help="profile one run: per-stage wall/CPU, critical path, "
        "cache hit rates",
    )
    report.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="run ledger to read (default: $REPRO_LEDGER if set)",
    )
    report.add_argument(
        "--run", type=int, default=-1, metavar="INDEX",
        help="ledger row to profile (Python indexing; default: newest)",
    )
    report.add_argument(
        "--trace", default=None, metavar="PATH",
        help="profile a --trace-out Chrome trace file instead of a "
        "ledger row",
    )
    report.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="how many self-time entries to show",
    )
    report.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    ledger_cmd = obs_sub.add_parser(
        "ledger", help="list recorded runs, oldest first"
    )
    ledger_cmd.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="run ledger to read (default: $REPRO_LEDGER if set)",
    )
    ledger_cmd.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="show at most the newest N runs",
    )
    ledger_cmd.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    diff = obs_sub.add_parser(
        "diff",
        help="compare the newest run against its rolling baseline "
        "(same command and options); exit 1 on regression",
    )
    diff.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="run ledger to read (default: $REPRO_LEDGER if set)",
    )
    diff.add_argument(
        "--tolerance", type=float, default=0.25, metavar="REL",
        help="relative tolerance band around the baseline mean",
    )
    diff.add_argument(
        "--window", type=int, default=5, metavar="N",
        help="how many earlier comparable runs form the baseline",
    )
    diff.add_argument(
        "--min-baseline", type=int, default=1, metavar="N",
        help="skip leaves with fewer baseline values than this",
    )
    diff.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    check = obs_sub.add_parser(
        "check-bench",
        help="compare BENCH_*.json files against baselines; "
        "exit 1 on regression",
    )
    check.add_argument(
        "current", nargs="+",
        help="current benchmark JSON file(s) to check",
    )
    check.add_argument(
        "--baseline", action="append", default=[], metavar="PATH",
        help="baseline file, or directory holding files with the same "
        "names as the current ones (repeatable)",
    )
    check.add_argument(
        "--tolerance", type=float, default=0.25, metavar="REL",
        help="relative tolerance band around the baseline mean",
    )
    check.add_argument(
        "--abs-floor", type=float, default=0.02, metavar="ABS",
        help="absolute slack added to every tolerance band",
    )
    check.add_argument(
        "--min-baseline", type=int, default=1, metavar="N",
        help="skip leaves with fewer baseline values than this",
    )
    check.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    return parser


def _cmd_simulate(args) -> int:
    workload = workload_by_name(args.workload)
    sku = SKU(cpus=args.cpus, memory_gb=args.memory_gb)
    if args.append:
        repository = _load_repository(args.out)
    else:
        repository = ExperimentRepository()
    built = run_experiments(
        [workload],
        [sku],
        terminals_for=lambda w: (args.terminals,),
        n_runs=args.runs,
        duration_s=args.duration_s,
        random_state=args.seed,
        jobs=args.jobs,
        cache=_resolve_cache_dir(args),
    )
    for result in built:
        repository.add(result)
        print(
            f"{result.experiment_id}: {result.throughput:.1f} txn/s, "
            f"latency {result.latency_ms:.2f} ms, "
            f"bottleneck {result.bottleneck}"
        )
    _save_repository(repository, args.out)
    logger.info("saved %d experiments to %s", len(repository), args.out)
    return 0


#: The paper's per-corpus default seeds (kept in sync with
#: :mod:`repro.workloads.corpus`).
_CORPUS_SEEDS = {"paper": 0, "scaling": 7, "production": 11}


def _cmd_corpus_verify(args, cache_dir) -> int:
    from repro.workloads import CorpusCache

    if cache_dir is None:
        print(
            "error: --verify/--repair needs a cache directory "
            "(--cache-dir or $REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return 2
    outcome = CorpusCache(cache_dir).verify(repair=args.repair)
    print(
        f"cache {cache_dir}: {outcome.n_ok}/{outcome.n_entries} entries ok, "
        f"{len(outcome.corrupt)} corrupt, {len(outcome.orphaned)} orphaned"
        f"{' (repaired)' if args.repair and not outcome.clean else ''}"
    )
    for key in outcome.corrupt:
        print(f"  corrupt : {key}")
    for path in outcome.orphaned:
        print(f"  orphaned: {path}")
    if outcome.clean or args.repair:
        return 0
    return 1


def _cmd_corpus(args) -> int:
    from repro.workloads import paper_corpus, production_corpus, scaling_corpus

    seed = _CORPUS_SEEDS[args.kind] if args.seed is None else args.seed
    cache_dir = _resolve_cache_dir(args)
    if args.verify or args.repair:
        return _cmd_corpus_verify(args, cache_dir)
    if not args.out:
        print("error: --out is required when building a corpus",
              file=sys.stderr)
        return 2
    common = dict(
        n_runs=args.runs,
        duration_s=args.duration_s,
        sample_interval_s=args.sample_interval_s,
        random_state=seed,
        jobs=args.jobs,
        cache=cache_dir,
    )
    start = time.perf_counter()
    if args.kind == "paper":
        repository = paper_corpus(cpus=args.cpus, **common)
    elif args.kind == "scaling":
        repository = scaling_corpus(**common)
    else:
        repository = production_corpus(**common)
    elapsed = time.perf_counter() - start
    _save_repository(repository, args.out)
    metrics = get_metrics()
    workers = int(metrics.gauge("gridexec.workers").value)
    hits = int(metrics.counter("corpus_cache.hits_total").value)
    misses = int(metrics.counter("corpus_cache.misses_total").value)
    retried = int(metrics.counter("gridexec.retries_total").value)
    quarantined = int(metrics.counter("gridexec.quarantined_total").value)
    print(
        f"{args.kind} corpus: {len(repository)} experiments in "
        f"{elapsed:.1f}s ({workers} worker{'s' if workers != 1 else ''}, "
        f"{hits} cache hits, {misses} misses)"
    )
    if quarantined:
        print(
            f"warning: {quarantined} task(s) quarantined after retries; "
            "the corpus is incomplete (see the log for task ids)",
            file=sys.stderr,
        )
    if args.manifest_out:
        manifest = RunManifest(
            pipeline_config={},
            selected_features=(),
            similarity_ranking={},
            reference_workload=None,
            stage_timings_s={"corpus": elapsed},
            metrics=metrics.snapshot(),
            random_seed=seed,
            extra={
                "command": "corpus",
                "kind": args.kind,
                "n_experiments": len(repository),
                "grid": {
                    "workers": workers,
                    "jobs_requested": args.jobs,
                    "cache_dir": cache_dir and str(cache_dir),
                    "cache_hits": hits,
                    "cache_misses": misses,
                    "retried": retried,
                    "quarantined": quarantined,
                },
            },
        )
        manifest.save(args.manifest_out)
        logger.info("wrote run manifest to %s", args.manifest_out)
    return 0


def _cmd_select(args) -> int:
    from repro.features import strategy_registry

    corpus = _load_repository(args.corpus)
    registry = strategy_registry()
    if args.strategy not in registry:
        print(
            f"error: unknown strategy {args.strategy!r}; known: "
            + ", ".join(sorted(registry)),
            file=sys.stderr,
        )
        return 2
    selector = registry[args.strategy]()
    # Wrapper selectors ride the evaluation fast path; other strategies
    # have no such knobs.
    if hasattr(selector, "jobs"):
        selector.jobs = args.jobs
    if hasattr(selector, "fit_cache"):
        selector.fit_cache = _resolve_fit_cache(args)
    selector.fit(corpus.feature_matrix(), corpus.labels())
    print(f"top-{args.top_k} features by {args.strategy}:")
    for rank, index in enumerate(selector.top_k(args.top_k), start=1):
        print(f"  {rank:2d}. {ALL_FEATURES[index]}")
    return 0


def _cmd_similarity(args) -> int:
    from repro.similarity import RepresentationBuilder, evaluate_measure
    from repro.similarity.measures import get_measure

    try:
        measure = get_measure(args.measure)
    except ValidationError as exc:
        raise _UsageError(str(exc)) from exc
    corpus = _load_repository(args.corpus)
    features = (
        tuple(name.strip() for name in args.features.split(","))
        if args.features
        else None
    )
    builder = RepresentationBuilder().fit(corpus)
    outcome = evaluate_measure(
        corpus,
        builder,
        args.representation,
        measure,
        features=features,
        jobs=args.jobs,
        cache=_resolve_distance_cache(args),
    )
    print(f"representation : {outcome.representation}")
    print(f"measure        : {outcome.measure}")
    print(f"features       : {outcome.n_features}")
    print(f"1-NN accuracy  : {outcome.knn_accuracy:.3f}")
    print(f"mAP            : {outcome.mean_average_precision:.3f}")
    print(f"NDCG           : {outcome.ndcg:.3f}")
    return 0


def _cmd_predict(args) -> int:
    references = _load_repository(args.references)
    target = _load_repository(args.target)
    source = SKU(cpus=args.source_cpus, memory_gb=args.memory_gb)
    target_sku = SKU(cpus=args.target_cpus, memory_gb=args.memory_gb)
    config = PipelineConfig(
        scaling_strategy=args.strategy,
        scaling_context=args.context,
        top_k=args.top_k,
        jobs=args.jobs,
        distance_cache=_resolve_distance_cache(args),
        fit_cache=_resolve_fit_cache(args),
    )
    pipeline = WorkloadPredictionPipeline(config)
    report = pipeline.predict_scaling(references, target, source, target_sku)
    print(report.summary())
    if args.manifest_out and report.manifest is not None:
        report.manifest.save(args.manifest_out)
        logger.info("wrote run manifest to %s", args.manifest_out)
    return 0


def _cmd_cluster(args) -> int:
    from repro.reporting import format_table
    from repro.similarity import (
        RepresentationBuilder,
        cluster_purity,
        cluster_workloads,
        distance_matrix,
    )
    from repro.similarity.evaluation import representation_matrices
    from repro.similarity.measures import get_measure

    try:
        measure = get_measure(args.measure)
    except ValidationError as exc:
        raise _UsageError(str(exc)) from exc
    corpus = _load_repository(args.corpus)
    builder = RepresentationBuilder().fit(corpus)
    matrices = representation_matrices(corpus, builder, "hist")
    D = distance_matrix(
        matrices, measure,
        jobs=args.jobs, cache=_resolve_distance_cache(args),
    )
    result = cluster_workloads(
        D, n_clusters=args.clusters, method=args.method
    )
    groups = result.groups([r.experiment_id for r in corpus])
    rows = []
    for cluster_id, members in sorted(groups.items()):
        workloads = sorted(
            {member.split("@", 1)[0] for member in members}
        )
        rows.append([cluster_id, len(members), ", ".join(workloads)])
    print(format_table(["cluster", "size", "workloads"], rows))
    purity = cluster_purity(result.labels, corpus.labels())
    print(f"purity vs workload labels: {purity:.3f}")
    return 0


def _cmd_synth(args) -> int:
    from repro.workloads import run_experiments
    from repro.workloads.synth import (
        RefineSettings,
        SynthesisContext,
        calibration_targets,
        sample_specs,
        synthesize_clone,
        verify_synthesis,
    )

    cache_dir = _resolve_cache_dir(args)
    specs = []
    reports = []
    if args.count is not None:
        if args.count < 1:
            print("error: --count must be >= 1", file=sys.stderr)
            return 2
        context = SynthesisContext(
            sku=SKU(cpus=args.cpus, memory_gb=args.memory_gb),
            terminals=args.terminals,
            duration_s=args.duration_s,
            sample_interval_s=args.sample_interval_s,
        )
        specs = sample_specs(args.count, seed=args.seed)
        print(
            f"sampled {len(specs)} spec(s) from the spec space "
            f"(seed {args.seed})"
        )
        if args.verify:
            for spec in specs:
                targets = calibration_targets(
                    spec, context=context, seed=args.seed,
                    jobs=args.jobs, cache=cache_dir,
                )
                report = verify_synthesis(
                    spec, targets, context=context, seed=args.seed,
                    n_runs=args.verify_runs, jobs=args.jobs, cache=cache_dir,
                )
                reports.append(report)
                print(report.render())
    else:
        repository = _load_repository(args.template)
        names = sorted({r.workload_name for r in repository})
        if args.workload is None and len(names) > 1:
            print(
                f"error: --template holds several workloads "
                f"({', '.join(names)}); pick one with --workload",
                file=sys.stderr,
            )
            return 2
        workload = args.workload or names[0]
        template = [
            r for r in repository if r.workload_name == workload
        ]
        if not template:
            print(
                f"error: no experiments for workload {workload!r} in "
                f"{args.template} (have: {', '.join(names)})",
                file=sys.stderr,
            )
            return 2
        context = SynthesisContext.from_result(template[0])
        result = synthesize_clone(
            template,
            name=args.name,
            context=context,
            seed=args.seed,
            settings=RefineSettings(max_iters=args.max_refine_iters),
            verify=args.verify,
            verify_runs=args.verify_runs,
            jobs=args.jobs,
            cache=cache_dir,
        )
        specs = [result.spec]
        print(
            f"synthesized {result.spec.name!r} from {len(template)} "
            f"{workload!r} run(s): {result.refine_iterations} refinement "
            f"iteration(s), residual {result.residual:.2f}x tolerance"
        )
        if result.report is not None:
            reports.append(result.report)
            print(result.report.render())
    if args.out:
        Path(args.out).write_text(
            json.dumps({"specs": [s.to_dict() for s in specs]}, indent=2)
        )
        logger.info("wrote %d spec(s) to %s", len(specs), args.out)
    if args.report_out:
        Path(args.report_out).write_text(
            json.dumps([r.to_dict() for r in reports], indent=2)
        )
    if args.simulate_out:
        built = run_experiments(
            specs,
            [context.sku],
            terminals_for=lambda w: (context.terminals,),
            n_runs=args.simulate_runs,
            duration_s=context.duration_s,
            sample_interval_s=context.sample_interval_s,
            random_state=args.seed,
            jobs=args.jobs,
            cache=cache_dir,
        )
        _save_repository(built, args.simulate_out)
        print(
            f"simulated {len(built)} experiment(s) from "
            f"{len(specs)} synthesized spec(s) -> {args.simulate_out}"
        )
    if args.verify and any(not report.passed for report in reports):
        return 1
    return 0


def _cmd_serve(args) -> int:
    from repro.exec.engine import PersistentPool, set_persistent_pool
    from repro.serve.app import ServeApp
    from repro.serve.protocol import file_digest
    from repro.serve.server import make_server, serve_until_shutdown
    from repro.serve.service import PredictionService
    from repro.utils.parallel import resolve_jobs

    references_path = Path(args.references)
    if not references_path.exists():
        raise _UsageError(f"no such repository file: {args.references}")
    references = _load_repository(references_path)
    config = PipelineConfig(
        scaling_strategy=args.strategy,
        scaling_context=args.context,
        top_k=args.top_k,
        representation=args.representation,
        measure=args.measure,
        random_state=args.seed,
        jobs=args.jobs,
        distance_cache=_resolve_distance_cache(args),
        fit_cache=_resolve_fit_cache(args),
    )
    # The server's process-wide performance state: a persistent worker
    # pool, so requests never pay a pool spin-up.
    n_workers = resolve_jobs(args.jobs)
    pool = PersistentPool(n_workers) if n_workers > 1 else None
    previous_pool = set_persistent_pool(pool) if pool is not None else None
    try:
        service = PredictionService(
            references, config, n_subexperiments=args.subexperiments
        )
        summary = service.warmup()
        app = ServeApp(
            service,
            references_digest=file_digest(references_path),
            response_cache_size=args.response_cache_size,
            response_cache_bytes=args.response_cache_bytes,
            ledger=_resolve_ledger(args),
        )
        server = make_server(app, host=args.host, port=args.port)
        print(
            f"serving {len(references)} reference experiment(s) "
            f"({', '.join(summary['workloads'])}) on "
            f"http://{args.host}:{server.port}",
            flush=True,
        )
        drained = serve_until_shutdown(
            server, drain_timeout=args.drain_timeout
        )
        return 0 if drained else 1
    finally:
        if pool is not None:
            set_persistent_pool(previous_pool)
            pool.close()


def _require_obs_ledger(args) -> str | None:
    path = _resolve_ledger(args)
    if path is None:
        print(
            "error: no ledger given (--ledger or $REPRO_LEDGER)",
            file=sys.stderr,
        )
    return path


def _cmd_obs_report(args) -> int:
    from repro.obs import ProfileReport, RunLedger, tree_from_chrome

    if args.trace:
        try:
            chrome = json.loads(Path(args.trace).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(
                f"error: cannot read trace {args.trace}: {exc}",
                file=sys.stderr,
            )
            return 2
        report = ProfileReport.from_tree(
            tree_from_chrome(chrome), top=args.top
        )
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(report.render())
        return 0
    path = _require_obs_ledger(args)
    if path is None:
        return 2
    rows = RunLedger(path).rows()
    if not rows:
        print(f"error: ledger {path} has no rows", file=sys.stderr)
        return 2
    try:
        row = rows[args.run]
    except IndexError:
        print(
            f"error: ledger has {len(rows)} row(s); "
            f"--run {args.run} is out of range",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json.dumps(row, indent=2))
        return 0
    when = time.strftime(
        "%Y-%m-%d %H:%M:%S", time.localtime(row.get("ts_unix", 0))
    )
    print(f"run     : {row.get('command')}  ({' '.join(row.get('argv', []))})")
    print(f"when    : {when}")
    print(
        f"exit    : {row.get('exit_code')}   "
        f"wall {row.get('elapsed_s', 0.0):.3f} s   "
        f"cpu {row.get('cpu_s', 0.0):.3f} s"
    )
    for family, entry in sorted(row.get("caches", {}).items()):
        print(
            f"cache   : {family}  hit rate {entry['hit_rate'] * 100:.1f}%"
            f"  ({int(entry['hits'])} hits / {int(entry['misses'])} misses"
            f", {int(entry['corrupt'])} corrupt)"
        )
    profile = row.get("profile")
    if profile:
        report = ProfileReport.from_dict(profile)
    else:
        report = ProfileReport(
            total_wall_s=row.get("elapsed_s", 0.0),
            total_cpu_s=row.get("cpu_s", 0.0),
            stages=row.get("stages", {}),
        )
    print()
    print(report.render())
    return 0


def _cmd_obs_ledger(args) -> int:
    from repro.obs import RunLedger

    path = _require_obs_ledger(args)
    if path is None:
        return 2
    rows = RunLedger(path).rows()
    shown = rows[-args.limit:] if args.limit > 0 else rows
    if args.json:
        print(json.dumps(shown, indent=2))
        return 0
    print(f"ledger {path}: {len(rows)} run(s)")
    first = len(rows) - len(shown)
    for index, row in enumerate(shown, start=first):
        when = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(row.get("ts_unix", 0))
        )
        caches = row.get("caches", {})
        cache_note = "  ".join(
            f"{family} {entry['hit_rate'] * 100:.0f}%"
            for family, entry in sorted(caches.items())
        )
        print(
            f"  [{index}] {when}  {row.get('command', '?'):<10} "
            f"exit {row.get('exit_code', '?')}  "
            f"wall {row.get('elapsed_s', 0.0):8.3f} s"
            + (f"  {cache_note}" if cache_note else "")
        )
    return 0


def _cmd_obs_diff(args) -> int:
    from repro.obs import RunLedger, diff_rows

    path = _require_obs_ledger(args)
    if path is None:
        return 2
    rows = RunLedger(path).rows()
    if not rows:
        print(f"error: ledger {path} has no rows", file=sys.stderr)
        return 2
    verdict = diff_rows(
        rows[-1],
        rows[:-1],
        rel_tol=args.tolerance,
        window=args.window,
        min_baseline=args.min_baseline,
    )
    if args.json:
        print(json.dumps(verdict.to_dict(), indent=2))
    else:
        print(verdict.render())
        if verdict.compared == 0:
            print(
                "  (no comparable earlier runs: a baseline needs the "
                "same command and options)"
            )
    return 0 if verdict.ok else 1


def _load_bench_doc(path: Path) -> dict | None:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    if not isinstance(doc, dict):
        print(f"error: {path} is not a JSON object", file=sys.stderr)
        return None
    return doc


def _cmd_obs_check_bench(args) -> int:
    from repro.obs import check_bench

    if not args.baseline:
        print(
            "error: at least one --baseline file or directory is required",
            file=sys.stderr,
        )
        return 2
    verdicts: dict[str, object] = {}
    ok = True
    for current_path in args.current:
        current = _load_bench_doc(Path(current_path))
        if current is None:
            return 2
        baselines = []
        for base in args.baseline:
            base = Path(base)
            if base.is_dir():
                candidate = base / Path(current_path).name
                if candidate.exists():
                    doc = _load_bench_doc(candidate)
                    if doc is None:
                        return 2
                    baselines.append(doc)
            elif base.name == Path(current_path).name or len(args.current) == 1:
                doc = _load_bench_doc(base)
                if doc is None:
                    return 2
                baselines.append(doc)
        if not baselines:
            print(
                f"error: no baseline found for {current_path}",
                file=sys.stderr,
            )
            return 2
        verdict = check_bench(
            current,
            baselines,
            rel_tol=args.tolerance,
            abs_floor=args.abs_floor,
            min_baseline=args.min_baseline,
        )
        verdicts[current_path] = verdict
        ok = ok and verdict.ok
    if args.json:
        print(
            json.dumps(
                {path: v.to_dict() for path, v in verdicts.items()},
                indent=2,
            )
        )
    else:
        for path, verdict in verdicts.items():
            print(f"{path}:")
            for line in verdict.render().splitlines():
                print(f"  {line}")
    return 0 if ok else 1


def _cmd_obs(args) -> int:
    handlers = {
        "report": _cmd_obs_report,
        "ledger": _cmd_obs_ledger,
        "diff": _cmd_obs_diff,
        "check-bench": _cmd_obs_check_bench,
    }
    return handlers[args.obs_command](args)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "corpus": _cmd_corpus,
    "select": _cmd_select,
    "similarity": _cmd_similarity,
    "predict": _cmd_predict,
    "cluster": _cmd_cluster,
    "synth": _cmd_synth,
    "serve": _cmd_serve,
    "obs": _cmd_obs,
}


#: argparse attributes that do not affect what a run computes; excluded
#: from the ledger's ``config_fingerprint`` so observability flags never
#: split the baseline history.
_LEDGER_VOLATILE_OPTIONS = frozenset(
    {"command", "log_level", "trace_out", "metrics_out", "metrics_format",
     "ledger"}
)


def _append_ledger(
    ledger_path: str,
    args,
    argv: list[str],
    code: int,
    elapsed_s: float,
    cpu_s: float,
    tracer: Tracer,
) -> None:
    """Record this invocation as one row of the persistent run ledger."""
    from repro.obs import ProfileReport, RunLedger, build_row

    options = {
        key: value
        for key, value in vars(args).items()
        if key not in _LEDGER_VOLATILE_OPTIONS
    }
    tree = tracer.to_tree()
    manifest_digest = None
    manifest_out = getattr(args, "manifest_out", None)
    if manifest_out:
        try:
            manifest_digest = hashlib.sha256(
                Path(manifest_out).read_bytes()
            ).hexdigest()
        except OSError:
            pass
    row = build_row(
        command=args.command,
        argv=argv,
        options=options,
        exit_code=code,
        elapsed_s=elapsed_s,
        cpu_s=cpu_s,
        metrics_snapshot=get_metrics().snapshot(),
        tree=tree,
        profile=ProfileReport.from_tree(tree).to_dict() if tree else None,
        manifest_digest=manifest_digest,
    )
    ledger = RunLedger(ledger_path)
    ledger.append(row)
    logger.info("appended run to ledger %s", ledger.path)


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes are uniform across subcommands: ``0`` success, ``1``
    domain failure (the command ran; the outcome is bad — failed
    verification, detected regression, quarantined tasks left the
    result unusable), ``2`` usage error (unknown names, missing input
    files, malformed or missing flags — including argparse's own
    errors).

    One invocation is one observed run: a fresh metrics registry (and a
    fresh enabled tracer when ``--trace-out`` or a ledger is configured)
    is installed for the duration of the command, its exports are written
    — and the ledger row appended — on the way out, and the previous
    global instruments are restored.  ``repro obs`` itself is read-only:
    it never traces or appends.
    """
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    configure_logging(getattr(args, "log_level", "WARNING"))
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    ledger_path = _resolve_ledger(args) if args.command != "obs" else None
    tracer = Tracer(enabled=bool(trace_out) or ledger_path is not None)
    previous_tracer = set_tracer(tracer)
    previous_metrics = set_metrics(MetricsRegistry())
    start_wall = time.perf_counter()
    start_cpu = time.process_time()
    try:
        with tracer.span(f"cli.{args.command}"):
            code = _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    finally:
        elapsed_s = time.perf_counter() - start_wall
        cpu_s = time.process_time() - start_cpu
        try:
            if trace_out:
                Path(trace_out).write_text(tracer.to_chrome_json())
                logger.info("wrote trace to %s", trace_out)
            if metrics_out:
                registry = get_metrics()
                if args.metrics_format == "prometheus":
                    Path(metrics_out).write_text(
                        registry.to_prometheus()
                    )
                else:
                    Path(metrics_out).write_text(
                        registry.to_json(indent=2)
                    )
                logger.info("wrote metrics to %s", metrics_out)
            if ledger_path is not None:
                _append_ledger(
                    ledger_path, args, raw_argv, code, elapsed_s, cpu_s,
                    tracer,
                )
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        finally:
            set_tracer(previous_tracer)
            set_metrics(previous_metrics)
    return code


if __name__ == "__main__":  # pragma: no cover
    try:
        code = main()
    except BrokenPipeError:
        # A downstream head/pager closed stdout mid-print.  Redirect
        # stdout at the descriptor level so interpreter shutdown does
        # not raise again on flush, and exit with the conventional
        # 128 + SIGPIPE code instead of a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
