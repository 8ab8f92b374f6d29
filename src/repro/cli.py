"""Command-line interface: ``python -m repro <command>``.

Commands mirror the Fig. 1 pipeline:

* ``generate`` — synthesize a review dataset (ground truth) to JSON;
* ``derive``   — derive user profiles from a dataset (grouping-module input);
* ``select``   — run diverse user selection over a profile document,
  optionally with customization feedback, printing a JSON response;
* ``serve``    — start the prototype HTTP service on a profile document;
  with ``--data-dir`` the service write-ahead-logs every delta before
  acknowledging it and recovers snapshot + WAL on boot;
* ``store``    — inspect / replay / compact a ``--data-dir`` offline;
* ``report``   — regenerate EXPERIMENTS.md (``--jobs N`` parallelizes the
  engine-backed experiments);
* ``bench``    — benchmark suites: ``--suite selection`` times the greedy
  backends (eager/lazy/matrix) on the Fig. 5 sweep
  (``BENCH_selection.json``); ``--suite experiments`` times a fig3-style
  experiment end-to-end on the parallel engine at several job counts
  (``BENCH_experiments.json``); ``--suite scale`` drives the columnar
  construction + sharded/stochastic selection path to hundreds of
  thousands of users (``BENCH_scale.json``); ``--suite ingest`` measures
  durable delta throughput, recovery time and streaming-maintainer
  quality (``BENCH_ingest.json``).

Group keys on the command line use the ``property::bucket`` form, e.g.
``--must-have "avgRating Mexican::high"``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .core.customization import CustomizationFeedback
from .core.errors import PodiumError
from .core.groups import GroupKey
from .service.app import PodiumService, serve
from .service.config import DiversificationConfiguration


def _parse_group_key(text: str) -> GroupKey:
    prop, sep, bucket = text.rpartition("::")
    if not sep or not prop or not bucket:
        raise PodiumError(
            f"group key must look like 'property::bucket', got {text!r}"
        )
    return GroupKey(prop, bucket)


def _cmd_generate(args: argparse.Namespace) -> int:
    from .datasets.io import save_dataset
    from .datasets.synth import generate, tripadvisor_config, yelp_config

    presets = {"tripadvisor": tripadvisor_config, "yelp": yelp_config}
    config = presets[args.preset](n_users=args.users)
    dataset = generate(config, seed=args.seed)
    save_dataset(dataset, args.out)
    print(
        f"wrote {args.out}: {len(dataset.user_ids)} users, "
        f"{len(dataset.business_ids)} businesses, {len(dataset)} reviews"
    )
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    from .datasets.derive import (
        build_repository,
        tripadvisor_derive_config,
        yelp_derive_config,
    )
    from .datasets.io import load_dataset, save_profiles

    presets = {
        "tripadvisor": tripadvisor_derive_config,
        "yelp": yelp_derive_config,
    }
    dataset = load_dataset(args.dataset)
    repository = build_repository(dataset, presets[args.preset]())
    save_profiles(repository, args.out)
    print(
        f"wrote {args.out}: {len(repository)} profiles, "
        f"{len(repository.property_labels)} properties, mean size "
        f"{repository.mean_profile_size():.1f}"
    )
    return 0


def _load_service(
    profiles_path: str | None,
    args: argparse.Namespace,
    store=None,
) -> PodiumService:
    from .datasets.io import load_profiles

    service = PodiumService(store=store)
    service.configurations.put(
        DiversificationConfiguration(
            name="cli",
            description="configuration assembled from CLI flags",
            budget=args.budget,
            weight_scheme=args.weights,
            coverage_scheme=args.coverage,
            bucketing_strategy=args.strategy,
            min_support=args.min_support,
        )
    )
    if profiles_path is not None:
        # Explicit --profiles starts a new epoch: with a store attached
        # this snapshots the fresh repository and truncates the WAL.
        service.load_repository(load_profiles(profiles_path))
    elif store is not None and len(store.repository):
        restored = service.restore_artifacts()
        print(
            f"recovered {len(store.repository)} users from {store.data_dir} "
            f"(wal_seq={store.last_seq}, replayed={store.replayed_records} "
            f"records in {store.replay_seconds:.3f}s, "
            f"restored configs: {restored or 'none'})",
            file=sys.stderr,
        )
    else:
        raise PodiumError(
            "no profiles: pass --profiles, or --data-dir pointing at a "
            "directory with recoverable state"
        )
    return service


def _cmd_select(args: argparse.Namespace) -> int:
    service = _load_service(args.profiles, args)
    feedback = CustomizationFeedback(
        must_have=frozenset(_parse_group_key(t) for t in args.must_have),
        must_not=frozenset(_parse_group_key(t) for t in args.must_not),
        priority=frozenset(_parse_group_key(t) for t in args.priority),
    )
    if feedback == CustomizationFeedback.none():
        feedback = None
    response = service.select(
        "cli",
        feedback=feedback,
        explain=args.explain,
        distribution_properties=tuple(args.distribution or ()),
    )
    if args.html:
        Path(args.html).write_text(service.explanation_page("cli"))
        print(f"wrote explanation page to {args.html}", file=sys.stderr)
    json.dump(response, sys.stdout, indent=1)
    print()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging

    logging.basicConfig(
        level=getattr(logging, args.log_level.upper(), logging.INFO),
        format="%(asctime)s %(name)s %(message)s",
        stream=sys.stderr,
    )
    store = None
    if args.data_dir:
        from .storage import DurableRepositoryStore

        store = DurableRepositoryStore(args.data_dir, fsync=args.fsync)
    follower = None
    if args.follow:
        if args.workers >= 2:
            raise PodiumError(
                "--follow runs single-process: pass --workers 1 (the "
                "pre-fork pool does not forward the WAL tail, and a "
                "standby's read traffic is served by one process)"
            )
        if args.profiles:
            raise PodiumError(
                "--follow bootstraps its state from the primary; drop "
                "--profiles (a local --data-dir is still honoured for "
                "the standby's own durability)"
            )
        from .service.replication import WalFollower

        service = PodiumService(store=store)
        service.read_only = True
        follower = WalFollower(
            service, args.follow, poll_interval=args.poll_interval
        )
        service.follower = follower
        follower.start()
        print(
            f"following {args.follow} "
            f"(applied_seq={follower.applied_seq}, read-only until "
            f"POST /admin/promote)",
            file=sys.stderr,
        )
    else:
        service = _load_service(args.profiles, args, store=store)
    try:
        if args.workers >= 2:
            from .service.workers import serve_pool

            snapshot = serve_pool(
                service,
                host=args.host,
                port=args.port,
                workers=args.workers,
            )
        else:
            snapshot = serve(service, host=args.host, port=args.port)
    finally:
        if follower is not None:
            follower.stop()
        if store is not None:
            store.close()
    from .service.viz import render_metrics_text

    print(render_metrics_text(snapshot), file=sys.stderr)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from .storage import DurableRepositoryStore, inspect_data_dir

    if args.action == "inspect":
        json.dump(inspect_data_dir(args.data_dir), sys.stdout, indent=1)
        print()
        return 0
    # compact / replay both perform a full recovery first.
    store = DurableRepositoryStore(args.data_dir, fsync=args.fsync)
    try:
        if args.action == "compact":
            store.compact()
        stats = store.stats()
        stats["replayed_records"] = store.replayed_records
        stats["replay_seconds"] = round(store.replay_seconds, 6)
        json.dump(stats, sys.stdout, indent=1)
        print()
        return 0
    finally:
        store.close()


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.suite == "experiments":
        return _bench_experiments(args)
    if args.suite == "scale":
        return _bench_scale(args)
    if args.suite == "ingest":
        return _bench_ingest(args)
    if args.suite == "serve":
        return _bench_serve(args)
    if args.suite == "constraints":
        return _bench_constraints(args)
    return _bench_selection(args)


def _bench_constraints(args: argparse.Namespace) -> int:
    from .experiments.constraints import (
        ConstraintsSetup,
        benchmark_constraints,
        constraints_report_failures,
    )

    defaults = ConstraintsSetup()
    setup = ConstraintsSetup(
        users=args.users,
        budget=(
            args.budget if args.budget is not None else defaults.budget
        ),
        seed=args.seed,
        jobs=args.jobs if args.jobs is not None else defaults.jobs,
    )
    report = benchmark_constraints(setup)
    out = args.out or "BENCH_constraints.json"
    Path(out).write_text(json.dumps(report, indent=1) + "\n")
    for row in report["rows"]:
        rate = row["floor_satisfaction_rate"]
        rate_note = f", floors {rate:.0%}" if rate is not None else ""
        print(
            f"{row['scenario']}: score {row['constrained_score']:.0f} "
            f"({row['price_of_fairness']:.3f}x of unconstrained"
            f"{rate_note}) in {row['constrained_seconds']:.3f}s "
            f"(exact {row['exact_seconds']:.3f}s)"
        )
    failures = constraints_report_failures(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"wrote {out}")
    return 0 if not failures else 1


def _bench_serve(args: argparse.Namespace) -> int:
    from .experiments.serve import (
        ServeBenchSetup,
        benchmark_serving,
        serve_report_failures,
    )

    defaults = ServeBenchSetup()
    setup = ServeBenchSetup(
        users=args.users,
        worker_counts=(
            _parse_sizes(args.workers_list)
            if args.workers_list
            else defaults.worker_counts
        ),
        duration_seconds=args.duration,
        client_processes=args.client_procs,
        client_threads=args.client_threads,
        delta_every=args.delta_every,
        rps_floor=args.rps_floor,
        seed=args.seed,
    )
    report = benchmark_serving(setup)
    out = args.out or "BENCH_serve.json"
    Path(out).write_text(json.dumps(report, indent=1) + "\n")
    for row in report["rows"]:
        spread = row["per_worker_select_share"]
        spread_note = (
            " spread=" + "/".join(f"{s:.0%}" for s in spread)
            if len(spread) > 1
            else ""
        )
        print(
            f"serve workers={row['workers']}: {row['requests']} reqs in "
            f"{row['seconds']:.1f}s = {row['requests_per_second']:.0f}/s "
            f"(p50 {row['select_p50_ms']:.1f}ms, "
            f"p99 {row['select_p99_ms']:.1f}ms, "
            f"deltas {row['deltas_acked']}{spread_note})"
        )
    rss = report.get("worker_rss")
    if rss:
        mean = rss["mean_worker_rss_kb"]
        mean_note = f"{mean / 1024.0:.1f} MiB/worker" if mean else "RSS n/a"
        print(
            f"serve boot mapped (workers={rss['workers']}, "
            f"|U|={rss['users']}): {rss['boot_seconds']:.2f}s, "
            f"{mean_note}, "
            f"{rss['mapped_artifact_indexes']} mapped index(es)"
        )
    for gate in report["gates"]:
        print(f"gate: {gate['name']}: {gate['status']} ({gate['detail']})")
    failures = serve_report_failures(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"wrote {out}")
    return 0 if not failures else 1


def _bench_ingest(args: argparse.Namespace) -> int:
    from .experiments.ingest import (
        IngestSetup,
        benchmark_ingest,
        ingest_report_failures,
    )

    defaults = IngestSetup()
    setup = IngestSetup(
        users=args.users,
        budget=args.budget if args.budget is not None else defaults.budget,
        seed=args.seed,
        throughput_deltas=args.deltas,
        churn_rounds=args.churn_rounds,
    )
    report = benchmark_ingest(setup)
    out = args.out or "BENCH_ingest.json"
    Path(out).write_text(json.dumps(report, indent=1) + "\n")
    for row in report["throughput"]:
        mode = "fsync" if row["fsync"] else "no-fsync"
        print(
            f"ingest [{mode}]: {row['deltas']} deltas in "
            f"{row['seconds']:.2f}s = {row['deltas_per_second']:.0f}/s"
        )
    for row in report["recovery"]:
        print(
            f"recovery: {row['wal_records']} WAL records replayed in "
            f"{row['replay_seconds']:.3f}s "
            f"({row['records_per_second']:.0f}/s)"
        )
    worst = min(r["quality_ratio"] for r in report["maintainer"])
    last = report["maintainer"][-1]
    print(
        f"maintainer: worst quality ratio {worst:.4f} over "
        f"{len(report['maintainer'])} churn rounds "
        f"(swaps={last['swaps']}, fills={last['fills']}, "
        f"drops={last['drops']}, resolves={last['resolves']}; "
        f"floor {report['quality_floor']})"
    )
    failures = ingest_report_failures(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"wrote {out}")
    return 0 if not failures else 1


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(s) for s in text.split(",") if s)
    except ValueError:
        sizes = ()
    if not sizes or any(size <= 0 for size in sizes):
        raise PodiumError(
            f"--sizes must be a comma-separated list of positive "
            f"integers, got {text!r}"
        )
    return sizes


def _bench_scale(args: argparse.Namespace) -> int:
    from .experiments.scale import (
        ScaleSetup,
        benchmark_scale_path,
        scale_report_failures,
    )

    defaults = ScaleSetup()
    setup = ScaleSetup(
        user_sizes=(
            _parse_sizes(args.sizes) if args.sizes else defaults.user_sizes
        ),
        budget=args.budget if args.budget is not None else defaults.budget,
        seed=args.seed,
        shards=args.shards,
        jobs=args.jobs if args.jobs is not None else defaults.jobs,
        epsilon=args.epsilon,
        dict_cap=args.dict_cap,
        out_of_core=args.out_of_core,
        rss_cap_mb=args.rss_cap_mb,
        run_entries=(
            args.run_entries
            if args.run_entries is not None
            else defaults.run_entries
        ),
        workdir=args.workdir,
    )
    report = benchmark_scale_path(setup)
    out = args.out or "BENCH_scale.json"
    Path(out).write_text(json.dumps(report, indent=1) + "\n")
    for row in report["rows"]:
        ratios = ", ".join(
            f"{backend}={ratio:.4f}"
            for backend, ratio in row["quality_ratio"].items()
        )
        if row.get("mode") == "out_of_core":
            build_note = (
                f"external build {row['external_build_seconds']:.2f}s "
                f"({row['runs']} runs), mmap open "
                f"{row['open_seconds']:.2f}s"
            )
        else:
            speedup = row["columnar_speedup"]
            dict_note = (
                f", dict {row['dict_build_seconds']:.2f}s ({speedup:.1f}x)"
                if speedup is not None
                else ""
            )
            build_note = (
                f"columnar build "
                f"{row['columnar_build_seconds']:.2f}s{dict_note}"
            )
        print(
            f"|U|={row['users']}: gen {row['generate_seconds']:.2f}s, "
            f"{build_note}; "
            f"select matrix={row['select_seconds']['matrix']:.2f}s "
            f"sharded={row['select_seconds']['sharded']:.2f}s "
            f"stochastic={row['select_seconds']['stochastic']:.2f}s; "
            f"quality {ratios}; peak RSS {row['peak_rss_mb']:.0f} MiB"
        )
    failures = scale_report_failures(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"wrote {out}")
    return 0 if not failures else 1


def _bench_experiments(args: argparse.Namespace) -> int:
    from .experiments.engine import benchmark_experiment_engine

    report = benchmark_experiment_engine(
        users=args.users,
        budget=args.budget if args.budget is not None else 8,
        repetitions=args.repetitions,
        seed=args.seed,
        jobs=args.jobs if args.jobs is not None else 4,
    )
    out = args.out or "BENCH_experiments.json"
    Path(out).write_text(json.dumps(report, indent=1) + "\n")
    print(
        f"build (shared, untimed): {report['build_seconds']:.2f}s; "
        f"warm-up (untimed): {report['warmup_seconds']:.2f}s; "
        f"cpu_count={report['cpu_count']}"
    )
    matches = True
    for row in report["rows"]:
        if row["mode"] == "serial-eager":
            print(f"serial-eager: {row['seconds']:.2f}s (baseline)")
            continue
        matches = matches and row["selections_match"] and row["table_matches"]
        flag = "ok" if row["selections_match"] and row["table_matches"] else "MISMATCH"
        print(
            f"engine jobs={row['jobs']}: {row['seconds']:.2f}s "
            f"({row['speedup_vs_serial_eager']:.1f}x) [{flag}]"
        )
    print(f"wrote {out}")
    return 0 if matches else 1


def _bench_selection(args: argparse.Namespace) -> int:
    from .experiments.scalability import (
        ScalabilitySetup,
        benchmark_index_native_stages,
        benchmark_selection_backends,
    )

    sizes = _parse_sizes(args.sizes or "500,1000,2000,4000")
    setup = ScalabilitySetup(
        budget=args.budget if args.budget is not None else 8,
        user_sizes=sizes,
        repetitions=args.repetitions,
        seed=args.seed,
    )
    report = benchmark_selection_backends(setup)
    stages = benchmark_index_native_stages(setup)
    report["stages"] = stages
    out = args.out or "BENCH_selection.json"
    Path(out).write_text(json.dumps(report, indent=1) + "\n")
    for row in report["rows"]:
        timings = ", ".join(
            f"{backend}={row['seconds'][backend]:.4f}s"
            for backend in report["backends"]
        )
        speedup = row.get("speedup_matrix_vs_eager")
        extra = f", matrix speedup {speedup:.1f}x" if speedup else ""
        match = "ok" if row["selections_match"] else "MISMATCH"
        print(f"|U|={row['users']}: {timings}{extra} [{match}]")
    for row in stages["rows"]:
        parity = "ok" if row["customization_parity"] else "MISMATCH"
        print(
            f"|U|={row['users']} stages (B={stages['budget']}): "
            f"explain {row['explanation_seconds']:.4f}s, "
            f"customize {row['customization_seconds']['eager']:.4f}s -> "
            f"{row['customization_seconds']['matrix']:.4f}s "
            f"({row['speedup_customization']:.1f}x) [{parity}]"
        )
    print(f"wrote {out}")
    ok = all(r["selections_match"] for r in report["rows"]) and all(
        r["customization_parity"] for r in stages["rows"]
    )
    return 0 if ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import build_report

    report = build_report(fast=args.fast, jobs=args.jobs)
    Path(args.out).write_text(report)
    print(f"wrote {args.out}")
    return 0


def _add_selection_flags(
    parser: argparse.ArgumentParser, profiles_required: bool = True
) -> None:
    parser.add_argument(
        "--profiles",
        required=profiles_required,
        default=None,
        help="profile JSON path"
        + (
            ""
            if profiles_required
            else " (optional when --data-dir holds recoverable state)"
        ),
    )
    parser.add_argument("--budget", type=int, default=8)
    parser.add_argument(
        "--weights", default="LBS", choices=("Iden", "LBS", "EBS")
    )
    parser.add_argument(
        "--coverage", default="Single", choices=("Single", "Prop")
    )
    parser.add_argument("--strategy", default="jenks")
    parser.add_argument("--min-support", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    """Assemble the argparse tree for every CLI command."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="synthesize a review dataset"
    )
    generate.add_argument(
        "--preset", default="tripadvisor", choices=("tripadvisor", "yelp")
    )
    generate.add_argument("--users", type=int, default=500)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=_cmd_generate)

    derive = commands.add_parser(
        "derive", help="derive profiles from a dataset"
    )
    derive.add_argument("--dataset", required=True)
    derive.add_argument(
        "--preset", default="tripadvisor", choices=("tripadvisor", "yelp")
    )
    derive.add_argument("--out", required=True)
    derive.set_defaults(handler=_cmd_derive)

    select = commands.add_parser("select", help="run diverse user selection")
    _add_selection_flags(select)
    select.add_argument(
        "--must-have", action="append", default=[], metavar="PROP::BUCKET"
    )
    select.add_argument(
        "--must-not", action="append", default=[], metavar="PROP::BUCKET"
    )
    select.add_argument(
        "--priority", action="append", default=[], metavar="PROP::BUCKET"
    )
    select.add_argument(
        "--distribution", action="append", metavar="PROPERTY",
        help="include a population-vs-subset distribution for PROPERTY",
    )
    select.add_argument("--explain", action="store_true")
    select.add_argument(
        "--html", metavar="PATH",
        help="also write the Fig. 2 explanation page as HTML to PATH",
    )
    select.set_defaults(handler=_cmd_select)

    server = commands.add_parser("serve", help="start the HTTP service")
    _add_selection_flags(server, profiles_required=False)
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument("--port", type=int, default=8808)
    server.add_argument(
        "--data-dir", default=None,
        help="durable storage directory: deltas are write-ahead-logged "
        "before acknowledgment and the service recovers snapshot + WAL "
        "on boot (omit --profiles to boot from recovered state)",
    )
    server.add_argument(
        "--fsync", action=argparse.BooleanOptionalAction, default=True,
        help="fsync the WAL on every delta (--no-fsync trades OS-crash "
        "durability for throughput)",
    )
    server.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="per-request structured log verbosity",
    )
    server.add_argument(
        "--follow",
        default=None,
        metavar="URL",
        help="boot as a warm standby of the primary at URL: bootstrap "
        "its profiles + configurations, tail its WAL over HTTP and "
        "serve read traffic (writes answer 503 until POST "
        "/admin/promote); replication lag is exported under "
        "'replication' in /metrics",
    )
    server.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        help="seconds between WAL tail polls when following (default "
        "0.5)",
    )
    server.add_argument(
        "--workers",
        type=int,
        default=int(os.environ.get("REPRO_SERVE_WORKERS", "1") or "1"),
        help="serving processes: 1 (default) runs the in-process threaded "
        "server; >= 2 pre-forks that many worker processes sharing the "
        "warmed artifacts copy-on-write, with writes routed to a single "
        "writer (env REPRO_SERVE_WORKERS overrides the default)",
    )
    server.set_defaults(handler=_cmd_serve)

    store = commands.add_parser(
        "store",
        help="durable data-directory tooling: 'inspect' summarizes the "
        "WAL and live snapshot read-only, 'replay' performs a full "
        "recovery and prints the resulting stats, 'compact' folds the "
        "WAL into a fresh snapshot and truncates it",
    )
    store.add_argument(
        "action", choices=("inspect", "replay", "compact")
    )
    store.add_argument("--data-dir", required=True)
    store.add_argument(
        "--fsync", action=argparse.BooleanOptionalAction, default=True
    )
    store.set_defaults(handler=_cmd_store)

    report = commands.add_parser("report", help="regenerate EXPERIMENTS.md")
    report.add_argument("--fast", action="store_true")
    report.add_argument("--out", default="EXPERIMENTS.md")
    report.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for engine-backed experiments (0 = all cores)",
    )
    report.set_defaults(handler=_cmd_report)

    bench = commands.add_parser(
        "bench",
        help="benchmark suites: 'selection' times the greedy backends on "
        "the Fig. 5 sweep (BENCH_selection.json); 'experiments' times a "
        "fig3-style experiment end-to-end on the parallel engine "
        "(BENCH_experiments.json); 'scale' drives columnar construction "
        "plus sharded/stochastic selection to 500k+ users "
        "(BENCH_scale.json); 'ingest' measures durable delta throughput "
        "with/without fsync, WAL recovery time and streaming-maintainer "
        "quality vs fresh greedy (BENCH_ingest.json); 'serve' load-tests "
        "the HTTP service across worker counts with a mixed "
        "/select + delta workload and gates on throughput and read "
        "scaling (BENCH_serve.json); 'constraints' measures the price "
        "of fairness of floor/ceiling and cluster-budgeted selection "
        "vs the unconstrained greedy and gates on a quality-ratio "
        "floor (BENCH_constraints.json)",
    )
    bench.add_argument(
        "--suite",
        default="selection",
        choices=(
            "selection",
            "experiments",
            "scale",
            "ingest",
            "serve",
            "constraints",
        ),
    )
    bench.add_argument(
        "--sizes", default=None,
        help="[selection/scale] comma-separated population sizes "
        "(defaults: 500,1000,2000,4000 / 100000,250000,500000)",
    )
    bench.add_argument(
        "--budget", type=int, default=None,
        help="selection budget (default: 8; scale suite: 50)",
    )
    bench.add_argument("--repetitions", type=int, default=3)
    bench.add_argument("--seed", type=int, default=3)
    bench.add_argument(
        "--users", type=int, default=2000,
        help="[experiments/ingest/constraints] population size",
    )
    bench.add_argument(
        "--deltas", type=int, default=300,
        help="[ingest] deltas per throughput run",
    )
    bench.add_argument(
        "--churn-rounds", type=int, default=12,
        help="[ingest] churn rounds of the maintainer quality sweep",
    )
    bench.add_argument(
        "--jobs", type=int, default=None,
        help="[experiments/scale/constraints] worker processes (engine "
        "cells / shard solves; default: 4; scale/constraints suites: 1)",
    )
    bench.add_argument(
        "--shards", type=int, default=4,
        help="[scale] shard count of the GreeDi backend",
    )
    bench.add_argument(
        "--epsilon", type=float, default=0.1,
        help="[scale] stochastic-greedy guarantee slack",
    )
    bench.add_argument(
        "--dict-cap", type=int, default=250_000,
        help="[scale] largest size at which the dict-based construction "
        "path is also timed for the speedup comparison",
    )
    bench.add_argument(
        "--out-of-core", action="store_true",
        help="[scale] run the disk-backed tier: spill-generated triple "
        "store, external-sort index build, mmap-opened checkpoint, and "
        "streaming sharded selection",
    )
    bench.add_argument(
        "--rss-cap-mb", type=float, default=None,
        help="[scale] fail the bench (nonzero exit) if any row's peak "
        "RSS — parent and reaped children combined — exceeds this "
        "many MiB",
    )
    bench.add_argument(
        "--run-entries", type=int, default=None,
        help="[scale --out-of-core] entries per sorted run of the "
        "external-sort build (default: 2097152)",
    )
    bench.add_argument(
        "--workdir", default=None,
        help="[scale --out-of-core] directory for spill files "
        "(default: system temp)",
    )
    bench.add_argument(
        "--workers-list", default=None,
        help="[serve] comma-separated worker counts to load-test "
        "(default: 1,2,4)",
    )
    bench.add_argument(
        "--duration", type=float, default=6.0,
        help="[serve] seconds of sustained load per worker count",
    )
    bench.add_argument(
        "--client-procs", type=int, default=2,
        help="[serve] load-generator processes",
    )
    bench.add_argument(
        "--client-threads", type=int, default=4,
        help="[serve] request threads per load-generator process",
    )
    bench.add_argument(
        "--delta-every", type=int, default=50,
        help="[serve] interleave one profile delta every N selects "
        "(0 disables writes)",
    )
    bench.add_argument(
        "--rps-floor", type=float, default=25.0,
        help="[serve] minimum acceptable read throughput (req/s) for "
        "every worker count",
    )
    bench.add_argument(
        "--out", default=None,
        help="output path (default: BENCH_<suite>.json)",
    )
    bench.set_defaults(handler=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PodiumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
