"""Command-line interface (system S22).

Usage examples::

    repro generate --ncust 1000 --slen 8 --nitems 400 --seed 1 -o db.spmf
    repro mine db.spmf --min-support 0.01 --algorithm disc-all --top 20
    repro experiment fig8 --scale repro
    repro algorithms
    repro stats db.spmf
    repro lint src/ --format json
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

from repro.bench.harness import SCALES, run_experiment
from repro.bench.experiments import EXPERIMENTS
from repro.core.sequence import format_seq, seq_length
from repro.datagen import QuestParams, generate
from repro.db import io as dbio
from repro.db.database import SequenceDatabase
from repro.exceptions import InvalidParameterError, ReproError
from repro.mining.api import mine
from repro.mining.registry import available_algorithms


def _read_db(path: str, fmt: str | None = None) -> SequenceDatabase:
    """Read a database file, ``-`` meaning stdin.

    *fmt* (``spmf`` / ``paper``) overrides the filename-suffix dispatch;
    it is required for stdin, where there is no suffix to dispatch on.
    """
    if path == "-":
        if fmt is None:
            raise InvalidParameterError(
                "reading a database from stdin requires --format {spmf,paper}"
            )
        reader = dbio.read_paper if fmt == "paper" else dbio.read_spmf
        return reader(sys.stdin)
    if fmt is not None:
        reader = dbio.read_paper if fmt == "paper" else dbio.read_spmf
        return reader(path)
    if path.endswith(".txt") or path.endswith(".paper"):
        return dbio.read_paper(path)
    return dbio.read_spmf(path)


def _add_database_arg(parser: argparse.ArgumentParser) -> None:
    """The shared positional database argument plus its --format flag."""
    parser.add_argument(
        "database", help="input file (.spmf or .txt), or '-' for stdin"
    )
    parser.add_argument(
        "--format", choices=("spmf", "paper"), default=None,
        help="input format (required for stdin; otherwise by file suffix)",
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    params = QuestParams(
        ncust=args.ncust,
        slen=args.slen,
        tlen=args.tlen,
        nitems=args.nitems,
        patlen=args.patlen,
        npats=args.npats,
        nlits=args.nlits,
        litlen=args.litlen,
        corr=args.corr,
        seed=args.seed,
    )
    db = generate(params)
    target = Path(args.output)
    if target.suffix in (".txt", ".paper"):
        dbio.write_paper(db, target)
    else:
        dbio.write_spmf(db, target)
    stats = db.stats
    print(
        f"wrote {stats.num_sequences} sequences "
        f"({stats.num_distinct_items} items, theta={stats.avg_transactions:.2f}, "
        f"tlen={stats.avg_items_per_transaction:.2f}) to {target}"
    )
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    db = _read_db(args.database, args.format)
    min_support: float | int
    if args.min_support >= 1:
        min_support = int(args.min_support)
    else:
        min_support = args.min_support
    observe = bool(args.trace or args.metrics_json or args.events)
    if args.events:
        from repro.obs.events import EventLog, event_log

        sink = EventLog(args.events)
        try:
            with event_log(sink):
                result = mine(
                    db, min_support, algorithm=args.algorithm, observe=observe
                )
        finally:
            sink.close()
        print(f"wrote event log to {args.events}")
    else:
        result = mine(
            db, min_support, algorithm=args.algorithm, observe=observe
        )
    print(result.summary())
    if result.report is not None:
        if args.trace:
            print(result.report.render())
        if args.metrics_json:
            Path(args.metrics_json).write_text(
                result.report.to_json(), encoding="utf-8"
            )
            print(f"wrote run report to {args.metrics_json}")
    if args.save:
        from repro.mining.serialize import save_result

        save_result(result, args.save, include_report=observe)
        print(f"saved {len(result)} patterns to {args.save}")
    if args.tree:
        print(result.render_tree())
        return 0
    shown = 0
    for raw in result.sorted_patterns():
        if args.min_length and seq_length(raw) < args.min_length:
            continue
        print(f"{result.patterns[raw]:6d}  {format_seq(raw)}")
        shown += 1
        if args.top and shown >= args.top:
            break
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import json

    names = list(EXPERIMENTS) if args.name == "all" else [args.name]
    results = [run_experiment(name, scale=args.scale) for name in names]
    if args.json:
        print(json.dumps([result.to_dict() for result in results], indent=2))
    elif args.markdown:
        for result in results:
            print(result.render_markdown())
            print()
    else:
        for result in results:
            print(result.render())
            print()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.bench.baseline import collect_baseline

    if args.compare:
        from repro.bench.compare import (
            compare_against,
            load_baseline,
            render_verdict,
        )

        candidate = load_baseline(args.candidate) if args.candidate else None
        verdict = compare_against(
            args.compare,
            candidate=candidate,
            tolerance=args.tolerance,
            calibrate=args.calibrate,
        )
        print(render_verdict(verdict))
        if args.compare_json:
            Path(args.compare_json).write_text(
                json.dumps(verdict, indent=1) + "\n", encoding="utf-8"
            )
            print(f"wrote compare verdict to {args.compare_json}")
        return 0 if verdict["verdict"] == "pass" else 1

    document = collect_baseline(scale=args.scale)
    text = json.dumps(document, indent=1)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        runs = document["runs"]
        assert isinstance(runs, list)
        print(f"wrote {len(runs)} baseline runs to {args.output}")
    else:
        print(text)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.bench.profiling import profile_mine, render_profile

    db = _read_db(args.database, args.format)
    min_support: float | int = (
        int(args.min_support) if args.min_support >= 1 else args.min_support
    )
    document = profile_mine(
        db, min_support, algorithm=args.algorithm, top=args.top
    )
    print(render_profile(document))
    if args.output:
        Path(args.output).write_text(
            json.dumps(document, indent=1) + "\n", encoding="utf-8"
        )
        print(f"wrote profile to {args.output}")
    return 0


def _cmd_topk(args: argparse.Namespace) -> int:
    from repro.ext.topk import mine_topk

    db = _read_db(args.database, args.format)
    ranked = mine_topk(db.members(), args.k, min_length=args.min_length)
    for pattern, count in ranked:
        print(f"{count:6d}  {format_seq(pattern)}")
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    from repro.ext.rules import generate_rules

    db = _read_db(args.database, args.format)
    min_support: float | int = (
        int(args.min_support) if args.min_support >= 1 else args.min_support
    )
    result = mine(db, min_support, algorithm=args.algorithm)
    rules = generate_rules(result.patterns, len(db), args.min_confidence)
    print(f"{len(rules)} rules (conf >= {args.min_confidence}) "
          f"from {len(result)} frequent sequences")
    for rule in rules[: args.top or len(rules)]:
        print(f"  {rule}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    db = _read_db(args.database, args.format)
    min_support: float | int = (
        int(args.min_support) if args.min_support >= 1 else args.min_support
    )
    baseline = mine(db, min_support, algorithm=args.baseline)
    print(baseline.summary())
    worst = 0
    for name in args.algorithms:
        result = mine(db, min_support, algorithm=name)
        print(result.summary())
        if not result.same_patterns(baseline):
            worst = 1
            diff = result.difference(baseline)
            for kind, lines in diff.items():
                for line in lines[:5]:
                    print(f"  {kind}: {line}")
    print("agreement:", "OK" if worst == 0 else "MISMATCH")
    return worst


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.mining.verify import verify_patterns

    db = _read_db(args.database, args.format)
    min_support: float | int = (
        int(args.min_support) if args.min_support >= 1 else args.min_support
    )
    result = mine(db, min_support, algorithm=args.algorithm)
    print(result.summary())
    report = verify_patterns(
        result.patterns,
        list(db.sequences),
        result.delta,
        sample=args.sample,
    )
    print(report.summary())
    for error in report.errors:
        print(f"  {error}")
    return 0 if report.ok else 1


def _cmd_analyse(args: argparse.Namespace) -> int:
    from repro.analysis.runner import run_from_args

    return run_from_args(args.command, args)


def _serve_worker(args: argparse.Namespace) -> int:
    """``repro serve --role worker``: a stateless shard-mining endpoint."""
    from repro.cluster.worker import ClusterWorker, CoordinatorLink, make_worker_server

    if args.databases:
        raise InvalidParameterError(
            "a worker holds no databases; every shard payload carries its "
            "own member sequences"
        )
    if not args.coordinator and (
        args.advertise or args.heartbeat_seconds is not None
    ):
        raise InvalidParameterError(
            "--advertise and --heartbeat-seconds require --coordinator"
        )
    worker = ClusterWorker(**(
        {"max_shard_bytes": args.max_shard_bytes}
        if args.max_shard_bytes is not None else {}
    ))
    server = make_worker_server(host=args.host, port=args.port, worker=worker)
    host, port = server.server_address[:2]
    print(f"repro cluster worker listening on http://{host}:{port}")
    print("endpoints: POST /shards  GET /healthz  GET /metrics")

    link = None
    if args.coordinator:
        advertise = args.advertise or f"http://{host}:{port}"
        link = CoordinatorLink(
            args.coordinator, advertise,
            heartbeat_seconds=args.heartbeat_seconds,
        )
        link.start()
        print(f"registering with coordinator {args.coordinator} as {advertise}")

    def _terminate(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("worker shutting down")
    finally:
        if link is not None:
            link.stop()
        server.server_close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import repro.faults as faults
    from repro.service import JobJournal, MiningService, RetryPolicy
    from repro.service.http import make_server

    if args.role == "worker":
        if args.worker:
            raise InvalidParameterError("--worker URLs only apply to --role coordinator")
        return _serve_worker(args)
    if args.coordinator or args.advertise:
        raise InvalidParameterError(
            "--coordinator and --advertise only apply to --role worker"
        )

    pool = None
    if args.role == "coordinator":
        from repro.cluster.coordinator import (
            ShardTimeout,
            WorkerPool,
            register_cluster_algorithm,
        )

        pool = WorkerPool(
            args.worker or (),
            timeout=ShardTimeout(
                base=args.shard_timeout,
                per_member=args.shard_timeout_per_member,
            ),
            lease_seconds=args.lease_seconds,
            degrade_after=args.degrade_after,
            allow_empty=True,
        )
        # registered before the service exists (and before recovery) so
        # journaled disc-all-cluster jobs validate and resume
        register_cluster_algorithm(pool)
        print(
            f"coordinator: {len(pool)} static workers, "
            f"shard timeout {args.shard_timeout:g}s"
            + (f" + {args.shard_timeout_per_member:g}s/member"
               if args.shard_timeout_per_member else "")
        )
        if not args.worker:
            print("no static workers; waiting for POST /workers registrations")
    elif args.worker:
        raise InvalidParameterError("--worker requires --role coordinator")

    if args.faults:
        faults.arm(faults.FaultPlan.from_spec(args.faults, seed=args.faults_seed))
        print(f"fault injection armed: {args.faults}")
    else:
        plan = faults.plan_from_env(os.environ)
        if plan is not None:
            faults.arm(plan)
            print(f"fault injection armed from {faults.ENV_SPEC}")

    event_sink = None
    if args.events:
        # installed before the service exists so recovery and the very
        # first accepted job are narrated too
        from repro.obs import events as obs_events
        from repro.obs.events import EventLog

        event_sink = EventLog(args.events)
        obs_events.install(event_sink)
        print(f"event log: {args.events}")

    journal = None
    if args.journal:
        journal_path = Path(args.journal)
        if journal_path.is_dir():
            journal_path = journal_path / "jobs.jsonl"
        journal = JobJournal(journal_path)
        print(f"journaling jobs to {journal_path}")

    service = MiningService(
        workers=args.workers,
        queue_size=args.queue_size,
        cache_entries=args.cache_entries,
        journal=journal,
        retry_policy=RetryPolicy(max_retries=args.max_retries),
        role=args.role,
        worker_pool=pool,
        default_algorithm="disc-all-cluster" if pool is not None else "disc-all",
    )
    for path in args.databases:
        name = "stdin" if path == "-" else Path(path).stem
        db = _read_db(path, args.format)
        entry, replaced = service.register_database(name, db)
        note = " (replaced)" if replaced else ""
        print(
            f"registered {name}: {len(db)} sequences, "
            f"digest {entry.digest[:12]}{note}"
        )
    if journal is not None:
        # Recovery runs after database registration so interrupted jobs
        # can be matched against their database by name and digest.
        summary = service.recover()
        if any(summary.values()):
            print(
                "recovery: "
                f"{summary['resumed']} resumed, "
                f"{summary['restarted']} restarted, "
                f"{summary['failed']} failed, "
                f"{summary['corrupt_lines']} corrupt journal lines"
            )
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"repro service listening on http://{host}:{port}")
    print("endpoints: POST /mine  GET /jobs/<id>  GET /healthz  GET /metrics")

    def _terminate(signum: int, frame: object) -> None:
        # SIGTERM (docker stop, kill) drains exactly like Ctrl-C; also
        # covers shells that spawn background children with SIGINT ignored
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down: draining in-flight jobs...")
    finally:
        server.server_close()
        service.close(drain=True)
        if event_sink is not None:
            from repro.obs import events as obs_events

            obs_events.install(None)
            event_sink.close()
    return 0


def _cmd_algorithms(_args: argparse.Namespace) -> int:
    for name in available_algorithms():
        print(name)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    db = _read_db(args.database, args.format)
    stats = db.stats
    print(f"sequences:            {stats.num_sequences}")
    print(f"distinct items:       {stats.num_distinct_items}")
    print(f"total transactions:   {stats.total_transactions}")
    print(f"total items:          {stats.total_items}")
    print(f"avg transactions:     {stats.avg_transactions:.3f}")
    print(f"avg items/transaction:{stats.avg_items_per_transaction:.3f}")
    print(f"max sequence length:  {stats.max_length}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DISC sequential pattern mining (ICDE 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a Quest-style database")
    gen.add_argument("--ncust", type=int, default=1000)
    gen.add_argument("--slen", type=float, default=10.0)
    gen.add_argument("--tlen", type=float, default=2.5)
    gen.add_argument("--nitems", type=int, default=1000)
    gen.add_argument("--patlen", type=float, default=4.0)
    gen.add_argument("--npats", type=int, default=500)
    gen.add_argument("--nlits", type=int, default=1000)
    gen.add_argument("--litlen", type=float, default=1.25)
    gen.add_argument("--corr", type=float, default=0.25)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True, help=".spmf or .txt")
    gen.set_defaults(func=_cmd_generate)

    mine_cmd = sub.add_parser("mine", help="mine frequent sequences")
    _add_database_arg(mine_cmd)
    mine_cmd.add_argument(
        "--min-support", type=float, required=True,
        help="fraction (<1) of sequences or absolute count (>=1)",
    )
    mine_cmd.add_argument(
        "--algorithm", default="disc-all", choices=available_algorithms()
    )
    mine_cmd.add_argument("--top", type=int, default=0, help="show at most N patterns")
    mine_cmd.add_argument("--min-length", type=int, default=0)
    mine_cmd.add_argument("--save", default="", help="write the result as JSON")
    mine_cmd.add_argument("--tree", action="store_true",
                          help="render patterns as an indented prefix tree")
    mine_cmd.add_argument("--trace", action="store_true",
                          help="run instrumented and print the span/metric report")
    mine_cmd.add_argument("--metrics-json", default="",
                          help="run instrumented and write the run report as JSON")
    mine_cmd.add_argument("--events", default="", metavar="PATH",
                          help="run instrumented and append structured JSONL "
                               "events (mine.phase, ...) to PATH")
    mine_cmd.set_defaults(func=_cmd_mine)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", choices=[*sorted(EXPERIMENTS), "all"])
    exp.add_argument("--scale", default="repro", choices=sorted(SCALES))
    exp.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON instead of tables")
    exp.add_argument("--markdown", action="store_true",
                     help="emit markdown tables (EXPERIMENTS.md style)")
    exp.set_defaults(func=_cmd_experiment)

    bench = sub.add_parser(
        "bench", help="collect an instrumented benchmark baseline (BENCH_*.json)"
    )
    bench.add_argument("--scale", default="repro", choices=sorted(SCALES))
    bench.add_argument("-o", "--output", default="",
                       help="write the baseline document here (default: stdout)")
    bench.add_argument("--compare", default="", metavar="BASELINE",
                       help="perf-regression gate: compare a fresh run (or "
                            "--candidate) against this baseline document; "
                            "exits 1 on regression")
    bench.add_argument("--candidate", default="", metavar="PATH",
                       help="with --compare: use this pre-collected baseline "
                            "document instead of running the benchmark")
    bench.add_argument("--tolerance", type=float, default=0.5,
                       help="relative timing tolerance for --compare "
                            "(0.5 = fail beyond 1.5x baseline)")
    bench.add_argument("--calibrate", action="store_true",
                       help="with --compare: normalise timings by the median "
                            "elapsed ratio (absorbs machine speed differences)")
    bench.add_argument("--compare-json", default="", metavar="PATH",
                       help="with --compare: also write the verdict document "
                            "as JSON")
    bench.set_defaults(func=_cmd_bench)

    profile = sub.add_parser(
        "profile", help="profile one mining run (phase table + cProfile hotspots)"
    )
    _add_database_arg(profile)
    profile.add_argument("--min-support", type=float, required=True,
                         help="fraction (<1) of sequences or absolute count (>=1)")
    profile.add_argument("--algorithm", default="disc-all",
                         choices=available_algorithms())
    profile.add_argument("--top", type=int, default=15,
                         help="hotspot rows to keep (by tottime)")
    profile.add_argument("-o", "--output", default="",
                         help="write the profile document as JSON")
    profile.set_defaults(func=_cmd_profile)

    topk = sub.add_parser("topk", help="the k most frequent sequences")
    _add_database_arg(topk)
    topk.add_argument("-k", type=int, default=10)
    topk.add_argument("--min-length", type=int, default=1)
    topk.set_defaults(func=_cmd_topk)

    rules = sub.add_parser("rules", help="mine and derive sequential rules")
    _add_database_arg(rules)
    rules.add_argument("--min-support", type=float, required=True)
    rules.add_argument("--min-confidence", type=float, default=0.5)
    rules.add_argument("--algorithm", default="disc-all",
                       choices=available_algorithms())
    rules.add_argument("--top", type=int, default=20)
    rules.set_defaults(func=_cmd_rules)

    compare = sub.add_parser(
        "compare", help="check that several algorithms return identical patterns"
    )
    _add_database_arg(compare)
    compare.add_argument("--min-support", type=float, required=True)
    compare.add_argument("--baseline", default="bruteforce")
    compare.add_argument(
        "--algorithms", nargs="+",
        default=["disc-all", "dynamic-disc-all", "prefixspan", "pseudo"],
        help="algorithms to compare against the baseline",
    )
    compare.set_defaults(func=_cmd_compare)

    verify = sub.add_parser(
        "verify", help="independently verify a mining run's output"
    )
    _add_database_arg(verify)
    verify.add_argument("--min-support", type=float, required=True)
    verify.add_argument("--algorithm", default="disc-all",
                        choices=available_algorithms())
    verify.add_argument("--sample", type=int, default=200,
                        help="patterns to recount (default 200)")
    verify.set_defaults(func=_cmd_verify)

    lint = sub.add_parser(
        "lint", help="run the DISC-invariant static analysis over source files"
    )
    from repro.analysis.runner import add_arguments

    add_arguments(lint)
    lint.set_defaults(func=_cmd_analyse)

    check = sub.add_parser(
        "check",
        help="run the whole-program analysis (call graph, CONC/FLOW/HOT/WIRE rules)",
    )
    add_arguments(check)
    check.set_defaults(func=_cmd_analyse)

    algos = sub.add_parser("algorithms", help="list registered algorithms")
    algos.set_defaults(func=_cmd_algorithms)

    stats = sub.add_parser("stats", help="summarise a database file")
    _add_database_arg(stats)
    stats.set_defaults(func=_cmd_stats)

    serve = sub.add_parser(
        "serve", help="run the HTTP mining service (submit/poll/health/metrics)"
    )
    serve.add_argument(
        "databases", nargs="*",
        help="database files to pre-register ('-' reads one from stdin)",
    )
    serve.add_argument(
        "--format", choices=("spmf", "paper"), default=None,
        help="input format for pre-registered databases "
             "(required for stdin; otherwise by file suffix)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listening port (0 picks a free one)")
    serve.add_argument("--workers", type=int, default=2,
                       help="mining worker threads")
    serve.add_argument("--queue-size", type=int, default=32,
                       help="submission queue bound (beyond it: 429)")
    serve.add_argument("--cache-entries", type=int, default=128,
                       help="result-cache entry budget (0 disables caching)")
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="append-only job journal (JSONL); on startup "
                            "interrupted jobs are recovered from it")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="retries per job for retryable failures")
    serve.add_argument("--faults", default=None, metavar="SPEC",
                       help="arm deterministic fault injection, e.g. "
                            "'disc.round:3,journal.fsync:p0.01' "
                            "(default: read REPRO_FAULTS)")
    serve.add_argument("--faults-seed", type=int, default=0,
                       help="seed for probabilistic fault rules")
    serve.add_argument("--role", default="standalone",
                       choices=("standalone", "coordinator", "worker"),
                       help="standalone server (default), cluster "
                            "coordinator, or shard-mining worker")
    serve.add_argument("--worker", action="append", default=None, metavar="URL",
                       help="static worker base URL (repeatable; coordinator "
                            "only; optional — workers may also self-register "
                            "via POST /workers)")
    serve.add_argument("--coordinator", default=None, metavar="URL",
                       help="coordinator base URL to register with "
                            "(worker role only)")
    serve.add_argument("--advertise", default=None, metavar="URL",
                       help="URL the coordinator should dial back "
                            "(default: the worker's own bind address)")
    serve.add_argument("--heartbeat-seconds", type=float, default=None,
                       metavar="SECS",
                       help="pin the worker's heartbeat interval (default: "
                            "a third of the coordinator-granted lease)")
    serve.add_argument("--max-shard-bytes", type=int,
                       default=None, metavar="BYTES",
                       help="worker-side shard payload cap; larger bodies "
                            "answer 413 (default: 64 MiB)")
    serve.add_argument("--lease-seconds", type=float, default=15.0,
                       metavar="SECS",
                       help="coordinator membership lease; workers missing "
                            "it are suspected, probed, then retired")
    serve.add_argument("--degrade-after", type=float, default=5.0,
                       metavar="SECS",
                       help="stall grace before the coordinator mines "
                            "remaining shards locally")
    serve.add_argument("--shard-timeout-per-member", type=float, default=0.0,
                       metavar="SECS",
                       help="extra shard RPC timeout per payload member "
                            "sequence, added to --shard-timeout")
    serve.add_argument("--shard-timeout", type=float, default=300.0,
                       metavar="SECONDS",
                       help="per-shard RPC timeout for the coordinator")
    serve.add_argument("--events", default=None, metavar="PATH",
                       help="append structured lifecycle events (JSONL) here; "
                            "covers recovery and every job")
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
