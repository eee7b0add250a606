"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``generate``
    Write a synthetic POI dataset (Table II preset or custom) to CSV.
``stats``
    Print Table II-style statistics for a POI CSV.
``build``
    Build a DESKS index over a POI CSV and save it to a directory.
``query``
    Answer one direction-aware query, building the index on the fly from
    a CSV or loading a saved one with ``--index``.  Queries come either
    from flags (``-x -y --keywords ...``) or from DQL statements
    (:mod:`repro.lang`): ``-e "SELECT 5 NEAR (10.0, 20.0) MATCHING
    'cafe'"`` executes statements, ``--repl`` reads them from stdin, and
    ``--transport socket`` runs them against an in-process
    :class:`~repro.net.ShardServer` across a real loopback socket.
    ``--json`` emits the uniform result envelope; ``--metrics-json``
    snapshots the backend's ``SHOW METRICS`` table.
``explain``
    ``EXPLAIN ANALYZE`` one query: the plan (quadrant decomposition,
    armed pruning lemmas), the span tree of what actually ran, and a
    reconciliation of span counters against the search's independent
    ``SearchStats``/``IOStats`` (exit 1 on any mismatch).
``trace``
    Run one query with :mod:`repro.trace` active and print the span
    tree; ``--json`` exports it, ``--engine`` routes through the
    serving layer so engine-level spans (cache, queue wait) appear too.
``shard-server``
    Serve one saved (or durable) shard's search/health/stats RPCs on a
    TCP socket (:mod:`repro.net`); prints ``SHARD-SERVER READY host
    port`` once accepting, which :class:`~repro.net.ClusterLauncher`
    waits for.
``serve``
    Bring a whole saved deployment online: launch one ``shard-server``
    process per (shard, replica), connect a remote
    :class:`~repro.cluster.ShardRouter` over them, and serve clients
    through the front door until interrupted.
``scrub``
    Verify a saved index, sharded deployment, or durable-index directory
    against its checksum manifests (and WAL, when present); exit 1 on
    any corruption.
``lint``
    Run the project-invariant analyzer (:mod:`repro.analysis`).

Measurements are library calls and ``benchmarks/`` drivers, not commands.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import List, Optional

from .core import (
    DesksIndex,
    DesksSearcher,
    DirectionalQuery,
    MatchMode,
    PruningMode,
    load_index,
    save_index,
)
from .datasets import (
    SyntheticConfig,
    dataset_statistics,
    format_table2,
    generate,
    load_csv,
    load_preset,
    save_csv,
)
from .storage import SearchStats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DESKS: direction-aware spatial keyword search "
                    "(ICDE 2012 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic POI CSV")
    p_gen.add_argument("output", help="output CSV path")
    p_gen.add_argument("--preset", choices=["CA", "VA", "CN"],
                       help="Table II preset (overrides size options)")
    p_gen.add_argument("--scale", type=float, default=100.0,
                       help="preset scale divisor (default 100)")
    p_gen.add_argument("--pois", type=int, default=10_000)
    p_gen.add_argument("--terms", type=int, default=5_000)
    p_gen.add_argument("--terms-per-poi", type=float, default=4.0)
    p_gen.add_argument("--seed", type=int, default=7)

    p_stats = sub.add_parser("stats", help="Table II statistics for a CSV")
    p_stats.add_argument("input", help="POI CSV path")

    p_build = sub.add_parser(
        "build", help="build a DESKS index and save it to a directory")
    p_build.add_argument("input", help="POI CSV path")
    p_build.add_argument("output", help="index directory to create")
    p_build.add_argument("--bands", type=int, default=None)
    p_build.add_argument("--wedges", type=int, default=None)

    p_query = sub.add_parser(
        "query", help="answer one query over a CSV or saved index")
    _add_query_args(p_query)
    p_query.add_argument("-e", "--statement", action="append",
                         metavar="DQL", default=None,
                         help="execute a DQL statement (repeatable; "
                              "see docs/LANG.md for the grammar)")
    p_query.add_argument("--repl", action="store_true",
                         help="read DQL statements from stdin "
                              "(interactive when stdin is a tty)")
    p_query.add_argument("--transport", choices=["inproc", "socket"],
                         default="inproc",
                         help="inproc: a local query engine; socket: an "
                              "in-process ShardServer over a real "
                              "loopback socket")
    p_query.add_argument("--json", action="store_true",
                         help="emit results as JSON instead of text")
    p_query.add_argument("--metrics-json", metavar="PATH", default=None,
                         help="write the backend's SHOW METRICS table "
                              "to PATH as JSON")
    p_query.add_argument("--timeout-ms", type=float, default=None,
                         help="deadline applied to every statement "
                              "(flag-built queries included)")

    p_explain = sub.add_parser(
        "explain", help="EXPLAIN ANALYZE one query: plan, span tree, "
                        "and counter reconciliation")
    _add_query_args(p_explain)
    p_explain.add_argument("--json", metavar="PATH", default=None,
                           help="write the full report to PATH as JSON")

    p_trace = sub.add_parser(
        "trace", help="run one query traced and print/export the span tree")
    _add_query_args(p_trace)
    p_trace.add_argument("--engine", action="store_true",
                         help="route through the serving layer "
                              "(adds engine.* spans: cache, queue wait)")
    p_trace.add_argument("--json", metavar="PATH", default=None,
                         help="write the trace to PATH as JSON")

    p_shard = sub.add_parser(
        "shard-server",
        help="serve one saved/durable shard's RPCs on a TCP socket")
    p_shard.add_argument("--directory", required=True,
                         help="saved index or durable-index directory")
    p_shard.add_argument("--host", default="127.0.0.1")
    p_shard.add_argument("--port", type=int, default=0,
                         help="0 picks an ephemeral port (announced on "
                              "the READY line)")
    p_shard.add_argument("--shard-id", type=int, default=0)
    p_shard.add_argument("--workers", type=int, default=4,
                         help="engine worker threads")
    p_shard.add_argument("--max-inflight", type=int, default=None,
                         help="admission limit before OVERLOAD "
                              "(default: 2x workers)")

    p_net_serve = sub.add_parser(
        "serve",
        help="launch shard servers for a saved deployment and serve "
             "clients through the front door")
    p_net_serve.add_argument("deployment",
                             help="sharded deployment directory "
                                  "(ShardRouter.save output)")
    p_net_serve.add_argument("--host", default="127.0.0.1")
    p_net_serve.add_argument("--port", type=int, default=0,
                             help="front-door port (0: ephemeral)")
    p_net_serve.add_argument("--replicas", type=int, default=1,
                             help="server processes per shard")
    p_net_serve.add_argument("--shard-workers", type=int, default=4,
                             help="worker threads per shard server")
    p_net_serve.add_argument("--max-inflight", type=int, default=64,
                             help="front-door admission limit before "
                                  "OVERLOAD")
    p_net_serve.add_argument("--fanout", type=int, default=4,
                             help="max shards asked per wave (the first "
                                  "wave is the nearest shard(s) alone)")
    p_net_serve.add_argument("--timeout-ms", type=float, default=None,
                             help="default per-query deadline")
    p_net_serve.add_argument("--hedge-ms", type=float, default=None,
                             help="hedge delay: fire a straggling "
                                  "shard request at the next replica "
                                  "after this many ms (default: off)")
    p_net_serve.add_argument("--breaker-threshold", type=int, default=None,
                             help="consecutive failures before a "
                                  "replica's circuit opens (default: "
                                  "the health threshold)")
    p_net_serve.add_argument("--breaker-reset-ms", type=float,
                             default=5000.0,
                             help="ms an open circuit waits before a "
                                  "half-open trial")
    p_net_serve.add_argument("--retry-budget", type=float, default=10.0,
                             help="retry token budget shared across "
                                  "shards (failover + hedges)")
    p_net_serve.add_argument("--probe-ms", type=float, default=2000.0,
                             help="background health-probe interval "
                                  "for unavailable replicas "
                                  "(0: disable)")

    p_scrub = sub.add_parser(
        "scrub", help="verify a saved/durable directory's checksums")
    p_scrub.add_argument("directory",
                         help="saved index, sharded deployment, or "
                              "durable index directory")

    p_lint = sub.add_parser(
        "lint", help="run the project-invariant analyzer (DAL rules)")
    p_lint.add_argument("targets", nargs="+",
                        help="files or directories to lint (e.g. src/)")
    p_lint.add_argument("--json", metavar="PATH", default=None,
                        help="write the full report to PATH as JSON "
                             "('-' for stdout)")
    p_lint.add_argument("--rules", metavar="CODES", default=None,
                        help="comma-separated DAL codes to run "
                             "(default: all)")
    p_lint.add_argument("--show-suppressed", action="store_true",
                        help="also print findings silenced by "
                             "'desks: noqa-DALxxx' comments")
    p_lint.add_argument("--graph", metavar="BASE", default=None,
                        help="also export the import graph of the lint "
                             "targets as BASE.json and BASE.dot")
    p_lint.add_argument("--contract", metavar="PATH", default=None,
                        help="architecture contract TOML to check "
                             "against (default: the packaged "
                             "ARCHITECTURE.toml)")
    return parser


def _add_query_args(p: argparse.ArgumentParser) -> None:
    """The single-query argument set shared by query/explain/trace."""
    p.add_argument("input", help="POI CSV path or (with --index) "
                                 "a saved index directory")
    p.add_argument("--index", action="store_true",
                   help="treat input as a saved index directory")
    p.add_argument("-x", type=float, default=None)
    p.add_argument("-y", type=float, default=None)
    p.add_argument("--alpha", type=float, default=0.0,
                   help="lower direction bound in degrees")
    p.add_argument("--beta", type=float, default=360.0,
                   help="upper direction bound in degrees")
    p.add_argument("--keywords", nargs="+", default=None)
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--mode", choices=["R", "D", "RD"], default="RD")
    p.add_argument("--match-any", action="store_true",
                   help="match POIs containing ANY keyword "
                        "(default: ALL)")
    p.add_argument("--bands", type=int, default=None)
    p.add_argument("--wedges", type=int, default=None)


def _load_query_target(args: argparse.Namespace) -> DesksIndex:
    """The index named by a query-style command's ``input`` argument."""
    if args.index:
        return load_index(args.input)
    return DesksIndex(load_csv(args.input), num_bands=args.bands,
                      num_wedges=args.wedges)


def _parse_query(args: argparse.Namespace) -> DirectionalQuery:
    """Build the DirectionalQuery a query-style command describes."""
    missing = [name for name, value in (("-x", args.x), ("-y", args.y),
                                        ("--keywords", args.keywords))
               if value is None]
    if missing:
        raise ValueError(
            f"{', '.join(missing)} required (or use -e/--repl with a DQL "
            "statement)")
    mode = MatchMode.ANY if args.match_any else MatchMode.ALL
    return DirectionalQuery.make(
        args.x, args.y, math.radians(args.alpha), math.radians(args.beta),
        args.keywords, args.k, match_mode=mode)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.preset:
        collection = load_preset(args.preset, scale=args.scale)
    else:
        collection = generate(SyntheticConfig(
            name="custom", num_pois=args.pois,
            num_unique_terms=args.terms,
            avg_terms_per_poi=args.terms_per_poi, seed=args.seed))
    save_csv(collection, args.output)
    print(f"wrote {len(collection)} POIs to {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    collection = load_csv(args.input)
    print(format_table2([dataset_statistics(args.input, collection)]))
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    collection = load_csv(args.input)
    started = time.perf_counter()
    index = DesksIndex(collection, num_bands=args.bands,
                       num_wedges=args.wedges)
    save_index(index, args.output)
    elapsed = time.perf_counter() - started
    print(f"built and saved index over {len(collection)} POIs "
          f"(N={index.num_bands}, M={index.num_wedges}) to {args.output} "
          f"in {elapsed:.2f} s")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if args.statement or args.repl or args.json or args.metrics_json:
        return _cmd_query_dql(args)
    started = time.perf_counter()
    index = _load_query_target(args)
    collection = index.collection
    build_ms = (time.perf_counter() - started) * 1000.0
    searcher = DesksSearcher(index)
    query = _parse_query(args)
    stats = SearchStats()
    started = time.perf_counter()
    result = searcher.search(query, PruningMode[args.mode], stats)
    query_ms = (time.perf_counter() - started) * 1000.0
    print(f"index: N={index.num_bands} M={index.num_wedges} "
          f"({build_ms:.0f} ms build); query: {query_ms:.2f} ms, "
          f"{stats.pois_examined} POIs examined")
    from .core import CardinalityEstimator

    print(CardinalityEstimator(collection).summary(query))
    if not result.entries:
        print("no answers in the given direction with those keywords")
    for rank, entry in enumerate(result, start=1):
        poi = collection[entry.poi_id]
        bearing = (math.degrees(
            query.location.direction_to(poi.location))
            if not poi.location.coincides(query.location) else 0.0)
        print(f"{rank:3}. poi#{entry.poi_id:<8} dist={entry.distance:10.2f}"
              f"  bearing={bearing:6.1f} deg  "
              f"{' '.join(sorted(poi.keywords)[:6])}")
    return 0


def _query_backend(args: argparse.Namespace, index):
    """The DQL backend named by ``--transport``, plus its closer.

    ``inproc`` wraps the index in a :class:`~repro.service.QueryEngine`
    (so ``TIMEOUT``/``SHOW METRICS`` mean something); ``socket`` starts
    an in-process :class:`~repro.net.ShardServer` and drives it through
    a pooled client over a real loopback socket — every statement then
    exercises the full wire path.
    """
    from .lang import EngineBackend, SocketBackend

    if args.transport == "socket":
        from .net import RemoteShardClient, ShardServer

        server = ShardServer(index, num_workers=2).start()
        client = RemoteShardClient(server.address)

        def close() -> None:
            client.close()
            server.stop()

        return SocketBackend(client), close
    from .service import QueryEngine

    engine = QueryEngine(index, num_workers=2)
    return EngineBackend(engine), engine.close


def _cmd_query_dql(args: argparse.Namespace) -> int:
    """The DQL side of ``repro query``: ``-e``, ``--repl``, ``--json``."""
    import json

    from .lang import DqlError, DqlExecutor, DqlSyntaxError, plan_from_query

    timeout = (args.timeout_ms / 1000.0
               if args.timeout_ms is not None else None)
    statements: List[object] = list(args.statement or [])
    if not statements and not args.repl:
        # Flag-built query routed through the language layer so --json
        # and --metrics-json get the same envelope as -e statements.
        statements = [plan_from_query(_parse_query(args),
                                      mode=PruningMode[args.mode])]
    index = _load_query_target(args)
    backend, close = _query_backend(args, index)
    executor = DqlExecutor(backend)
    exit_code = 0
    outcomes = []
    try:
        for statement in statements:
            try:
                outcomes.append(executor.execute(statement, timeout))
            except DqlSyntaxError as exc:
                print(exc.render(), file=sys.stderr)
                return 2
            except DqlError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        if args.repl:
            exit_code = _run_repl(executor, timeout)
        if args.json:
            print(json.dumps([outcome.to_dict() for outcome in outcomes],
                             indent=2, sort_keys=True))
        else:
            for outcome in outcomes:
                print(outcome.render())
        if args.metrics_json:
            with open(args.metrics_json, "w", encoding="utf-8") as handle:
                json.dump(executor.execute("SHOW METRICS").table, handle,
                          indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote metrics to {args.metrics_json}")
    finally:
        close()
    return exit_code


def _run_repl(executor, timeout: Optional[float]) -> int:
    """Read DQL statements from stdin until EOF or ``EXIT``.

    Output is history-free and timing-free: each statement's outcome
    renders deterministically (errors included, on stdout), so a CLI
    test can pipe a script in and golden-file what comes out.  The
    prompt is written only when stdin is a tty.
    """
    from .lang import DqlError, DqlSyntaxError

    interactive = sys.stdin.isatty()
    if interactive:
        print("DQL — SELECT/EXPLAIN/SHOW; EXIT (or EOF) to leave")
    while True:
        if interactive:
            sys.stdout.write("dql> ")
            sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:
            break
        line = line.strip()
        if not line or line.startswith("--"):
            continue
        if line.upper() in ("EXIT", "QUIT"):
            break
        try:
            print(executor.execute(line, timeout).render())
        except DqlSyntaxError as exc:
            print(exc.render())
        except DqlError as exc:
            print(f"error: {exc}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .trace import explain

    index = _load_query_target(args)
    query = _parse_query(args)
    report = explain(index, query, mode=args.mode)
    print(report.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        print(f"wrote explain report to {args.json}")
    if not report.reconciled:
        print("error: span counters do not reconcile with SearchStats/"
              "IOStats — the trace is misattributing cost",
              file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .trace import Tracer

    index = _load_query_target(args)
    query = _parse_query(args)
    tracer = Tracer()
    if args.engine:
        from .service import QueryEngine

        with QueryEngine(index, mode=PruningMode[args.mode]) as engine, \
                tracer.activate():
            engine.submit(query).result()
    else:
        searcher = DesksSearcher(index)
        with tracer.activate():
            searcher.search(query, PruningMode[args.mode])
    print(tracer.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(tracer.to_json())
            handle.write("\n")
        print(f"wrote trace to {args.json}")
    return 0


def _cmd_shard_server(args: argparse.Namespace) -> int:
    from .net import run_shard_server

    return run_shard_server(
        args.directory, host=args.host, port=args.port,
        shard_id=args.shard_id, num_workers=args.workers,
        max_inflight=args.max_inflight)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .net import (
        ClusterFrontend,
        ClusterLauncher,
        HedgePolicy,
        ResilienceConfig,
        connect_router,
    )

    timeout = (args.timeout_ms / 1000.0
               if args.timeout_ms is not None else None)
    hedge = (HedgePolicy(delay=args.hedge_ms / 1000.0)
             if args.hedge_ms is not None else None)
    resilience = ResilienceConfig(
        breaker_failure_threshold=args.breaker_threshold,
        breaker_reset_timeout=args.breaker_reset_ms / 1000.0,
        hedge=hedge,
        retry_max_tokens=args.retry_budget,
        probe_interval=(args.probe_ms / 1000.0 if args.probe_ms > 0
                        else None))
    with ClusterLauncher(args.deployment, replication=args.replicas,
                         num_workers=args.shard_workers) as launcher:
        addresses = launcher.start()
        for shard_id, replica_addresses in sorted(addresses.items()):
            listed = ", ".join(f"{host}:{port}"
                               for host, port in replica_addresses)
            print(f"shard {shard_id}: {listed}")
        with connect_router(args.deployment, addresses,
                            max_fanout=args.fanout,
                            resilience=resilience) as router, \
                ClusterFrontend(router, host=args.host, port=args.port,
                                max_inflight=args.max_inflight,
                                default_timeout=timeout).start() as front:
            host, port = front.address
            print(f"FRONTEND READY {host} {port}", flush=True)
            try:
                while True:
                    time.sleep(3600.0)
            except KeyboardInterrupt:
                print("shutting down")
    return 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    import os

    from .core import scrub_saved
    from .durability import is_durable_dir, scrub_durable

    if not os.path.isdir(args.directory):
        print(f"error: {args.directory} is not a directory",
              file=sys.stderr)
        return 2
    if is_durable_dir(args.directory):
        report = scrub_durable(args.directory)
        print(report.summary())
        return 0 if report.clean else 1
    report = scrub_saved(args.directory)
    print(report.summary())
    if not report.clean:
        for path, reason in report.corrupt:
            print(f"  corrupt: {path}: {reason}", file=sys.stderr)
    return 0 if report.clean else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (ALIAS_CODES, RULE_INDEX, Contract, LintEngine,
                           ProgramRule, build_graph)

    contract = Contract.load(args.contract) if args.contract else None
    selected = None
    if args.rules:
        codes = [c.strip().upper() for c in args.rules.split(",") if c.strip()]
        unknown = [c for c in codes if c not in RULE_INDEX]
        if unknown:
            known = ", ".join(sorted(RULE_INDEX))
            raise ValueError(
                f"unknown rule code(s) {', '.join(unknown)}; known: {known}")
        selected = set(codes)
        if "DAL010" in selected:
            # The generic contract rule reports the historic external/
            # layering/restricted violations under their legacy codes.
            selected.update(ALIAS_CODES)
        file_rules, program_rules = [], []
        for code in codes:
            rule_cls = RULE_INDEX[code]
            bucket = (program_rules if issubclass(rule_cls, ProgramRule)
                      else file_rules)
            if rule_cls not in bucket:
                bucket.append(rule_cls)
        engine = LintEngine(file_rules, program_rules=program_rules,
                            contract=contract)
    else:
        engine = LintEngine(contract=contract)
    report = engine.check(args.targets)
    if selected is not None:
        report.findings = [f for f in report.findings
                           if f.code in selected]
        report.suppressed = [f for f in report.suppressed
                             if f.code in selected]
    if args.graph:
        json_path, dot_path = build_graph(args.targets).write(args.graph)
        print(f"wrote import graph to {json_path} and {dot_path}")
    if args.json == "-":
        print(report.to_json())
    else:
        print(report.render())
        if args.show_suppressed and report.suppressed:
            print("suppressed:")
            for finding in report.suppressed:
                print("  " + finding.render())
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
                handle.write("\n")
            print(f"wrote lint report to {args.json}")
    return 0 if report.clean else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "build": _cmd_build,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "trace": _cmd_trace,
    "shard-server": _cmd_shard_server,
    "serve": _cmd_serve,
    "scrub": _cmd_scrub,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
