"""Command-line entry point: ``repro-experiments <command> ...``.

Subcommands::

    repro-experiments list                      # every artifact + its schema
    repro-experiments run <artifact|all> [...]  # regenerate artifacts
    repro-experiments sweep <artifact> --param k=v1,v2 [...]   # grids
    repro-experiments serve [...]               # the experiment daemon
    repro-experiments submit <artifact|all> [...]   # queue a job on a daemon
    repro-experiments status|stream|cancel <job>    # follow / control a job
    repro-experiments list-jobs | stats             # daemon introspection

Also usable as ``python -m repro.experiments.cli``.

``run`` and ``sweep`` are thin wrappers over the typed
:class:`~repro.service.client.ExperimentClient`: by default the client
runs in-process (validated through the registry, scheduled by the job
queue in this process, cached on disk), and with ``--daemon ADDR`` the
same calls go to a running ``serve`` daemon instead — stdout is
byte-identical either way.  ``--jobs N`` shards work across a
spawn process pool and merges deterministically; results are cached on
disk by (package version, artifact, params) — ``--no-cache`` bypasses,
``--refresh`` recomputes and overwrites.  ``run ... --out DIR`` is the
same job, written through :func:`repro.experiments.report.write_job`
instead of printed.  ``run`` / ``sweep`` / ``submit --follow`` exit 1
when a result that can fail (``all_ok``: scorecard, chaos, rma) did.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from repro.experiments import registry
from repro.experiments.registry import ExperimentParamError

def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the paper's full workload sizes (slower) instead of the "
        "reduced same-shape defaults",
    )
    parser.add_argument("--iters", type=int, default=50, help="micro-benchmark iterations")
    parser.add_argument("--seed", type=int, default=None, help="workload-generation seed")
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="K=V",
        help="artifact parameter override (repeatable); validated against "
        "the artifact's schema — see `repro-experiments list`",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run up to N experiments in parallel worker processes "
        "(0 = one per CPU); output is byte-identical to --jobs 1",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="neither read nor write the result cache"
    )
    parser.add_argument(
        "--refresh", action="store_true", help="recompute and overwrite cached results"
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-experiments)",
    )


def _add_daemon_flags(parser: argparse.ArgumentParser, *, required: bool = False) -> None:
    parser.add_argument(
        "--daemon",
        metavar="ADDR",
        default="" if required else None,
        help="experiment-daemon address: a unix-socket path or host:port "
        "(default: $REPRO_SERVICE_ADDR or the per-user socket)",
    )
    parser.add_argument(
        "--client",
        metavar="NAME",
        default=None,
        help="client name for the daemon's per-client quota accounting",
    )
    parser.add_argument(
        "--priority",
        type=int,
        default=0,
        metavar="P",
        help="job priority (higher runs first; default 0)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of 'Evaluating the "
        "Performance Limitations of MPMD Communication' (SC'97).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list every artifact and its parameters")

    run = sub.add_parser("run", help="regenerate one artifact (or 'all')")
    run.add_argument(
        "artifact",
        choices=[*registry.ARTIFACT_NAMES, "all"],
        help="which paper artifact to regenerate",
    )
    _add_common_flags(run)
    _add_daemon_flags(run)
    run.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="shorthand for --param scenarios=...: measure just this "
        "micro-benchmark row (repeatable; a Table 4 name like '0-Word', "
        "or 'am-rtt' / 'mpl-rtt' for the raw-layer references)",
    )
    run.add_argument(
        "--out",
        metavar="DIR",
        help="write each result's files (rendered text, CSV where it has "
        "one, manifest.json) to this directory instead of printing; for "
        "'trace', a path ending in .json also writes the Perfetto JSON to "
        "that file",
    )

    sweep = sub.add_parser(
        "sweep", help="run a parameter grid over one artifact"
    )
    sweep.add_argument(
        "artifact",
        choices=list(registry.ARTIFACT_NAMES),
        help="which artifact to sweep",
    )
    _add_common_flags(sweep)
    _add_daemon_flags(sweep)
    sweep.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="K=V1,V2",
        help="sweep axis (repeatable); every --param with multiple values "
        "is also an axis",
    )
    sweep.add_argument(
        "--csv", metavar="PATH", help="also write the merged sweep CSV here"
    )

    serve = sub.add_parser(
        "serve", help="run the experiment daemon (async job queue)"
    )
    serve.add_argument(
        "--address",
        metavar="ADDR",
        default=None,
        help="listen address: unix-socket path or host:port "
        "(default: $REPRO_SERVICE_ADDR or the per-user socket)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes executing tasks (0 = inline; default 2)",
    )
    serve.add_argument(
        "--quota", type=int, default=0, metavar="K",
        help="max tasks of one client running at once (0 = unlimited)",
    )
    serve.add_argument(
        "--keep-jobs", type=int, default=256, metavar="N",
        help="terminal jobs kept for status/list-jobs (default 256)",
    )
    serve.add_argument(
        "--cache-max-mb", type=float, default=None, metavar="MB",
        help="size-cap the result cache (LRU eviction after each store)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="serve without a result cache (no dedup across restarts)",
    )
    serve.add_argument(
        "--refresh", action="store_true",
        help="recompute cache hits instead of serving them",
    )
    serve.add_argument("--cache-dir", metavar="DIR", help="result-cache directory")

    submit = sub.add_parser(
        "submit", help="queue a job on a daemon and print its id"
    )
    submit.add_argument(
        "artifact",
        choices=[*registry.ARTIFACT_NAMES, "all"],
        help="artifact to queue ('all' queues the full batch as one job)",
    )
    _add_common_flags(submit)
    _add_daemon_flags(submit, required=True)
    submit.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="K=V1,V2",
        help="sweep axis (repeatable): queue a whole grid as one job",
    )
    submit.add_argument(
        "--follow",
        action="store_true",
        help="stream events to stderr and render results to stdout "
        "(byte-identical to `run`/`sweep`) instead of printing the job id",
    )

    for name, help_text in (
        ("status", "print a job's record as JSON"),
        ("stream", "tail a job's JSONL event stream to stdout"),
        ("cancel", "cancel a queued/running job"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("job_id", help="job id returned by submit")
        _add_daemon_flags(cmd)
        if name == "stream":
            cmd.add_argument(
                "--from-seq", type=int, default=0, metavar="N",
                help="replay from this event seq (default 0: the whole log)",
            )

    jobs = sub.add_parser("list-jobs", help="list the daemon's jobs")
    _add_daemon_flags(jobs)
    stats = sub.add_parser(
        "stats", help="daemon gauges/histograms (queue depth, wait, utilization)"
    )
    _add_daemon_flags(stats)
    return parser


def _make_cache(args: argparse.Namespace):
    if args.no_cache:
        return None
    from repro.experiments.cache import ResultCache

    return ResultCache(args.cache_dir)


def _jobs(args: argparse.Namespace) -> int:
    return (os.cpu_count() or 1) if args.jobs == 0 else args.jobs


def _overrides(spec, args: argparse.Namespace) -> dict[str, Any]:
    """Standard flags + explicit --param overrides for one spec."""
    overrides = spec.standard_overrides(
        quick=False if args.full else None,
        iters=args.iters,
        seed=args.seed,
    )
    for item in args.param:
        if "=" not in item:
            raise ExperimentParamError(f"--param expects K=V, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key] = spec.param(key).parse(value)
    return overrides


def _make_client(args: argparse.Namespace):
    """The unified client: a daemon connection when --daemon was given,
    else the in-process backend (the historical execution path)."""
    from repro.service.client import ExperimentClient

    daemon = getattr(args, "daemon", None)
    if daemon is not None:
        return ExperimentClient.connect(
            daemon or None, client=getattr(args, "client", None)
        ), True
    return ExperimentClient.in_process(
        jobs=_jobs(args), cache=_make_cache(args), refresh=args.refresh,
        client=getattr(args, "client", None),
    ), False


def _echo_stream(client, job_id: str) -> None:
    """Daemon progress to stderr (the in-process backend prints the same
    lines itself, as its queue emits the events)."""
    from repro.service.client import echo_progress

    for event in client.stream(job_id):
        echo_progress(event)


def _run_request(args: argparse.Namespace) -> dict[str, Any]:
    """``client.submit`` arguments for one task per named artifact."""
    if getattr(args, "scenario", None):
        args.param = args.param + ["scenarios=" + ",".join(args.scenario)]
    names = registry.ARTIFACT_NAMES if args.artifact == "all" else [args.artifact]
    return {"tasks": [(n, _overrides(registry.get(n), args)) for n in names]}


def _sweep_request(args: argparse.Namespace) -> dict[str, Any]:
    """``client.submit`` arguments for a grid over one artifact: every
    --axis is an axis, and so is every multi-valued --param (the
    single-valued ones are fixed)."""
    if args.artifact == "all":  # only `submit` lets it get this far
        raise ExperimentParamError("--axis sweeps one artifact, not 'all'")
    spec = registry.get(args.artifact)
    axes: dict[str, list[Any]] = {}
    fixed_params: list[str] = []
    for item in args.axis + args.param:
        if "=" not in item:
            raise ExperimentParamError(f"expected K=V1,V2,..., got {item!r}")
        key, _, value = item.partition("=")
        values = spec.param(key).parse_axis(value)
        if len(values) > 1 or item in args.axis:
            axes[key] = values
        else:
            fixed_params.append(item)
    if not axes:
        raise ExperimentParamError(
            "a sweep needs at least one multi-valued --axis/--param"
        )
    args.param = fixed_params
    return {"artifact": spec.name, "params": _overrides(spec, args), "axes": axes}


def _submit_job(
    args: argparse.Namespace, request: dict[str, Any], *, follow: bool = True
) -> int:
    """Submit ``request`` and print the job's results the way ``run`` /
    ``sweep`` always have — or, with ``--out DIR``, write them there
    instead (without ``follow``: just print the job id).  The exit status
    is 1 when a result that can fail says it did."""
    client, remote = _make_client(args)
    try:
        job_id = client.submit(**request, priority=args.priority)
        if not follow:
            print(job_id)
            return 0
        if remote:
            _echo_stream(client, job_id)
        results = client.result(job_id)
        record = client.status(job_id)  # the record `result` just fetched
    except Exception as exc:
        return _client_error(exc)
    finally:
        client.close()

    out = getattr(args, "out", None)
    # `trace --out x.json`: the named file gets the Perfetto JSON itself
    # (open it at ui.perfetto.dev), not a report directory
    trace_json = args.artifact == "trace" and out and out.endswith(".json")
    if "axes" in request:
        from repro.experiments.sweep import job_sweep_csv, render_points

        print(render_points(record.labels, results))
        text = job_sweep_csv(request["axes"], record)
        print()
        print(text, end="")
        if getattr(args, "csv", None):
            from repro.util.files import write_text_atomic

            print(f"wrote {write_text_atomic(args.csv, (text,))}")
    elif out and not trace_json:
        from repro.experiments.report import write_job

        for path in write_job(out, record, results):
            print(f"wrote {path}")
    else:
        for name, result in zip(record.artifacts, results):
            print(f"=== {name} ===")
            print(result.render())
            print()
        if trace_json:
            from repro.experiments.report import outputs
            from repro.util.files import write_text_atomic

            text = outputs(registry.get("trace"), results[0])["trace.json"]
            print(f"wrote {write_text_atomic(out, (text,))}")
    return 0 if all(getattr(r, "all_ok", True) for r in results) else 1


def _cmd_list() -> int:
    from repro.util.tables import TextTable

    t = TextTable(
        ["artifact", "parameters", "title"],
        title="Experiments — `run <artifact>`, `sweep <artifact> --axis k=v1,v2`",
    )
    for spec in registry.specs():
        schema = ", ".join(
            f"{p.name}:{p.kind}={p.default}" for p in spec.params
        ) or "-"
        t.add_row([spec.name, schema, spec.title])
    print(t.render())
    return 0


def _client_error(exc: Exception) -> int:
    # a failed or cancelled job, the daemon's ProtocolError and the queue's
    # JobError are all RuntimeErrors; a schema error goes on to main()
    if isinstance(exc, (RuntimeError, TimeoutError)):
        print(f"repro-experiments: {exc}", file=sys.stderr)
        return 1
    raise exc


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.protocol import default_address
    from repro.service.server import ExperimentService, ServiceConfig

    address = args.address or default_address()
    config = ServiceConfig(
        workers=args.workers,
        quota=args.quota,
        keep_jobs=args.keep_jobs,
        cache_max_bytes=(
            None if args.cache_max_mb is None
            else int(args.cache_max_mb * 1024 * 1024)
        ),
        refresh=args.refresh,
    )
    service = ExperimentService(
        address, config=config, cache=_make_cache(args)
    )
    service.install_signal_handlers()
    try:
        service.start()
    except Exception as exc:
        print(f"repro-experiments serve: {exc}", file=sys.stderr)
        return 1
    print(
        f"serving experiments at {address} "
        f"(workers={config.workers}, quota={config.quota or 'unlimited'}); "
        f"SIGINT drains gracefully",
        file=sys.stderr, flush=True,
    )
    service.serve_forever()
    print("drained; all workers reaped", file=sys.stderr)
    return 0


def _cmd_job_verb(args: argparse.Namespace) -> int:
    from repro.service.client import ExperimentClient

    client = ExperimentClient.connect(args.daemon or None, client=args.client)
    try:
        if args.command == "status":
            print(json.dumps(client.status(args.job_id).to_json(), indent=2))
        elif args.command == "cancel":
            record = client.cancel(args.job_id)
            print(f"{record.job_id} {record.state}")
        elif args.command == "stream":
            for event in client.stream(args.job_id, args.from_seq):
                print(json.dumps(event.to_json(), separators=(",", ":")), flush=True)
        elif args.command == "list-jobs":
            from repro.util.tables import TextTable

            t = TextTable(
                ["job", "client", "artifact", "state", "prio",
                 "done/total", "cache", "dedup"],
                title="Jobs",
            )
            for r in client.list_jobs():
                t.add_row([
                    r.job_id, r.client, r.artifact, r.state, r.priority,
                    f"{r.tasks_done}/{r.tasks_total}", r.cache_hits, r.dedup_hits,
                ])
            print(t.render())
        elif args.command == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
    except Exception as exc:
        return _client_error(exc)
    finally:
        client.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _submit_job(args, _run_request(args))
        if args.command == "sweep":
            return _submit_job(args, _sweep_request(args))
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            request = _sweep_request(args) if args.axis else _run_request(args)
            return _submit_job(args, request, follow=args.follow)
        return _cmd_job_verb(args)
    except ExperimentParamError as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        # stdout went away (e.g. `status ... | head`); exit quietly with
        # the conventional SIGPIPE status
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
