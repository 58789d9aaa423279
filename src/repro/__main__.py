"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``list [--tag TAG] [--json] [--engines]``
    Show every registered experiment (id, tags, title).  ``--json``
    dumps the full typed parameter schemas (the same document that is
    snapshotted in ``experiments_schema.json`` and served as
    ``GET /experiments``).  ``--engines`` lists the simulation-engine
    registry instead (ids, titles, capabilities — the same document as
    ``GET /engines``); experiments taking an ``--engine`` option accept
    exactly these ids.
``run <id> [--fidelity fast|paper] [schema options] [--no-charts] [--csv DIR]``
    Run one experiment.  Each experiment's parameters are generated
    from its declared schema — ``python -m repro run fig4 --help``
    lists exactly the options ``fig4`` accepts, and bad values fail at
    the parser with the schema's help text.
``all [--fidelity fast|paper] [--set ID.PARAM=VALUE ...] [--csv DIR]``
    Run every registered experiment; ``--set`` overrides one
    experiment's parameter (repeatable), validated against its schema.
``campaign run|status|report|watch|dashboard SPEC.json``
    Orchestrate a declarative multi-config sweep
    (:mod:`repro.campaigns`): ``run`` executes (or resumes) the
    campaign — ``--shard I/N`` partitions the expanded configs by
    content hash so N independent processes/machines cover the set
    exactly once, and finished configs are skipped on re-runs (the
    result cache is the checkpoint); ``status`` reports done/missing
    per shard; ``report`` aggregates every config's metrics into one
    tidy table (``--out`` markdown, ``--json`` machine-readable,
    ``--csv`` export); ``watch`` polls live progress with a per-shard
    ETA and evaluates the spec's alert rules; ``dashboard`` serves the
    same data over HTTP (:mod:`repro.store.dashboard`).  Campaign
    results always persist in the result cache
    (``<cache-root>/store.sqlite``; default root ``$REPRO_CACHE_DIR``
    or ``~/.cache/repro-pwm``).
``store migrate|query|gc``
    Maintain the result cache: ``migrate`` imports a one-file-per-entry
    JSON cache written by older builds, byte-identically; ``query``
    filters stored results by experiment/fidelity/engine and axis
    parameters (``--where PARAM OP VALUE``, JSON1-indexed) with
    table/JSON/CSV/figure output; ``gc`` reclaims rows no probe can
    hit (stale versions, pre-RunConfig keys) — ``--older-than DAYS``
    turns it into an age-based retention sweep that also reclaims old
    perf runs (the flagged baseline survives).
``perf run|list|history|compare|gate``
    Continuous performance observability (:mod:`repro.perf`): ``run``
    executes registered benchmarks under their warmup/repeat policy
    and records a fingerprinted run into the result cache's
    ``perf_runs`` / ``perf_samples`` tables; ``list`` shows the
    registry; ``history`` renders per-benchmark sparkline series;
    ``compare`` diffs two stored runs with per-benchmark noise bands;
    ``gate`` exits nonzero on any out-of-band regression against the
    baseline (``--baseline FILE``, the cache's flagged baseline run,
    or the committed ``benchmarks/perf_baseline.json``), re-running
    each regressed benchmark traced to name the dominant telemetry
    span.

Execution flags (``run`` and ``all``)
-------------------------------------
``--no-cache`` / ``--cache-dir DIR``
    Paper-fidelity runs are cached in ``<cache-root>/store.sqlite``
    keyed by the canonical :class:`~repro.experiments.spec.RunConfig`
    encoding (default root: ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro-pwm``) and replayed byte-identically on a hit.
    ``--cache-dir`` also enables caching for fast runs; ``--no-cache``
    disables it entirely.

Serving commands
----------------
``export-model <name> [--dataset blobs|xor|and|or] [--hidden N] ...``
    Train a model and persist it as a versioned artifact in the model
    store (``--store DIR``, default ``$REPRO_MODEL_STORE`` or
    ``./models``).
``predict <name> --input d1,d2,... [--input ...] [--vdd V]``
    Load a stored model and classify duty-cycle rows.
``serve [--workers N] [--host H] [--port P] [--max-batch N]``
    Start the micro-batching JSON API (``/predict``, ``/models``,
    ``/experiments``, ``/campaigns``, ``/healthz``, ``/metrics``) over
    the model store.  The asyncio server keeps connections alive,
    coalesces the rows read in one loop tick across connections
    (flushing at ``--max-batch`` rows) and shards slow-engine requests
    over ``--workers`` processes.  ``--campaign-dir`` names
    the campaign specs listed under ``/campaigns`` (default
    ``$REPRO_CAMPAIGN_DIR`` or ``./campaigns``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .circuit.exceptions import AnalysisError

# Each command imports what it runs, so ``serve`` starts without the
# experiment registry, the result cache or the circuit simulator.
if TYPE_CHECKING:
    from .exec.cache import ResultCache
    from .experiments.spec import Param, RunConfig


def _export(result, csv_dir: "Path | None") -> None:
    if csv_dir is None:
        return
    from .reporting import figure_to_csv, table_to_csv

    csv_dir.mkdir(parents=True, exist_ok=True)
    if result.table is not None:
        table_to_csv(result.table, csv_dir / f"{result.experiment_id}.csv")
    for figure in result.figures:
        figure_to_csv(figure, csv_dir / f"{figure.figure_id}.csv")


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="result-cache directory (default "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-pwm); "
                             "also enables caching at fast fidelity")
    _add_telemetry_flags(parser)


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--telemetry", action="store_true",
                        help="enable tracing/metrics instrumentation and "
                             "attach a run profile to each result "
                             "(equivalent to REPRO_TELEMETRY=1)")
    parser.add_argument("--trace-out", type=Path, default=None,
                        metavar="FILE",
                        help="write the span trace as JSONL here after "
                             "the run (implies --telemetry)")


def _enable_telemetry(args) -> None:
    """Turn the telemetry runtime on when the flags ask for it.

    ``campaign status --telemetry`` is excluded: there the flag only
    selects the shard-timing section of the status document — status
    never executes experiments, so starting the runtime would be noise.
    """
    if getattr(args, "campaign_command", None) == "status":
        return
    trace_out = getattr(args, "trace_out", None)
    if getattr(args, "telemetry", False) or trace_out is not None:
        from . import telemetry

        telemetry.enable(
            trace_path=str(trace_out) if trace_out is not None else None)


def _finish_telemetry() -> None:
    """Export a pending ``--trace-out`` trace (before interpreter exit,
    so the CLI's summary line lands next to the run's output)."""
    from . import telemetry

    rt = telemetry.active()
    if rt is not None and rt.trace_path:
        target = rt.trace_path
        n = rt.export_trace()
        print(f"telemetry: wrote {n} trace events to {target}",
              file=sys.stderr)


# -- schema-derived experiment options ------------------------------------
#
# ``run <id>`` gets one generated option per declared parameter, so the
# parser itself is the validation surface: unknown flags die in
# argparse, bad values die in the Param's parse/validate with the
# schema's help text.

#: dests already taken by the run-command plumbing; a experiment schema
#: may never collide with these (guarded at parser-build time).
_RESERVED_DESTS = {"command", "experiment_id", "fidelity", "help",
                   "no_charts", "csv", "no_cache", "cache_dir",
                   "report", "set", "telemetry", "trace_out"}


def _param_type(param: Param):
    def convert(text: str):
        try:
            return param.parse(text)
        except AnalysisError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    convert.__name__ = param.type
    return convert


def _param_help(param: Param) -> str:
    notes = []
    if param.choices is not None:
        notes.append("one of " + ", ".join(str(c) for c in param.choices))
    bounds = []
    if param.minimum is not None:
        bounds.append(f">= {param.minimum:g}")
    if param.maximum is not None:
        bounds.append(f"<= {param.maximum:g}")
    if bounds:
        notes.append(" and ".join(bounds))
    if param.default is not None:
        notes.append(f"default {param.default}")
    suffix = f" ({'; '.join(notes)})" if notes else ""
    return f"{param.help}{suffix}"


def _add_schema_options(parser: argparse.ArgumentParser, spec) -> None:
    for param in spec.runner_params:
        if param.name in _RESERVED_DESTS:
            raise AnalysisError(
                f"experiment {spec.id!r}: parameter {param.name!r} "
                "collides with a built-in CLI flag")
        flag = "--" + param.name.replace("_", "-")
        metavar = ("F1,F2,..." if param.type == "floats"
                   else param.type.upper())
        parser.add_argument(flag, dest=param.name, type=_param_type(param),
                            default=None, metavar=metavar,
                            help=_param_help(param))


def _explicit_params(args, spec) -> dict:
    """Parameters the user actually passed (defaults stay schema-side)."""
    return {p.name: getattr(args, p.name) for p in spec.runner_params
            if getattr(args, p.name) is not None}


def _resolve_cache(args) -> "ResultCache | None":
    """Cache policy: paper runs cache by default, fast runs opt in."""
    if args.no_cache or (args.cache_dir is None
                         and args.fidelity != "paper"):
        return None
    return _open_store(args)


def _run_cached(config: RunConfig, cache):
    """Run one config, announcing cache hits on stderr.

    The notice keeps stale replays distinguishable from fresh runs
    (the cache key covers the canonical config, not code — after
    changing experiment code, recompute with ``--no-cache``).
    """
    from .experiments import run_config

    if cache is not None:
        hit = cache.get_config(config)
        if hit is not None:
            print(f"[cache] {config.experiment_id}: replayed from "
                  f"{cache.path_for_config(config)} "
                  "(use --no-cache to recompute)", file=sys.stderr)
            return hit
    return run_config(config, cache=cache)


def _parse_overrides(parser: argparse.ArgumentParser,
                     pairs: "list[str] | None") -> dict:
    """``--set ID.PARAM=VALUE`` pairs -> validated overrides mapping."""
    from .experiments import get_spec

    overrides: "dict[str, dict]" = {}
    for text in pairs or []:
        head, sep, value = text.partition("=")
        eid, dot, pname = head.partition(".")
        if not sep or not dot or not eid or not pname:
            parser.error(f"--set expects ID.PARAM=VALUE, got {text!r}")
        if pname == "fidelity":
            parser.error("fidelity is set once for the whole run with "
                         "--fidelity, not per experiment via --set")
        try:
            overrides.setdefault(eid, {})[pname] = \
                get_spec(eid).param(pname).parse(value)
        except AnalysisError as exc:
            parser.error(str(exc))
    return overrides


def _default_store_dir() -> Path:
    """Model-store root: ``$REPRO_MODEL_STORE`` or ``./models``."""
    import os

    return Path(os.environ.get("REPRO_MODEL_STORE") or "models")


def _default_campaign_dir() -> Path:
    """Served campaign specs: ``$REPRO_CAMPAIGN_DIR`` or ``./campaigns``."""
    import os

    return Path(os.environ.get("REPRO_CAMPAIGN_DIR") or "campaigns")


# -- campaign orchestration ------------------------------------------------


def _open_store(args) -> "ResultCache":
    """The result cache under ``--cache-dir`` (``--db`` where given)."""
    from .exec.cache import ResultCache, default_cache_dir

    root = args.cache_dir if args.cache_dir is not None \
        else default_cache_dir()
    return ResultCache(root, db_path=getattr(args, "db", None))


def _cmd_campaign(args) -> int:
    from .campaigns import (
        CampaignRunner,
        CampaignSpec,
        campaign_status,
        collect_results,
        parse_shard,
        results_document,
        results_table,
    )
    from .reporting import table_to_csv

    spec = CampaignSpec.load(args.spec)
    # Campaigns always cache: the cache *is* the resume checkpoint.
    cache = _open_store(args)

    if args.campaign_command == "run":
        shard = parse_shard(args.shard) if args.shard else (1, 1)
        runner = CampaignRunner(spec, cache, shard=shard)

        def progress(entry, fresh: bool) -> None:
            verb = "ran" if fresh else "hit"
            print(f"[campaign {spec.name} shard {shard[0]}/{shard[1]}] "
                  f"{verb} #{entry.position} {entry.config.label()}",
                  file=sys.stderr)

        summary = runner.run(progress=progress)
        print(f"campaign {spec.name!r} shard {shard[0]}/{shard[1]}: "
              f"{summary.executed} executed, {summary.skipped} resumed "
              f"from cache ({summary.in_shard} of {summary.total} "
              f"configs in this shard)")
        if summary.telemetry is not None:
            agg = summary.telemetry
            print(f"telemetry: {agg['runs']} profiled run(s), "
                  f"{agg['duration_seconds']:.3f}s total", file=sys.stderr)
        _finish_telemetry()
        return 0

    if args.campaign_command == "status":
        status = campaign_status(spec, cache, n_shards=args.shards,
                                 with_telemetry=args.telemetry)
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        print(f"campaign {status['campaign']!r} "
              f"({status['experiment']} [{status['fidelity']}]): "
              f"{status['done']}/{status['total']} configs done")
        for bucket in status["shards"]:
            print(f"  shard {bucket['shard']}: "
                  f"{bucket['done']}/{bucket['total']} done")
        for timing in status.get("telemetry", []):
            shard = timing["shard"]
            if isinstance(shard, (list, tuple)) and len(shard) == 2:
                shard = f"{shard[0]}/{shard[1]}"
            print(f"  shard {shard} timing: "
                  f"{timing['fresh']} fresh in "
                  f"{timing['fresh_seconds']:.3f}s "
                  f"(mean {timing['mean_seconds_per_fresh']:.3f}s)")
        for label in status["missing_labels"]:
            print(f"  missing: {label}")
        if status["missing_labels_truncated"]:
            remainder = status["missing"] - len(status["missing_labels"])
            print(f"  ... and {remainder} more missing")
        return 0

    if args.campaign_command == "watch":
        from .store.watch import watch

        status = watch(spec, cache, interval=args.interval,
                       max_polls=args.max_polls)
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        return 0 if status["missing"] == 0 else 1

    if args.campaign_command == "dashboard":
        from .store.dashboard import CampaignDashboard

        board = CampaignDashboard(spec, cache, host=args.host,
                                  port=args.port)
        print(f"dashboard for campaign {spec.name!r} at {board.url} — "
              "endpoints: / /status /alerts /results /perf /healthz; "
              "Ctrl-C to stop", file=sys.stderr)
        board.run()
        return 0

    # report
    collected = collect_results(spec, cache)
    table = results_table(spec, collected)
    document = results_document(spec, collected)
    print(table.render())
    if args.csv is not None:
        args.csv.mkdir(parents=True, exist_ok=True)
        target = args.csv / f"campaign_{spec.name}.csv"
        table_to_csv(table, target)
        print(f"CSV written to {target}", file=sys.stderr)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"aggregate JSON written to {args.json}", file=sys.stderr)
    if args.out is not None:
        from .reporting import write_campaign_report

        write_campaign_report(
            args.out, name=spec.name, title=spec.display_title,
            experiment_id=spec.experiment_id, fidelity=spec.fidelity,
            table=table, total=document["total"], done=document["done"],
            description=spec.description)
        print(f"report written to {args.out}", file=sys.stderr)
    if args.require_complete and document["done"] < document["total"]:
        print(f"error: campaign {spec.name!r} incomplete — "
              f"{document['total'] - document['done']} config(s) "
              "missing (re-run to fill them in)", file=sys.stderr)
        return 1
    return 0


def _where_term(text: str):
    """CLI filter VALUE -> int/float/str (what axis params can hold)."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text


def _cmd_store(args) -> int:
    from .reporting import table_to_csv
    from .store import StoreQuery

    store = _open_store(args)

    if args.store_command == "migrate":
        summary = store.import_flat_cache(store.root)
        print(f"store migrate: scanned {summary['scanned']} cache "
              f"file(s) — {summary['migrated']} migrated "
              f"({summary['legacy']} legacy, {summary['stale']} stale), "
              f"{summary['skipped']} skipped")
        print(f"  store: {store.db_path}", file=sys.stderr)
        return 0

    if args.store_command == "gc":
        summary = store.gc(dry_run=args.dry_run,
                           older_than_days=args.older_than)
        verb = "would delete" if args.dry_run else "deleted"
        line = (f"store gc: {verb} {summary['candidates']} row(s); "
                f"{store.counts()['total']} row(s) remain")
        if args.older_than is not None:
            line += (f"; {verb} {summary['perf_candidates']} perf "
                     f"run(s) older than {args.older_than:g} day(s)")
        print(line)
        return 0

    # query
    query = StoreQuery(store, args.experiment, fidelity=args.fidelity,
                       engine=args.engine)
    for param, op, value in args.where or []:
        if op == "in":
            parsed = [_where_term(v) for v in value.split(",")
                      if v.strip()]
        else:
            parsed = _where_term(value)
        query = query.where(param, op, parsed)
    if args.figure is not None:
        metric, axis = args.figure
        print(query.figure(metric, axis).render_ascii())
        return 0
    if args.json:
        print(json.dumps(query.tidy(), indent=2, sort_keys=True))
        return 0
    metrics = [m for m in (args.metrics or "").split(",") if m] or None
    table = query.table(metrics)
    print(table.render())
    if args.csv is not None:
        args.csv.mkdir(parents=True, exist_ok=True)
        target = args.csv / "store_query.csv"
        table_to_csv(table, target)
        print(f"CSV written to {target}", file=sys.stderr)
    return 0


# -- performance observability ---------------------------------------------


#: The baseline committed with the tree, used by `perf gate` when
#: neither --baseline nor a store-flagged baseline run is present.
_PERF_BASELINE_NAME = Path("benchmarks") / "perf_baseline.json"


def _default_perf_baseline() -> "Path | None":
    """The committed baseline: resolved from cwd, then the checkout
    this package runs from (so `repro perf gate` works anywhere)."""
    candidates = [Path.cwd() / _PERF_BASELINE_NAME,
                  Path(__file__).resolve().parents[2]
                  / _PERF_BASELINE_NAME]
    for path in candidates:
        if path.is_file():
            return path
    return None


def _fmt_value(value, unit) -> str:
    if value is None:
        return "-"
    return f"{value:.6g} {unit}" if unit else f"{value:.6g}"


def _print_comparison(rows) -> None:
    marks = {"regression": "FAIL", "improvement": "good", "ok": " ok ",
             "new": " new", "missing": "miss"}
    for row in rows:
        line = (f"  [{marks.get(row['status'], '????')}] "
                f"{row['benchmark']}: {row['metric']} "
                f"{_fmt_value(row['value'], row['unit'])}")
        if row.get("baseline_value") is not None:
            line += f" vs baseline {_fmt_value(row['baseline_value'], row['unit'])}"
            if row.get("delta_pct") is not None:
                line += (f" ({row['delta_pct']:+.1f}%, "
                         f"band ±{row['noise'] * 100:.0f}%)")
        print(line)
        attribution = row.get("attribution")
        if attribution:
            if attribution.get("dominant_span"):
                print(f"         dominant span: "
                      f"{attribution['dominant_span']} "
                      f"({attribution['dominant_share'] * 100:.1f}% of "
                      "traced self time)")
                for span in attribution["spans"][1:3]:
                    print(f"           then {span['name']} "
                          f"({span['share'] * 100:.1f}%)")
            elif attribution.get("error"):
                print("         span attribution failed: "
                      f"{attribution['error']}")
            else:
                print("         no instrumented spans traced")


def _cmd_perf(args) -> int:
    from .perf import (baseline_document, compare_runs, describe_benchmarks,
                       gate_run, load_baseline, load_benchmark_scripts,
                       run_benchmarks, sparkline)

    if getattr(args, "bench_dir", None) is not None:
        load_benchmark_scripts(args.bench_dir)

    if args.perf_command == "list":
        entries = describe_benchmarks(args.tag)
        if args.json:
            print(json.dumps({"count": len(entries),
                              "benchmarks": entries},
                             indent=2, sort_keys=True))
            return 0
        for entry in entries:
            policy = (f"x{entry['repeats']}"
                      if entry["kind"] == "workload" else "report")
            print(f"{entry['id']:28s} [{','.join(entry['tags'])}] "
                  f"{entry['metric']} ({policy}, "
                  f"band ±{entry['noise'] * 100:.0f}%) "
                  f"{entry['title']}")
        return 0

    if args.perf_command == "run":
        store = None if args.no_store else _open_store(args)
        doc = run_benchmarks(
            args.benchmarks or None, tag=args.tag, quick=args.quick,
            repeats=args.repeats, store=store,
            progress=lambda spec: print(f"[perf] {spec.id} ...",
                                        file=sys.stderr))
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            for bench in doc["benchmarks"]:
                print(f"  {bench['benchmark']:28s} "
                      f"{_fmt_value(bench['value'], bench['unit'])} "
                      f"({bench['metric']}, "
                      f"{len(bench['samples'])} sample(s))")
            stamp = doc["fingerprint"]
            sha = (stamp.get("git_sha") or "unknown")[:12]
            where = (f"stored as perf run {doc['run_id']}"
                     if "run_id" in doc else "not stored (--no-store)")
            print(f"perf run: {len(doc['benchmarks'])} benchmark(s), "
                  f"{'quick' if doc['quick'] else 'full'} mode, "
                  f"git {sha} — {where}")
        if args.set_baseline:
            if store is None or "run_id" not in doc:
                print("error: --set-baseline needs a stored run "
                      "(drop --no-store)", file=sys.stderr)
                return 2
            store.set_perf_baseline(doc["run_id"])
            print(f"perf run {doc['run_id']} flagged as the store "
                  "baseline", file=sys.stderr)
        if args.baseline_out is not None:
            args.baseline_out.parent.mkdir(parents=True, exist_ok=True)
            args.baseline_out.write_text(json.dumps(
                baseline_document(doc), indent=2, sort_keys=True) + "\n")
            print(f"baseline written to {args.baseline_out}",
                  file=sys.stderr)
        return 0

    if args.perf_command == "history":
        store = _open_store(args)
        history = store.perf_history(args.benchmark, limit=args.limit)
        if args.json:
            print(json.dumps(history, indent=2, sort_keys=True))
            return 0
        if not history:
            print("no stored perf runs yet (repro perf run)")
            return 0
        for name in sorted(history):
            points = history[name]
            values = [p["value"] for p in points]
            unit = points[-1]["unit"]
            print(f"{name:28s} {sparkline(values)} "
                  f"latest {_fmt_value(values[-1], unit)} "
                  f"({len(points)} run(s))")
        return 0

    store = _open_store(args)
    current = store.perf_run(args.run)
    if current is None:
        print("error: no stored perf run to "
              f"{args.perf_command} (repro perf run first)",
              file=sys.stderr)
        return 2

    if args.perf_command == "compare":
        against = (store.perf_run(args.against)
                   if args.against is not None
                   else store.previous_perf_run(current["run_id"]))
        if against is None:
            print("error: nothing to compare against (need a second "
                  "stored run, or --against ID)", file=sys.stderr)
            return 2
        rows = compare_runs(current, baseline_document(against))
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
            return 0
        print(f"perf compare: run {current['run_id']} vs "
              f"run {against['run_id']}")
        _print_comparison(rows)
        return 0

    # gate
    if args.baseline is not None:
        baseline = load_baseline(args.baseline)
        origin = str(args.baseline)
    else:
        flagged = store.perf_baseline_run()
        if flagged is not None:
            baseline = baseline_document(flagged)
            origin = f"store run {flagged['run_id']}"
        else:
            default = _default_perf_baseline()
            if default is None:
                print("error: no baseline — pass --baseline FILE, flag "
                      "a stored run (perf run --set-baseline), or "
                      f"commit {_PERF_BASELINE_NAME}", file=sys.stderr)
                return 2
            baseline = load_baseline(default)
            origin = str(default)
    verdict = gate_run(current, baseline,
                       attribute=not args.no_attribution,
                       quick=current.get("quick", True))
    if args.json:
        print(json.dumps(verdict, indent=2, sort_keys=True))
        return 0 if verdict["ok"] else 1
    state = "PASS" if verdict["ok"] else "FAIL"
    print(f"perf gate: {state} — run {current['run_id']} vs {origin} "
          f"({len(verdict['regressions'])} regression(s), "
          f"{len(verdict['improvements'])} improvement(s))")
    _print_comparison(verdict["comparisons"])
    for row in verdict["missing"]:
        print(f"  warning: baseline benchmark {row['benchmark']!r} "
              "was not in this run", file=sys.stderr)
    return 0 if verdict["ok"] else 1


def _train_model(dataset: str, hidden: int, epochs: int, seed: int):
    """Train an exportable model on a built-in dataset.

    Returns ``(model, accuracy, data)`` — a
    :class:`DifferentialPwmPerceptron` for ``hidden == 0``, else a
    :class:`PwmMlp` with ``hidden`` random units.
    """
    from .analysis.datasets import make_blobs, make_logic
    from .core.network import PwmMlp
    from .core.training import PerceptronTrainer

    if dataset == "blobs":
        data = make_blobs(n_per_class=30, n_features=2, separation=0.35,
                          spread=0.09, seed=seed)
    else:
        data = make_logic(dataset, n_samples=60, noise=0.04, seed=seed)
    if hidden > 0:
        model = PwmMlp(2, hidden, seed=seed)
        model.fit(data.X, data.y, epochs=epochs)
        accuracy = model.accuracy(data.X, data.y)
    else:
        trainer = PerceptronTrainer(2, seed=seed)
        model = trainer.fit(data.X, data.y, epochs=epochs).perceptron
        accuracy = trainer.evaluate(model, data.X, data.y)
    return model, accuracy, data


def _cmd_export_model(args) -> int:
    from .serve.artifacts import ModelStore

    model, accuracy, _data = _train_model(args.dataset, args.hidden,
                                          args.epochs, args.seed)
    store = ModelStore(args.store)
    path = store.save(args.name, model)
    doc = store.load_doc(args.name)
    print(f"exported {doc['kind']} model {args.name!r} "
          f"(dataset={args.dataset}, training accuracy {accuracy:.3f})")
    print(f"  artifact: {path} [schema v{doc['schema']}, "
          f"hash {doc['hash']}]")
    return 0


def _cmd_predict(args) -> int:
    from .serve.artifacts import ModelStore
    from .serve.engine import (
        BatchInferenceEngine,
        model_decision_offset,
        model_n_features,
    )

    store = ModelStore(args.store)
    model = store.load(args.name)
    rows = []
    for text in args.input:
        try:
            rows.append([float(v) for v in text.split(",") if v.strip()])
        except ValueError:
            print(f"error: non-numeric input row {text!r}",
                  file=sys.stderr)
            return 2
    n_features = model_n_features(model)
    if any(len(r) != n_features for r in rows):
        print(f"error: model {args.name!r} expects "
              f"{n_features} comma-separated duties per --input",
              file=sys.stderr)
        return 2
    # One batched forward pass yields both margins and predictions.
    margins = BatchInferenceEngine().model_margins(model, rows,
                                                   vdd=args.vdd)
    predictions = (margins > model_decision_offset(model)).astype(int)
    for row, label, margin in zip(rows, predictions, margins):
        print(f"{','.join(f'{v:g}' for v in row)} -> class {int(label)} "
              f"(margin {margin:+.4f} V)")
    return 0


def _cmd_serve(args) -> int:
    from .serve.aio_server import AsyncPerceptronServer
    from .serve.artifacts import ModelStore

    store = ModelStore(args.store)
    server = AsyncPerceptronServer(
        store, host=args.host, port=args.port, max_batch=args.max_batch,
        campaign_dir=args.campaign_dir, workers=args.workers)
    known = ", ".join(m["name"] for m in store.list()) or "(store empty)"
    print(f"serving {server.url} — models: {known}", file=sys.stderr)
    print("endpoints: POST /predict, GET /models /experiments "
          "/engines /campaigns /healthz /metrics; Ctrl-C to stop",
          file=sys.stderr)
    server.run()
    return 0


def _add_store_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", type=Path, default=None,
                        help="model-store directory (default "
                             "$REPRO_MODEL_STORE or ./models)")


def _cmd_list(args) -> int:
    if args.engines:
        from .engines import describe as describe_engines

        document = describe_engines()
        if args.json:
            print(json.dumps(document, indent=2, sort_keys=True))
            return 0
        for entry in document["engines"]:
            caps = entry["capabilities"]
            flags = ",".join(sorted(
                name for name, value in caps.items()
                if value is True))
            print(f"{entry['id']:12s} [{caps['level']}] "
                  f"{entry['title']} ({flags})")
        return 0
    from .experiments import describe

    document = describe()
    if args.tag:
        document["experiments"] = [
            entry for entry in document["experiments"]
            if args.tag in entry["tags"]]
        document["count"] = len(document["experiments"])
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    for entry in document["experiments"]:
        extra = [p["name"] for p in entry["params"]
                 if p["name"] != "fidelity"]
        params = f" ({', '.join(extra)})" if extra else ""
        print(f"{entry['id']:22s} [{','.join(entry['tags'])}] "
              f"{entry['title']}{params}")
    return 0


def _cmd_run(args, all_p: argparse.ArgumentParser) -> int:
    """``run`` and ``all``."""
    from .experiments import RunConfig, get_spec
    from .experiments.spec import SPECS

    cache = _resolve_cache(args)

    if args.command == "run":
        spec = get_spec(args.experiment_id)
        config = RunConfig.build(spec.id, args.fidelity,
                                 _explicit_params(args, spec))
        result = _run_cached(config, cache)
        print(result.render(charts=not args.no_charts))
        _export(result, args.csv)
        if result.profile is not None:
            print("telemetry: profile "
                  + json.dumps(result.profile, sort_keys=True),
                  file=sys.stderr)
        _finish_telemetry()
        return 0

    overrides = _parse_overrides(all_p, getattr(args, "set", None))
    results = {}
    for eid in SPECS:
        config = RunConfig.build(eid, args.fidelity, overrides.get(eid))
        result = _run_cached(config, cache)
        results[eid] = result
        print(result.render(charts=False))
        print()
        _export(result, args.csv)
    if args.report is not None:
        from .reporting import write_markdown_report

        write_markdown_report(results, args.report,
                              title="PWM perceptron reproduction report")
        print(f"report written to {args.report}")
    _finish_telemetry()
    return 0


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the DATE 2019 PWM mixed-signal perceptron")
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser(
        "list", help="list registered experiments and their schemas")
    list_p.add_argument("--tag", default=None,
                        help="only experiments carrying this tag")
    list_p.add_argument("--json", action="store_true",
                        help="dump the full typed parameter schemas "
                             "(the experiments_schema.json document)")
    list_p.add_argument("--engines", action="store_true",
                        help="list the simulation-engine registry "
                             "(ids usable with `run <id> --engine`) "
                             "instead of the experiments")

    run_p = sub.add_parser(
        "run", help="run one experiment (see `run <id> --help` for its "
                    "schema-derived options)")
    run_sub = run_p.add_subparsers(dest="experiment_id", metavar="<id>",
                                   required=True)
    # Only ``run`` takes an experiment id, so only ``run`` loads the
    # registry (every experiment module) to build the id's options.
    if next((a for a in argv if not a.startswith("-")), None) == "run":
        from .experiments.spec import SPECS

        for spec in SPECS.values():
            exp_p = run_sub.add_parser(
                spec.id, help=spec.title,
                description=f"{spec.title}. {spec.description}")
            exp_p.add_argument("--fidelity", choices=("fast", "paper"),
                               default="fast")
            exp_p.add_argument("--no-charts", action="store_true")
            exp_p.add_argument("--csv", type=Path, default=None,
                               help="export tables/series as CSV into "
                                    "this directory")
            _add_exec_flags(exp_p)
            _add_schema_options(exp_p, spec)

    all_p = sub.add_parser("all", help="run every experiment")
    all_p.add_argument("--fidelity", choices=("fast", "paper"),
                       default="fast")
    all_p.add_argument("--set", action="append", metavar="ID.PARAM=VALUE",
                       help="override one experiment's parameter "
                            "(repeatable), validated against its schema")
    all_p.add_argument("--csv", type=Path, default=None)
    all_p.add_argument("--report", type=Path, default=None,
                       help="write a combined markdown report here")
    _add_exec_flags(all_p)

    camp_p = sub.add_parser(
        "campaign",
        help="orchestrate a declarative multi-config sweep "
             "(sharded, resumable, aggregated)")
    camp_sub = camp_p.add_subparsers(
        dest="campaign_command",
        metavar="run|status|report|watch|dashboard", required=True)

    def _add_campaign_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", type=Path, metavar="SPEC.json",
                       help="campaign spec file (see repro.campaigns.spec)")
        p.add_argument("--cache-dir", type=Path, default=None,
                       help="result-cache root shared by every shard "
                            "(default $REPRO_CACHE_DIR or "
                            "~/.cache/repro-pwm); the cache is the "
                            "campaign's resume checkpoint "
                            "(<cache-root>/store.sqlite, safe for N "
                            "concurrent shard writers)")

    camp_run = camp_sub.add_parser(
        "run", help="run (or resume) a campaign shard",
        description="Execute the campaign's cache misses.  Finished "
                    "configs are skipped, so re-running an interrupted "
                    "campaign only executes what is left.")
    _add_campaign_common(camp_run)
    camp_run.add_argument("--shard", default=None, metavar="I/N",
                          help="run shard I of N (1-based; configs "
                               "partition deterministically by canonical "
                               "config hash, so N processes with "
                               "distinct I cover the campaign exactly "
                               "once; default 1/1)")
    _add_telemetry_flags(camp_run)

    camp_status = camp_sub.add_parser(
        "status", help="show done/missing configs per shard")
    _add_campaign_common(camp_status)
    camp_status.add_argument("--shards", type=int, default=1, metavar="N",
                             help="break the counts down over N shards")
    camp_status.add_argument("--json", action="store_true",
                             help="dump the full status document")
    camp_status.add_argument("--telemetry", action="store_true",
                             help="include per-shard timing telemetry "
                                  "(from the shard manifests) in the "
                                  "status")

    camp_report = camp_sub.add_parser(
        "report", help="aggregate all finished configs into one table")
    _add_campaign_common(camp_report)
    camp_report.add_argument("--out", type=Path, default=None,
                             metavar="FILE",
                             help="write a markdown campaign report here")
    camp_report.add_argument("--json", type=Path, default=None,
                             metavar="FILE",
                             help="write the aggregate JSON document here")
    camp_report.add_argument("--csv", type=Path, default=None,
                             metavar="DIR",
                             help="export the tidy results table as CSV "
                                  "into this directory")
    camp_report.add_argument("--require-complete", action="store_true",
                             help="exit nonzero if any config is missing "
                                  "(CI merge gates)")

    camp_watch = camp_sub.add_parser(
        "watch", help="poll live campaign progress (with per-shard ETA "
                      "and alert-rule evaluation)",
        description="Poll the campaign's ground truth until every "
                    "config is done, printing one status line per poll "
                    "plus any newly-fired alerts from the spec's "
                    "'alerts' rules.  Exits 0 once complete, 1 if "
                    "--max-polls runs out first.")
    _add_campaign_common(camp_watch)
    camp_watch.add_argument("--interval", type=float, default=2.0,
                            metavar="SECONDS",
                            help="seconds between polls (default 2)")
    camp_watch.add_argument("--max-polls", type=int, default=None,
                            metavar="N",
                            help="stop after N polls even if incomplete "
                                 "(default: poll until complete)")
    camp_watch.add_argument("--json", action="store_true",
                            help="dump the final status document as JSON")

    camp_dash = camp_sub.add_parser(
        "dashboard", help="serve a live HTTP dashboard for a campaign",
        description="Start a small HTTP server with JSON endpoints "
                    "(/status /alerts /results /healthz) and an HTML "
                    "index over the campaign's cache or store.")
    _add_campaign_common(camp_dash)
    camp_dash.add_argument("--host", default="127.0.0.1")
    camp_dash.add_argument("--port", type=int, default=8085,
                           help="TCP port (0 = pick a free port)")

    store_p = sub.add_parser(
        "store",
        help="maintain and query the SQLite result store")
    store_sub = store_p.add_subparsers(dest="store_command",
                                       metavar="migrate|query|gc",
                                       required=True)

    def _add_store_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-dir", type=Path, default=None,
                       help="cache root holding the store (default "
                            "$REPRO_CACHE_DIR or ~/.cache/repro-pwm)")
        p.add_argument("--db", type=Path, default=None, metavar="FILE",
                       help="store database file (default "
                            "<cache-root>/store.sqlite)")

    store_migrate = store_sub.add_parser(
        "migrate", help="import a one-file-per-entry JSON cache "
                        "written by older builds (byte-identical, "
                        "one shot)")
    _add_store_common(store_migrate)

    store_query = store_sub.add_parser(
        "query", help="filter stored results (indexed axis-parameter "
                      "queries, table/JSON/CSV/figure output)")
    _add_store_common(store_query)
    store_query.add_argument("experiment", nargs="?", default=None,
                             help="restrict to one experiment id "
                                  "(default: all)")
    store_query.add_argument("--fidelity", choices=("fast", "paper"),
                             default=None)
    store_query.add_argument("--engine", default=None,
                             help="restrict to one simulation engine id")
    store_query.add_argument("--where", action="append", nargs=3,
                             metavar=("PARAM", "OP", "VALUE"),
                             help="axis-parameter filter (repeatable); "
                                  "OP is one of = != < <= > >= in "
                                  "('in' takes a comma-separated list)")
    store_query.add_argument("--metrics", default=None,
                             metavar="M1,M2,...",
                             help="metric columns to show (default: all)")
    store_query.add_argument("--figure", nargs=2, default=None,
                             metavar=("METRIC", "AXIS"),
                             help="render an ASCII metric-vs-axis chart "
                                  "(mean/min/max series) instead of "
                                  "the table")
    store_query.add_argument("--json", action="store_true",
                             help="dump the tidy query document as JSON")
    store_query.add_argument("--csv", type=Path, default=None,
                             metavar="DIR",
                             help="export the result table as CSV into "
                                  "this directory")

    store_gc = store_sub.add_parser(
        "gc", help="reclaim rows no probe can hit (stale package "
                   "versions, pre-RunConfig kwargs-keyed rows)")
    _add_store_common(store_gc)
    store_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be deleted, delete "
                               "nothing")
    store_gc.add_argument("--older-than", type=float, default=None,
                          metavar="DAYS",
                          help="age-based retention: only reclaim rows "
                               "older than DAYS, and also drop perf "
                               "runs past that age (the flagged "
                               "baseline run is always kept)")

    perf_p = sub.add_parser(
        "perf",
        help="run benchmarks, track their history, gate regressions")
    perf_sub = perf_p.add_subparsers(
        dest="perf_command", metavar="run|list|history|compare|gate",
        required=True)

    def _add_perf_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-dir", type=Path, default=None,
                       help="cache root holding the store (default "
                            "$REPRO_CACHE_DIR or ~/.cache/repro-pwm)")
        p.add_argument("--db", type=Path, default=None, metavar="FILE",
                       help="store database file (default "
                            "<cache-root>/store.sqlite)")
        p.add_argument("--bench-dir", type=Path, default=None,
                       metavar="DIR",
                       help="also register benchmarks from this "
                            "directory's bench_*.py scripts")

    perf_run = perf_sub.add_parser(
        "run", help="execute benchmarks into a fingerprinted, stored "
                    "perf run",
        description="Run registered benchmarks under their "
                    "warmup/repeat policy; every run is stamped with "
                    "an environment fingerprint (git SHA, "
                    "python/numpy/scipy, platform, CPUs) and recorded "
                    "in the store's perf_runs/perf_samples tables.")
    _add_perf_common(perf_run)
    perf_run.add_argument("benchmarks", nargs="*", metavar="ID",
                          help="benchmark ids to run (default: all "
                               "registered)")
    perf_run.add_argument("--tag", default=None,
                          help="only benchmarks carrying this tag")
    perf_run.add_argument("--quick", action="store_true",
                          help="reduced problem sizes and repeats "
                               "(CI smoke mode)")
    perf_run.add_argument("--repeats", type=int, default=None,
                          metavar="N",
                          help="override every workload's repeat count")
    perf_run.add_argument("--no-store", action="store_true",
                          help="do not record the run (print only)")
    perf_run.add_argument("--set-baseline", action="store_true",
                          help="flag this run as the store's gate "
                               "baseline")
    perf_run.add_argument("--baseline-out", type=Path, default=None,
                          metavar="FILE",
                          help="also distill this run into a "
                               "committable baseline file")
    perf_run.add_argument("--json", action="store_true",
                          help="dump the full run document")

    perf_list = perf_sub.add_parser(
        "list", help="list registered benchmarks")
    _add_perf_common(perf_list)
    perf_list.add_argument("--tag", default=None,
                           help="only benchmarks carrying this tag")
    perf_list.add_argument("--json", action="store_true",
                           help="dump the full registry description")

    perf_history = perf_sub.add_parser(
        "history", help="per-benchmark tracked-value history "
                        "(sparklines)")
    _add_perf_common(perf_history)
    perf_history.add_argument("benchmark", nargs="?", default=None,
                              help="restrict to one benchmark id")
    perf_history.add_argument("--limit", type=int, default=60,
                              metavar="N",
                              help="last N runs per benchmark "
                                   "(default 60)")
    perf_history.add_argument("--json", action="store_true",
                              help="dump the history document")

    perf_compare = perf_sub.add_parser(
        "compare", help="diff one stored run against another "
                        "(noise-aware, informative)")
    _add_perf_common(perf_compare)
    perf_compare.add_argument("--run", type=int, default=None,
                              metavar="ID",
                              help="run to compare (default: latest)")
    perf_compare.add_argument("--against", type=int, default=None,
                              metavar="ID",
                              help="reference run (default: the run "
                                   "before --run)")
    perf_compare.add_argument("--json", action="store_true",
                              help="dump the comparison rows")

    perf_gate = perf_sub.add_parser(
        "gate", help="fail (exit 1) on any out-of-band regression vs "
                     "the baseline",
        description="Compare the latest (or --run) stored run against "
                    "the baseline with per-benchmark noise bands; "
                    "each regression is re-run traced and the gate "
                    "names the telemetry span that owns the slowdown.")
    _add_perf_common(perf_gate)
    perf_gate.add_argument("--run", type=int, default=None, metavar="ID",
                           help="run to gate (default: latest)")
    perf_gate.add_argument("--baseline", type=Path, default=None,
                           metavar="FILE",
                           help="baseline file (default: the store's "
                                "flagged baseline run, else the "
                                "committed benchmarks/"
                                "perf_baseline.json)")
    perf_gate.add_argument("--no-attribution", action="store_true",
                           help="skip the traced re-run of regressed "
                                "benchmarks")
    perf_gate.add_argument("--json", action="store_true",
                           help="dump the gate verdict document")

    export_p = sub.add_parser(
        "export-model", help="train a model and save it to the store")
    export_p.add_argument("name", help="artifact name in the store")
    export_p.add_argument("--dataset",
                          choices=("blobs", "xor", "and", "or"),
                          default="blobs")
    export_p.add_argument("--hidden", type=int, default=0, metavar="N",
                          help="hidden units (0 = single differential "
                               "perceptron; XOR needs a hidden layer)")
    export_p.add_argument("--epochs", type=int, default=60)
    export_p.add_argument("--seed", type=int, default=7)
    _add_store_flag(export_p)

    predict_p = sub.add_parser(
        "predict", help="classify duty-cycle rows with a stored model")
    predict_p.add_argument("name", help="artifact name in the store")
    predict_p.add_argument("--input", action="append", required=True,
                           metavar="D1,D2,...",
                           help="one duty-cycle row (repeatable)")
    predict_p.add_argument("--vdd", type=float, default=None,
                           help="supply voltage (default: model nominal)")
    _add_store_flag(predict_p)

    serve_p = sub.add_parser(
        "serve", help="start the micro-batching model-serving HTTP API")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8080,
                         help="TCP port (0 = pick a free port)")
    serve_p.add_argument("--max-batch", type=int, default=64,
                         help="flush a batch at this many rows")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="worker processes for slow-engine "
                              "(rc/spice) /predict requests; 0 keeps "
                              "them in-process")
    serve_p.add_argument("--campaign-dir", type=Path, default=None,
                         help="directory of campaign spec JSONs served "
                              "as /campaigns (default $REPRO_CAMPAIGN_DIR "
                              "or ./campaigns)")
    serve_p.add_argument("--telemetry", action="store_true",
                         help="enable tracing/metrics instrumentation; "
                              "/metrics then also exposes solver-level "
                              "counters in its Prometheus view")
    _add_store_flag(serve_p)

    args = parser.parse_args(argv)
    _enable_telemetry(args)

    if args.command in ("export-model", "predict", "serve"):
        if args.store is None:
            args.store = _default_store_dir()
        if args.command == "serve" and args.campaign_dir is None:
            args.campaign_dir = _default_campaign_dir()
        return {"export-model": _cmd_export_model,
                "predict": _cmd_predict,
                "serve": _cmd_serve}[args.command](args)

    if args.command == "list":
        return _cmd_list(args)

    commands = {"campaign": _cmd_campaign, "store": _cmd_store,
                "perf": _cmd_perf}
    try:
        if args.command in commands:
            return commands[args.command](args)
        return _cmd_run(args, all_p)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
