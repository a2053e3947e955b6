"""``repro obs summarize|aggregate|report``: read traces and service telemetry."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cli import _add_spool
from repro.errors import ReproError
from repro.util import durable


def obs_args(p: argparse.ArgumentParser) -> None:
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    sp = obs_sub.add_parser(
        "summarize", help="render a per-phase time/error breakdown of a trace")
    sp.add_argument("trace", metavar="TRACE.JSONL",
                    help="trace file recorded with --trace-file")
    sp = obs_sub.add_parser(
        "aggregate",
        help="merge a service spool's per-shard traces and queue events "
             "into one causally-ordered timeline; sum shard metrics")
    _add_spool(sp)
    sp.add_argument("--out", default=None, metavar="PATH",
                    help="write the merged timeline (JSONL, repro-trace/1) "
                         "to PATH")
    sp.add_argument("--metrics-out", default=None, metavar="PATH",
                    help="write the aggregated shard metrics (JSON, "
                         "repro-metrics/1 plus shards, per_shard and "
                         "conflicts) to PATH")
    sp = obs_sub.add_parser(
        "report",
        help="print the service SLO table: p50/p95/p99 queue-wait, "
             "lease-to-start, execute, and end-to-end latency per job kind")
    _add_spool(sp)


def cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "summarize":
        from repro.obs import summarize_file

        trace_path = Path(args.trace)
        if not trace_path.exists():
            raise ReproError(f"no such trace file: {trace_path}")
        print(summarize_file(trace_path))
        return 0

    root = Path(args.spool)
    if args.obs_command == "aggregate":
        from repro.obs import (
            aggregate_metrics,
            merge_timeline,
            read_shard_metrics,
            write_timeline,
        )

        timeline = merge_timeline(root)
        print(f"timeline: {timeline.summary()}")
        if args.out:
            out = write_timeline(timeline, args.out)
            print(f"timeline: wrote {len(timeline.records)} record(s) -> {out}")
        snapshots, unreadable = read_shard_metrics(root)
        agg = aggregate_metrics(snapshots)
        print(f"metrics: {len(agg['metrics'])} metric(s) across "
              f"{len(agg['shards'])} shard snapshot(s)"
              + (f", {unreadable} unreadable file(s) skipped"
                 if unreadable else ""))
        for name in agg["conflicts"]:
            print(f"metrics: conflict: shards disagree on {name!r} "
                  "(kept first shard's)", file=sys.stderr)
        if args.metrics_out:
            durable.replace_json(args.metrics_out, agg)
            print(f"metrics: wrote aggregate -> {args.metrics_out}")
        return 0

    from repro.obs.aggregate import read_shard_traces, read_spool_events
    from repro.obs.slo import compute_slo, fold_job_timings, render_slo_report
    from repro.service.spool import read_snapshot

    events, _ = read_spool_events(root)
    slos = compute_slo(events, read_shard_traces(root)[0])
    print(render_slo_report(slos, title=f"SLO report for spool {root}"))
    # The percentiles read only the log; a job whose submit event
    # compaction folded into the snapshot has no timings left to read.
    snap = read_snapshot(root)
    folded = {job.get("id") for job in snap["jobs"]} if snap else set()
    timed = fold_job_timings(events).keys()
    left_out = len(folded - timed)
    if left_out:
        print(f"{left_out} of {len(folded | timed)} spool job(s) left out: "
              "their events were folded by compaction")
    return 0
