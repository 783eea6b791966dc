"""``python -m repro.trace`` — capture, inspect, transform and replay traces.

Subcommands::

    record     capture a registry workload to an .rtrace file
    info       print a trace's metadata, lineage and per-core statistics
    transform  derive a new trace: slice / interleave / remap / scale / filter
    replay     simulate a trace against a scheme and print the result summary

The ``trace:<path>`` workload form accepted by ``repro.campaign`` and the
figure functions resolves the same files, so a typical workflow is: capture
once here, then sweep the file through campaigns by name.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.trace.capture import record_named
from repro.trace.format import TraceMeta, TraceReader
from repro.trace.transform import (
    DEFAULT_SLICE_BYTES,
    filter_accesses,
    interleave_traces,
    remap_cores,
    scale_footprint,
    slice_trace,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Binary trace capture, transform and replay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="capture a registry workload to an .rtrace file")
    record.add_argument("--workload", required=True,
                        help="registry workload name, e.g. gcc or pagerank "
                             "(an unknown name lists them all)")
    record.add_argument("--output", required=True, help="output .rtrace path")
    record.add_argument("--records", type=int, default=10000, help="records per core (default 10000)")
    record.add_argument("--cores", type=int, default=2, help="simulated cores (default 2)")
    record.add_argument("--scale", type=float, default=1.0, help="footprint scale (default 1.0)")
    record.add_argument("--seed", type=int, default=1, help="RNG seed (default 1)")
    record.add_argument("--page-size", type=int, default=4096, help="page size in bytes (default 4096)")
    record.add_argument("--compress", action="store_true", help="zlib-compress the record streams")

    info = sub.add_parser("info", help="print a trace's metadata and statistics")
    info.add_argument("trace", help=".rtrace path")
    info.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    transform = sub.add_parser("transform", help="derive a new trace from existing ones")
    ops = transform.add_subparsers(dest="operation", required=True)

    def common(op: argparse.ArgumentParser, single_input: bool = True) -> None:
        if single_input:
            op.add_argument("--input", required=True, help="source .rtrace path")
        op.add_argument("--output", required=True, help="output .rtrace path")
        op.add_argument("--name", help="workload name of the output (default: derived)")
        op.add_argument("--compress", action="store_true", help="zlib-compress the output")

    op = ops.add_parser("slice", help="truncate by record and/or instruction count")
    common(op)
    op.add_argument("--records", type=int, help="max records per core")
    op.add_argument("--instructions", type=int, help="max instructions per core")

    op = ops.add_parser("interleave",
                        help="combine traces into a multi-programmed mix (one output "
                             "core per input stream, each rebased into its own slice)")
    op.add_argument("--inputs", required=True, nargs="+", help="source .rtrace paths")
    common(op, single_input=False)
    op.add_argument("--slice-bytes", type=int, default=DEFAULT_SLICE_BYTES,
                    help=f"address-slice stride per core (default {DEFAULT_SLICE_BYTES})")
    op.add_argument("--no-rebase", action="store_true", help="keep original addresses")

    op = ops.add_parser("remap", help="reorder/duplicate/drop core streams")
    common(op)
    op.add_argument("--cores", required=True, nargs="+", type=int,
                    help="source stream per output core, e.g. --cores 0 0 1")

    op = ops.add_parser("scale", help="scale the page-level footprint")
    common(op)
    op.add_argument("--factor", required=True, type=float,
                    help="footprint factor (<1 folds pages together, >1 spreads them)")

    op = ops.add_parser("filter", help="keep only reads or only writes")
    common(op)
    op.add_argument("--keep", required=True, choices=("reads", "writes"))

    replay = sub.add_parser("replay", help="simulate a trace and print the result summary")
    replay.add_argument("trace", help=".rtrace path")
    replay.add_argument("--scheme", default="banshee",
                        help="scheme or variant name (default banshee)")
    replay.add_argument("--preset", choices=("tiny", "scaled", "paper"), default="scaled",
                        help="system configuration preset (default scaled)")
    replay.add_argument("--records", type=int,
                        help="records per core (default: everything the trace holds)")
    replay.add_argument("--warmup", type=float, default=0.0,
                        help="warmup fraction in [0, 1) (default 0)")
    replay.add_argument("--seed", type=int, default=1, help="system RNG seed (default 1)")
    return parser


def _meta_lines(meta: TraceMeta, reader: TraceReader) -> List[str]:
    lines = [
        f"workload:     {meta.name}",
        f"cores:        {meta.num_cores}",
        f"page size:    {meta.page_size}",
        f"mlp:          {meta.mlp}",
        f"seed:         {meta.seed}",
        f"compressed:   {meta.compressed}",
        f"digest:       {reader.digest}",
        f"records:      {meta.stats.get('records', 0)} "
        f"(per core: {', '.join(str(n) for n in meta.records_per_core)})",
        f"instructions: {meta.stats.get('instructions', 0)}",
        f"writes:       {meta.stats.get('writes', 0)} of "
        f"{meta.stats.get('reads', 0) + meta.stats.get('writes', 0)} accesses",
        f"footprint:    {meta.stats.get('unique_pages', 0)} pages "
        f"({meta.stats.get('footprint_bytes', 0) / (1 << 20):.1f} MB across cores)",
        f"source:       {json.dumps(meta.source, sort_keys=True)}",
    ]
    return lines


def cmd_record(args: argparse.Namespace, stream) -> int:
    meta = record_named(
        args.workload,
        args.output,
        records_per_core=args.records,
        num_cores=args.cores,
        scale=args.scale,
        seed=args.seed,
        page_size=args.page_size,
        compress=args.compress,
    )
    print(
        f"recorded {meta.stats['records']} records "
        f"({meta.num_cores} cores x {args.records}) of '{args.workload}' -> {args.output}",
        file=stream,
    )
    return 0


def cmd_info(args: argparse.Namespace, stream) -> int:
    reader = TraceReader(args.trace)
    if args.json:
        payload = {"meta": reader.meta.to_dict(), "digest": reader.digest, "path": args.trace}
        json.dump(payload, stream, indent=1, sort_keys=True)
        stream.write("\n")
    else:
        print(f"trace: {args.trace}", file=stream)
        for line in _meta_lines(reader.meta, reader):
            print(f"  {line}", file=stream)
    return 0


def cmd_transform(args: argparse.Namespace, stream) -> int:
    if args.operation == "slice":
        meta = slice_trace(args.input, args.output, records=args.records,
                           instructions=args.instructions, compress=args.compress, name=args.name)
    elif args.operation == "interleave":
        meta = interleave_traces(
            args.inputs, args.output, name=args.name,
            slice_bytes=None if args.no_rebase else args.slice_bytes,
            compress=args.compress,
        )
    elif args.operation == "remap":
        meta = remap_cores(args.input, args.output, args.cores,
                           compress=args.compress, name=args.name)
    elif args.operation == "scale":
        meta = scale_footprint(args.input, args.output, args.factor,
                               compress=args.compress, name=args.name)
    else:
        meta = filter_accesses(args.input, args.output, args.keep,
                               compress=args.compress, name=args.name)
    print(
        f"{args.operation}: wrote '{meta.name}' ({meta.num_cores} cores, "
        f"{meta.stats['records']} records) -> {args.output}",
        file=stream,
    )
    return 0


def cmd_replay(args: argparse.Namespace, stream) -> int:
    # Imported here so trace capture/transform/info work without pulling in
    # the whole simulator stack.
    from repro.dramcache.variants import available_scheme_names, is_known_scheme
    from repro.experiments.runner import run_simulation
    from repro.sim.config import SystemConfig
    from repro.trace.workload import TraceWorkload

    if not is_known_scheme(args.scheme):
        raise ValueError(
            f"unknown scheme/variant {args.scheme!r}; "
            f"available: {', '.join(available_scheme_names())}"
        )
    workload = TraceWorkload(args.trace)
    if args.preset == "tiny":
        config = SystemConfig.tiny(scheme=args.scheme, num_cores=workload.num_cores, seed=args.seed)
    elif args.preset == "scaled":
        config = SystemConfig.scaled_default(scheme=args.scheme, num_cores=workload.num_cores,
                                             seed=args.seed)
    else:
        config = SystemConfig.paper_default(scheme=args.scheme).with_overrides(
            num_cores=workload.num_cores, seed=args.seed
        )
    records = args.records if args.records is not None else workload.records_per_core
    if records > workload.records_per_core:
        raise ValueError(
            f"trace holds {workload.records_per_core} records per core, "
            f"{records} requested"
        )
    result = run_simulation(
        config, workload=workload, records_per_core=records, warmup_fraction=args.warmup
    )
    for key, value in result.summary().items():
        print(f"  {key:12s} {value}", file=stream)
    return 0


def main(argv: Optional[List[str]] = None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "record":
            return cmd_record(args, stream)
        if args.command == "info":
            return cmd_info(args, stream)
        if args.command == "transform":
            return cmd_transform(args, stream)
        return cmd_replay(args, stream)
    except (ValueError, OSError) as exc:
        # Bad names, missing/invalid files and out-of-range budgets are user
        # errors: report them as one line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
