"""``python -m repro.experiments.shard_worker`` — execute one grid shard.

The subprocess entrypoint launched once per shard by
:class:`repro.experiments.sharding.ShardedExecutor` (and launchable by any
external scheduler on the same host): it loads a serialized cell plan,
executes the cells of one shard — resuming every cell of the same plan
fingerprint already in the workspace's ``shards.sqlite`` journal — journals
each completed cell there and prints a one-line JSON summary (``computed``
/ ``resumed`` / ``from_cache`` counts) to stdout.

Exit status: 0 on success, 2 on configuration errors (bad plan file, shard
index out of range, unusable cache directory).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from ..exceptions import ReproError
from .grid import CellStore
from .sharding import load_plan, run_shard


def build_parser() -> argparse.ArgumentParser:
    """Argument parser of ``python -m repro.experiments.shard_worker``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.shard_worker",
        description="Execute one shard of a serialized experiment-grid plan.",
    )
    parser.add_argument(
        "--plan", required=True, metavar="FILE", help="plan file written by write_plan()"
    )
    parser.add_argument(
        "--shard-index",
        required=True,
        type=int,
        metavar="I",
        help="which shard of the plan to execute (0-based)",
    )
    parser.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="directory holding the shard journal (default: the plan file's directory)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="process-pool size for this shard's cells (default: 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="optional on-disk cell cache shared with other invocations",
    )
    parser.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        metavar="N",
        help="evict least-recently-used cache entries beyond N",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="B",
        help="evict least-recently-used cache entries beyond B total bytes",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="recompute every cell even when the journal already holds it",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Command-line entry point."""
    args = build_parser().parse_args(argv)
    cache = None
    try:
        plan = load_plan(args.plan)
        directory = Path(args.dir) if args.dir is not None else Path(args.plan).parent
        cache = CellStore.from_options(
            args.cache_dir,
            max_entries=args.cache_max_entries,
            max_bytes=args.cache_max_bytes,
        )
        result = run_shard(
            plan["cells"],
            plan["shards"],
            args.shard_index,
            directory,
            workers=args.workers,
            cache=cache,
            resume=not args.no_resume,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if cache is not None:
            cache.close()
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
