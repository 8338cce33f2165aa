"""``repro-serve`` — run the mapping daemon from the command line.

Serves until SIGTERM/SIGINT or a ``POST /shutdown``, then exits 0 after a
clean drain. Examples::

    repro-serve --port 8177 --jobs 4
    repro-serve --port 0 --cache-dir /var/cache/repro   # ephemeral port
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from pathlib import Path

from repro.service.daemon import ServiceConfig
from repro.service.http import serve
from repro.utils.validation import finite_float

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Mapping-as-a-service daemon over MappingEngine with a "
                    "content-addressed result cache (see docs/SERVICE.md).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8177,
                        help="listen port; 0 binds an ephemeral port")
    parser.add_argument("--jobs", type=int, default=1,
                        help="process-pool workers (0 = in-process threads)")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="queued misses before 429 backpressure")
    parser.add_argument("--batch-size", type=int, default=8,
                        help="max requests per worker batch")
    parser.add_argument("--timeout", type=finite_float, default=30.0,
                        help="per-request wall bound in seconds (0 disables)")
    parser.add_argument("--cache-entries", type=int, default=1024,
                        help="in-memory result-cache capacity")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="optional on-disk result-cache directory")
    parser.add_argument("--retry-after", type=finite_float, default=1.0,
                        help="seconds advertised in 429 Retry-After")
    return parser


async def _amain(args) -> None:
    config = ServiceConfig(
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        batch_size=args.batch_size,
        timeout=None if args.timeout <= 0 else args.timeout,
        cache_entries=args.cache_entries,
        cache_dir=args.cache_dir,
        retry_after=args.retry_after,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(sig, stop.set)
    ready = loop.create_future()

    async def _announce() -> None:
        host, port = await ready
        print(f"repro-serve listening on http://{host}:{port} "
              f"(jobs={config.jobs}, queue_limit={config.queue_limit})",
              flush=True)

    announce = asyncio.create_task(_announce())
    await serve(config, args.host, args.port, ready=ready, stop=stop)
    await announce
    print("repro-serve: clean shutdown", flush=True)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.queue_limit < 1 or args.batch_size < 1 or args.cache_entries < 1:
        build_parser().error("--queue-limit/--batch-size/--cache-entries must be >= 1")
    if args.jobs < 0:
        build_parser().error("--jobs must be >= 0")
    try:
        asyncio.run(_amain(args))
    except KeyboardInterrupt:
        print("repro-serve: interrupted, shut down", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
