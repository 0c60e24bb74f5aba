"""Trace tooling from the command line.

Usage::

    python -m repro.trace corpus [DIR] [NAME...]   # regenerate fixtures
    python -m repro.trace capture APP -o FILE [-n N] [--graph G]
    python -m repro.trace replay FILE [--backend B ...]
    python -m repro.trace show FILE

``corpus`` rewrites the checked-in fixtures (default ``tests/corpus``);
review the diff before committing, exactly like ``make loc-budget``.
A file that is missing, unreadable or malformed prints ``error: ...``
to stderr and exits 2.
"""

import argparse
import sys

from repro.trace.format import TraceDocument, TraceFormatError
from repro.trace.replay import REPLAY_BACKENDS, TraceReplayHarness


def _cmd_corpus(args):
    from repro.trace.corpus import CORPUS_ENTRIES, build_corpus

    names = args.names or None
    unknown = [n for n in (names or []) if n not in CORPUS_ENTRIES]
    if unknown:
        print(
            f"unknown corpus entries {unknown}; "
            f"known: {CORPUS_ENTRIES.names()}",
            file=sys.stderr,
        )
        return 2
    for name, path in build_corpus(args.directory, names):
        print(f"wrote {path}")
    print("review the diff before committing (for fixtures, the diff "
          "is the review)")
    return 0


def _cmd_capture(args):
    from repro.trace.corpus import (
        CORPUS_CONFIG,
        app_stream,
        generative_stream,
        record_stream,
    )

    if args.app == "generative":
        stream = generative_stream(args.graph, args.tasks)
    else:
        stream = app_stream(args.app, args.tasks)
    document = record_stream(stream, app=args.app, config=CORPUS_CONFIG)
    document.dump(args.output)
    print(f"captured {document.num_tasks} tasks -> {args.output} "
          f"(decisions {document.footer['decisions_digest']})")
    return 0


def _cmd_replay(args):
    document = TraceDocument.load(args.file)
    failed = False
    for backend in args.backend or list(REPLAY_BACKENDS):
        verdict = TraceReplayHarness(document, backend=backend).run()
        print(verdict.summary())
        failed = failed or not verdict.matched
    return 1 if failed else 0


def _cmd_show(args):
    document = TraceDocument.load(args.file)
    header, footer = document.header, document.footer
    regions = sum(1 for _ in document.topology())
    print(f"app:            {header.get('app')}")
    print(f"session:        {header.get('session_id')} "
          f"({header.get('backend')})")
    print(f"schema:         {header['format']} v{header['version']}")
    print(f"tasks:          {footer['tasks']}")
    print(f"topology:       {regions} region/partition records")
    print(f"stream digest:  {footer['stream_digest']}")
    print(f"decisions:      {footer['decisions_digest']}")
    for key, value in sorted(footer["gauges"].items()):
        print(f"  {key}: {value}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m repro.trace",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    corpus = sub.add_parser("corpus", help="regenerate checked-in fixtures")
    corpus.add_argument("directory", nargs="?", default="tests/corpus")
    corpus.add_argument("names", nargs="*",
                        help="subset of fixtures to regenerate")
    corpus.set_defaults(func=_cmd_corpus)

    capture = sub.add_parser("capture", help="capture one app's stream")
    capture.add_argument("app")
    capture.add_argument("-o", "--output", required=True)
    capture.add_argument("-n", "--tasks", type=int, default=360)
    capture.add_argument("--graph", default="baseline",
                         help="phase graph (generative app only)")
    capture.set_defaults(func=_cmd_capture)

    replay = sub.add_parser("replay", help="re-drive a trace file")
    replay.add_argument("file")
    replay.add_argument("--backend", action="append",
                        help="repeatable; default: all backends")
    replay.set_defaults(func=_cmd_replay)

    show = sub.add_parser("show", help="summarize a trace file")
    show.add_argument("file")
    show.set_defaults(func=_cmd_show)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TraceFormatError, OSError) as exc:
        # A malformed or unreadable file is the user's input, not a bug.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
