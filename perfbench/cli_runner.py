"""Traced CLI process: installs spans, then calls ``rpt.cli.dispatch``.

Usage: ``cli_runner.py SPAWNED SPANS_FILE -- CLI_ARGS...`` where SPAWNED is
the CLOCK_MONOTONIC time at which the parent started this process. Exits with
the CLI's exit code and writes the spans and start-up times to SPANS_FILE.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    spawned, spans_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    t_import = time.monotonic()
    import rpt.cli

    import_s = time.monotonic() - t_import
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = rpt.cli.dispatch(argv)
    finally:
        tracer.uninstall()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "interpreter_start_s": T_START - float(spawned),
                    "import_s": import_s,
                    "span_sums": spans.summarize(tracer.spans),
                    "missing_wraps": sorted(tracer.missing),
                    "spans": tracer.spans,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
