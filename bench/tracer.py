"""The traced form of ``python -m bstar.cli``, for one command::

    python3 bench/tracer.py SPANS_OUT COMMAND_ID -- check named:cycle:32

It times ``import bstar.cli``, installs the wrappers of ``spans.Tracer``
on the imported bstar modules, calls ``bstar.cli.main`` with the given
arguments and, when the command ends, writes its spans to SPANS_OUT.
"""

# Only importlib, sys and time are loaded before `import bstar.cli` is
# timed.  A module loaded earlier (the tracer's own, or `statistics`,
# which pulls in `fractions`, `decimal` and `random`) would take its load
# time out of cli.import_s whenever bstar needs it too.
import importlib
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_OUT COMMAND_ID -- <bstar arguments>",
              file=sys.stderr)
        return 2
    out_path, command_id, cli_args = argv[0], argv[1], argv[3:]
    start = time.perf_counter()
    cli = importlib.import_module("bstar.cli")
    import_s = time.perf_counter() - start
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path, command_id, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
