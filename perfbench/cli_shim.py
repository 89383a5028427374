"""Traced stand-in for ``python -m liekernel`` in the cli_oneshot workload.

    python3 perfbench/cli_shim.py SPANS_FILE <liekernel arguments...>

Times the import, wraps the traced layers, runs ``liekernel.cli.main`` on the
arguments and writes the spans to SPANS_FILE before exiting with main's code.
"""

import sys
import time


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import liekernel.cli

    import_s = time.perf_counter() - t0
    from spans import Tracer

    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    code = liekernel.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(spans_file, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
