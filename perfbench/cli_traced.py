"""Run the sigma-opt CLI under the span tracer and write the spans at exit.

Usage: python3 perfbench/cli_traced.py SPANS_JSON <sigma-opt arguments...>

The import of the CLI module (numpy, scipy, click and the package) is its own
span, ``cli.import``; the invocation is the span ``cli.main``.
"""

import sys
import time


def main():
    spans_path, args = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from sigma_opt import cli
    import_s = time.perf_counter() - t0

    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.spans.append(["cli.import", t0, t0 + import_s, -1, 0.0])
    code = 0
    sys.argv = ["sigma-opt", *args]
    try:
        with tracer.installed(), tracer.span("cli.main"):
            cli.main()
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.write(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
