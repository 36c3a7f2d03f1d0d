"""Child process of the benchmark: one ``hyprelax`` CLI command, timed.

Usage: ``python3 bench/probe.py RECORD MODE TRACE -- CLI_ARGS...``, run from
the root of a hyprelax checkout.  ``MODE`` is ``full`` (run the command to
the end) or ``setup`` (stop at the first call of
``FrequencySplitter.decompose``); ``TRACE`` is ``1`` to install the
per-layer hooks of :mod:`tracing`.

The probe times ``import hyprelax.cli``, installs the single setup boundary
hook (and the layer hooks when tracing), calls ``hyprelax.cli.main`` with
``CLI_ARGS`` and exits with its code, like the installed ``hyprelax`` script.
An exception escaping ``main`` still ends the process with a traceback and
code 1.  Times are ``time.monotonic()`` readings, which share one clock with
the parent process.  The record (JSON) is written even when ``main`` raises.
"""

import json
import os
import resource
import sys
import time


class SetupReached(BaseException):
    """Raised at the setup boundary in ``setup`` mode; not an error."""


def main() -> int:
    record_path, mode, trace, separator, *cli_args = sys.argv[1:]
    if separator != "--" or mode not in ("full", "setup") or trace not in ("0", "1"):
        raise SystemExit("usage: probe.py RECORD full|setup 0|1 -- CLI_ARGS...")
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    start = time.perf_counter()
    import hyprelax.cli

    record = {"import_s": time.perf_counter() - start, "first_work": None}

    import tracing

    def boundary(decompose):
        def first_call(*args, **kwargs):
            if record["first_work"] is None:
                record["first_work"] = time.monotonic()
                if mode == "setup":
                    raise SetupReached
            return decompose(*args, **kwargs)

        return first_call

    tracing.replace("spectral", "FrequencySplitter.decompose", boundary)
    tracer = None
    if trace == "1":
        tracer = tracing.Tracer()
        tracing.install(tracer)

    code = None
    try:
        record["main"] = time.monotonic()
        try:
            code = hyprelax.cli.main(cli_args)
        except SetupReached:
            code = 0
    finally:
        record["exit"] = code
        record["layers"] = tracer.totals if tracer is not None else None
        record["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(record_path, "w") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
