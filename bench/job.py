"""One CLI invocation in a fresh interpreter, timed from inside.

    python3 bench/job.py SPEC.json

SPEC holds ``src`` (the directory holding the ``ionquench`` package),
``result`` (where to write the result JSON), ``trace`` (record spans)
and ``argv`` (the CLI arguments, or null to time the import alone and
report the numeric environment).  The process exits with the CLI's
exit code, so a failing command is visible to the caller.
"""

import json
import platform
import resource
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import ionquench.cli as cli
    result = {"setup_s": time.perf_counter() - start}
    rc = 0
    if spec["argv"] is None:
        import numpy
        import scipy
        try:
            blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = f"{blas['name']} {blas.get('version', '')}".strip()
        except (TypeError, KeyError):
            blas = "unknown"
        result["env"] = {"python": platform.python_version(),
                         "numpy": numpy.__version__,
                         "scipy": scipy.__version__, "blas": blas}
    else:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer, install
            tracer = Tracer()
            install(tracer)
        start = time.perf_counter()
        rc = cli.main(spec["argv"])
        result["job_s"] = time.perf_counter() - start
        if tracer is not None:
            result["spans"] = tracer.spans
    result["rc"] = rc
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
