"""Run one tmodext command in this fresh interpreter and report on it.

Usage: python3 -I -S cli_child.py TRACE ARGV_JSON

Times `import tmodext.cli` and `cli.main(argv)` inside this process, so the
interpreter's own start-up is not part of either, and probes the machine's
speed before and after them (see speed.py).  Prints one JSON object: exit
code (or the exception that escaped `main`), captured stdout and stderr,
both times, the speed factor, peak RSS, and with TRACE=1 the tracer's raw
counters and spans.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# Half-length probes keep a child's start-up short.
PROBE_SHARE = 0.5


def peak_rss_kb():
    """Peak resident memory of this process since its exec.

    ru_maxrss is not used: on Linux it keeps the parent's peak across
    fork and exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    trace = sys.argv[1] == "1"
    argv = json.loads(sys.argv[2])
    sys.path.insert(0, HERE)
    from speed import probe, speed_factor
    sys.path.insert(0, SRC)
    before = probe(PROBE_SHARE)
    t0 = time.perf_counter()
    import tmodext.cli as cli
    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    code = raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t1 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - an escape is the finding
            raised = type(exc).__name__
        main_s = time.perf_counter() - t1
    if tracer is not None:
        tracer.uninstall()
    factor = speed_factor(before, probe(PROBE_SHARE))
    report = {
        "code": code,
        "raised": raised,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "import_s": import_s,
        "main_s": main_s,
        "speed_factor": factor,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        report["raw"] = dict(tracer.raw)
        report["trace"] = tracer.dump()
    sys.stdout.write(json.dumps(report))


if __name__ == "__main__":
    main()
