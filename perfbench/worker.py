"""One benchmark invocation in a fresh process: import fedgela, call
`fedgela.cli.main(argv)` once, and write timings (and spans) as JSON.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC holds "src" (directory that contains the fedgela package), "argv",
"spans" (path to write the trace to, or null for an untraced run) and
"calibration" (the arguments of `calibrate.calibrate`).
The clock starts before the package import, so wall_s and setup_s include
it; peak RSS and CPU time are this process's own. An untraced run then
times `calibrate.calibrate` in the same process, after the program has
returned, as "cal_s".
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


class SetupProbe:
    """Times each experiment's set-up: from `run_federation` entry (or the
    process start, for the first) to its first `local_train` call."""

    def __init__(self, fedsim, start: float):
        self.setup_s = 0.0
        self._since = start
        run_federation, local_train = fedsim.run_federation, fedsim.local_train

        def probed_run_federation(*args, **kwargs):
            if self._since is None:
                self._since = time.perf_counter()
            return run_federation(*args, **kwargs)

        def probed_local_train(*args, **kwargs):
            if self._since is not None:
                self.setup_s += time.perf_counter() - self._since
                self._since = None
            return local_train(*args, **kwargs)

        fedsim.run_federation = probed_run_federation
        fedsim.local_train = probed_local_train


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    cpu0 = os.times()
    src = str(Path(spec["src"]).resolve())
    sys.path.insert(0, src)
    import fedgela.cli as cli
    from fedgela import fedsim

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"fedgela was imported from {cli.__file__}, not {src}")
    tracer = probe = None
    if spec["spans"]:
        from spans import Tracer   # this script's own directory is on sys.path

        tracer = Tracer()
        tracer.install()
    else:
        probe = SetupProbe(fedsim, start=T0)
    rc = cli.main(spec["argv"])
    wall = time.perf_counter() - T0
    cpu1 = os.times()
    result = {
        "rc": rc,
        "wall_s": wall,
        "setup_s": probe.setup_s if probe else None,
        "cpu_s": sum(cpu1[:4]) - sum(cpu0[:4]),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.dump(spec["spans"])
    else:
        from calibrate import calibrate   # this script's own directory

        result["cal_s"] = calibrate(*spec["calibration"])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
