"""One benchmark job in a fresh interpreter: parse one CLI config and run it.

Usage (spawned by run.py, one process per job):

    python3 perfbench/worker.py ROOT CONFIG_JSON SEED RECORD_PATH [--setup-only] [--trace SPANS_PATH]

The worker imports tnkit from ROOT/src only, calls ``tnkit.cli.parse_config``
and ``tnkit.cli.run`` exactly as the console script does (the seed goes
through the same override as ``--seed``), and prints one JSON line: the
monotonic clock at the ``run`` call and after it returned, the process's
peak resident set size, and with ``--trace`` the per-layer summary.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _import_cli(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tnkit", "cli.py")):
        raise SystemExit(f"worker: no tnkit sources under {src}")
    sys.path.insert(0, src)
    import tnkit.cli

    if not os.path.abspath(tnkit.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"worker: imported tnkit from {tnkit.cli.__file__}, not from {src}")
    return tnkit.cli


def _peak_rss_kib() -> int:
    """High-water RSS of this process's own address space (VmHWM).

    ``ru_maxrss`` is no substitute on Linux: it survives fork and exec, so a
    worker would report at least its parent's resident size.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv: list[str]) -> int:
    root, config_text, seed, record_path = argv[:4]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    cli = _import_cli(root)
    tracer = None
    if spans_path is not None:
        from trace_layers import Tracer  # beside this script, on sys.path

        tracer = Tracer()
        tracer.install()

    cfg = cli.parse_config(config_text)
    cfg["seed"] = int(seed)
    cfg["output"]["path"] = record_path
    t_call = time.monotonic()
    if not setup_only:
        cli.run(cfg)
    t_done = time.monotonic()

    out = {
        "t_call": t_call,
        "t_done": t_done,
        "peak_rss_kib": _peak_rss_kib(),
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(spans_path, run_id=os.getpid())
        out["layers"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
