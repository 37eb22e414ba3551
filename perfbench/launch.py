"""Run a ``repro`` entry module with the benchmark's span tracer installed.

Usage::

    python perfbench/launch.py SPANS.json MODULE [ARG ...]

behaves like ``python -m MODULE ARG ...`` and writes the recorded spans
to ``SPANS.json`` when the module returns.  ``PERFBENCH_T0`` (a
``time.monotonic`` reading taken by the parent just before it started
this process) dates the process start, so the file also records the
start-up time up to the entry point's ``main``.
"""

from __future__ import annotations

import importlib
import os
import runpy
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402

#: The module each entry point imports before it does any work; importing
#: it here keeps that cost in the start-up time instead of the install.
_ENTRY_IMPORTS = {"repro.eval": "repro.eval.cli", "repro.serve": "repro.serve.daemon"}


def main() -> None:
    spans_path, module_name, *args = sys.argv[1:]
    t0 = float(os.environ["PERFBENCH_T0"])
    entry_module = importlib.import_module(_ENTRY_IMPORTS[module_name])

    tracer = tracing.Tracer()
    install_start = time.monotonic()
    bindings = tracing.install(tracer)
    marks = {"install_s": time.monotonic() - install_start, "bindings": bindings}
    entry_main = entry_module.main if module_name == "repro.eval" else None
    if entry_main is not None:
        def marked_main(*a, **kw):
            marks["main_entry"] = time.monotonic()
            return entry_main(*a, **kw)

        entry_module.main = marked_main

    sys.argv = [module_name] + args
    try:
        runpy.run_module(module_name, run_name="__main__", alter_sys=True)
    finally:
        tracer.dump(spans_path, t0=t0, **marks)


if __name__ == "__main__":
    main()
