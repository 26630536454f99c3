"""Launch ``repro serve`` for the ``eco-session`` workload.

Runs the daemon in this process through ``repro.cli.main(["serve", ...])``
-- the same code path as the ``repro serve`` command -- with the
benchmark's span wrappers installed first when tracing.  When the daemon
has drained (SIGTERM) it writes its spans and the peak resident memory of
itself and of its reaped pool workers to ``OUT``.

``repro serve`` runs its SIGTERM handler, ``TimingServer.stop()``, on the
main thread, where it waits up to ten seconds for ``serve_forever`` --
blocked on that same thread -- to return.  The launcher runs the handler
on a helper thread instead, so a drained daemon exits within a poll
interval and a run does not idle ten seconds per daemon.

Usage (``session.py`` starts it; ``PYTHONPATH`` must reach ``src``)::

    python perfbench/daemon.py TRACE OUT SERVE_ARG...
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import threading

import spans


def _handlers_on_threads(stoppers: list):
    """A ``signal.signal`` that runs each installed handler on a new thread."""
    install = signal.signal

    def threaded_install(signum, handler):
        if not callable(handler):
            return install(signum, handler)

        def on_signal(num, frame):
            thread = threading.Thread(target=handler, args=(num, frame))
            stoppers.append(thread)
            thread.start()

        return install(signum, on_signal)

    return threaded_install


def main(argv: list[str]) -> int:
    trace, out, serve_args = argv[0], argv[1], argv[2:]
    import repro.cli

    recorder = None
    if trace == "1":
        import repro.serve  # noqa: F401 - load every module before wrapping

        recorder = spans.Recorder()
        spans.install(recorder)
    stoppers: list[threading.Thread] = []
    signal.signal = _handlers_on_threads(stoppers)
    code = repro.cli.main(["serve", *serve_args])
    for thread in stoppers:
        thread.join()
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    with open(out, "w") as fp:
        json.dump({
            "exit_code": code,
            "peak_rss_mb": peak_kb / 1024,
            "trace": recorder.dump() if recorder is not None else None,
        }, fp)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
