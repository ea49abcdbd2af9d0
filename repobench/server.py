"""The ``repro serve`` HTTP server in its own process, for ``service_mix``.

It builds the server with :func:`repro.service.http.make_server`, the
same call ``repro serve`` makes, binds an ephemeral port and prints
``{"port": N}``.  It then reads one command per line on stdin and
answers each with one JSON line on stdout:

``trace on``
    put spans around ``Engine.handle``, ``Engine.request_key``, the
    handler's ``do_POST`` and the library layers below them;
``trace off``
    remove them and return the spans recorded;
``stop``
    shut down and return the process's peak resident memory.

End of input also stops the server.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service.http import make_server  # noqa: E402

from tracing import LAYER_SPANS, Patches, Tracer, patch_functions, traced  # noqa: E402


def _reply(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def _trace(server, tracer: Tracer) -> Patches:
    patches = Patches()
    handler = server.RequestHandlerClass
    do_post = handler.do_POST

    def traced_post(self) -> None:
        tracer.set_op(self.headers.get("X-Bench-Op") or None)
        index = tracer.begin("service.http.server")
        try:
            do_post(self)
        finally:
            tracer.end(index)

    patches.replace(handler, "do_POST", traced_post)
    engine_cls = type(server.engine)
    patches.replace(
        engine_cls, "handle",
        traced(tracer, "service.engine", engine_cls.handle, lambda a, k, r: {"cache": r.cache}),
    )
    patches.replace(
        engine_cls, "request_key", traced(tracer, "service.engine.key", engine_cls.request_key)
    )
    patch_functions(tracer, LAYER_SPANS, patches)
    return patches


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-entries", type=int, required=True)
    args = parser.parse_args()
    server = make_server("127.0.0.1", 0, workers=1, cache_entries=args.cache_entries)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _reply({"port": server.server_address[1]})
    tracer: Tracer | None = None
    patches: Patches | None = None
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on" and patches is None:
                tracer = Tracer()
                patches = _trace(server, tracer)
                _reply({"ok": True})
            elif command == "trace off" and patches is not None:
                patches.undo()
                patches = None
                _reply({"spans": [span.as_list() for span in tracer.spans]})
            elif command == "stop":
                break
            else:
                _reply({"error": f"unexpected command {command!r}"})
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
    _reply({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})


if __name__ == "__main__":
    main()
