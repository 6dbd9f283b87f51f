"""``python -m repro serve`` with the service layers traced.

    python3 perfbench/serve_boot.py OUT.json serve --workers 1 --port 0

Installs the service-layer wrappers, runs the program's own CLI entry
point with the remaining arguments, and when the server shuts down
(SIGTERM) writes the recorded spans to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import layers
    from repro.__main__ import main as repro_main
    from tracer import Tracer

    tracer = Tracer()
    layers.install_service_layers(tracer)
    code = repro_main(argv)
    document = tracer.document()
    document["cache_hit_spans"] = tracer.state.get("cache_hit_spans", [])
    with open(out, "w") as handle:
        json.dump(document, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
