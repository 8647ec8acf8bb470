"""Run the omld CLI with layer spans installed, then write the spans as JSON.

Usage: python3 traced_cli.py SPANS.json COMMAND [ARG...]
(the arguments after SPANS.json are those of ``python -m omld``).
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    out, *argv = sys.argv[1:]
    import omld.cli

    tracer = Tracer()
    tracer.install()
    try:
        return omld.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
