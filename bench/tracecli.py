"""Run one ``abmod`` CLI command under the tracer.

    python3 -X importtime bench/tracecli.py SUMMARY_PATH ARGS...

Behaves like ``python3 -m abmod.cli ARGS...`` (same stdout and exit code)
and writes the tracer's summary to SUMMARY_PATH and its spans to
SUMMARY_PATH + ".spans".
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from tracing import Tracer

    from abmod import cli

    tracer = Tracer().install()
    tracer.item = " ".join(argv)
    tracer.active = True
    try:
        code = cli.main(argv)
    finally:
        tracer.active = False
        sys.stdout.flush()
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)
        tracer.write_spans(summary_path + ".spans")
    return code


if __name__ == "__main__":
    sys.exit(main())
