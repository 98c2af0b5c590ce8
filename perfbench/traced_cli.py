"""Run one ``diracindex`` command with span tracing on and write the spans at exit.

    python3 perfbench/traced_cli.py SPANS.json verify-all --out REPORT.json

The benchmark starts this in a fresh interpreter for each traced
``verify-all`` operation, so the traced run is as cold as the untraced one.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer  # noqa: E402


def main(argv):
    spans_path, command = argv[0], argv[1:]
    import diracindex.cli  # loads every diracindex module before wrapping

    tracer = Tracer()
    tracer.install()
    try:
        code = diracindex.cli.main(command)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1:]))
