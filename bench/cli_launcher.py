"""Traced CLI entry: ``python cli_launcher.py SPANS_PATH PASS_ID <llcopula args>``.

Installs the benchmark's wrappers, runs ``llcopula.cli.main`` with the
remaining arguments, writes the spans when the command ends and exits with
the command's exit code.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402

import llcopula.cli  # noqa: E402


def main() -> int:
    spans_path, pass_id, *argv = sys.argv[1:]
    tracer = Tracer()
    tracer.pass_id = int(pass_id)
    tracer.install()
    try:
        return llcopula.cli.main(argv)
    finally:
        tracer.uninstall()
        os.makedirs(os.path.dirname(spans_path) or ".", exist_ok=True)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
