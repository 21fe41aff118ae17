"""Child processes of the benchmark.

    python3 perfbench/child.py setup --seed S
        runs ``run.set_up`` (import ehvi, make the inputs) in a fresh
        interpreter and prints its raw and scaled seconds.
    python3 perfbench/child.py cli --spans FILE -- ARGS...
        runs ``ehvi.cli.main(ARGS)`` with tracing installed and writes the
        spans to FILE; stdout and the exit code are the CLI's own.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str]) -> int:
    if argv[:2] == ["setup", "--seed"] and len(argv) == 3:
        from run import Clock, set_up

        _, _, _, raw, scaled = set_up(Clock(), int(argv[2]), trace=False)
        print(repr(raw), repr(scaled))
        return 0
    if argv[:2] == ["cli", "--spans"] and len(argv) > 4 and argv[3] == "--":
        start = time.perf_counter_ns()
        sys.path.insert(0, str(SRC))
        import ehvi.cli  # what `python -m ehvi` imports

        end = time.perf_counter_ns()
        from spans import Tracer, import_ehvi

        tracer = Tracer()
        tracer.record("cli.import", start, end)
        tracer.install(import_ehvi(SRC))
        try:
            with tracer.span("cli.main"):
                code = ehvi.cli.main(argv[4:])
        finally:
            tracer.uninstall()
            Path(argv[2]).write_text(tracer.to_json(), encoding="utf-8")
        return code
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
