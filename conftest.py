"""Repository-level pytest configuration.

Makes the ``src`` layout importable even when the package has not been
installed (e.g. running ``pytest`` straight from a fresh checkout in an
offline environment), and registers the ``--update-goldens`` flag the
explain() snapshot tests use and the ``--record-results`` flag that lets the
benchmark suite write ``benchmarks/results/`` (options must be registered by
a conftest pytest loads at start-up, which ``benchmarks/conftest.py`` is not
when pytest runs from the repository root).
"""

import sys
from pathlib import Path

SRC = Path(__file__).parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden explain() snapshot files instead of asserting",
    )
    parser.addoption(
        "--record-results",
        action="store_true",
        default=False,
        help="let the benchmark suite write benchmarks/results/ "
             "(also enabled by REPRO_BENCH_RECORD=1); off, a run leaves the tree clean",
    )
