"""Paths of the checkout the benchmark sits in.

Importing this module puts the checkout's `src/` first on `sys.path`, so
that `import wickstar` finds the engine built from this checkout, and
raises `MissingEngine` (an ImportError) when the checkout has no engine.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLED_CHARTS = SRC / "wickstar" / "charts"
BENCH_CHARTS = HERE / "charts"
LAYERS = ("expr", "chart", "weyl", "fedosov", "cli", "sampling")


class MissingEngine(ImportError):
    pass


if not (SRC / "wickstar" / "__init__.py").is_file():
    raise MissingEngine(f"no engine sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def chart_texts(names):
    """Chart documents by name: the benchmark's own charts, else bundled."""
    out = {}
    for name in names:
        path = BENCH_CHARTS / f"{name}.json"
        if not path.is_file():
            path = BUNDLED_CHARTS / f"{name}.json"
        out[name] = path.read_text()
    return out
