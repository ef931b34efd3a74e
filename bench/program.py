"""Import the program from the sources of the checkout the benchmark sits in."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lineconsistency"


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on the path; exit if it is missing."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: program sources not found at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))


def check_origin(module) -> None:
    """Exit unless ``module`` was loaded from the checkout's sources."""
    if Path(module.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"error: {module.__name__} was imported from {module.__file__}")
