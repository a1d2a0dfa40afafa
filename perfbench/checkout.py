"""Locate the checkout and import the program from its ``src`` tree only."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "torusclass"


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the import path, or exit 2."""
    if not (PACKAGE / "__init__.py").is_file():
        _fail(f"no program source at {PACKAGE}")
    sys.path.insert(0, str(SRC))


def check_imported_from_checkout() -> None:
    """Exit 2 unless ``torusclass`` was imported from the checkout."""
    import torusclass

    if Path(torusclass.__file__).resolve().parent != PACKAGE:
        _fail(f"torusclass imported from {torusclass.__file__}, not {PACKAGE}")
