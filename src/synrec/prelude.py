"""Access to the bundled template library (recursiveReplacer, rcons, field)."""

from __future__ import annotations

from importlib import resources

# how diagnostics name the bundled library
PRELUDE = "<prelude>"


def prelude_text() -> str:
    return resources.files("synrec").joinpath("data/prelude.synrec").read_text()
