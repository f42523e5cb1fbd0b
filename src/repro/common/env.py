"""The one parser of numeric ``REPRO_*`` environment knobs."""

from __future__ import annotations

import os


def env_number(name: str, default, floor, cast=int):
    """``max(floor, cast(value))`` of variable ``name``; ``default`` when
    it is unset, blank or malformed (a bad knob never crashes a run)."""
    raw = os.environ.get(name, "").strip()
    if raw:
        try:
            return max(floor, cast(raw))
        except ValueError:
            pass
    return default
