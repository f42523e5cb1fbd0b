"""Every ``REPRO_*`` knob the source names has a row in the knob table."""

import re
from pathlib import Path

import repro
from repro.common import env

_KNOB = re.compile(r"REPRO_[A-Z0-9_]+")


def _source_knobs():
    root = Path(repro.__file__).parent
    return {
        name
        for path in root.rglob("*.py")
        for name in _KNOB.findall(path.read_text(encoding="utf-8"))
    }


def _table_rows():
    return set(re.findall(r"^``(REPRO_[A-Z0-9_]+)``$", env.__doc__, re.M))


def test_knob_table_lists_exactly_the_source_knobs():
    assert _table_rows() == _source_knobs()
