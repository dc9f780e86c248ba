"""The ``REPRO_*`` environment-variable inventory of the library.

Every environment knob is a configuration someone has to test and
document.  This test pins the exact set the library reads, so a change
that adds (or removes) a variable must also edit :data:`KNOBS`, in
plain sight.
"""

import pathlib
import re

#: Every ``REPRO_*`` name that appears anywhere under ``src/repro``,
#: sorted.
KNOBS = [
    "REPRO_JOBS",
    "REPRO_MONITOR_ATOL_J",
    "REPRO_SCALE",
    "REPRO_START_METHOD",
    "REPRO_STORE",
]

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def test_knob_inventory_is_pinned():
    found = set()
    for path in SRC.rglob("*.py"):
        found.update(re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8")))
    assert KNOBS == sorted(set(KNOBS))
    assert sorted(found) == KNOBS
