"""The documentation budget: ``DESIGN.md``'s length and ``CHANGES.md``'s lines.

Line count down is a goal of the design documents as much as of the code,
so it is a gate here: ``DESIGN.md`` may not grow past
:data:`DESIGN_LINES`, and every ``CHANGES.md`` line from
:data:`CHANGES_BUDGET_FROM` on (each one change, the older ones exempt)
fits in :data:`CHANGES_LINE_BYTES` bytes.  A change that shortens
``DESIGN.md`` lowers :data:`DESIGN_LINES` to the new count; raising either
limit needs a ``CHANGES.md`` line saying why.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``DESIGN.md``'s line count, as of the change that introduced this test.
DESIGN_LINES = 1814

#: Bytes one ``CHANGES.md`` line may hold, newline excluded.
CHANGES_LINE_BYTES = 2048

#: The first ``CHANGES.md`` line (1-based) the byte budget applies to.
CHANGES_BUDGET_FROM = 41


def test_design_stays_within_its_line_budget():
    lines = (ROOT / "DESIGN.md").read_text(encoding="utf-8").splitlines()
    assert len(lines) <= DESIGN_LINES, (
        f"DESIGN.md has {len(lines)} lines, its budget is {DESIGN_LINES}"
    )


def test_every_new_changes_line_fits_its_byte_budget():
    lines = (ROOT / "CHANGES.md").read_bytes().split(b"\n")
    over = [
        (number, len(line))
        for number, line in enumerate(lines, start=1)
        if number >= CHANGES_BUDGET_FROM and len(line) > CHANGES_LINE_BYTES
    ]
    assert over == [], f"(line, bytes) over {CHANGES_LINE_BYTES}: {over}"
