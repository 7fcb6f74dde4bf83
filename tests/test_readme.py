"""README's Quickstart is executed, so it cannot rot.

The python fence under ``## Quickstart`` runs verbatim except for its round
count, which is cut from the paper's 100 to keep tier-1 short.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
ROUNDS = 3


def quickstart_fence() -> str:
    section = README.read_text().split("\n## Quickstart\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quickstart_fence_runs_as_written(capsys):
    code = quickstart_fence()
    assert code.count("num_rounds=100") == 1, "the reduced round count must apply"
    namespace: dict = {}
    exec(
        compile(
            code.replace("num_rounds=100", f"num_rounds={ROUNDS}"),
            "README.md#quickstart",
            "exec",
        ),
        namespace,
    )
    assert len(namespace["history"].records) == ROUNDS
    loss, accuracy = (float(x) for x in capsys.readouterr().out.split())
    assert math.isfinite(loss) and 0.0 <= accuracy <= 1.0
