"""README's Quickstart and "Describe and rebuild a run" are executed, so
they cannot rot.

The python fence under ``## Quickstart`` runs verbatim except for its round
count, which is cut from the paper's 100 to keep tier-1 short; the one
under ``## Describe and rebuild a run`` runs verbatim.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
ROUNDS = 3


def fence(heading: str) -> str:
    """The first python fence under ``## heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def run(code: str, name: str) -> dict:
    namespace: dict = {}
    exec(compile(code, f"README.md#{name}", "exec"), namespace)
    return namespace


def test_quickstart_fence_runs_as_written(capsys):
    code = fence("Quickstart")
    assert code.count("num_rounds=100") == 1, "the reduced round count must apply"
    namespace = run(code.replace("num_rounds=100", f"num_rounds={ROUNDS}"), "quickstart")
    assert len(namespace["history"].records) == ROUNDS
    loss, accuracy = (float(x) for x in capsys.readouterr().out.split())
    assert math.isfinite(loss) and 0.0 <= accuracy <= 1.0


def test_describe_and_rebuild_fence_runs_as_written():
    namespace = run(fence("Describe and rebuild a run"), "describe-and-rebuild-a-run")
    assert namespace["manifest"]["trainer_config"]["engine"]["mode"] == "cohort"
