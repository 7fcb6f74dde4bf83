"""README's Quickstart and "Describe and rebuild a run" are executed, so
they cannot rot.

Both python fences run verbatim.  The Quickstart is README's first python
fence: 100 rounds of Synthetic(1,1) at 30 devices, a few seconds.  Running
it whole catches API drift an import scan misses (a renamed keyword, a
changed default).
"""

from __future__ import annotations

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
    assert code == re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    history = run(code, "quickstart")["history"]
    assert len(history.records) == 100
    loss, accuracy = (float(x) for x in capsys.readouterr().out.split())
    assert math.isfinite(loss) and loss < history.train_losses[0]
    assert 0.0 <= accuracy <= 1.0


def test_describe_and_rebuild_fence_runs_as_written():
    namespace = run(fence("Describe and rebuild a run"), "describe-and-rebuild-a-run")
    assert namespace["manifest"]["trainer_config"]["engine"]["mode"] == "cohort"
