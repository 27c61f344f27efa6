"""The README's library quickstart runs as written against the package."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_source() -> str:
    """The first python block under the "Library quickstart" heading."""
    text = README.read_text()
    section = text[text.index("## Library quickstart") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_readme_quickstart_runs(capsys):
    source = quickstart_source()
    assert "priors=" in source and "independent_params_efim(" in source
    exec(compile(source, str(README), "exec"), {"__name__": "readme_quickstart"})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2
    assert all(math.isfinite(float(value)) and float(value) > 0 for value in printed)
