"""README's library example names only what the package exports."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_use_imports_run():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    exec(compile(block, f"{README.name} (Library use)", "exec"), {})
