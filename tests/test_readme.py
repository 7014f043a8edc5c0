"""README's Layout table follows the package's modules."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def layout_rows(readme):
    """The module names in the first column of README's Layout table."""
    section = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+\.py)` \|", section, flags=re.MULTILINE)


def test_layout_has_one_row_per_module():
    rows = layout_rows((ROOT / "README.md").read_text(encoding="utf-8"))
    modules = sorted(path.name
                     for path in (ROOT / "src" / "cagewarp").glob("*.py")
                     if path.name != "__init__.py")
    assert sorted(rows) == modules


def test_the_check_reads_the_layout_rows():
    readme = ("# x\n\n| `a.py` | not the layout |\n\n## Layout\n\n"
              "| module | what it holds |\n| --- | --- |\n"
              "| `cage.py` | cages |\n| `gone.py` | nothing |\n\n"
              "## Later\n\n| `b.py` | after it |\n")
    assert layout_rows(readme) == ["cage.py", "gone.py"]
