"""The README's Python examples import only names the package exports."""
import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_imports():
    """Every ``from tickzone import ...`` statement of the README's Python blocks."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    return [node for block in blocks for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom) and node.module == "tickzone"]


def test_every_name_the_readme_takes_from_tickzone_imports():
    imports = _readme_imports()
    names = [alias.name for node in imports for alias in node.names]
    # the quick start's six names and the tick-policy example's three
    assert len(names) >= 9
    for node in imports:
        exec(ast.unparse(node), {})
