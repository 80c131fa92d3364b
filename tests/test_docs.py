import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n.*?```python\n(.*?)```", text, re.S)
    # Pad with the lines before the block, so tracebacks give README lines.
    code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["solution"].converged
