import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    # the README's "Library sketch" block, run as written: its asserts hold
    text = README.read_text()
    blocks = re.findall(r"^## Library sketch\n\n```python\n(.*?)^```$", text, re.S | re.M)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], f"{README.name} (Library sketch)", "exec"), namespace)
    assert namespace["ev"].verdict == "AmbiguousFound"
    assert namespace["cert"] is not None
