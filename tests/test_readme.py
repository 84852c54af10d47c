"""The README's library quickstart runs as written."""

import os
import re

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_library_quickstart_runs():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md quickstart", "exec"), namespace)
    assert namespace["result"].converged
    assert len(namespace["forecast"]) == len(namespace["series"])
