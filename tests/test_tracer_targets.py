"""The benchmark tracer's targets must exist in the program.

``perfbench/tracer.py`` wraps named pvprof functions from the outside; a
renamed or deleted target would otherwise surface only in a benchmark run.
"""

import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(REPO, "perfbench"))
    import tracer

    tracer.resolve_targets()  # raises TracerError naming any missing target
