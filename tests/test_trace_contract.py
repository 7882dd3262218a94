"""The benchmark's tracer patches smwsim functions by module attribute;
every attribute it names must exist where it looks, or a traced run fails."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_boundaries_exist():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    missing = [(owner.__name__, attr) for owner, attr, _ in
               spans._boundaries(spans.Tracer()) if attr not in owner.__dict__]
    assert missing == []
