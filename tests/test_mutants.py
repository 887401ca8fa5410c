"""The mutation gate's entries stay applicable to the current source."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
mutants = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # dataclasses look it up
_spec.loader.exec_module(mutants)


def test_each_mutant_snippet_occurs_once_in_src():
    sources = {path.relative_to(ROOT).as_posix(): path.read_text() for path in (ROOT / "src").rglob("*.py")}
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names)) >= 15
    for m in mutants.MUTANTS:
        assert sources[m.path].count(m.snippet) == 1, m.name
        assert sum(text.count(m.snippet) for text in sources.values()) == 1, m.name
        assert m.replacement != m.snippet and m.reason, m.name
        assert m.tests and all((ROOT / t).is_file() for t in m.tests), m.name
