"""The oracles stay independent of the closed forms they check.

poly.py (interpolation) and oracle.py must not import from family.py, and
special.py may take only NotPermutationError from it; otherwise a bug in
family.py could pass its own cross-check.
"""

import ast
from pathlib import Path

import pytest

import ppinv
from ppinv import oracle, verify

IMPORTS_FROM_FAMILY = {"poly": set(), "oracle": set(), "special": {"NotPermutationError"}}


def family_imports(module: str) -> set[str]:
    """Names a ppinv module imports from ppinv.family ("*" for the module itself)."""
    tree = ast.parse(Path(ppinv.__file__).with_name(f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.level and node.module == "family") or node.module == "ppinv.family":
                names |= {alias.name for alias in node.names}
            elif node.module in (None, "ppinv") and any(a.name == "family" for a in node.names):
                names.add("*")
        elif isinstance(node, ast.Import) and any(a.name == "ppinv.family" for a in node.names):
            names.add("*")
    return names


@pytest.mark.parametrize("module", sorted(IMPORTS_FROM_FAMILY))
def test_oracle_modules_do_not_import_family(module):
    assert family_imports(module) == IMPORTS_FROM_FAMILY[module]


def test_acceptance_oracle_lives_in_a_guarded_module():
    # the criterion-versus-bijectivity verdict counts images in oracle.py
    assert verify.bijection_mask is oracle.bijection_mask
