"""The package's public names: every entry of ppinv.__all__ is importable, so
a retired function cannot leave a stale export behind."""

import ppinv


def test_all_names_resolve():
    missing = [name for name in ppinv.__all__ if not hasattr(ppinv, name)]
    assert not missing, missing


def test_star_import_succeeds():
    namespace = {}
    exec("from ppinv import *", namespace)
    assert set(ppinv.__all__) <= set(namespace)
