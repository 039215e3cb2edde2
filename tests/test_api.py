"""The package's public surface: ``__all__`` is exact and star-importable."""

from __future__ import annotations

import qfeedback


def test_star_import_resolves_every_public_name() -> None:
    namespace: dict = {}
    exec("from qfeedback import *", namespace)
    names = qfeedback.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert namespace[name] is getattr(qfeedback, name)
    assert "modified_forms" not in names and not hasattr(qfeedback, "modified_forms")
