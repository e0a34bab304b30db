"""The package namespace."""

from types import ModuleType

import heislor


def test_all_exports_names_not_submodules():
    exported = {name: getattr(heislor, name) for name in heislor.__all__}
    assert not [name for name, value in exported.items() if isinstance(value, ModuleType)]
    assert {"classify", "codimension", "QSqrt3", "curvature_report"} <= set(exported)
