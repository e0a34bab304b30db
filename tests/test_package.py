"""The package namespace."""

import ast
import builtins
import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import heislor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_all_exports_names_not_submodules():
    exported = {name: getattr(heislor, name) for name in heislor.__all__}
    assert not [name for name, value in exported.items() if isinstance(value, ModuleType)]
    assert {"classify", "codimension", "QSqrt3", "curvature_report"} <= set(exported)


#: scripts a fresh interpreter runs to check what `import heislor` loads, and
#: that each curvature and orbit name loads its module when first read
IMPORT_BOUNDARY = {
    "classification-layer-only": """
import sys
import heislor
loaded = {"heislor.curvature", "heislor.orbits", "heislor.verification", "heislor.cli", "json"}
assert not loaded & set(sys.modules), loaded & set(sys.modules)
""",
    "cli-classification-layer-only": """
import sys
import heislor.cli
loaded = {"heislor.curvature", "heislor.orbits", "heislor.verification"}
assert not loaded & set(sys.modules), loaded & set(sys.modules)
""",
    "no-dataclasses-or-fractions": """
import sys
import heislor
loaded = {"dataclasses", "fractions", "decimal"}
assert not loaded & set(sys.modules), loaded & set(sys.modules)
""",
    "cli-no-dataclasses-or-fractions": """
import sys
import heislor.cli
loaded = {"dataclasses", "fractions", "decimal"}
assert not loaded & set(sys.modules), loaded & set(sys.modules)
""",
    "classify-no-dataclasses-or-fractions": """
import contextlib, io, json, os, sys, tempfile
import numpy as np
import heislor.cli
from heislor import act, aut_pattern, canonical_metric
rng = np.random.default_rng(0)
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    path = os.path.join(tmp, "metric.json")
    for lam, key in [(0, "0"), (1, "0"), (1, "1"), (2, "0"), (2, "sqrt3"), (2, "2")]:
        a = np.eye(6) + 0.3 * rng.standard_normal((6, 6)) * aut_pattern(6).mask
        gram = act(a, canonical_metric(lam, key, 6, backend="approx")[0]).gram
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": 6, "backend": "approx", "gram": gram.tolist()}, fh)
        for fmt in ("json", "csv", "text"):
            assert heislor.cli.main(["classify", "--input", path, "--format", fmt]) == 0
loaded = {"dataclasses", "fractions", "decimal"}
assert not loaded & set(sys.modules), loaded & set(sys.modules)
""",
    "qsqrt3-loads-fractions-on-use": """
import sys
import numpy as np
from heislor import QSqrt3
assert "fractions" not in sys.modules
x = QSqrt3.parse("1/2-3/4*sqrt3")
assert x.format() == "1/2-3/4*sqrt3" and QSqrt3.parse(x.format()) == x
from fractions import Fraction
assert type(x.a) is Fraction and type(x.b) is Fraction
assert hash(QSqrt3.parse("1/2")) == hash(Fraction(1, 2))
assert QSqrt3.coerce(np.int64(3)) == 3
triple = lambda y: (y._p, y._q, y._d)
assert triple(QSqrt3(Fraction(1, 3), np.int32(2))) == triple(QSqrt3(Fraction(1, 3), 2))
""",
    "orbit-name": """
import heislor
assert heislor.codimension is heislor.orbits.codimension
assert "codimension" in vars(heislor)
""",
    "curvature-name": """
import heislor
assert heislor.ricci_spectrum is heislor.curvature.ricci_spectrum
""",
    "from-import": """
from heislor import curvature_report
import heislor.curvature
assert curvature_report is heislor.curvature.curvature_report
""",
    "submodule": """
import types
import heislor
assert isinstance(heislor.orbits, types.ModuleType) and heislor.orbits.__name__ == "heislor.orbits"
""",
    "dir": """
import heislor
assert set(heislor.__all__) <= set(dir(heislor))
""",
    "unknown-name": """
import heislor
try:
    heislor.x
except AttributeError as exc:
    assert str(exc) == "module 'heislor' has no attribute 'x'", exc
else:
    raise AssertionError("heislor.x resolved")
""",
}


@pytest.mark.parametrize("script", IMPORT_BOUNDARY.values(), ids=IMPORT_BOUNDARY)
def test_import_boundary(script):
    env = dict(os.environ, PYTHONPATH=str(Path(heislor.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def _value_classes():
    """(instance, its repr, its fields) of each read-only value class."""
    from heislor.reduction import VerificationResult

    return [
        (
            heislor.CanonicalForm(lam=1, xi=heislor.QSqrt3(1, 0), n=5),
            "CanonicalForm(lam=1, xi=QSqrt3(1, 0), n=5)",
            ("lam", "xi", "n", "pair"),
        ),
        (
            VerificationResult(True, 0.0),
            "VerificationResult(ok=True, residual=0.0, detail='')",
            ("ok", "residual", "detail"),
        ),
        (heislor.aut_pattern(4), "BlockPattern(n=4)", ("n", "mask")),
        (heislor.Metric(np.eye(4)), "Metric(backend='approx')", ("gram", "backend")),
    ]


def test_value_classes_compare_by_value_and_keep_their_repr():
    """CanonicalForm, VerificationResult and BlockPattern compare and hash by their
    fields (BlockPattern by n alone) and only within their class."""
    from heislor.reduction import VerificationResult

    QSqrt3 = heislor.QSqrt3
    form = heislor.CanonicalForm(1, QSqrt3(1), 5)
    assert form == heislor.CanonicalForm(lam=1, xi=QSqrt3(1, 0), n=5)
    assert form != heislor.CanonicalForm(1, QSqrt3(1), 6) and form != (1, QSqrt3(1), 5)
    assert hash(form) == hash((1, QSqrt3(1), 5)) and form.pair == (1, "1") and form.xi_key == "1"
    result = VerificationResult(False, 0.5, "pattern")
    assert result == VerificationResult(ok=False, residual=0.5, detail="pattern")
    assert result != VerificationResult(False, 0.5)
    assert hash(result) == hash((False, 0.5, "pattern"))
    pattern = heislor.aut_pattern(4)
    assert pattern == heislor.BlockPattern(4, np.zeros((4, 4), dtype=bool))
    assert pattern != heislor.aut_pattern(5)
    assert hash(pattern) == hash((4,))
    assert [repr(value) for value, _, _ in _value_classes()] == [
        text for _, text, _ in _value_classes()
    ]


def test_metric_and_witness_compare_by_identity():
    """A Metric or Witness equals itself alone and hashes; comparing two grams or two
    chains entry by entry would raise on an array's truth value."""
    gram = np.diag([1.0, 1.0, 1.0, -1.0])
    metric = heislor.Metric(gram)
    assert metric == metric and hash(metric) == hash(metric)
    assert metric != heislor.Metric(gram.copy()) and metric != heislor.Metric(gram)
    assert metric != metric.to_approx()
    canonical, _ = heislor.canonical_metric(2, "sqrt3", 5)
    first, second = heislor.classify(canonical)[2], heislor.classify(canonical)[2]
    assert first == first and first != second and len({first, second}) == 2


@pytest.mark.parametrize("value, fields", [
    pytest.param(value, fields, id=type(value).__name__) for value, _, fields in _value_classes()
])
def test_frozen_value_classes_refuse_writes_and_copy(value, fields):
    """Each read-only class refuses a write or a delete, and copy and pickle rebuild it."""
    for write in (lambda: setattr(value, fields[0], None), lambda: delattr(value, fields[0])):
        with pytest.raises(AttributeError, match=f"field '{fields[0]}'"):
            write()
    for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and repr(twin) == repr(value)
        assert [repr(getattr(twin, f)) for f in fields] == [repr(getattr(value, f)) for f in fields]


#: the modules that raise each typed error, which keep it importable by its old path
ERROR_HOMES = {
    "liealg": ["DimensionTooSmall", "DimensionNotInteger"],
    "metrics": ["AsymmetricInput", "SingularMatrix", "WrongSignature", "NotARepresentative"],
    "reduction": [
        "ZeroVector", "NotInGLambda", "NegativeT", "NoTableMatch", "AmbiguousNearWall",
        "ClassificationMismatch", "NumericalBreakdown",
    ],
    "curvature": ["EvidenceFailure"],
    "orbits": ["OracleMismatch"],
}
#: exception classes that may live outside errors.py: QSqrt3.sqrt's, caught by its one caller
LOCAL_ERRORS = {("numerics.py", "SqrtOfNegative"), ("numerics.py", "SqrtUnsupportedExact")}


def test_old_error_paths_give_the_class_in_errors():
    from heislor import errors

    defined = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    assert defined == {name for names in ERROR_HOMES.values() for name in names}
    for module, names in ERROR_HOMES.items():
        home = importlib.import_module(f"heislor.{module}")
        assert [name for name in names if getattr(home, name) is not getattr(errors, name)] == []


def test_exception_classes_are_defined_in_errors():
    """errors.py imports nothing and defines every exception class of the package,
    apart from LOCAL_ERRORS; a class counts as one when a base is a builtin exception
    or a class of errors.py."""
    package = Path(heislor.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    errors_tree = trees.pop("errors.py")
    assert not [n for n in ast.walk(errors_tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    kinds = {n.name for n in ast.walk(errors_tree) if isinstance(n, ast.ClassDef)} | {
        name for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    elsewhere = {
        (name, node.name)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(getattr(base, "id", getattr(base, "attr", None)) in kinds for base in node.bases)
    }
    assert elsewhere == LOCAL_ERRORS


def _attribute_chain(node: ast.Attribute) -> list[str] | None:
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("script", ["sweep.py", "tables.py", "selftest.py"])
def test_benchmark_names_exist(script):
    """Every package name the benchmark imports or reads off a package alias resolves."""
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "heislor":
                    aliases[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "heislor":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, None)
                if value is None:  # a submodule not imported yet
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                aliases[alias.asname or alias.name] = value
    assert aliases
    missing = []
    for node in ast.walk(tree):
        chain = _attribute_chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in aliases:
            value = aliases[chain[0]]
            for name in chain[1:]:
                if not hasattr(value, name):
                    missing.append(".".join(chain))
                    break
                value = getattr(value, name)
    assert not missing


def test_small_float_literals_are_named_constants():
    """Every nonzero float literal below 1e-3 in the package is a module-level
    UPPER_CASE constant, so no threshold hides inline."""
    inline = []
    for path in sorted(Path(heislor.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = set()
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if all(isinstance(t, ast.Name) and t.id.isupper() for t in targets):
                named.update(id(sub) for sub in ast.walk(node.value))
        inline += [
            f"{path.name}:{node.lineno} {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-3
            and id(node) not in named
        ]
    assert not inline


def _module_level_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every module-level assignment, function and class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            out += [(sub.id, node.lineno) for sub in ast.walk(target) if isinstance(sub, ast.Name)]
    return out


def test_private_names_and_constants_are_read():
    """Every module-level _private name and UPPER_CASE constant in the package is
    read somewhere in it, so no helper or threshold outlives its last use."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(heislor.__file__).resolve().parent.glob("*.py"))
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [
        f"{name}:{line} {ident}"
        for name, tree in trees.items()
        for ident, line in _module_level_names(tree)
        if (ident.startswith("_") and not ident.startswith("__") or ident.isupper())
        and ident not in read
    ]
    assert not unread


def test_src_imports_are_read():
    """Every name a package module other than __init__.py imports is read in that module,
    so no import outlives its last use; `from __future__ import annotations` is a
    compiler directive, not a name."""
    package = Path(heislor.__file__).resolve().parent
    unread = []
    for path in sorted(p for p in package.glob("*.py") if p.name != "__init__.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unread.append(f"{path.name}:{node.lineno} {bound}")
    assert not unread


#: public names that may go unread in src/ and perfbench/: classify_by_invariants is
#: the documented independent classifier, kept to cross-check classify's pipeline, and
#: signature_of the checked signature of any symmetric matrix, where the package reads
#: the blocks of a gram its Metric checked through the unchecked metrics._signs
INDEPENDENT_ROUTES = {"classify_by_invariants", "signature_of"}


def _public_definitions(tree: ast.Module):
    """Every public module-level function and class, and every public method of a
    module-level class; dunders are private by their leading underscore."""
    for node in tree.body:
        yield node
        if isinstance(node, ast.ClassDef):
            yield from node.body


def test_public_functions_and_classes_are_read_outside_the_tests():
    """Every public module-level function and class of the package, and every public
    method of its classes, is read in a package module other than __init__.py or in a
    benchmark script, so no public helper lives on for the tests alone."""
    package = Path(heislor.__file__).resolve().parent
    readers = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    read = set()
    for path in [*readers, *PERFBENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(package.glob("*.py"))
        for node in _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read | INDEPENDENT_ROUTES
    ]
    assert not unread


#: the numpy.linalg functions whose LAPACK gufuncs _linalg's kernels call directly
LAPACK_WRAPPERS = {"inv", "eigh", "eigvalsh", "qr", "slogdet", "det"}


def _private_numpy(name: str) -> bool:
    """Whether a dotted name reads a private numpy module or name: a part after numpy or np
    with a single leading underscore, or numpy.linalg's _umath_linalg bound by name."""
    parts = name.split(".")
    private = any(part.startswith("_") and not part.startswith("__") for part in parts[1:])
    return parts[0] == "_umath_linalg" or parts[0] in ("numpy", "np") and private


def _lapack_uses(tree: ast.Module) -> list[str]:
    """numpy.linalg LAPACK wrappers and private numpy names as a module reads or imports them."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = _attribute_chain(node) or []
            wrapper = chain[-2:-1] == ["linalg"] and chain[-1] in LAPACK_WRAPPERS
            if wrapper or _private_numpy(".".join(chain)):
                uses.append(".".join(chain))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            uses += [
                f"{module}.{alias.name}"
                for alias in node.names
                if _private_numpy(f"{module}.{alias.name}")
                or module.startswith("numpy.linalg") and alias.name in LAPACK_WRAPPERS
            ]
        elif isinstance(node, ast.Import):
            uses += [alias.name for alias in node.names if _private_numpy(alias.name)]
    return uses


def test_lapack_calls_go_through_the_linalg_kernels():
    """numpy.linalg's _umath_linalg is the one private numpy name of the package, read by
    _linalg alone; no module reads numpy._core, and no other module calls a numpy.linalg
    LAPACK wrapper: every float LAPACK call is one of _linalg's kernels."""
    package = Path(heislor.__file__).resolve().parent
    uses = {
        path.name: _lapack_uses(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(package.glob("*.py"))
    }
    private = {name for name in uses.pop("_linalg.py") if _private_numpy(name)}
    assert "numpy.linalg._umath_linalg" in private
    assert not {name for name in private if "_umath_linalg" not in name.split(".")}
    assert not {name: found for name, found in uses.items() if found}


def _float_casts(tree: ast.Module) -> list[str]:
    """Each .astype(float) call, and each to_float call on a .gram attribute, as source."""
    casts = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            args = [*node.args, *(keyword.value for keyword in node.keywords)]
            astype = name == "astype" and any(getattr(a, "id", None) == "float" for a in args)
            gram = name == "to_float" and any(getattr(a, "attr", None) == "gram" for a in args)
            if astype or gram:
                casts.append(ast.unparse(node))
    return casts


def test_exact_arrays_cast_through_to_float_and_grams_through_float_gram():
    """src/ casts an exact array to float through _linalg.to_float alone, never with
    .astype(float), and a Metric's gram through metrics._float_gram alone, which refuses
    one outside the float range: no call hands a .gram to to_float."""
    package = Path(heislor.__file__).resolve().parent
    found = {
        path.name: _float_casts(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(package.glob("*.py"))
    }
    assert not {name: casts for name, casts in found.items() if casts}


#: the reduction's stacked and vector products, where ndarray.dot would contract other axes
MATMUL_SITES = {"_boost_t", "o11_normalize", "verify_witness"}


def test_reduction_multiplies_through_dot_and_matmul():
    """reduction.py has no @ operator: its 2-D products call ndarray.dot, which skips the
    matmul ufunc's dispatch for the same BLAS product (tests/test_linalg.py checks the
    bits), and each of its stacked and vector products calls np.matmul by name."""
    tree = ast.parse((Path(heislor.__file__).resolve().parent / "reduction.py").read_text())
    operators = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert not operators
    callers = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and _attribute_chain(node.func) == ["np", "matmul"]
    }
    assert callers == MATMUL_SITES
