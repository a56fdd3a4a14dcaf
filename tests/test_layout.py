"""Package layout rules, checked on the source with ``ast``.

* No module imports a ``_``-prefixed name from another gvs module: what a
  module shares is public, so a private name can change without notice.
* The Gauss-Legendre rule comes from ``numpy`` in ``quadrature`` only; every
  other module takes its panels from ``quadrature.panel_rule``.
"""

import ast
from pathlib import Path

import gvs

SOURCES = sorted(Path(gvs.__file__).parent.glob("*.py"))


def _imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node, alias.name


def test_sources_found():
    assert {"quadrature.py", "suites.py"} <= {p.name for p in SOURCES}


def test_no_private_cross_module_imports():
    offenders = [
        f"{path.name}:{node.lineno} imports {name} from {'.' * node.level}{node.module or ''}"
        for path in SOURCES
        for node, name in _imports(path)
        if name.startswith("_") and not name.startswith("__")
        and (node.level > 0 or (node.module or "").split(".")[0] == "gvs")
    ]
    assert offenders == []


def test_leggauss_only_in_quadrature():
    users = {path.name for path in SOURCES for _, name in _imports(path) if name == "leggauss"}
    assert users == {"quadrature.py"}
