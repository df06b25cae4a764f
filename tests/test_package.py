"""Package layout: no module of specproj reaches into another's private names,
and importing the package loads no third-party module but numpy.

A name with a leading underscore is private to the module that defines
it.  Each module is parsed with ast, and every name it takes from another
specproj module, by `from ... import` or as an attribute of an imported
specproj module, must be public; dunders such as __version__ are public.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specproj

PACKAGE_DIR = Path(specproj.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_imports(source: str) -> list[str]:
    """Private names a specproj module's source takes from the package."""
    tree = ast.parse(source)
    found = []
    modules = set()     # local names bound to specproj modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if node.level == 0 and root != "specproj":
                continue
            for alias in node.names:
                if is_private(alias.name):
                    found.append(alias.name)
                # `from . import models` binds a module
                if node.module in (None, "specproj"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "specproj":
                    found += [part for part in alias.name.split(".")
                              if is_private(part)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and is_private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_private_cross_module_imports(path):
    assert private_imports(path.read_text()) == []


@pytest.mark.parametrize("source, names", [
    ("from .models import exp_map, _dot\n", ["_dot"]),
    ("from specproj.kernels import _radial_terms as terms\n",
     ["_radial_terms"]),
    ("from . import models\nmodels._norm(x)\n", ["models._norm"]),
    ("import specproj._private\n", ["_private"]),
    ("from . import __version__\nfrom numpy import _globals\n", []),
], ids=["relative", "absolute-aliased", "module-attribute", "import",
        "dunder-and-foreign"])
def test_the_check_sees_private_names(source, names):
    assert private_imports(source) == names


def test_import_loads_no_third_party_module_but_numpy():
    # every CLI run pays the package's import time; count the top-level
    # modules that `import specproj, specproj.cli` adds in a fresh
    # interpreter beyond the standard library (site may load its own)
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import specproj, specproj.cli\n"
             "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
             "print(' '.join(sorted(new - set(sys.stdlib_module_names))))\n")
    path = os.pathsep.join([str(PACKAGE_DIR.parent),
                            os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.split() == ["numpy", "specproj"]
