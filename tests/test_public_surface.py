"""Every name a module exports has a caller in the program, the bench or the scripts.

A name in the ``__all__`` of a ``src/cvnnlab/*.py`` module counts as called
when another module of the package, a file under ``bench/`` or one under
``scripts/`` imports it from that module, reads it as ``<module>.<name>``,
or names it to be patched as a ``(<module>, "<name>", ...)`` entry.  Tests
do not count: a helper that only its own tests use is not public.  KEEP
lists the few exported names that need no such caller, each with its reason.

The structure rules below hold where one module owns a decision: no line of
the files a rule names may match its regex.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cvnnlab"
CALLERS = [p for d in ("src/cvnnlab", "bench", "scripts") for p in sorted((ROOT / d).glob("*.py"))]

_RETURN_TYPE = "a return type: callers read its fields, not its name"
_CRITERION_5 = "acceptance criterion 5 runs Maurey sparsification on its own instances"
KEEP = {
    "LayerNorms": _RETURN_TYPE,
    "MaureyResult": _RETURN_TYPE,
    "CoverReport": _RETURN_TYPE,
    "SpearmanResult": _RETURN_TYPE,
    "MaureyInstance": _CRITERION_5,
    "maurey_sparsify": _CRITERION_5,
    "maurey_expectation_bound": _CRITERION_5,
    "jacobian_fields": "the oracle that the diagonal activation paths are tested against",
    "IMAGE_MAGIC": "the IDX image magic that format fixtures are built from",
    "LABEL_MAGIC": "the IDX label magic that format fixtures are built from",
    "AMP_TANH": "the preset of the fourth activation, beside SPLIT_TANH and CRELU",
    "DEFAULT_LOWERING_BUDGET": "the default of conv.layer_matrix(memory_budget=), "
    "a parameter that goes once analyze stops building conv lowerings",
}


def exports() -> dict:
    """Module name -> the names in its ``__all__``."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                out[path.stem] = ast.literal_eval(node.value)
    return out


def package_module(node: ast.ImportFrom) -> str | None:
    """The package module an import reads from, or None."""
    if node.level == 1 and node.module:
        return node.module
    if node.level == 0 and (node.module or "").startswith("cvnnlab."):
        return node.module.removeprefix("cvnnlab.")
    return None


def references(path: Path, modules) -> set:
    """(module, name) pairs that the file at ``path`` reaches."""
    tree = ast.parse(path.read_text())
    refs = set()
    bound = {}  # local name -> package module, from `from cvnnlab import m` or `from . import m`
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = package_module(node)
            if module is not None:
                refs.update((module, alias.name) for alias in node.names)
            elif (node.level, node.module) in ((1, None), (0, "cvnnlab")):
                bound.update(
                    (alias.asname or alias.name, alias.name)
                    for alias in node.names
                    if alias.name in modules
                )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                refs.add((bound[node.value.id], node.attr))
        elif isinstance(node, (ast.Tuple, ast.List)):
            for owner, attr in zip(node.elts, node.elts[1:]):
                if isinstance(owner, ast.Name) and owner.id in bound and isinstance(
                    attr, ast.Constant
                ) and isinstance(attr.value, str):
                    refs.add((bound[owner.id], attr.value))
    return refs


def called() -> set:
    """(module, name) pairs reached from outside the module that defines them."""
    modules = set(exports())
    refs = set()
    for path in CALLERS:
        own = path.stem if path.parent == PACKAGE else None
        refs.update(ref for ref in references(path, modules) if ref[0] != own)
    return refs


def test_every_exported_name_has_a_caller():
    refs = called()
    uncalled = [
        f"{module}.{name}"
        for module, names in exports().items()
        for name in names
        if name not in KEEP and (module, name) not in refs
    ]
    assert not uncalled, (
        f"exported with no caller in src/, bench/ or scripts/: {uncalled}; "
        "drop them from __all__ (or delete them), or add them to KEEP with a reason"
    )


def test_keep_list_holds_only_exported_names_without_a_caller():
    refs = called()
    owner = {name: module for module, names in exports().items() for name in names}
    assert set(KEEP) <= set(owner), f"not exported: {sorted(set(KEEP) - set(owner))}"
    needless = sorted(name for name in KEEP if (owner[name], name) in refs)
    assert not needless, f"on KEEP but called: {needless}"


def test_every_exported_name_is_defined():
    for module, names in exports().items():
        loaded = importlib.import_module(f"cvnnlab.{module}")
        missing = [name for name in names if not hasattr(loaded, name)]
        assert not missing, f"{module}.__all__ names what it does not define: {missing}"


def test_no_module_imports_a_private_name_of_another():
    """A relative ``from .m import _name`` in the package reaches past another
    module's public surface; the walk also sees names inside parenthesised
    multi-line imports."""
    reached = [
        f"{path.stem}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level >= 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not reached, f"private names imported across modules: {reached}"


def _package_except(*names):
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in names]


@pytest.mark.parametrize("pattern, files, rule", [
    pytest.param(r"\.[0-9]+g", _package_except("textio.py"),
                 "format floats with cvnnlab.textio.f17", id="only-textio-formats-floats"),
    pytest.param(r"lipschitz_probe", [PACKAGE / "spectral.py"],
                 "every activation is 1-Lipschitz by contract; the probe only checks that constant",
                 id="spectral-never-names-the-probe"),
    pytest.param(r"^\s*(from|import)\b.*\blanes\b|\blanes\.[A-Za-z_]+\(",
                 _package_except("lanes.py", "network.py"),
                 "deal blocks to cvnnlab.lanes from cvnnlab.network only", id="only-network-deals-lanes"),
    pytest.param(r"^\s*(from|import)\b", [PACKAGE / "__init__.py"],
                 "src/cvnnlab/__init__.py holds its docstring and __version__ only",
                 id="package-root-imports-nothing"),
])
def test_structure_rule(pattern, files, rule):
    hits = [
        f"{path.name}:{number}: {line}"
        for path in files
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(pattern, line)
    ]
    assert not hits, f"{rule}: {hits}"
