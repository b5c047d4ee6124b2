"""Design locks: properties of the package's code that a change must not
quietly undo."""

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import fedswap


def package_dataclasses() -> list[type]:
    """Every dataclass defined (not merely imported) in a fedswap module."""
    found = []
    for info in pkgutil.iter_modules(fedswap.__path__):
        module = importlib.import_module(f"fedswap.{info.name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == module.__name__]
    return found


def test_every_dataclass_is_frozen():
    # clients and round records are values; the round loop's locals are the
    # simulator's only mutable state
    classes = package_dataclasses()
    assert {"Clients", "RoundRecord", "ExperimentConfig"} <= {c.__name__ for c in classes}
    mutable = sorted(c.__qualname__ for c in classes if not c.__dataclass_params__.frozen)
    assert not mutable, f"mutable dataclasses: {mutable}"


def test_no_reordered_sums():
    # einsum and tensordot may sum in another order than the matrix-vector
    # products and sum / count means that keep outputs byte-identical
    sources = Path(fedswap.__file__).parent.glob("*.py")
    offenders = sorted(p.name for p in sources
                       if "einsum" in p.read_text() or "tensordot" in p.read_text())
    assert not offenders, f"einsum or tensordot in {offenders}"


def test_no_axis_norms():
    # np.linalg.norm(u, axis=1) sums in another order than the per-vector
    # norm (it differed in 9,788 of 43,452 random rows); sqrt(vecdot(u, u))
    # gives the per-vector norm's bits
    offenders = []
    for path in Path(fedswap.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            # norm(x, ord, axis) or norm(..., axis=...)
            if name == "norm" and (len(node.args) > 2
                                   or any(k.arg == "axis" for k in node.keywords)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"linalg.norm with an axis at {sorted(offenders)}"


def test_no_seed_sequence_calls():
    # derive_seed is the one implementation of SeedSequence's hash, in bulk;
    # a SeedSequence built per client-round costs more than the draw it seeds
    offenders = []
    for path in Path(fedswap.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "SeedSequence" in (
                    getattr(node.func, "attr", None), getattr(node.func, "id", None)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"SeedSequence built at {sorted(offenders)}"


def test_readme_layout_names_every_module():
    # the README's Layout block lists src/fedswap/ one module a line, each
    # indented two spaces; a deleted or added module must show there
    package = Path(fedswap.__file__).parent
    readme = (package.parents[1] / "README.md").read_text()
    block = readme.split("\n## Layout\n", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\S+)", block.split("\nsrc/fedswap/\n", 1)[1], re.MULTILINE)
    assert sorted(listed) == sorted(p.name for p in package.glob("*.py"))


def test_only_config_types_raise_config_invalid():
    # a fact a config type refused is not checked again below it: in the
    # simulator modules ConfigInvalid comes only from a config type's
    # __post_init__, or from derive_seed, which hashes the master seed
    found = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                target = getattr(child.exc, "func", child.exc)
                if getattr(target, "id", getattr(target, "attr", None)) == "ConfigInvalid":
                    found.append((function, f"{module}:{child.lineno}"))
            visit(child, module, function)

    for module in ("clients.py", "server.py"):
        visit(ast.parse((Path(fedswap.__file__).parent / module).read_text()), module, None)
    assert {"__post_init__", "derive_seed"} <= {function for function, _ in found}
    offenders = sorted(where for function, where in found
                       if function not in ("__post_init__", "derive_seed"))
    assert not offenders, f"ConfigInvalid raised below the config types at {offenders}"
