"""Design locks: properties of the package's code that a change must not
quietly undo."""

import dataclasses
import importlib
import pkgutil

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
    assert {"ClientState", "RoundRecord", "ExperimentConfig"} <= {c.__name__ for c in classes}
    mutable = sorted(c.__qualname__ for c in classes if not c.__dataclass_params__.frozen)
    assert not mutable, f"mutable dataclasses: {mutable}"
