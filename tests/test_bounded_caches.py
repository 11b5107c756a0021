"""Memory stays bounded: no module-level functools cache of the package
may grow without limit."""

import importlib
import pkgutil

import qcdensity


def _module_level_values(module):
    """The module's globals, and the attributes of the classes it defines."""
    for value in vars(module).values():
        yield value
        if isinstance(value, type) and value.__module__ == module.__name__:
            yield from vars(value).values()


def test_every_module_level_cache_is_bounded():
    unbounded = set()
    for info in pkgutil.iter_modules(qcdensity.__path__):
        if info.name == "__main__":
            continue  # running it is running the CLI
        module = importlib.import_module(f"qcdensity.{info.name}")
        for value in _module_level_values(module):
            parameters = getattr(value, "cache_parameters", None)
            if callable(parameters) and parameters()["maxsize"] is None:
                unbounded.add(f"{value.__module__}.{value.__qualname__}")
    assert sorted(unbounded) == []
