"""The benchmark's traced mode wraps named functions and methods of the
package (``perfbench/tracer.py``, ``TARGETS``). It replaces a method on its
class from the class's own ``__dict__``, so every targeted method must be
defined on that class itself, not inherited; a rename or a move breaks the
traced runs. The tracer is loaded read-only from its file."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(span, mod, attr) for span, targets in tracer.TARGETS.items() for mod, attr in targets]


@pytest.mark.parametrize("span, mod, attr", tracer_targets())
def test_tracer_target_exists(span, mod, attr):
    module = importlib.import_module(f"quadsketch.{mod}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name)), f"{span}: {attr} is not defined on the class itself"
    else:
        assert callable(getattr(module, attr, None)), f"{span}: {mod}.{attr} is missing"
