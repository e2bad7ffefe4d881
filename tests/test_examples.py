"""Every example imports cleanly: a module the package drops must not
leave an example with a dangling import."""

import pathlib
import runpy

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).parent.parent / "examples")
                  .glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_loads(path):
    # Any run_name but "__main__" runs the imports and skips ``main()``.
    namespace = runpy.run_path(str(path), run_name="example")
    assert callable(namespace["main"])
