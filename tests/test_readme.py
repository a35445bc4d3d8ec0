"""The Python examples of README.md run against the package as documented."""

import re
from pathlib import Path

import numpy as np

from crackfem import BoundarySpec

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_examples_run(capsys):
    library, left_side = python_blocks()
    namespace = {}
    exec(library, namespace)
    assert namespace["u"].values.shape == (namespace["mesh"].n_vertices,)
    assert capsys.readouterr().out  # the Kirchhoff residual line
    # the boundary example is an expression: u = y on the left side
    spec = eval(left_side, namespace)
    assert isinstance(spec, BoundarySpec)
    idx, values = spec.constrained_vertices(namespace["mesh"])
    vertices = namespace["mesh"].vertices[idx]
    assert np.array_equal(vertices[:, 0], np.zeros(len(idx)))
    assert np.array_equal(values, vertices[:, 1])
