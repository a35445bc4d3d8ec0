"""Shared fixtures: small meshes, the reference triangle, cheap pipeline runs,
the solver calls a test makes."""

import importlib

import numpy as np
import pytest
from hypothesis import strategies as st

from crackfem import (
    Chain,
    CrackGraph,
    build_preset,
    build_rectangle_mesh,
    run_single,
)
from crackfem.config import _radial_levels


@pytest.fixture
def solver_calls(monkeypatch):
    """The ``spla.cg`` and ``spla.splu`` calls the solves of a test make, in
    order: ("cg", its preconditioner M) or ("splu", None)."""
    spla = importlib.import_module("crackfem.solve").spla
    calls = []

    def recording(name, real):
        def call(*args, **kwargs):
            calls.append((name, kwargs.get("M")))
            return real(*args, **kwargs)

        return call

    for name in ("cg", "splu"):
        monkeypatch.setattr(spla, name, recording(name, getattr(spla, name)))
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def ref_triangle():
    return np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.fixture
def square_mesh():
    return build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.5)


@pytest.fixture
def fine_square_mesh():
    return build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.125)


def make_y_crack(permeabilities=(2.0, 3.0, 4.0)):
    """Three straight chains meeting at (0.5, 0.5) inside the unit square."""
    center = [0.5, 0.5]
    tips = ([0.1, 0.9], [0.9, 0.85], [0.45, 0.05])
    chains = [
        Chain(np.array([center, tip]), permeability=p)
        for tip, p in zip(tips, permeabilities)
    ]
    return CrackGraph(chains)


def polylines(coord):
    """1-3 polylines of 2-4 points drawn from ``coord``, each longer than 1e-6."""

    def long_enough(points):
        return np.linalg.norm(np.diff(points, axis=0), axis=1).sum() > 1e-6

    polyline = st.lists(st.tuples(coord, coord), min_size=2, max_size=4)
    return st.lists(polyline.map(np.array).filter(long_enough), min_size=1, max_size=3)


@pytest.fixture
def y_crack():
    return make_y_crack()


@pytest.fixture(scope="session")
def radial_coarse():
    """Coarsest locally refined run of the radial interface problem."""
    config = build_preset("radial-local").with_global_h(_radial_levels()[0])
    return run_single(config)


@pytest.fixture(scope="session")
def network_run():
    return run_single(build_preset("crack-network"))
