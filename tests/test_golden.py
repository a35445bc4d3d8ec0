"""Bitwise regression gate: SHA-256 digests of pipeline arrays.

Each case runs mesh, crack graph, refinement, cutting and assembly for one
preset level and hashes the mesh arrays, the segment arrays, the
constrained matrix (CSR data/indices/indptr) and the right-hand side. The
digests were recorded before the P1 geometry was folded into ``Mesh``; a
change that moves any of them on purpose must say so and re-record them.
"""

import hashlib

import numpy as np
import pytest

from crackfem import (
    RefinementConfig,
    SegmentedCrack,
    assemble,
    build_preset,
    build_rectangle_mesh,
    cut_chains,
    refine_near_crack,
)
from crackfem.config import _build_boundary, _build_coefficients, build_crack_graph


def _digest(array) -> str:
    array = np.ascontiguousarray(array)
    h = hashlib.sha256()
    h.update(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def pipeline_digests(preset: str, level: int | None) -> dict:
    """Digest of every array the pipeline builds up to the linear system,
    at one study level of the preset, or at its own global_h for None."""
    config = build_preset(preset)
    if level is not None:
        config = config.with_global_h(config.study["levels"][level])
    rc = RefinementConfig(**config.refinement)
    mesh = build_rectangle_mesh(config.domain, rc.global_h)
    graph = build_crack_graph(config, rc.global_h)
    mesh = refine_near_crack(mesh, graph, rc)
    segments = cut_chains(mesh, graph) if graph.n_chains else SegmentedCrack.empty()
    system = assemble(
        mesh, segments, _build_coefficients(config, graph), _build_boundary(config)
    )
    arrays = {
        "mesh.vertices": mesh.vertices,
        "mesh.triangles": mesh.triangles,
        "mesh.boundary_edges": mesh.boundary_edges,
        "mesh.boundary_tags": mesh.boundary_tags,
        "segments.triangle_index": segments.triangle_index,
        "segments.points": segments.points,
        "segments.length": segments.length,
        "segments.chain_index": segments.chain_index,
        "segments.chain_length": segments.chain_length,
        "matrix.data": system.matrix.data,
        "matrix.indices": system.matrix.indices,
        "matrix.indptr": system.matrix.indptr,
        "rhs": system.rhs,
    }
    return {name: _digest(a) for name, a in arrays.items()}


# Truncated to 16 hex digits: plenty to catch a changed bit, short to read.
GOLDEN = {
    "poisson-square:0": {
        "mesh.vertices": "6763299e86f80e67",
        "mesh.triangles": "0fd17c72a55eda41",
        "mesh.boundary_edges": "1caf4d5d8cf827b9",
        "mesh.boundary_tags": "6b1fa4daf0df564d",
        "segments.triangle_index": "55ae42cc1e37a5eb",
        "segments.points": "9c4afed728a26b1d",
        "segments.length": "64578373a8a80ad1",
        "segments.chain_index": "55ae42cc1e37a5eb",
        "segments.chain_length": "64578373a8a80ad1",
        "matrix.data": "69eccd66b6427ba6",
        "matrix.indices": "b982082a57c27655",
        "matrix.indptr": "4b9b641947524f3e",
        "rhs": "1a13562df8b00c19",
    },
    "poisson-square:1": {
        "mesh.vertices": "1cbe111ce5cae83d",
        "mesh.triangles": "3d25a2fcdc966f1e",
        "mesh.boundary_edges": "d2a82997e10be073",
        "mesh.boundary_tags": "93ef3f21c7247cdc",
        "segments.triangle_index": "55ae42cc1e37a5eb",
        "segments.points": "9c4afed728a26b1d",
        "segments.length": "64578373a8a80ad1",
        "segments.chain_index": "55ae42cc1e37a5eb",
        "segments.chain_length": "64578373a8a80ad1",
        "matrix.data": "776e292e25883a12",
        "matrix.indices": "6d5fa81ace7c7416",
        "matrix.indptr": "b204d85b97ecdafe",
        "rhs": "a9c169fc293a6bfe",
    },
    "radial-uniform:0": {
        "mesh.vertices": "25cbcf6ebd03e397",
        "mesh.triangles": "0fd17c72a55eda41",
        "mesh.boundary_edges": "1caf4d5d8cf827b9",
        "mesh.boundary_tags": "6b1fa4daf0df564d",
        "segments.triangle_index": "eb42c8bf45bc72f7",
        "segments.points": "fd18d01a5edc643d",
        "segments.length": "de9d7d7fb18d2885",
        "segments.chain_index": "d4398635ea67737a",
        "segments.chain_length": "7438d1304042273c",
        "matrix.data": "e826dc27338f4656",
        "matrix.indices": "5c786453e8c686a3",
        "matrix.indptr": "6c78319fc559e6b3",
        "rhs": "f5973f15f006e73a",
    },
    "radial-uniform:1": {
        "mesh.vertices": "a175821989a37ca2",
        "mesh.triangles": "3d25a2fcdc966f1e",
        "mesh.boundary_edges": "d2a82997e10be073",
        "mesh.boundary_tags": "93ef3f21c7247cdc",
        "segments.triangle_index": "18cbabfed6c6110c",
        "segments.points": "8234ae310e9221aa",
        "segments.length": "955562759bf7e6dd",
        "segments.chain_index": "75b94ed717c3140a",
        "segments.chain_length": "df6e0d67b24cb24a",
        "matrix.data": "346b6003ba9482fd",
        "matrix.indices": "c27070c090553bf5",
        "matrix.indptr": "e15276ffe72293f5",
        "rhs": "2ede00c95f8e0105",
    },
    "radial-local:0": {
        "mesh.vertices": "2c11f94a614ec1ab",
        "mesh.triangles": "d3e14456fe59550f",
        "mesh.boundary_edges": "ba96ccee0b67e0ae",
        "mesh.boundary_tags": "43c90a925a0022da",
        "segments.triangle_index": "8f830ca5d67c9870",
        "segments.points": "71df3dedde3da358",
        "segments.length": "56929b5001b7bedb",
        "segments.chain_index": "e458b0598003c087",
        "segments.chain_length": "7438d1304042273c",
        "matrix.data": "8e747cc45f9066c1",
        "matrix.indices": "b945c63a8510e76a",
        "matrix.indptr": "526600247fcb61ad",
        "rhs": "9b7d08a06aaaf93b",
    },
    "radial-local:1": {
        "mesh.vertices": "45f1222020f085d6",
        "mesh.triangles": "d0b971f2c9729400",
        "mesh.boundary_edges": "5e3cd4e0fed16b2b",
        "mesh.boundary_tags": "04e875fc7bf1b6da",
        "segments.triangle_index": "4cca9d3551c7dfae",
        "segments.points": "b3497b56ec7fafd7",
        "segments.length": "9f5f778062f4a0b4",
        "segments.chain_index": "ae818d29d2678260",
        "segments.chain_length": "df6e0d67b24cb24a",
        "matrix.data": "e2f9c8a52bd100f8",
        "matrix.indices": "4a3fb409cacde6ba",
        "matrix.indptr": "8066a7a06bea9bf2",
        "rhs": "1bb7077d2c94dee4",
    },
    "crack-network:default": {
        "mesh.vertices": "13a28b3b7b7549e0",
        "mesh.triangles": "847d78d674f0a6f8",
        "mesh.boundary_edges": "9e1ec647e9acb815",
        "mesh.boundary_tags": "bc1a58e66268e4ee",
        "segments.triangle_index": "d4e9210dd3d31cec",
        "segments.points": "f2386aad8f42b597",
        "segments.length": "371298881a620f17",
        "segments.chain_index": "43af2ad4725f5e0a",
        "segments.chain_length": "df795a5a52c87449",
        "matrix.data": "97a377687d2ec7d8",
        "matrix.indices": "fa24c09b575a8e4e",
        "matrix.indptr": "0b1c57c5e58cca55",
        "rhs": "e555d9d6612f0ec5",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_pipeline_arrays_are_bitwise_unchanged(case):
    preset, level = case.rsplit(":", 1)
    got = pipeline_digests(preset, None if level == "default" else int(level))
    got = {name: digest[:16] for name, digest in got.items()}
    assert got == GOLDEN[case]
