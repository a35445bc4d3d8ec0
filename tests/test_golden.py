"""Bitwise regression gate: SHA-256 digests of pipeline arrays.

Each case runs mesh, crack graph, refinement, cutting and assembly for one
preset level and hashes the mesh arrays, the segment arrays, the
free-vertex matrix the solver factors (CSR data/indices/indptr), its
right-hand side and the free vertex ids. The mesh and segment
digests were recorded before the P1 geometry was folded into ``Mesh``, the
graph node digests before ``CrackGraph`` derived its nodes in one pass, and
the radial-local level 3 and crack-network h=0.25 cases before refinement
updated its crack incidence incrementally, and the deepest refinements,
radial-local level 4 (13 generations) and crack-network h=0.125, before
bisection stopped carrying a table of edge vertex pairs. The ``matrix.*`` and ``rhs``
digests were re-recorded, and ``free`` added, when ``assemble`` stopped
building an n x n matrix with identity rows at the Dirichlet vertices and
returned only its free-free block: they are the digests of the older
system's ``reduced()`` block, right-hand side and free ids, so the system
the solver sees is bitwise unchanged. The ``segments.points``,
``segments.length``, ``matrix.data`` and ``rhs`` digests of the radial and
crack-network cases, ``segments.chain_length`` of the crack-network cases,
and ``matrix.indices`` and ``matrix.indptr`` of radial-local level 3 were
re-recorded when arcs came to be sampled at equal angles in closed form
(``arc_points``) instead of by inverting a 4097-point arc-length table: the
end points and point counts stayed, interior arc points moved by a few
hundred ulps, and at radial-local level 3 two couplings became exact zeros
(nnz 164 245 -> 164 243). No mesh, owner, node or free-vertex digest moved.
The ``matrix.data`` digests of radial-uniform levels 0 and 1 were
re-recorded when the stiffness of a mesh that is its lattice came to be
built in closed form: the crack blocks are now added to the summed bulk,
and a vertex's six diagonal terms are summed in a fixed slice order, not
in the unstable order of scipy's ``csr_sort_indices`` (without the crack,
both levels keep their bits; finer radial lattices do not).
The ``segments.length`` digests of radial-local levels 0, 1 and 3 and
radial-uniform levels 0 and 1, and the ``rhs`` digests of all but
radial-uniform level 0, were re-recorded when the clip came to take each
edge function as the mean of its values from the edge's two ends, so that
the two triangles of an edge get bitwise negated values and one crossing:
clip parameters moved in their last bits, and with them some segment
lengths (by at most a relative 4.4e-13) and the chain-source loads. No
segment point, owner or matrix digest moved, nor any export digest.
The ``matrix.*``, ``rhs`` and ``free`` digests of radial-local levels 0, 1
and 3 and both crack-network cases were re-recorded when ``assemble`` came
to list the free vertices of a mesh that is not its lattice row by row, by
y then x, so the direct factor fills less: the same system with its
unknowns permuted. No mesh, segment or lattice-mesh digest moved.
A change that moves any digest on purpose must say so and re-record it.

The export digests hash the files ``run_single`` writes with ``out_dir``;
they were recorded while each file was still written one f-string per line
(``tests/oracles.py`` keeps those writers). The solution and norm digests of
the two crack cases were re-recorded when the direct solve switched to a
symmetric ordering; ``tests/test_solve.py`` pins that solution to the old
ordering's within a relative 1e-12. They were re-recorded again, with the
radial-local norms, for the closed-form arc sampling above; the mesh
exports did not move. The ``poisson-square:0`` solution digests were
re-recorded when CG on an unrefined lattice came to be preconditioned by a
sine-transform solve of the 5-point stencil: without a crack that solve is
the exact inverse, so the CG iterate differs from the Jacobi one in its
last bits (by at most 2.2e-16); its ``norms.csv`` did not move. The
solution digests of the two crack cases, and the radial-local norms, were
re-recorded for the row-ordered free vertices above and SuperLU's relaxed
supernodes (``relax=20, panel_size=8``): the factor rounds differently,
and the solutions moved by at most a relative 2.5e-14; the mesh exports
did not move.
"""

import hashlib

import numpy as np
import pytest

from crackfem import (
    assemble,
    build_preset,
    build_rectangle_mesh,
    cut_chains,
    refine_near_crack,
)
from crackfem.config import (
    _build_boundary,
    _build_coefficients,
    build_crack_graph,
    run_single,
)


def _digest(array) -> str:
    array = np.ascontiguousarray(array)
    h = hashlib.sha256()
    h.update(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def case_config(case: str):
    """The config of a case "preset:at": ``at`` is a study level index,
    "default" for the preset's own global_h, or "h=<global_h>"."""
    preset, at = case.rsplit(":", 1)
    config = build_preset(preset)
    if at.startswith("h="):
        return config.with_global_h(float(at[2:]))
    if at != "default":
        return config.with_global_h(config.study["levels"][int(at)])
    return config


def pipeline_system(config):
    """The cut segments and the linear system ``run_single`` would solve."""
    rc = config.refinement
    mesh = build_rectangle_mesh(config.domain, rc.global_h)
    graph = build_crack_graph(config, rc.global_h)
    mesh, hits = refine_near_crack(mesh, graph, rc)
    segments = cut_chains(mesh, graph, hits)
    system = assemble(
        mesh, segments, _build_coefficients(config, graph), _build_boundary(config.boundary)
    )
    return segments, system


def pipeline_digests(config) -> dict:
    """Digest of every array the pipeline builds up to the linear system."""
    segments, system = pipeline_system(config)
    mesh = system.mesh
    arrays = {
        "mesh.vertices": mesh.vertices,
        "mesh.triangles": mesh.triangles,
        "segments.triangle_index": segments.triangle_index,
        "segments.points": segments.points,
        "segments.length": segments.length,
        "segments.chain_index": segments.chain_index,
        "segments.chain_length": np.asarray([c.length for c in segments.graph.chains]),
        "segments.nodes": segments.graph.nodes,
        "segments.chain_nodes": segments.graph.chain_nodes,
        "matrix.data": system.matrix.data,
        "matrix.indices": system.matrix.indices,
        "matrix.indptr": system.matrix.indptr,
        "rhs": system.rhs,
        "free": system.free,
    }
    return {name: _digest(a) for name, a in arrays.items()}


# Truncated to 16 hex digits: plenty to catch a changed bit, short to read.
GOLDEN = {
    "poisson-square:0": {
        "mesh.vertices": "6763299e86f80e67",
        "mesh.triangles": "0fd17c72a55eda41",
        "segments.triangle_index": "55ae42cc1e37a5eb",
        "segments.points": "9c4afed728a26b1d",
        "segments.length": "64578373a8a80ad1",
        "segments.chain_index": "55ae42cc1e37a5eb",
        "segments.chain_length": "64578373a8a80ad1",
        "segments.nodes": "dece51c5195f408a",
        "segments.chain_nodes": "8a8cb1c2daab50f5",
        "matrix.data": "68a6fd58bda81cef",
        "matrix.indices": "c1803b6cb65ba71a",
        "matrix.indptr": "6305230032333fcc",
        "rhs": "f708a109ed9309ce",
        "free": "b1988405f4b97e16",
    },
    "poisson-square:1": {
        "mesh.vertices": "1cbe111ce5cae83d",
        "mesh.triangles": "3d25a2fcdc966f1e",
        "segments.triangle_index": "55ae42cc1e37a5eb",
        "segments.points": "9c4afed728a26b1d",
        "segments.length": "64578373a8a80ad1",
        "segments.chain_index": "55ae42cc1e37a5eb",
        "segments.chain_length": "64578373a8a80ad1",
        "segments.nodes": "dece51c5195f408a",
        "segments.chain_nodes": "8a8cb1c2daab50f5",
        "matrix.data": "0ef8c81055246e48",
        "matrix.indices": "be94deef1f309582",
        "matrix.indptr": "44c137b94a2993d7",
        "rhs": "8a1f8125130b9a56",
        "free": "34ccb4179720a853",
    },
    "radial-uniform:0": {
        "mesh.vertices": "25cbcf6ebd03e397",
        "mesh.triangles": "0fd17c72a55eda41",
        "segments.triangle_index": "eb42c8bf45bc72f7",
        "segments.points": "9440fefcec75567e",
        "segments.length": "12ac19cb7fb6276d",
        "segments.chain_index": "d4398635ea67737a",
        "segments.chain_length": "7438d1304042273c",
        "segments.nodes": "05ecf13088bfd6ba",
        "segments.chain_nodes": "7b29175914f14d24",
        "matrix.data": "0c371402ef948fac",
        "matrix.indices": "944dcdae2df219f1",
        "matrix.indptr": "d458ae0e3ad66a68",
        "rhs": "aa54eadc7a4d997a",
        "free": "b1988405f4b97e16",
    },
    "radial-uniform:1": {
        "mesh.vertices": "a175821989a37ca2",
        "mesh.triangles": "3d25a2fcdc966f1e",
        "segments.triangle_index": "18cbabfed6c6110c",
        "segments.points": "f1c153615821efce",
        "segments.length": "28ab2705bd796650",
        "segments.chain_index": "75b94ed717c3140a",
        "segments.chain_length": "df6e0d67b24cb24a",
        "segments.nodes": "05ecf13088bfd6ba",
        "segments.chain_nodes": "7b29175914f14d24",
        "matrix.data": "c797134836f49307",
        "matrix.indices": "8c781ff6c812aa13",
        "matrix.indptr": "1c72188ff70342ca",
        "rhs": "262f54019f8e5f0b",
        "free": "34ccb4179720a853",
    },
    "radial-local:0": {
        "mesh.vertices": "2c11f94a614ec1ab",
        "mesh.triangles": "d3e14456fe59550f",
        "segments.triangle_index": "8f830ca5d67c9870",
        "segments.points": "fd11b42701392d58",
        "segments.length": "ec1c54c24bf43d46",
        "segments.chain_index": "e458b0598003c087",
        "segments.chain_length": "7438d1304042273c",
        "segments.nodes": "05ecf13088bfd6ba",
        "segments.chain_nodes": "7b29175914f14d24",
        "matrix.data": "d6ca2e919228f038",
        "matrix.indices": "3cc8d0b59e5be564",
        "matrix.indptr": "3ac2bc1a69047593",
        "rhs": "83d5fbe93bd83266",
        "free": "f3f3988cb287c8af",
    },
    "radial-local:1": {
        "mesh.vertices": "45f1222020f085d6",
        "mesh.triangles": "d0b971f2c9729400",
        "segments.triangle_index": "4cca9d3551c7dfae",
        "segments.points": "2f02b945b8028aa7",
        "segments.length": "d84a97d4c0fa880d",
        "segments.chain_index": "ae818d29d2678260",
        "segments.chain_length": "df6e0d67b24cb24a",
        "segments.nodes": "05ecf13088bfd6ba",
        "segments.chain_nodes": "7b29175914f14d24",
        "matrix.data": "31f3408cba014878",
        "matrix.indices": "6c9fef171ac46d09",
        "matrix.indptr": "1ebc844269e33e86",
        "rhs": "b4d37f490f12345d",
        "free": "5bf04495de83d9b6",
    },
    "radial-local:3": {
        "mesh.vertices": "32822181384d5e54",
        "mesh.triangles": "aef218afc9dd927d",
        "segments.triangle_index": "531b61526aa78a3c",
        "segments.points": "a3bf3d4828dff3dc",
        "segments.length": "4291e2abdc89d354",
        "segments.chain_index": "a7b4f80c1e7d4408",
        "segments.chain_length": "5866f9d9145fbd01",
        "segments.nodes": "05ecf13088bfd6ba",
        "segments.chain_nodes": "7b29175914f14d24",
        "matrix.data": "de4cc9bee76a8906",
        "matrix.indices": "7b63ea60e28c8537",
        "matrix.indptr": "fed9d6dce23d32b2",
        "rhs": "685494a595ee78cd",
        "free": "5c06f556c6669a3b",
    },
    "radial-local:4": {
        "mesh.vertices": "2c5f90caa277cf35",
        "mesh.triangles": "8b7c1caf5577cf53",
        "segments.triangle_index": "bf71c790741bd72f",
        "segments.points": "2b265e91ea46ee3a",
        "segments.length": "4b67319905a56b86",
        "segments.chain_index": "42785fd14ef08be3",
        "segments.chain_length": "bd7be1deb9e3d709",
        "segments.nodes": "05ecf13088bfd6ba",
        "segments.chain_nodes": "7b29175914f14d24",
        "matrix.data": "36cbf8166bcc1c5f",
        "matrix.indices": "727ffa8ef8d312cb",
        "matrix.indptr": "5eefdee0b169c14e",
        "rhs": "5739433b2fb4cfff",
        "free": "1b55900a0e498d5c",
    },
    "crack-network:default": {
        "mesh.vertices": "13a28b3b7b7549e0",
        "mesh.triangles": "847d78d674f0a6f8",
        "segments.triangle_index": "d4e9210dd3d31cec",
        "segments.points": "0d4214b4516aa601",
        "segments.length": "8514ba42b0d3aad1",
        "segments.chain_index": "43af2ad4725f5e0a",
        "segments.chain_length": "ce63dfbc1e5603e0",
        "segments.nodes": "56b1a72272a89021",
        "segments.chain_nodes": "90243e8b4813d976",
        "matrix.data": "fc6a43b611cb4752",
        "matrix.indices": "d1ff4935e4b4990e",
        "matrix.indptr": "5ddf726a4d2e5a4f",
        "rhs": "722d8a34ab51966e",
        "free": "ab5dcbbef774a6e7",
    },
    "crack-network:h=0.25": {
        "mesh.vertices": "8f6af4d6902ff501",
        "mesh.triangles": "69a9db978fe5fbdf",
        "segments.triangle_index": "63689b64e94884e9",
        "segments.points": "41cea5f531057114",
        "segments.length": "cfc69e6bc197b749",
        "segments.chain_index": "04e5e0a0c2929313",
        "segments.chain_length": "533cb4570e4767ca",
        "segments.nodes": "56b1a72272a89021",
        "segments.chain_nodes": "90243e8b4813d976",
        "matrix.data": "928ac18d16450312",
        "matrix.indices": "cc60fd99dc61a0a6",
        "matrix.indptr": "32b8695f780187c7",
        "rhs": "1285c5d9bd867539",
        "free": "9189e8c662a07419",
    },
    "crack-network:h=0.125": {
        "mesh.vertices": "0d4354c12b3cd7ab",
        "mesh.triangles": "7554fd34ff920827",
        "segments.triangle_index": "d3a82b290dadf69c",
        "segments.points": "fe1edb55d0cd6bb9",
        "segments.length": "29fd27416f4573c7",
        "segments.chain_index": "a6f314a4367311c9",
        "segments.chain_length": "e4de0fb64dc1ac7b",
        "segments.nodes": "56b1a72272a89021",
        "segments.chain_nodes": "90243e8b4813d976",
        "matrix.data": "01c4bab0bc8fbdc6",
        "matrix.indices": "3c396d21c2180891",
        "matrix.indptr": "1116cea85fb0a362",
        "rhs": "0a04cd57d5a3a746",
        "free": "12e48698c752cb3a",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_pipeline_arrays_are_bitwise_unchanged(case):
    got = pipeline_digests(case_config(case))
    got = {name: digest[:16] for name, digest in got.items()}
    assert got == GOLDEN[case]


EXPORTS = ("mesh.txt", "mesh.vtk", "solution.txt", "solution.vtk", "norms.csv")

# Truncated like GOLDEN; None where the file is not written (no exact solution).
GOLDEN_EXPORTS = {
    "poisson-square:0": {
        "mesh.txt": "b055b9055873212f",
        "mesh.vtk": "d59c32a919d6176c",
        "solution.txt": "8f0e77508b54e49d",
        "solution.vtk": "a44c6f6802131be1",
        "norms.csv": "56e0b4dafd33acec",
    },
    "radial-local:1": {
        "mesh.txt": "3e1447e30a1bdf12",
        "mesh.vtk": "80b886024af5e95a",
        "solution.txt": "55a11398c7c5ab71",
        "solution.vtk": "42fe734226e11e51",
        "norms.csv": "c2b09776f8da64b7",
    },
    "crack-network:default": {
        "mesh.txt": "dc7bdeb7c773e02d",
        "mesh.vtk": "36ace2bc40fc272b",
        "solution.txt": "fbf05ff677dd1b0a",
        "solution.vtk": "7627bd1cdb0cac00",
        "norms.csv": None,
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN_EXPORTS))
def test_exported_files_are_bytewise_unchanged(case, tmp_path):
    run_single(case_config(case), out_dir=tmp_path)
    got = {}
    for name in EXPORTS:
        path = tmp_path / name
        got[name] = (
            hashlib.sha256(path.read_bytes()).hexdigest()[:16]
            if path.exists()
            else None
        )
    assert got == GOLDEN_EXPORTS[case]


def test_solution_vtk_extends_mesh_vtk(tmp_path):
    # both VTK files are written from the mesh's one rendering of its rows
    run_single(case_config("poisson-square:0"), out_dir=tmp_path)
    mesh_vtk = (tmp_path / "mesh.vtk").read_bytes()
    solution_vtk = (tmp_path / "solution.vtk").read_bytes()
    assert len(solution_vtk) > len(mesh_vtk)
    assert solution_vtk.startswith(mesh_vtk)
