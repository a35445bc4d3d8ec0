"""Mesh construction, crack marking, bisection refinement, exports."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crackfem import (
    BoundarySpec,
    Chain,
    CrackGraph,
    Mesh,
    MeshError,
    RefinementConfig,
    RefinementError,
    build_preset,
    build_rectangle_mesh,
    mark_crack_elements,
    refine_marked,
    refine_near_crack,
)
from crackfem._geom import REL_TOL, bbox_diameter
from crackfem.config import _radial_levels, build_crack_graph
from crackfem.mesh import (
    RECTANGLE_TAGS,
    _vertex_neighborhood,
    _render,
    export_mesh_text,
    export_vtk,
)
from crackfem import config as config_module
from crackfem.config import _export_solution_text
from crackfem.solve import SolutionField
from crackfem import mesh as mesh_module
from conftest import make_y_crack, polylines
import oracles
from oracles import (
    dof_count_profile,
    element_gradients,
    min_angle,
    point_segment_distances,
    points_in_triangle,
    validate_mesh,
)


def marked_by(mesh, crack):
    """The triangles ``mark_crack_elements`` marks for a crack's incidence."""
    return mark_crack_elements(mesh.incidence(*crack.parts()))


class TestBuildRectangleMesh:
    def test_unit_square_coarsest_is_one_diagonal_split(self):
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 1.0)
        assert mesh.n_triangles == 2
        assert mesh.n_vertices == 4
        np.testing.assert_allclose(mesh.triangle_diameters(), np.sqrt(2.0))
        validate_mesh(mesh)

    def test_unit_square_structured_counts(self):
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.5)
        assert mesh.n_vertices == 9
        assert mesh.n_triangles == 8
        np.testing.assert_allclose(mesh.triangle_areas(), 0.125)
        validate_mesh(mesh)

    def test_spacing_bound_and_diameter(self):
        mesh = build_rectangle_mesh((0.0, 2.0, 0.0, 1.0), 0.3)
        # diameters are cell diagonals, at most sqrt(2) times the target
        assert mesh.h_max <= np.sqrt(2.0) * 0.3 + 1e-12
        # cells are near-square (sides rounded up independently), so the
        # angles stay comfortably above the refinement floor
        assert min_angle(mesh) >= 15.0

    @pytest.mark.parametrize("preset", ["radial-uniform", "poisson-square", "crack-network"])
    def test_lattice_h_max_is_the_longest_diameter_bitwise(self, preset):
        # every study level and, past the study, the radial level a quarter
        # of the finest and the poisson-square level 1/512
        config = build_preset(preset)
        levels = config.study["levels"] if config.study else [config.refinement.global_h]
        finer = {"radial-uniform": levels[-1] / 4, "poisson-square": 1 / 512}
        for h in levels + [finer.get(preset, levels[-1])]:
            mesh = build_rectangle_mesh(config.domain, h)
            assert mesh.lattice.cells is None
            assert mesh.h_max == mesh.triangle_diameters().max()

    def test_h_max_off_the_lattice_is_the_longest_diameter(self):
        # four vertices, but not a rectangle: the default lattice is only
        # their box, whose diagonal sqrt(2) no triangle spans
        vertices = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.0, 1.0]]
        mesh = Mesh(vertices, [[0, 1, 2], [0, 2, 3]])
        assert mesh.h_max == np.sqrt(1.25)
        refined, _ = refine_marked(build_rectangle_mesh((0.0, 2.0, 0.0, 1.0), 0.5), [0])
        assert refined.h_max == refined.triangle_diameters().max()

    def test_rejects_oversized_target(self):
        with pytest.raises(MeshError):
            build_rectangle_mesh((0.0, 13.0, 0.0, 9.5), 9.6)
        build_rectangle_mesh((0.0, 13.0, 0.0, 9.5), 9.5)  # boundary case is fine

    def test_rejects_bad_inputs(self):
        with pytest.raises(MeshError):
            build_rectangle_mesh((0.0, 0.0, 0.0, 1.0), 0.5)
        with pytest.raises(MeshError):
            build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), -0.1)


class TestMeshValidate:
    def test_detects_clockwise_triangle(self, square_mesh):
        flipped = square_mesh.triangles.copy()
        flipped[0] = flipped[0, ::-1]
        bad = Mesh(square_mesh.vertices, flipped)
        with pytest.raises(MeshError, match="area"):
            validate_mesh(bad)

    def test_detects_hanging_node(self):
        # two triangles sharing only half an edge
        vertices = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [1.0, 1.0]]
        )
        triangles = np.array([[0, 1, 2], [3, 1, 4]])
        mesh = Mesh(vertices, triangles)
        with pytest.raises(MeshError):
            validate_mesh(mesh)

    def test_detects_index_out_of_range(self, square_mesh):
        tris = square_mesh.triangles.copy()
        tris[0, 0] = 99
        bad = Mesh(square_mesh.vertices, tris)
        with pytest.raises(MeshError, match="range"):
            validate_mesh(bad)


class TestMarkCrackElements:
    def test_segment_inside_one_triangle(self, square_mesh):
        # strictly inside the lower-left cell's lower triangle
        crack = CrackGraph([Chain(np.array([[0.3, 0.1], [0.4, 0.15]]))])
        marked = marked_by(square_mesh, crack)
        assert marked.tolist() == [0]

    def test_segment_on_shared_edge_marks_both(self, square_mesh):
        # the diagonal of the lower-left cell is shared by triangles 0 and 1
        crack = CrackGraph([Chain(np.array([[0.5, 0.0], [0.0, 0.5]]))])
        marked = marked_by(square_mesh, crack)
        assert set(marked.tolist()) >= {0, 1}

    def test_empty_crack_marks_nothing(self, square_mesh):
        assert marked_by(square_mesh, CrackGraph.empty()).size == 0

    def test_matches_dense_sampling_oracle(self):
        config = build_preset("radial-uniform")
        h = 0.2
        cases = [
            (build_rectangle_mesh(config.domain, h), build_crack_graph(config, h)),
            # several chains, all marked in one batch
            (build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), h), make_y_crack()),
        ]
        for mesh, crack in cases:
            marked = set(marked_by(mesh, crack).tolist())
            tol = REL_TOL * max(bbox_diameter(mesh.vertices), 1.0)
            starts = np.vstack([c.points[:-1] for c in crack.chains])
            ends = np.vstack([c.points[1:] for c in crack.chains])
            dense = []
            for p, q in zip(starts, ends):
                # corner cuts can be ~1e-3 long here, so sample well below that
                n = max(2, int(np.ceil(np.linalg.norm(q - p) / (h / 2000.0))) + 1)
                t = np.linspace(0.0, 1.0, n)
                dense.append(p + t[:, None] * (q - p))
            # a part through a vertex meets some triangles only at that vertex
            dist = point_segment_distances(mesh.vertices, starts, ends).min(axis=1)
            dense.append(mesh.vertices[dist <= tol])
            dense = np.vstack(dense)
            coords = mesh.vertices[mesh.triangles]
            oracle = {
                int(i)
                for i in range(mesh.n_triangles)
                if points_in_triangle(dense, coords[i], tol).any()
            }
            assert len(marked) > 0
            assert marked == oracle


def assert_carried_edges_are_fresh(mesh):
    """The edge map a refined mesh carries names the edges a fresh
    numbering finds, triangle by triangle and edge slot by edge slot: its
    ids are 0, 1, ... and map one to one onto the fresh ids."""
    t2e = mesh.edge_map()
    fresh_t2e = Mesh(mesh.vertices, mesh.triangles, mesh.lattice).edge_map()
    n_edges = fresh_t2e.max() + 1
    assert np.unique(t2e).tolist() == list(range(n_edges))
    fresh_of = np.empty(n_edges, dtype=np.int64)
    fresh_of[t2e] = fresh_t2e
    assert (fresh_of[t2e] == fresh_t2e).all()


class TestRefineMarked:
    def test_conforming_after_every_generation(self, fine_square_mesh, rng):
        mesh = fine_square_mesh
        for _ in range(6):
            marked = rng.choice(
                mesh.n_triangles, size=max(1, mesh.n_triangles // 10), replace=False
            )
            mesh, _ = refine_marked(mesh, marked)
            validate_mesh(mesh)
            assert_carried_edges_are_fresh(mesh)

    def test_refined_mesh_carries_the_tolerance_bitwise(self, rng):
        mesh = build_rectangle_mesh((0.0, 3.0, 0.0, 0.7), 0.1)
        for _ in range(5):
            marked = rng.choice(mesh.n_triangles, size=7, replace=False)
            mesh, _ = refine_marked(mesh, marked)
            assert mesh.tolerance == REL_TOL * max(bbox_diameter(mesh.vertices), 1.0)

    def test_vertices_only_grow(self, square_mesh):
        refined, _ = refine_marked(square_mesh, [0])
        assert refined.n_vertices > square_mesh.n_vertices
        np.testing.assert_array_equal(
            refined.vertices[: square_mesh.n_vertices], square_mesh.vertices
        )

    def test_empty_marking_returns_input(self, square_mesh):
        assert refine_marked(square_mesh, np.empty(0, dtype=int))[0] is square_mesh

    # square_mesh has 8 triangles
    @pytest.mark.parametrize("marked", [[-1], [0, 8]])
    def test_rejects_marks_outside_the_mesh(self, square_mesh, marked):
        with pytest.raises(MeshError, match="triangle"):
            refine_marked(square_mesh, marked)

    def test_min_angle_floor_over_random_sequences(self, rng):
        # structured meshes start at 45 degrees; bisection must never drop
        # below the documented floor
        for _ in range(10):
            mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
            for _ in range(4):
                k = rng.integers(1, mesh.n_triangles)
                marked = rng.choice(mesh.n_triangles, size=k, replace=False)
                mesh, _ = refine_marked(mesh, marked)
            assert min_angle(mesh) >= 15.0
            validate_mesh(mesh)


def markings(n):
    """A few of n triangle ids, or any subset of them."""
    return st.one_of(
        st.lists(st.integers(0, n - 1), max_size=8), arrays(bool, n).map(np.flatnonzero)
    )


# rectangles (0, width) x (0, height) of 1 to 4 cells across the shorter
# side, refined over 3 to 5 generations of ``markings``
refinement_runs = given(
    st.floats(0.5, 2.0),
    st.floats(0.5, 2.0),
    st.integers(1, 4),
    st.integers(3, 5),
    st.data(),
)


class TestBisectionMatchesTable:
    """Two bisection steps per generation give the six-case table's meshes
    bitwise, over several generations of random markings."""

    @settings(deadline=None, max_examples=60)
    @refinement_runs
    def test_matches_the_table(self, width, height, cells, generations, data):
        h = min(width, height) / cells
        mesh = table = build_rectangle_mesh((0.0, width, 0.0, height), h)
        for _ in range(generations):
            marked = data.draw(markings(mesh.n_triangles))
            mesh, parent = refine_marked(mesh, marked)
            table, table_parent = oracles.refine_marked_table(table, marked)
            for name in ("vertices", "triangles"):
                a, b = getattr(mesh, name), getattr(table, name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), name
            assert parent.tobytes() == table_parent.tobytes()
            assert_carried_edges_are_fresh(mesh)


def closure_passes(mesh, marked):
    """Passes the closure of ``refine_marked`` makes, the last finding no
    triangle with a marked edge but an unmarked refinement edge."""
    t2e = mesh.edge_map()
    edge_marked = np.zeros(t2e.max() + 1, dtype=bool)
    edge_marked[t2e[marked, 0]] = True
    passes = 1
    while (need := edge_marked[t2e].any(axis=1) & ~edge_marked[t2e[:, 0]]).any():
        edge_marked[t2e[need, 0]] = True
        passes += 1
    return passes


def assert_same_refinement(got, want):
    """Vertices, triangles, parent map, carried edge map and lattice
    cells of two ``refine_marked`` results, bit for bit."""
    (mesh, parent), (other, other_parent) = got, want
    for a, b in (
        (mesh.vertices, other.vertices),
        (mesh.triangles, other.triangles),
        (parent, other_parent),
        (mesh.edge_map(), other.edge_map()),
        (mesh.lattice.triangle_cells(len(parent)), other.lattice.triangle_cells(len(parent))),
    ):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestBisectionMatchesTwoSteps:
    """Children written column by column at band positions give the two
    whole-mesh bisection steps' results bitwise, edge ids included."""

    @settings(deadline=None, max_examples=60)
    @refinement_runs
    def test_matches_the_two_steps(self, width, height, cells, generations, data):
        mesh = steps = build_rectangle_mesh((0.0, width, 0.0, height), min(width, height) / cells)
        for _ in range(generations):
            marked = data.draw(markings(mesh.n_triangles))
            got = refine_marked(mesh, marked)
            want = oracles.refine_marked_two_steps(steps, marked)
            assert_same_refinement(got, want)
            (mesh, _), (steps, _) = got, want

    def test_multi_pass_closures(self):
        # grade toward the corner (0, 0); then marking one triangle pulls
        # in a chain of coarser ones, one closure pass each
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
        for _ in range(12):
            distance = np.hypot(*mesh.vertices[mesh.triangles].mean(axis=1).T)
            mesh, _ = refine_marked(mesh, np.flatnonzero(distance <= distance.min() * 1.0001))
        passes = [closure_passes(mesh, [t]) for t in range(mesh.n_triangles)]
        assert max(passes) >= 10
        for t in np.argsort(passes)[-8:]:
            got = refine_marked(mesh, [t])
            assert_same_refinement(got, oracles.refine_marked_two_steps(mesh, [t]))
            assert_carried_edges_are_fresh(got[0])


class TestVertexNeighborhood:
    """The OR of three corner gathers gives the ``.any(axis=1)`` form's
    triangles bitwise, on random markings of refined meshes."""

    @settings(deadline=None, max_examples=40)
    @refinement_runs
    def test_matches_the_row_wise_any(self, width, height, cells, generations, data):
        mesh = build_rectangle_mesh((0.0, width, 0.0, height), min(width, height) / cells)
        for _ in range(generations):
            mesh, _ = refine_marked(mesh, data.draw(markings(mesh.n_triangles)))
            marked = data.draw(markings(mesh.n_triangles))
            got = _vertex_neighborhood(mesh, marked)
            want = oracles.vertex_neighborhood_any(mesh, marked)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestBoundarySides:
    """``BoundarySpec.constrained_vertices`` reads the sides off the
    lattice box; the oracle reads them off the edges of one triangle."""

    @settings(deadline=None, max_examples=40)
    @refinement_runs
    def test_sides_are_the_single_edges_on_each_side_line(
        self, width, height, cells, generations, data
    ):
        bounds = (0.0, width, 0.0, height)
        mesh = build_rectangle_mesh(bounds, min(width, height) / cells)
        for _ in range(generations):
            mesh, _ = refine_marked(mesh, data.draw(markings(mesh.n_triangles)))
            sides = oracles.side_vertices(mesh, bounds)
            for side, want in sides.items():
                got, _ = BoundarySpec({side: 0.0}).constrained_vertices(mesh)
                assert got.tolist() == want.tolist(), side
            # distinct values per side: a corner takes the later side's value
            chosen = data.draw(
                st.lists(st.sampled_from(RECTANGLE_TAGS), min_size=1, unique=True)
            )
            spec = BoundarySpec({side: float(k) for k, side in enumerate(chosen)})
            want = {}
            for side in sorted(chosen):
                want.update(dict.fromkeys(sides[side].tolist(), spec.dirichlet[side]))
            idx, values = spec.constrained_vertices(mesh)
            assert idx.tolist() == sorted(want)
            assert values.tolist() == [want[v] for v in sorted(want)]


class TestRefineNearCrack:
    def test_rule_none_is_identity(self, square_mesh, y_crack):
        config = RefinementConfig(global_h=0.5, rule="none")
        assert refine_near_crack(square_mesh, y_crack, config)[0] is square_mesh

    def test_fixed_rule_already_satisfied(self, square_mesh, y_crack):
        config = RefinementConfig(global_h=0.5, rule="fixed", crack_h=10.0)
        assert refine_near_crack(square_mesh, y_crack, config)[0] is square_mesh

    def test_quadratic_rule_meets_target(self):
        config = build_preset("radial-local")
        h = _radial_levels()[0]
        crack = build_crack_graph(config, h)
        mesh = build_rectangle_mesh(config.domain, h)
        rc = RefinementConfig(global_h=h, rule="quadratic", coefficient=1.0)
        refined, _ = refine_near_crack(mesh, crack, rc)
        marked = marked_by(refined, crack)
        band = _vertex_neighborhood(refined, marked)
        assert (refined.triangle_diameters()[band] <= rc.crack_target()).all()
        # triangles away from the crack keep the global size
        assert refined.h_max <= np.sqrt(2.0) * h + 1e-12
        validate_mesh(refined)

    def test_idempotent(self, y_crack):
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
        rc = RefinementConfig(global_h=0.25, rule="fixed", crack_h=0.1)
        once, _ = refine_near_crack(mesh, y_crack, rc)
        again, _ = refine_near_crack(once, y_crack, rc)
        assert again is once

    def test_generation_budget_exhausted(self, y_crack):
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.5)
        rc = RefinementConfig(
            global_h=0.5, rule="fixed", crack_h=1e-3, max_generations=2
        )
        with pytest.raises(RefinementError, match="generations"):
            refine_near_crack(mesh, y_crack, rc)

    def test_budget_failure_marks_once_per_generation(self, y_crack, monkeypatch):
        original = mesh_module.mark_crack_elements
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # each generation's incidence step is one vectorised clip: the full
        # query in generation 0, the children near the crack after that
        clip = mesh_module.clip_segments_to_triangles
        clips = []

        def counting_clips(*args, **kwargs):
            clips.append(args)
            return clip(*args, **kwargs)

        monkeypatch.setattr(mesh_module, "mark_crack_elements", counting)
        monkeypatch.setattr(mesh_module, "clip_segments_to_triangles", counting_clips)
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.5)
        rc = RefinementConfig(
            global_h=0.5, rule="fixed", crack_h=1e-3, max_generations=2
        )
        with pytest.raises(RefinementError, match="worst band diameter"):
            refine_near_crack(mesh, y_crack, rc)
        assert len(calls) == 2
        assert len(clips) == 2

    @pytest.mark.parametrize(
        "preset, level, touched, vertex_ring_candidates",
        [("radial-local", 1, 2262, 35398), ("crack-network", None, 2757, 33448)],
    )
    def test_clips_only_children_of_near_triangles(
        self, preset, level, touched, vertex_ring_candidates, monkeypatch
    ):
        # clipping the children of each part's touched triangles and their
        # vertex neighbours took vertex_ring_candidates clips for the same
        # touched pairs; the children of the near triangles take 5090 and 7416
        config = build_preset(preset)
        if level is not None:
            config = config.with_global_h(config.study["levels"][level])
        rc = config.refinement
        clip = mesh_module.clip_segments_to_triangles
        counts = {"candidates": 0, "touched": 0}

        def counting_clips(*args, **kwargs):
            result = clip(*args, **kwargs)
            counts["candidates"] += len(args[2])
            counts["touched"] += int(result[2].sum())
            return result

        monkeypatch.setattr(mesh_module, "clip_segments_to_triangles", counting_clips)
        mesh = build_rectangle_mesh(config.domain, rc.global_h)
        refine_near_crack(mesh, build_crack_graph(config, rc.global_h), rc)
        assert counts["touched"] == touched
        assert counts["candidates"] <= 0.25 * vertex_ring_candidates

    @pytest.mark.parametrize(
        "preset, levels", [("radial-local", _radial_levels()), ("crack-network", [0.5])]
    )
    def test_lattice_points_lead_the_vertices(self, preset, levels):
        # the Lattice invariant: a rectangle mesh's lattice points stay its
        # leading vertices, bit for bit, and only refinement adds others
        for h in levels:
            config = build_preset(preset).with_global_h(h)
            mesh = build_rectangle_mesh(config.domain, h)
            crack = build_crack_graph(config, h)
            refined, _ = refine_near_crack(mesh, crack, config.refinement)
            assert refined is not mesh
            for m in (mesh, refined):
                xs, ys, _ = m.lattice
                assert xs is mesh.lattice.xs and ys is mesh.lattice.ys
                xg, yg = np.meshgrid(xs, ys)
                points = np.column_stack([xg.ravel(), yg.ravel()])
                assert m.vertices[: len(points)].tobytes() == points.tobytes()
                assert (m.n_vertices == len(points)) == (m is mesh)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RefinementConfig(global_h=0.0)
        with pytest.raises(ValueError):
            RefinementConfig(global_h=0.5, rule="cubic")
        with pytest.raises(ValueError):
            RefinementConfig(global_h=0.5, rule="fixed")
        with pytest.raises(ValueError):
            RefinementConfig(global_h=0.5, rule="quadratic", coefficient=0.0)

    # a bool is an int to isinstance, and an infinite target refines nothing
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"rule": "quadratic", "max_generations": True}, "max_generations must be >= 1"),
            ({"rule": "fixed", "crack_h": np.inf}, "crack_h must be finite"),
            ({"rule": "quadratic", "coefficient": np.inf}, "coefficient must be finite"),
        ],
        ids=["max_generations-bool", "crack_h-inf", "coefficient-inf"],
    )
    def test_config_rejects_bool_budget_and_infinite_targets(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RefinementConfig(global_h=0.1, **kwargs)


UNIT_TOL = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 1.0).tolerance


@st.composite
def _near_vertex_chains(draw):
    """One segment passing 1-3 tolerances beside a lattice point that
    refinement turns into a vertex, where 45-degree child corners reach."""
    vertex = np.array([draw(st.integers(4, 12)), draw(st.integers(4, 12))]) / 16.0
    angle = np.pi * draw(st.sampled_from([0.0, 0.25, 0.5, 0.75]) | st.floats(0.0, 1.0))
    along = np.array([np.cos(angle), np.sin(angle)])
    center = vertex + draw(st.floats(1.0, 3.0)) * UNIT_TOL * np.array([-along[1], along[0]])
    back, ahead = draw(st.floats(0.02, 0.2)), draw(st.floats(0.02, 0.2))
    return [np.array([center - back * along, center + ahead * along])]


_H = st.sampled_from([0.5, 0.25, 0.125])
_RULE = st.sampled_from(["fixed", "quadratic"])


class TestIncrementalIncidence:
    """Every generation's incidence equals a fresh full query, bitwise."""

    @staticmethod
    def check_generations(chains, h, rule):
        crack = CrackGraph([Chain(points) for points in chains])
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), h)
        rc = RefinementConfig(global_h=h, rule=rule, crack_h=h / 8.0)
        clips, bisections, fresh_maps = [], [], []
        clip_pairs, bisect, edge_map = Mesh.clip_pairs, mesh_module.refine_marked, Mesh.edge_map

        def recording_clip(self, starts, ends, part, tri):
            hits, near = clip_pairs(self, starts, ends, part, tri)
            clips.append((self, starts, ends, hits, near))
            return hits, near

        def recording_bisect(coarse, marked):
            refined, parent = bisect(coarse, marked)
            bisections.append((coarse, refined, parent))
            return refined, parent

        def recording_edge_map(self):
            if self._edges is None:  # numbered here, not carried
                fresh_maps.append(self)
            return edge_map(self)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Mesh, "clip_pairs", recording_clip)
            patch.setattr(mesh_module, "refine_marked", recording_bisect)
            patch.setattr(Mesh, "edge_map", recording_edge_map)
            refined, hits = refine_near_crack(mesh, crack, rc)

        # one incidence step per generation; the last is the one returned
        assert len(clips) == len(bisections) + 1
        assert clips[-1][0] is refined and clips[-1][3] is hits
        # only the unrefined mesh numbers its edges; bisection carries the map
        assert fresh_maps == ([mesh] if bisections else [])
        for current, starts, ends, got, (near_part, near_tri) in clips:
            want = current.incidence(starts, ends)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            near = near_part * current.n_triangles + near_tri
            assert (np.diff(near) > 0).all()
            assert np.isin(got.part * current.n_triangles + got.tri, near).all()
            assert current.tolerance == REL_TOL * max(
                bbox_diameter(current.vertices), 1.0
            )
            assert_carried_edges_are_fresh(current)
        for coarse, fine, parent in bisections:
            assert parent.shape == (fine.n_triangles,)
            assert (np.diff(parent) >= 0).all()
            centroids = fine.vertices[fine.triangles].mean(axis=1)
            assert (coarse.hat_values(parent, centroids) > 0.0).all()
            areas = np.bincount(
                parent, weights=fine.triangle_areas(), minlength=coarse.n_triangles
            )
            np.testing.assert_allclose(areas, coarse.triangle_areas(), rtol=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(polylines(st.floats(0.0, 1.0)), _H, _RULE)
    def test_random_polylines(self, chains, h, rule):
        self.check_generations(chains, h, rule)

    @settings(deadline=None, max_examples=50)
    @given(polylines(st.integers(0, 16).map(lambda i: i / 16.0)), _H, _RULE)
    def test_grid_snapped_polylines(self, chains, h, rule):
        self.check_generations(chains, h, rule)

    @settings(deadline=None, max_examples=50)
    @given(_near_vertex_chains(), _H, _RULE)
    # two tolerances left of x = 0.5, a grid cell boundary at h = 0.5: only
    # the 45-degree corners of the triangles right of it reach the chain
    @example(
        [np.array([[0.5, 0.125], [0.5, 0.375]]) - [2.0 * UNIT_TOL, 0.0]], 0.5, "fixed"
    )
    def test_chain_just_beside_a_vertex(self, chains, h, rule):
        self.check_generations(chains, h, rule)


class TestP1Geometry:
    def test_gradients_match_the_element_oracle(self, fine_square_mesh):
        grads = fine_square_mesh.hat_gradients()
        for t in (0, 5, 77):
            coords = fine_square_mesh.vertices[fine_square_mesh.triangles[t]]
            want, _ = element_gradients(coords)
            assert np.allclose(grads[:, :, t], want, rtol=1e-14, atol=0.0)

    def test_subset_is_bitwise_a_slice_of_the_full_array(self, fine_square_mesh):
        ids = np.array([9, 2, 2, 40])
        full = fine_square_mesh.hat_gradients()
        assert np.array_equal(fine_square_mesh.hat_gradients(ids), full[..., ids])

    def test_hat_values_are_barycentric_coordinates(self, fine_square_mesh, rng):
        mesh = fine_square_mesh
        ids = rng.integers(0, mesh.n_triangles, size=6)
        corners = mesh.vertices[mesh.triangles[ids]]  # (6, 3, 2)
        at_corners = mesh.hat_values(ids, corners)  # (6, 3, 3)
        assert np.allclose(at_corners, np.eye(3), atol=1e-13)
        bary = rng.dirichlet([1.0, 1.0, 1.0], size=6)
        inside = np.einsum("ki,kid->kd", bary, corners)
        assert np.allclose(mesh.hat_values(ids, inside), bary, atol=1e-13)

    def test_tolerance_scales_with_the_domain_beyond_unit_size(self):
        small = build_rectangle_mesh((0.0, 0.5, 0.0, 0.5), 0.25)
        large = build_rectangle_mesh((0.0, 30.0, 0.0, 40.0), 10.0)
        assert small.tolerance == REL_TOL
        assert large.tolerance == REL_TOL * 50.0


class TestDofProfile:
    def test_structured_counts(self):
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
        profile = dof_count_profile(mesh, CrackGraph.empty())
        assert profile.n_vertices == 25
        assert profile.n_near_crack_vertices == 0
        assert profile.n_crack_triangles == 0

    def test_total_grows_fourfold_per_halving(self):
        # coarse grids sit below 4x because of the +1 boundary rows
        counts = [
            build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), h).n_vertices
            for h in (0.025, 0.0125, 0.00625)
        ]
        for coarse, fine in zip(counts, counts[1:]):
            assert 0.9 * 4 <= fine / coarse <= 1.1 * 4

    def test_near_crack_grows_fourfold_with_quadratic_rule(self):
        # with crack_h ~ h^2 the crack-band vertex count scales like 1/crack_h
        config = build_preset("radial-local")
        near = []
        for h in _radial_levels()[:3]:
            level = config.with_global_h(h)
            crack = build_crack_graph(level, h)
            mesh = build_rectangle_mesh(level.domain, h)
            mesh, _ = refine_near_crack(mesh, crack, level.refinement)
            near.append(dof_count_profile(mesh, crack).n_near_crack_vertices)
        for coarse, fine in zip(near, near[1:]):
            assert 0.9 * 4 <= fine / coarse <= 1.1 * 4


# doubles whose text form is easy to get wrong: signed zero, subnormals, the
# extremes, non-finite values
_EXPORT_FLOATS = st.one_of(
    st.floats(width=64),
    st.sampled_from(
        [-0.0, 5e-324, -2.5e-320, 1e300, -1e300]
        + [float("nan"), float("inf"), -float("inf")]
    ),
)


class TestExports:
    def test_mesh_text_header_and_stability(self, square_mesh, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        export_mesh_text(square_mesh, p1)
        export_mesh_text(square_mesh, p2)
        text = p1.read_text()
        assert text.splitlines()[0] == "vertices 9 / triangles 8"
        assert len(text.splitlines()) == 1 + 9 + 8
        assert p1.read_bytes() == p2.read_bytes()

    def test_vtk_layout_and_stability(self, square_mesh, tmp_path):
        p1, p2 = tmp_path / "a.vtk", tmp_path / "b.vtk"
        values = np.linspace(0.0, 1.0, square_mesh.n_vertices)
        field = SolutionField(square_mesh, values)
        export_vtk(square_mesh, p1, field)
        export_vtk(square_mesh, p2, field)
        lines = p1.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert "DATASET UNSTRUCTURED_GRID" in lines
        assert f"POINTS {square_mesh.n_vertices} double" in lines
        assert f"CELL_TYPES {square_mesh.n_triangles}" in lines
        assert p1.read_bytes() == p2.read_bytes()

    def test_rows_across_chunks_match_one_fstring_per_row(self):
        rows = np.random.default_rng(7).normal(size=(2 * (1 << 16) + 3, 2))
        expected = "".join(f"{float(x)!r} {float(y)!r}\n" for x, y in rows)
        assert _render("%r %r\n", rows) == expected

    def test_solution_field_point_data(self, square_mesh, tmp_path):
        values = np.linspace(-1.0, 1.0, square_mesh.n_vertices)
        field = SolutionField(square_mesh, values)
        export_vtk(square_mesh, tmp_path / "a.vtk", field)
        oracles.export_vtk(square_mesh, tmp_path / "b.vtk", field)
        assert (tmp_path / "a.vtk").read_bytes() == (tmp_path / "b.vtk").read_bytes()
        assert field.value_rows() is field.value_rows()

    def test_lattice_vertex_rows_match_one_fstring_per_row(self, rng):
        # leading lattice points take the joined-reprs path; vertices that
        # are not the lattice points, if only by the sign of a zero, do not
        mesh = build_rectangle_mesh((-0.3, 0.0, 0.1, 0.77), 0.07)
        mesh, _ = refine_marked(mesh, rng.choice(mesh.n_triangles, 9, replace=False))
        xs = mesh.lattice.xs.copy()
        assert xs[-1] == 0.0 and not np.signbit(xs[-1])
        xs[-1] = -0.0
        signed = Mesh(mesh.vertices, mesh.triangles, mesh.lattice._replace(xs=xs))
        turned = Mesh(-mesh.vertices, mesh.triangles, mesh.lattice)
        for m in (mesh, signed, turned):
            want = "".join(f"{float(x)!r} {float(y)!r}\n" for x, y in m.vertices)
            assert m.text_rows()[0] == want

    @pytest.mark.parametrize("block", [1, 7, "above n"])
    def test_solution_text_in_blocks_matches_one_fstring_per_row(
        self, block, rng, monkeypatch, tmp_path
    ):
        # lattice rows first, then midpoint rows rendered one by one
        mesh = build_rectangle_mesh((-0.3, 0.0, 0.1, 0.77), 0.07)
        mesh, _ = refine_marked(mesh, rng.choice(mesh.n_triangles, 9, replace=False))
        if block == "above n":
            block = mesh.n_vertices + 1
        elif block == 7:
            assert mesh.n_vertices % 7  # a ragged last block
        monkeypatch.setattr(config_module, "_TEXT_BLOCK", block)
        field = SolutionField(mesh, rng.normal(size=mesh.n_vertices))
        _export_solution_text(field, tmp_path / "got")
        oracles.export_solution_text(field, tmp_path / "want")
        assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()

    def test_text_rows_are_rendered_once(self, square_mesh):
        first = square_mesh.text_rows()
        second = square_mesh.text_rows()
        assert all(a is b for a, b in zip(first, second))

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_bulk_writers_match_line_oracles(self, data):
        n = data.draw(st.integers(1, 12))
        m = data.draw(st.integers(0, 12))
        vertices = data.draw(arrays(np.float64, (n, 2), elements=_EXPORT_FLOATS))
        triangles = data.draw(arrays(np.int64, (m, 3)))
        values = data.draw(
            st.one_of(
                arrays(np.float64, n, elements=_EXPORT_FLOATS),
                arrays(np.int64, n, elements=st.integers(-(2**60), 2**60)),
            )
        )
        mesh = Mesh(vertices, triangles)
        field = SolutionField(mesh, values)
        writers = [
            (export_mesh_text, oracles.export_mesh_text, (mesh,)),
            (export_vtk, oracles.export_vtk, (mesh,)),
            (export_vtk, oracles.export_vtk, (mesh, field)),
            (_export_solution_text, oracles.export_solution_text, (field,)),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got", Path(tmp) / "want"
            for writer, oracle, (obj, *rest) in writers:
                writer(obj, got, *rest)
                oracle(obj, want, *rest)
                assert got.read_bytes() == want.read_bytes()

