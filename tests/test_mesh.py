"""Mesh construction, crack marking, bisection refinement, exports."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crackfem import (
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
from crackfem._geom import REL_TOL, bbox_diameter, point_segment_distances
from crackfem.config import _radial_levels, build_crack_graph
from crackfem.mesh import (
    _vertex_neighborhood,
    _write_rows,
    export_mesh_text,
    export_vtk,
)
from crackfem.config import _export_solution_text
from crackfem.solve import SolutionField
from crackfem import mesh as mesh_module
from conftest import make_y_crack, polylines
import oracles
from oracles import (
    dof_count_profile,
    element_gradients,
    min_angle,
    points_in_triangle,
)


class TestBuildRectangleMesh:
    def test_unit_square_coarsest_is_one_diagonal_split(self):
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 1.0)
        assert mesh.n_triangles == 2
        assert mesh.n_vertices == 4
        np.testing.assert_allclose(mesh.triangle_diameters(), np.sqrt(2.0))
        mesh.validate()

    def test_unit_square_structured_counts(self):
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.5)
        assert mesh.n_vertices == 9
        assert mesh.n_triangles == 8
        np.testing.assert_allclose(mesh.triangle_areas(), 0.125)
        mesh.validate()

    def test_network_domain_side_tags(self):
        mesh = build_rectangle_mesh((0.0, 13.0, 0.0, 9.5), 0.7)
        for tag, axis, value in (
            ("left", 0, 0.0),
            ("right", 0, 13.0),
            ("bottom", 1, 0.0),
            ("top", 1, 9.5),
        ):
            edges = mesh.boundary_edges[mesh.boundary_tags == tag]
            assert edges.size > 0
            np.testing.assert_array_equal(
                mesh.vertices[edges.ravel()][:, axis], value
            )
        # conversely, every x = 0 edge carries the left tag
        on_left = np.all(mesh.vertices[mesh.boundary_edges][:, :, 0] == 0.0, axis=1)
        assert set(mesh.boundary_tags[on_left]) == {"left"}

    def test_spacing_bound_and_diameter(self):
        mesh = build_rectangle_mesh((0.0, 2.0, 0.0, 1.0), 0.3)
        # diameters are cell diagonals, at most sqrt(2) times the target
        assert mesh.h_max <= np.sqrt(2.0) * 0.3 + 1e-12
        # cells are near-square (sides rounded up independently), so the
        # angles stay comfortably above the refinement floor
        assert min_angle(mesh) >= 15.0

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
        bad = Mesh(
            square_mesh.vertices,
            flipped,
            square_mesh.boundary_edges,
            square_mesh.boundary_tags,
        )
        with pytest.raises(MeshError, match="area"):
            bad.validate()

    def test_detects_hanging_node(self):
        # two triangles sharing only half an edge
        vertices = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [1.0, 1.0]]
        )
        triangles = np.array([[0, 1, 2], [3, 1, 4]])
        edges = np.array([[0, 1], [1, 4], [4, 3], [2, 0], [3, 2]])
        mesh = Mesh(vertices, triangles, edges, ["b"] * 5)
        with pytest.raises(MeshError):
            mesh.validate()

    def test_detects_index_out_of_range(self, square_mesh):
        tris = square_mesh.triangles.copy()
        tris[0, 0] = 99
        bad = Mesh(
            square_mesh.vertices,
            tris,
            square_mesh.boundary_edges,
            square_mesh.boundary_tags,
        )
        with pytest.raises(MeshError, match="range"):
            bad.validate()


class TestMarkCrackElements:
    def test_segment_inside_one_triangle(self, square_mesh):
        # strictly inside the lower-left cell's lower triangle
        crack = CrackGraph([Chain(np.array([[0.3, 0.1], [0.4, 0.15]]))])
        marked = mark_crack_elements(square_mesh, crack)
        assert marked.tolist() == [0]

    def test_segment_on_shared_edge_marks_both(self, square_mesh):
        # the diagonal of the lower-left cell is shared by triangles 0 and 1
        crack = CrackGraph([Chain(np.array([[0.5, 0.0], [0.0, 0.5]]))])
        marked = mark_crack_elements(square_mesh, crack)
        assert set(marked.tolist()) >= {0, 1}

    def test_empty_crack_marks_nothing(self, square_mesh):
        assert mark_crack_elements(square_mesh, CrackGraph.empty()).size == 0

    def test_matches_dense_sampling_oracle(self):
        config = build_preset("radial-uniform")
        h = 0.2
        cases = [
            (build_rectangle_mesh(config.domain, h), build_crack_graph(config, h)),
            # several chains, all marked in one batch
            (build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), h), make_y_crack()),
        ]
        for mesh, crack in cases:
            marked = set(mark_crack_elements(mesh, crack).tolist())
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
    """The edge table a refined mesh carries lists the edges a fresh
    ``edge_codes`` finds, triangle by triangle and edge slot by edge slot."""
    pairs, t2e = mesh.edge_table()
    codes, fresh_t2e = mesh.edge_codes()
    assert len(pairs) == len(codes)
    assert (pairs[:, 0] < pairs[:, 1]).all()
    carried = pairs[t2e, 0] * mesh.n_vertices + pairs[t2e, 1]
    assert (carried == codes[fresh_t2e]).all()


class TestRefineMarked:
    def test_conforming_after_every_generation(self, fine_square_mesh, rng):
        mesh = fine_square_mesh
        for _ in range(6):
            marked = rng.choice(
                mesh.n_triangles, size=max(1, mesh.n_triangles // 10), replace=False
            )
            mesh, _ = refine_marked(mesh, marked)
            mesh.validate()
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
    @pytest.mark.parametrize(
        "marked", [[-1], [0, 8], np.zeros(7, bool), np.ones(9, bool)]
    )
    def test_rejects_marks_outside_the_mesh(self, square_mesh, marked):
        with pytest.raises(MeshError, match="triangle"):
            refine_marked(square_mesh, marked)

    def test_boolean_mask_accepted(self, square_mesh):
        mask = np.zeros(square_mesh.n_triangles, dtype=bool)
        mask[3] = True
        refined, _ = refine_marked(square_mesh, mask)
        assert refined.n_triangles > square_mesh.n_triangles

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
            mesh.validate()

    def test_boundary_tags_survive_refinement(self, square_mesh):
        refined, _ = refine_marked(square_mesh, np.arange(square_mesh.n_triangles))
        for tag in ("left", "right", "top", "bottom"):
            assert (refined.boundary_tags == tag).sum() >= (
                square_mesh.boundary_tags == tag
            ).sum()
        refined.validate()


class TestBisectionMatchesTable:
    """Two bisection steps per generation give the six-case table's meshes
    bitwise, over several generations of random markings."""

    @settings(deadline=None, max_examples=60)
    @given(
        st.floats(0.5, 2.0),
        st.floats(0.5, 2.0),
        st.integers(1, 4),
        st.lists(st.booleans(), min_size=3, max_size=5),
        st.data(),
    )
    def test_matches_the_table(self, width, height, cells, as_mask, data):
        h = min(width, height) / cells
        mesh = table = build_rectangle_mesh((0.0, width, 0.0, height), h)
        for mask in as_mask:
            n = mesh.n_triangles
            if mask:
                marked = data.draw(arrays(bool, n))
            else:
                marked = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
            mesh, parent = refine_marked(mesh, marked)
            table, table_parent = oracles.refine_marked_table(table, marked)
            for name in ("vertices", "triangles", "boundary_edges", "boundary_tags"):
                a, b = getattr(mesh, name), getattr(table, name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), name
            assert parent.tobytes() == table_parent.tobytes()
            assert_carried_edges_are_fresh(mesh)


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
        marked = mark_crack_elements(refined, crack)
        band = _vertex_neighborhood(refined, marked)
        assert (refined.triangle_diameters()[band] <= rc.crack_target()).all()
        # triangles away from the crack keep the global size
        assert refined.h_max <= np.sqrt(2.0) * h + 1e-12
        refined.validate()

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RefinementConfig(global_h=0.0)
        with pytest.raises(ValueError):
            RefinementConfig(global_h=0.5, rule="cubic")
        with pytest.raises(ValueError):
            RefinementConfig(global_h=0.5, rule="fixed")
        with pytest.raises(ValueError):
            RefinementConfig(global_h=0.5, rule="quadratic", coefficient=0.0)


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
        clips, bisections, fresh_tables = [], [], []
        clip_pairs, bisect = Mesh.clip_pairs, mesh_module.refine_marked
        edge_codes = Mesh.edge_codes

        def recording_clip(self, starts, ends, part, tri):
            hits, near = clip_pairs(self, starts, ends, part, tri)
            clips.append((self, starts, ends, hits, near))
            return hits, near

        def recording_bisect(coarse, marked):
            refined, parent = bisect(coarse, marked)
            bisections.append((coarse, refined, parent))
            return refined, parent

        def recording_edge_codes(self):
            fresh_tables.append(self)
            return edge_codes(self)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Mesh, "clip_pairs", recording_clip)
            patch.setattr(mesh_module, "refine_marked", recording_bisect)
            patch.setattr(Mesh, "edge_codes", recording_edge_codes)
            refined, hits = refine_near_crack(mesh, crack, rc)

        # one incidence step per generation; the last is the one returned
        assert len(clips) == len(bisections) + 1
        assert clips[-1][0] is refined and clips[-1][3] is hits
        # only the unrefined mesh builds its edge table; bisection carries it
        assert fresh_tables == ([mesh] if bisections else [])
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
            assert np.allclose(grads[t], want, rtol=1e-14, atol=0.0)

    def test_subset_is_bitwise_a_slice_of_the_full_array(self, fine_square_mesh):
        ids = np.array([9, 2, 2, 40])
        full = fine_square_mesh.hat_gradients()
        assert np.array_equal(fine_square_mesh.hat_gradients(ids), full[ids])

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
        data = {"u": np.linspace(0.0, 1.0, square_mesh.n_vertices)}
        export_vtk(square_mesh, p1, point_data=data)
        export_vtk(square_mesh, p2, point_data=data)
        lines = p1.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert "DATASET UNSTRUCTURED_GRID" in lines
        assert f"POINTS {square_mesh.n_vertices} double" in lines
        assert f"CELL_TYPES {square_mesh.n_triangles}" in lines
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "data",
        [
            {"u": np.arange(3)},
            {"u": np.zeros((9, 2))},
            {"u": ["a"] * 9},
            {"u": np.ones(9, dtype=complex)},
            {"two words": np.zeros(9)},
            {"": np.zeros(9)},
        ],
    )
    def test_vtk_rejects_malformed_point_data(self, square_mesh, tmp_path, data):
        # a short field used to be written as POINT_DATA 9 followed by 3 values
        path = tmp_path / "bad.vtk"
        (name,) = data
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            export_vtk(square_mesh, path, point_data=data)
        assert not path.exists()

    def test_rows_across_chunks_match_one_fstring_per_row(self, tmp_path):
        rows = np.random.default_rng(7).normal(size=(2 * (1 << 16) + 3, 2))
        with open(tmp_path / "rows.txt", "w") as f:
            _write_rows(f, "%r %r\n", rows)
        expected = "".join(f"{float(x)!r} {float(y)!r}\n" for x, y in rows)
        assert (tmp_path / "rows.txt").read_text() == expected

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
        mesh = Mesh(vertices, triangles, np.empty((0, 2), dtype=np.int64), [])
        writers = [
            (export_mesh_text, oracles.export_mesh_text, (mesh,)),
            (export_vtk, oracles.export_vtk, (mesh,)),
            (export_vtk, oracles.export_vtk, (mesh, {"u": values, "v": -values})),
            (
                _export_solution_text,
                oracles.export_solution_text,
                (SolutionField(mesh, values),),
            ),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got", Path(tmp) / "want"
            for writer, oracle, (obj, *rest) in writers:
                writer(obj, got, *rest)
                oracle(obj, want, *rest)
                assert got.read_bytes() == want.read_bytes()

