"""Mesh construction, crack marking, bisection refinement, exports."""

import numpy as np
import pytest

from crackfem import (
    Chain,
    CrackGraph,
    Mesh,
    MeshError,
    RefinementConfig,
    RefinementError,
    build_preset,
    build_rectangle_mesh,
    element_gradients,
    mark_crack_elements,
    refine_marked,
    refine_near_crack,
)
from crackfem._geom import REL_TOL, bbox_diameter, points_in_triangle
from crackfem.config import _radial_levels, build_crack_graph
from crackfem.mesh import _vertex_neighborhood, export_mesh_text, export_vtk
from crackfem import mesh as mesh_module
from oracles import dof_count_profile


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
        assert mesh.min_angle() >= 15.0

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
        mesh = build_rectangle_mesh(config.domain, h)
        crack = build_crack_graph(config, h)
        marked = set(mark_crack_elements(mesh, crack).tolist())

        tol = REL_TOL * max(bbox_diameter(mesh.vertices), 1.0)
        samples = [np.asarray(c.points) for c in crack.chains]
        dense = []
        for pts in samples:
            for p, q in zip(pts[:-1], pts[1:]):
                # corner cuts can be ~1e-3 long here, so sample well below that
                n = max(2, int(np.ceil(np.linalg.norm(q - p) / (h / 2000.0))) + 1)
                t = np.linspace(0.0, 1.0, n)
                dense.append(p + t[:, None] * (q - p))
        dense = np.vstack(dense)
        coords = mesh.vertices[mesh.triangles]
        oracle = {
            int(i)
            for i in range(mesh.n_triangles)
            if points_in_triangle(dense, coords[i], tol).any()
        }
        assert marked == oracle


class TestRefineMarked:
    def test_conforming_after_every_generation(self, fine_square_mesh, rng):
        mesh = fine_square_mesh
        for _ in range(6):
            marked = rng.choice(
                mesh.n_triangles, size=max(1, mesh.n_triangles // 10), replace=False
            )
            mesh = refine_marked(mesh, marked)
            mesh.validate()

    def test_vertices_only_grow(self, square_mesh):
        refined = refine_marked(square_mesh, [0])
        assert refined.n_vertices > square_mesh.n_vertices
        np.testing.assert_array_equal(
            refined.vertices[: square_mesh.n_vertices], square_mesh.vertices
        )

    def test_empty_marking_returns_input(self, square_mesh):
        assert refine_marked(square_mesh, np.empty(0, dtype=int)) is square_mesh

    def test_boolean_mask_accepted(self, square_mesh):
        mask = np.zeros(square_mesh.n_triangles, dtype=bool)
        mask[3] = True
        refined = refine_marked(square_mesh, mask)
        assert refined.n_triangles > square_mesh.n_triangles

    def test_min_angle_floor_over_random_sequences(self, rng):
        # structured meshes start at 45 degrees; bisection must never drop
        # below the documented floor
        for _ in range(10):
            mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
            for _ in range(4):
                k = rng.integers(1, mesh.n_triangles)
                marked = rng.choice(mesh.n_triangles, size=k, replace=False)
                mesh = refine_marked(mesh, marked)
            assert mesh.min_angle() >= 15.0
            mesh.validate()

    def test_boundary_tags_survive_refinement(self, square_mesh):
        refined = refine_marked(square_mesh, np.arange(square_mesh.n_triangles))
        for tag in ("left", "right", "top", "bottom"):
            assert (refined.boundary_tags == tag).sum() >= (
                square_mesh.boundary_tags == tag
            ).sum()
        refined.validate()


class TestRefineNearCrack:
    def test_rule_none_is_identity(self, square_mesh, y_crack):
        config = RefinementConfig(global_h=0.5, rule="none")
        assert refine_near_crack(square_mesh, y_crack, config) is square_mesh

    def test_fixed_rule_already_satisfied(self, square_mesh, y_crack):
        config = RefinementConfig(global_h=0.5, rule="fixed", crack_h=10.0)
        assert refine_near_crack(square_mesh, y_crack, config) is square_mesh

    def test_quadratic_rule_meets_target(self):
        config = build_preset("radial-local")
        h = _radial_levels()[0]
        crack = build_crack_graph(config, h)
        mesh = build_rectangle_mesh(config.domain, h)
        rc = RefinementConfig(global_h=h, rule="quadratic", coefficient=1.0)
        refined = refine_near_crack(mesh, crack, rc)
        marked = mark_crack_elements(refined, crack)
        band = _vertex_neighborhood(refined, marked)
        assert (refined.triangle_diameters()[band] <= rc.crack_target()).all()
        # triangles away from the crack keep the global size
        assert refined.h_max <= np.sqrt(2.0) * h + 1e-12
        refined.validate()

    def test_idempotent(self, y_crack):
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
        rc = RefinementConfig(global_h=0.25, rule="fixed", crack_h=0.1)
        once = refine_near_crack(mesh, y_crack, rc)
        again = refine_near_crack(once, y_crack, rc)
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

        monkeypatch.setattr(mesh_module, "mark_crack_elements", counting)
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.5)
        rc = RefinementConfig(
            global_h=0.5, rule="fixed", crack_h=1e-3, max_generations=2
        )
        with pytest.raises(RefinementError, match="worst band diameter"):
            refine_near_crack(mesh, y_crack, rc)
        assert len(calls) == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RefinementConfig(global_h=0.0)
        with pytest.raises(ValueError):
            RefinementConfig(global_h=0.5, rule="cubic")
        with pytest.raises(ValueError):
            RefinementConfig(global_h=0.5, rule="fixed")
        with pytest.raises(ValueError):
            RefinementConfig(global_h=0.5, rule="quadratic", coefficient=0.0)


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
            mesh = refine_near_crack(
                mesh, crack, RefinementConfig(**level.refinement)
            )
            near.append(dof_count_profile(mesh, crack).n_near_crack_vertices)
        for coarse, fine in zip(near, near[1:]):
            assert 0.9 * 4 <= fine / coarse <= 1.1 * 4


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
