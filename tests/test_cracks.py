"""Crack graphs, curve sampling, and the chain-to-triangle cutter."""

import numpy as np
import pytest

from crackfem import (
    Chain,
    CrackGeometryError,
    CrackGraph,
    build_rectangle_mesh,
    cut_chains,
)
from crackfem._geom import REL_TOL, bbox_diameter, points_in_triangle
from crackfem.cracks import (
    arc_curve,
    circle_curve,
    sample_curve,
    signed_distance_to_crack,
)
from conftest import make_y_crack
from oracles import (
    node_chains,
    node_degree,
    segment_curve,
    segment_triangle_intersection,
)


class TestChainValidation:
    def test_rejects_single_point(self):
        with pytest.raises(CrackGeometryError, match="two 2d points"):
            Chain(np.array([[0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(CrackGeometryError, match="non-finite"):
            Chain(np.array([[0.0, 0.0], [np.nan, 1.0]]))

    def test_rejects_negative_permeability(self):
        with pytest.raises(CrackGeometryError, match="permeability"):
            Chain(np.array([[0.0, 0.0], [1.0, 0.0]]), permeability=-1.0)

    def test_points_are_read_only(self):
        chain = Chain(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            chain.points[0, 0] = 5.0

    def test_length_and_closed_flag(self):
        sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        chain = Chain(sq)
        assert chain.length == pytest.approx(4.0)
        assert chain.is_closed
        assert not Chain(sq[:3]).is_closed


class TestCrackGraph:
    def test_rejects_zero_length_chain(self):
        with pytest.raises(CrackGeometryError, match="zero-length"):
            CrackGraph([Chain(np.array([[1.0, 1.0], [1.0, 1.0]]))])

    def test_derives_nodes_from_endpoints(self, y_crack):
        # three chains share the center, so 4 distinct nodes remain
        assert y_crack.nodes.shape == (4, 2)
        degrees = sorted(node_degree(y_crack, i) for i in range(4))
        assert degrees == [1, 1, 1, 3]

    def test_node_chains_at_the_junction(self, y_crack):
        center = int(np.argmax([node_degree(y_crack, i) for i in range(4)]))
        assert node_chains(y_crack, center) == [0, 1, 2]
        assert np.allclose(y_crack.nodes[center], [0.5, 0.5])

    def test_closed_loop_counts_twice_at_its_node(self):
        sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        graph = CrackGraph([Chain(sq)])
        assert graph.nodes.shape == (1, 2)
        assert node_degree(graph, 0) == 2
        assert node_chains(graph, 0) == [0]

    def test_explicit_nodes_must_cover_endpoints(self):
        chain = Chain(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(CrackGeometryError, match="matches no node"):
            CrackGraph([chain], nodes=np.array([[0.0, 0.0], [5.0, 5.0]]))

    def test_empty_graph(self):
        graph = CrackGraph.empty()
        assert graph.n_chains == 0
        assert graph.nodes.shape == (0, 2)


class TestSampleCurve:
    def test_straight_segment_equal_parts(self):
        pts = sample_curve(segment_curve([0.0, 0.0], [1.0, 0.0]), 0.25)
        assert pts.shape == (5, 2)
        assert np.allclose(pts[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-9)
        assert np.array_equal(pts[0], [0.0, 0.0])
        assert np.array_equal(pts[-1], [1.0, 0.0])

    def test_spacing_bounds_every_part(self):
        curve = arc_curve([0.0, 0.0], 2.0, 0.3, 2.4)
        pts = sample_curve(curve, 0.17)
        # chord length never exceeds arc length, which the sampler bounds
        chord = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert chord.max() <= 0.17 * (1.0 + 1e-6)
        ang = np.arctan2(pts[:, 1], pts[:, 0])
        assert (np.diff(ang) * 2.0 <= 0.17 * (1.0 + 1e-3)).all()

    def test_arc_sagitta_bound(self):
        r, s = 2.0, 0.17
        curve = arc_curve([0.0, 0.0], r, 0.3, 2.4)
        pts = sample_curve(curve, s)
        mids = 0.5 * (pts[:-1] + pts[1:])
        gap = np.abs(np.linalg.norm(mids, axis=1) - r)
        assert gap.max() <= s * s / (8.0 * r) * (1.0 + 1e-3)

    def test_circle_closes_exactly(self):
        pts = sample_curve(circle_curve([1.0, 2.0], 0.7), 0.3)
        assert np.array_equal(pts[0], pts[-1])
        assert np.allclose(np.linalg.norm(pts - [1.0, 2.0], axis=1), 0.7, atol=1e-12)

    def test_coarse_spacing_gives_two_points(self):
        pts = sample_curve(segment_curve([0.0, 0.0], [1.0, 1.0]), 10.0)
        assert pts.shape == (2, 2)

    def test_rejects_bad_spacing_and_degenerate_curve(self):
        with pytest.raises(CrackGeometryError, match="spacing"):
            sample_curve(segment_curve([0.0, 0.0], [1.0, 0.0]), 0.0)
        with pytest.raises(CrackGeometryError, match="zero length"):
            sample_curve(segment_curve([1.0, 1.0], [1.0, 1.0]), 0.5)


class TestSegmentTriangleIntersection:
    def test_horizontal_cut_of_reference_triangle(self, ref_triangle):
        part = segment_triangle_intersection(
            [-0.5, 0.25], [0.5, 0.25], ref_triangle
        )
        assert np.allclose(part, [[0.0, 0.25], [0.5, 0.25]], atol=1e-12)

    def test_fully_inside_returns_input(self, ref_triangle):
        p, q = [0.1, 0.1], [0.3, 0.2]
        part = segment_triangle_intersection(p, q, ref_triangle)
        assert np.allclose(part, [p, q], atol=1e-12)

    def test_miss_returns_none(self, ref_triangle):
        assert segment_triangle_intersection([2.0, 2.0], [3.0, 2.0], ref_triangle) is None

    def test_swap_symmetry_is_bitwise(self, ref_triangle, rng):
        for _ in range(50):
            p, q = rng.uniform(-0.5, 1.2, size=(2, 2))
            a = segment_triangle_intersection(p, q, ref_triangle)
            b = segment_triangle_intersection(q, p, ref_triangle)
            if a is None:
                assert b is None
            else:
                assert np.array_equal(a, b)

    def test_agrees_with_dense_point_sampling(self, rng):
        for _ in range(40):
            tri = rng.uniform(0.0, 1.0, size=(3, 2))
            u, v = tri[1] - tri[0], tri[2] - tri[0]
            if u[0] * v[1] - u[1] * v[0] < 0.05:
                continue  # skip thin or clockwise triangles
            p, q = rng.uniform(-0.3, 1.3, size=(2, 2))
            part = segment_triangle_intersection(p, q, tri)
            t = np.linspace(0.0, 1.0, 2001)
            pts = p + t[:, None] * (q - p)
            inside = points_in_triangle(pts, tri, -1e-9)  # strict interior
            if part is None:
                assert not inside.any()
                continue
            # every strictly interior sample lies on the returned portion,
            # and the portion midpoint is inside the closed triangle
            d = q - p
            tt = (pts[inside] - p) @ d / (d @ d)
            lo = (part[0] - p) @ d / (d @ d)
            hi = (part[1] - p) @ d / (d @ d)
            lo, hi = min(lo, hi), max(lo, hi)
            assert (tt >= lo - 1e-9).all() and (tt <= hi + 1e-9).all()
            assert points_in_triangle(part.mean(axis=0)[None], tri, 1e-9)[0]


class TestCutChains:
    def test_chain_inside_one_triangle_is_untouched(self):
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 1.0)
        chain = Chain(np.array([[0.1, 0.2], [0.2, 0.5]]), permeability=2.0)
        cut = cut_chains(mesh, CrackGraph([chain]))
        assert cut.n_segments == 1
        assert np.allclose(cut.points[0], chain.points, atol=1e-12)
        assert cut.length[0] == pytest.approx(chain.length, rel=1e-12)

    def test_crossing_segment_splits_in_two(self):
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 1.0)
        chain = Chain(np.array([[0.1, 0.9], [0.9, 0.1]]))
        cut = cut_chains(mesh, CrackGraph([chain]))
        assert cut.n_segments == 2
        assert set(cut.triangle_index.tolist()) == {0, 1}
        assert cut.length.sum() == pytest.approx(chain.length, rel=1e-12)

    def test_edge_aligned_chain_gets_lowest_owner(self):
        # the two coarse triangles share the main diagonal
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 1.0)
        shared = sorted(
            set(map(tuple, mesh.vertices[mesh.triangles[0]]))
            & set(map(tuple, mesh.vertices[mesh.triangles[1]]))
        )
        chain = Chain(np.array(shared))
        cut = cut_chains(mesh, CrackGraph([chain]))
        assert (cut.triangle_index == 0).all()

    def test_per_chain_length_conservation(self, fine_square_mesh):
        arc = Chain(
            sample_curve(arc_curve([0.5, 0.5], 0.35, 0.2, 4.5), 0.05),
            permeability=1.0,
        )
        diag = Chain(np.array([[0.05, 0.1], [0.9, 0.85]]), permeability=3.0)
        cut = cut_chains(fine_square_mesh, CrackGraph([arc, diag]))
        for j, chain in enumerate((arc, diag)):
            total = cut.length[cut.segments_of_chain(j)].sum()
            assert total == pytest.approx(chain.length, rel=1e-10)
            assert total == pytest.approx(cut.chain_length[j], rel=1e-10)

    def test_midpoints_sit_in_their_owner(self, fine_square_mesh):
        arc = Chain(sample_curve(circle_curve([0.5, 0.5], 0.3), 0.04))
        cut = cut_chains(fine_square_mesh, CrackGraph([arc]))
        coords = fine_square_mesh.vertices[fine_square_mesh.triangles]
        tol = REL_TOL * bbox_diameter(fine_square_mesh.vertices)
        mids = cut.midpoints()
        for s in range(cut.n_segments):
            assert points_in_triangle(
                mids[s][None], coords[cut.triangle_index[s]], tol
            )[0]

    def test_tangents_are_unit(self, fine_square_mesh, y_crack):
        cut = cut_chains(fine_square_mesh, y_crack)
        assert np.allclose(np.linalg.norm(cut.tangents(), axis=1), 1.0, atol=1e-12)

    def test_permeability_broadcasts_per_segment(self, fine_square_mesh):
        crack = make_y_crack(permeabilities=(2.0, 3.0, 4.0))
        cut = cut_chains(fine_square_mesh, crack)
        per = cut.permeability()
        for j, want in enumerate((2.0, 3.0, 4.0)):
            assert (per[cut.segments_of_chain(j)] == want).all()

    def test_chain_leaving_the_mesh_raises(self, square_mesh):
        chain = Chain(np.array([[0.5, 0.5], [1.7, 0.5]]))
        with pytest.raises(CrackGeometryError, match="outside|leaves"):
            cut_chains(square_mesh, CrackGraph([chain]))

    def test_empty_crack_gives_empty_cut(self, square_mesh):
        cut = cut_chains(square_mesh, CrackGraph.empty())
        assert cut.n_segments == 0
        assert cut.crossed_triangles().size == 0

    def test_node_data_is_carried_over(self, fine_square_mesh, y_crack):
        cut = cut_chains(fine_square_mesh, y_crack)
        assert np.array_equal(cut.nodes, y_crack.nodes)
        assert np.array_equal(cut.chain_nodes, y_crack.chain_nodes)


class TestSignedDistance:
    def test_sign_convention_for_closed_chain(self):
        circle = Chain(sample_curve(circle_curve([0.0, 0.0], 1.0), 0.01))
        crack = CrackGraph([circle])
        assert signed_distance_to_crack([0.0, 0.0], crack) == pytest.approx(1.0, abs=2e-5)
        assert signed_distance_to_crack([2.0, 0.0], crack) == pytest.approx(-1.0, abs=2e-5)
        on = circle.points[3]
        assert signed_distance_to_crack(on, crack) == 0.0

    def test_networks_return_unsigned_distance(self, y_crack, rng):
        pts = rng.uniform(0.0, 1.0, size=(200, 2))
        d = signed_distance_to_crack(pts, y_crack)
        assert (d >= 0.0).all()

    def test_matches_dense_sampling_oracle(self, y_crack, rng):
        pts = rng.uniform(0.0, 1.0, size=(50, 2))
        d = signed_distance_to_crack(pts, y_crack)
        dense, spacing = [], 0.0
        for chain in y_crack.chains:
            for p, q in zip(chain.points[:-1], chain.points[1:]):
                t = np.linspace(0.0, 1.0, 4001)
                dense.append(p + t[:, None] * (q - p))
                spacing = max(spacing, np.hypot(*(q - p)) / 4000.0)
        dense = np.vstack(dense)
        want = np.linalg.norm(pts[:, None, :] - dense[None], axis=2).min(axis=1)
        # min over samples overshoots the true distance by half a spacing at most
        assert np.allclose(d, want, atol=0.5 * spacing)

    def test_empty_crack_has_no_distance(self):
        with pytest.raises(CrackGeometryError, match="empty"):
            signed_distance_to_crack([0.0, 0.0], CrackGraph.empty())
