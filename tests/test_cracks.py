"""Crack graphs, arc sampling, and the chain-to-triangle cutter."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crackfem import (
    Chain,
    CrackGeometryError,
    CrackGraph,
    RefinementConfig,
    build_preset,
    build_rectangle_mesh,
    cut_chains,
    refine_near_crack,
)
from crackfem._geom import REL_TOL, bbox_diameter, clip_segments_to_triangles
from crackfem.config import build_crack_graph
from crackfem.cracks import _points_in_polygon, arc_points
from crackfem.mesh import Incidence
from conftest import make_y_crack, polylines
from oracles import (
    cut_chains_per_part,
    node_chains,
    node_degree,
    points_in_polygon_loop,
    points_in_triangle,
    segment_triangle_intersection,
    signed_distance_to_crack,
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

    def test_chain_within_tolerance_is_rejected_by_name(self):
        # shorter than the node tolerance, it used to become a loop on one
        # node although its ends differ
        tiny = Chain(np.array([[0.5, 0.5], [0.5000000000001, 0.5]]))
        assert not tiny.is_closed
        with pytest.raises(CrackGeometryError, match="chain 1 is no longer than"):
            CrackGraph([Chain(np.array([[0.1, 0.2], [0.3, 0.4]])), tiny])

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

    def test_empty_graph(self):
        graph = CrackGraph.empty()
        assert graph.n_chains == 0
        assert graph.nodes.shape == (0, 2)


# sampled point counts of each preset arc at the radial study levels and at
# crack-network global_h 0.5 and 0.25, as the arc-length table sampler gave them
PRESET_ARC_POINTS = {
    "radial-local": [[73], [144], [287], [572], [1143]],
    "crack-network": [[74, 106, 115], [146, 210, 229]],
}


class TestArcPoints:
    @pytest.mark.parametrize("angles", [(0.3, 2.4), (2.4, -1.1), (-1.05, 0.7)])
    def test_end_points_are_the_end_angles_bitwise(self, angles):
        center, r = np.array([1.5, -0.25]), 2.0
        a0, a1 = angles
        pts = arc_points(center, r, angles, 0.17)
        for p, a in ((pts[0], a0), (pts[-1], a0 + 1.0 * (a1 - a0))):
            assert np.array_equal(p, center + r * np.array([np.cos(a), np.sin(a)]))

    @pytest.mark.parametrize("r, spacing", [(2.0, 0.17), (0.35, 0.005), (5.5, 0.05)])
    def test_every_chord_is_at_most_the_spacing(self, r, spacing):
        pts = arc_points([0.0, 0.0], r, (0.3, 2.4), spacing)
        chord = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert chord.max() <= spacing
        # n is the fewest equal-angle parts whose arcs are at most the spacing
        assert len(pts) - 1 == np.ceil(r * 2.1 / spacing - 1e-12)

    def test_points_lie_on_the_circle(self):
        center, r = np.array([3.5, 4.5]), 5.0
        pts = arc_points(center, r, (-1.05, 2.0), 0.01)
        gap = np.abs(np.linalg.norm(pts - center, axis=1) - r)
        assert gap.max() <= 4 * np.spacing(r)

    def test_arc_sagitta_bound(self):
        r, s = 2.0, 0.17
        pts = arc_points([0.0, 0.0], r, (0.3, 2.4), s)
        mids = 0.5 * (pts[:-1] + pts[1:])
        gap = np.abs(np.linalg.norm(mids, axis=1) - r)
        assert gap.max() <= s * s / (8.0 * r) * (1.0 + 1e-3)

    @pytest.mark.parametrize(
        "span, closed", [(2.0 * np.pi, True), (2.0 * np.pi - 1e-9, False)]
    )
    def test_ends_within_the_tolerance_close_exactly(self, span, closed):
        # 0.7 sin(2 pi) is 1.7e-16, within the points' tolerance of 2e-12,
        # while a gap of 7e-10 stays open
        pts = arc_points([1.0, 2.0], 0.7, (0.0, span), 0.1)
        assert np.array_equal(pts[0], pts[-1]) == closed

    def test_coarse_spacing_gives_two_points(self):
        pts = arc_points([0.0, 0.0], 1.0, (0.0, 1.0), 10.0)
        assert pts.shape == (2, 2)

    def test_rejects_bad_radius_spacing_and_degenerate_arc(self):
        with pytest.raises(CrackGeometryError, match="radius"):
            arc_points([0.0, 0.0], -1.0, (0.0, 1.0), 0.1)
        with pytest.raises(CrackGeometryError, match="spacing"):
            arc_points([0.0, 0.0], 1.0, (0.0, 1.0), 0.0)
        with pytest.raises(CrackGeometryError, match="zero length"):
            arc_points([1.0, 1.0], 1.0, (0.5, 0.5), 0.1)

    @pytest.mark.parametrize("preset", sorted(PRESET_ARC_POINTS))
    def test_preset_arc_point_counts(self, preset):
        config = build_preset(preset)
        levels = config.study["levels"] if config.study else [0.5, 0.25]
        curved = [j for j, ch in enumerate(config.chains) if "radius" in ch["geometry"]]
        got = [
            [len(build_crack_graph(config, h).chains[j].points) for j in curved]
            for h in levels
        ]
        assert got == PRESET_ARC_POINTS[preset]


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


    def test_no_pairs_give_empty_arrays(self):
        ends, tris = np.empty((0, 2)), np.empty((0, 3, 2))
        lo, hi, touched, near = clip_segments_to_triangles(ends, ends, tris, 1e-12)
        for got, dtype in ((lo, float), (hi, float), (touched, bool), (near, bool)):
            assert got.shape == (0,) and got.dtype == dtype


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
            arc_points([0.5, 0.5], 0.35, (0.2, 4.5), 0.05),
            permeability=1.0,
        )
        diag = Chain(np.array([[0.05, 0.1], [0.9, 0.85]]), permeability=3.0)
        cut = cut_chains(fine_square_mesh, CrackGraph([arc, diag]))
        for j, chain in enumerate((arc, diag)):
            total = cut.length[cut.segments_of_chain(j)].sum()
            assert total == pytest.approx(chain.length, rel=1e-10)
            assert total == pytest.approx(cut.graph.chains[j].length, rel=1e-10)

    def test_midpoints_sit_in_their_owner(self, fine_square_mesh):
        arc = Chain(arc_points([0.5, 0.5], 0.3, (0.0, 2.0 * np.pi), 0.04))
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

    def test_sub_segment_without_owner_is_named(self):
        # the second chain's second part leaves the square at x = 1: its
        # first sub-segment past the side has no owner triangle
        inside = Chain(np.array([[0.1, 0.2], [0.3, 0.4]]))
        leaving = Chain(np.array([[0.2, 0.6], [0.4, 0.6], [1.6, 0.7]]))
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
        with pytest.raises(CrackGeometryError) as err:
            cut_chains(mesh, CrackGraph([inside, leaving]))
        assert str(err.value) == (
            "chain 1 part 1 leaves the mesh near [1.3000000000000003, 0.6749999999999999]"
        )

    def test_chain_within_tolerance_is_rejected_by_name(self, fine_square_mesh):
        # long enough for the graph (1.8e-12 > 1e-12), but every part is
        # below the mesh tolerance 1.41e-12
        tiny = Chain(np.array([[0.5 + 6e-13 * i, 0.5] for i in range(4)]))
        crack = CrackGraph([Chain(np.array([[0.1, 0.2], [0.3, 0.4]])), tiny])
        with pytest.raises(CrackGeometryError, match="chain 1 is no longer than"):
            cut_chains(fine_square_mesh, crack)

    def test_diagonal_along_refined_edges_is_cut(self):
        # the crack runs along bisection edges whose coordinates carry
        # rounding; a clip that took their near-zero denominators for
        # crossings left a gap near (0.4828125, 0.5171875)
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.1)
        chain = Chain(np.array([[0.75, 0.25], [0.25, 0.75]]), permeability=1.0)
        crack = CrackGraph([chain])
        rc = RefinementConfig(global_h=0.1, rule="quadratic")
        cut = cut_chains(refine_near_crack(mesh, crack, rc)[0], crack)
        assert cut.length.sum() == pytest.approx(chain.length, rel=1e-12)

    def test_breakpoints_closer_than_tol_t_merge_in_a_run(self, square_mesh):
        # four interval ends 0.6 tol_t apart: each lies within tol_t of the
        # one before it, so all merge into the first, although the last is
        # 1.8 tol_t from it
        chain = Chain(np.array([[0.1, 0.5], [0.6, 0.5]]))
        tol_t = square_mesh.tolerance / chain.length
        ends = 0.5 + 0.6 * tol_t * np.arange(4)
        hits = Incidence(
            part=np.zeros(5, dtype=np.int64),
            tri=np.arange(5),
            lo=np.concatenate([[0.0], ends]),
            hi=np.concatenate([[ends[0]], np.ones(4)]),
        )
        cut = cut_chains(square_mesh, CrackGraph([chain]), hits)
        assert cut.triangle_index.tolist() == [0, 1]
        middle = chain.points[0] + 0.5 * (chain.points[1] - chain.points[0])
        assert np.array_equal(cut.points[0, 1], middle)
        assert np.array_equal(cut.points[1, 0], middle)

    def test_empty_crack_gives_empty_cut(self, square_mesh):
        cut = cut_chains(square_mesh, CrackGraph.empty())
        assert cut.n_segments == 0
        assert np.unique(cut.triangle_index).size == 0

    def test_node_data_is_carried_over(self, fine_square_mesh, y_crack):
        cut = cut_chains(fine_square_mesh, y_crack)
        assert cut.graph is y_crack
        assert np.array_equal(cut.graph.nodes, y_crack.nodes)
        assert np.array_equal(cut.graph.chain_nodes, y_crack.chain_nodes)


_CUT_H = st.sampled_from([0.1, 0.2, 0.125, 1.0 / 3.0])
_CUT_RULE = st.sampled_from(["none", "quadratic"])

# 1/20-lattice chains moved by up to 3e-12 (found by a seeded search over
# such chains). Each crosses an element edge's line at a small angle, just
# above the parallel bound: unless the two triangles of the edge get one
# crossing parameter there, the gap between them has no owner.
_NEAR_PARALLEL = [
    pytest.param(
        [
            [0.19999999999873, 0.8500000000005167],
            [0.2500000000003245, 0.2500000000018583],
            [0.15000000000036284, 0.1499999999987305],
        ],
        1.0 / 3.0,
        "none",
        id="h-1/3-none",
    ),
    pytest.param(
        [
            [0.5999999999981971, 0.6000000000026526],
            [0.8999999999991907, 0.29999999999763294],
            [0.9000000000007746, 0.650000000002563],
        ],
        0.1,
        "quadratic",
        id="h-0.1-quadratic",
    ),
]


_GRID_STEPS = [(1, 0), (0, 1), (1, 1), (1, -1), (-1, 0), (0, -1), (-1, -1), (-1, 1)]


@st.composite
def _moved_grid_chains(draw):
    """2-4 points of the 1/20 lattice, each after the first any lattice
    point or 1-10 steps on from the one before along an axis or a diagonal,
    then each coordinate moved by at most 1e-11 and kept in the unit square."""
    grid = st.integers(0, 20)
    pts = [draw(st.tuples(grid, grid))]
    for _ in range(draw(st.integers(1, 3))):
        x, y = pts[-1]
        (dx, dy), k = draw(st.sampled_from(_GRID_STEPS)), draw(st.integers(1, 10))
        along = (min(max(x + k * dx, 0), 20), min(max(y + k * dy, 0), 20))
        nxt = draw(st.just(along) | st.tuples(grid, grid))
        if nxt != pts[-1]:
            pts.append(nxt)
    assume(len(pts) > 1)
    moves = draw(st.lists(st.integers(-1000, 1000), min_size=2 * len(pts), max_size=2 * len(pts)))
    moved = np.array(pts) / 20.0 + 1e-14 * np.array(moves).reshape(-1, 2)
    return np.clip(moved, 0.0, 1.0)


class TestOnePassCut:
    """The one-pass cut against the per-part oracle, and its invariants."""

    @staticmethod
    def check(chains, h, rule):
        crack = CrackGraph([Chain(points) for points in chains])
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), h)
        rc = RefinementConfig(global_h=h, rule=rule)
        mesh, hits = refine_near_crack(mesh, crack, rc)
        cut = cut_chains(mesh, crack, hits)
        try:
            want = cut_chains_per_part(mesh, crack, hits)
        except CrackGeometryError:
            pass
        else:
            for name in ("triangle_index", "points", "length", "chain_index"):
                got, ref = getattr(cut, name), getattr(want, name)
                assert got.dtype == ref.dtype and np.array_equal(got, ref), name
        tol = mesh.tolerance
        for j, chain in enumerate(crack.chains):
            # parts no longer than the tolerance are not cut
            plen = np.linalg.norm(np.diff(chain.points, axis=0), axis=1)
            total = cut.length[cut.segments_of_chain(j)].sum()
            assert total == pytest.approx(plen[plen > tol].sum(), rel=1e-12, abs=0.0)
        corners = mesh.vertices[mesh.triangles[cut.triangle_index]]
        for mid, tri in zip(cut.midpoints(), corners):
            assert points_in_triangle(mid[None], tri, tol)[0]
        reversed_crack = CrackGraph([Chain(c.points[::-1]) for c in crack.chains])
        back = cut_chains(mesh, reversed_crack)
        owners = np.unique(cut.triangle_index)
        assert np.array_equal(np.unique(back.triangle_index), owners)
        # breakpoints within tol_t of each other merge into the first one
        # met, so a sliver of about one tolerance may change owners
        per_owner = [
            np.bincount(c.triangle_index, weights=c.length)[owners] for c in (cut, back)
        ]
        assert np.allclose(*per_owner, rtol=1e-12, atol=4.0 * tol)

    def test_network_cut_is_linear_in_its_covers(self):
        # crack-network at global_h 0.125 has straight parts with up to 1 540
        # hits, more than any drawn chain: pairing each sub-segment with each
        # hit of its part took a 122 MiB traced peak there
        config = build_preset("crack-network").with_global_h(0.125)
        mesh = build_rectangle_mesh(config.domain, 0.125)
        crack = build_crack_graph(config, 0.125)
        mesh, hits = refine_near_crack(mesh, crack, config.refinement)
        assert np.bincount(hits.part).max() >= 1500
        tracemalloc.start()
        try:
            cut = cut_chains(mesh, crack, hits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        want = cut_chains_per_part(mesh, crack, hits)
        for name in ("triangle_index", "points", "length", "chain_index"):
            got, ref = getattr(cut, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name

    @settings(deadline=None, max_examples=40)
    @given(polylines(st.floats(0.0, 1.0)), _CUT_H, _CUT_RULE)
    # within a tolerance of the bottom side: triangles meeting it at a
    # vertex give intervals shorter than tol_t, whose ends merge in runs,
    # and slivers change owners when the chain is reversed
    @example([np.array([[0.0, 1e-12], [1.0, 0.0]])], 0.1, "quadratic")
    @example([np.array([[0.0, 1e-12], [0.03125, 0.0]])], 0.1, "quadratic")
    def test_random_chains(self, chains, h, rule):
        self.check(chains, h, rule)

    @settings(deadline=None, max_examples=40)
    @given(polylines(st.integers(0, 20).map(lambda i: i / 20.0)), _CUT_H, _CUT_RULE)
    # its third part runs along refined edges with rounded coordinates
    @example([np.array([[4, 3], [13, 0], [10, 11], [18, 3]]) / 20.0], 0.1, "quadratic")
    def test_lattice_chains(self, chains, h, rule):
        self.check(chains, h, rule)

    @settings(deadline=None, max_examples=100)
    @given(_moved_grid_chains(), _CUT_H, _CUT_RULE, st.booleans())
    # from a seeded search: diagonal parts crossing an edge at a small angle
    @example(
        np.array([
            [0.8499999999945875, 0.8499999999990621],
            [0.5499999999934185, 0.5499999999969122],
            [1.0, 0.09999999999553374],
            [0.6000000000030572, 0.5000000000059426],
        ]),
        0.2, "quadratic", True,
    )
    @example(
        np.array([
            [0.09999999999061623, 0.49999999999057426],
            [0.19999999999253718, 0.6000000000056563],
            [0.20000000000381288, 0.6499999999915036],
            [0.2000000000002743, 1.1047475184918109e-12],
        ]),
        0.1, "none", False,
    )
    def test_moved_grid_chains(self, points, h, rule, with_hits):
        # no error, the chain's length kept, each midpoint in its owner
        crack = CrackGraph([Chain(points)])
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), h)
        rc = RefinementConfig(global_h=h, rule=rule)
        mesh, hits = refine_near_crack(mesh, crack, rc)
        cut = cut_chains(mesh, crack, hits if with_hits else None)
        total = np.linalg.norm(np.diff(points, axis=0), axis=1).sum()
        assert cut.length.sum() == pytest.approx(total, rel=1e-12, abs=0.0)
        corners = mesh.vertices[mesh.triangles[cut.triangle_index]]
        for mid, tri in zip(cut.midpoints(), corners):
            assert points_in_triangle(mid[None], tri, mesh.tolerance)[0]

    @pytest.mark.parametrize("points, h, rule", _NEAR_PARALLEL)
    @pytest.mark.parametrize("with_hits", [True, False], ids=["hits", "no-hits"])
    def test_near_parallel_lattice_chains(self, points, h, rule, with_hits):
        if with_hits:  # the cut fed by refinement's hits, and its invariants
            self.check([np.array(points)], h, rule)
        else:  # the cut that searches its own candidates
            crack = CrackGraph([Chain(points)])
            mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), h)
            rc = RefinementConfig(global_h=h, rule=rule)
            cut_chains(refine_near_crack(mesh, crack, rc)[0], crack)


@st.composite
def _closed_chains_and_points(draw):
    """A closed chain of 3-12 vertices, its coordinates on a coarse
    grid (horizontal edges and shared y-levels are common) or anywhere in
    [-1, 1]; points with vertex coordinates or coordinates drawn alike, plus
    every vertex and every edge midpoint."""
    coord = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]) | st.floats(-1.0, 1.0)
    ring = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=12))
    poly = np.array(ring + ring[:1])
    x = st.sampled_from(poly[:, 0].tolist()) | coord
    y = st.sampled_from(poly[:, 1].tolist()) | coord
    pts = np.array(draw(st.lists(st.tuples(x, y), min_size=1, max_size=40)))
    return poly, np.vstack([pts, poly, 0.5 * (poly[1:] + poly[:-1])])


class TestPointsInPolygon:
    @settings(deadline=None, max_examples=150)
    @given(_closed_chains_and_points())
    def test_matches_the_loop_over_all_points(self, case):
        poly, pts = case
        # the loop also evaluates edges at points outside their y-range,
        # where the quotient may overflow; those values are masked out
        with np.errstate(all="ignore"):
            want = points_in_polygon_loop(pts, poly)
        assert np.array_equal(_points_in_polygon(pts, poly), want)

    def test_points_on_a_horizontal_edge_and_at_vertex_levels(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        pts = np.array([[0.5, 0.0], [0.5, 1.0], [0.5, 0.5], [-0.5, 0.0], [1.0, 0.5]])
        got = _points_in_polygon(pts, square)
        assert got.tolist() == points_in_polygon_loop(pts, square).tolist()
        # half-open y-ranges: the bottom edge's points are in, the top's out;
        # a point on the right edge is out
        assert got.tolist() == [True, False, True, False, False]


class TestSignedDistance:
    def test_sign_convention_for_closed_chain(self):
        circle = Chain(arc_points([0.0, 0.0], 1.0, (0.0, 2.0 * np.pi), 0.01))
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
