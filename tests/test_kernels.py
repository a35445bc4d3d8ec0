"""Whole-mesh P1 kernels against their einsum, gather and product forms,
and lattice candidates against clipping every triangle.

The package computes areas, hat gradients and diameters from corner rows,
and the Dirichlet elimination by slicing; ``tests/oracles.py`` keeps their
(m, 3, 2)-gather and sparse-product forms, and field gradients and error
norms over that gather. The results must agree bit for bit, signed zeros
included, so every float array is compared through its int64 view.
Crack–triangle candidates come from lattice cells; the incidence clipped
from them must equal the one clipped from every (segment, triangle) pair.
The error norms run over fixed blocks of triangles: every block size gives
the same bits as the single-block form. The stiffness of a refined mesh is
the oracle's one COO matrix of all element blocks, bit for bit. Both
stages hold a bounded number of bytes per triangle. A mesh that is its
lattice takes the closed-form stiffness: the oracle's pattern without its
zeros, its bits on dyadic unit squares and every entry within 1e-14 of its
row's diagonal elsewhere. Each exact solution's ``value_and_gradient``
gives the bits of the separate value and gradient formulas it replaced.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import polylines
from crackfem import (
    BoundarySpec,
    Chain,
    Coefficients,
    CrackGraph,
    ExactRadialSolution,
    Mesh,
    RefinementConfig,
    SegmentedCrack,
    SineProductSolution,
    SolutionField,
    assemble,
    assemble_operator,
    build_preset,
    build_rectangle_mesh,
    cut_chains,
    error_norms,
    mark_crack_elements,
    refine_marked,
    refine_near_crack,
    run_single,
)
from crackfem import analysis, assembly
from crackfem import mesh as mesh_module
from crackfem._geom import REACH, clip_segments_to_triangles, corners
from crackfem.config import (
    EXACT_SOLUTIONS,
    _build_coefficients,
    _radial_levels,
    build_crack_graph,
)
from crackfem.mesh import RECTANGLE_TAGS, Lattice


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == np.float64:
        got, want = got.view(np.int64), want.view(np.int64)
    assert np.array_equal(got, want)


def assert_same_csr(got, want):
    for name in ("data", "indices", "indptr"):
        assert_bitwise(getattr(got, name), getattr(want, name))
    assert got.shape == want.shape


def check_lattice(mesh, starts, ends):
    """Each triangle lies in its lattice cell; the candidates of the
    segments starts[k] -> ends[k] are unique, sorted by (part, tri), and
    hold every triangle within ``REACH`` tolerances of a segment (less a
    thousandth, for rounding) and every one it touches; the incidence
    equals the clip of every (segment, triangle) pair, bit for bit."""
    xs, ys, _ = mesh.lattice
    cells = mesh.lattice.triangle_cells(mesh.n_triangles)
    assert (np.diff(cells) >= 0).all()
    i, j = cells % (len(xs) - 1), cells // (len(xs) - 1)
    for c, lines, at in zip(corners(mesh.vertices, mesh.triangles), (xs, ys), (i, j)):
        assert ((lines[at] <= c) & (c <= lines[at + 1])).all()

    k, m = len(starts), mesh.n_triangles
    part, tri = mesh.candidate_pairs(starts, ends)
    code = part * m + tri
    assert (np.diff(code) > 0).all()
    found = np.zeros((k, m), dtype=bool)
    found[part, tri] = True

    all_part, all_tri = np.repeat(np.arange(k), m), np.tile(np.arange(m), k)
    want, _ = mesh.clip_pairs(starts, ends, all_part, all_tri)
    for got, expected in zip(mesh.incidence(starts, ends), want):
        assert_bitwise(got, expected)
    assert found[want.part, want.tri].all()

    # distance from each segment to each triangle: zero when they meet, else
    # the least distance of an end to an edge or of a corner to the segment
    tris = mesh.vertices[mesh.triangles]
    meet = clip_segments_to_triangles(
        starts[all_part], ends[all_part], tris[all_tri], 0.0
    )[2].reshape(k, m)
    x, y = corners(mesh.vertices, mesh.triangles)
    points = np.stack([x, y], axis=-1).reshape(-1, 2)
    distance = oracles.point_segment_distances(points, starts, ends).reshape(3, m, k)
    distance = distance.min(axis=0).T
    for a, b in ((0, 1), (1, 2), (2, 0)):
        for end in (starts, ends):
            to_edge = oracles.point_segment_distances(end, tris[:, a], tris[:, b])
            distance = np.minimum(distance, to_edge)
    near = meet | (distance <= REACH * (1.0 - 1e-3) * mesh.tolerance)
    assert found[near].all()


def turned(mesh):
    """The mesh turned by 180 degrees about the origin: still
    counterclockwise, and every zero coordinate becomes -0.0."""
    return Mesh(-mesh.vertices, mesh.triangles)


def lattice_free(mesh):
    """The mesh on the default one-cell lattice: not its lattice, so its
    stiffness takes the element path."""
    return Mesh(mesh.vertices, mesh.triangles)


def without_zeros(K):
    K = K.copy()
    K.eliminate_zeros()
    return K


def check_one_coo(mesh, crack, coeffs):
    """The element path's stiffness (on a lattice-free copy of the mesh)
    equals the one-COO oracle bit for bit, index dtypes included."""
    mesh = lattice_free(mesh)
    want = oracles.assemble_operator_coo(mesh, crack, coeffs)
    assert_same_csr(assemble_operator(mesh, crack, coeffs), want)


def check_closed_form(mesh, crack, coeffs):
    """On a mesh that is its lattice the stiffness is canonical, stores no
    zero, has the index dtype and pattern of the one-COO oracle without its
    zeros, and each entry lies within 1e-14 of the oracle's diagonal in its
    row."""
    assert mesh.is_lattice
    got = assemble_operator(mesh, crack, coeffs)
    want = without_zeros(oracles.assemble_operator_coo(mesh, crack, coeffs))
    assert got.has_canonical_format and (got.data != 0.0).all()
    for name in ("indices", "indptr"):
        assert_bitwise(getattr(got, name), getattr(want, name))
    diagonal = np.repeat(want.diagonal(), np.diff(want.indptr))
    assert (np.abs(got.data - want.data) <= 1e-14 * diagonal).all()


def check_kernels(mesh, crack, coeffs, boundary, values):
    """Every kernel against its oracle on one mesh, crack and field."""
    assert_bitwise(mesh.triangle_areas(), oracles.triangle_areas_rows(mesh))
    # component-major (3, 2, k) against the (k, 3, 2) gather
    rows = lambda *ids: oracles.hat_gradients_rows(mesh, *ids).transpose(1, 2, 0)
    assert_bitwise(mesh.hat_gradients(), rows())
    band = np.arange(0, mesh.n_triangles, 3)
    assert_bitwise(mesh.hat_gradients(band), rows(band))
    assert_bitwise(mesh.triangle_diameters(), oracles.triangle_diameters_norm(mesh))
    assert_bitwise(
        mesh.triangle_diameters(band), oracles.triangle_diameters_norm(mesh, band)
    )
    check_lattice(mesh, crack.points[:, 0], crack.points[:, 1])
    check_one_coo(mesh, crack, coeffs)
    if mesh.is_lattice:
        check_closed_form(mesh, crack, coeffs)

    K0 = assemble_operator(mesh, crack, coeffs)
    system = assemble(mesh, crack, coeffs, boundary)
    assert K0.has_canonical_format
    free, cons = system.free, system.constrained
    assert len(free) + len(cons) == mesh.n_vertices
    assert np.array_equal(np.union1d(free, cons), np.arange(mesh.n_vertices))
    assert system.matrix.shape == (len(free), len(free))
    assert_same_csr(
        system.matrix,
        oracles.eliminate_by_products(K0, cons)[free][:, free],
    )

    field = SolutionField(mesh, values)
    assert_bitwise(field.gradients(), oracles.solution_gradients_einsum(field).T)
    exact = SineProductSolution()
    got = error_norms(field, exact, crack, coeffs, level=2)
    want = oracles.error_norms_einsum(field, exact, crack, coeffs, level=2)
    for name in ("level", "n_dofs", "h", "h_crack"):
        assert getattr(got, name) == getattr(want, name)
    for name in ("l2", "h1_semi", "l2_crack", "energy"):
        assert_bitwise(getattr(got, name), getattr(want, name))
    return K0, system


_FIELD_VALUES = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(
    -1e3, 1e3, allow_nan=False, allow_subnormal=False
)


@st.composite
def _problems(draw):
    """A random rectangle mesh, possibly turned by 180 degrees so that its
    zero coordinates are -0.0, refined 0-3 generations near random chains;
    two bulk regions split at a random x; a random Dirichlet tag subset."""
    x0 = draw(st.floats(-4.0, 4.0))
    y0 = draw(st.floats(-4.0, 4.0))
    width = draw(st.floats(0.25, 4.0))
    height = draw(st.floats(0.25, 4.0))
    cells = draw(st.integers(1, 6))
    mesh = build_rectangle_mesh(
        (x0, x0 + width, y0, y0 + height), min(width, height) / cells
    )
    if draw(st.booleans()):
        mesh = turned(mesh)
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    fractions = draw(polylines(st.floats(0.02, 0.98)))
    permeability = st.sampled_from([0.0, 0.5, 3.0])
    crack = CrackGraph(
        [Chain(lo + f * (hi - lo), permeability=draw(permeability)) for f in fractions]
    )
    for _ in range(draw(st.integers(0, 3))):
        marked = mark_crack_elements(mesh.incidence(*crack.parts()))
        mesh, _ = refine_marked(mesh, marked)
    split = lo[0] + draw(st.floats(0.0, 1.0)) * (hi[0] - lo[0])
    coeffs = Coefficients(
        a1=draw(st.sampled_from([1.0, 0.3])),
        a2=draw(st.sampled_from([1.0, 7.0])),
        source=draw(st.sampled_from([0.0, 1.0])),
        region=lambda p: np.where(p[:, 0] < split, 1, 2),
    )
    tags = draw(st.lists(st.sampled_from(RECTANGLE_TAGS), min_size=1, unique=True))
    value = st.sampled_from([0.0, -0.0, 1.0, -0.5])
    boundary = BoundarySpec(dirichlet={tag: draw(value) for tag in tags})
    n = mesh.n_vertices
    values = np.array(draw(st.lists(_FIELD_VALUES, min_size=n, max_size=n)))
    return mesh, cut_chains(mesh, crack), coeffs, boundary, values


@st.composite
def _lattice_cases(draw):
    """A non-square rectangle mesh, maybe refined near random chains by
    ``refine_near_crack``, maybe rebuilt from its raw arrays with its
    lattice or with the default one cell; 1-4 segments whose ends are mesh
    vertices or points whose coordinates lie on lattice lines, up to ten
    tolerances off them, or anywhere in the domain grown by a fifth on each
    side, some of them points."""
    x0, y0 = draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0))
    width, height = draw(st.floats(0.25, 4.0)), draw(st.floats(0.25, 4.0))
    h = min(width, height) / draw(st.integers(1, 6))
    mesh = build_rectangle_mesh((x0, x0 + width, y0, y0 + height), h)
    xs, ys, _ = mesh.lattice
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    if draw(st.booleans()):
        fractions = draw(polylines(st.floats(0.02, 0.98)))
        crack = CrackGraph([Chain(lo + f * (hi - lo)) for f in fractions])
        config = RefinementConfig(
            global_h=h, rule="fixed", crack_h=h / draw(st.sampled_from([2.0, 5.0]))
        )
        mesh, _ = refine_near_crack(mesh, crack, config)
    if draw(st.booleans()):
        lattice = draw(st.sampled_from([None, mesh.lattice]))
        mesh = Mesh(mesh.vertices, mesh.triangles, lattice)
    grown_lo, grown_hi = lo - (hi - lo) / 5, hi + (hi - lo) / 5
    offsets = st.sampled_from([0.0, 0.0, 1.0, -1.0, 7.5, -7.5, 10.0, -10.0])
    offsets = offsets.map(lambda d: d * mesh.tolerance)
    coord_x = st.builds(float.__add__, st.sampled_from(xs.tolist()), offsets)
    coord_y = st.builds(float.__add__, st.sampled_from(ys.tolist()), offsets)
    coord_x |= st.floats(grown_lo[0], grown_hi[0])
    coord_y |= st.floats(grown_lo[1], grown_hi[1])
    point = st.integers(0, mesh.n_vertices - 1).map(lambda v: tuple(mesh.vertices[v]))
    point = point | st.tuples(coord_x, coord_y)
    segment = st.tuples(point, point) | point.map(lambda p: (p, p))
    segments = np.array(draw(st.lists(segment, min_size=1, max_size=4)))
    return mesh, segments[:, 0], segments[:, 1]


@st.composite
def _clip_cases(draw):
    """Every triangle of a rectangle mesh, refined 0-2 generations at random
    markings, paired with each of 1-4 segments whose ends are on the
    quarter lattice, on the line of a triangle edge (its ends, its midpoint
    or beyond them), or anywhere in the domain; some ends moved by up to
    1e-11, some segments of zero length."""
    width, height = draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0))
    h = min(width, height) / draw(st.integers(1, 3))
    mesh = build_rectangle_mesh((0.0, width, 0.0, height), h)
    for _ in range(draw(st.integers(0, 2))):
        marked = draw(st.lists(st.integers(0, mesh.n_triangles - 1), max_size=4))
        mesh, _ = refine_marked(mesh, marked)
    v = mesh.vertices

    def on_edge(case):
        t, i, s = case
        a, b = v[mesh.triangles[t, i]], v[mesh.triangles[t, (i + 1) % 3]]
        return a + s * (b - a)

    quarter = st.tuples(st.integers(0, int(4 * width / h)), st.integers(0, int(4 * height / h)))
    edge = st.tuples(
        st.integers(0, mesh.n_triangles - 1),
        st.integers(0, 2),
        st.sampled_from([0.0, 1.0, 0.5, 0.25, -0.5, 1.5]),
    )
    point = (
        quarter.map(lambda ij: np.array(ij) * (h / 4))
        | edge.map(on_edge)
        | st.tuples(st.floats(0.0, width), st.floats(0.0, height)).map(np.array)
    )
    moved = st.tuples(st.floats(-1e-11, 1e-11), st.floats(-1e-11, 1e-11)).map(np.array)
    end = st.builds(np.add, point, st.just(np.zeros(2)) | moved)
    segment = st.tuples(end, end) | end.map(lambda p: (p, p))
    segments = np.array(draw(st.lists(segment, min_size=1, max_size=4)))
    k, m = len(segments), mesh.n_triangles
    part, tri = np.repeat(np.arange(k), m), np.tile(np.arange(m), k)
    return segments[part, 0], segments[part, 1], v[mesh.triangles[tri]], mesh.tolerance


class TestClipMatchesPerEdge:
    """The clip on contiguous corner rows, all three edges at once, gives the
    per-edge clip on (k, 3, 2) columns bit for bit: intervals (signed zeros
    included) and both masks, whatever the memory layout of its inputs."""

    @settings(deadline=None, max_examples=150)
    @given(_clip_cases())
    def test_snapped_aligned_and_moved_segments(self, case):
        p, q, tris, tol = case
        want = oracles.clip_segments_per_edge(p, q, tris, tol)
        for args in (
            (p, q, tris),
            (np.asfortranarray(p), q, np.asfortranarray(tris)),
            (p, q, np.ascontiguousarray(tris.transpose(2, 1, 0)).transpose(2, 1, 0)),
        ):
            got = clip_segments_to_triangles(*args, tol)
            for a, b in zip(got, want):
                assert_bitwise(a, b)

    def test_study_calls(self, monkeypatch):
        # every clip of refining the two coarsest radial-local levels
        clip, calls = mesh_module.clip_segments_to_triangles, []

        def recording(*args):
            calls.append(args)
            return clip(*args)

        monkeypatch.setattr(mesh_module, "clip_segments_to_triangles", recording)
        config = build_preset("radial-local")
        for global_h in _radial_levels()[:2]:
            rc = config.with_global_h(global_h).refinement
            mesh = build_rectangle_mesh(config.domain, global_h)
            refine_near_crack(mesh, build_crack_graph(config, global_h), rc)
        assert len(calls) > 10
        for args in calls:
            for a, b in zip(clip(*args), oracles.clip_segments_per_edge(*args)):
                assert_bitwise(a, b)


class TestLatticeCandidates:
    @settings(deadline=None, max_examples=150)
    @given(_lattice_cases())
    def test_candidates_hold_every_clipped_triangle(self, case):
        check_lattice(*case)

    def test_rectangle_cells_hold_two_triangles(self):
        mesh = build_rectangle_mesh((0.0, 3.0, -1.0, 0.0), 0.5)
        xs, ys, cells = mesh.lattice
        assert np.array_equal(xs, np.linspace(0.0, 3.0, 7))
        assert np.array_equal(ys, np.linspace(-1.0, 0.0, 3))
        # the cells are implicit, read through the one resolver
        assert cells is None
        assert np.array_equal(mesh.lattice.triangle_cells(24), np.arange(24) // 2)
        refined, parent = refine_marked(mesh, [5, 17])
        assert refined.lattice.xs is xs and refined.lattice.ys is ys
        got = refined.lattice.triangle_cells(refined.n_triangles)
        assert np.array_equal(got, parent // 2)

    def test_raw_mesh_is_one_cell_over_its_vertices(self, square_mesh):
        mesh = turned(square_mesh)
        xs, ys, cells = mesh.lattice
        assert np.array_equal(xs, [-1.0, 0.0]) and np.array_equal(ys, [-1.0, 0.0])
        assert np.array_equal(cells, np.zeros(mesh.n_triangles))
        start, end = np.array([[-0.5, -0.5]]), np.array([[-0.4, -0.5]])
        _, tri = mesh.candidate_pairs(start, end)
        assert np.array_equal(tri, np.arange(mesh.n_triangles))
        # a segment beyond the padded box meets no cell
        far = np.array([[0.1, 0.1]])
        assert mesh.candidate_pairs(far, far)[0].size == 0

    def test_mesh_from_arrays_and_lattice_matches_the_refined_mesh(self, rng):
        mesh = build_rectangle_mesh((-1.0, 2.0, 0.0, 0.7), 0.1)
        for _ in range(4):
            marked = rng.choice(mesh.n_triangles, size=9, replace=False)
            mesh, _ = refine_marked(mesh, marked)
        again = Mesh(mesh.vertices, mesh.triangles, mesh.lattice)
        assert_bitwise(again.tolerance, mesh.tolerance)
        lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
        starts, ends = lo + rng.random((2, 20, 2)) * (hi - lo)
        want = mesh.candidate_pairs(starts, ends)
        for got, expected in zip(again.candidate_pairs(starts, ends), want):
            assert_bitwise(got, expected)


class TestKernelsMatchOracles:
    @settings(deadline=None, max_examples=60)
    @given(_problems())
    def test_random_refined_problems(self, problem):
        check_kernels(*problem)

    def test_explicit_zero_couplings_are_dropped(self):
        # across each cell diagonal of the structured mesh both triangles
        # have their right angle opposite the diagonal: the element blocks
        # hold exact zeros, which the element path keeps in K0, the closed
        # form never stores, and the free block drops
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
        chain = Chain(np.array([[0.3, 0.4], [0.7, 0.6]]))
        crack = cut_chains(mesh, CrackGraph([chain]))
        boundary = BoundarySpec(dirichlet={"left": 0.0, "right": 1.0})
        values = np.linspace(-1.0, 1.0, mesh.n_vertices)
        for each in (mesh, lattice_free(mesh)):
            K0, system = check_kernels(each, crack, Coefficients(), boundary, values)
            assert (K0.data == 0.0).any() != each.is_lattice
            assert (system.matrix.data != 0.0).all()

    def test_areas_of_several_blocks_are_the_gather_form(self):
        # 65 536 triangles, four blocks of the area computation, with
        # negative zero coordinates; refined, a ragged last block
        mesh = turned(build_rectangle_mesh((0.0, 1.0, 0.0, 2.0), 1.0 / 128.0))
        refined, _ = refine_marked(mesh, np.arange(0, mesh.n_triangles, 5))
        assert refined.n_triangles % (1 << 14)
        for each in (mesh, refined):
            assert_bitwise(each.triangle_areas(), oracles.triangle_areas_rows(each))

    @pytest.mark.parametrize("h", [0.5, 0.125])
    def test_rotated_mesh_with_negative_zero_coordinates(self, h):
        mesh = turned(build_rectangle_mesh((0.0, 1.0, 0.0, 2.0), h))
        assert np.signbit(mesh.vertices[mesh.vertices == 0.0]).all()
        chain = Chain(np.array([[-0.2, -0.3], [-0.8, -1.5]]))
        crack = cut_chains(mesh, CrackGraph([chain]))
        boundary = BoundarySpec(dirichlet={"bottom": -0.0})
        values = np.where(np.arange(mesh.n_vertices) % 2 == 0, -0.0, 0.0)
        check_kernels(mesh, crack, Coefficients(), boundary, values)


@pytest.fixture(scope="module", params=["radial-local:1", "crack-network"])
def norm_case(request):
    """A solved run with its exact field (sine-product where the preset has
    none) and coefficients."""
    config = build_preset(request.param.split(":")[0])
    if request.param == "radial-local:1":
        config = config.with_global_h(_radial_levels()[1])
    res = run_single(config)
    exact = EXACT_SOLUTIONS.get(config.exact_solution, SineProductSolution())
    return res, exact, _build_coefficients(config, res.crack)


class TestBlockedNorms:
    @pytest.mark.parametrize("block", [1, 7, "above m"])
    def test_every_block_size_gives_the_same_bits(self, norm_case, block, monkeypatch):
        res, exact, coeffs = norm_case
        m = res.mesh.n_triangles
        if block == "above m":
            block = m + 1
        elif block == 7:
            assert m % 7  # a ragged last block
        monkeypatch.setattr(analysis, "_NORM_BLOCK", block)
        got = error_norms(res.solution, exact, res.segments, coeffs, level=1)
        want = oracles.error_norms_einsum(res.solution, exact, res.segments, coeffs, 1)
        for name in ("level", "n_dofs", "h", "h_crack"):
            assert getattr(got, name) == getattr(want, name)
        for name in ("l2", "h1_semi", "l2_crack", "energy"):
            assert_bitwise(getattr(got, name), getattr(want, name))

    def test_stage_holds_two_arrays_per_triangle(self, monkeypatch):
        # the whole-mesh share is 48 B per triangle: the two (m, 3) squared
        # errors, the first freed before the permeabilities and weighted
        # areas exist; the rest is one block's corner rows of points,
        # values and gradients, 376 B per triangle measured
        block = 1 << 12
        monkeypatch.setattr(analysis, "_NORM_BLOCK", block)
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 1.0 / 256.0)
        exact = SineProductSolution()
        field = SolutionField(mesh, exact.value(mesh.vertices))
        mesh.triangle_areas()  # cached, as assembly leaves them in a run
        crack, coeffs = SegmentedCrack.empty(), Coefficients()
        tracemalloc.start()
        try:
            error_norms(field, exact, crack, coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mesh.n_triangles == 131072
        assert peak <= 56 * mesh.n_triangles + 400 * block


class TestOneCoo:
    def test_element_path_is_the_one_coo_oracle(self, norm_case):
        res, _, coeffs = norm_case
        check_one_coo(res.mesh, res.segments, coeffs)
        # the crack adds segment blocks after the triangles'
        assert (res.segments.permeability() > 0.0).any()

    def test_kernel_is_the_einsum_with_its_signed_zeros(self):
        # the structured mesh's legs lie along the axes, so its hat
        # gradients hold exact zeros of both signs
        mesh = lattice_free(build_rectangle_mesh((0.0, 1.0, 0.0, 2.0), 0.25))
        coeffs = Coefficients(a1=1.0, a2=3.0, region=lambda p: np.where(p[:, 0] < 0.4, 1, 2))
        weight = coeffs.element_permeability(mesh) * mesh.triangle_areas()
        grads = oracles.hat_gradients_rows(mesh)
        want = np.einsum("t,tid,tjd->tij", weight, grads, grads).reshape(-1, 9)
        assert_bitwise(assembly._element_blocks(mesh, coeffs), want)
        # the mesh springs the trap: adding the two products without the
        # zero start gives -0.0 where the einsum gives +0.0
        terms = weight[:, None, None, None] * grads[:, :, None, :] * grads[:, None, :, :]
        sums = (terms[..., 0] + terms[..., 1]).reshape(-1, 9)
        assert np.signbit(sums[want == 0.0]).any()

    def test_stage_holds_one_coo_matrix(self):
        # measured 316 B per triangle, at the CSR conversion: the COO
        # matrix's (m, 9) blocks (72) and int32 row and column ids (72),
        # the unsummed CSR matrix (108), the summed matrix's pruned copies
        # (44) and the cached areas and corner ids (20)
        mesh = lattice_free(build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 1.0 / 256.0))
        crack, coeffs = SegmentedCrack.empty(), Coefficients()
        tracemalloc.start()
        try:
            assemble_operator(mesh, crack, coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mesh.n_triangles == 131072
        assert peak <= 330 * mesh.n_triangles


@st.composite
def _lattice_problems(draw):
    """A mesh that is its lattice of nx x ny cells, 1-40 each, over a box
    with random (so non-dyadic) sides, its lines evenly spaced or graded;
    one bulk permeability, or two regions split at a random x; with or
    without random chains."""
    nx, ny = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    x0, y0 = draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0))
    width, height = draw(st.floats(0.25, 4.0)), draw(st.floats(0.25, 4.0))
    power = draw(st.sampled_from([1.0, 1.5]))
    xs = x0 + width * np.linspace(0.0, 1.0, nx + 1) ** power
    ys = y0 + height * np.linspace(0.0, 1.0, ny + 1) ** power
    # the triangles of the nx x ny lattice, moved onto these lines
    triangles = build_rectangle_mesh((0.0, nx, 0.0, ny), 1.0).triangles
    vertices = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    mesh = Mesh(vertices, triangles, Lattice(xs, ys, None))
    lo, hi = vertices[0], vertices[-1]
    chains = []
    if draw(st.booleans()):
        permeability = st.sampled_from([0.0, 0.5, 3.0])
        fractions = draw(polylines(st.floats(0.02, 0.98)))
        chains = [Chain(lo + f * (hi - lo), permeability=draw(permeability)) for f in fractions]
    split = x0 + draw(st.floats(0.0, 1.0)) * width
    a1, a2 = draw(st.sampled_from([(1.0, 1.0), (2.5, 2.5), (0.3, 7.0)]))
    coeffs = Coefficients(a1=a1, a2=a2, region=lambda p: np.where(p[:, 0] < split, 1, 2))
    return mesh, cut_chains(mesh, CrackGraph(chains)), coeffs


class TestClosedFormStiffness:
    @settings(deadline=None, max_examples=80)
    @given(_lattice_problems())
    def test_matches_the_element_path(self, problem):
        check_closed_form(*problem)

    @pytest.mark.parametrize("k", range(1, 10))
    @pytest.mark.parametrize("regions", [1, 2])
    def test_dyadic_squares_keep_the_element_bits(self, k, regions):
        # every spacing, area and gradient is a power of two, so no sum rounds
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 2.0**-k)
        crack = SegmentedCrack.empty()
        coeffs = Coefficients(a2=7.0 if regions == 2 else 1.0, region=lambda p: 1 + (p[:, 0] > 0.5))
        want = without_zeros(assemble_operator(lattice_free(mesh), crack, coeffs))
        assert_same_csr(assemble_operator(mesh, crack, coeffs), want)

    def test_stage_holds_the_rows_and_the_cell_terms(self):
        # the CSR rows take 64 B per vertex (5 values, 5 int32 columns and
        # the row pointer); the padded (5, n) rows, 40 B, are freed before
        # the columns exist, and the per-triangle terms before the rows are
        # read: about 85 B at the peak
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 1.0 / 256.0)
        crack, coeffs = SegmentedCrack.empty(), Coefficients()
        tracemalloc.start()
        try:
            assemble_operator(mesh, crack, coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mesh.n_vertices == 66049
        assert peak <= 100 * mesh.n_vertices


class TestFieldGradients:
    def test_gradients_of_ids_are_rows_of_all(self, network_run, rng):
        field = network_run.solution
        full = field.gradients()
        m = full.shape[1]
        assert_bitwise(full, oracles.solution_gradients_einsum(field).T)
        for ids in (
            rng.integers(0, m, 200),
            rng.permutation(m)[:17],
            np.array([], dtype=np.int64),
            slice(5, 40, 3),
        ):
            assert_bitwise(field.gradients(ids), full[:, ids])

    def test_tangential_derivative_uses_the_owner_gradients(self, network_run):
        field, crack = network_run.solution, network_run.segments
        g = oracles.solution_gradients_einsum(field)[crack.triangle_index]
        want = np.einsum("sd,sd->s", crack.tangents(), g)
        assert_bitwise(field.tangential_derivative(crack), want)


_E = float(np.e)
# points on the interface circle r = e to the bit, where the radial
# solution's branch choice (r <= e is inner) decides the value
_ANGLES = np.linspace(0.0, 2.0 * np.pi, 721)
_ON_CIRCLE = [
    (float(x), float(y))
    for x, y in zip(_E * np.cos(_ANGLES), _E * np.sin(_ANGLES))
    if np.hypot(x, y) == _E
] + [(sx * _E, sy * 0.0) for sx in (1, -1) for sy in (1, -1)]
_ON_CIRCLE += [(y, x) for x, y in _ON_CIRCLE]
_AROUND_CIRCLE = [np.nextafter(_E, 0.0), np.nextafter(_E, 4.0)]
_COORDS = (
    st.floats(0.5, 4.0)
    | st.floats(-4.0, -0.5)
    | st.sampled_from([0.0, -0.0, _E, -_E, *_AROUND_CIRCLE])
)
_POINTS = st.lists(
    st.tuples(_COORDS, _COORDS).filter(lambda p: p != (0.0, 0.0)) | st.sampled_from(_ON_CIRCLE),
    min_size=1,
    max_size=12,
)


class TestValueAndGradient:
    def test_circle_points_are_on_the_interface(self):
        pts = np.array(_ON_CIRCLE)
        assert len(pts) > 8 and (np.hypot(pts[:, 0], pts[:, 1]) == _E).all()

    @pytest.mark.parametrize("exact", [ExactRadialSolution(), SineProductSolution()], ids=["radial", "sine"])
    @settings(deadline=None, max_examples=150)
    @given(points=_POINTS)
    def test_bits_of_the_separate_formulas(self, exact, points):
        pts = np.array(points)
        want_u = oracles.exact_value(exact, pts)
        want_g = oracles.exact_gradient(exact, pts)
        assert_bitwise(exact.value(pts), want_u)
        u, gx, gy = exact.value_and_gradient(pts[:, 0], pts[:, 1])
        assert_bitwise(u, want_u)
        assert_bitwise(np.column_stack([gx, gy]), want_g)
        # elementwise, so corner rows of any shape give the same bits
        rows = exact.value_and_gradient(pts[::-1, 0][None], pts[::-1, 1][None])
        for got, want in zip(rows, (want_u, *want_g.T)):
            assert_bitwise(got, want[::-1][None])
