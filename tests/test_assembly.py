"""Element matrices, global assembly, and Dirichlet elimination."""

import re

import numpy as np
import pytest

from crackfem import (
    BoundarySpec,
    Chain,
    Coefficients,
    CrackGraph,
    Mesh,
    SingularSystemError,
    assemble,
    assemble_load,
    assemble_operator,
    build_rectangle_mesh,
    cut_chains,
)
from crackfem.cracks import CrackGeometryError, SegmentedCrack
from crackfem.mesh import Lattice
from conftest import make_y_crack
from oracles import bulk_element_matrix, element_gradients, interface_segment_matrix
from test_golden import case_config, pipeline_system

ALL_DIRICHLET = BoundarySpec(
    dirichlet={"left": 0.0, "right": 0.0, "bottom": 0.0, "top": 0.0}
)


class TestElementGradients:
    def test_reference_triangle_oracle(self, ref_triangle):
        grads, area = element_gradients(ref_triangle)
        assert area == 0.5
        assert np.array_equal(grads, [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

    def test_partition_of_unity(self, rng):
        for _ in range(30):
            tri = rng.uniform(-2.0, 2.0, size=(3, 2))
            u, v = tri[1] - tri[0], tri[2] - tri[0]
            if u[0] * v[1] - u[1] * v[0] < 0.1:
                continue
            grads, _ = element_gradients(tri)
            assert np.allclose(grads.sum(axis=0), 0.0, atol=1e-12)

    def test_scaling(self):
        grads, area = element_gradients([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        assert area == 2.0
        assert np.array_equal(grads, [[-0.5, -0.5], [0.5, 0.0], [0.0, 0.5]])

    def test_rejects_clockwise_and_degenerate(self, ref_triangle):
        with pytest.raises(ValueError, match="degenerate or clockwise"):
            element_gradients(ref_triangle[::-1])
        with pytest.raises(ValueError, match="degenerate or clockwise"):
            element_gradients([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])


class TestElementMatrices:
    def test_bulk_oracle(self, ref_triangle):
        want = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        assert np.array_equal(bulk_element_matrix(ref_triangle), want)
        assert np.array_equal(bulk_element_matrix(ref_triangle, a=3.0), 3.0 * want)

    def test_interface_oracle(self, ref_triangle):
        # unit segment along the bottom edge: t = (1, 0)
        seg = [[0.0, 0.0], [1.0, 0.0]]
        want = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(interface_segment_matrix(ref_triangle, seg), want)
        got = interface_segment_matrix(ref_triangle, seg, a_seg=2.5)
        assert np.array_equal(got, 2.5 * want)

    def test_interface_ignores_orientation(self, ref_triangle, rng):
        for _ in range(20):
            seg = rng.uniform(0.0, 0.4, size=(2, 2))
            fwd = interface_segment_matrix(ref_triangle, seg)
            rev = interface_segment_matrix(ref_triangle, seg[::-1])
            assert np.allclose(fwd, rev, atol=1e-15)

    def test_interface_rank_one_psd(self, ref_triangle, rng):
        for _ in range(20):
            seg = rng.uniform(0.0, 0.4, size=(2, 2))
            m = interface_segment_matrix(ref_triangle, seg, a_seg=1.7)
            ev = np.sort(np.linalg.eigvalsh(m))
            assert ev[0] >= -1e-14 and ev[1] <= 1e-14  # rank <= 1
            assert np.allclose(m.sum(axis=1), 0.0, atol=1e-12)

    def test_degenerate_segment_is_zero(self, ref_triangle):
        m = interface_segment_matrix(ref_triangle, [[0.2, 0.2], [0.2, 0.2]])
        assert np.array_equal(m, np.zeros((3, 3)))


class TestCoefficients:
    def test_rejects_nonpositive_permeability(self):
        with pytest.raises(ValueError, match="positive"):
            Coefficients(a1=0.0)
        with pytest.raises(ValueError, match="positive"):
            Coefficients(a2=-1.0)

    @pytest.mark.parametrize("a1, a2", [(np.inf, np.inf), (np.inf, 1.0), (1.0, np.inf)])
    def test_rejects_infinite_permeability(self, a1, a2):
        with pytest.raises(ValueError, match="must be positive and finite"):
            Coefficients(a1=a1, a2=a2)

    def test_two_regions_need_a_classifier(self, square_mesh):
        c = Coefficients(a1=1.0, a2=5.0)
        with pytest.raises(ValueError, match="classifier"):
            c.element_permeability(square_mesh)

    def test_classifier_labels_must_be_one_or_two(self, square_mesh):
        c = Coefficients(a1=1.0, a2=5.0, region=lambda p: np.zeros(len(p), int))
        with pytest.raises(ValueError, match="labels"):
            c.element_permeability(square_mesh)

    def test_classifier_selects_values(self, square_mesh):
        region = lambda p: np.where(p[:, 0] < 0.5, 1, 2)
        c = Coefficients(a1=2.0, a2=7.0, region=region)
        got = c.element_permeability(square_mesh)
        centroid_x = square_mesh.vertices[square_mesh.triangles, 0].mean(axis=1)
        assert np.array_equal(got, np.where(centroid_x < 0.5, 2.0, 7.0))
        assert set(got) == {2.0, 7.0}


class TestAssembleOperator:
    def test_matches_element_loop(self, fine_square_mesh, y_crack):
        mesh = fine_square_mesh
        cut = cut_chains(mesh, y_crack)
        K = assemble_operator(mesh, cut, Coefficients())
        dense = np.zeros((mesh.n_vertices, mesh.n_vertices))
        for t in range(mesh.n_triangles):
            idx = mesh.triangles[t]
            dense[np.ix_(idx, idx)] += bulk_element_matrix(mesh.vertices[idx])
        for s in range(cut.n_segments):
            idx = mesh.triangles[cut.triangle_index[s]]
            dense[np.ix_(idx, idx)] += interface_segment_matrix(
                mesh.vertices[idx], cut.points[s], cut.permeability()[s]
            )
        scale = np.abs(K.data).max()
        assert np.abs(K.toarray() - dense).max() <= 1e-12 * scale

    def test_symmetry_to_machine_precision(self, fine_square_mesh, y_crack):
        # products are ordered (a*area)*g_i*g_j, so the last bit can differ
        cut = cut_chains(fine_square_mesh, y_crack)
        K = assemble_operator(fine_square_mesh, cut, Coefficients())
        diff = (K - K.T).tocoo()
        if diff.nnz:
            assert np.abs(diff.data).max() <= 1e-14 * np.abs(K.data).max()

    def test_positive_semidefinite_with_constant_kernel(
        self, fine_square_mesh, y_crack, rng
    ):
        cut = cut_chains(fine_square_mesh, y_crack)
        K = assemble_operator(fine_square_mesh, cut, Coefficients())
        ones = np.ones(K.shape[0])
        assert np.abs(K @ ones).max() <= 1e-12
        for _ in range(20):
            v = rng.standard_normal(K.shape[0])
            assert v @ (K @ v) > 0.0

    def test_crack_only_adds_energy(self, fine_square_mesh, y_crack, rng):
        cut = cut_chains(fine_square_mesh, y_crack)
        K_plain = assemble_operator(
            fine_square_mesh, SegmentedCrack.empty(), Coefficients()
        )
        K_crack = assemble_operator(fine_square_mesh, cut, Coefficients())
        for _ in range(20):
            v = rng.standard_normal(K_plain.shape[0])
            assert v @ (K_crack @ v) >= v @ (K_plain @ v) - 1e-12

    def test_chain_order_does_not_change_bits(self, fine_square_mesh):
        perms = (2.0, 3.0, 4.0)
        a = make_y_crack(permeabilities=perms)
        chains = [a.chains[2], a.chains[0], a.chains[1]]
        b = CrackGraph(chains)
        Ka = assemble_operator(
            fine_square_mesh, cut_chains(fine_square_mesh, a), Coefficients()
        )
        Kb = assemble_operator(
            fine_square_mesh, cut_chains(fine_square_mesh, b), Coefficients()
        )
        assert np.array_equal(Ka.data, Kb.data)
        assert np.array_equal(Ka.indices, Kb.indices)
        assert np.array_equal(Ka.indptr, Kb.indptr)

    def test_zero_permeability_leaves_matrix_bitwise(self, fine_square_mesh):
        crack = make_y_crack(permeabilities=(0.0, 0.0, 0.0))
        cut = cut_chains(fine_square_mesh, crack)
        K0 = assemble_operator(
            fine_square_mesh, SegmentedCrack.empty(), Coefficients()
        )
        K = assemble_operator(fine_square_mesh, cut, Coefficients())
        assert np.array_equal(K.data, K0.data)
        assert np.array_equal(K.indices, K0.indices)
        assert np.array_equal(K.indptr, K0.indptr)

    def test_edge_aligned_crack_touches_only_edge_vertices(self):
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.5)
        ids = {tuple(v): i for i, v in enumerate(map(tuple, mesh.vertices))}
        v_mid, v_right = ids[(0.5, 0.5)], ids[(1.0, 0.5)]
        chain = Chain(np.array([[0.5, 0.5], [1.0, 0.5]]), permeability=2.0)
        cut = cut_chains(mesh, CrackGraph([chain]))
        K_plain = assemble_operator(mesh, SegmentedCrack.empty(), Coefficients())
        K = assemble_operator(mesh, cut, Coefficients())
        diff = (K - K_plain).tocoo()
        live = np.abs(diff.data) > 0.0
        touched = set(diff.row[live]) | set(diff.col[live])
        # hats of the off-edge vertices have zero tangential derivative here
        assert touched == {v_mid, v_right}

    def test_region_classifier_reaches_elements(self):
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.5)
        region = lambda p: np.where(p[:, 0] < 0.5, 1, 2)
        coeffs = Coefficients(a1=1.0, a2=10.0, region=region)
        K = assemble_operator(mesh, SegmentedCrack.empty(), coeffs)
        K1 = assemble_operator(mesh, SegmentedCrack.empty(), Coefficients())
        assert K.max() > K1.max()  # the stiff half shows up


class TestAssembleLoad:
    def test_zero_source_gives_zero_vector(self, square_mesh):
        b = assemble_load(square_mesh, SegmentedCrack.empty(), Coefficients())
        assert np.array_equal(b, np.zeros(square_mesh.n_vertices))

    def test_unit_source_integrates_to_area(self, fine_square_mesh):
        b = assemble_load(
            fine_square_mesh, SegmentedCrack.empty(), Coefficients(source=1.0)
        )
        assert b.sum() == pytest.approx(1.0, rel=1e-12)

    def test_callable_source_matches_constant(self, fine_square_mesh):
        b1 = assemble_load(
            fine_square_mesh, SegmentedCrack.empty(), Coefficients(source=2.0)
        )
        b2 = assemble_load(
            fine_square_mesh,
            SegmentedCrack.empty(),
            Coefficients(source=lambda p: 2.0 * np.ones(len(p))),
        )
        assert np.allclose(b1, b2, atol=1e-15)

    def test_line_source_integrates_to_length(self, fine_square_mesh):
        chain = Chain(
            np.array([[0.1, 0.2], [0.8, 0.7]]), permeability=1.0, source=1.0
        )
        cut = cut_chains(fine_square_mesh, CrackGraph([chain]))
        b = assemble_load(fine_square_mesh, cut, Coefficients())
        # hats sum to one at every midpoint, so the total is the arc length
        assert b.sum() == pytest.approx(chain.length, rel=1e-12)

    def test_callable_line_source(self, fine_square_mesh):
        chain = Chain(
            np.array([[0.1, 0.5], [0.9, 0.5]]),
            permeability=1.0,
            source=lambda p: p[:, 0],
        )
        cut = cut_chains(fine_square_mesh, CrackGraph([chain]))
        b = assemble_load(fine_square_mesh, cut, Coefficients())
        mids = cut.midpoints()
        want = (mids[:, 0] * cut.length).sum()
        assert b.sum() == pytest.approx(want, rel=1e-12)


class TestBoundarySpec:
    def test_requires_some_dirichlet(self):
        with pytest.raises(SingularSystemError, match="singular"):
            BoundarySpec(dirichlet={})

    def test_rejects_unknown_sides(self):
        with pytest.raises(ValueError, match=r"unknown sides \['inner', 'outer'\]"):
            BoundarySpec(dirichlet={"left": 0.0, "outer": 1.0, "inner": 2.0})

    def test_callable_values_and_vertex_set(self, square_mesh):
        spec = BoundarySpec(dirichlet={"left": lambda p: p[:, 1]})
        idx, vals = spec.constrained_vertices(square_mesh)
        assert np.allclose(square_mesh.vertices[idx, 0], 0.0)
        assert np.array_equal(vals, square_mesh.vertices[idx, 1])

    def test_corner_resolution_follows_sorted_tag_order(self, square_mesh):
        spec = BoundarySpec(dirichlet={"left": 1.0, "bottom": 2.0})
        idx, vals = spec.constrained_vertices(square_mesh)
        corner = int(
            np.nonzero((square_mesh.vertices == [0.0, 0.0]).all(axis=1))[0][0]
        )
        # "bottom" < "left", so the later tag wins the shared corner
        assert vals[list(idx).index(corner)] == 1.0


# functions of position whose result is not one value per point, on the
# five left-side vertices or the 25 vertices of the 0.25 unit square: each
# once failed deep in numpy with an error that did not name the function
BAD_SHAPES = {
    "dirichlet-scalar": ("dirichlet", lambda p: 1.0, "expected (5,), got ()"),
    "dirichlet-column": ("dirichlet", lambda p: p[:, :1], "expected (5,), got (5, 1)"),
    "source-scalar": ("source", lambda p: 1.0, "expected (25,), got ()"),
    "source-3": ("source", lambda p: np.ones(3), "expected (25,), got (3,)"),
    "source-column": ("source", lambda p: p[:, :1], "expected (25,), got (25, 1)"),
}


@pytest.mark.parametrize("case", BAD_SHAPES)
def test_function_of_position_must_give_one_value_per_point(case):
    where, value, message = BAD_SHAPES[case]
    mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
    boundary = BoundarySpec({"left": value if where == "dirichlet" else 0.0})
    coeffs = Coefficients(source=value if where == "source" else 0.0)
    message = "a function of position must return one value per point: " + message
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        assemble(mesh, SegmentedCrack.empty(), coeffs, boundary)


def test_chain_sources_must_give_one_value_per_point(fine_square_mesh):
    chain = Chain(np.array([[0.2, 0.5], [0.8, 0.5]]), source=lambda p: np.ones(1))
    cut = cut_chains(fine_square_mesh, CrackGraph([chain]))
    with pytest.raises(ValueError, match=r"expected \(\d+,\), got \(1,\)"):
        assemble_load(fine_square_mesh, cut, Coefficients())


class TestAssemble:
    def test_sides_matching_no_vertex_are_singular(self):
        # the lattice box's left side x == -1 misses the unit square
        xs, ys = np.array([-1.0, 2.0]), np.array([0.0, 1.0])
        square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        mesh = Mesh(square, [[0, 1, 2], [0, 2, 3]], Lattice(xs, ys, np.zeros(2, dtype=np.int64)))
        message = "^Dirichlet sides matched no mesh vertices$"
        with pytest.raises(SingularSystemError, match=message):
            assemble(mesh, SegmentedCrack.empty(), Coefficients(), BoundarySpec({"left": 0.0}))

    def test_matrix_is_free_block_of_operator(self, fine_square_mesh, y_crack):
        cut = cut_chains(fine_square_mesh, y_crack)
        spec = BoundarySpec(
            dirichlet={"left": 3.0, "right": 0.0, "bottom": 1.0, "top": 0.5}
        )
        sys = assemble(fine_square_mesh, cut, Coefficients(source=1.0), spec)
        K0 = assemble_operator(fine_square_mesh, cut, Coefficients(source=1.0))
        free = sys.free
        block = K0.toarray()[np.ix_(free, free)]
        assert np.array_equal(sys.matrix.toarray(), block)
        # the load minus the couplings to the prescribed values, free rows only
        lift = np.zeros(sys.n)
        lift[sys.constrained] = sys.values
        load = assemble_load(fine_square_mesh, cut, Coefficients(source=1.0))
        assert np.array_equal(sys.rhs, (load - K0 @ lift)[free])

    def test_system_drops_constraints(self, square_mesh):
        sys = assemble(
            square_mesh,
            SegmentedCrack.empty(),
            Coefficients(source=1.0),
            ALL_DIRICHLET,
        )
        assert sys.n == square_mesh.n_vertices
        assert sys.matrix.shape == (len(sys.free), len(sys.free))
        assert sys.rhs.shape == sys.free.shape
        assert sorted(set(sys.free) | set(sys.constrained)) == list(range(sys.n))

    @pytest.mark.parametrize("case", ["radial-local:1", "crack-network:default"])
    def test_free_vertices_run_by_rows_off_the_lattice(self, case):
        # neighbouring vertices get nearby rows, for the direct factor's fill
        _, sys = pipeline_system(case_config(case))
        assert not sys.mesh.is_lattice
        order = np.lexsort(sys.mesh.vertices[sys.free].T)
        assert np.array_equal(order, np.arange(len(sys.free)))
        assert np.array_equal(np.sort(sys.free), np.delete(np.arange(sys.n), sys.constrained))

    @pytest.mark.parametrize("case", ["radial-uniform:1", "poisson-square:1"])
    def test_free_vertices_keep_lattice_order(self, case):
        # the lattice preconditioner reads the free block as the interior grid
        _, sys = pipeline_system(case_config(case))
        assert sys.mesh.is_lattice
        assert np.array_equal(sys.free, np.delete(np.arange(sys.n), sys.constrained))

    def test_constant_field_is_in_the_kernel(self, fine_square_mesh):
        crack = make_y_crack(permeabilities=(3.0, 3.0, 3.0))
        cut = cut_chains(fine_square_mesh, crack)
        sys = assemble(
            fine_square_mesh,
            cut,
            Coefficients(),
            BoundarySpec(
                dirichlet={"left": 2.75, "right": 2.75, "bottom": 2.75, "top": 2.75}
            ),
        )
        u = np.full(sys.n, 2.75)
        assert np.abs(sys.matrix @ u[sys.free] - sys.rhs).max() <= 1e-12


class TestNonFiniteInputs:
    """A value that is not finite is rejected where it enters, naming a
    point where it is not, before it can reach the solve."""

    def test_chain_permeability_must_be_finite(self):
        with pytest.raises(CrackGeometryError, match=">= 0 and finite"):
            Chain([[0.1, 0.1], [0.9, 0.9]], permeability=np.inf)

    def test_nan_dirichlet_number(self, square_mesh):
        boundary = BoundarySpec(dirichlet={"left": 0.0, "right": float("nan")})
        with pytest.raises(ValueError, match=r"^the Dirichlet value on right is nan at \[1\.0, "):
            assemble(square_mesh, SegmentedCrack.empty(), Coefficients(), boundary)

    def test_infinite_dirichlet_function_value(self, square_mesh):
        # a logarithm of the distance to the corner (0, 0)
        log_r = lambda p: np.log(np.hypot(p[:, 0], p[:, 1]))
        boundary = BoundarySpec(dirichlet={"bottom": log_r})
        with pytest.raises(ValueError, match=r"^the Dirichlet value on bottom is -inf at \[0\.0, 0\.0\]$"):
            assemble(square_mesh, SegmentedCrack.empty(), Coefficients(), boundary)

    def test_nan_bulk_source(self, square_mesh):
        with pytest.raises(ValueError, match=r"^the source is nan at \["):
            assemble_load(square_mesh, SegmentedCrack.empty(), Coefficients(source=float("nan")))

    def test_nan_chain_source(self, fine_square_mesh):
        chain = Chain([[0.2, 0.3], [0.7, 0.8]], source=lambda p: np.where(p[:, 0] > 0.5, np.nan, 1.0))
        crack = cut_chains(fine_square_mesh, CrackGraph([chain]))
        with pytest.raises(ValueError, match=r"^the source of chain 0 is nan at \[0\.5"):
            assemble_load(fine_square_mesh, crack, Coefficients())
