"""Numerics for the advection-diffusion demo: partitioning, operator
assembly, the tridiagonal solver, time stepping, and the workflow
generator.

The solver is verified against dense numpy.linalg.solve; the
distributed kernels are verified bitwise against the sequential
reference implementation, and the kernels' list-based numeric cores
bitwise against the numpy expressions they replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubflow import (
    BC_DIRICHLET,
    BC_PERIODIC,
    InvalidGeometry,
    KernelSpec,
    SimParams,
    SingularSystem,
    Workspace,
    decode_dataset,
    encode_dataset,
    execute_kernel,
    generate_adapt_workflow,
    sequential_oracle,
    validate_structure,
)
from pubflow.adapt import (
    _extend,
    _initial,
    _operator,
    _solve,
    _step,
    _thomas_factor,
    _thomas_solve,
    apply_operator,
    factor_operator_bytes,
    final_snapshot,
    initial_field,
    operator_matrix_bytes,
    partition_bounds,
    partition_table_bytes,
    solve_field,
)


def params_for(cells, steps=1, bc=BC_DIRICHLET, source=None,
               advection=1.0, diffusion=0.1):
    # dt chosen well inside the stability bound for any tested M
    h = 1.0 / cells
    dt = 0.2 / (advection / h + 2.0 * diffusion / h / h)
    return SimParams(dt=dt, advection=advection, diffusion=diffusion,
                     steps=steps, bc=bc, source=source)


class TestSimParams:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            SimParams(dt=0.0, advection=1.0, diffusion=0.1, steps=1,
                      bc=BC_DIRICHLET)

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            SimParams(dt=1e-4, advection=-1.0, diffusion=0.1, steps=1,
                      bc=BC_DIRICHLET)

    def test_rejects_unknown_bc(self):
        with pytest.raises(ValueError):
            SimParams(dt=1e-4, advection=1.0, diffusion=0.1, steps=1,
                      bc="reflecting")

    def test_cfl_value(self):
        p = SimParams(dt=1e-3, advection=2.0, diffusion=0.5, steps=1,
                      bc=BC_DIRICHLET)
        h = 1.0 / 10
        assert p.cfl(10) == pytest.approx(
            1e-3 * (2.0 / h + 2 * 0.5 / h / h))

    def test_check_cfl_raises_when_unstable(self):
        p = SimParams(dt=1.0, advection=1.0, diffusion=0.1, steps=1,
                      bc=BC_DIRICHLET)
        with pytest.raises(ValueError):
            p.check_cfl(64)


class TestPartitioning:
    def test_even_split(self):
        assert partition_bounds(8, 2) == [0, 4, 8]

    def test_remainder_goes_to_leading_partitions(self):
        # 10 cells over 3 partitions: sizes 4, 3, 3
        assert partition_bounds(10, 3) == [0, 4, 7, 10]

    def test_single_partition(self):
        assert partition_bounds(5, 1) == [0, 5]

    def test_rejects_too_many_partitions(self):
        with pytest.raises(InvalidGeometry):
            partition_bounds(7, 4)  # partition would get < 2 cells

    def test_rejects_zero_partitions(self):
        with pytest.raises(InvalidGeometry):
            partition_bounds(8, 0)

    def test_table_round_trip(self):
        table = decode_dataset(partition_table_bytes(10, 3))
        assert list(table) == [10.0, 3.0, 0.0, 4.0, 7.0, 10.0]


class TestOperator:
    def test_three_cell_dirichlet_values(self):
        # h = 1/3, so 2/h^2 = 18 on the diagonal and -9 off it
        sub, diag, sup = _operator(3, BC_DIRICHLET)
        assert diag == [18.0, 18.0, 18.0]
        assert sub == [0.0, -9.0, -9.0]
        assert sup == [-9.0, -9.0, 0.0]

    def test_periodic_same_bands(self):
        # the corners live in apply_operator; the periodic factor pins cell 0
        assert _operator(5, BC_DIRICHLET) == _operator(5, BC_PERIODIC)

    def test_apply_operator_periodic_corners(self):
        x = np.arange(1.0, 6.0)
        cells = 5
        h2 = cells * cells
        out = apply_operator(cells, BC_PERIODIC, x)
        # row 0 couples to the last cell under periodic wrap
        expected0 = (2 * x[0] - x[1] - x[-1]) * h2
        assert out[0] == pytest.approx(expected0, rel=1e-14)

    def test_matrix_dataset_round_trip(self):
        data = operator_matrix_bytes(4, BC_PERIODIC)
        arr = decode_dataset(data)
        assert arr[0] == 4.0  # cells
        assert arr[1] == 1.0  # bc code for periodic


def dense_tridiag(sub, diag, sup):
    n = len(diag)
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = diag[i]
        if i > 0:
            a[i, i - 1] = sub[i]
        if i < n - 1:
            a[i, i + 1] = sup[i]
    return a


class TestThomasSolver:
    def test_matches_dense_solve_random(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 7, 40):
            for _ in range(10):
                sub = rng.uniform(-1, 1, n)
                sup = rng.uniform(-1, 1, n)
                sub[0] = 0.0
                sup[-1] = 0.0
                # diagonally dominant, never singular
                diag = (np.abs(sub) + np.abs(sup)
                        + rng.uniform(1.0, 2.0, n))
                rhs = rng.uniform(-5, 5, n)
                den, cp = _thomas_factor(sub, diag, sup)
                got = _thomas_solve(sub, den, cp, rhs)
                want = np.linalg.solve(dense_tridiag(sub, diag, sup), rhs)
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_zero_pivot_raises(self):
        with pytest.raises(SingularSystem):
            _thomas_factor([0.0, 1.0], [0.0, 1.0], [1.0, 0.0])

    def test_dirichlet_solve_residual(self):
        rng = np.random.default_rng(7)
        for cells in (8, 64, 256):
            q = rng.uniform(-1, 1, cells)
            x = solve_field(cells, BC_DIRICHLET, q)
            residual = apply_operator(cells, BC_DIRICHLET, x) - q
            bound = 1e-10 * max(1.0, np.max(np.abs(q)))
            assert np.max(np.abs(residual)) <= bound

    def test_periodic_solve_residual_including_wrap_row(self):
        rng = np.random.default_rng(11)
        for cells in (8, 64):
            q = rng.uniform(-1, 1, cells)
            q -= q.mean()  # solvability: source must integrate to zero
            x = solve_field(cells, BC_PERIODIC, q)
            assert x[0] == 0.0  # gauge choice pins cell 0
            residual = apply_operator(cells, BC_PERIODIC, x) - q
            bound = 1e-9 * max(1.0, np.max(np.abs(q)))
            assert np.max(np.abs(residual)) <= bound

    def test_periodic_unbalanced_source_rejected(self):
        q = np.ones(8)
        with pytest.raises(SingularSystem):
            solve_field(8, BC_PERIODIC, q)

    @pytest.mark.parametrize("q", [[1e308, 1e308, 0.0, 0.0],
                                   [1e308, 1e308, -1e308, -1e308]])
    def test_periodic_source_whose_sum_overflows_rejected(self, q):
        with pytest.raises(SingularSystem):  # np.sum's inf, not fsum's error
            solve_field(4, BC_PERIODIC, np.array(q))

    def test_periodic_source_with_opposite_infinities_passes_the_guard(self):
        # np.sum gave nan, which no threshold refuses; not fsum's ValueError
        x = solve_field(4, BC_PERIODIC, np.array([math.inf, -math.inf,
                                                  0.0, 0.0]))
        assert x.tolist() == [0.0, -math.inf, -math.inf, -math.inf]

    def test_factor_solve_round_trip_through_datasets(self):
        cells = 12
        q = np.sin(np.linspace(0.0, 1.0, cells))
        matrix = operator_matrix_bytes(cells, BC_DIRICHLET)
        factor = factor_operator_bytes(matrix)
        via_factor = _solve(factor, q.tolist())
        direct = solve_field(cells, BC_DIRICHLET, q)
        assert np.array_equal(via_factor, direct)


class TestTimeStepping:
    def test_initial_field_frozen_value(self):
        w = initial_field(4)
        assert w[0] == np.sin(np.pi / 4)
        assert len(w) == 4

    def test_initial_field_slicing_matches_global(self):
        full = initial_field(10)
        part = initial_field(10, 4, 7)
        assert np.array_equal(part, full[4:7])

    def test_constant_field_is_fixed_point_periodic(self):
        w = [3.25] * 16
        ext = _extend(w, BC_PERIODIC)
        assert _step(ext, [0.0] * 16, 1e-3, 1.0, 0.1, 1.0 / 16) == w

    def test_step_refuses_a_source_of_another_length(self):
        ext = _extend([1.0] * 8, BC_PERIODIC)
        with pytest.raises(ValueError):
            _step(ext, [0.0] * 7, 1e-3, 1.0, 0.1, 1.0 / 8)

    def test_pure_advection_shifts_upwind(self):
        # dt = h / a moves the profile exactly one cell to the right
        cells = 8
        h = 1.0 / cells
        w = [0.0] * cells
        w[3] = 1.0
        ext = _extend(w, BC_PERIODIC)
        out = _step(ext, [0.0] * cells, h / 1.0, 1.0, 0.0, h)
        expected = np.zeros(cells)
        expected[4] = 1.0
        assert np.allclose(out, expected, atol=1e-15)

    def test_conservation_under_periodic_bc(self):
        cells = 32
        p = params_for(cells, steps=50, bc=BC_PERIODIC)
        w = sequential_oracle(cells, p)
        w0 = initial_field(cells)
        drift = abs(w.sum() - w0.sum())
        assert drift <= 1e-12 * cells * np.max(np.abs(w))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_max_norm_never_grows_under_cfl(self, seed):
        rng = np.random.default_rng(seed)
        cells = int(rng.integers(4, 40))
        h = 1.0 / cells
        advection = float(rng.uniform(0.0, 3.0))
        diffusion = float(rng.uniform(0.0, 1.0))
        limit = advection / h + 2.0 * diffusion / h / h
        dt = float(rng.uniform(0.05, 1.0)) / max(limit, 1e-12)
        w = rng.uniform(-10.0, 10.0, cells).tolist()
        ext = _extend(w, BC_PERIODIC)
        out = _step(ext, [0.0] * cells, dt, advection, diffusion, h)
        assert np.max(np.abs(out)) <= np.max(np.abs(w)) + 1e-12

    def test_oracle_rejects_unstable_dt(self):
        p = SimParams(dt=10.0, advection=1.0, diffusion=0.1, steps=1,
                      bc=BC_DIRICHLET)
        with pytest.raises(ValueError):
            sequential_oracle(16, p)


def run_kernels_topologically(batch, workspace):
    """Execute every task's kernel directly, respecting dependencies."""
    done = set()
    pending = dict(batch.tasks)
    while pending:
        ready = sorted(t for t, task in pending.items()
                       if task.deps <= done)
        assert ready, "dependency deadlock in test fixture"
        for tid in ready:
            result = execute_kernel(pending.pop(tid).kernel, workspace)
            assert result.exit_status == 0, (tid, result.error)
            done.add(tid)


class TestKernelPipeline:
    @pytest.mark.parametrize("partitions", [1, 2, 4])
    @pytest.mark.parametrize("bc", [BC_DIRICHLET, BC_PERIODIC])
    def test_partitioned_run_matches_oracle_bitwise(self, tmp_path,
                                                    partitions, bc):
        cells, steps = 32, 5
        source = None
        if bc == BC_DIRICHLET:
            source = tuple(float(np.sin(3.0 * i)) for i in range(cells))
        p = params_for(cells, steps=steps, bc=bc, source=source)
        batch = generate_adapt_workflow(partitions, steps, cells, p)
        ws = Workspace(tmp_path / f"p{partitions}-{bc}")
        ws.root.mkdir(parents=True, exist_ok=True)
        run_kernels_topologically(batch, ws)
        got = final_snapshot(ws, steps)
        want = sequential_oracle(cells, p)
        assert np.array_equal(got, want)  # bitwise, not approximate

    def test_unfolded_solver_kernels_reproduce_pfield(self, tmp_path):
        cells = 16
        p = params_for(cells, bc=BC_DIRICHLET,
                       source=tuple(np.linspace(-1, 1, cells)))
        plain = generate_adapt_workflow(2, 1, cells, p)
        split = generate_adapt_workflow(2, 1, cells, p, unfold_solver=True)
        from pubflow import ResourceSnapshot, unfold
        snapshot = ResourceSnapshot(available_workers=1,
                                    capabilities=frozenset(),
                                    dataset_sizes={})
        split = unfold(split, "MUMPS", split.rules["mumps-split"], snapshot)
        ws_a = Workspace(tmp_path / "plain")
        ws_b = Workspace(tmp_path / "split")
        for ws in (ws_a, ws_b):
            ws.root.mkdir(parents=True, exist_ok=True)
        run_kernels_topologically(plain, ws_a)
        run_kernels_topologically(split, ws_b)
        assert ws_a.checksum("pfield") == ws_b.checksum("pfield")
        assert ws_a.checksum("save_0") == ws_b.checksum("save_0")

    @pytest.mark.parametrize("partition", [-1, 2])
    def test_iter_refuses_a_partition_out_of_range(self, tmp_path,
                                                   partition):
        ws = Workspace(tmp_path / "ws")
        ws.put("partitions", partition_table_bytes(8, 2))
        ws.put("pfield", encode_dataset([0.0] * 8))
        for p in (0, 1):
            ws.put(f"w0_{p}", encode_dataset([1.0] * 4))
        spec = KernelSpec(
            name="iter",
            params={"step": 0, "partition": partition, "dt": 1e-3,
                    "advection": 1.0, "diffusion": 0.1, "bc": BC_PERIODIC},
            inputs=("partitions", "pfield", "w0_0", "w0_1"),
            outputs=(f"w1_{partition}",))
        result = execute_kernel(spec, ws)  # not MissingInput: no DLC
        assert (result.exit_status, result.error) == (
            1, f"SchemaError: partition index {partition} out of range")

    @pytest.mark.parametrize("partition", [0, 1])
    def test_iter_refuses_a_pfield_of_another_geometry(self, tmp_path,
                                                       partition):
        # metis and matrix each take their own cells: 16 against 8 here
        ws = Workspace(tmp_path / "ws")
        ws.put("partitions", partition_table_bytes(16, 2))
        ws.put("pfield", encode_dataset([0.0] * 8))
        for p in (0, 1):
            ws.put(f"w0_{p}", encode_dataset([1.0] * 8))
        spec = KernelSpec(
            name="iter",
            params={"step": 0, "partition": partition, "dt": 1e-3,
                    "advection": 1.0, "diffusion": 0.1, "bc": BC_PERIODIC},
            inputs=("partitions", "pfield", "w0_0", "w0_1"),
            outputs=(f"w1_{partition}",))
        result = execute_kernel(spec, ws)
        assert (result.exit_status, result.error) == (
            1, "SchemaError: pfield has 8 cells, not 16")


# The numpy expressions the list cores replaced, kept as references: the
# cores must reproduce them bit for bit, since every IEEE-754 operation
# is correctly rounded whether numpy or the interpreter performs it.

def numpy_step(w_ext, pfield, dt, advection, diffusion, h):
    w = w_ext[1:-1]
    left = w_ext[:-2]
    right = w_ext[2:]
    rez_conv = -advection * (w - left) / h
    rez_dissip = diffusion * (right - 2.0 * w + left) / (h * h)
    return w + dt * (rez_conv + rez_dissip + pfield)


def numpy_thomas_factor(sub, diag, sup):
    n = diag.size
    den = np.empty(n)
    cp = np.empty(n)
    den[0] = diag[0]
    cp[0] = sup[0] / den[0]
    for i in range(1, n):
        den[i] = diag[i] - sub[i] * cp[i - 1]
        cp[i] = sup[i] / den[i]
    return den, cp


def numpy_thomas_solve(sub, den, cp, rhs):
    n = den.size
    g = np.empty(n)
    g[0] = rhs[0] / den[0]
    for i in range(1, n):
        g[i] = (rhs[i] - sub[i] * g[i - 1]) / den[i]
    x = np.empty(n)
    x[n - 1] = g[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = g[i] - cp[i] * x[i + 1]
    return x


def numpy_initial_field(cells, lo, hi):
    h = 1.0 / cells
    i = np.arange(lo, hi, dtype=float)
    return np.sin(2.0 * math.pi * (i + 0.5) * h)


def same_bits(values, reference):
    return np.array(values, dtype=float).tobytes() == reference.tobytes()


VALUES = st.floats(-1e3, 1e3)


class TestListCoresMatchNumpy:
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
               st.lists(VALUES, min_size=n + 2, max_size=n + 2),
               st.lists(VALUES, min_size=n, max_size=n))),
           st.floats(1e-6, 1.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0),
           st.floats(1e-3, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_stencil(self, fields, dt, advection, diffusion, h):
        w_ext, pfield = fields
        want = numpy_step(np.array(w_ext), np.array(pfield), dt,
                          advection, diffusion, h)
        assert same_bits(_step(w_ext, pfield, dt, advection, diffusion, h),
                         want)

    @given(st.integers(1, 40).flatmap(lambda n: st.lists(
        st.tuples(VALUES, VALUES, VALUES), min_size=n, max_size=n)))
    @settings(max_examples=200, deadline=None)
    def test_thomas_factor_and_solve(self, rows):
        sub, sup, rhs = (list(column) for column in zip(*rows))
        sub[0] = sup[-1] = 0.0
        # diagonally dominant, so no pivot is zero
        diag = [abs(s) + abs(u) + 1.0 for s, u in zip(sub, sup)]
        den, cp = _thomas_factor(sub, diag, sup)
        want_den, want_cp = numpy_thomas_factor(
            np.array(sub), np.array(diag), np.array(sup))
        assert same_bits(den, want_den) and same_bits(cp, want_cp)
        assert same_bits(_thomas_solve(sub, den, cp, rhs),
                         numpy_thomas_solve(np.array(sub), want_den,
                                            want_cp, np.array(rhs)))

    # the CLI's default and the benchmark's tiny and full geometries
    @pytest.mark.parametrize("cells, parts", [(64, 4), (2048, 16)])
    def test_initial_field_at_the_demo_sizes(self, cells, parts):
        bounds = partition_bounds(cells, parts)
        for lo, hi in [(0, cells), *zip(bounds, bounds[1:])]:
            assert same_bits(_initial(cells, lo, hi),
                             numpy_initial_field(cells, lo, hi))


class TestGenerator:
    def test_task_count_formula(self):
        p = params_for(64, steps=1)
        batch = generate_adapt_workflow(8, 1, 64, p)
        # 2 fixed + P init + 1 solver + N*P iter + N save
        assert len(batch.tasks) == 2 + 8 + 1 + 8 + 1 == 20

    def test_task_count_larger(self):
        p = params_for(64, steps=4)
        batch = generate_adapt_workflow(8, 4, 64, p)
        assert len(batch.tasks) == 2 + 8 + 1 + 4 * 8 + 4

    def test_dependency_shape(self):
        p = params_for(16, steps=2)
        batch = generate_adapt_workflow(2, 2, 16, p)
        t = batch.tasks
        assert t["MATRIX"].deps == {"METIS"}
        assert t["INIT_0"].deps == {"METIS"}
        assert t["MUMPS"].deps == {"MATRIX", "INIT_0", "INIT_1"}
        assert t["ITER_0_0"].deps == {"MUMPS"}
        assert t["ITER_1_0"].deps == {"ITER_0_0", "ITER_0_1"}
        assert t["SAVE_1"].deps == {"ITER_1_0", "ITER_1_1"}
        assert t["MUMPS"].kernel.declared_duration == 2.0

    def test_stencil_neighbours_clamped_for_dirichlet(self):
        p = params_for(32, steps=2, bc=BC_DIRICHLET)
        batch = generate_adapt_workflow(4, 2, 32, p)
        assert batch.tasks["ITER_1_0"].deps == {"ITER_0_0", "ITER_0_1"}
        assert batch.tasks["ITER_1_2"].deps == {
            "ITER_0_1", "ITER_0_2", "ITER_0_3"}

    def test_stencil_neighbours_wrap_for_periodic(self):
        p = params_for(32, steps=2, bc=BC_PERIODIC)
        batch = generate_adapt_workflow(4, 2, 32, p)
        assert batch.tasks["ITER_1_0"].deps == {
            "ITER_0_3", "ITER_0_0", "ITER_0_1"}

    def test_barrier_edges_are_all_to_all(self):
        p = params_for(32, steps=2)
        batch = generate_adapt_workflow(4, 2, 32, p, edges="barrier")
        assert batch.tasks["ITER_1_0"].deps == {
            f"ITER_0_{q}" for q in range(4)}

    def test_barrier_and_stencil_same_numbers(self, tmp_path):
        cells, steps = 16, 3
        p = params_for(cells, steps=steps)
        results = {}
        for mode in ("stencil", "barrier"):
            batch = generate_adapt_workflow(2, steps, cells, p, edges=mode)
            ws = Workspace(tmp_path / mode)
            ws.root.mkdir(parents=True, exist_ok=True)
            run_kernels_topologically(batch, ws)
            results[mode] = final_snapshot(ws, steps)
        assert np.array_equal(results["stencil"], results["barrier"])

    def test_geometry_validation(self):
        p = params_for(8, steps=1)
        with pytest.raises(InvalidGeometry):
            generate_adapt_workflow(8, 1, 8, p)  # 8 < 2 * 8

    def test_cfl_validation(self):
        p = SimParams(dt=10.0, advection=1.0, diffusion=0.1, steps=1,
                      bc=BC_DIRICHLET)
        with pytest.raises(ValueError):
            generate_adapt_workflow(2, 1, 16, p)

    def test_unfold_rule_attached_only_on_request(self):
        p = params_for(16, steps=1)
        plain = generate_adapt_workflow(2, 1, 16, p)
        assert plain.rules == {} and plain.tasks["MUMPS"].unfold_rule is None
        split = generate_adapt_workflow(2, 1, 16, p, unfold_solver=True)
        assert split.tasks["MUMPS"].unfold_rule == "mumps-split"
        assert split.rules["mumps-split"].guard.min_workers == 1

    def test_general_dag_metadata_tracks_structure(self):
        p = params_for(64, steps=2)
        wide = generate_adapt_workflow(8, 2, 64, p)
        assert wide.metadata["general_dag"] is True
        assert not validate_structure(wide).series_parallel
        p1 = params_for(16, steps=1)
        chain = generate_adapt_workflow(1, 1, 16, p1)
        assert chain.metadata["general_dag"] is False
        assert validate_structure(chain).series_parallel

    def test_structure_always_valid(self):
        p = params_for(64, steps=3)
        for parts in (1, 2, 8):
            for mode in ("stencil", "barrier"):
                batch = generate_adapt_workflow(parts, 3, 64, p,
                                                edges=mode)
                assert validate_structure(batch).ok
