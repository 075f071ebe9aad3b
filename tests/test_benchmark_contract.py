"""The benchmark (perfbench/) drives heatrobin through its CLI and library
calls and checks what comes back. These runs keep that contract in the
tier-1 suite: a report key that VerificationReport(**v) needs, the `tol`
argument of solve_problem, or ModalSeries.offset going away makes every
benchmark op fail, and shows up here first."""

from numpy.polynomial import polynomial as npoly

from conftest import ROOT
from heatrobin import cli, solver


def _execute_and_check(run, op) -> int:
    _, result = run.execute(op)
    return run.check(op, result)


def test_cli_ops_pass_the_benchmark_checks(perfbench, tmp_path):
    gen, workload = perfbench
    run = workload.Run(0, tmp_path, calibrate=False)
    for cmd in ("solve", "verify"):
        op = gen.Op(f"{cmd}:ex2", cmd, ROOT / "configs" / "ex2.json")
        assert _execute_and_check(run, op) > 0
    assert run.rows_failed == {"verify:ex2": 0}


def test_library_sessions_pass_the_benchmark_checks(perfbench, tmp_path):
    gen, workload = perfbench
    run = workload.Run(3, tmp_path, calibrate=False)
    ops = gen.cycle_ops("library_spectral", 3, ROOT, tmp_path)[:2]
    for op in ops:
        _execute_and_check(run, op)
    assert run.points == 2 * len(gen.session_lattice(1.0, 1.0))


def test_session_poly_parts_repeat_polyval2d_bit_for_bit(perfbench, tmp_path):
    # The point lattice of every seed-0 library session: the polynomial
    # part's Horner values must keep numpy.polynomial's bits.
    gen, _ = perfbench
    ops = gen.cycle_ops("library_spectral", 0, ROOT, tmp_path)
    assert len(ops) == 8
    for op in ops:
        cfg = cli.load_config(str(op.config))
        p = cfg.problem
        poly = solver.solve_problem(p, n_max=cfg.n_max, tol=cfg.tol).poly_part
        assert not poly.is_zero()
        for x, t in gen.session_lattice(p.l, p.T):
            assert float(poly(x, t)).hex() == float(npoly.polyval2d(x, t, poly.array)).hex()
            assert float(p.mu0(x)).hex() == float(npoly.polyval(x, p.mu0.coeffs)).hex()
            assert float(p.T0(t)).hex() == float(npoly.polyval(t, p.T0.coeffs)).hex()
