import csv
import json
import time
import tracemalloc

import numpy as np
import pytest

from rthdg import bench, cli, dg, pool, surrogate
from rthdg.cases import CloudParams, default_config
from rthdg.datagen import DiscretizationConfig, SamplerConfig, generate_dataset
from rthdg.errors import ModelMismatch, SolverFailure
from rthdg.hybrid import (GMRES_RESTART, assemble_hybrid, project_boundary,
                          recover_mean_intensity, solve_hybrid)
from rthdg.local import OPERATOR_FIELDS, SigmaField, solve_element
from rthdg.surrogate import (flatten_operators, init_mlp, load_model, model_fingerprint,
                             output_size, save_model, surrogate_input, train)

DESK = default_config("idealized-1", p=2, n_a=8, beam_index=7, tol=1e-6,
                      cloud=CloudParams(width=0.4))
# desk idealized-1 in the thick-cloud regime
THICK = default_config("idealized-1", p=3, n_a=8, beam_index=7,
                       cloud=CloudParams(amplitude=1000.0, width=0.12))


def test_volume_dof_formulas(tmp_path):
    # volume DOF counts: 24 * 49 * 28 at idealized level 0 and
    # 52 * 49 * 28 at the realistic case's level 0
    cfg = default_config("idealized-1")  # p=6, N_a=28
    assert bench.build_problem(cfg, 0).volume_dofs == 32928
    raster = tmp_path / "cloud.txt"
    np.savetxt(raster, np.ones((3, 9)))
    cfg_r = default_config("i3rc")
    cfg_r = type(cfg_r)(**{**cfg_r.__dict__, "raster_path": str(raster)})
    prob = bench.build_problem(cfg_r, 0)
    assert (prob.mesh.nx, prob.mesh.ny) == (26, 2)
    assert prob.volume_dofs == 71344


def test_run_case_methods_agree():
    ref, _ = bench.compute_reference(DESK, l_ref=2, tol=1e-10)
    rep_dg, fld_dg = bench.run_case(DESK, "dg", level=0, reference=ref, tol=1e-12)
    rep_hdg, fld_hdg = bench.run_case(DESK, "hdg", level=0, reference=ref, tol=1e-12)
    assert rep_dg.dofs == rep_hdg.dofs == 24 * 9 * 8
    from rthdg.hybrid import relative_l2_error
    assert relative_l2_error(fld_hdg, fld_dg) < 1e-8
    assert rep_hdg.t_local > 0 and rep_hdg.t_global > 0
    assert abs(rep_hdg.t_total - (rep_hdg.t_local + rep_hdg.t_global
                                  + rep_hdg.t_recover)) < 1e-12
    assert rep_dg.err_rel_l2 is not None


def test_run_case_reproducibility():
    a, _ = bench.run_case(DESK, "hdg", level=0)
    b, _ = bench.run_case(DESK, "hdg", level=0)
    assert a.gmres_iters == b.gmres_iters
    assert a.dofs == b.dofs


def test_unknown_method():
    with pytest.raises(ValueError):
        bench.run_case(DESK, "fem", level=0)


def test_hdg_el_requires_model():
    with pytest.raises(ValueError):
        bench.run_case(DESK, "hdg-el", level=0)


def test_model_mismatch_detected():
    model = init_mlp(3, 3, 8, n_layers=1, seed=0)  # p=3 vs problem p=2
    with pytest.raises(ModelMismatch):
        bench.run_case(DESK, "hdg-el", level=0, model=model)


def test_hdg_el_runs_with_matching_model():
    model = init_mlp(2, 2, 8, n_layers=1, seed=0)
    prob = bench.build_problem(DESK, 0)
    ops = bench.surrogate_local_ops(prob, model)
    assert len(ops) == prob.mesh.n_elems
    assert ops[0].a_i2o.shape == (48, 48)


def zeroed_model():
    # predicts zero operators: hdg-el converges in one iteration
    model = init_mlp(2, 2, 8, n_layers=1, seed=0)
    model.weights[0][:] = 0.0
    model.biases[0][:] = 0.0
    return model


def anchored_model(problem, seed=0):
    """A seeded model whose operators are contractive: small output weights
    around the exact operators of a homogeneous element (perfbench's anchor)."""
    cfg = problem.cfg
    model = init_mlp(cfg.p, cfg.p, cfg.n_a, seed=seed)
    sigma = SigmaField.from_scattering(np.full((cfg.p + 1, cfg.p + 1), 1.0), cfg.omega)
    model.weights[-1] *= 1e-4
    model.biases[-1] = flatten_operators(solve_element(sigma, problem.grid, problem.kernel,
                                                       h=2.0))
    return model


def test_element_operators_iterate_as_the_list_path(set_workers):
    prob = bench.build_problem(DESK, 0)
    h = (prob.mesh.hx, prob.mesh.hy)
    set_workers(2)
    exact = bench.exact_local_ops(prob)
    exact_list = [solve_element(s, prob.grid, prob.kernel, h, element_index=e)
                  for e, s in enumerate(prob.sigma_fields)]
    assert len(exact) == len(exact_list) == prob.mesh.n_elems
    for e, (got, ref) in enumerate(zip(exact, exact_list)):
        for name in OPERATOR_FIELDS:
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
            assert getattr(exact[e], name).tobytes() == getattr(ref, name).tobytes()
    model = init_mlp(2, 2, 8, seed=1)
    predicted = bench.surrogate_local_ops(prob, model)
    x = np.stack([surrogate_input(s, prob.mesh.hx) for s in prob.sigma_fields])
    y = surrogate.forward(model, x)
    assert len(predicted) == prob.mesh.n_elems
    for e, got in enumerate(predicted):
        assert flatten_operators(got).tobytes() == y[e].tobytes()
        assert flatten_operators(predicted[e]).tobytes() == y[e].tobytes()
        assert not got.fhat_u.any() and not got.f_mean.any()
    # the surrogate's operators are read in place from one forward output
    out = predicted.a_i2o.base
    assert out.shape == (prob.mesh.n_elems, model.dims[-1]) and predicted.a_i2m.base is out
    assert predicted[3].a_i2o.base is out


def test_exact_local_ops_write_one_label_stack(set_workers):
    # hdg's operators are rows of one (n_elems, output_size) array, each the
    # training label of its element: flatten_operators of its exact solve
    prob = bench.build_problem(DESK, 0)
    h = (prob.mesh.hx, prob.mesh.hy)
    set_workers(2)
    ops = bench.exact_local_ops(prob)
    rows = ops.a_i2o.base
    assert rows.shape == (prob.mesh.n_elems, output_size(2, 2, 8))
    assert ops.a_i2m.base is rows
    for e, sigma in enumerate(prob.sigma_fields):
        want = flatten_operators(solve_element(sigma, prob.grid, prob.kernel, h, element_index=e))
        assert rows[e].tobytes() == want.tobytes()
        assert ops[e].a_i2o.base is rows and ops[e].a_i2m.base is rows


def test_hdg_el_solve_makes_no_copy_of_the_operator_stack():
    # paper level 1: after the forward pass, the skeleton solve and recovery
    # allocate less than one a_i2o stack (63 MiB) in all; stacking the
    # operators, as before, alone took that much
    prob = bench.build_problem(default_config("idealized-1"), 1)  # p=6, N_a=28
    ops = bench.surrogate_local_ops(prob, anchored_model(prob))
    tracemalloc.start()
    try:
        system = assemble_hybrid(prob.index, ops)
        uhat, info = solve_hybrid(system, project_boundary(prob.g, prob.index),
                                  tol=prob.cfg.tol)
        recover_mean_intensity(uhat, ops, prob.index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.iterations > 0
    assert system.a_i2o is ops.a_i2o
    assert peak < ops.a_i2o.nbytes


@pytest.mark.parametrize("method", ["dg", "hdg", "hdg-el"])
def test_fields_bitwise_independent_of_workers(monkeypatch, set_workers, method):
    # every kernel split into blocks: one element per matvec block, 64
    # output columns per forward block, DG's inversion in slices
    monkeypatch.setattr(pool, "MIN_BLOCK_WORK", 1)
    monkeypatch.setattr(dg, "_SPLIT_INVERT_WORK", 1)
    monkeypatch.setattr(surrogate, "_FORWARD_BLOCK", 64)
    model = anchored_model(bench.build_problem(DESK, 1)) if method == "hdg-el" else None
    fields = []
    for workers in (1, 2, 4):
        set_workers(workers)
        fields.append(bench.run_case(DESK, method, level=1, model=model)[1].values.tobytes())
    assert fields[0] == fields[1] == fields[2]


def counting_fingerprint(monkeypatch):
    calls = []

    def counted(model):
        calls.append(model)
        return model_fingerprint(model)

    monkeypatch.setattr(bench, "model_fingerprint", counted)
    return calls


def test_model_hashed_once_across_runs(monkeypatch, tmp_path):
    calls = counting_fingerprint(monkeypatch)
    model = zeroed_model()
    assert "fingerprint" not in model.meta
    reports = [bench.run_case(DESK, "hdg-el", level=0, model=model)[0] for _ in range(3)]
    assert len(calls) == 1
    assert {r.meta["model_fingerprint"] for r in reports} == {model_fingerprint(model)}
    # a loaded model carries its verified fingerprint: no hash at run time
    save_model(model, tmp_path / "m.bin")
    bench.run_case(DESK, "hdg-el", level=0, model=load_model(tmp_path / "m.bin"))
    assert len(calls) == 1


def test_train_drops_cached_fingerprint(monkeypatch):
    calls = counting_fingerprint(monkeypatch)
    model = zeroed_model()
    before = bench.run_case(DESK, "hdg-el", level=0, model=model)[0].meta["model_fingerprint"]
    ds = generate_dataset(SamplerConfig(p_x=2, p_y=2), DiscretizationConfig(p=2, n_a=8),
                          5, seed=0)
    train(model, ds, schedule=((1, 1e-4),), batch_size=4)
    after = bench.run_case(DESK, "hdg-el", level=0, model=model)[0].meta["model_fingerprint"]
    assert len(calls) == 2
    assert after == model_fingerprint(model) != before


def test_fingerprint_digest_is_the_tobytes_digest():
    # model files written before the zero-copy hash keep valid fingerprints;
    # a Fortran-ordered weight is hashed in its C-order bytes as before
    import hashlib
    model = init_mlp(2, 2, 8, n_layers=3, seed=4)
    model.weights[1] = np.asfortranarray(model.weights[1])
    digest = hashlib.sha256()
    for w, b in zip(model.weights, model.biases):
        digest.update(w.tobytes())
        digest.update(b.tobytes())
    assert model_fingerprint(model) == digest.hexdigest()


def test_workers_give_same_operators(set_workers):
    prob = bench.build_problem(DESK, 0)
    set_workers(1)
    seq = bench.exact_local_ops(prob)
    rng = np.random.default_rng(0)
    f = [rng.uniform(0, 1, (3, 3)) for _ in range(prob.mesh.n_elems)]
    seq_f = bench.exact_local_ops(prob, f=f)
    for workers in (2, 4):
        set_workers(workers)
        par = bench.exact_local_ops(prob)
        par_f = bench.exact_local_ops(prob, f=f)
        assert len(par) == len(par_f) == prob.mesh.n_elems
        for a, b in zip([*seq, *seq_f], [*par, *par_f]):
            for name in ("a_i2o", "a_i2m", "fhat_u", "f_mean"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_cold_kernel_caches_under_threads(monkeypatch, set_workers):
    # more workers than cores race to fill the per-(p, grid) and per-size
    # caches; every element still gets the serial operators and each cache
    # ends with one entry
    import sys

    from rthdg import local
    prob = bench.build_problem(DESK, 0)
    set_workers(1)
    want = bench.exact_local_ops(prob)
    monkeypatch.setattr(local, "_kernel_cache", {})
    set_workers(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = bench.exact_local_ops(prob)
    finally:
        sys.setswitchinterval(interval)
    assert [o.a_i2o.tobytes() for o in got] == [o.a_i2o.tobytes() for o in want]
    (ref,) = local._kernel_cache.values()
    assert list(ref._bases) == [(prob.mesh.hx, prob.mesh.hy)]


@pytest.mark.parametrize("env, cores, expected", [
    ({}, 2, 1),                                   # BLAS owns every core
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
    ({"OMP_NUM_THREADS": "1"}, 4, 4),
    ({"MKL_NUM_THREADS": "2"}, 4, 2),
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4, 1),
    ({"OPENBLAS_NUM_THREADS": "3"}, 2, 1),        # never below one worker
    ({"OMP_NUM_THREADS": "bogus"}, 2, 1),
])
def test_default_workers_rule(monkeypatch, env, cores, expected):
    for var in pool.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    assert pool.default_workers() == expected


def pin_blas_on_two_cores(monkeypatch):
    """The environment rule then gives 2 workers."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_explicit_workers_win(monkeypatch, tmp_path, capsys):
    # --workers 3 sets the count for the whole command, the local phase's
    # element split included; auto (2 here) is back once the command returns
    pin_blas_on_two_cores(monkeypatch)
    parts = []
    split = pool._split
    monkeypatch.setattr(pool, "_split", lambda n, k: parts.append(k) or split(n, k))
    cfg = tmp_path / "case.json"
    write_desk_config(cfg)
    argv = ["run", "--config", str(cfg), "--method", "hdg", "--level", "0"]
    for extra, count in ((["--workers", "3"], 3), ([], 2)):
        parts.clear()
        assert cli.main(argv + extra) == 0
        assert json.loads(capsys.readouterr().out)["meta"]["workers"] == count
        assert max(parts) == count  # 24 elements: one block per worker
        assert pool.fixed_workers is None and pool.default_workers() == 2
    assert cli.build_parser().parse_args(["run", "--method", "hdg"]).workers is None
    assert cli.build_parser().parse_args(
        ["sweep", "--out", "x", "--workers", "3"]).workers == 3
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["run", "--method", "hdg", "--workers", "0"])


@pytest.mark.parametrize("argv", [
    ["sweep", "--methods", "dg", "--levels", "0", "--ref-level", "0"],
    ["run", "--method", "hdg", "--level", "0", "--ref-level", "0"],
])
def test_workers_reach_the_dg_reference(monkeypatch, tmp_path, capsys, argv):
    # auto is 2 workers and DG's sweep blocks split at any size: with
    # --workers 1 no kernel of the command, the reference's DG solve
    # included, uses a pool thread
    pin_blas_on_two_cores(monkeypatch)
    monkeypatch.setattr(dg, "_SPLIT_INVERT_WORK", 1)
    pools = []
    real = pool._pool
    monkeypatch.setattr(pool, "_pool", lambda count: pools.append(count) or real(count))
    cfg = tmp_path / "case.json"
    write_desk_config(cfg)
    argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]
    assert cli.main(argv + ["--workers", "1"]) == 0
    assert pools == []
    assert cli.main(argv) == 0  # the same command on auto does use the pool
    assert pools and set(pools) == {2}


def test_sweep_checks_methods_before_the_reference(monkeypatch, tmp_path, capsys):
    def no_reference(*args, **kwargs):
        raise AssertionError("reference computed before the methods were checked")

    monkeypatch.setattr(bench, "compute_reference", no_reference)
    for methods in (["dg", "bogus"], ["hdg-el"]):
        with pytest.raises(ValueError, match="unknown method|needs a trained model"):
            bench.sweep(DESK, methods, [0], tmp_path / "out")
    cfg = tmp_path / "case.json"
    write_desk_config(cfg)
    for extra, message in (([], "needs a trained model"),
                           (["--methods", "dg,hgd"], "unknown method 'hgd'")):
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "cli")]
                        + extra) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "cli").exists()


def test_dg_assembly_is_timed(monkeypatch):
    # DG's global time includes assemble_dg, as hdg's includes assemble_hybrid
    delay = 0.5
    real = bench.dg_mod.assemble_dg

    def slow_assemble(*args, **kwargs):
        time.sleep(delay)
        return real(*args, **kwargs)

    fast, _ = bench.run_case(DESK, "dg", level=0)
    monkeypatch.setattr(bench.dg_mod, "assemble_dg", slow_assemble)
    slow, _ = bench.run_case(DESK, "dg", level=0)
    assert slow.t_global >= delay
    assert slow.t_total - fast.t_total > 0.8 * delay


def test_untrained_surrogate_stalls_early():
    # an untrained net gives non-contractive operators: the skeleton GMRES
    # stalls near 1.0 and must fail after two restart cycles, not grind
    # toward its cycle cap
    t0 = time.perf_counter()
    with pytest.raises(SolverFailure, match="stalled") as err:
        bench.run_case(THICK, "hdg-el", level=4, model=init_mlp(3, 3, 8, seed=0))
    assert time.perf_counter() - t0 < 10.0
    assert len(err.value.residuals) == 2 * GMRES_RESTART


def test_non_finite_residual_fails_at_once():
    # one NaN output bias makes every skeleton residual NaN, which the stall
    # test never flags: GMRES must fail at the first one, not at its cycle cap
    model = init_mlp(3, 3, 8, seed=0)
    model.biases[-1][0] = np.nan
    t0 = time.perf_counter()
    with pytest.raises(SolverFailure, match="nan") as err:
        bench.run_case(THICK, "hdg-el", level=1, model=model)
    assert time.perf_counter() - t0 < 5.0
    assert not np.isfinite(err.value.residuals[-1])


def test_slow_converging_solves_do_not_stall():
    # thick-cloud DG restarted every 50 iterations needs several restart
    # cycles; each still lowers the residual by far more than the stall fraction
    prob = bench.build_problem(THICK, 4)
    system = dg.assemble_dg(prob.mesh, prob.grid, prob.kernel, prob.sigma_fields,
                            THICK.p, g=prob.g)
    u, info = dg.solve_dg(system, THICK.tol, restart=50)
    fld_dg = dg.dg_mean_intensity(u, prob.mesh, prob.grid, THICK.p)
    rep_hdg, fld_hdg = bench.run_case(THICK, "hdg", level=4)
    assert info.iterations > 2 * 50
    assert rep_hdg.gmres_iters < GMRES_RESTART
    from rthdg.hybrid import relative_l2_error
    assert relative_l2_error(fld_hdg, fld_dg) < 1e-2


def test_sweep_tables(tmp_path):
    reports = bench.sweep(DESK, ["dg", "hdg"], [0, 1], tmp_path, l_ref=3)
    assert len(reports) == 4
    with open(tmp_path / "sweep_table.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == ["dg", "dg", "hdg", "hdg"]
    assert list(rows[0]) == ["method", "level", "dofs", "err_rel_l2",
                             "t_local", "t_global", "t_total", "gmres_iters"]
    # DG error decreases under refinement (10% noise allowance)
    errs = [float(r["err_rel_l2"]) for r in rows if r["method"] == "dg"]
    assert errs[1] <= 1.1 * errs[0]
    for name in ("dofs_vs_error.csv", "dofs_vs_time.csv", "time_vs_error.csv",
                 "reference.npz"):
        assert (tmp_path / name).exists()


def test_i3rc_case_end_to_end(tmp_path):
    # synthetic cloud raster on the realistic-case schedule: square elements,
    # hdg matches dg, and a matching surrogate runs the same pipeline
    rng = np.random.default_rng(14)
    raster = tmp_path / "cloud.txt"
    np.savetxt(raster, rng.uniform(0.0, 6.0, (5, 40)))
    cfg = default_config("i3rc", p=2, n_a=8, beam_index=7, tol=1e-10)
    cfg = type(cfg)(**{**cfg.__dict__, "raster_path": str(raster)})
    prob = bench.build_problem(cfg, 0)
    assert abs(prob.mesh.hx - prob.mesh.hy) < 1e-15
    ref, _ = bench.compute_reference(cfg, l_ref=1, tol=1e-10)
    rep_d, fld_d = bench.run_case(cfg, "dg", level=0, reference=ref)
    rep_h, fld_h = bench.run_case(cfg, "hdg", level=0, reference=ref)
    from rthdg.hybrid import relative_l2_error
    assert relative_l2_error(fld_h, fld_d) < 1e-8
    # plumbing smoke for the surrogate path: a zeroed model predicts zero
    # coupling, which the skeleton solve handles in a few iterations
    rep_e, _ = bench.run_case(cfg, "hdg-el", level=0, model=zeroed_model(), reference=ref)
    assert rep_e.meta["sigma_scale"] == 1.0


def test_reference_roundtrip(tmp_path):
    fld, meta = bench.compute_reference(DESK, l_ref=1, tol=1e-8)
    assert meta["level_override"] is True
    path = tmp_path / "ref.npz"
    bench.save_reference(fld, meta, path)
    back, meta2 = bench.load_reference(path)
    np.testing.assert_array_equal(back.values, fld.values)
    assert meta2 == meta


def test_train_pipeline_outputs(tmp_path):
    tcfg = bench.TrainConfig(p=2, n_a=8, n_samp=10, n_layers=2,
                             schedule=((3, 1e-3), (2, 1e-4)), batch_size=4)
    model_path, csv_path, state = bench.train_pipeline(tcfg, tmp_path)
    model = load_model(model_path, expect=(2, 2, 8))
    assert model.meta["dataset_fingerprint"]
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["epoch", "lr", "train_mae", "test_mae", "seconds"]
    assert len(rows) == 5
    assert (tmp_path / "dataset.npz").exists()


# --- command-line interface ---

def write_desk_config(path):
    path.write_text(json.dumps({
        "case": "idealized-1", "p": 2, "n_a": 8, "beam_index": 7,
        "tol": 1e-6, "cloud": {"width": 0.4}}))


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "case.json"
    write_desk_config(cfg)
    rc = cli.main(["run", "--config", str(cfg), "--method", "hdg",
                   "--level", "0", "--out", str(tmp_path / "out")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "hdg"
    assert (tmp_path / "out" / "hdg_l0_report.json").exists()


def test_cli_run_records_model_file_fingerprint(tmp_path, capsys):
    cfg = tmp_path / "case.json"
    write_desk_config(cfg)
    model = zeroed_model()
    mpath = tmp_path / "m.bin"
    save_model(model, mpath)
    stored = load_model(mpath).meta["fingerprint"]
    assert stored == model_fingerprint(model)
    rc = cli.main(["run", "--config", str(cfg), "--method", "hdg-el", "--level", "0",
                   "--model", str(mpath), "--out", str(tmp_path / "out")])
    assert rc == 0
    record = json.loads((tmp_path / "out" / "hdg-el_l0_report.json").read_text())
    assert record["meta"]["model_fingerprint"] == stored


def test_cli_solver_stall_exit_3(tmp_path, capsys):
    cfg = tmp_path / "thick.json"
    cfg.write_text(json.dumps({"case": "idealized-1", "p": 3, "n_a": 8, "beam_index": 7,
                               "cloud": {"amplitude": 1000.0, "width": 0.12}}))
    mpath = tmp_path / "untrained.bin"
    save_model(init_mlp(3, 3, 8, seed=0), mpath)
    rc = cli.main(["run", "--config", str(cfg), "--method", "hdg-el", "--level", "4",
                   "--model", str(mpath)])
    assert rc == 3
    assert "stalled" in capsys.readouterr().err


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", "--config", str(bad), "--method", "dg"]) == 2
    missing = tmp_path / "missing.json"
    assert cli.main(["run", "--config", str(missing), "--method", "dg"]) == 2


def test_cli_model_mismatch_exit_4(tmp_path, capsys):
    cfg = tmp_path / "case.json"
    write_desk_config(cfg)
    model = init_mlp(3, 3, 8, n_layers=1, seed=0)
    mpath = tmp_path / "m.bin"
    save_model(model, mpath)
    rc = cli.main(["run", "--config", str(cfg), "--method", "hdg-el",
                   "--model", str(mpath)])
    assert rc == 4


def test_cli_gen_data_and_train(tmp_path, capsys):
    rc = cli.main(["gen-data", "--out", str(tmp_path / "ds.npz"), "--p", "2",
                   "--n-a", "8", "--n-samp", "8", "--seed", "1"])
    assert rc == 0
    rc = cli.main(["train", "--out", str(tmp_path / "train"), "--p", "2",
                   "--n-a", "8", "--n-samp", "8", "--n-layers", "1",
                   "--epochs", "2", "--batch-size", "4",
                   "--dataset", str(tmp_path / "ds.npz")])
    assert rc == 0
    assert (tmp_path / "train" / "model.bin").exists()
    assert (tmp_path / "train" / "training_curve.csv").exists()


def test_cli_train_prints_step_time_and_keeps_it_out_of_the_model(tmp_path, capsys):
    argv = ["train", "--p", "2", "--n-a", "8", "--n-samp", "8", "--n-layers", "1",
            "--epochs", "2", "--batch-size", "4"]
    for run in ("a", "b"):
        assert cli.main(argv + ["--out", str(tmp_path / run)]) == 0
        assert "ms per step" in capsys.readouterr().out
    assert ((tmp_path / "a" / "model.bin").read_bytes()
            == (tmp_path / "b" / "model.bin").read_bytes())


def test_cli_dataset_mismatch_exit_2(tmp_path, capsys):
    assert cli.main(["gen-data", "--out", str(tmp_path / "ds.npz"), "--p", "2",
                     "--n-a", "8", "--n-samp", "8"]) == 0
    rc = cli.main(["train", "--out", str(tmp_path / "t"), "--p", "3",
                   "--n-a", "8", "--epochs", "1",
                   "--dataset", str(tmp_path / "ds.npz")])
    assert rc == 2


@pytest.mark.parametrize("flag, value, message", [("--epochs", "0", "no epochs"),
                                                   ("--batch-size", "0", "batch size")])
def test_cli_train_rejects_empty_schedule_and_zero_batch(tmp_path, capsys, flag, value, message):
    rc = cli.main(["train", "--out", str(tmp_path / "t"), "--p", "2", "--n-a", "8",
                   "--n-samp", "8", flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and message in err
    assert "Traceback" not in err and not (tmp_path / "t").exists()


def test_cli_full_scale_flag_parses():
    args = cli.build_parser().parse_args(["train", "--out", "x", "--full-scale"])
    tcfg = cli._train_config(args)
    assert (tcfg.p, tcfg.n_a, tcfg.n_samp) == (6, 28, 1000)
    assert tcfg.schedule[0] == (3000, 1e-3)


def test_cli_reference_and_sweep(tmp_path, capsys):
    cfg = tmp_path / "case.json"
    write_desk_config(cfg)
    rc = cli.main(["reference", "--config", str(cfg), "--ref-level", "1",
                   "--out", str(tmp_path / "ref.npz")])
    assert rc == 0
    rc = cli.main(["sweep", "--config", str(cfg), "--methods", "dg",
                   "--levels", "0", "--out", str(tmp_path / "sweep"),
                   "--reference", str(tmp_path / "ref.npz")])
    assert rc == 0
    assert (tmp_path / "sweep" / "sweep_table.csv").exists()
