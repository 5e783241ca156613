"""Acceptance gates: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Trained-model fixtures (criteria 2, 5, 7) are session-scoped and
deterministic; their wall time is attributed to the criterion whose budget
covers the training.
"""

import time

import numpy as np
import pytest

from rthdg import bench, dg as dgm
from rthdg.angular import build_angular_grid, scattering_kernel_matrix
from rthdg.basis import modal_nodal_transform
from rthdg.cases import CloudParams, default_config
from rthdg.datagen import (DiscretizationConfig, SamplerConfig,
                           dataset_fingerprint, generate_dataset, sample_rng,
                           sample_sigma)
from rthdg.hybrid import (assemble_hybrid, boundary_fluxes, project_boundary,
                          recover_mean_intensity, recover_solution,
                          relative_l2_error, solve_hybrid)
from rthdg.local import SigmaField, element_solution, solve_element
from rthdg.mesh import build_mesh, element_trace_map, skeleton_numbering
from rthdg.surrogate import (forward, init_mlp, mae_gradients, mae_loss,
                             predict_local_ops_batch, save_model, train)


def _gate(num, desc, t0, checks, budget_s, extra=""):
    ok = all(bool(c) for _, c in checks)
    dt = time.perf_counter() - t0
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({dt:.1f}s): {desc}"
    if extra:
        line += f" | {extra}"
    print(line)
    failed = [label for label, c in checks if not c]
    assert ok, f"criterion {num} failed: {failed}"
    assert dt < budget_s, f"criterion {num} exceeded its {budget_s}s budget ({dt:.0f}s)"


def beam_g(grid, a_star, amp, lit=frozenset({(0.0, 1.0), (-1.0, 0.0)})):
    lo, hi = grid.boundaries[a_star], grid.boundaries[a_star + 1]

    def g(x, y, theta, normal):
        if lit and (float(normal[0]), float(normal[1])) not in lit:
            return 0.0
        return amp if lo <= theta < hi else 0.0

    return g


def test_criterion_1_oracle_equivalence():
    # 2x2 mesh, p=2, N_a=4, g_asym=0.8, albedo 1, random smooth sigma in
    # [0, 5], beam data: HDG (exact local solves, tol 1e-12) matches the
    # dense monolithic DG solve within 1e-8 relative L2.
    t0 = time.perf_counter()
    p, na = 2, 4
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    mesh = build_mesh(3.0, 2.0, 2, 2)
    index = skeleton_numbering(mesh, grid, p)
    sampler = SamplerConfig(p_x=p, p_y=p, c_sm=2.0, a_sigma=5.0)
    sigmas = [SigmaField.from_scattering(sample_sigma(sampler, sample_rng(100, e)), 1.0)
              for e in range(mesh.n_elems)]
    g = beam_g(grid, 3, na / (2 * np.pi))
    ops = [solve_element(sigmas[e], grid, kernel, (mesh.hx, mesh.hy),
                         element_index=e) for e in range(mesh.n_elems)]
    uhat, _ = solve_hybrid(assemble_hybrid(index, ops),
                           project_boundary(g, index), tol=1e-12)
    m_hdg = recover_mean_intensity(uhat, ops, index)
    system = dgm.assemble_dg(mesh, grid, kernel, sigmas, p, g=g)
    u = np.linalg.solve(system.matrix.toarray(), system.b)
    m_dg = dgm.dg_mean_intensity(u, mesh, grid, p)
    err = relative_l2_error(m_hdg, m_dg)
    _gate(1, "HDG vs monolithic DG oracle equivalence", t0,
          [(f"rel L2 {err:.2e} <= 1e-8", err <= 1e-8)], 10,
          extra=f"rel L2 = {err:.2e}")


def test_criterion_2_transport_exactness(capacity_models):
    # sigma = 0, f = 0, unit inflow in one angular element: the solution is
    # 1 there and 0 elsewhere for dg and hdg (1e-10); hdg-el reproduces the
    # mean intensity within 5e-3 with a model at test MAE <= 1e-3.
    t0 = time.perf_counter()
    p, na, a_star = 3, 8, 6
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    mesh = build_mesh(3.0, 2.0, 3, 2)  # square h = 1
    index = skeleton_numbering(mesh, grid, p)
    n_sp = (p + 1) ** 2
    sigmas = [SigmaField(np.zeros((p + 1, p + 1)), np.zeros((p + 1, p + 1)))
              for _ in range(mesh.n_elems)]
    g = beam_g(grid, a_star, 1.0, lit=None)  # every inflow face lit
    checks = []

    system = dgm.assemble_dg(mesh, grid, kernel, sigmas, p, g=g)
    u_dg, _ = dgm.solve_dg(system, tol=1e-12)
    u4 = u_dg.reshape(mesh.n_elems, n_sp, na)
    err_dg = max(np.abs(u4[:, :, a_star] - 1.0).max(),
                 np.abs(np.delete(u4, a_star, axis=2)).max())
    checks.append((f"dg max error {err_dg:.2e} <= 1e-10", err_dg <= 1e-10))

    ops = [solve_element(s, grid, kernel, mesh.hx) for s in sigmas]
    bc = project_boundary(g, index)
    uhat, _ = solve_hybrid(assemble_hybrid(index, ops), bc, tol=1e-12)
    u_h = recover_solution(uhat, index, sigmas, kernel).reshape(mesh.n_elems, n_sp, na)
    err_h = max(np.abs(u_h[:, :, a_star] - 1.0).max(),
                np.abs(np.delete(u_h, a_star, axis=2)).max())
    checks.append((f"hdg max error {err_h:.2e} <= 1e-10", err_h <= 1e-10))

    model = capacity_models[4]
    mae = model.meta["test_mae"]
    checks.append((f"model test MAE {mae:.2e} <= 1e-3", mae <= 1e-3))
    ops_el = predict_local_ops_batch(model, sigmas, mesh.hx)
    uhat_el, _ = solve_hybrid(assemble_hybrid(index, ops_el), bc, tol=1e-10)
    m_el = recover_mean_intensity(uhat_el, ops_el, index)
    err_el = np.abs(m_el.values - 1.0 / na).max()
    checks.append((f"hdg-el mean error {err_el:.2e} <= 5e-3", err_el <= 5e-3))
    _gate(2, "transport exactness (dg, hdg, hdg-el)", t0, checks, 60)


def test_criterion_3_energy_balance():
    # albedo 1, f = 0, collimated beam, 6x4 mesh, p=4, N_a=8: boundary
    # outflow flux equals inflow flux within 1e-3 at GMRES tol 1e-4 and
    # within 1e-7 at tol 1e-8.
    t0 = time.perf_counter()
    cfg = default_config("idealized-1", p=4, n_a=8, beam_index=7)
    prob = bench.build_problem(cfg, 0)
    ops = bench.exact_local_ops(prob)
    system = assemble_hybrid(prob.index, ops)
    bc = project_boundary(prob.g, prob.index)
    checks = []
    for tol, bound in ((1e-4, 1e-3), (1e-8, 1e-7)):
        uhat, _ = solve_hybrid(system, bc, tol=tol)
        fin, fout = boundary_fluxes(uhat, prob.index)
        rel = abs(fout - fin) / fin
        checks.append((f"tol {tol:.0e}: |out-in|/in {rel:.2e} <= {bound:.0e}",
                       rel <= bound))
    _gate(3, "global energy balance at albedo 1", t0, checks, 300)


def test_criterion_4_scaling_identity():
    # A_i2u(h, sigma) equals A_i2u(2, h sigma / 2) within 1e-12 relative
    # for 20 random coefficient fields.
    t0 = time.perf_counter()
    p, na, h = 3, 8, 0.7
    grid = build_angular_grid(na)
    kernel = scattering_kernel_matrix(grid, 0.8)
    unit_inflows = np.eye(element_trace_map(p, grid).n_in)  # A_i2u, re-solved on request
    worst = 0.0
    for k in range(20):
        rng = sample_rng(7000, k)
        sig = rng.uniform(0.0, 8.0, (p + 1, p + 1))
        a1 = element_solution(SigmaField.from_scattering(sig, 1.0), grid, kernel, h,
                              unit_inflows)
        a2 = element_solution(SigmaField.from_scattering(h * sig / 2, 1.0), grid, kernel,
                              2.0, unit_inflows)
        worst = max(worst, np.abs(a1 - a2).max() / np.abs(a2).max())
    _gate(4, "element rescaling identity", t0,
          [(f"max rel deviation {worst:.2e} <= 1e-12", worst <= 1e-12)], 60,
          extra=f"20 fields, worst {worst:.2e}")


def test_criterion_5_capacity_ordering(capacity_models, fixture_times):
    # deeper networks reach lower test MAE on the desk dataset:
    # MAE(4) < MAE(2) < MAE(1) and MAE(4) <= MAE(1) / 2.
    t0 = time.perf_counter()
    maes = {nl: capacity_models[nl].meta["test_mae"] for nl in (1, 2, 4)}
    checks = [
        (f"MAE(4)={maes[4]:.2e} < MAE(2)={maes[2]:.2e}", maes[4] < maes[2]),
        (f"MAE(2)={maes[2]:.2e} < MAE(1)={maes[1]:.2e}", maes[2] < maes[1]),
        (f"MAE(4) <= MAE(1)/2", maes[4] <= maes[1] / 2),
    ]
    train_time = sum(fixture_times.get(f"capacity_{nl}layer", 0.0)
                     for nl in (1, 2, 4)) + fixture_times.get("desk_dataset", 0.0)
    dt_budget = 1800 - train_time
    _gate(5, "network capacity ordering", t0, checks, max(dt_budget, 1.0),
          extra=f"MAEs {maes[1]:.2e}/{maes[2]:.2e}/{maes[4]:.2e}, "
                f"training {train_time:.0f}s")


def test_criterion_6_gradient_check():
    # analytic MLP gradients vs central finite differences, 30 random
    # parameters per layer, relative error < 1e-5.
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    model = init_mlp(2, 2, 4, n_layers=4, seed=3)
    x = rng.uniform(0.0, 3.0, (4, model.dims[0]))
    y = forward(model, x) + 0.25 + 0.5 * rng.random((4, model.dims[-1]))
    _, gws, gbs = mae_gradients(model, x, y)
    step = 1e-6
    worst = 0.0
    for li in range(model.n_layers):
        for param, grad in ((model.weights[li], gws[li]),
                            (model.biases[li], gbs[li])):
            flat = param.reshape(-1)
            gflat = np.asarray(grad).reshape(-1)
            take = min(30, flat.size)
            for idx in rng.choice(flat.size, size=take, replace=False):
                orig = flat[idx]
                flat[idx] = orig + step
                lp = mae_loss(model, x, y)
                flat[idx] = orig - step
                lm = mae_loss(model, x, y)
                flat[idx] = orig
                fd = (lp - lm) / (2 * step)
                denom = max(abs(fd), abs(gflat[idx]), 1e-12)
                worst = max(worst, abs(fd - gflat[idx]) / denom)
    _gate(6, "analytic gradients vs finite differences", t0,
          [(f"worst rel error {worst:.2e} < 1e-5", worst < 1e-5)], 60)


def test_criterion_7_hdg_el_accuracy(accuracy_model, fixture_times):
    # desk-scale idealized case-1 analogue (edge width widened to what a
    # p=3 mesh resolves), level-matched exact reference at level+4:
    # HDG-EL reaches 5e-3 relative L2 and stays within 5e-3 of HDG.
    t0 = time.perf_counter()
    level = 1
    cfg = default_config("idealized-1", p=3, n_a=8, beam_index=7, tol=1e-4,
                         cloud=CloudParams(width=0.5, amplitude=10.0))
    ref, _ = bench.compute_reference(cfg, l_ref=level + 4, tol=1e-8)
    rep_h, _ = bench.run_case(cfg, "hdg", level=level, reference=ref)
    rep_e, _ = bench.run_case(cfg, "hdg-el", level=level, model=accuracy_model,
                              reference=ref)
    checks = [
        (f"hdg-el rel L2 {rep_e.err_rel_l2:.2e} <= 5e-3",
         rep_e.err_rel_l2 <= 5e-3),
        (f"hdg-el within hdg + 5e-3 (hdg {rep_h.err_rel_l2:.2e})",
         rep_e.err_rel_l2 <= rep_h.err_rel_l2 + 5e-3),
    ]
    train_time = (fixture_times.get("accuracy", 0.0)
                  + fixture_times.get("accuracy_dataset", 0.0))
    _gate(7, "HDG-EL end-to-end accuracy", t0, checks,
          max(1800 - train_time, 1.0),
          extra=f"hdg {rep_h.err_rel_l2:.2e}, hdg-el {rep_e.err_rel_l2:.2e}, "
                f"training {train_time:.0f}s")


def test_criterion_8_local_phase_speedup(set_workers):
    # p=6, N_a=28, 24 elements: surrogate local-operator creation must be
    # at least 5x faster than exact local solves (same machine, 1 worker).
    # End-to-end speed-ups are hardware-dependent: reported, not gated.
    t0 = time.perf_counter()
    cfg = default_config("idealized-1")  # p=6, N_a=28
    prob = bench.build_problem(cfg, 0)
    assert prob.mesh.n_elems == 24
    set_workers(1)  # both local phases
    bench.exact_local_ops(prob)  # warm LAPACK/caches
    t_ex = time.perf_counter()
    bench.exact_local_ops(prob)
    t_exact = time.perf_counter() - t_ex
    model = init_mlp(6, 6, 28, n_layers=4, seed=0)  # timing needs dims only
    bench.surrogate_local_ops(prob, model)  # warm
    t_su = time.perf_counter()
    bench.surrogate_local_ops(prob, model)
    t_sur = time.perf_counter() - t_su
    ratio = t_exact / t_sur
    print(f"    local phase: exact {t_exact:.2f}s, surrogate {t_sur:.3f}s, "
          f"measured ratio {ratio:.0f}x (end-to-end ratio is not gated)")
    _gate(8, "surrogate local-phase speed-up", t0,
          [(f"ratio {ratio:.1f}x >= 5x", ratio >= 5.0)], 1200,
          extra=f"{ratio:.0f}x")


def test_criterion_9_data_generation_contract():
    # 500 samples: exact zero minimum (pre-amplification shift), maximum
    # bounded by A_sigma, and high-mode energy fraction decreasing in c_sm.
    t0 = time.perf_counter()
    p = 3
    sampler = SamplerConfig(p_x=p, p_y=p, c_sm=2.0, a_sigma=10.0)
    mins, maxs = [], []
    for i in range(500):
        s = sample_sigma(sampler, sample_rng(900, i))
        mins.append(s.min())
        maxs.append(s.max())
    checks = [
        (f"min over nodes exactly 0 (worst {max(mins):.1e})",
         max(mins) == 0.0),
        (f"max {max(maxs):.3f} <= A_sigma", max(maxs) <= 10.0),
    ]
    tinv = modal_nodal_transform(p).inverse
    high = np.add.outer(np.arange(p + 1), np.arange(p + 1)) > p / 2
    fracs = []
    for c_sm in (0.0, 2.0, 4.0):
        cfg = SamplerConfig(p_x=p, p_y=p, c_sm=c_sm, a_sigma=10.0)
        vals = []
        for i in range(500):
            modal = tinv @ sample_sigma(cfg, sample_rng(901, i)) @ tinv.T
            e = modal ** 2
            vals.append(e[high].sum() / e.sum())
        fracs.append(np.mean(vals))
    checks.append((f"high-mode fraction decreasing: {fracs[0]:.3f} > "
                   f"{fracs[1]:.3f} > {fracs[2]:.3f}",
                   fracs[0] > fracs[1] > fracs[2]))
    _gate(9, "coefficient sampler contract", t0, checks, 300)


def test_criterion_10_determinism(tmp_path):
    # fixed seeds give bitwise-identical datasets, trained models, and
    # solution fields.
    t0 = time.perf_counter()
    sampler = SamplerConfig(p_x=2, p_y=2, c_sm=2.0, a_sigma=10.0)
    disc = DiscretizationConfig(p=2, n_a=8, omega=1.0, g_asym=0.8)
    ds1 = generate_dataset(sampler, disc, 12, seed=5)
    ds2 = generate_dataset(sampler, disc, 12, seed=5)
    checks = [
        ("dataset arrays bitwise identical",
         ds1.inputs.tobytes() == ds2.inputs.tobytes()
         and ds1.labels.tobytes() == ds2.labels.tobytes()),
        ("dataset fingerprints identical",
         dataset_fingerprint(ds1.inputs, ds1.labels)
         == dataset_fingerprint(ds2.inputs, ds2.labels)),
    ]
    models = []
    for run in range(2):
        m = init_mlp(2, 2, 8, n_layers=2, seed=11)
        train(m, ds1, schedule=((3, 1e-3),), batch_size=4, seed=13)
        path = tmp_path / f"m{run}.bin"
        save_model(m, path)
        models.append(path.read_bytes())
    checks.append(("trained model files bitwise identical",
                   models[0] == models[1]))
    cfg = default_config("idealized-1", p=2, n_a=8, beam_index=7,
                         cloud=CloudParams(width=0.4))
    _, fld1 = bench.run_case(cfg, "hdg", level=0)
    _, fld2 = bench.run_case(cfg, "hdg", level=0)
    checks.append(("solution fields bitwise identical",
                   fld1.values.tobytes() == fld2.values.tobytes()))
    _gate(10, "seeded determinism", t0, checks, 600)
