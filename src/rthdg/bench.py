"""Benchmark harness: runs dg / hdg / hdg-el pipelines, timings, errors, CSVs.

Phase timings follow the solver-phase split: local-operator creation,
global solve, and solution recovery (DG has a single solve phase). Case
assembly (mesh, coefficient sampling) and model loading are not timed.
All clocks are monotonic wall time.
"""

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import dg as dg_mod
from . import pool
from .angular import build_angular_grid, scattering_kernel_matrix
from .cases import CaseConfig, build_beam_bc, sigma_nodal_fields
from .datagen import DiscretizationConfig, SamplerConfig, generate_dataset, save_dataset
from .hybrid import (ElementNodalField, assemble_hybrid, project_boundary,
                     recover_mean_intensity, relative_l2_error, solve_hybrid)
from .local import ElementOperators, reference_kernels, solve_element
from .mesh import build_mesh, refinement_schedule, skeleton_numbering
from .surrogate import (DEFAULT_SCHEDULE, DESK_SCHEDULE, MlpModel, check_training, init_mlp,
                        model_fingerprint, output_size, predict_local_ops_batch, save_model,
                        train, unflatten_operators)

METHODS = ("dg", "hdg", "hdg-el")


def config_hash(cfg: CaseConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RunReport:
    """One benchmark run: method, sizes, phase times, error, iterations."""

    method: str
    level: int
    dofs: int                 # volume DOFs (elements x (p+1)^2 x N_a), reported for every method
    hybrid_dofs: int
    t_local: float = 0.0
    t_global: float = 0.0
    t_recover: float = 0.0
    err_rel_l2: float | None = None
    gmres_iters: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def t_total(self) -> float:
        return self.t_local + self.t_global + self.t_recover

    def row(self) -> dict:
        return {"method": self.method, "level": self.level, "dofs": self.dofs,
                "err_rel_l2": "" if self.err_rel_l2 is None else self.err_rel_l2,
                "t_local": self.t_local, "t_global": self.t_global,
                "t_total": self.t_total, "gmres_iters": self.gmres_iters}


@dataclass
class Problem:
    cfg: CaseConfig
    level: int
    mesh: object
    grid: object
    kernel: object
    index: object
    sigma_fields: list
    g: object

    @property
    def volume_dofs(self) -> int:
        return self.mesh.n_elems * (self.cfg.p + 1) ** 2 * self.grid.n_elems


def schedule_tag(case: str) -> str:
    return "i3rc" if case == "i3rc" else "idealized"


def build_problem(cfg: CaseConfig, level: int | None = None) -> Problem:
    level = cfg.level if level is None else level
    nx, ny = refinement_schedule(schedule_tag(cfg.case), level)
    mesh = build_mesh(cfg.lx, cfg.ly, nx, ny)
    grid = build_angular_grid(cfg.n_a)
    kernel = scattering_kernel_matrix(grid, cfg.g_asym)
    index = skeleton_numbering(mesh, grid, cfg.p)
    sigma_fields = sigma_nodal_fields(cfg, mesh, cfg.p)
    g = build_beam_bc(cfg, grid)
    return Problem(cfg=cfg, level=level, mesh=mesh, grid=grid, kernel=kernel,
                   index=index, sigma_fields=sigma_fields, g=g)


def exact_local_ops(problem: Problem, f=None) -> ElementOperators:
    """Exact local-solver creation for every element.

    The operators are written in the training-label layout, one row per
    element of one (n_elems, output_size) array (`unflatten_operators`). The
    elements are split into contiguous blocks, each solved on a thread of
    the element worker pool (the dense kernels release the interpreter lock).
    """
    mesh, grid, kernel = problem.mesh, problem.grid, problem.kernel
    h = (mesh.hx, mesh.hy)
    p, n_a = problem.cfg.p, grid.n_elems
    ops = unflatten_operators(np.empty((mesh.n_elems, output_size(p, p, n_a))), p, p, n_a)

    def solve_block(lo, hi):
        for e in range(lo, hi):
            ops[e] = solve_element(problem.sigma_fields[e], grid, kernel, h,
                                   f=None if f is None else f[e], element_index=e)

    # work per element: the condensed solve's multiply-adds, 0.95M at desk
    # scale and 0.92G at paper scale
    work = reference_kernels(p, grid).solve_work
    pool.run_blocks(solve_block, pool.element_bounds(mesh.n_elems, work))
    return ops


def surrogate_local_ops(problem: Problem, model: MlpModel) -> ElementOperators:
    """Surrogate local-operator creation (one batched forward pass on the element worker pool)."""
    mesh = problem.mesh
    if abs(mesh.hx - mesh.hy) > 1e-12 * max(mesh.hx, mesh.hy):
        raise ValueError("the surrogate serves square elements only "
                         f"(hx={mesh.hx}, hy={mesh.hy})")
    return predict_local_ops_batch(model, problem.sigma_fields, mesh.hx, problem.grid.n_elems)


def check_methods(methods, model: MlpModel | None) -> None:
    """Raise ValueError for a method not in METHODS, or hdg-el without a model."""
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if "hdg-el" in methods and model is None:
        raise ValueError("method hdg-el needs a trained model (--model)")


def run_case(cfg: CaseConfig, method: str, level: int | None = None,
             model: MlpModel | None = None, tol: float | None = None,
             reference: ElementNodalField | None = None):
    """Run one method on one refinement level; returns (RunReport, mean field).

    The element worker pool (`pool.default_workers()` threads, meta["workers"])
    splits hdg's local solves, hdg-el's forward pass, the skeleton apply and
    recovery of both, and DG's sweep-block inversion; every count gives the same bits.
    """
    check_methods([method], model)
    problem = build_problem(cfg, level)
    tol = cfg.tol if tol is None else tol
    report = RunReport(method=method, level=problem.level,
                       dofs=problem.volume_dofs, hybrid_dofs=problem.index.n_dofs,
                       meta={"case": cfg.case, "tol": tol, "workers": pool.default_workers(),
                             "partition": [problem.mesh.nx, problem.mesh.ny],
                             "sigma_scale": cfg.sigma_scale, "seed": cfg.seed,
                             "config_hash": config_hash(cfg)})
    if reference is not None:
        report.meta["reference_partition"] = [reference.mesh.nx, reference.mesh.ny]
    if model is not None:
        # hashed once per model: `train` drops the cached value, `load_model`
        # and `save_model` set it
        if "fingerprint" not in model.meta:
            model.meta["fingerprint"] = model_fingerprint(model)
        report.meta["model_fingerprint"] = model.meta["fingerprint"]

    if method == "dg":
        t0 = time.perf_counter()
        system = dg_mod.assemble_dg(problem.mesh, problem.grid, problem.kernel,
                                    problem.sigma_fields, cfg.p, g=problem.g)
        u, info = dg_mod.solve_dg(system, tol=tol)
        report.t_global = time.perf_counter() - t0
        report.gmres_iters = info.iterations
        t0 = time.perf_counter()
        fld = dg_mod.dg_mean_intensity(u, problem.mesh, problem.grid, cfg.p)
        report.t_recover = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        if method == "hdg":
            ops = exact_local_ops(problem)
        else:
            ops = surrogate_local_ops(problem, model)
            # the surrogate does not predict the forcing response; all
            # benchmark cases run with f = 0, so none is needed
            report.meta["forcing"] = "zero"
        report.t_local = time.perf_counter() - t0
        t0 = time.perf_counter()
        system = assemble_hybrid(problem.index, ops)
        bc = project_boundary(problem.g, problem.index)
        uhat, info = solve_hybrid(system, bc, tol=tol)
        report.t_global = time.perf_counter() - t0
        report.gmres_iters = info.iterations
        t0 = time.perf_counter()
        fld = recover_mean_intensity(uhat, ops, problem.index)
        report.t_recover = time.perf_counter() - t0

    if reference is not None:
        report.err_rel_l2 = relative_l2_error(fld, reference)
    return report, fld


def compute_reference(cfg: CaseConfig, l_ref: int | None = None,
                      tol: float | None = None):
    """Overrefined DG reference mean intensity for error estimation."""
    level = cfg.ref_level if l_ref is None else l_ref
    tol = cfg.ref_tol if tol is None else tol
    report, fld = run_case(cfg, "dg", level=level, tol=tol)
    meta = {"case": cfg.case, "level": level, "tol": tol,
            "partition": report.meta["partition"],
            "gmres_iters": report.gmres_iters,
            "level_override": l_ref is not None and l_ref != cfg.ref_level}
    return fld, meta


def save_reference(fld: ElementNodalField, meta: dict, path) -> None:
    np.savez(path, values=fld.values, header=json.dumps(
        {"meta": meta, "lx": fld.mesh.lx, "ly": fld.mesh.ly,
         "nx": fld.mesh.nx, "ny": fld.mesh.ny, "p": fld.p}, sort_keys=True))


def load_reference(path):
    with np.load(path, allow_pickle=False) as npz:
        head = json.loads(str(npz["header"]))
        mesh = build_mesh(head["lx"], head["ly"], head["nx"], head["ny"])
        fld = ElementNodalField(mesh=mesh, p=head["p"], values=npz["values"])
    return fld, head["meta"]


def sweep(cfg: CaseConfig, methods, levels, out_dir, model: MlpModel | None = None,
          reference: ElementNodalField | None = None, l_ref: int | None = None):
    """Refinement sweep over methods (checked first); writes the report table and panel CSVs."""
    check_methods(methods, model)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if reference is None:
        reference, ref_meta = compute_reference(cfg, l_ref=l_ref)
        save_reference(reference, ref_meta, out_dir / "reference.npz")
    reports = []
    for method in methods:
        for level in levels:
            rep, _ = run_case(cfg, method, level=level, model=model, reference=reference)
            reports.append(rep)
    write_sweep_tables(reports, out_dir)
    return reports


def write_sweep_tables(reports, out_dir):
    """Master table plus the three metric-pair panels (CSV)."""
    out_dir = Path(out_dir)
    cols = ["method", "level", "dofs", "err_rel_l2", "t_local", "t_global",
            "t_total", "gmres_iters"]
    with open(out_dir / "sweep_table.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=cols)
        w.writeheader()
        for rep in reports:
            w.writerow(rep.row())
    panels = {
        "dofs_vs_error.csv": ("dofs", "err_rel_l2"),
        "dofs_vs_time.csv": ("dofs", "t_total"),
        "time_vs_error.csv": ("t_total", "err_rel_l2"),
    }
    for name, (cx, cy) in panels.items():
        with open(out_dir / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["method", "level", cx, cy])
            for rep in reports:
                row = rep.row()
                w.writerow([rep.method, rep.level, row[cx], row[cy]])


@dataclass(frozen=True)
class TrainConfig:
    """Training-pipeline knobs; defaults are the desk-scale protocol."""

    p: int = 3
    n_a: int = 8
    omega: float = 1.0
    g_asym: float = 0.8
    n_samp: int = 200
    a_sigma: float = 10.0
    c_sm: float = 2.0
    n_layers: int = 4
    batch_size: int = 50
    schedule: tuple = DESK_SCHEDULE
    seed: int = 0

    def label_configs(self) -> tuple[SamplerConfig, DiscretizationConfig]:
        """The sampler and the discretization of this configuration's labels."""
        return (SamplerConfig(p_x=self.p, p_y=self.p, c_sm=self.c_sm, a_sigma=self.a_sigma),
                DiscretizationConfig(p=self.p, n_a=self.n_a, omega=self.omega,
                                     g_asym=self.g_asym))


FULL_SCALE_TRAIN = TrainConfig(p=6, n_a=28, n_samp=1000, schedule=DEFAULT_SCHEDULE)


def train_pipeline(tcfg: TrainConfig, out_dir, dataset=None, log_every: int = 0):
    """Dataset generation -> training -> model save, with a training-curve CSV.

    Returns (model path, csv path, TrainState).
    """
    check_training(tcfg.schedule, tcfg.batch_size)  # before any label is computed
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if dataset is None:
        dataset = generate_dataset(*tcfg.label_configs(), tcfg.n_samp, seed=tcfg.seed)
        save_dataset(dataset, out_dir / "dataset.npz")
    model = init_mlp(tcfg.p, tcfg.p, tcfg.n_a, n_layers=tcfg.n_layers, seed=tcfg.seed)
    model.meta.update({"schedule": [list(s) for s in tcfg.schedule],
                       "dataset_fingerprint": dataset.meta.get("fingerprint"),
                       "train_config": asdict(tcfg)})
    state = train(model, dataset, schedule=tcfg.schedule,
                  batch_size=tcfg.batch_size, seed=tcfg.seed, log_every=log_every)
    model_path = out_dir / "model.bin"
    save_model(model, model_path)
    csv_path = out_dir / "training_curve.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["epoch", "lr", "train_mae", "test_mae", "seconds"])
        w.writeheader()
        for rec in state.history:
            w.writerow(rec)
    return model_path, csv_path, state
