"""The three workloads: their inputs, the operations of one round, and their checks.

Every workload runs the same six operations, in rounds, through the public
entry points a user's script calls:

* ``labels``   -- ``datagen.generate_dataset`` (one operation per label);
* ``train``    -- ``surrogate.train`` on a fresh ``init_mlp`` model (one per epoch);
* ``dg``, ``hdg``, ``hdgel`` -- ``bench.run_case`` with its defaults (one per solve);
* ``el_local`` -- ``bench.surrogate_local_ops`` over every element (one per call).

The workloads differ in discretization, case and sizes, so each loads a
different layer (see README.md). Inputs depend only on the seed.
"""

import contextlib
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import checks
from probe import Capture, Probe, Tracer
from rthdg import bench, datagen, surrogate
from rthdg.cases import CloudParams, default_config
from rthdg.errors import SolverFailure
from rthdg.hybrid import boundary_fluxes
from rthdg.local import SigmaField, solve_element

#: bound on dg's unpreconditioned residual ||Au - b|| / ||b||
DG_RESIDUAL_BOUND = 1e-4
#: output-layer weight scale of the anchored (untrained) surrogate
ANCHOR_WEIGHT_SCALE = 1e-4
MB = 2.0 ** 20


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    n_a: int
    beam_index: int
    amplitude: float
    width: float
    level: int
    #: the operations of one round, in the order they run; the short ones are
    #: spread around the long ones so that their samples span the round, as
    #: the host's speed drifts over seconds. At desk scale dg's Krylov basis
    #: sets the peak RSS, so dg comes before the other solves: after them the
    #: peak moved between runs with how they had left the heap (169-184 MB).
    ops: tuple
    n_labels: int
    a_sigma: float
    schedule: tuple
    #: learn trains the model its hdg-el solves use, from fixed seeds
    trains_el_model: bool = False
    #: check bounds
    dg_hdg_bound: float = 1e-3
    hdgel_bound: float = 0.25
    ref_tol: float | None = None
    ref_bound: float | None = None
    train_gain: float | None = None


WORKLOADS = {wl.name: wl for wl in (
    Workload(name="paper", p=6, n_a=28, beam_index=23, amplitude=10.0, width=0.12,
             level=1, ops=("el_local", "dg", "el_local", "hdgel", "el_local", "dg",
                           "el_local", "hdgel", "el_local", "hdg", "el_local", "hdgel",
                           "el_local", "dg", "el_local", "hdgel", "el_local", "labels",
                           "el_local", "train"),
             n_labels=5, a_sigma=10.0, schedule=((2, 1e-3),), dg_hdg_bound=1e-3,
             hdgel_bound=0.3),
    Workload(name="thick", p=3, n_a=8, beam_index=7, amplitude=1000.0, width=0.12,
             level=4, ops=("dg", "el_local", "hdg", "el_local", "hdgel", "el_local",
                           "hdg", "el_local", "hdgel", "el_local", "hdg", "el_local",
                           "hdgel", "el_local", "hdg", "el_local", "hdgel", "el_local",
                           "hdg", "el_local", "hdgel", "labels", "train"),
             n_labels=200, a_sigma=100.0, schedule=((25, 1e-3),), dg_hdg_bound=1e-2,
             hdgel_bound=0.6, ref_tol=1e-10, ref_bound=5e-3),
    Workload(name="learn", p=3, n_a=8, beam_index=7, amplitude=10.0, width=0.5,
             level=4, ops=("labels", "train", "dg", "el_local", "dg", "el_local",
                           "hdg", "el_local", "hdgel", "el_local", "hdg", "el_local",
                           "hdgel", "el_local"),
             n_labels=500, a_sigma=10.0, schedule=((190, 1e-3), (60, 1e-4)),
             trains_el_model=True,
             dg_hdg_bound=1e-3, hdgel_bound=0.25, train_gain=20.0),
)}


def case_config(wl):
    """Idealized-1 at the workload's discretization and cloud amplitude and width.

    The case does not depend on the seed: in the thick regime a 0.002 shift
    of the cloud centres moves DG between 447 and 619 GMRES iterations.
    """
    cloud = CloudParams(amplitude=wl.amplitude, width=wl.width)
    return default_config("idealized-1", p=wl.p, n_a=wl.n_a, beam_index=wl.beam_index,
                          cloud=cloud)


def surrogate_inputs(problem):
    """Rescaled nodal inputs h * sigma_s / 2 of every element, (n_elems, (p+1)^2)."""
    return 0.5 * problem.mesh.hx * np.stack([s.sigma_s.reshape(-1) for s in problem.sigma_fields])


def anchored_model(problem, seed):
    """A seeded model of the problem's dimensions that hdg-el can converge with.

    An untrained network predicts operators that are not contractive, and
    the skeleton GMRES then grinds. This one keeps the seeded hidden layers,
    scales the output weights down and sets the output bias to the exact
    operators of a homogeneous element at the case's mean rescaled
    coefficient: a constant-operator surrogate with the full forward cost.
    """
    cfg, grid = problem.cfg, problem.grid
    model = surrogate.init_mlp(cfg.p, cfg.p, grid.n_elems, seed=seed)
    mean = float(surrogate_inputs(problem).mean())
    sigma = SigmaField.from_scattering(np.full((cfg.p + 1, cfg.p + 1), mean), cfg.omega)
    ops = solve_element(sigma, grid, problem.kernel, h=2.0)
    model.weights[-1] *= ANCHOR_WEIGHT_SCALE
    model.biases[-1] = surrogate.flatten_operators(ops)
    return model


def median(values):
    return float(statistics.median(values))


@dataclass
class RoundLog:
    traced: bool
    times: dict = field(default_factory=lambda: defaultdict(list))
    iters: dict = field(default_factory=lambda: defaultdict(list))
    spans: list | None = None


class Session:
    """One workload in one process: set-up, measured rounds, checks, metrics."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.seed = seed
        self.label_seed = 0 if wl.trains_el_model else seed
        self.train_seed = 0 if wl.trains_el_model else seed
        self.setup_times = []
        self.el_model = None
        self.checker = checks.Checker()
        self.rounds = []
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = None
        self.fields = {}
        self.hdgel_err = None
        self.train_steps = None
        self.last_el_model = None

    def setup(self):
        """Set the workload up, timed; it runs before every operation."""
        t0 = time.perf_counter()
        wl = self.wl
        self.cfg = case_config(wl)
        self.problem = bench.build_problem(self.cfg, wl.level)
        self.sampler = datagen.SamplerConfig(p_x=wl.p, p_y=wl.p, a_sigma=wl.a_sigma)
        self.disc = datagen.DiscretizationConfig(p=wl.p, n_a=wl.n_a)
        self.setup_times.append(time.perf_counter() - t0)

    # -- operations ------------------------------------------------------

    def _call(self, kind, state):
        """(timed callable, number of operations) for one operation of a round."""
        wl, cfg = self.wl, self.cfg
        if kind == "labels":
            return (lambda: datagen.generate_dataset(
                self.sampler, self.disc, wl.n_labels, seed=self.label_seed)), wl.n_labels
        if kind == "train":
            model = surrogate.init_mlp(wl.p, wl.p, wl.n_a, seed=self.train_seed)
            if state["check"] and wl.train_gain is not None:
                state["untrained_weights"] = ([w.copy() for w in model.weights],
                                              [b.copy() for b in model.biases])
            n_epochs = sum(n for n, _ in wl.schedule)
            return (lambda: (model, surrogate.train(
                model, state["labels"], schedule=wl.schedule, seed=self.train_seed))), n_epochs
        if kind in ("dg", "hdg"):
            return (lambda: bench.run_case(cfg, kind, level=wl.level)), 1
        if kind == "hdgel":
            return (lambda: bench.run_case(cfg, "hdg-el", level=wl.level,
                                           model=state["el_model"])), 1
        if kind == "el_local":
            return (lambda: bench.surrogate_local_ops(self.problem, state["el_model"])), 1
        raise ValueError(kind)

    def run_round(self, traced, check):
        """One round of the workload's operations, each after a timed set-up.

        check=True captures the outputs and checks the first of each kind.
        """
        wl = self.wl
        if self.el_model is None and not wl.trains_el_model:
            # built once, outside the timed set-ups: the problem is the same every time
            self.setup()
            self.el_model = anchored_model(self.problem, self.seed)
        log = RoundLog(traced=traced)
        state = {"check": check, "el_model": self.el_model}
        capture = Capture() if check else None
        tracer = Tracer() if traced else None
        hook = tracer if traced else capture
        checked = set()
        for kind in wl.ops:
            self.setup()
            fn, n_ops = self._call(kind, state)
            self.attempted += n_ops
            with Probe(hook) if hook is not None else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    out = tracer.root("op." + kind, fn) if traced else fn()
                except SolverFailure:
                    self.failed += n_ops
                    continue
                log.times[kind].append(time.perf_counter() - t0)
            if kind in ("dg", "hdg", "hdgel"):
                log.iters[kind].append(out[0].gmres_iters)
            if kind == "labels":
                state["labels"] = out
            elif kind == "train":
                self.train_steps = out[1].step
                if wl.trains_el_model:
                    state["el_model"] = out[0]
            if check and kind not in checked:
                checked.add(kind)
                getattr(self, "_check_" + kind)(out, capture, state)
            if check and kind == "hdgel":
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if capture is not None:
                capture.clear()
        if check:
            self._check_across()
        if traced:
            log.spans = tracer.spans
        self.last_el_model = state["el_model"]
        self.rounds.append(log)

    # -- checks ------------------------------------------------------------

    def _check_labels(self, ds, cap, state):
        wl = self.wl
        n_tr = surrogate.trace_count(wl.p, wl.p, wl.n_a)
        a_i2o = ds.labels[:, :n_tr * n_tr].reshape(-1, n_tr, n_tr)
        self.checker.run("labels conserve flux", checks.flux_conservation,
                         a_i2o, self.problem.index.tracemap)
        self.checker.run("sampled fields: min 0, max <= A_sigma",
                         checks.sampled_fields, ds.inputs, wl.a_sigma)

    def _check_train(self, out, cap, state):
        model, tstate = out
        ds = state["labels"]
        self.checker.run("training losses finite", checks.finite_losses,
                         [h["train_mae"] for h in tstate.history])
        if self.wl.train_gain is None:
            return
        x, y = ds.inputs[ds.test_idx], ds.labels[ds.test_idx]
        w0, b0 = state["untrained_weights"]
        before = float(np.mean(np.abs(checks.mlp_outputs(w0, b0, x) - y)))
        after = float(np.mean(np.abs(checks.mlp_outputs(model.weights, model.biases, x) - y)))
        self.checker.run(f"training lowers test MAE by >= {self.wl.train_gain}x",
                         checks.training_gain, before, after, self.wl.train_gain)

    def _check_dg(self, out, cap, state):
        _, fld = out
        system = cap["dg.assemble_dg"]
        u, _ = cap["dg.solve_dg"]
        self.checker.run("dg unpreconditioned residual", checks.dg_residual,
                         system.matrix, u, system.b, DG_RESIDUAL_BOUND)
        self.fields["dg"] = fld.values

    def _check_hdg(self, out, cap, state):
        _, fld = out
        problem = cap["setup.build_problem"]
        ops = cap["bench.exact_local_ops"]
        uhat, info = cap["hybrid.solve_hybrid"]
        self.checker.run("every element's A_i2o conserves flux", checks.flux_conservation,
                         [o.a_i2o for o in ops], problem.index.tracemap)
        self.checker.run("hdg boundary fluxes balance", checks.boundary_balance,
                         boundary_fluxes(uhat, problem.index))
        self.checker.run("hdg GMRES converged", checks.gmres_converged,
                         info.residuals, self.cfg.tol)
        self.fields["hdg"] = fld.values

    def _check_el_local(self, ops, cap, state):
        model = state["el_model"]
        self.checker.run("surrogate operators equal an independent forward pass",
                         checks.surrogate_ops, model.weights, model.biases,
                         surrogate_inputs(self.problem),
                         [o.a_i2o for o in ops], [o.a_i2m for o in ops])

    def _check_hdgel(self, out, cap, state):
        _, fld = out
        _, info = cap["hybrid.solve_hybrid"]
        self.checker.run("hdg-el GMRES converged", checks.gmres_converged,
                         info.residuals, self.cfg.tol)
        self.fields["hdgel"] = fld.values

    def _check_across(self):
        """Checks that compare the first outputs of different operations."""
        f = self.fields
        self.checker.run("dg and hdg agree", checks.fields_agree,
                         f["dg"], f["hdg"], self.wl.dg_hdg_bound)
        self.checker.run("hdg-el close to hdg", checks.fields_agree,
                         f["hdgel"], f["hdg"], self.wl.hdgel_bound)
        self.hdgel_err = checks.rel_l2(f["hdgel"], f["hdg"])

    def final_checks(self):
        """Checks against a tight-tolerance solve, after the measured window."""
        wl = self.wl
        if wl.ref_tol is None:
            return
        _, ref = bench.run_case(self.cfg, "hdg", level=wl.level, tol=wl.ref_tol)
        for kind in ("dg", "hdg"):
            self.checker.run(f"{kind} near the hdg solve at tol {wl.ref_tol:g}",
                             checks.fields_agree, self.fields[kind], ref.values, wl.ref_bound)

    # -- metrics -------------------------------------------------------------

    def end_to_end(self):
        untraced = [r for r in self.rounds if not r.traced]
        times = defaultdict(list)
        for r in untraced:
            for kind, v in r.times.items():
                times[kind].extend(v)
        return {
            "setup_s": (median(self.setup_times), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "dg_s": (median(times["dg"]), "s"),
            "hdg_s": (median(times["hdg"]), "s"),
            "el_local_s": (median(times["el_local"]), "s"),
            "hdgel_s": (median(times["hdgel"]), "s"),
            "labels_per_s": (self.wl.n_labels / median(times["labels"]), "1/s"),
            "train_steps_per_s": (self.train_steps / median(times["train"]), "1/s"),
            "hdgel_err_rel_l2": (self.hdgel_err, "1"),
        }

