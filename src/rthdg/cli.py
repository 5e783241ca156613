"""Command-line front end.

Subcommands: gen-data, train, run, sweep, reference.
Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 model/discretization mismatch.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import bench, pool
from .cases import CaseConfig, default_config, load_case_config
from .datagen import DiscretizationConfig, SamplerConfig, generate_dataset, save_dataset
from .errors import FormatError, ModelMismatch, SolverFailure
from .surrogate import load_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_MODEL = 4

WORKERS_HELP = ("threads for the element kernels (hdg's local solves, hdg-el's forward pass, "
                "the skeleton apply, DG's sweep set-up) of the whole command, and the DG "
                "reference; 'auto' (default) is the usable cores divided by the BLAS thread "
                "count that OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS sets, "
                "and 1 when none is set")


def _case_config(args) -> CaseConfig:
    cfg = load_case_config(args.config) if args.config else default_config("idealized-1")
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "tol", None) is not None:
        updates["tol"] = args.tol
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _train_config(args) -> bench.TrainConfig:
    tcfg = bench.FULL_SCALE_TRAIN if args.full_scale else bench.TrainConfig()
    updates = {}
    for key in ("p", "n_a", "n_samp", "n_layers", "seed", "a_sigma", "c_sm",
                "omega", "g_asym", "batch_size"):
        val = getattr(args, key, None)
        if val is not None:
            updates[key] = val
    if args.epochs is not None:
        lrs = [lr for _, lr in tcfg.schedule]
        updates["schedule"] = tuple((args.epochs, lr) for lr in lrs)
    return dataclasses.replace(tcfg, **updates)


def cmd_gen_data(args) -> int:
    tcfg = _train_config(args)
    sampler = SamplerConfig(p_x=tcfg.p, p_y=tcfg.p, c_sm=tcfg.c_sm, a_sigma=tcfg.a_sigma)
    disc = DiscretizationConfig(p=tcfg.p, n_a=tcfg.n_a, omega=tcfg.omega, g_asym=tcfg.g_asym)
    ds = generate_dataset(sampler, disc, tcfg.n_samp, seed=tcfg.seed)
    save_dataset(ds, args.out)
    print(f"wrote {ds.inputs.shape[0]} samples ({ds.train_idx.size} train / "
          f"{ds.test_idx.size} test) to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    tcfg = _train_config(args)
    dataset = None
    if args.dataset:
        from .datagen import load_dataset
        dataset = load_dataset(args.dataset,
                               expect=DiscretizationConfig(
                                   p=tcfg.p, n_a=tcfg.n_a, omega=tcfg.omega, g_asym=tcfg.g_asym))
    model_path, csv_path, state = bench.train_pipeline(
        tcfg, args.out, dataset=dataset, log_every=args.log_every)
    last = state.history[-1]
    print(f"model: {model_path}\ncurve: {csv_path}")
    print(f"final train MAE {last['train_mae']:.3e}, test MAE {last['test_mae']:.3e}")
    step_ms = 1e3 * sum(h["seconds"] for h in state.history) / state.step
    print(f"{state.step} Adam steps, {step_ms:.2f} ms per step (test evaluation included)")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _case_config(args)
    model = load_model(args.model) if args.model else None
    reference = None
    if args.reference:
        reference, _ = bench.load_reference(args.reference)
    elif args.ref_level is not None:
        reference, _ = bench.compute_reference(cfg, l_ref=args.ref_level)
    report, fld = bench.run_case(cfg, args.method, level=args.level, model=model,
                                 tol=args.tol, reference=reference)
    print(json.dumps({**report.row(), "hybrid_dofs": report.hybrid_dofs,
                      "t_recover": report.t_recover, "meta": report.meta}, indent=2))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        bench.save_reference(fld, report.meta, out / f"{args.method}_l{report.level}_mean.npz")
        with open(out / f"{args.method}_l{report.level}_report.json", "w") as fh:
            json.dump({**report.row(), "hybrid_dofs": report.hybrid_dofs,
                       "t_recover": report.t_recover, "meta": report.meta}, fh, indent=2)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _case_config(args)
    model = load_model(args.model) if args.model else None
    methods = args.methods.split(",")
    levels = [int(tok) for tok in args.levels.split(",")]
    reference = None
    if args.reference:
        reference, _ = bench.load_reference(args.reference)
    reports = bench.sweep(cfg, methods, levels, args.out, model=model,
                          reference=reference, l_ref=args.ref_level)
    for rep in reports:
        print(json.dumps(rep.row()))
    print(f"tables written to {args.out}")
    return EXIT_OK


def cmd_reference(args) -> int:
    cfg = _case_config(args)
    fld, meta = bench.compute_reference(cfg, l_ref=args.ref_level, tol=args.tol)
    bench.save_reference(fld, meta, args.out)
    print(f"reference ({meta['partition'][0]}x{meta['partition'][1]}, "
          f"tol {meta['tol']}) written to {args.out}")
    return EXIT_OK


def _workers_arg(text: str):
    """--workers: a positive count, or "auto" for `pool.default_workers()`."""
    if text == "auto":
        return None
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer or 'auto', got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rthdg",
                                 description="radiative-transfer DG/HDG/HDG-EL benchmark suite")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=str, default=None, help="case config JSON")
        p.add_argument("--seed", type=int, default=None)

    gen = sub.add_parser("gen-data", help="generate a labeled training dataset")
    gen.add_argument("--out", type=str, required=True)
    train = sub.add_parser("train", help="dataset -> training -> saved model")
    train.add_argument("--out", type=str, required=True, help="output directory")
    train.add_argument("--dataset", type=str, default=None, help="reuse a dataset file")
    train.add_argument("--log-every", type=int, default=0)
    for p in (gen, train):
        add_common(p)
        p.add_argument("--full-scale", action="store_true",
                       help="p=6, N_a=28, 1000 samples, 3x3000 epochs")
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--n-a", dest="n_a", type=int, default=None)
        p.add_argument("--n-samp", dest="n_samp", type=int, default=None)
        p.add_argument("--n-layers", dest="n_layers", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None,
                       help="epochs per learning-rate phase")
        p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
        p.add_argument("--a-sigma", dest="a_sigma", type=float, default=None)
        p.add_argument("--c-sm", dest="c_sm", type=float, default=None)
        p.add_argument("--omega", type=float, default=None)
        p.add_argument("--g-asym", dest="g_asym", type=float, default=None)

    run = sub.add_parser("run", help="run one method at one refinement level")
    add_common(run)
    run.add_argument("--method", choices=bench.METHODS, required=True)
    run.add_argument("--level", type=int, default=None)
    run.add_argument("--model", type=str, default=None)
    run.add_argument("--out", type=str, default=None)
    run.add_argument("--workers", type=_workers_arg, default="auto", help=WORKERS_HELP)
    run.add_argument("--tol", type=float, default=None)
    run.add_argument("--reference", type=str, default=None, help="reference field npz")
    run.add_argument("--ref-level", dest="ref_level", type=int, default=None,
                     help="compute the reference at this level")

    sw = sub.add_parser("sweep", help="refinement sweep; emits CSV tables")
    add_common(sw)
    sw.add_argument("--methods", type=str, default="dg,hdg,hdg-el")
    sw.add_argument("--levels", type=str, default="0,1,2,3,4")
    sw.add_argument("--model", type=str, default=None)
    sw.add_argument("--out", type=str, required=True)
    sw.add_argument("--workers", type=_workers_arg, default="auto", help=WORKERS_HELP)
    sw.add_argument("--tol", type=float, default=None)
    sw.add_argument("--reference", type=str, default=None)
    sw.add_argument("--ref-level", dest="ref_level", type=int, default=None)

    ref = sub.add_parser("reference", help="overrefined DG reference field")
    add_common(ref)
    ref.add_argument("--out", type=str, required=True)
    ref.add_argument("--tol", type=float, default=None)
    ref.add_argument("--ref-level", dest="ref_level", type=int, default=None)
    return ap


_DISPATCH = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "reference": cmd_reference,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    pool.fixed_workers = getattr(args, "workers", None)
    try:
        return _DISPATCH[args.command](args)
    except ModelMismatch as exc:
        print(f"model mismatch: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (FormatError, ValueError, OSError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        pool.fixed_workers = None


if __name__ == "__main__":
    sys.exit(main())
