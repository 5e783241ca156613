"""Per-layer metrics from the spans of traced rounds.

Each traced round is a list of spans; a span whose parent is None is one of
the benchmark's operations (``op.<kind>``) and everything below it is a call
into the program. A layer is the part of a span name before the first dot.
A span's self time is its duration minus the durations of its children.
The tracing overhead is the spans of a round times the cost of one span,
measured in the same run.
"""

from collections import defaultdict

from workloads import MB, median

LAYERS = ("op", "bench", "setup", "local", "hybrid", "dg", "surrogate", "datagen")


def _op_instances(spans):
    """Per operation span: kind, and per program call name the summed duration, calls and counts."""
    root = {}
    ops = {}
    for s in spans:
        rid = s["id"] if s["parent"] is None else root[s["parent"]]
        root[s["id"]] = rid
        if s["parent"] is None:
            ops[rid] = {"kind": s["name"].split(".", 1)[1], "sum": defaultdict(float),
                        "n": defaultdict(int), "counts": {}}
            continue
        op = ops[rid]
        op["sum"][s["name"]] += s["end"] - s["start"]
        op["n"][s["name"]] += 1
        if "counts" in s:
            op["counts"][s["name"]] = s["counts"]
    return list(ops.values())


def _self_times(spans):
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - child[s["id"]]
    return out


def layer_metrics(traced_rounds, span_cost_s, el_model):
    """traced_rounds: list of span lists; span_cost_s: what one span adds to a call."""
    ops = [op for spans in traced_rounds for op in _op_instances(spans)]
    by_kind = defaultdict(list)
    for op in ops:
        by_kind[op["kind"]].append(op)

    def med(kind, fn):
        return median([fn(op) for op in by_kind[kind]])

    def total(name):
        return lambda op: op["sum"][name]

    def count(name, key):
        return lambda op: op["counts"][name][key]

    def per_call_ms(name):
        return lambda op: 1e3 * op["sum"][name] / max(op["n"][name], 1)

    build = [s["end"] - s["start"] for spans in traced_rounds for s in spans
             if s["name"] == "setup.build_problem"]
    m = {
        "setup.build_problem_s": (median(build), "s"),
        "local.assemble_s": (med("hdg", total("local.assemble_local")), "s"),
        "local.factor_solve_s": (med("hdg", total("local.local_solve")), "s"),
        "local.extract_s": (med("hdg", total("local.extract_operators")), "s"),
        "local.elements": (med("hdg", lambda op: op["n"]["local.solve_element"]), "count"),
        "local.retained_mb": (med("hdg", count("bench.exact_local_ops", "retained_bytes")) / MB,
                              "MB"),
        "hybrid.assemble_s": (med("hdg", total("hybrid.assemble_hybrid")), "s"),
        "hybrid.project_s": (med("hdg", total("hybrid.project_boundary")), "s"),
        "hybrid.gmres_s": (med("hdg", total("hybrid.solve_hybrid")), "s"),
        "hybrid.gmres_iters": (med("hdg", count("hybrid.solve_hybrid", "iters")), "count"),
        "hybrid.matvec_ms": (med("hdg", per_call_ms("hybrid.linear_action")), "ms"),
        "hybrid.free_dofs": (med("hdg", count("hybrid.assemble_hybrid", "free_dofs")), "count"),
        "hybrid.recover_s": (med("hdg", total("hybrid.recover_mean_intensity")), "s"),
        "hybrid.el_gmres_s": (med("hdgel", total("hybrid.solve_hybrid")), "s"),
        "hybrid.el_gmres_iters": (med("hdgel", count("hybrid.solve_hybrid", "iters")), "count"),
        "dg.assemble_s": (med("dg", total("dg.assemble_dg")), "s"),
        "dg.splu_s": (med("dg", total("dg.preconditioner")), "s"),
        "dg.gmres_s": (med("dg", lambda op: op["sum"]["dg.solve_dg"]
                           - op["sum"]["dg.preconditioner"]), "s"),
        "dg.gmres_iters": (med("dg", count("dg.solve_dg", "iters")), "count"),
        "dg.recover_s": (med("dg", total("dg.dg_mean_intensity")), "s"),
        "dg.matrix_nnz": (med("dg", count("dg.assemble_dg", "nnz")), "count"),
        "dg.lu_nnz": (med("dg", count("dg.preconditioner", "lu_nnz")), "count"),
        "surrogate.forward_s": (med("el_local", total("surrogate.forward")), "s"),
        "surrogate.unflatten_s": (med("el_local", total("surrogate.unflatten_operators")), "s"),
        "surrogate.params": (sum(w.size + b.size for w, b in zip(el_model.weights,
                                                                  el_model.biases)), "count"),
        "surrogate.weights_mb": (sum(w.nbytes + b.nbytes for w, b in zip(el_model.weights,
                                                                          el_model.biases)) / MB,
                                 "MB"),
        "surrogate.grad_ms": (med("train", per_call_ms("surrogate.mae_gradients")), "ms"),
        "surrogate.update_ms": (med("train", lambda op: 1e3 * (
            op["sum"]["surrogate.train"] - op["sum"]["surrogate.mae_gradients"]
            - op["sum"]["surrogate.mae_loss"]) / op["n"]["surrogate.mae_gradients"]), "ms"),
        "surrogate.eval_ms": (med("train", per_call_ms("surrogate.mae_loss")), "ms"),
        "datagen.sample_ms": (med("labels", per_call_ms("datagen.sample_sigma")), "ms"),
        "datagen.solve_ms": (med("labels", per_call_ms("local.solve_element")), "ms"),
        "datagen.resamples": (med("labels", count("datagen.generate_dataset", "resamples")),
                              "count"),
    }
    selfs = [_self_times(spans) for spans in traced_rounds]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (median([s[layer] for s in selfs]), "s")
    accounted = [1.0 - s["op"] / sum(s.values()) for s in selfs]
    m["trace.accounted"] = (median(accounted), "1")
    m["trace.spans"] = (median([len(spans) for spans in traced_rounds]), "count")
    m["trace.overhead_s"] = (m["trace.spans"][0] * span_cost_s, "s")
    return {k: (float(v), unit) for k, (v, unit) in m.items()}

