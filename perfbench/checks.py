"""Correctness checks on the solvers' outputs, each with a self-test.

Every check is a pure function of program outputs that returns
``(ok, value)``; it recomputes what it needs with numpy and does not call
the code it checks. ``CORRUPT`` holds, for each check, a way to make its
input deliberately wrong; ``Checker.run`` applies the check to the real
output and to the corrupted copy and records a failure unless the first
passes and the second fails.
"""

import numpy as np
from numpy.polynomial import legendre


def lgl_weights(p):
    """Legendre-Gauss-Lobatto weights on [-1, 1] for degree p."""
    cp = np.zeros(p + 1)
    cp[p] = 1.0
    interior = legendre.legroots(legendre.legder(cp))
    nodes = np.concatenate(([-1.0], np.sort(interior), [1.0]))
    return 2.0 / (p * (p + 1) * legendre.legval(nodes, cp) ** 2)


def rel_l2(values, ref_values):
    """Relative L2 distance of two nodal fields on the same mesh of square elements.

    values have shape (n_elems, p+1, p+1); the LGL tensor quadrature is the
    one the solvers use, and the element area cancels.
    """
    w = lgl_weights(values.shape[-1] - 1)
    w2 = np.outer(w, w)
    num = np.sum(w2 * (values - ref_values) ** 2)
    den = np.sum(w2 * ref_values ** 2)
    return float(np.sqrt(num / den))


def flux_weights(tracemap):
    """(w_out, w_in): |s.n|-weighted face quadrature of outflow / inflow slots."""
    return (tracemap.outflow_flux * tracemap.outflow_wnode,
            -tracemap.inflow_flux * tracemap.inflow_wnode)


def flux_conservation(a_i2o, tracemap, tol=1e-12):
    """At albedo 1 a square element conserves flux: w_out . A_i2o = w_in.

    a_i2o is a sequence of (n_out, n_in) blocks; value is the worst column
    defect relative to max(w_in).
    """
    w_out, w_in = flux_weights(tracemap)
    defect = max(np.abs(w_out @ a - w_in).max() for a in a_i2o) / w_in.max()
    return defect <= tol, float(defect)


def boundary_balance(fluxes, tol=1e-3):
    """Pure scattering: the inflow and outflow through the domain boundary balance."""
    influx, outflux = fluxes
    rel = abs(influx - outflux) / abs(influx)
    return rel <= tol, float(rel)


def fields_agree(values, ref_values, bound):
    """Relative L2 distance of two mean-intensity fields is within bound."""
    err = rel_l2(values, ref_values)
    return err <= bound, err


def dg_residual(matrix, u, b, bound):
    """Unpreconditioned residual ||A u - b|| / ||b|| of a DG solution."""
    rel = np.linalg.norm(matrix @ u - b) / np.linalg.norm(b)
    return rel <= bound, float(rel)


def gmres_converged(residuals, tol):
    """The last relative residual a GMRES solve reported reaches its tolerance."""
    last = residuals[-1] if len(residuals) else 0.0
    return last <= tol, float(last)


def elu(z):
    return np.where(z > 0, z, np.exp(np.minimum(z, 0.0)) - 1.0)


def mlp_outputs(weights, biases, x):
    """The surrogate's forward pass: ELU hidden layers, linear output layer."""
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if i < len(weights) - 1:
            h = elu(h)
    return h


def surrogate_ops(weights, biases, x, a_i2o, a_i2m, tol=1e-12):
    """Predicted operators equal an independent forward pass, element by element.

    x is (n, N_in) rescaled inputs; a_i2o and a_i2m the sequences of
    operators the program returned. The label layout is
    [A_i2o row-major, A_i2m row-major].
    """
    rel = 0.0
    for xe, oe, me in zip(x, a_i2o, a_i2m):
        y = mlp_outputs(weights, biases, xe[None, :])[0]
        n = oe.size
        err = np.hypot(np.linalg.norm(oe.reshape(-1) - y[:n]),
                       np.linalg.norm(me.reshape(-1) - y[n:]))
        rel = max(rel, err / np.linalg.norm(y))
    return rel <= tol, float(rel)


def sampled_fields(inputs, a_sigma):
    """Every sampled coefficient field has minimum exactly 0 and maximum <= A_sigma."""
    ok = bool(np.all(inputs.min(axis=1) == 0.0)) and bool(np.all(inputs.max(axis=1) <= a_sigma))
    return ok, float(inputs.max())


def training_gain(mae_before, mae_after, factor):
    """Training lowered the test MAE by at least factor."""
    gain = mae_before / mae_after
    return bool(np.isfinite(mae_after)) and gain >= factor, float(gain)


def finite_losses(losses):
    """Every recorded training loss is finite."""
    arr = np.asarray(losses, float)
    return bool(np.all(np.isfinite(arr))), float(arr[-1])


def _bump_column(a_i2o, tracemap):
    bad = a_i2o[0].copy()
    bad[:, 0] += 1e-6 * np.abs(bad).max()
    return ([bad], tracemap)


def _push_away(values, ref_values, bound):
    # by the triangle inequality the distance is now at least 2 * bound
    return (values + 3.0 * bound * ref_values, ref_values, bound)


def _bump_op(weights, biases, x, a_i2o, a_i2m):
    bad = a_i2o[0].copy()
    bad[0, 0] += 1e-6 * np.abs(bad).max()
    return (weights, biases, x[:1], [bad], a_i2m[:1])


def _shift_min(inputs, a_sigma):
    bad = inputs.copy()
    bad[0] += 1e-3
    return (bad, a_sigma)


#: how each check's input is made wrong for its self-test
CORRUPT = {
    flux_conservation: _bump_column,
    boundary_balance: lambda fluxes: ((fluxes[0], 1.01 * fluxes[1]),),
    fields_agree: _push_away,
    dg_residual: lambda matrix, u, b, bound: (matrix, 1.01 * u, b, bound),
    gmres_converged: lambda residuals, tol: (list(residuals) + [10.0 * tol], tol),
    surrogate_ops: _bump_op,
    sampled_fields: _shift_min,
    training_gain: lambda before, after, factor: (before, before, factor),
    finite_losses: lambda losses: (list(losses) + [float("nan")],),
}


class Checker:
    """Runs checks with their self-tests and keeps a record of each."""

    def __init__(self):
        self.records = []

    def run(self, label, check, *args):
        ok, value = check(*args)
        bad_ok, bad_value = check(*CORRUPT[check](*args))
        self.records.append({"check": label, "function": check.__name__,
                             "ok": bool(ok), "value": value,
                             "self_test_failed_as_expected": not bad_ok,
                             "corrupted_value": bad_value})
        return ok

    @property
    def all_ok(self):
        return bool(self.records) and all(
            r["ok"] and r["self_test_failed_as_expected"] for r in self.records)
