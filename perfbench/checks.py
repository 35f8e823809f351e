"""Output checks for the benchmark workloads.

Each check takes a program output plus whatever independent reference it
needs and returns a list of failure messages; an empty list means the
output passed.  The checks recompute what they compare against from the
inputs (integer lattice keys, entropies, moments, event-log replays,
file hashes) instead of trusting the program's own diagnostics.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re

import numpy as np

from boltzflow.cli import bimodal_mixture
from boltzflow.kac import empirical_moments, sample_initial
from boltzflow.kinematics import SPHERE_SURFACE, collide
from boltzflow.metric import cre_residual, single_quadruple_oracle, solve_distance
from boltzflow.network import restrict_quadruples

CRE_TOL = 1e-12  # collision rate equation residual: roundoff on unit-mass states
MOMENT_TOL = 1e-10  # drift of mass, momentum and energy along a solve
SPHERE_TOL = 1e-10  # Kac sphere defects after tens of thousands of collisions
POISSON_SIGMAS = 8.0  # proposal-count band around the Poisson clock mean


def _fail(ok: bool, message: str) -> list:
    return [] if ok else [message]


def _moments(net, f: np.ndarray) -> np.ndarray:
    """(mass, momentum, energy) of the rows of f, computed here."""
    f = np.atleast_2d(f)
    w = net.h**net.d
    speed2 = np.sum(net.nodes**2, axis=1)
    return np.column_stack([w * f.sum(axis=1), w * f @ net.nodes, w * f @ speed2])


def _entropy(net, f: np.ndarray) -> np.ndarray:
    f = np.atleast_2d(f)
    return net.h**net.d * np.sum(f * np.log(f), axis=1)


# -- geodesic ----------------------------------------------------------------


def check_cre(net, sol) -> list:
    """A W_B solution satisfies the collision rate equation at roundoff."""
    resid = cre_residual(net, sol.path, sol.flux)
    return _fail(resid <= CRE_TOL, f"CRE residual {resid:.2e} > {CRE_TOL:.0e}")


def check_symmetry(d_ab: float, d_ba: float, tol: float) -> list:
    gap = abs(d_ab - d_ba)
    return _fail(gap <= 2.0 * tol, f"|W(a,b) - W(b,a)| = {gap:.2e} > 2 tol")


def check_w1_bound(w1: float, wb: float, kernel, d: int) -> list:
    """W1 <= sqrt(2 C_B) W_B with C_B the angular bound of the kernel."""
    bound = math.sqrt(2.0 * kernel.angular_bound(d)) * wb
    return _fail(w1 <= bound, f"W1 {w1:.6g} exceeds sqrt(2 C_B) W_B = {bound:.6g}")


def oracle_pair(net, q: int):
    """One-quadruple network and endpoints joined by that single reaction."""
    sub = restrict_quadruples(net, [q])
    i, j, k, l = sub.quad[0]
    g0 = np.full(net.n_nodes, 0.1)
    s = np.zeros(net.n_nodes)
    s[[i, j]] += 1.0
    s[[k, l]] -= 1.0
    return sub, g0, g0 - 0.02 / sub.node_weight * s


def check_oracle(sub, g0, g1, value: float) -> list:
    """W_B on a one-quadruple network against the Gauss-Legendre integral.

    256 nodes already agree with the 4096-node default to 1e-16 on this
    smooth integrand, and cost 10 ms instead of seconds in leggauss.
    """
    ref = single_quadruple_oracle(sub, g0, g1, n_points=256)
    gap = abs(value - ref)
    return _fail(gap <= 1e-4, f"one-quadruple W_B {value:.8g} vs oracle {ref:.8g}")


def oracle_value(sub, g0, g1) -> float:
    return solve_distance(sub, g0, g1, K=16).value


def check_jko(net, f_prev: np.ndarray, step, tau: float) -> list:
    """The proximal objective beats the constant competitor; moments hold."""
    H_prev = float(_entropy(net, f_prev)[0])
    obj = float(_entropy(net, step.state)[0]) + step.squared_distance / (2.0 * tau)
    drift = float(np.max(np.abs(_moments(net, step.state) - _moments(net, f_prev))))
    return _fail(obj <= H_prev, f"JKO objective {obj:.12g} > H(f_prev) {H_prev:.12g}") + _fail(
        drift <= MOMENT_TOL, f"JKO step moved the moments by {drift:.2e}"
    )


def jko_defect(net, f_prev: np.ndarray, state: np.ndarray, tau: float, Q: np.ndarray) -> float:
    """L1 norm of (g - f) / tau - Q(f): the JKO step's consistency error."""
    return float(net.h**net.d * np.sum(np.abs((state - f_prev) / tau - Q)))


def check_halving(defect_tau: float, defect_half: float) -> list:
    """A first-order step: halving tau roughly halves the defect."""
    ratio = defect_tau / defect_half if defect_half > 0 else math.inf
    return _fail(1.8 <= ratio <= 2.2, f"defect ratio {ratio:.3f} per halving not in [1.8, 2.2]")


def check_collision_operator(net, Q: np.ndarray) -> list:
    """Q(f) carries no mass, momentum or energy."""
    worst = float(np.max(np.abs(_moments(net, Q))))
    scale = float(net.h**net.d * np.sum(np.abs(Q)))
    return _fail(worst <= 1e-12 * max(scale, 1.0), f"Q(f) moments {worst:.2e}")


# -- relax-3d ----------------------------------------------------------------


def check_network(net) -> list:
    """Quadruples conserve momentum and energy exactly, and none is missing.

    The count is Sum C(m, 2) over the multiplicities m of the integer
    pair keys (z_i + z_j, |z_i|^2 + |z_j|^2) with i <= j, counted here
    with np.unique instead of the builder's dictionary join.
    """
    z = net.lattice.astype(np.int64)
    sq = np.sum(z * z, axis=1)
    i, j, k, l = net.quad.T
    mom = np.all(z[i] + z[j] == z[k] + z[l])
    ene = np.all(sq[i] + sq[j] == sq[k] + sq[l])
    canon = np.all((i <= j) & (k <= l)) and len(np.unique(net.quad, axis=0)) == len(net.quad)
    a, b = np.triu_indices(len(z))
    keys = np.column_stack([z[a] + z[b], sq[a] + sq[b]])
    _, mult = np.unique(keys, axis=0, return_counts=True)
    expected = int(np.sum(mult * (mult - 1) // 2))
    return (
        _fail(bool(mom and ene), "a quadruple breaks integer momentum or energy")
        + _fail(bool(canon), "quadruples are not canonical and distinct")
        + _fail(
            net.n_quadruples == expected,
            f"{net.n_quadruples} quadruples, expected {expected} from pair keys",
        )
    )


def check_relaxation(net, traj, f_eq: np.ndarray, l1_tol: float) -> list:
    """Entropy never rises, moments hold, and the end state is the Maxwellian."""
    H = _entropy(net, traj.states)
    rises = np.diff(H) > 1e-12 * np.abs(H[:-1])
    mom = _moments(net, traj.states)
    drift = float(np.max(np.abs(mom - mom[0])))
    l1 = float(net.h**net.d * np.sum(np.abs(traj.states[-1] - f_eq)))
    return (
        _fail(not rises.any(), f"entropy rises across {int(rises.sum())} steps")
        + _fail(drift <= MOMENT_TOL, f"moments drift by {drift:.2e}")
        + _fail(l1 <= l1_tol, f"final L1 distance to the Maxwellian {l1:.2e} > {l1_tol:.0e}")
    )


# -- Kac ---------------------------------------------------------------------


def check_sphere(state) -> list:
    mom, ene = state.sphere_defects()
    return _fail(
        mom <= SPHERE_TOL and ene <= SPHERE_TOL,
        f"off the Kac sphere: momentum {mom:.2e}, energy {ene:.2e}",
    )


def check_poisson_clock(n_events: int, times: np.ndarray, N: int, d: int, kernel, T: float) -> list:
    """Proposal count near rate * T, times strictly increasing inside (0, T]."""
    mean = 0.5 * (N - 1) * kernel.upper * SPHERE_SURFACE[d] * T
    band = POISSON_SIGMAS * math.sqrt(mean)
    ordered = len(times) == n_events and bool(
        np.all(np.diff(times) > 0) and (n_events == 0 or (times[0] > 0 and times[-1] <= T))
    )
    return _fail(
        abs(n_events - mean) <= band, f"{n_events} proposals, Poisson clock expects {mean:.0f}"
    ) + _fail(ordered, "proposal times are not increasing inside (0, T]")


def check_all_accepted(log) -> list:
    """With a constant kernel the thinning test accepts every proposal."""
    return _fail(bool(log.accepted.all()), "a constant-kernel proposal was rejected")


def replay(velocities: np.ndarray, pairs, omegas, accepted) -> np.ndarray:
    """Apply collide to the accepted events in log order."""
    v = np.array(velocities, dtype=float)
    for e in np.flatnonzero(accepted):
        i, j = pairs[e]
        v[i], v[j] = collide(v[i], v[j], omegas[e])
    return v


def check_replay(initial: np.ndarray, log, final: np.ndarray) -> list:
    """Replaying the event log reproduces simulate's final state bit for bit."""
    v = replay(initial, log.pairs, log.omegas, log.accepted)
    same = v.shape == final.shape and bool(np.all(v.view(np.int64) == final.view(np.int64)))
    return _fail(same, "event-log replay differs from the returned final state")


def parse_events_csv(text: str):
    """(times, pairs, omegas, accepted) from an events_*.csv file."""
    rows = list(csv.reader(io.StringIO(text)))
    body = np.array(rows[1:], dtype=object).reshape(-1, len(rows[0]))
    d = len(rows[0]) - 4
    return (
        body[:, 0].astype(float),
        body[:, 1:3].astype(np.int64),
        body[:, 3 : 3 + d].astype(float),
        body[:, 3 + d].astype(np.int64) == 1,
    )


_STREAM = re.compile(r"philox\((\d+)\)\.jumped\((\d+)\)")


def check_kac_run(out_dir: str, d: int, N: int, speed: float, kernel, T: float) -> list:
    """Manifest hashes, per-replicate replays and clock of a CLI kac run."""
    errors = []
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for name, digest in manifest["files"].items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            actual = hashlib.sha256(fh.read()).hexdigest()
        errors += _fail(actual == digest, f"sha256 of {name} does not match the manifest")
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    results = summary["results"]
    errors += _fail(
        len(results) == summary["replicates"] == len(summary["derived_streams"]),
        "summary replicate count is inconsistent",
    )
    mix = bimodal_mixture(d, speed)
    for rep, (name, res) in enumerate(zip(summary["derived_streams"], results)):
        match = _STREAM.fullmatch(name)
        if match is None:
            errors.append(f"unrecognised stream name {name!r}")
            continue
        seed, jump = int(match.group(1)), int(match.group(2))
        rng = np.random.Generator(np.random.Philox(seed).jumped(jump))
        initial = sample_initial(N, mix, rng)
        with open(os.path.join(out_dir, f"events_{rep:03d}.csv"), encoding="utf-8") as fh:
            times, pairs, omegas, accepted = parse_events_csv(fh.read())
        v = replay(initial.velocities, pairs, omegas, accepted)
        final = type(initial)(v)
        fourth = empirical_moments(final)["fourth"]
        errors += _fail(
            fourth == res["fourth"],
            f"replicate {rep}: replayed E|v|^4 {fourth!r} != reported {res['fourth']!r}",
        )
        errors += _fail(
            len(times) == res["events"] and int(accepted.sum()) == res["accepted"],
            f"replicate {rep}: event counts differ from the summary",
        )
        errors += _fail(
            0 < res["accepted"] < res["events"], f"replicate {rep}: thinning rejected nothing"
        )
        errors += check_sphere(final)
        errors += check_poisson_clock(len(times), times, N, d, kernel, T)
    return errors
