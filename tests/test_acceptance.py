"""End-to-end acceptance checks.

Each test prints one summary line; run ``pytest -s tests/test_acceptance.py``
to see them as they complete.  The two decay experiments are module-scoped
fixtures shared by the rate and remainder checks.
"""

import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from hyprelax.chapman import (
    compute_parabolic_limit,
    high_frequency_expansion,
)
from hyprelax.harness import ExperimentConfig, FitWindow, TimeSchedule, run_experiment
from hyprelax.linalg import Contour, cauchy_integral
from hyprelax.model import HyperbolicSystem, check_condition_D
from hyprelax.perturbation import (
    PerturbationFamily,
    partition_derivative,
    symmetry_vanishing_check,
    total_projection_series,
    weighted_mean_series,
)
from hyprelax.spectral import CutoffSpec, GridSpec, InitialSpec
from hyprelax.systems import damped_euler_2d, goldstein_kac_1d, goldstein_kac_3d


BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def fitted_slope(z: np.ndarray, err: np.ndarray) -> float:
    return float(np.polyfit(np.log(z), np.log(err), 1)[0])


@pytest.fixture(scope="module")
def gaussian_line_run():
    # configs/gk_decay.json with every verified pair: the benchmark's gk_line.
    cfg = ExperimentConfig(
        system="in-memory",
        grid=GridSpec(points=8192, half_width=400.0),
        times=TimeSchedule(t_min=5.0, t_max=80.0, count=16),
        initial=InitialSpec(sigma=0.5, amplitudes=(1.0, -0.5)),
        cutoff=CutoffSpec(inner=0.23),
        fit=FitWindow(exp_t_min=15.0),
        tolerance=0.15,
        pairs=((2.0, 1), (2.0, 2), (math.inf, 1)),
    )
    start = perf_counter()
    report = run_experiment(cfg, goldstein_kac_1d())
    return report, perf_counter() - start


@pytest.fixture(scope="module")
def gaussian_plane_run():
    cfg = ExperimentConfig(
        system="in-memory",
        grid=GridSpec(points=512, half_width=100.0),
        times=TimeSchedule(t_min=4.0, t_max=40.0, count=12),
        initial=InitialSpec(sigma=1.0, amplitudes=(1.0, 0.3, -0.2)),
        cutoff=CutoffSpec(inner=0.35),
        fit=FitWindow(exp_t_min=10.0),
        profile="psi",
        tolerance=0.2,
    )
    start = perf_counter()
    report = run_experiment(cfg, damped_euler_2d())
    return report, perf_counter() - start


def test_criterion_01_plane_wave_limit_is_pure_diffusion():
    start = perf_counter()
    limit = compute_parabolic_limit(damped_euler_2d())
    elapsed = perf_counter() - start
    drift_err = float(np.max(np.abs(limit.drift)))
    diff_err = float(np.max(np.abs(limit.diffusion - np.eye(2))))
    ok = drift_err <= 1e-10 and diff_err <= 1e-10 and elapsed < 1.0
    verdict(
        1,
        ok,
        f"drift error {drift_err:.2e}, diffusion error {diff_err:.2e} "
        f"(tol 1e-10; {elapsed:.2f} s < 1 s)",
    )


def test_criterion_02_three_velocity_limit_closed_form():
    start = perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a, b, c = rng.uniform(0.2, 2.0, size=3)
        velocities = rng.normal(size=(3, 3))
        velocities -= velocities.mean(axis=0)
        limit = compute_parabolic_limit(goldstein_kac_3d(a, b, c, velocities))
        weights = (a, b, c)
        expected = sum(
            weight * np.outer(row, row) for weight, row in zip(weights, velocities)
        ) / (3.0 * (a * b + b * c + c * a))
        worst = max(worst, float(np.max(np.abs(limit.diffusion - expected))))
        worst = max(worst, float(np.max(np.abs(limit.drift))))
    elapsed = perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    verdict(
        2,
        ok,
        f"worst closed-form error {worst:.2e} over 5 draws "
        f"(tol 1e-8; {elapsed:.2f} s < 5 s)",
    )


def test_criterion_03_series_truncation_orders():
    start = perf_counter()
    z = np.geomspace(1e-3, 1e-1, 9)
    slopes = {"eig1": [], "eig2": [], "proj1": [], "proj2": []}
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 4
        basis = rng.normal(size=(n, n)) + n * np.eye(n)
        t0 = basis @ np.diag(2.0 * np.arange(n)) @ np.linalg.inv(basis)
        t1 = rng.normal(size=(n, n))
        t1 /= np.linalg.norm(t1, 2)
        family = PerturbationFamily(t0, t1)

        lam_coeff = weighted_mean_series(family, 0.0, 2)
        expansion = total_projection_series(family, 0.0)
        projections = [expansion.group.projection, *expansion.corrections]
        eye = np.eye(n, dtype=complex)
        eig_err = {1: [], 2: []}
        proj_err = {1: [], 2: []}
        for zz in z:
            matrix = family.evaluate(zz)
            values = np.linalg.eigvals(matrix)
            lam = values[np.argmin(np.abs(values))]
            contour = Contour(center=lam, radius=1.0)

            def resolvents(points, matrix=matrix):
                shifted = points[:, None, None] * eye - matrix
                return np.linalg.solve(shifted, np.broadcast_to(eye, shifted.shape))

            exact_projection = cauchy_integral(resolvents, contour)
            for order in (1, 2):
                lam_model = sum(lam_coeff[j] * zz**j for j in range(order + 1))
                eig_err[order].append(abs(lam - lam_model))
                proj_model = sum(projections[j] * zz**j for j in range(order + 1))
                proj_err[order].append(
                    np.linalg.norm(exact_projection - proj_model, 2)
                )
        slopes["eig1"].append(fitted_slope(z, np.array(eig_err[1])))
        slopes["eig2"].append(fitted_slope(z, np.array(eig_err[2])))
        slopes["proj1"].append(fitted_slope(z, np.array(proj_err[1])))
        slopes["proj2"].append(fitted_slope(z, np.array(proj_err[2])))
    elapsed = perf_counter() - start
    bounds = {"eig1": 1.7, "eig2": 2.7, "proj1": 1.7, "proj2": 2.7}
    minima = {name: min(vals) for name, vals in slopes.items()}
    ok = all(minima[name] >= bounds[name] for name in bounds) and elapsed < 30.0
    verdict(
        3,
        ok,
        "min slopes over 50 pencils: "
        f"eigenvalue {minima['eig1']:.2f}/{minima['eig2']:.2f}, "
        f"projection {minima['proj1']:.2f}/{minima['proj2']:.2f} "
        f"(bounds 1.7/2.7; {elapsed:.1f} s < 30 s)",
    )


def test_criterion_04_symmetry_kills_odd_coefficients():
    start = perf_counter()
    cases = [
        (goldstein_kac_1d(), np.array([[1.0], [-1.0]])),
        (
            damped_euler_2d(),
            np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [-0.8, 0.6]]),
        ),
    ]
    worst_odd = 0.0
    worst_slope = np.inf
    for system, directions in cases:
        limit = compute_parabolic_limit(system)
        moduli = np.geomspace(1e-3, 1e-2, 7)
        for w in directions:
            advection = sum(
                wj * aj for wj, aj in zip(w, system.advections)
            )
            family = PerturbationFamily(system.relaxation, advection)
            result = symmetry_vanishing_check(family, system.symmetry, 0.0, order=3)
            worst_odd = max(worst_odd, result.odd_residual)
            residuals = []
            for modulus in moduli:
                k = modulus * w
                values = np.linalg.eigvals(system.symbol(k))
                small = values[np.argmin(np.abs(values))]
                residuals.append(abs(small - (limit.drift_phase(k) + limit.diffusion_form(k))))
            worst_slope = min(worst_slope, fitted_slope(moduli, np.array(residuals)))
    elapsed = perf_counter() - start
    ok = worst_odd <= 1e-9 and worst_slope >= 3.7 and elapsed < 10.0
    verdict(
        4,
        ok,
        f"max odd coefficient {worst_odd:.2e} (tol 1e-9), "
        f"min quartic-residual slope {worst_slope:.2f} (bound 3.7; "
        f"{elapsed:.1f} s < 10 s)",
    )


def test_criterion_05_line_second_order_profile_rate(gaussian_line_run):
    report, run_elapsed = gaussian_line_run
    fit = report.fits["u1_minus_phi_p2_q1"]
    ok = abs(fit["slope"] - (-0.75)) <= 0.15 and run_elapsed < 60.0
    verdict(
        5,
        ok,
        f"phi exponent {fit['slope']:+.3f} vs -0.75 +- 0.15 "
        f"({run_elapsed:.1f} s < 60 s)",
    )


def test_criterion_06_line_corrected_profile_rate(gaussian_line_run):
    report, run_elapsed = gaussian_line_run
    fit = report.fits["u1_minus_psi_p2_q1"]
    ok = abs(fit["slope"] - (-1.25)) <= 0.15 and run_elapsed < 60.0
    verdict(
        6,
        ok,
        f"psi exponent {fit['slope']:+.3f} vs -1.25 +- 0.15 "
        f"({run_elapsed:.1f} s < 60 s)",
    )


def test_criterion_07_plane_corrected_profile_rate(gaussian_plane_run):
    report, run_elapsed = gaussian_plane_run
    fit = report.fits["u1_minus_psi_p2_q1"]
    ok = abs(fit["slope"] - (-1.5)) <= 0.2 and run_elapsed < 600.0
    verdict(
        7,
        ok,
        f"psi exponent {fit['slope']:+.3f} vs -1.50 +- 0.20 "
        f"({run_elapsed:.1f} s < 600 s)",
    )


def test_criterion_08_remainder_decays_exponentially(
    gaussian_line_run, gaussian_plane_run
):
    details = []
    ok = True
    for label, (report, _) in (
        ("line", gaussian_line_run),
        ("plane", gaussian_plane_run),
    ):
        remainder = report.remainder["u2_l2_q1"]
        ok = ok and remainder["r_squared"] >= 0.98 and remainder["rate"] < 0
        details.append(
            f"{label} rate {remainder['rate']:+.3f}, R^2 {remainder['r_squared']:.4f}"
        )
    verdict(8, ok, "; ".join(details) + " (need R^2 >= 0.98, rate < 0)")


@pytest.mark.parametrize(
    "fixture, reference",
    [("gaussian_line_run", "gk_line.json"), ("gaussian_plane_run", "euler_plane.json")],
)
def test_runs_match_the_benchmark_references(request, fixture, reference):
    # The demo runs reproduce every series that the benchmark checks its run
    # workloads against, the sup-norm and q = 2 series of the line included.
    report, _ = request.getfixturevalue(fixture)
    recorded = json.loads((BENCH_REFERENCE / reference).read_text())
    np.testing.assert_allclose(report.times, recorded["times"], rtol=1e-12, atol=0)
    assert sorted(report.series) == sorted(recorded["series"])
    for name in recorded["series"]:
        np.testing.assert_allclose(
            report.series[name], recorded["series"][name], rtol=1e-12, atol=0, err_msg=name
        )


def test_criterion_09_dissipation_detector():
    start = perf_counter()
    passing = [check_condition_D(goldstein_kac_1d()), check_condition_D(damped_euler_2d())]
    marginal = HyperbolicSystem(
        advections=(np.eye(2),),
        relaxation=0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
    )
    failing = check_condition_D(marginal)
    elapsed = perf_counter() - start
    thetas = [report.data["theta"] for report in passing]
    ok = all(report.passed and report.data["theta"] > 0 for report in passing)
    ok = ok and not failing.passed and failing.witness is not None
    if failing.witness is not None:
        real, imag = failing.witness["eigenvalue"]
        ok = ok and abs(real) <= 1e-8 and abs(imag) > 0
        witness_note = f"witness eigenvalue {real:.1e}{imag:+.3f}i"
    else:
        witness_note = "no witness"
    ok = ok and elapsed < 5.0
    verdict(
        9,
        ok,
        f"theta = {thetas[0]:.3f}/{thetas[1]:.3f} on the examples, "
        f"marginal system fails with {witness_note} ({elapsed:.1f} s < 5 s)",
    )


def test_criterion_10_high_frequency_eigenvalue_model():
    start = perf_counter()
    cases = [
        (goldstein_kac_1d(), np.array([1.0])),
        (damped_euler_2d(), np.array([0.6, 0.8])),
    ]
    constants = []
    for system, w in cases:
        expansion = high_frequency_expansion(system, w)
        worst = 0.0
        for modulus in np.geomspace(1e2, 1e3, 7):
            actual = np.linalg.eigvals(system.symbol(modulus * w))
            actual = actual[np.argsort(actual.imag)]
            predicted = expansion.predicted_eigenvalues(modulus)
            predicted = predicted[np.argsort(predicted.imag)]
            worst = max(worst, float(np.max(np.abs(actual - predicted))) * modulus)
        constants.append(worst)
    elapsed = perf_counter() - start
    ok = max(constants) <= 100.0 and elapsed < 10.0
    verdict(
        10,
        ok,
        f"fitted constants {constants[0]:.2f} (line) and {constants[1]:.2f} "
        f"(plane), bound 100 ({elapsed:.1f} s < 10 s)",
    )


def central_difference(func, alpha, point, h=0.01):
    axis = next((i for i, a in enumerate(alpha) if a > 0), None)
    if axis is None:
        return func(point)
    lower = list(alpha)
    lower[axis] -= 1
    lower = tuple(lower)
    step = np.zeros(len(alpha))
    step[axis] = h
    return (
        -central_difference(func, lower, point + 2 * step, h)
        + 8 * central_difference(func, lower, point + step, h)
        - 8 * central_difference(func, lower, point - step, h)
        + central_difference(func, lower, point - 2 * step, h)
    ) / (12 * h)


def test_criterion_11_mixed_derivatives_of_gaussian_weights():
    start = perf_counter()
    orders = [
        (i, j) for i in range(4) for j in range(4) if i + j <= 3
    ]
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        g = rng.normal(size=(2, 2))
        m = 0.5 * (g @ g.T + 0.3 * np.eye(2))
        linear = 0.5 * rng.normal(size=2)
        poly = {
            (2, 0): m[0, 0],
            (1, 1): 2.0 * m[0, 1],
            (0, 2): m[1, 1],
            (1, 0): linear[0],
            (0, 1): linear[1],
            (0, 0): 0.2 * rng.normal(),
        }
        point = rng.uniform(-0.7, 0.7, size=2)

        def func(p, poly=poly):
            return float(
                np.exp(sum(c * p[0] ** e[0] * p[1] ** e[1] for e, c in poly.items()))
            )

        for alpha in orders:
            exact = partition_derivative(alpha, poly, point)
            approx = central_difference(func, alpha, point)
            worst = max(worst, abs(approx - exact) / abs(exact))
    elapsed = perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 5.0
    verdict(
        11,
        ok,
        f"worst relative error {worst:.2e} over 10 weights and {len(orders)} "
        f"derivative orders (tol 1e-5; {elapsed:.1f} s < 5 s)",
    )
