"""Analytic verification suite.

Every check pits the library implementation against an independent oracle:
closed-form geometric series for the delay metric, exact eigenvalues for
the spectral estimators, stationary laws for the re-initialization
process, brute-force sweeps for the membership attack, and bitwise replay
for the algebraic method identities. Each check returns a
:class:`CheckResult` with a measured margin (distance to the failure
boundary; positive means pass with room to spare).

``run_suite`` executes the checks and, by default, reruns them with
identical seeds to confirm the serialized report is byte-identical.
Wall-clock timings are reported separately and never enter the canonical
report payload.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .checkpoints import Checkpoint
from .datasets import gen_blobs, split_random, split_objective
from .models import make_quadratic, logistic_spec, mlp_spec
from .metrics import rcd, mia_threshold_attack, eval_report, MiaResult
from .numcore import derive_stream, jsonable, kaiming_sample
from .spectral import estimate_spectrum
from .training import OptimizerConfig, _descend, train, retrain_oracle, forget_oracle
from .unlearning import UnlearnConfig, unlearn, irp_run, retain_bound_monitor

__all__ = ["CheckResult", "SuiteReport", "run_suite", "CHECKS", "HEAVY_CHECKS"]

_ROOT_SEED = 20240915  # fixed seed for every seeded construction below


@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float  # distance to the failure boundary; > 0 passes
    details: dict = field(default_factory=dict)
    runtime: float = 0.0  # excluded from the canonical payload


@dataclass
class SuiteReport:
    results: list  # with the reproducibility entry, when the pass was rerun

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def canonical_bytes(self) -> bytes:
        payload = [{k: v for k, v in jsonable(r).items() if k != "runtime"} for r in self.results]
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()

    def to_dict(self) -> dict:
        return {"checks": jsonable(self.results), "all_passed": self.all_passed}


# ---------------------------------------------------------------------------
# shared seeded constructions


def _random_quadratics(count: int = 50):
    """Seeded strongly-convex quadratic oracles: d in 2..32, condition
    number in [1.05, 1e3], known optimum and spectrum."""
    rng = derive_stream(_ROOT_SEED, 901)
    tasks = []
    for _ in range(count):
        d = int(rng.integers(31)) + 2
        beta = float(rng.uniform(1.0, 10.0))
        kappa = float(10.0 ** rng.uniform(np.log10(1.05), 3.0))
        lam_min = beta / kappa
        interior = np.sort(rng.uniform(lam_min, beta, size=max(d - 2, 0)))[::-1]
        spectrum = np.concatenate([[beta], interior, [lam_min]])
        theta_star = rng.normal(0.0, 1.0, d)
        theta0 = theta_star + rng.normal(0.0, 1.0, d)
        tasks.append({
            "spectrum": spectrum,
            "theta_star": theta_star,
            "theta0": theta0,
            "obj": make_quadratic(spectrum, theta_star, 0.0),
            "mu": lam_min,
            "beta": beta,
            "kappa": kappa,
        })
    return tasks


def _rcd_closed_form(spectrum, residual, eta):
    """Exact infinite-horizon delay for fixed-step GD on a quadratic:
    sum_i 0.5 * lam_i * r_i^2 / (1 - rho_i^2), rho_i = 1 - eta*lam_i."""
    rho = 1.0 - eta * np.asarray(spectrum)
    per_coord = 0.5 * np.asarray(spectrum) * residual ** 2
    return float(np.sum(per_coord / (1.0 - rho ** 2)))


# ---------------------------------------------------------------------------
# individual checks


def check_rcd_exact_quadratic() -> CheckResult:
    """Delay metric on the (4,1) quadratic with the 1/lambda_max schedule
    equals 22/7 after 200 epochs."""
    obj = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    cfg = OptimizerConfig(kind="gd_adaptive", eta=1.0, max_epochs=1)
    report = rcd(np.array([1.0, 1.0]), obj, 0.0, 200, cfg, "loss",
                 derive_stream(_ROOT_SEED, 902), attach_bound=True)
    target = 22.0 / 7.0
    err = abs(report.rcd_value - target)
    return CheckResult(
        name="rcd_exact_quadratic",
        passed=err < 1e-6,
        margin=1e-6 - err,
        details={"rcd_value": report.rcd_value, "target": target,
                 "abs_error": err, "curvature_bound": report.curvature_bound},
    )


def check_rcd_curvature_bound() -> CheckResult:
    """On 50 random quadratics the partial sums of the delay metric stay in
    [-1e-10, kappa * initial gap + 1e-8] for every horizon up to 500."""
    worst_upper = np.inf
    worst_lower = np.inf
    details = {"count": 0}
    rng = derive_stream(_ROOT_SEED, 903)
    for task in _random_quadratics():
        obj, theta0 = task["obj"], task["theta0"]
        est = estimate_spectrum(obj, theta0, rng=rng)
        cfg = OptimizerConfig(kind="gd_fixed", eta=1.0 / est.lambda_max, max_epochs=1)
        rep = rcd(theta0, obj, 0.0, 500, cfg, "loss", rng, attach_bound=False)
        partial = np.cumsum(rep.errors)
        bound = task["kappa"] * rep.errors[0]  # the loss at theta0, as phi_ref is 0
        worst_upper = min(worst_upper, float(np.min(bound + 1e-8 - partial)))
        worst_lower = min(worst_lower, float(np.min(partial + 1e-10)))
        details["count"] += 1
    margin = min(worst_upper, worst_lower)
    details.update({"worst_upper_slack": worst_upper, "worst_lower_slack": worst_lower})
    return CheckResult(name="rcd_curvature_bound", passed=margin >= 0.0,
                       margin=margin, details=details)


def check_rcd_tail_decay() -> CheckResult:
    """Fitted slope of log(RCD_inf - RCD^K) on each random quadratic is
    negative and at least as steep as ln(1 - mu/beta), within 10%."""
    rng = derive_stream(_ROOT_SEED, 904)
    worst_ratio = np.inf  # slope / ln(1 - mu/beta); needs >= 0.9
    details = {"count": 0, "skipped_flat": 0}
    for task in _random_quadratics():
        obj, theta0 = task["obj"], task["theta0"]
        eta = 1.0 / task["beta"]
        cfg = OptimizerConfig(kind="gd_fixed", eta=eta, max_epochs=1)
        rep = rcd(theta0, obj, 0.0, 500, cfg, "loss", rng, attach_bound=False)
        rcd_inf = _rcd_closed_form(task["spectrum"], theta0 - task["theta_star"], eta)
        tail = rcd_inf - np.cumsum(rep.errors)
        ks = np.arange(tail.size)
        keep = tail > max(1e-10 * rcd_inf, 1e-12)
        if keep.sum() < 3:
            details["skipped_flat"] += 1
            continue
        slope = float(np.polyfit(ks[keep], np.log(tail[keep]), 1)[0])
        guaranteed = np.log(1.0 - task["mu"] / task["beta"])
        if slope >= 0.0:
            worst_ratio = -np.inf
            break
        worst_ratio = min(worst_ratio, slope / guaranteed)
        details["count"] += 1
    margin = worst_ratio - 0.9
    details["worst_slope_ratio"] = None if not np.isfinite(worst_ratio) else worst_ratio
    return CheckResult(name="rcd_tail_decay", passed=margin >= 0.0,
                       margin=float(margin), details=details)


def check_geometric_decay_and_pl() -> CheckResult:
    """Per-step geometric loss decay and the gradient-dominance inequality
    hold along ``gd_fixed`` with step 1/beta on every random quadratic."""
    worst = np.inf
    steps_checked = 0
    for task in _random_quadratics():
        obj, mu, beta = task["obj"], task["mu"], task["beta"]
        rate = 1.0 - mu / beta
        cfg = OptimizerConfig(kind="gd_fixed", eta=1.0 / beta, max_epochs=1)
        walk = _descend(obj, task["theta0"], cfg, None)  # gd_fixed on a full batch draws nothing
        point, _, _ = next(walk)
        for _ in range(200):
            gap, grad = point.loss, point.gradient()
            pl_slack = float(np.dot(grad, grad) - 2.0 * mu * gap)
            point, _, _ = next(walk)
            decay_slack = float(rate * gap - point.loss)
            worst = min(worst, pl_slack, decay_slack)
            steps_checked += 1
            if gap < 1e-280:
                break
    margin = worst + 1e-10
    return CheckResult(name="geometric_decay_and_pl", passed=margin >= 0.0,
                       margin=margin,
                       details={"worst_slack": worst, "steps_checked": steps_checked})


def check_spectral_accuracy() -> CheckResult:
    """Extreme-eigenvalue estimates on geometric spectra with adjacent
    ratios >= 1.001 land within relative error 1e-6; the condition number
    is exactly the ratio of the two estimates."""
    cases = [(2, 1.5), (4, 2.0), (8, 1.2), (16, 1.05), (33, 1.01), (64, 1.01), (64, 1.001)]
    rng = derive_stream(_ROOT_SEED, 905)
    worst_rel = 0.0
    ratio_exact = True
    for d, ratio in cases:
        a = float(rng.uniform(0.5, 50.0))
        spectrum = a * (1.0 / ratio) ** np.arange(d)
        obj = make_quadratic(spectrum, np.zeros(d), 0.0)
        est = estimate_spectrum(obj, rng.normal(0.0, 1.0, d), rng=rng)
        rel_max = abs(est.lambda_max - spectrum[0]) / spectrum[0]
        rel_min = abs(est.lambda_min - spectrum[-1]) / spectrum[-1]
        worst_rel = max(worst_rel, rel_max, rel_min)
        if est.kappa != est.lambda_max / est.lambda_min:
            ratio_exact = False
    margin = 1e-6 - worst_rel
    return CheckResult(name="spectral_accuracy",
                       passed=margin > 0.0 and ratio_exact,
                       margin=margin if ratio_exact else -1.0,
                       details={"worst_relative_error": worst_rel,
                                "kappa_is_exact_ratio": ratio_exact,
                                "cases": len(cases)})


def check_irp_stationary_law() -> CheckResult:
    """Tail statistics of the re-initialization process match the
    stationary law: per-coordinate variance (1-a)/(1+a)*(2/d), mean 0,
    both within 3 standard errors across the 100 independent coordinates."""
    d, steps = 100, 100_000
    details = {}
    worst = np.inf
    for alpha in (0.5, 0.9, 0.99):
        rng = derive_stream(_ROOT_SEED, 906)
        traj = irp_run(kaiming_sample(d, rng), alpha, steps, rng)
        tail = traj[steps // 2 :]
        v_theory = (1.0 - alpha) / (1.0 + alpha) * (2.0 / d)
        v_j = tail.var(axis=0, ddof=1)  # per-coordinate, coordinates independent
        m_j = tail.mean(axis=0)
        se_v = v_j.std(ddof=1) / np.sqrt(d)
        se_m = m_j.std(ddof=1) / np.sqrt(d)
        z_v = abs(v_j.mean() - v_theory) / se_v
        z_m = abs(m_j.mean()) / se_m
        details[str(alpha)] = {"variance": float(v_j.mean()), "theory": v_theory,
                               "z_variance": float(z_v), "z_mean": float(z_m)}
        worst = min(worst, 3.0 - z_v, 3.0 - z_m)
        del traj
    return CheckResult(name="irp_stationary_law", passed=worst >= 0.0,
                       margin=float(worst), details=details)


def _explicit_kappa(point) -> float:
    """Condition number at an evaluated point from the dense Hessian
    assembled column-by-column via Hessian-vector products (independent of
    the Lanczos path)."""
    d = point.theta.size
    H = np.empty((d, d))
    eye = np.eye(d)
    for i in range(d):
        H[:, i] = point.hvp(eye[i])
    w = np.linalg.eigvalsh(H)
    return float(w[-1] / w[0])


def check_condition_number_trends() -> CheckResult:
    """Mean condition number over 100 seeded logistic tasks decreases while
    training and increases again under re-initialization from the optimum
    (Spearman sign tests at 0.05)."""
    n_seeds, epochs, irp_steps = 100, 30, 30
    p, C = 5, 3
    gd = OptimizerConfig(kind="gd_fixed", eta=1.0, max_epochs=800, grad_norm_tol=1e-7)
    train_curves = np.empty((n_seeds, epochs + 1))
    irp_curves = np.empty((n_seeds, irp_steps + 1))
    for seed in range(n_seeds):
        ds = gen_blobs(100, C, p, separation=1.0, noise_sd=3.0, seed=seed)
        spec = logistic_spec(p, C)
        obj = split_objective(ds, spec, "train")
        # the kappa curve along `epochs` steps of gd, then gd on from there to the optimum
        theta0 = kaiming_sample(spec.param_count, derive_stream(seed, 907))
        for t, (point, _, _) in zip(range(epochs + 1), _descend(obj, theta0, gd, None)):
            train_curves[seed, t] = _explicit_kappa(point)
        opt = train(obj, point.theta, gd, derive_stream(seed, 909)).theta
        traj = irp_run(opt, 0.9, irp_steps, derive_stream(seed, 910))
        for t in range(irp_steps + 1):
            irp_curves[seed, t] = _explicit_kappa(obj.evaluate(traj[t]))
    from scipy.stats import spearmanr  # deferred: scipy.stats is slow to import

    mean_train = train_curves.mean(axis=0)
    mean_irp = irp_curves.mean(axis=0)
    rho_tr, p_tr = spearmanr(np.arange(mean_train.size), mean_train)
    rho_ir, p_ir = spearmanr(np.arange(mean_irp.size), mean_irp)
    ok = (rho_tr < 0.0 and p_tr < 0.05) and (rho_ir > 0.0 and p_ir < 0.05)
    return CheckResult(
        name="condition_number_trends",
        passed=bool(ok),
        margin=float(min(0.05 - p_tr, 0.05 - p_ir, -rho_tr, rho_ir)),
        details={"train_spearman": float(rho_tr), "train_p": float(p_tr),
                 "irp_spearman": float(rho_ir), "irp_p": float(p_ir),
                 "kappa_train_first_last": [float(mean_train[0]), float(mean_train[-1])],
                 "kappa_irp_first_last": [float(mean_irp[0]), float(mean_irp[-1])],
                 "seeds": n_seeds},
    )


def check_method_limit_identities() -> CheckResult:
    """Fine-tuning is the alpha=1, c=0 limit of the full update, and the
    full-mask saliency variant is random labeling, both bit-for-bit."""
    ds = split_random(gen_blobs(30, 4, 4, separation=3.0, noise_sd=1.0, seed=3), 0.25, 3)
    spec = mlp_spec([4, 8, 4])
    tcfg = OptimizerConfig(kind="adam", eta=0.01, max_epochs=30)
    obj = split_objective(ds, spec, "train")
    trace = train(obj, kaiming_sample(spec.param_count, derive_stream(3, 911)),
                  tcfg, derive_stream(3, 912))
    ckpt = Checkpoint(role="original", spec=spec, config=tcfg.to_dict(),
                      root_seed=3, theta=trace.theta)
    a = unlearn(ckpt, ds, UnlearnConfig(method="ieu", alpha=1.0, c=0.0, eta=0.05,
                                        epochs=12, seed=7))
    b = unlearn(ckpt, ds, UnlearnConfig(method="ft", eta=0.05, epochs=12, seed=7))
    ft_ok = np.array_equal(a.theta, b.theta) and all(
        ra.retain_loss == rb.retain_loss and ra.forget_loss == rb.forget_loss
        for ra, rb in zip(a.trace, b.trace))
    c = unlearn(ckpt, ds, UnlearnConfig(method="salun", salun_fraction=1.0, eta=0.05,
                                        epochs=12, seed=7))
    d = unlearn(ckpt, ds, UnlearnConfig(method="rl", eta=0.05, epochs=12, seed=7))
    rl_ok = np.array_equal(c.theta, d.theta) and all(
        rc.retain_loss == rd.retain_loss and rc.forget_loss == rd.forget_loss
        for rc, rd in zip(c.trace, d.trace))
    ok = ft_ok and rl_ok
    return CheckResult(name="method_limit_identities", passed=ok,
                       margin=0.0 if ok else -1.0,
                       details={"ft_equals_full_update_limit": ft_ok,
                                "rl_equals_full_mask_saliency": rl_ok})


def check_desk_scale_ordering() -> CheckResult:
    """Mean delay over 5 seeds orders retrain > random-label > fine-tune,
    and the noisy variant's average performance gap does not exceed random
    labeling's, on the 10-class blobs task with 30% random forgetting."""
    p, C, n_per_class, seeds = 8, 10, 200, 5
    rcds = {m: [] for m in ("retrain", "rl", "ft", "ieu")}
    gaps = {m: [] for m in ("rl", "ft", "ieu")}
    for seed in range(seeds):
        ds = split_random(gen_blobs(n_per_class, C, p, separation=3.0, noise_sd=2.0,
                                    seed=seed), 0.3, seed + 1000)
        spec = mlp_spec([p, 32, 32, C])
        tcfg = OptimizerConfig(kind="adam", eta=0.01, max_epochs=200, grad_norm_tol=1e-6)
        obj_train = split_objective(ds, spec, "train")
        trace = train(obj_train, kaiming_sample(spec.param_count, derive_stream(seed, 51)),
                      tcfg, derive_stream(seed, 52))
        original = Checkpoint(role="original", spec=spec, config=tcfg.to_dict(),
                              root_seed=seed, theta=trace.theta)
        retrain_ck = retrain_oracle(ds, spec, tcfg, seed)
        _, phi_ref = forget_oracle(ds, spec, tcfg, seed)
        obj_forget = split_objective(ds, spec, "forget")
        cfgs = {
            "ft": UnlearnConfig(method="ft", eta=0.05, epochs=50, seed=seed),
            "rl": UnlearnConfig(method="rl", eta=0.05, epochs=50, seed=seed),
            "ieu": UnlearnConfig(method="ieu", alpha=0.999, c=0.0, eta=0.05, epochs=50,
                                 seed=seed),
        }
        relearn = OptimizerConfig(kind="sgd", eta=0.05, batch_size=128, max_epochs=1)
        thetas = {"retrain": retrain_ck.theta,
                  **{m: unlearn(original, ds, cfg).theta for m, cfg in cfgs.items()}}
        for m, th in thetas.items():
            rep = rcd(th, obj_forget, phi_ref["one_minus_accuracy"], 50, relearn,
                      "one_minus_accuracy", derive_stream(seed, 53), attach_bound=False)
            rcds[m].append(rep.rcd_value)
        ref = eval_report(retrain_ck, ds)
        for m in gaps:
            ck = Checkpoint(role="unlearned", spec=spec, config=cfgs[m].to_dict(),
                            root_seed=seed, theta=thetas[m])
            gaps[m].append(eval_report(ck, ds, ref).avg_gap)
    mean_rcd = {m: float(np.mean(v)) for m, v in rcds.items()}
    mean_gap = {m: float(np.mean(v)) for m, v in gaps.items()}
    margin = min(mean_rcd["retrain"] - mean_rcd["rl"],
                 mean_rcd["rl"] - mean_rcd["ft"],
                 mean_gap["rl"] - mean_gap["ieu"])
    return CheckResult(name="desk_scale_ordering", passed=margin > 0.0,
                       margin=float(margin),
                       details={"mean_rcd": mean_rcd, "mean_avg_gap": mean_gap,
                                "seeds": seeds})


def _mia_brute_force(member, nonmember, audit) -> MiaResult:
    """Exhaustive threshold sweep with explicit counting loops."""
    pooled = sorted(list(member) + list(nonmember))
    candidates = [pooled[0] - 1.0]
    for lo, hi in zip(pooled[:-1], pooled[1:]):
        candidates.append((lo + hi) / 2.0)
    candidates.append(pooled[-1] + 1.0)
    best = None
    for tau in candidates:
        tp = sum(1 for x in member if x <= tau)
        tn = sum(1 for x in nonmember if x > tau)
        acc = 0.5 * (tp / len(member) + tn / len(nonmember))
        if best is None or acc > best[0]:
            best = (acc, tau)
    acc, tau = best
    rate = sum(1 for x in audit if x <= tau) / len(audit)
    return MiaResult(threshold=float(tau), balanced_accuracy=float(acc),
                     forget_member_rate=float(rate))


def check_mia_brute_force_equivalence() -> CheckResult:
    """The threshold attack matches an exhaustive brute-force sweep exactly
    on random and tie-heavy loss profiles up to 200 examples per split."""
    rng = derive_stream(_ROOT_SEED, 913)
    mismatches = 0
    instances = 0
    for trial in range(25):
        sizes = [int(rng.integers(199)) + 1 for _ in range(3)]
        if trial % 2 == 0:
            views = [np.abs(rng.normal(0.0, 1.0, s)) for s in sizes]
        else:  # quantized losses force heavy ties
            views = [rng.integers(5, size=s).astype(float) / 2.0 for s in sizes]
        fast = mia_threshold_attack(*views)
        slow = _mia_brute_force(*views)
        instances += 1
        if (fast.threshold != slow.threshold
                or fast.balanced_accuracy != slow.balanced_accuracy
                or fast.forget_member_rate != slow.forget_member_rate):
            mismatches += 1
    return CheckResult(name="mia_brute_force_equivalence", passed=mismatches == 0,
                       margin=float(-mismatches),
                       details={"instances": instances, "mismatches": mismatches})


def check_retain_bound_monitor() -> CheckResult:
    """The retain-loss gap during unlearning on quadratic retain objectives
    never exceeds its exponential-plus-constant bound at any logged step."""
    spectra = [np.array([4.0, 1.0]),
               np.sort(np.linspace(0.5, 10.0, 12))[::-1]]
    configs = [(1.0, 0.01), (0.999, 0.0), (0.999, 0.01), (0.99, 0.05)]
    worst = np.inf
    n = 0
    for spectrum in spectra:
        d = spectrum.size
        retain = make_quadratic(spectrum, np.zeros(d), 0.0)
        forget = make_quadratic(spectrum, np.ones(d), 0.0)
        for alpha, c in configs:
            cfg = UnlearnConfig(method="ieu", alpha=alpha, c=c,
                                eta=1.0 / float(spectrum[0]), epochs=200, seed=0)
            theta0 = kaiming_sample(d, derive_stream(_ROOT_SEED, 914)) + 0.5
            rep = retain_bound_monitor(retain, forget, theta0, cfg)
            worst = min(worst, -rep.worst_slack)
            n += 1
    return CheckResult(name="retain_bound_monitor", passed=worst >= 0.0,
                       margin=float(worst),
                       details={"configurations": n, "worst_headroom": float(worst)})


CHECKS = [
    check_rcd_exact_quadratic,
    check_rcd_curvature_bound,
    check_rcd_tail_decay,
    check_geometric_decay_and_pl,
    check_spectral_accuracy,
    check_irp_stationary_law,
    check_method_limit_identities,
    check_mia_brute_force_equivalence,
    check_retain_bound_monitor,
]

HEAVY_CHECKS = [
    check_condition_number_trends,
    check_desk_scale_ordering,
]


def _run_once(full: bool) -> list:
    checks = CHECKS + HEAVY_CHECKS if full else list(CHECKS)
    results = []
    for fn in checks:
        start = time.perf_counter()
        res = fn()
        res.runtime = time.perf_counter() - start
        results.append(res)
    return results


def run_suite(full: bool = True, reproducibility: bool = True) -> SuiteReport:
    """Run every analytic check (heavy statistical ones only when ``full``)
    and optionally rerun the whole pass to confirm byte-identical output."""
    report = SuiteReport(results=_run_once(full))
    if reproducibility:
        rerun = SuiteReport(results=_run_once(full))
        identical = report.canonical_bytes() == rerun.canonical_bytes()
        report.results.append(CheckResult(
            name="reproducibility",
            passed=identical,
            margin=0.0 if identical else -1.0,
            details={"reruns": 1, "byte_identical": identical,
                     "checks_compared": len(rerun.results)},
        ))
    return report
