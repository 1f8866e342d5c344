"""Config-driven experiment runner with CSV/JSON persistence.

Five experiment kinds cover the package's workflows:

* compile             -- multi-restart optimization of one target gate
* trotter-sweep       -- independent compile per depth m, fidelity curve
* coherent-noise-sweep-- charge/nuclear robustness curves of a compiled gate
* damping-sweep       -- re-optimization under amplitude damping per p
* grad-stats          -- per-coordinate gradient variance over random inits

Configs are INI files (configparser); unknown sections or keys are
rejected so a typo cannot silently fall back to a default.  Every run
writes into a fresh run-scoped subdirectory (never overwriting), emits
one JSON RunRecord plus per-experiment CSVs, and derives every random
stream from the single master seed, so a re-run with the same config
reproduces all emitted numbers except wall-time fields.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import build_hva
from .cost import CostEvaluator
from .errors import ConfigError
from .hamiltonian import format_parameters, heisenberg_spec
from .noise import (DEFAULT_DELTA_GRID, NOISE_KINDS, NOISE_MODES, check_delta_grid,
                    robustness_sweep)
from .optimize import (InitScheme, OptimizerConfig, RestartSummary,
                       multi_restart, nelder_mead_minimize)
from .seeding import derive_rng, derive_subseed
from .simulator import NoisyCircuitPlan, amplitude_damping
from .targets import resolve_target

SCHEMA_VERSION = 1

EXPERIMENT_KINDS = ("compile", "trotter-sweep", "coherent-noise-sweep",
                    "damping-sweep", "grad-stats")

DEFAULT_MASTER_SEED = 10
DEFAULT_DAMPING_GRID = (0.0, 0.005, 0.01, 0.015, 0.02)
# longest grid a start:stop:step spec may expand to; a larger count is a
# typo, and expanding it first could exhaust memory
MAX_GRID_POINTS = 10_000

# Four independent stream labels keep the restart draws, the noise
# realizations, the damping warm kicks, and the grad-stats inits from
# ever colliding under one master seed.
_STREAM_NOISE = 1
_STREAM_DAMPING = 2
_STREAM_GRADS = 3


@dataclass
class ExperimentConfig:
    """Validated description of one run; every field has a default."""

    kind: str = "compile"
    target: str = "toffoli"
    m: tuple[int, ...] = (6,)
    master_seed: int = DEFAULT_MASTER_SEED
    output_dir: str = "runs"
    optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(algorithm="lbfgs"))
    init: InitScheme = field(default_factory=InitScheme)
    noise_kinds: tuple[str, ...] = NOISE_KINDS
    noise_mode: str = "deterministic-shift"
    noise_samples: int = 200
    noise_grid: tuple[float, ...] = tuple(DEFAULT_DELTA_GRID.tolist())
    damping_grid: tuple[float, ...] = DEFAULT_DAMPING_GRID
    damping_placement: str = "after-each-layer"
    damping_restarts: int = 100
    warm_start: bool = True
    warm_sigma: float = 0.1
    grad_samples: int = 100

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if not self.m or any(int(v) < 1 for v in self.m):
            raise ConfigError(f"depth list must be positive integers, got {self.m!r}")
        if self.noise_mode not in NOISE_MODES:
            raise ConfigError(f"unknown noise mode {self.noise_mode!r}")
        for k in self.noise_kinds:
            if k not in NOISE_KINDS:
                raise ConfigError(f"unknown noise kind {k!r}")
        if self.noise_samples < 1 or self.grad_samples < 1 or self.damping_restarts < 1:
            raise ConfigError("sample and restart counts must be positive")
        if not 0 <= self.warm_sigma < np.inf:
            raise ConfigError(f"warm_sigma must be finite and >= 0, got {self.warm_sigma!r}")
        if not all(0 <= p <= 1 for p in self.damping_grid):
            raise ConfigError("damping grid values must lie in [0, 1]")
        try:
            check_delta_grid(self.noise_grid)
        except ValueError as exc:
            raise ConfigError(f"noise grid: {exc}") from exc
        # restart draws must follow the master seed; init.seed is not an
        # independent config surface
        if self.init.seed != self.master_seed:
            self.init = dataclasses.replace(self.init, seed=self.master_seed)

    @property
    def single_m(self) -> int:
        if len(self.m) != 1:
            raise ConfigError(f"experiment {self.kind!r} needs a single depth, got {self.m!r}")
        return self.m[0]


_SECTION_KEYS = {
    "experiment": {"kind", "target", "m", "master_seed", "output_dir"},
    "optimizer": {"algorithm", "max_iters", "cost_tolerance", "gradient_tolerance",
                  "history_size", "simplex_step", "spread_tolerance", "restarts"},
    "init": {"sigma", "mean", "clip_low", "clip_high"},
    "noise": {"kinds", "mode", "samples", "grid"},
    "damping": {"grid", "placement", "restarts", "warm_start", "warm_sigma"},
    "grad-stats": {"samples"},
}


def _parse_int_list(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    text = text.strip()
    # start:stop:step shorthand for uniform grids
    if ":" in text:
        try:
            start, stop, step = (float(p) for p in text.split(":"))
        except ValueError as exc:
            raise ConfigError(f"bad grid spec {text!r}") from exc
        if not (np.isfinite([start, stop, step]).all() and step > 0 and stop >= start):
            raise ConfigError(f"bad grid spec {text!r}")
        intervals = (stop - start) / step  # may overflow to inf
        if not intervals < MAX_GRID_POINTS:
            raise ConfigError(f"grid spec {text!r} has more than {MAX_GRID_POINTS} points")
        grid = np.round(start + step * np.arange(round(intervals) + 1), 12)
        if np.any(np.diff(grid) <= 0):
            raise ConfigError(f"grid spec {text!r}: points closer than 1e-12 merge")
        return tuple(grid.tolist())
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}") from exc
    if not np.isfinite(values).all():
        raise ConfigError(f"float list {text!r} holds NaN or infinity")
    return values


def _get(parser, section, key, cast, default):
    if not parser.has_section(section) or not parser.has_option(section, key):
        return default
    raw = parser.get(section, key).strip()
    if raw == "":
        return default
    try:
        if cast is bool:
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an INI experiment config."""
    parser = configparser.ConfigParser()
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        extra = set(parser.options(section)) - _SECTION_KEYS[section]
        if extra:
            raise ConfigError(f"unknown key(s) in [{section}]: {sorted(extra)}")

    opt_kwargs = dict(
        algorithm=_get(parser, "optimizer", "algorithm", str, "lbfgs"),
        max_iters=_get(parser, "optimizer", "max_iters", int, None),
        cost_tolerance=_get(parser, "optimizer", "cost_tolerance", float, 1e-4),
        gradient_tolerance=_get(parser, "optimizer", "gradient_tolerance", float, 1e-8),
        history_size=_get(parser, "optimizer", "history_size", int, 10),
        simplex_step=_get(parser, "optimizer", "simplex_step", float, 0.1),
        spread_tolerance=_get(parser, "optimizer", "spread_tolerance", float, 1e-8),
        restarts=_get(parser, "optimizer", "restarts", int, 10),
    )
    try:
        optimizer = OptimizerConfig(**opt_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    init = InitScheme(
        sigma=_get(parser, "init", "sigma", float, 0.5),
        mean=_get(parser, "init", "mean", float, 0.0),
        clip=(_get(parser, "init", "clip_low", float, -1.0),
              _get(parser, "init", "clip_high", float, 1.0)),
        seed=_get(parser, "experiment", "master_seed", int, DEFAULT_MASTER_SEED),
    )

    kinds_text = _get(parser, "noise", "kinds", str, ",".join(NOISE_KINDS))
    noise_kinds = tuple(k.strip() for k in kinds_text.split(",") if k.strip())

    return ExperimentConfig(
        kind=_get(parser, "experiment", "kind", str, "compile"),
        target=_get(parser, "experiment", "target", str, "toffoli"),
        m=_get(parser, "experiment", "m", _parse_int_list, (6,)),
        master_seed=_get(parser, "experiment", "master_seed", int, DEFAULT_MASTER_SEED),
        output_dir=_get(parser, "experiment", "output_dir", str, "runs"),
        optimizer=optimizer,
        init=init,
        noise_kinds=noise_kinds,
        noise_mode=_get(parser, "noise", "mode", str, "deterministic-shift"),
        noise_samples=_get(parser, "noise", "samples", int, 200),
        noise_grid=_get(parser, "noise", "grid", _parse_float_list,
                        tuple(DEFAULT_DELTA_GRID.tolist())),
        damping_grid=_get(parser, "damping", "grid", _parse_float_list, DEFAULT_DAMPING_GRID),
        damping_placement=_get(parser, "damping", "placement", str, "after-each-layer"),
        damping_restarts=_get(parser, "damping", "restarts", int, 100),
        warm_start=_get(parser, "damping", "warm_start", bool, True),
        warm_sigma=_get(parser, "damping", "warm_sigma", float, 0.1),
        grad_samples=_get(parser, "grad-stats", "samples", int, 100),
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["optimizer"] = dataclasses.asdict(cfg.optimizer)
    out["init"] = dataclasses.asdict(cfg.init)
    return out


@dataclass
class RunRecord:
    """Everything one run produced: config, summaries, file names."""

    schema_version: int
    experiment: str
    package_version: str
    master_seed: int
    config: dict
    results: dict
    csv_files: list[str]
    created_utc: str
    run_dir: str

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def _fresh_run_dir(cfg: ExperimentConfig) -> Path:
    """Run-scoped subdirectory; suffixes instead of overwriting."""
    base = Path(cfg.output_dir)
    base.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    for k in range(1000):
        name = f"{cfg.kind}-{stamp}" if k == 0 else f"{cfg.kind}-{stamp}-{k}"
        candidate = base / name
        try:
            candidate.mkdir(exist_ok=False)
            return candidate
        except FileExistsError:
            continue
    raise RuntimeError("could not allocate a fresh run directory")


def _write_record(cfg: ExperimentConfig, run_dir: Path, results: dict,
                  csv_files: list[str]) -> RunRecord:
    """The run's RunRecord, also written to run_dir/run_record.json."""
    record = RunRecord(
        schema_version=SCHEMA_VERSION, experiment=cfg.kind,
        package_version=__version__, master_seed=cfg.master_seed,
        config=config_to_dict(cfg), results=results, csv_files=csv_files,
        created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        run_dir=str(run_dir),
    )
    (run_dir / "run_record.json").write_text(record.to_json() + "\n")
    return record


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(repr(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _summary_dict(summary: RestartSummary) -> dict:
    stats = summary.stats()
    best = summary.traces[summary.best_index]
    return {
        "best_restart": summary.best_index,
        "best_cost": best.final_cost,
        "best_fidelity": 1.0 - best.final_cost,
        "best_iterations": best.iterations,
        "best_converged": best.converged,
        **stats,
    }


def _training_rows(summary: RestartSummary) -> list[list]:
    rows = []
    for trace in summary.traces:
        for it in range(len(trace.costs)):
            rows.append([trace.restart_index, it, float(trace.costs[it]),
                         float(trace.metric[it]), float(trace.elapsed_ms[it])])
    return rows


def _trajectory_rows(summary: RestartSummary, labels: list[str]) -> list[list]:
    rows = []
    for trace in summary.traces:
        for it, theta in enumerate(trace.theta_history):
            for j, lab in enumerate(labels):
                rows.append([trace.restart_index, it, j, lab, float(theta[j])])
    return rows


def _compile_summary(cfg: ExperimentConfig, evaluator: CostEvaluator) -> RestartSummary:
    return multi_restart(evaluator, cfg.init, cfg.optimizer)


def run_compile(cfg: ExperimentConfig, run_dir: Path | None = None) -> RunRecord:
    """Multi-restart compile of one gate; training curves plus final table."""
    target = resolve_target(cfg.target)
    spec = heisenberg_spec(target.n)
    m = cfg.single_m
    circuit = build_hva(spec, m)
    evaluator = CostEvaluator(circuit, target, mode="exact-trace")
    summary = _compile_summary(cfg, evaluator)
    best = summary.traces[summary.best_index]

    run_dir = run_dir or _fresh_run_dir(cfg)
    labels = list(spec.labels)
    _write_csv(run_dir / "training_curve.csv",
               ["restart", "iteration", "cost", "grad_norm_or_spread", "elapsed_ms"],
               _training_rows(summary))
    _write_csv(run_dir / "parameter_trajectory.csv",
               ["restart", "iteration", "param_index", "label", "value"],
               _trajectory_rows(summary, labels))
    (run_dir / "final_parameters.txt").write_text(
        format_parameters(spec, best.final_theta))

    return _write_record(
        cfg, run_dir,
        {"m": m, "target": cfg.target, **_summary_dict(summary),
         "final_theta": [float(v) for v in best.final_theta],
         "labels": labels,
         "restart_seeds": summary.seeds},
        ["training_curve.csv", "parameter_trajectory.csv", "final_parameters.txt"])


def run_trotter_sweep(cfg: ExperimentConfig, run_dir: Path | None = None) -> RunRecord:
    """Independent compile per depth; emits the fidelity-vs-m curve.

    Each row carries the all-restart mean/std, the converged-only mean
    (empty population -> nan), and the best restart's fidelity, so both
    readings of the restart statistics stay available downstream.
    """
    target = resolve_target(cfg.target)
    spec = heisenberg_spec(target.n)
    depths = cfg.m if len(cfg.m) > 1 else tuple(range(1, cfg.m[0] + 1))

    rows = []
    per_m = {}
    for m in depths:
        circuit = build_hva(spec, m)
        evaluator = CostEvaluator(circuit, target, mode="exact-trace")
        summary = _compile_summary(cfg, evaluator)
        finals = np.array([t.final_cost for t in summary.traces])
        fid = 1.0 - finals
        conv = np.array([t.converged for t in summary.traces])
        conv_mean = float(fid[conv].mean()) if conv.any() else float("nan")
        conv_std = float(fid[conv].std()) if conv.any() else float("nan")
        rows.append([m, float(fid.mean()), float(fid.std()), conv_mean, conv_std,
                     int(conv.sum()), float(fid.max())])
        per_m[str(m)] = _summary_dict(summary)

    run_dir = run_dir or _fresh_run_dir(cfg)
    _write_csv(run_dir / "trotter_sweep.csv",
               ["m", "mean_fidelity", "std_fidelity", "mean_fidelity_converged",
                "std_fidelity_converged", "n_converged", "best_fidelity"],
               rows)
    return _write_record(cfg, run_dir,
                         {"target": cfg.target, "depths": list(depths), "per_m": per_m},
                         ["trotter_sweep.csv"])


def run_coherent_noise_sweep(cfg: ExperimentConfig,
                             run_dir: Path | None = None) -> RunRecord:
    """Charge and nuclear robustness curves for a freshly compiled gate."""
    target = resolve_target(cfg.target)
    spec = heisenberg_spec(target.n)
    m = cfg.single_m
    circuit = build_hva(spec, m)
    evaluator = CostEvaluator(circuit, target, mode="exact-trace")
    summary = _compile_summary(cfg, evaluator)
    theta_star = summary.traces[summary.best_index].final_theta

    rows = []
    curves = {}
    for kind in cfg.noise_kinds:
        sweep = robustness_sweep(evaluator, theta_star, kind, cfg.noise_grid,
                                 mode=cfg.noise_mode, samples=cfg.noise_samples,
                                 seed=derive_subseed(cfg.master_seed, _STREAM_NOISE))
        curves[kind] = sweep
        for r in sweep:
            rows.append([kind, cfg.noise_mode, r["delta"], r["mean_fidelity"],
                         r["std_fidelity"], r["samples"]])

    run_dir = run_dir or _fresh_run_dir(cfg)
    _write_csv(run_dir / "noise_sweep.csv",
               ["noise_kind", "mode", "delta", "mean_fidelity", "std_fidelity",
                "samples"],
               rows)
    results = {
        "target": cfg.target, "m": m,
        "compiled_cost": float(summary.traces[summary.best_index].final_cost),
        "theta_star": [float(v) for v in theta_star],
        "grid_mean_fidelity": {
            k: float(np.mean([r["mean_fidelity"] for r in v if r["delta"] > 0]
                             or [r["mean_fidelity"] for r in v]))
            for k, v in curves.items()},
    }
    return _write_record(cfg, run_dir, results, ["noise_sweep.csv"])


def _damping_inits(cfg: ExperimentConfig, theta_star: np.ndarray,
                   point_index: int, q: int) -> list[np.ndarray]:
    """Per-restart initial vectors for one damping grid point.

    Warm mode perturbs the compiled parameters with a clipped Gaussian
    kick (the re-training then explores the neighbourhood of the
    noiseless solution); cold mode draws fresh vectors from the
    configured init scheme.
    """
    inits = []
    for i in range(cfg.damping_restarts):
        rng = derive_rng(cfg.master_seed, _STREAM_DAMPING, point_index, i)
        if cfg.warm_start:
            kick = np.clip(rng.normal(0.0, cfg.warm_sigma, q), -1.0, 1.0)
            inits.append(theta_star + kick)
        else:
            inits.append(cfg.init.sample(rng, q))
    return inits


def run_damping_sweep(cfg: ExperimentConfig, run_dir: Path | None = None) -> RunRecord:
    """Nelder-Mead re-optimization of the noisy cost at each damping level."""
    target = resolve_target(cfg.target)
    spec = heisenberg_spec(target.n)
    m = cfg.single_m
    circuit = build_hva(spec, m)

    noiseless = CostEvaluator(circuit, target, mode="exact-trace")
    compile_summary = _compile_summary(cfg, noiseless)
    theta_star = compile_summary.traces[compile_summary.best_index].final_theta

    nm_cfg = OptimizerConfig(
        algorithm="nelder-mead",
        cost_tolerance=cfg.optimizer.cost_tolerance,
        simplex_step=cfg.optimizer.simplex_step,
        spread_tolerance=cfg.optimizer.spread_tolerance,
        restarts=cfg.damping_restarts,
    )

    rows = []
    per_point = {}
    for gi, p in enumerate(cfg.damping_grid):
        plan = NoisyCircuitPlan(circuit=circuit, channel=amplitude_damping(float(p)),
                                placement=cfg.damping_placement)
        evaluator = CostEvaluator(circuit, target, mode="hs-test-density", plan=plan)
        finals = []
        for theta0 in _damping_inits(cfg, theta_star, gi, spec.q):
            trace = nelder_mead_minimize(evaluator.cost, theta0, nm_cfg)
            finals.append(1.0 - trace.final_cost)
        fid = np.array(finals)
        rows.append([float(p), float(fid.mean()), float(fid.std()),
                     len(finals)])
        per_point[repr(float(p))] = {
            "mean_fidelity": float(fid.mean()), "std_fidelity": float(fid.std()),
            "min_fidelity": float(fid.min()), "max_fidelity": float(fid.max()),
        }

    run_dir = run_dir or _fresh_run_dir(cfg)
    _write_csv(run_dir / "damping_sweep.csv",
               ["p", "mean_fidelity", "std_fidelity", "restarts"],
               rows)
    return _write_record(
        cfg, run_dir,
        {"target": cfg.target, "m": m,
         "compiled_cost": float(compile_summary.traces[compile_summary.best_index].final_cost),
         "warm_start": cfg.warm_start, "per_point": per_point},
        ["damping_sweep.csv"])


def run_grad_stats(cfg: ExperimentConfig, run_dir: Path | None = None) -> RunRecord:
    """Per-coordinate gradient variance over random inits, one row per m."""
    target = resolve_target(cfg.target)
    spec = heisenberg_spec(target.n)
    depths = cfg.m if len(cfg.m) > 1 else tuple(range(1, cfg.m[0] + 1))

    rows = []
    per_m = {}
    labels = spec.labels
    for m in depths:
        circuit = build_hva(spec, m)
        evaluator = CostEvaluator(circuit, target, mode="exact-trace")
        stats = evaluator.gradient_stats(
            cfg.grad_samples, cfg.init,
            seed=derive_subseed(cfg.master_seed, _STREAM_GRADS, m))
        for j, (mean, var) in enumerate(zip(stats.mean, stats.variance)):
            rows.append([m, j, labels[j], float(mean), float(var)])
        per_m[str(m)] = {
            "min_coordinate_variance": float(np.min(stats.variance)),
            "overall_variance": float(stats.overall_variance),
        }

    run_dir = run_dir or _fresh_run_dir(cfg)
    _write_csv(run_dir / "grad_stats.csv",
               ["m", "param_index", "label", "grad_mean", "grad_variance"],
               rows)
    return _write_record(cfg, run_dir,
                         {"target": cfg.target, "samples": cfg.grad_samples, "per_m": per_m},
                         ["grad_stats.csv"])


_RUNNERS = {
    "compile": run_compile,
    "trotter-sweep": run_trotter_sweep,
    "coherent-noise-sweep": run_coherent_noise_sweep,
    "damping-sweep": run_damping_sweep,
    "grad-stats": run_grad_stats,
}


def run_experiment(cfg: ExperimentConfig, run_dir: Path | None = None) -> RunRecord:
    return _RUNNERS[cfg.kind](cfg, run_dir=run_dir)
