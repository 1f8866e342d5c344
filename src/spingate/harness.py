"""Config-driven experiment runner with CSV/JSON persistence.

Five experiment kinds cover the package's workflows:

* compile             -- multi-restart optimization of one target gate
* trotter-sweep       -- independent compile per depth m, fidelity curve
* coherent-noise-sweep-- charge/nuclear robustness curves of a compiled gate
* damping-sweep       -- re-optimization under amplitude damping per p
* grad-stats          -- per-coordinate gradient variance over random inits

Configs are INI files (configparser, values literal) with settings, such
as command-line flags, laid over single keys.  `_SCHEMA` is the one list
of INI keys: each maps to a field of ExperimentConfig, OptimizerConfig or
InitScheme, and every default lives on those dataclasses, so a file key
that is absent or empty leaves its field at the dataclass default.
Unknown sections or keys and a [DEFAULT] section are rejected so a typo
cannot silently fall back to a default.  Every run writes into a fresh
run-scoped subdirectory (never overwriting), emits one JSON RunRecord
plus per-experiment CSVs, and derives every random stream from the
single master seed, so a re-run with the same config reproduces all
emitted numbers except wall-time fields.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import build_hva
from .cost import CostEvaluator
from .errors import ConfigError, NumericalFailure, check_amount, check_count
from .hamiltonian import format_parameters, heisenberg_spec
from .noise import (DEFAULT_DELTA_GRID, NOISE_KINDS, NOISE_MODES, check_delta_grid,
                    robustness_sweep)
from .optimize import (MAX_COUNT, InitScheme, OptimizerConfig, RestartSummary, multi_restart,
                       retrain)
from .seeding import derive_rng, derive_subseed
from .simulator import PLACEMENTS, NoisyCircuitPlan, amplitude_damping
from .targets import MAX_QUBITS, resolve_target  # noqa: F401 (MAX_QUBITS: one of the run limits)

SCHEMA_VERSION = 1

EXPERIMENT_KINDS = ("compile", "trotter-sweep", "coherent-noise-sweep",
                    "damping-sweep", "grad-stats")

DEFAULT_MASTER_SEED = 10
DEFAULT_DAMPING_GRID = (0.0, 0.005, 0.01, 0.015, 0.02)
# longest grid a start:stop:step spec may expand to; a larger count is a
# typo, and expanding it first could exhaust memory
MAX_GRID_POINTS = 10_000
# a start:stop:step spec must reach stop within this many steps; float
# rounding of a spec that does is orders of magnitude below it
GRID_STOP_TOLERANCE = 1e-9
# deepest circuit a run may ask for: the paper's depths stop at 12, and
# a depth such as 10**9 would hang a compile or a trotter sweep's range
MAX_DEPTH = 100

# ExperimentConfig fields that are not counts or amounts, by type: the
# INI parser yields these types, so only API callers can pass others
_FIELD_TYPES = (
    (("kind", "target", "output_dir", "noise_mode", "damping_placement"), str, "a string"),
    (("m", "noise_kinds", "noise_grid", "damping_grid"), (tuple, list), "a tuple or list"),
    (("warm_start",), (bool, np.bool_), "a bool"),
    (("optimizer",), OptimizerConfig, "an OptimizerConfig"),
    (("init",), InitScheme, "an InitScheme"),
)

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
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
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
        for names, types, what in _FIELD_TYPES:
            for name in names:
                value = getattr(self, name)
                if not isinstance(value, types):
                    raise ConfigError(f"{name} must be {what}, got {value!r}")
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if not self.m:
            raise ConfigError("depth list must not be empty")
        for v in self.m:
            check_count("m", v, 1, MAX_DEPTH)
        check_count("master_seed", self.master_seed, 0)
        for name in ("noise_samples", "damping_restarts", "grad_samples"):
            check_count(name, getattr(self, name), 1, MAX_COUNT)
        check_amount("warm_sigma", self.warm_sigma)
        # an empty sweep list leaves nothing to run after the compile; other
        # kinds ignore the list, so a compile config may leave it empty
        swept = {"coherent-noise-sweep": "noise_kinds", "damping-sweep": "damping_grid"}
        if self.kind in swept and not getattr(self, swept[self.kind]):
            raise ConfigError(f"{self.kind} needs a non-empty {swept[self.kind]}")
        if self.noise_mode not in NOISE_MODES:
            raise ConfigError(f"unknown noise mode {self.noise_mode!r}")
        for k in self.noise_kinds:
            if k not in NOISE_KINDS:
                raise ConfigError(f"unknown noise kind {k!r}")
        for p in self.damping_grid:
            check_amount("damping probability", p)
            if p > 1:
                raise ConfigError(f"damping probability must be at most 1, got {p!r}")
        # after the entry checks, so every entry is hashable
        for name in ("m", "noise_kinds", "damping_grid"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} holds duplicate entries: {values!r}")
        if self.damping_placement not in PLACEMENTS:
            raise ConfigError(f"unknown damping placement {self.damping_placement!r}")
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


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in _parse_str_list(text))
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
        if abs(intervals - round(intervals)) > GRID_STOP_TOLERANCE:
            raise ConfigError(f"grid spec {text!r}: stop is not a whole number of steps "
                              "from start")
        grid = np.round(start + step * np.arange(round(intervals) + 1), 12)
        if np.any(np.diff(grid) <= 0):
            raise ConfigError(f"grid spec {text!r}: points closer than 1e-12 merge")
        return tuple(grid.tolist())
    try:
        values = tuple(float(p) for p in _parse_str_list(text))
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}") from exc
    if not np.isfinite(values).all():
        raise ConfigError(f"float list {text!r} holds NaN or infinity")
    return values


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(text) from None


# The one list of INI keys: (section, key) -> (config class, field, parser).
# clip_low and clip_high are the two ends of InitScheme.clip.
_SCHEMA = {
    ("experiment", "kind"): (ExperimentConfig, "kind", str),
    ("experiment", "target"): (ExperimentConfig, "target", str),
    ("experiment", "m"): (ExperimentConfig, "m", _parse_int_list),
    ("experiment", "master_seed"): (ExperimentConfig, "master_seed", int),
    ("experiment", "output_dir"): (ExperimentConfig, "output_dir", str),
    ("optimizer", "algorithm"): (OptimizerConfig, "algorithm", str),
    ("optimizer", "max_iters"): (OptimizerConfig, "max_iters", int),
    ("optimizer", "cost_tolerance"): (OptimizerConfig, "cost_tolerance", float),
    ("optimizer", "gradient_tolerance"): (OptimizerConfig, "gradient_tolerance", float),
    ("optimizer", "history_size"): (OptimizerConfig, "history_size", int),
    ("optimizer", "simplex_step"): (OptimizerConfig, "simplex_step", float),
    ("optimizer", "spread_tolerance"): (OptimizerConfig, "spread_tolerance", float),
    ("optimizer", "restarts"): (OptimizerConfig, "restarts", int),
    ("init", "sigma"): (InitScheme, "sigma", float),
    ("init", "mean"): (InitScheme, "mean", float),
    ("init", "clip_low"): (InitScheme, "clip", float),
    ("init", "clip_high"): (InitScheme, "clip", float),
    ("noise", "kinds"): (ExperimentConfig, "noise_kinds", _parse_str_list),
    ("noise", "mode"): (ExperimentConfig, "noise_mode", str),
    ("noise", "samples"): (ExperimentConfig, "noise_samples", int),
    ("noise", "grid"): (ExperimentConfig, "noise_grid", _parse_float_list),
    ("damping", "grid"): (ExperimentConfig, "damping_grid", _parse_float_list),
    ("damping", "placement"): (ExperimentConfig, "damping_placement", str),
    ("damping", "restarts"): (ExperimentConfig, "damping_restarts", int),
    ("damping", "warm_start"): (ExperimentConfig, "warm_start", _parse_bool),
    ("damping", "warm_sigma"): (ExperimentConfig, "warm_sigma", float),
    ("grad-stats", "samples"): (ExperimentConfig, "grad_samples", int),
}


def load_config(path: str | Path | None = None,
                settings: dict[tuple[str, str], str] | None = None) -> ExperimentConfig:
    """Parse and validate an INI config file with `settings` laid over it.

    `settings` maps a `_SCHEMA` (section, key) to text that replaces the
    file's before anything is parsed, so a replaced file value is never
    checked.  An absent or empty file key takes its dataclass default; an
    empty setting is a ConfigError.
    """
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            parser.read_string(Path(path).read_text(), source=str(path))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if parser.defaults():
        raise ConfigError(f"[DEFAULT] section is not supported: {sorted(parser.defaults())}")
    for section in parser.sections():
        keys = {key for sec, key in _SCHEMA if sec == section}
        if not keys:
            raise ConfigError(f"unknown config section [{section}]")
        extra = set(parser.options(section)) - keys
        if extra:
            raise ConfigError(f"unknown key(s) in [{section}]: {sorted(extra)}")
    settings = settings or {}
    for (section, key), raw in settings.items():
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"unknown setting [{section}] {key}")
        if not raw.strip():
            raise ConfigError(f"[{section}] {key}: empty value")

    kwargs = {ExperimentConfig: {}, OptimizerConfig: {}, InitScheme: {}}
    for (section, key), (cls, name, parse) in _SCHEMA.items():
        raw = settings.get((section, key), parser.get(section, key, fallback="")).strip()
        if raw == "":
            continue
        try:
            value = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
        if name == "clip":
            low, high = kwargs[InitScheme].get("clip", InitScheme().clip)
            value = (value, high) if key == "clip_low" else (low, value)
        kwargs[cls][name] = value
    return ExperimentConfig(**kwargs[ExperimentConfig],
                            optimizer=OptimizerConfig(**kwargs[OptimizerConfig]),
                            init=InitScheme(**kwargs[InitScheme]))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


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
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True, default=_plain)


def _plain(value):
    """A numpy scalar as its Python value; anything else fails as json.dumps fails."""
    return value.item() if isinstance(value, np.generic) else json.JSONEncoder().default(value)


def _check_output_dir(cfg: ExperimentConfig) -> None:
    """ConfigError unless the output directory is, or can become, a writable directory.

    Nothing is created: the path's nearest existing ancestor, itself
    included, must be a directory that the run may write into.
    """
    path = Path(cfg.output_dir)
    found = next(p for p in (path, *path.parents) if p.exists())
    if not found.is_dir():
        raise ConfigError(f"output directory {cfg.output_dir!r} cannot be made: "
                          f"{str(found)!r} is not a directory")
    if not os.access(found, os.W_OK | os.X_OK):
        raise ConfigError(f"output directory {cfg.output_dir!r} cannot be made: "
                          f"{str(found)!r} is not writable")


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


def _non_finite_cell(text: str) -> str | None:
    """The first comma- or space-separated cell of `text` that is NaN or infinite, else None.

    Python writes such floats as nan, inf and -inf, so only the lines
    that hold an "n" (headers and labels aside, none do) are parsed.
    """
    end = 0
    while (pos := text.find("n", end)) >= 0:
        start = text.rfind("\n", 0, pos) + 1
        end = text.find("\n", pos)
        if end < 0:
            end = len(text)
        for cell in re.split(r"[,\s]+", text[start:end]):
            try:
                value = float(cell)
            except ValueError:
                continue  # a label or a header
            if not math.isfinite(value):
                return cell
    return None


def _write_run(cfg: ExperimentConfig, results: dict, files: dict) -> RunRecord:
    """Write `files` in order, then the run's RunRecord as run_record.json.

    `files` maps a file name to its text.  A non-finite float in a cell of
    `files` or in the record raises NumericalFailure, and a record value
    that json cannot write raises TypeError, before anything is written.
    The run directory is allocated here, after the compute.
    """
    for name, content in files.items():
        bad = _non_finite_cell(content)
        if bad is not None:
            raise NumericalFailure(f"{name} holds the non-finite value {bad!r}")
    record = RunRecord(
        schema_version=SCHEMA_VERSION, experiment=cfg.kind,
        package_version=__version__, master_seed=cfg.master_seed,
        config=config_to_dict(cfg), results=results, csv_files=list(files),
        created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), run_dir="")
    try:
        json.dumps(dataclasses.asdict(record), allow_nan=False, default=_plain)
    except ValueError as exc:
        raise NumericalFailure(f"the run record holds a non-finite value: {exc}") from exc
    run_dir = _fresh_run_dir(cfg)
    record.run_dir = str(run_dir)
    for name, content in files.items():
        (run_dir / name).write_text(content)
    (run_dir / "run_record.json").write_text(record.to_json() + "\n")
    return record


def _summary_dict(summary: RestartSummary) -> dict:
    best = summary.best
    return {
        "best_restart": summary.best_index,
        "best_cost": best.final_cost,
        "best_fidelity": 1.0 - best.final_cost,
        "best_iterations": best.iterations,
        "best_converged": best.converged,
        **summary.stats(),
    }


def _csv(header: list[str], rows) -> str:
    """CSV text of a header and rows of cells, each written by str; None is an empty cell."""
    return "".join(",".join("" if cell is None else str(cell) for cell in row) + "\n"
                   for row in [header, *rows])


# The two per-iteration tables are the bulk of a compile's output, so they
# are formatted line by line from Python floats (repr, as str gives).
def _training_csv(summary: RestartSummary) -> str:
    lines = ["restart,iteration,cost,grad_norm_or_spread,elapsed_ms\n"]
    for trace in summary.traces:
        columns = zip(trace.costs.tolist(), trace.metric.tolist(), trace.elapsed_ms.tolist())
        lines.extend(f"{trace.restart_index},{it},{c!r},{g!r},{t!r}\n"
                     for it, (c, g, t) in enumerate(columns))
    return "".join(lines)


def _trajectory_csv(summary: RestartSummary, labels: list[str]) -> str:
    # a row's Q lines are one %-template (values by %r, % in labels escaped)
    cells = [f"{j},{lab},".replace("%", "%%") for j, lab in enumerate(labels)]
    blocks = ["restart,iteration,param_index,label,value\n"]
    for trace in summary.traces:
        heads = [f"{trace.restart_index},{it}," for it in range(len(trace.theta_history))]
        blocks.append("".join((head + ("%r\n" + head).join(cells) + "%r\n") % tuple(theta)
                              for head, theta in zip(heads, trace.theta_history.tolist())))
    return "".join(blocks)


def _evaluator(cfg: ExperimentConfig, m: int) -> CostEvaluator:
    """Exact-trace cost of the configured target on the m-layer circuit.

    A target that names no gate, or a matrix file that does not parse, is
    not unitary, is too small for a chain or acts on more than MAX_QUBITS
    qubits, raises ConfigError.  Every runner builds its first evaluator
    before it compiles anything.
    """
    try:
        target = resolve_target(cfg.target)
        spec = heisenberg_spec(target.n)
    except ValueError as exc:
        raise ConfigError(f"target {cfg.target!r}: {exc}") from exc
    return CostEvaluator(build_hva(spec, m), target, mode="exact-trace")


def _depths(cfg: ExperimentConfig) -> tuple[int, ...]:
    """A depth list as given; a single depth m stands for 1..m."""
    return cfg.m if len(cfg.m) > 1 else tuple(range(1, cfg.m[0] + 1))


def run_compile(cfg: ExperimentConfig) -> RunRecord:
    """Multi-restart compile of one gate; training curves plus final table."""
    evaluator = _evaluator(cfg, cfg.single_m)
    summary = multi_restart(evaluator, cfg.init, cfg.optimizer)
    spec = evaluator.circuit.spec
    labels = list(spec.labels)
    return _write_run(
        cfg,
        {"m": cfg.single_m, "target": cfg.target, **_summary_dict(summary),
         "final_theta": [float(v) for v in summary.best.final_theta],
         "labels": labels,
         "restart_seeds": summary.seeds},
        {"training_curve.csv": _training_csv(summary),
         "parameter_trajectory.csv": _trajectory_csv(summary, labels),
         "final_parameters.txt": format_parameters(spec, summary.best.final_theta)})


def run_trotter_sweep(cfg: ExperimentConfig) -> RunRecord:
    """Independent compile per depth; emits the fidelity-vs-m curve.

    Each row carries the all-restart mean/std, the converged-only mean
    (an empty cell when no restart converged), and the best restart's
    fidelity, so both readings of the restart statistics stay available
    downstream.
    """
    depths = _depths(cfg)
    rows = []
    per_m = {}
    for m in depths:
        summary = multi_restart(_evaluator(cfg, m), cfg.init, cfg.optimizer)
        fid = 1.0 - summary.final_costs
        conv = np.array([t.converged for t in summary.traces])
        conv_mean = float(fid[conv].mean()) if conv.any() else None
        conv_std = float(fid[conv].std()) if conv.any() else None
        rows.append([m, float(fid.mean()), float(fid.std()), conv_mean, conv_std,
                     int(conv.sum()), float(fid.max())])
        per_m[str(m)] = _summary_dict(summary)

    return _write_run(
        cfg,
        {"target": cfg.target, "depths": list(depths), "per_m": per_m},
        {"trotter_sweep.csv": _csv(
            ["m", "mean_fidelity", "std_fidelity", "mean_fidelity_converged",
             "std_fidelity_converged", "n_converged", "best_fidelity"],
            rows)})


def run_coherent_noise_sweep(cfg: ExperimentConfig) -> RunRecord:
    """Charge and nuclear robustness curves for a freshly compiled gate."""
    evaluator = _evaluator(cfg, cfg.single_m)
    summary = multi_restart(evaluator, cfg.init, cfg.optimizer)
    theta_star = summary.best.final_theta

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

    results = {
        "target": cfg.target, "m": cfg.single_m,
        "compiled_cost": float(summary.best.final_cost),
        "theta_star": [float(v) for v in theta_star],
        "grid_mean_fidelity": {
            k: float(np.mean([r["mean_fidelity"] for r in v if r["delta"] > 0]
                             or [r["mean_fidelity"] for r in v]))
            for k, v in curves.items()},
    }
    return _write_run(
        cfg, results,
        {"noise_sweep.csv": _csv(
            ["noise_kind", "mode", "delta", "mean_fidelity", "std_fidelity", "samples"],
            rows)})


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


def run_damping_sweep(cfg: ExperimentConfig) -> RunRecord:
    """Re-optimization of the noisy cost at each damping level.

    Each start is re-trained by `optimize.retrain`: a short Nelder-Mead
    phase, then an L-BFGS polish on the exact density gradient, both
    under the run's [optimizer] tolerances, simplex step and history size.
    """
    noiseless = _evaluator(cfg, cfg.single_m)
    summary = multi_restart(noiseless, cfg.init, cfg.optimizer)
    circuit = noiseless.circuit

    rows = []
    per_point = {}
    for gi, p in enumerate(cfg.damping_grid):
        plan = NoisyCircuitPlan(circuit=circuit, channel=amplitude_damping(float(p)),
                                placement=cfg.damping_placement)
        evaluator = CostEvaluator(circuit, noiseless.target, plan=plan)
        inits = _damping_inits(cfg, summary.best.final_theta, gi, circuit.q)
        try:
            traces = retrain(evaluator, inits, cfg.optimizer)
        except NumericalFailure as exc:
            raise NumericalFailure(f"damping p={float(p)} (grid point {gi}): {exc}") from exc
        fid = np.array([1.0 - t.final_cost for t in traces])
        rows.append([float(p), float(fid.mean()), float(fid.std()), len(fid)])
        per_point[repr(float(p))] = {
            "mean_fidelity": float(fid.mean()), "std_fidelity": float(fid.std()),
            "min_fidelity": float(fid.min()), "max_fidelity": float(fid.max()),
        }

    return _write_run(
        cfg,
        {"target": cfg.target, "m": cfg.single_m,
         "compiled_cost": float(summary.best.final_cost),
         "warm_start": cfg.warm_start, "per_point": per_point},
        {"damping_sweep.csv": _csv(["p", "mean_fidelity", "std_fidelity", "restarts"], rows)})


def run_grad_stats(cfg: ExperimentConfig) -> RunRecord:
    """Per-coordinate gradient mean and variance over random inits, one row per m."""
    rows = []
    per_m = {}
    for m in _depths(cfg):
        evaluator = _evaluator(cfg, m)
        labels = evaluator.circuit.spec.labels
        rng = derive_rng(derive_subseed(cfg.master_seed, _STREAM_GRADS, m))
        grads = evaluator.gradients(np.array(
            [cfg.init.sample(rng, evaluator.circuit.q) for _ in range(cfg.grad_samples)]))
        variance = grads.var(axis=0)
        for j, (mean, var) in enumerate(zip(grads.mean(axis=0), variance)):
            rows.append([m, j, labels[j], float(mean), float(var)])
        per_m[str(m)] = {
            "min_coordinate_variance": float(np.min(variance)),
            "overall_variance": float(grads.var()),
        }

    return _write_run(
        cfg,
        {"target": cfg.target, "samples": cfg.grad_samples, "per_m": per_m},
        {"grad_stats.csv": _csv(
            ["m", "param_index", "label", "grad_mean", "grad_variance"], rows)})


_RUNNERS = {
    "compile": run_compile,
    "trotter-sweep": run_trotter_sweep,
    "coherent-noise-sweep": run_coherent_noise_sweep,
    "damping-sweep": run_damping_sweep,
    "grad-stats": run_grad_stats,
}


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Run `cfg`; the output directory is checked before any compute."""
    _check_output_dir(cfg)
    return _RUNNERS[cfg.kind](cfg)
