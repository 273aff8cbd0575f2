"""Command-line front end: config-driven simulations, oracles, and fits.

Subcommands:

* ``transfer``   -- emit a transfer matrix as CSV (ideal/general/lossy)
* ``sweep``      -- singles and normalized coincidences versus phase
* ``phasematch`` -- per-channel mismatch table
* ``oracle``     -- closed-form vs numerical-oracle comparison table
* ``fit``        -- fit phase scale / channel scales / zeta from curve CSV
* ``synth``      -- generate synthetic count records

Configs are JSON checked against one schema, ``CONFIGS``: a table per
(subcommand, variant) of the keys it reads, each with the field it fills and
its JSON type.  ``check_section`` rejects unread keys, wrong types, non-finite
numbers and missing keys, and builds the dataclasses the subcommands read.
Each config-driven subcommand returns a ``Table``, and ``main`` writes it: CSV
under a comment header carrying the tool version, the hash of the raw config,
and the config's ``seed`` when it has one, in 17-significant-digit scientific
notation so doubles round-trip exactly.

Exit codes: 0 ok, 1 config, input or usage error (bad flags included),
2 numerical failure, 3 fit non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
# only the layers the schema needs; each subcommand imports the others it runs
from .dispersion import DispersionProfile, FrequencyGrid, nonlinear_mismatch
from .quantum import KINDS, InputState, _check_model_finite, correlation_curve
from .transfer import PumpConfig, general_transfer, ideal_transfer, lossy_transfer, to_lab_frame

SPEED_OF_LIGHT = 299792458.0  # m/s, exact

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_FIT = 3

class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def lambda_nm_to_omega(lam_nm: float) -> float:
    return 2.0 * math.pi * SPEED_OF_LIGHT / (lam_nm * 1e-9)


# ---------------------------------------------------------------------------
# config schema: one table per (subcommand, variant) of the keys it reads,
# each with the field it fills and its JSON type; check_section walks them


class JsonType(NamedTuple):
    """A JSON value type: its name in messages, a test and a conversion."""

    name: str
    test: Callable
    convert: Callable = lambda value: value


class Section(NamedTuple):
    """A JSON object: key -> (field, JsonType or Section), required fields, builder."""

    keys: dict
    required: tuple = ()
    build: Callable = dict


def _finite(v) -> bool:
    # exact for any int, so one too large for a float is rejected, not overflowed
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _listof(test):
    return lambda v: isinstance(v, list) and all(map(test, v))


def one_of(*values) -> JsonType:
    return JsonType(f"one of {list(values)}", lambda v: isinstance(v, str) and v in values)


INTEGER = JsonType("an integer", lambda v: type(v) is int)
AT_LEAST_TWO = JsonType("an integer >= 2", lambda v: INTEGER.test(v) and v >= 2)
NUMBER = JsonType("a finite number", _finite, float)
BOOL = JsonType("true or false", lambda v: isinstance(v, bool))
INTEGERS = JsonType("a list of integers", _listof(INTEGER.test), tuple)
NUMBERS = JsonType("a list of finite numbers", _listof(_finite),
                   lambda v: tuple(float(x) for x in v))
PUMP_POWERS = NUMBERS._replace(name="a list of at least 2 finite numbers",
                               test=lambda v: NUMBERS.test(v) and len(v) >= 2)
SWEEP_POWERS = NUMBERS._replace(name="a non-empty list of finite numbers >= 0",
                                test=lambda v: NUMBERS.test(v) and len(v) > 0 and min(v) >= 0)
# 0 nm and a wavelength whose metres underflow to 0 would divide by zero
WAVELENGTHS_NM = NUMBERS._replace(
    name="a list of finite numbers > 0 whose frequencies are finite",
    test=lambda v: NUMBERS.test(v) and all(
        x * 1e-9 > 0 and 0 < lambda_nm_to_omega(x) < math.inf for x in v),
    convert=lambda v: tuple(lambda_nm_to_omega(float(x)) for x in v))
COMPLEX = JsonType("a finite number or a [re, im] pair",
                   lambda v: _finite(v) or _listof(_finite)(v) and len(v) == 2,
                   lambda v: complex(*v) if isinstance(v, list) else float(v))


def _same(**types) -> dict:
    """Keys that fill the field of their own name."""
    return {key: (key, spec) for key, spec in types.items()}


def _input_state(kind, **fields) -> InputState:
    unread = sorted(set(fields) - set(KINDS[kind].fields))
    if unread:
        raise ConfigError(f"input kind {kind!r} does not read field(s) {unread}; remove them")
    return InputState(kind=kind, **fields)


def input_section(*kinds) -> Section:
    return Section(_same(kind=one_of(*kinds), modes=INTEGERS, amplitude=NUMBER, zeta=COMPLEX,
                         phase_averaged=BOOL, pre_loss=NUMBERS, post_loss=NUMBERS),
                   ("kind",), _input_state)


PROFILE = Section({"omega0_rad_s": ("omega0", NUMBER), "beta_coeffs_si": ("beta_coeffs", NUMBERS),
                   "gamma_per_w_m": ("gamma", NUMBER), "length_m": ("length", NUMBER),
                   "alpha_per_m": ("alpha", NUMBER)},
                  ("omega0", "beta_coeffs", "gamma", "length"), DispersionProfile)

# an output with no loss term takes alpha_per_m only as 0, so no loss is ignored in silence
LOSSLESS = PROFILE._replace(keys={**PROFILE.keys, "alpha_per_m": ("alpha", JsonType(
    "0, as this output has no loss term (the lossy route of transfer models loss)",
    lambda v: _finite(v) and v == 0, float))})

# the _rad_s and _lambda_nm keys fill the same field, so they exclude each other
GRID = Section({"pump_freqs_rad_s": ("pump_freqs", NUMBERS),
                "pump_freqs_lambda_nm": ("pump_freqs", WAVELENGTHS_NM),
                "weak_freqs_rad_s": ("weak_freqs", NUMBERS),
                "weak_freqs_lambda_nm": ("weak_freqs", WAVELENGTHS_NM)},
               ("pump_freqs", "weak_freqs"), FrequencyGrid)
PUMP_POWERS_KEY = {"powers_w": ("powers", PUMP_POWERS)}
PUMPS = Section({**PUMP_POWERS_KEY, "phases_rad": ("phases", NUMBERS)}, ("powers",), PumpConfig)
PHI_SWEEP = Section(_same(phi_min=NUMBER, phi_max=NUMBER, steps=AT_LEAST_TWO))
POWER_SWEEP = Section(_same(powers_w=SWEEP_POWERS, phase_scale_rad_per_w=NUMBER),
                      ("powers_w", "phase_scale_rad_per_w"))

N_MODES = _same(n_modes=AT_LEAST_TWO)
PHYSICS = _same(profile=PROFILE, grid=GRID, pumps=PUMPS)
ROUTE = _same(transfer=one_of("ideal", "general", "lossy"))
# sweep and synth run on the ideal transfer only
CURVE = {**N_MODES, **_same(transfer=one_of("ideal"), input=input_section(*KINDS), seed=INTEGER)}
QUANTUM = {**N_MODES, **_same(input=input_section("squeezed_vacuum"))}
ROUTED = Section({**N_MODES, **ROUTE, **PHYSICS}, ("profile", "pumps"))
# general_transfer has no loss term; the mismatch reads neither loss nor pump phases
GENERAL = ROUTED._replace(keys={**ROUTED.keys, **_same(profile=LOSSLESS)})
MISMATCH = Section({**N_MODES, **_same(profile=LOSSLESS, grid=GRID,
                                       pumps=Section(PUMP_POWERS_KEY, ("powers",), PumpConfig))},
                   ("profile", "grid", "pumps"))
POWERS = Section({**CURVE, **_same(sweep=POWER_SWEEP)}, ("input", "sweep"))
CONFIGS = {
    ("transfer", "on the ideal route"): Section({**N_MODES, **ROUTE}),
    ("transfer", "on the general route"): GENERAL,
    ("transfer", "on the lossy route"): ROUTED,
    ("sweep", "over a phase grid"): Section({**CURVE, **_same(sweep=PHI_SWEEP)}, ("input",)),
    ("sweep", "over sweep.powers_w"): POWERS,
    ("synth", ""): POWERS,
    ("phasematch", ""): MISMATCH,
    ("oracle", "--check classical"): Section(PHYSICS, ("profile", "grid", "pumps")),
    ("oracle", "--check quantum"): Section(QUANTUM),
    ("oracle", "--check all"): Section({**PHYSICS, **QUANTUM}, ("profile", "grid", "pumps")),
}


def config_variant(command: str, cfg: dict, args) -> str:
    """Which of the command's tables applies: the route, the phase axis or the check."""
    if command == "transfer":
        route = cfg.get("transfer")
        return f"on the {route if route in ('general', 'lossy') else 'ideal'} route"
    if command == "sweep":
        sweep = cfg.get("sweep")
        powers = isinstance(sweep, dict) and "powers_w" in sweep
        return "over sweep.powers_w" if powers else "over a phase grid"
    return f"--check {args.check}" if command == "oracle" else ""


def check_section(value, section: Section, where: str):
    """Check a JSON object against its section and build what it fills.

    Names every unread key, the first key of a wrong type or a non-finite
    number, and a missing required key; returns ``section.build(**fields)``,
    whose range errors are re-raised prefixed with ``where``.
    """
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, not {json.dumps(value)}")
    unread = sorted(set(value) - set(section.keys))
    if unread:
        raise ConfigError(f"{where} does not read key(s) {unread}; remove them")

    def keys_of(field):
        return " or ".join(repr(k) for k, (f, _) in section.keys.items() if f == field)

    fields = {}
    for key, item in value.items():
        field, spec = section.keys[key]
        if field in fields:
            raise ConfigError(f"{where}: give key {keys_of(field)}, not both")
        if isinstance(spec, Section):
            fields[field] = check_section(item, spec, f"section {key!r} of {where}")
        elif spec.test(item):
            fields[field] = spec.convert(item)
        else:
            raise ConfigError(f"{where}: key {key!r} must be {spec.name}, "
                              f"not {json.dumps(item)}")
    for field in section.required:
        if field not in fields:
            raise ConfigError(f"{where} needs key {keys_of(field)}")
    try:
        return section.build(**fields)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError(f"a config must be a JSON object, not {json.dumps(cfg)}")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def write_lines(path, lines) -> None:
    out = sys.stdout if path in (None, "-") else open(path, "w", encoding="utf-8")
    try:
        for line in lines:
            print(line, file=out)
    finally:
        if out is not sys.stdout:
            out.close()


class Table(NamedTuple):
    """A config-driven subcommand's output: CSV columns, rows, exit status, stdout line."""

    columns: list
    rows: list | np.ndarray
    status: int = EXIT_OK
    summary: str | None = None


# ---------------------------------------------------------------------------
# subcommands


def cmd_transfer(args, cfg: dict) -> Table:
    kind = cfg.get("transfer", "ideal")
    if kind == "ideal":
        tm = ideal_transfer(cfg["n_modes"], args.phi)
    else:
        profile, pumps = cfg["profile"], cfg["pumps"]
        mismatch = nonlinear_mismatch(profile, cfg["grid"], pumps.powers) if "grid" in cfg else None
        # the lossy route takes zero mismatch only: any other raises ValueError, so exit 1
        build = general_transfer if kind == "general" else lossy_transfer
        tm = build(profile, pumps, mismatch=mismatch)
    n = tm.n_modes
    columns = [f"{part}_{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)
               for part in ("re", "im")]
    row = np.column_stack([tm.entries.real.ravel(), tm.entries.imag.ravel()]).ravel()
    return Table(columns, [row], summary=f"unitarity_residual={tm.unitarity_residual():.3e}")


def cmd_sweep(args, cfg: dict) -> Table:
    n_modes = cfg["n_modes"]
    sweep = cfg.get("sweep", {})
    # _check_model_finite reports an overflow as the one error, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if "powers_w" in sweep:
            phis = sweep["phase_scale_rad_per_w"] * np.asarray(sweep["powers_w"])
        else:
            # the default phi_max depends on n_modes, so this rule is not in the schema
            phi_min = sweep.get("phi_min", 0.0)
            phi_max = sweep.get("phi_max", 2.0 * math.pi / n_modes)
            if not phi_min < phi_max:
                raise ConfigError("sweep: need phi_min < phi_max")
            phis = np.linspace(phi_min, phi_max, sweep.get("steps", 101))
        curve = correlation_curve(cfg["input"], phis, n_modes=n_modes)
    columns = ["phi"] + [f"g1_{i}" for i in range(1, n_modes + 1)]
    columns += [f"g2_{i}{j}" for i, j in curve.g2]
    rows = np.column_stack([phis, curve.singles, *curve.g2.values()])
    at = ((lambda k: f"pump power {sweep['powers_w'][k]:g} W") if "powers_w" in sweep
          else (lambda k: f"phi {phis[k]:g}"))
    _check_model_finite(cfg["input"].kind, rows[:, 1:], n_modes, at)
    return Table(columns, rows)


def cmd_phasematch(args, cfg: dict) -> Table:
    profile, pumps = cfg["profile"], cfg["pumps"]
    report = nonlinear_mismatch(profile, cfg["grid"], pumps.powers)
    columns = ["channel", "delta_beta_per_m", "delta_k_per_m", "dk_L_over_pi", "negligible"]
    rows = [[n + 1, report.delta_beta[n], report.delta_k[n],
             report.delta_k[n] * profile.length / math.pi, bool(report.negligible[n])]
            for n in range(report.n_modes)]
    return Table(columns, rows)


def _oracle_classical_rows(cfg, tol):
    from .propagation import IntegratorSettings, integrate_weak

    profile, grid, pumps = cfg["profile"], cfg["grid"], cfg["pumps"]
    mismatch = nonlinear_mismatch(profile, grid, pumps.powers)
    if profile.alpha > 0.0:
        # entries already in the integrator's lab frame; outside the closed form's
        # domain (unequal powers, mismatch) it raises ValueError, so exit 1
        lab = lossy_transfer(profile, pumps, mismatch=mismatch).entries
    else:
        tm = general_transfer(profile, pumps, mismatch, absorb_global_phase=False)
        lab = to_lab_frame(tm.entries, profile, grid, pumps, profile.length)
    n = grid.n_modes
    settings = IntegratorSettings(step=profile.length / 2000)
    # the seed bound integrate_weak applies: a share of the weakest pump that
    # is on; with every pump off there is no bound
    on = [p for p in pumps.powers if p > 0]
    seed_amp = math.sqrt(1e-7 * min(on)) if on else 1.0
    # one seed per column: every column of the transfer in a single integration
    seeds = seed_amp * np.eye(n, dtype=complex)
    numeric = integrate_weak(profile, grid, pumps, seeds, settings)
    analytic = lab @ seeds
    errs = [float(np.max(np.abs(numeric[:, k] - analytic[:, k])) / seed_amp) for k in range(n)]
    return [[f"classical_seed_{k + 1}", err, err < tol] for k, err in enumerate(errs)]


def _oracle_quantum_rows(cfg, tol):
    """The g2 of the input pair that sweep writes against the Wick oracle's, at 25 phases.

    ``correlation_curve`` runs first: it raises for an input with no light,
    and rates it cannot represent are an input error, as in sweep.  The Wick
    side runs on one transfer stack whose row 0, phase 0, is its
    normalization.
    """
    from .oracle import loss_chain, wick_moments

    n_modes = cfg["n_modes"]
    state = cfg.get("input", InputState(kind="squeezed_vacuum", zeta=0.4))
    phis = np.linspace(0.0, 2.0 * math.pi / n_modes, 25)
    # _check_model_finite reports an overflow as the one error, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        curve = correlation_curve(state, phis, n_modes)
    _check_model_finite(state.kind, np.column_stack([curve.singles, *curve.g2.values()]),
                        n_modes, lambda k: f"phi {phis[k]:g}")
    closed = curve.g2[min(state.modes), max(state.modes)]
    t_pre, t_post = (state.transmissions(name, n_modes) for name in ("pre_loss", "post_loss"))
    chains = (loss_chain(n_modes, state.zeta, u, t_pre, t_post, state.modes)
              for u in ideal_transfer(n_modes, [0.0, *phis]).entries)
    wick_ref, *wick = [wick_moments(chain, state.modes)[2] for chain in chains]
    errs = [abs(w / wick_ref - g2) / max(abs(g2), 1e-300) for w, g2 in zip(wick, closed)]
    return [[f"quantum_phi_{phi:.6f}", err, err < tol] for phi, err in zip(phis, errs)]


def cmd_oracle(args, cfg: dict) -> Table:
    # the quantum rows first: an input without light exits 1 there, before the RK4 run
    quantum = _oracle_quantum_rows(cfg, args.tol) if args.check in ("quantum", "all") else []
    classical = _oracle_classical_rows(cfg, args.tol) if args.check in ("classical", "all") else []
    rows = classical + quantum
    # np.max propagates NaN, so a non-finite error cannot report as a pass
    worst = float(np.max([row[1] for row in rows]))
    return Table(["case", "max_error", "pass"], rows,
                 EXIT_OK if worst < args.tol else EXIT_NUMERICAL,
                 f"max_error={worst:.3e} tol={args.tol:g}")


def _read_curve_csv(path):
    """The distinct column names of a curve CSV and its rows, one finite number per name."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(number, line) for number, line in enumerate(map(str.strip, fh), 1)
                 if line and not line.startswith("#")]
    if len(lines) < 2:
        raise ConfigError("empty or malformed curve CSV")
    header = [c.strip() for c in lines[0][1].split(",")]
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise ConfigError(f"line {lines[0][0]} of {path}: column(s) {repeated} appear more "
                          "than once in the header")
    rows = []
    for number, line in lines[1:]:
        try:
            row = [finite(v) for v in line.split(",")]
        except ValueError:
            row = None
        if row is None or len(row) != len(header):
            raise ConfigError(f"line {number} of {path}: need {len(header)} finite numbers "
                              f"({','.join(header)}), not {line!r}")
        rows.append(row)
    return header, np.asarray(rows)


def cmd_fit(args) -> int:
    from .fitting import fit_phase_scale, fit_zeta

    header, data = _read_curve_csv(args.data)
    cols = {name: data[:, i] for i, name in enumerate(header)}
    depletion = args.model in ("pair", "coherent")
    x, y = ("power_w", "value") if depletion else ("singles_rate", "ratio")
    if x not in cols or y not in cols:
        raise ConfigError(f"fit CSV needs {x} and {y} columns")
    try:
        result = (fit_phase_scale if depletion else fit_zeta)(cols[x], cols[y])
    except ValueError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return EXIT_FIT
    if not result.converged:
        print("fit did not converge", file=sys.stderr)
        return EXIT_FIT
    # only the parameter the model fits: the other one is NaN in the result
    fitted = {"phase_scale_rad_per_w": result.phase_scale} if depletion else {"zeta": result.zeta}
    kv = {**fitted, "residual_norm": result.residual_norm, "converged": int(result.converged),
          "iterations": result.iterations,
          **{f"channel_scale_{i + 1}": s for i, s in enumerate(result.channel_scales)}}
    write_lines(args.out, [f"# nwaybs {__version__}"] + [
        f"{key}={_fmt(val) if isinstance(val, float) else val}" for key, val in kv.items()])
    print(f"model={args.model} converged={result.converged}")
    return EXIT_OK


def cmd_synth(args, cfg: dict) -> Table:
    from .fitting import generate_synthetic

    sweep = cfg["sweep"]
    n_modes = cfg["n_modes"]
    records = generate_synthetic(sweep["phase_scale_rad_per_w"], sweep["powers_w"], n_modes=n_modes,
                                 state=cfg["input"], noise=args.noise, seed=cfg.get("seed", 0))
    columns = ["power_w", *(f"singles_{i}" for i in range(1, n_modes + 1)),
               *(f"coinc_{i}{j}" for i, j in records[0].coincidences),
               *(f"acc_{i}" for i in range(1, n_modes + 1))]
    rows = [[rec.pump_peak_power, *rec.singles, *rec.coincidences.values(),
             *rec.accidental_singles] for rec in records]
    return Table(columns, rows)


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error exits with EXIT_CONFIG, not argparse's 2."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def positive(text: str) -> float:
    if not finite(text) > 0:
        raise ValueError(text)
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nwaybs", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # a setting that is a config key has no flag, so each setting has one source
    def add_common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("transfer", help="emit a transfer matrix as CSV")
    add_common(p)
    p.add_argument("--phi", type=finite, default=0.0)

    p = sub.add_parser("sweep", help="correlation curve versus nonlinear phase")
    add_common(p)
    p.add_argument("--input", choices=_INPUT_KIND_ALIASES, default=None,
                   help="override config input kind")

    p = sub.add_parser("phasematch", help="per-channel mismatch table")
    add_common(p)

    p = sub.add_parser("oracle", help="closed-form vs numerical oracle comparison")
    add_common(p)
    p.add_argument("--check", choices=["classical", "quantum", "all"], default="all")
    p.add_argument("--tol", type=positive, default=1e-6)

    p = sub.add_parser("fit", help="fit model parameters from a curve CSV")
    p.add_argument("--data", required=True, help="input curve CSV")
    p.add_argument("--model", choices=["pair", "coherent", "multiphoton"], required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("synth", help="generate synthetic count records")
    add_common(p)
    p.add_argument("--noise", type=finite, default=0.0)

    return parser


_INPUT_KIND_ALIASES = {"single": "single_coherent", "dual": "dual_coherent",
                       "pair": "photon_pair", "squeezed": "squeezed_vacuum"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            return cmd_fit(args)
        raw = load_config(args.config)
        if getattr(args, "input", None) and isinstance(raw.setdefault("input", {}), dict):
            # CLI override for the config's input kind
            raw["input"]["kind"] = _INPUT_KIND_ALIASES[args.input]
        variant = config_variant(args.command, raw, args)
        cfg = check_section(raw, CONFIGS[args.command, variant],
                            f"the config of {args.command} {variant}".rstrip())
        # N: one channel per pump/weak pair; without pumps, n_modes or 3
        pumps = cfg.get("pumps")
        n_modes = cfg.setdefault("n_modes", 3 if pumps is None else pumps.n_modes)
        if pumps is not None and n_modes != pumps.n_modes:
            raise ConfigError(f"config key 'n_modes' is {n_modes}, but {args.command} takes "
                              f"one mode per pump ({pumps.n_modes})")
        handler = {"transfer": cmd_transfer, "sweep": cmd_sweep, "phasematch": cmd_phasematch,
                   "oracle": cmd_oracle, "synth": cmd_synth}[args.command]
        table = handler(args, cfg)
        # the one provenance header: a seed line only for a seed the hashed config holds
        header = [f"# nwaybs {__version__}", f"# config_hash={config_hash(raw)}",
                  *([f"# seed={raw['seed']}"] if "seed" in raw else [])]
        write_lines(args.out, [*header, ",".join(table.columns),
                               *(",".join(map(_fmt, row)) for row in table.rows)])
        if table.summary is not None:
            print(table.summary)
        return table.status
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError, AssertionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
