"""Command-line front end: config-driven simulations, oracles, and fits.

Subcommands:

* ``transfer``   -- emit a transfer matrix as CSV (ideal/general/lossy)
* ``sweep``      -- singles and normalized coincidences versus phase
* ``phasematch`` -- per-channel mismatch table
* ``oracle``     -- closed-form vs numerical-oracle comparison table
* ``fit``        -- fit phase scale / channel scales / zeta from curve CSV
* ``synth``      -- generate synthetic count records

Configs are strict-keyed JSON: each subcommand rejects every top-level key
it does not read (``CONFIG_KEYS``).  Output files are
CSV with a comment header carrying the tool version, config hash, and seed,
and 17-significant-digit scientific notation so doubles round-trip exactly.

Exit codes: 0 ok, 1 config/input error, 2 numerical failure,
3 fit non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .dispersion import (
    DispersionProfile,
    FrequencyGrid,
    nonlinear_mismatch,
)
from .fitting import fit_phase_scale, fit_zeta, generate_synthetic, normalize_coincidences
from .propagation import IntegratorSettings, integrate_weak
from .oracle import loss_chain, wick_moments
from .quantum import KINDS, InputState, correlation_curve, g2_squeezed_full
from .transfer import (
    PumpConfig,
    general_transfer,
    ideal_transfer,
    lossy_transfer,
    to_lab_frame,
)

SPEED_OF_LIGHT = 299792458.0  # m/s, exact

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_FIT = 3

# the top-level config keys each subcommand reads; load_config rejects every other key
CONFIG_KEYS = {
    "transfer": {"n_modes", "transfer", "profile", "pumps", "grid"},
    "sweep": {"n_modes", "transfer", "input", "sweep", "seed"},
    "phasematch": {"n_modes", "profile", "grid", "pumps"},
    "oracle": {"n_modes", "input", "profile", "grid", "pumps"},
    "synth": {"n_modes", "transfer", "input", "sweep", "seed"},
}


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


def _require_keys(d: dict, allowed: set, context: str) -> None:
    unread = set(d) - allowed
    if unread:
        raise ConfigError(f"{context} does not read key(s) {sorted(unread)}; remove them")


def lambda_nm_to_omega(lam_nm: float) -> float:
    return 2.0 * math.pi * SPEED_OF_LIGHT / (lam_nm * 1e-9)


def _parse_freq_list(section: dict, base: str, context: str):
    key_rad = f"{base}_rad_s"
    key_nm = f"{base}_lambda_nm"
    if key_rad in section and key_nm in section:
        raise ConfigError(f"{context}: give {key_rad} or {key_nm}, not both")
    if key_rad in section:
        return [float(f) for f in section[key_rad]]
    if key_nm in section:
        return [lambda_nm_to_omega(float(l)) for l in section[key_nm]]
    raise ConfigError(f"{context}: missing {key_rad} or {key_nm}")


def parse_profile(section: dict) -> DispersionProfile:
    allowed = {"omega0_rad_s", "beta_coeffs_si", "gamma_per_w_m", "length_m", "alpha_per_m"}
    _require_keys(section, allowed, "profile")
    try:
        return DispersionProfile(
            omega0=float(section["omega0_rad_s"]),
            beta_coeffs=tuple(section["beta_coeffs_si"]),
            gamma=float(section["gamma_per_w_m"]),
            length=float(section["length_m"]),
            alpha=float(section.get("alpha_per_m", 0.0)),
        )
    except KeyError as exc:
        raise ConfigError(f"profile: missing key {exc}") from exc


def parse_grid(section: dict) -> FrequencyGrid:
    allowed = {"pump_freqs_rad_s", "pump_freqs_lambda_nm",
               "weak_freqs_rad_s", "weak_freqs_lambda_nm"}
    _require_keys(section, allowed, "grid")
    return FrequencyGrid(
        pump_freqs=tuple(_parse_freq_list(section, "pump_freqs", "grid")),
        weak_freqs=tuple(_parse_freq_list(section, "weak_freqs", "grid")),
    )


def parse_pumps(section: dict) -> PumpConfig:
    _require_keys(section, {"powers_w", "phases_rad"}, "pumps")
    return PumpConfig(
        powers=tuple(section["powers_w"]),
        phases=tuple(section["phases_rad"]) if "phases_rad" in section else None,
    )


def parse_input(section: dict) -> InputState:
    kind = section.get("kind")
    if kind is None:
        raise ConfigError("input: missing kind")
    if kind not in KINDS:
        raise ConfigError(f"input: unknown kind {kind!r}; expected one of {list(KINDS)}")
    unread = sorted(set(section) - {"kind", *KINDS[kind].fields})
    if unread:
        raise ConfigError(f"input kind {kind!r} does not read field(s) {unread}; remove them")
    zeta = section.get("zeta")
    if isinstance(zeta, (list, tuple)):
        section = dict(section, zeta=complex(zeta[0], zeta[1]))
    return InputState(**section)


def load_config(path: str, command: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    _require_keys(cfg, CONFIG_KEYS[command], f"{command}'s config")
    return cfg


def _require_pump_count(cfg: dict, pumps: PumpConfig, command: str) -> None:
    if "n_modes" in cfg and int(cfg["n_modes"]) != pumps.n_modes:
        raise ConfigError(f"config key 'n_modes' is {cfg['n_modes']}, but {command} takes "
                          f"one mode per pump ({pumps.n_modes})")


def _require_ideal_transfer(cfg: dict, command: str) -> None:
    """Refuse a transfer route that sweep and synth, which run on the ideal transfer, would ignore."""
    kind = cfg.get("transfer", "ideal")
    if kind != "ideal":
        raise ConfigError(f"{command} uses the ideal transfer only; config key 'transfer' "
                          f"must be 'ideal', not {kind!r}")


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _header_lines(cfg: dict | None, seed) -> list[str]:
    lines = [f"# nwaybs {__version__}"]
    if cfg is not None:
        lines.append(f"# config_hash={config_hash(cfg)}")
    if seed is not None:
        lines.append(f"# seed={seed}")
    return lines


def write_csv(path, header_lines, columns, rows) -> None:
    out = sys.stdout if path in (None, "-") else open(path, "w", encoding="utf-8")
    try:
        for line in header_lines:
            print(line, file=out)
        print(",".join(columns), file=out)
        for row in rows:
            print(",".join(_fmt(v) for v in row), file=out)
    finally:
        if out is not sys.stdout:
            out.close()


# ---------------------------------------------------------------------------
# subcommands


def cmd_transfer(args, cfg: dict) -> int:
    kind = cfg.get("transfer", "ideal")
    if kind not in ("ideal", "general", "lossy"):
        raise ConfigError(f"unknown transfer kind {kind!r}")
    if kind == "ideal":
        _require_keys(cfg, {"n_modes", "transfer"}, "the ideal route of transfer")
        tm = ideal_transfer(int(cfg.get("n_modes", 3)), args.phi)
    else:
        profile = parse_profile(cfg["profile"])
        pumps = parse_pumps(cfg["pumps"])
        _require_pump_count(cfg, pumps, f"the {kind} route")
        mismatch = None
        if "grid" in cfg:
            grid = parse_grid(cfg["grid"])
            mismatch = nonlinear_mismatch(profile, grid, pumps.powers)
        if kind == "general":
            tm = general_transfer(profile, pumps, mismatch)
        else:
            # zero mismatch only: any other raises ValueError, so exit 1
            tm = lossy_transfer(profile, pumps, mismatch=mismatch)
    n = tm.n_modes
    columns = []
    for i in range(n):
        for j in range(n):
            columns += [f"re_{i + 1}{j + 1}", f"im_{i + 1}{j + 1}"]
    row = []
    for i in range(n):
        for j in range(n):
            row += [tm.entries[i, j].real, tm.entries[i, j].imag]
    write_csv(args.out, _header_lines(cfg, None), columns, [row])
    print(f"unitarity_residual={tm.unitarity_residual():.3e}")
    return EXIT_OK


def cmd_sweep(args, cfg: dict) -> int:
    _require_ideal_transfer(cfg, "sweep")
    n_modes = int(cfg.get("n_modes", 3))
    state = parse_input(cfg["input"])
    sweep = dict(cfg.get("sweep", {}))
    _require_keys(sweep, {"phi_min", "phi_max", "steps", "powers_w", "phase_scale_rad_per_w"},
                  "sweep")
    flags = {"phi_min": args.phi_min, "phi_max": args.phi_max, "steps": args.steps}
    if "powers_w" in sweep:
        # the powers give the phase grid, so the linear-grid settings would be ignored
        for key, flag in flags.items():
            if key in sweep:
                raise ConfigError(f"sweep: key {key!r} is ignored when powers_w is set; "
                                  "remove it")
            if flag is not None:
                raise ConfigError(f"--{key.replace('_', '-')} is ignored when sweep.powers_w "
                                  "is set")
        kappa = float(sweep["phase_scale_rad_per_w"])
        phis = kappa * np.asarray(sweep["powers_w"], dtype=float)
    else:
        if "phase_scale_rad_per_w" in sweep:
            raise ConfigError("sweep: key 'phase_scale_rad_per_w' is used only with "
                              "powers_w; remove it")
        sweep.update({key: flag for key, flag in flags.items() if flag is not None})
        steps = int(sweep.get("steps", 101))
        if steps < 2:
            raise ConfigError("sweep: steps must be >= 2")
        phi_min = float(sweep.get("phi_min", 0.0))
        phi_max = float(sweep.get("phi_max", 2.0 * math.pi / n_modes))
        if not phi_min < phi_max:
            raise ConfigError("sweep: need phi_min < phi_max")
        phis = np.linspace(phi_min, phi_max, steps)
    curve = correlation_curve(state, phis, n_modes=n_modes)
    columns = ["phi"] + [f"g1_{i}" for i in range(1, n_modes + 1)]
    pairs = sorted(curve.g2)
    columns += [f"g2_{i}{j}" for i, j in pairs]
    rows = np.column_stack([phis, curve.singles] + [curve.g2[pr] for pr in pairs])
    seed = cfg.get("seed") if args.seed is None else args.seed
    write_csv(args.out, _header_lines(cfg, seed), columns, rows)
    return EXIT_OK


def cmd_phasematch(args, cfg: dict) -> int:
    profile = parse_profile(cfg["profile"])
    grid = parse_grid(cfg["grid"])
    pumps = parse_pumps(cfg["pumps"])
    _require_pump_count(cfg, pumps, "phasematch")
    report = nonlinear_mismatch(profile, grid, pumps.powers)
    columns = ["channel", "delta_beta_per_m", "delta_k_per_m", "dk_L_over_pi", "negligible"]
    rows = []
    for n in range(report.n_modes):
        rows.append([
            n + 1,
            report.delta_beta[n],
            report.delta_k[n],
            report.delta_k[n] * profile.length / math.pi,
            bool(report.negligible[n]),
        ])
    write_csv(args.out, _header_lines(cfg, None), columns, rows)
    return EXIT_OK


def _oracle_classical_rows(cfg, tol):
    profile = parse_profile(cfg["profile"])
    grid = parse_grid(cfg["grid"])
    pumps = parse_pumps(cfg["pumps"])
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
    rows = []
    for k in range(n):
        err = float(np.max(np.abs(numeric[:, k] - analytic[:, k])) / seed_amp)
        rows.append([f"classical_seed_{k + 1}", err, err < tol])
    return rows


def _oracle_quantum_rows(cfg, tol):
    state = parse_input(cfg.get("input", {"kind": "squeezed_vacuum", "zeta": 0.4}))
    if state.kind != "squeezed_vacuum":
        raise ConfigError("quantum oracle check requires a squeezed_vacuum input")
    n_modes = int(cfg.get("n_modes", 3))
    t_pre = state.transmissions("pre_loss", n_modes)
    t_post = state.transmissions("post_loss", n_modes)
    rows = []
    phis = np.linspace(0.0, 2.0 * math.pi / n_modes, 25)
    ref = None
    for phi in phis:
        tm = ideal_transfer(n_modes, phi)
        chain = loss_chain(n_modes, state.zeta, tm.entries, t_pre, t_post, state.modes)
        _, _, raw = wick_moments(chain, ports=state.modes)
        if ref is None:
            ref = raw
        wick_g2 = raw / ref
        closed = g2_squeezed_full(state, tm, ports=state.modes)
        err = abs(wick_g2 - closed) / max(abs(closed), 1e-300)
        rows.append([f"quantum_phi_{phi:.6f}", err, err < tol])
    return rows


def cmd_oracle(args, cfg: dict) -> int:
    rows = []
    if args.check in ("classical", "all"):
        rows += _oracle_classical_rows(cfg, args.tol)
    if args.check in ("quantum", "all"):
        rows += _oracle_quantum_rows(cfg, args.tol)
    write_csv(args.out, _header_lines(cfg, None), ["case", "max_error", "pass"], rows)
    # np.max propagates NaN, so a non-finite error cannot report as a pass
    worst = float(np.max([row[1] for row in rows]))
    print(f"max_error={worst:.3e} tol={args.tol:g}")
    return EXIT_OK if worst < args.tol else EXIT_NUMERICAL


def _read_curve_csv(path):
    rows = []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = [c.strip() for c in line.split(",")]
                continue
            rows.append([float(v) for v in line.split(",")])
    if header is None or not rows:
        raise ConfigError("empty or malformed curve CSV")
    data = np.asarray(rows)
    return header, data


def cmd_fit(args) -> int:
    header, data = _read_curve_csv(args.data)
    cols = {name: data[:, i] for i, name in enumerate(header)}
    try:
        if args.model in ("pair", "coherent"):
            if "power_w" not in cols or "value" not in cols:
                raise ConfigError("fit CSV needs power_w and value columns")
            result = fit_phase_scale(cols["power_w"], cols["value"])
        elif args.model == "multiphoton":
            if "singles_rate" not in cols or "ratio" not in cols:
                raise ConfigError("fit CSV needs singles_rate and ratio columns")
            result = fit_zeta(cols["singles_rate"], cols["ratio"])
        else:
            raise ConfigError(f"unknown fit model {args.model!r}")
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        print(f"fit failed: {exc}", file=sys.stderr)
        return EXIT_FIT
    if not result.converged:
        print("fit did not converge", file=sys.stderr)
        return EXIT_FIT
    lines = _header_lines(None, args.seed)
    kv = {
        "phase_scale_rad_per_w": result.phase_scale,
        "zeta": result.zeta,
        "residual_norm": result.residual_norm,
        "converged": int(result.converged),
        "iterations": result.iterations,
        "seed": args.seed if args.seed is not None else "",
    }
    for i, s in enumerate(result.channel_scales):
        kv[f"channel_scale_{i + 1}"] = s
    out = sys.stdout if args.out in (None, "-") else open(args.out, "w", encoding="utf-8")
    try:
        for line in lines:
            print(line, file=out)
        for key, val in kv.items():
            if isinstance(val, float):
                print(f"{key}={_fmt(val)}", file=out)
            else:
                print(f"{key}={val}", file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"model={args.model} converged={result.converged}")
    return EXIT_OK


def cmd_synth(args, cfg: dict) -> int:
    _require_ideal_transfer(cfg, "synth")
    sweep = cfg.get("sweep", {})
    _require_keys(sweep, {"powers_w", "phase_scale_rad_per_w"}, "synth's sweep section")
    if "powers_w" not in sweep or "phase_scale_rad_per_w" not in sweep:
        raise ConfigError("synth needs sweep.powers_w and sweep.phase_scale_rad_per_w")
    state = parse_input(cfg["input"])
    seed = int(cfg.get("seed", 0)) if args.seed is None else args.seed
    n_modes = int(cfg.get("n_modes", 3))
    records = generate_synthetic(
        phase_scale=float(sweep["phase_scale_rad_per_w"]),
        powers=sweep["powers_w"],
        n_modes=n_modes,
        state=state,
        noise=args.noise,
        seed=seed,
    )
    columns = ["power_w"] + [f"singles_{i}" for i in range(1, n_modes + 1)]
    pairs = sorted(records[-1].coincidences)
    columns += [f"coinc_{i}{j}" for i, j in pairs] + [f"acc_{i}" for i in range(1, n_modes + 1)]
    rows = []
    for rec in records:
        row = [rec.pump_peak_power] + list(rec.singles)
        row += [rec.coincidences.get(pr, 0.0) for pr in pairs]
        row += list(rec.accidental_singles)
        rows.append(row)
    write_csv(args.out, _header_lines(cfg, seed), columns, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nwaybs", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # --seed only where it reaches the output: sweep, fit and synth
    def add_common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("transfer", help="emit a transfer matrix as CSV")
    add_common(p)
    p.add_argument("--phi", type=float, default=0.0)

    p = sub.add_parser("sweep", help="correlation curve versus nonlinear phase")
    add_common(p)
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.add_argument("--phi-min", type=float, default=None)
    p.add_argument("--phi-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--input", choices=_INPUT_KIND_ALIASES, default=None,
                   help="override config input kind")

    p = sub.add_parser("phasematch", help="per-channel mismatch table")
    add_common(p)

    p = sub.add_parser("oracle", help="closed-form vs numerical oracle comparison")
    add_common(p)
    p.add_argument("--check", choices=["classical", "quantum", "all"], default="all")
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("fit", help="fit model parameters from a curve CSV")
    p.add_argument("--data", required=True, help="input curve CSV")
    p.add_argument("--model", choices=["pair", "coherent", "multiphoton"], required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("synth", help="generate synthetic count records")
    add_common(p)
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.add_argument("--noise", type=float, default=0.0)

    return parser


_INPUT_KIND_ALIASES = {
    "single": "single_coherent",
    "dual": "dual_coherent",
    "pair": "photon_pair",
    "squeezed": "squeezed_vacuum",
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fit":
            return cmd_fit(args)
        cfg = load_config(args.config, args.command)
        if getattr(args, "input", None):
            # CLI override for the config's input kind
            cfg.setdefault("input", {})["kind"] = _INPUT_KIND_ALIASES[args.input]
        handler = {
            "transfer": cmd_transfer,
            "sweep": cmd_sweep,
            "phasematch": cmd_phasematch,
            "oracle": cmd_oracle,
            "synth": cmd_synth,
        }[args.command]
        return handler(args, cfg)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, np.linalg.LinAlgError, AssertionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
