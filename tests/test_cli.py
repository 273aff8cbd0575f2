"""Command-line interface tests: config parsing, outputs, exit codes."""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import nwaybs
from nwaybs import cli
from nwaybs.cli import (_INPUT_KIND_ALIASES, build_parser, check_section, config_hash,
                        input_section, lambda_nm_to_omega, main)
from nwaybs.quantum import INPUT_KINDS, InputState, correlation_curve
from nwaybs.transfer import ideal_transfer, p_coeff, q_coeff

W0 = 2 * math.pi * 233e12

BASE_CONFIG = {
    "n_modes": 3,
    "transfer": "ideal",
    "input": {"kind": "photon_pair", "modes": [1, 3]},
    "sweep": {"phi_min": 0.0, "phi_max": 2 * math.pi / 3, "steps": 11},
    "seed": 3,
}

# transfer uses neither input nor sweep, so it rejects BASE_CONFIG
TRANSFER_CONFIG = {"n_modes": 3, "transfer": "ideal"}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    header = None
    rows = []
    for line in open(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return header, np.asarray(rows)


class TestConfigParsing:
    def test_unknown_key_is_exit_1(self, tmp_path):
        cfg = dict(BASE_CONFIG)
        cfg["typo_key"] = 1
        rc = main(["sweep", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1

    def test_missing_file_is_exit_1(self, tmp_path):
        rc = main(["sweep", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1

    def test_malformed_json_is_exit_1(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = main(["sweep", "--config", str(p), "--out", str(tmp_path / "o.csv")])
        assert rc == 1

    def test_bad_sweep_bounds(self, tmp_path):
        cfg = dict(BASE_CONFIG)
        cfg["sweep"] = {"phi_min": 1.0, "phi_max": 0.5, "steps": 5}
        rc = main(["sweep", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1

    def test_lambda_nm_conversion_uses_exact_c(self):
        w = lambda_nm_to_omega(1285.0)
        assert w == 2 * math.pi * 299792458.0 / 1285.0e-9

    @pytest.mark.parametrize("command", ["transfer", "phasematch", "oracle"])
    def test_seed_flag_rejected_where_it_changes_nothing(self, tmp_path, command):
        with pytest.raises(SystemExit):
            main([command, "--config", write_config(tmp_path, BASE_CONFIG), "--seed", "5"])


class TestTransferCommand:
    def test_identity_at_zero_phi(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["transfer", "--config", write_config(tmp_path, TRANSFER_CONFIG),
                   "--out", str(out), "--phi", "0.0"])
        assert rc == 0
        header, rows = read_rows(out)
        vals = dict(zip(header, rows[0]))
        for i in range(1, 4):
            for j in range(1, 4):
                expect = 1.0 if i == j else 0.0
                assert vals[f"re_{i}{j}"] == pytest.approx(expect, abs=1e-15)
                assert vals[f"im_{i}{j}"] == pytest.approx(0.0, abs=1e-15)

    def test_tritter_point(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["transfer", "--config", write_config(tmp_path, TRANSFER_CONFIG),
                   "--out", str(out), "--phi", str(2 * math.pi / 9)])
        assert rc == 0
        header, rows = read_rows(out)
        vals = dict(zip(header, rows[0]))
        for i in range(1, 4):
            for j in range(1, 4):
                mag2 = vals[f"re_{i}{j}"] ** 2 + vals[f"im_{i}{j}"] ** 2
                assert mag2 == pytest.approx(1 / 3, abs=1e-12)

    def test_lossy_alpha_zero_matches_ideal_intensities(self, tmp_path):
        profile = {"omega0_rad_s": W0, "beta_coeffs_si": [0.0],
                   "gamma_per_w_m": 2e-3, "length_m": 100.0, "alpha_per_m": 0.0}
        pumps = {"powers_w": [0.5, 0.5, 0.5]}
        cfg_l = {"transfer": "lossy", "profile": profile, "pumps": pumps}
        out_l = tmp_path / "l.csv"
        assert main(["transfer", "--config", write_config(tmp_path, cfg_l, "l.json"),
                     "--out", str(out_l)]) == 0
        _, rows_l = read_rows(out_l)
        phi = 2 * 2e-3 * 100.0 * 0.5
        ideal_mag2 = [abs(p_coeff(3, phi)) ** 2 if i == j else abs(q_coeff(3, phi)) ** 2
                      for i in range(3) for j in range(3)]
        got_mag2 = [rows_l[0][2 * k] ** 2 + rows_l[0][2 * k + 1] ** 2 for k in range(9)]
        assert np.allclose(got_mag2, ideal_mag2, atol=1e-12)

    def test_header_has_version_and_hash(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["transfer", "--config", write_config(tmp_path, TRANSFER_CONFIG),
              "--out", str(out), "--phi", "0.1"])
        text = out.read_text()
        assert text.startswith("# nwaybs ")
        assert "# config_hash=" in text

    @staticmethod
    def route_cfg(route, n=3, alpha=0.0):
        cfg = {"transfer": route}
        if route != "ideal":
            offs = [(k + 1) * 1e12 for k in range(n)]
            cfg["profile"] = {"omega0_rad_s": W0, "beta_coeffs_si": [0.0],
                              "gamma_per_w_m": 2e-3, "length_m": 100.0, "alpha_per_m": alpha}
            cfg["pumps"] = {"powers_w": [0.5] * n}
            cfg["grid"] = {"pump_freqs_rad_s": [W0 + o for o in offs],
                           "weak_freqs_rad_s": [W0 - o for o in offs]}
        return cfg

    @pytest.mark.parametrize("route,key,value", [
        *[(route, key, value) for route in ("ideal", "general", "lossy")
          for key, value in (("input", BASE_CONFIG["input"]), ("sweep", BASE_CONFIG["sweep"]))],
        ("ideal", "profile", {"omega0_rad_s": W0, "beta_coeffs_si": [0.0],
                              "gamma_per_w_m": 2e-3, "length_m": 100.0}),
        ("ideal", "pumps", {"powers_w": [0.5, 0.5, 0.5]}),
        ("ideal", "grid", {"pump_freqs_rad_s": [W0 + 1e12, W0 + 2e12, W0 + 3e12],
                           "weak_freqs_rad_s": [W0 - 1e12, W0 - 2e12, W0 - 3e12]}),
        ("general", "n_modes", 5),
        ("lossy", "n_modes", 2),
        *[(route, "seed", 5) for route in ("ideal", "general", "lossy")],
    ])
    def test_unused_key_is_exit_1(self, tmp_path, capsys, route, key, value):
        cfg = self.route_cfg(route, alpha=2e-5 if route == "lossy" else 0.0)
        cfg[key] = value
        out = tmp_path / "t.csv"
        assert main(["transfer", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("route", ["general", "lossy"])
    def test_matching_n_modes_accepted(self, tmp_path, route):
        cfg = self.route_cfg(route, n=4)
        outs = []
        for name, extra in (("a", {}), ("b", {"n_modes": 4})):
            outs.append(tmp_path / f"{name}.csv")
            assert main(["transfer", "--config", write_config(tmp_path, dict(cfg, **extra)),
                         "--out", str(outs[-1])]) == 0
        assert read_rows(outs[0])[1].shape == (1, 32)
        assert np.array_equal(read_rows(outs[0])[1], read_rows(outs[1])[1])

    @pytest.mark.parametrize("route", ["general", "lossy"])
    def test_one_pump_is_exit_1(self, tmp_path, capsys, route):
        # one pump couples nothing: like n_modes 1 on the ideal route, it is refused
        cfg = self.route_cfg(route, alpha=2e-5 if route == "lossy" else 0.0)
        cfg["pumps"] = {"powers_w": [0.5]}
        del cfg["grid"]
        out = tmp_path / "t.csv"
        assert main(["transfer", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        assert "key 'powers_w' must be a list of at least 2" in capsys.readouterr().err
        assert not out.exists()

    def test_lossy_uses_grid_mismatch(self, tmp_path, capsys):
        # the lossy closed form models zero mismatch only, so a grid that
        # gives a non-zero mismatch is refused rather than ignored
        cfg = self.route_cfg("lossy", alpha=2e-5)
        cfg["profile"]["beta_coeffs_si"] = [0.0, 0.0, 2e-26]
        rc = main(["transfer", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "mismatch" in capsys.readouterr().err


class TestSweepCommand:
    def test_pair_sweep_minimum(self, tmp_path):
        cfg = dict(BASE_CONFIG)
        cfg["sweep"] = {"phi_min": 0.0, "phi_max": 2 * math.pi / 3, "steps": 2001}
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        header, rows = read_rows(out)
        g13 = rows[:, header.index("g2_13")]
        assert abs(g13.min() - 0.1) < 1e-4

    def test_dual_sweep_matches_closed_form(self, tmp_path):
        cfg = dict(BASE_CONFIG)
        cfg["input"] = {"kind": "dual_coherent", "modes": [1, 3]}
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        header, rows = read_rows(out)
        phi = rows[:, header.index("phi")]
        g13 = rows[:, header.index("g2_13")]
        q2 = np.abs(q_coeff(3, phi)) ** 2
        assert np.allclose(g13, (1 - q2) ** 2, atol=1e-12)

    def test_single_input_g2_not_applicable(self, tmp_path):
        cfg = dict(BASE_CONFIG)
        cfg["input"] = {"kind": "single_coherent", "modes": [1]}
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert np.isnan(rows[:, header.index("g2_13")]).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("input_section,sweep,at", [
        ({"kind": "photon_pair"}, {"powers_w": [0.1, 1e200], "phase_scale_rad_per_w": 1e200},
         "pump power 1e+200 W"),
        ({"kind": "single_coherent"}, {"powers_w": [0.1, 1e200, 0.5],
                                       "phase_scale_rad_per_w": 1e200}, "pump power 1e+200 W"),
        ({"kind": "dual_coherent", "amplitude": 1e150}, {"powers_w": [0.1, 0.5],
                                                         "phase_scale_rad_per_w": 1.0},
         "pump power 0.1 W"),
        ({"kind": "dual_coherent", "amplitude": 1e150}, {"steps": 5}, "phi 0"),
    ], ids=["phase-inf", "single-phase-inf", "dual-coincidence-inf", "dual-phi-grid"])
    def test_overflowing_model_is_exit_1(self, tmp_path, capsys, input_section, sweep, at):
        cfg = {"n_modes": 3, "input": input_section, "sweep": sweep}
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        assert (f"input error: the model rates at {at} are not finite: the phase, the input or "
                "a scale overflows" in capsys.readouterr().err)
        assert not out.exists()

    def test_input_override_flag(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", write_config(tmp_path, BASE_CONFIG),
                     "--out", str(out), "--input", "dual"]) == 0
        header, rows = read_rows(out)
        phi = rows[:, header.index("phi")]
        g13 = rows[:, header.index("g2_13")]
        q2 = np.abs(q_coeff(3, phi)) ** 2
        assert np.allclose(g13, (1 - q2) ** 2, atol=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfgp = write_config(tmp_path, BASE_CONFIG)
        assert main(["sweep", "--config", cfgp, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfgp, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_input_override_leaves_no_files(self, tmp_path, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        cfgp = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", cfgp, "--out", str(out), "--input", "dual"]) == 0
        assert list(scratch.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "s.csv", "tmp"]

    def test_threads_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--config", write_config(tmp_path, BASE_CONFIG), "--threads", "2"])

    @pytest.mark.parametrize("extra,flags,name", [
        ({"phi_min": 0.1}, [], "'phi_min'"),
        ({"phi_max": 2.0}, [], "'phi_max'"),
        ({"steps": 50}, [], "'steps'"),
        ({"phi_min": 1.0, "phi_max": 0.5}, [], "'phi_m"),
    ])
    def test_phase_grid_settings_rejected_with_powers(self, tmp_path, capsys, extra, flags,
                                                      name):
        # sweep.powers_w gives the phase grid, so these would be ignored
        sweep = dict({"powers_w": [0.2, 0.5], "phase_scale_rad_per_w": 1.5}, **extra)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", write_config(tmp_path, dict(BASE_CONFIG, sweep=sweep)),
                     "--out", str(out), *flags]) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_phase_scale_without_powers_is_exit_1(self, tmp_path, capsys):
        sweep = dict(BASE_CONFIG["sweep"], phase_scale_rad_per_w=1.5)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", write_config(tmp_path, dict(BASE_CONFIG, sweep=sweep)),
                     "--out", str(out)]) == 1
        assert "'phase_scale_rad_per_w'" in capsys.readouterr().err
        assert not out.exists()


# keys that sweep and synth would ignore, since both run on the ideal transfer
IGNORED_KEYS = [
    pytest.param("profile", {"omega0_rad_s": W0, "beta_coeffs_si": [0.0],
                             "gamma_per_w_m": 2e-3, "length_m": 100.0}, id="profile"),
    pytest.param("pumps", {"powers_w": [0.5, 0.5, 0.5]}, id="pumps"),
    pytest.param("grid", {"pump_freqs_rad_s": [W0 + 1e12, W0 + 2e12, W0 + 3e12],
                          "weak_freqs_rad_s": [W0 - 1e12, W0 - 2e12, W0 - 3e12]}, id="grid"),
    pytest.param("transfer", "general", id="transfer-general"),
    pytest.param("transfer", "lossy", id="transfer-lossy"),
]


@pytest.mark.parametrize("command", ["sweep", "synth"])
@pytest.mark.parametrize("key,value", IGNORED_KEYS)
def test_ignored_config_key_is_exit_1(tmp_path, capsys, command, key, value):
    cfg = dict(BASE_CONFIG, sweep={"powers_w": [0.2, 0.5], "phase_scale_rad_per_w": 1.5})
    cfg[key] = value
    out = tmp_path / "o.csv"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


LOSSES = [0.9, 1.0, 0.8]
# (kind, a field that kind does not read, a value for it)
UNREAD_INPUT_FIELDS = [
    ("single_coherent", "zeta", 0.3), ("single_coherent", "phase_averaged", False),
    ("single_coherent", "pre_loss", LOSSES), ("single_coherent", "post_loss", LOSSES),
    ("dual_coherent", "zeta", 0.3), ("dual_coherent", "pre_loss", LOSSES),
    ("dual_coherent", "post_loss", LOSSES),
    ("photon_pair", "amplitude", 7.0), ("photon_pair", "zeta", 0.3),
    ("photon_pair", "phase_averaged", True), ("photon_pair", "pre_loss", LOSSES),
    ("photon_pair", "post_loss", LOSSES),
    ("squeezed_vacuum", "amplitude", 7.0), ("squeezed_vacuum", "phase_averaged", False),
]
# every field each kind reads
FULL_INPUTS = [
    {"kind": "single_coherent", "modes": [2], "amplitude": 1.5},
    {"kind": "dual_coherent", "modes": [1, 3], "amplitude": 1.5, "phase_averaged": False},
    {"kind": "photon_pair", "modes": [1, 2]},
    {"kind": "squeezed_vacuum", "modes": [1, 3], "zeta": [0.3, 0.1], "pre_loss": LOSSES,
     "post_loss": LOSSES},
]
POWER_SWEEP = {"powers_w": [0.2, 0.5], "phase_scale_rad_per_w": 1.5}


@pytest.mark.parametrize("command", ["sweep", "synth"])
@pytest.mark.parametrize("kind,field,value", UNREAD_INPUT_FIELDS)
def test_unread_input_field_is_exit_1(tmp_path, capsys, command, kind, field, value):
    section = {"kind": kind, "modes": [1] if kind == "single_coherent" else [1, 3], field: value}
    cfg = dict(BASE_CONFIG, input=section, sweep=POWER_SWEEP)
    out = tmp_path / "o.csv"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert repr(field) in err and repr(kind) in err
    assert not out.exists()


def test_unread_input_fields_named_together(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, sweep=POWER_SWEEP,
               input={"kind": "photon_pair", "modes": [1, 3], "amplitude": 7, "zeta": 0.3})
    assert main(["synth", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o.csv")]) == 1
    assert "['amplitude', 'zeta']" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "synth"])
@pytest.mark.parametrize("section", FULL_INPUTS, ids=lambda s: s["kind"])
def test_every_read_input_field_accepted(tmp_path, command, section):
    cfg = dict(BASE_CONFIG, input=section, sweep=POWER_SWEEP)
    assert main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o.csv")]) == 0


@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_input_kind_default_modes(kind):
    state = check_section({"kind": kind}, input_section(*INPUT_KINDS), "input")
    assert state == InputState(kind=kind)
    assert state.modes == ((1,) if kind == "single_coherent" else (1, 3))


def test_input_aliases_cover_every_kind():
    assert sorted(_INPUT_KIND_ALIASES.values()) == sorted(INPUT_KINDS)


# inputs that carry no light: the zero-phase coincidence that normalizes g2 is 0
NO_LIGHT_INPUTS = [
    {"kind": "dual_coherent", "modes": [1, 3], "amplitude": 0},
    {"kind": "squeezed_vacuum", "modes": [1, 3], "zeta": 0},
]


@pytest.mark.parametrize("command", ["sweep", "synth"])
@pytest.mark.parametrize("section", NO_LIGHT_INPUTS, ids=lambda s: s["kind"])
def test_input_without_light_is_exit_1(tmp_path, capsys, command, section):
    cfg = dict(BASE_CONFIG, input=section)
    if command == "synth":
        cfg["sweep"] = POWER_SWEEP
    out = tmp_path / "o.csv"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    assert "vanishes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("bogus", 1), ("steps", 50), ("phi_min", 0.0),
                                       ("phi_max", 1.0)])
def test_synth_unread_sweep_key_is_exit_1(tmp_path, capsys, key, value):
    cfg = dict(BASE_CONFIG, sweep=dict(POWER_SWEEP, **{key: value}))
    out = tmp_path / "o.csv"
    assert main(["synth", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "synth"])
def test_ideal_transfer_key_accepted(tmp_path, command):
    cfg = dict(BASE_CONFIG, sweep={"powers_w": [0.2, 0.5], "phase_scale_rad_per_w": 1.5})
    assert cfg["transfer"] == "ideal"
    assert main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o.csv")]) == 0


class TestPhasematchCommand:
    @staticmethod
    def symmetric_cfg():
        zg = W0
        offs = [2 * math.pi * 0.5e12, 2 * math.pi * 1.0e12, 2 * math.pi * 1.7e12]
        return {
            "profile": {"omega0_rad_s": W0, "beta_coeffs_si": [0.0, 0.0, 0.0, 1e-41],
                        "gamma_per_w_m": 2e-3, "length_m": 100.0},
            "grid": {"pump_freqs_rad_s": [zg + o for o in offs],
                     "weak_freqs_rad_s": [zg - o for o in offs]},
            "pumps": {"powers_w": [0.5, 0.5, 0.5]},
        }

    def test_symmetric_grid_all_negligible(self, tmp_path):
        cfg = self.symmetric_cfg()
        out = tmp_path / "p.csv"
        assert main(["phasematch", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert rows.shape[0] == 3
        assert all(rows[:, header.index("negligible")] == 1.0)

    @pytest.mark.parametrize("key,value", [
        ("input", BASE_CONFIG["input"]), ("sweep", BASE_CONFIG["sweep"]),
        ("transfer", "lossy"), ("seed", 5), ("n_modes", 7),
    ])
    def test_unused_key_is_exit_1(self, tmp_path, capsys, key, value):
        cfg = dict(self.symmetric_cfg(), **{key: value})
        out = tmp_path / "p.csv"
        assert main(["phasematch", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 1
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_matching_n_modes_accepted(self, tmp_path):
        rows = []
        for name, extra in (("a", {}), ("b", {"n_modes": 3})):
            out = tmp_path / f"{name}.csv"
            cfg = dict(self.symmetric_cfg(), **extra)
            assert main(["phasematch", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)]) == 0
            rows.append(read_rows(out))
        assert rows[0][0] == rows[1][0]
        assert np.array_equal(rows[0][1], rows[1][1])

    def test_detuned_pump_flags_false(self, tmp_path):
        zg = W0
        offs = [2 * math.pi * 0.5e12, 2 * math.pi * 1.0e12]
        pump_freqs = [zg + offs[0], zg + offs[1] + 2 * math.pi * 0.4e12]
        cfg = {
            "profile": {"omega0_rad_s": W0, "beta_coeffs_si": [0.0, 0.0, 2e-26],
                        "gamma_per_w_m": 2e-3, "length_m": 100.0},
            "grid": {"pump_freqs_rad_s": pump_freqs,
                     "weak_freqs_rad_s": [zg - o for o in offs]},
            "pumps": {"powers_w": [0.5, 0.5]},
        }
        out = tmp_path / "p.csv"
        assert main(["phasematch", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        header, rows = read_rows(out)
        flags = rows[:, header.index("negligible")]
        assert flags[0] == 1.0
        assert flags[1] == 0.0


class TestOracleCommand:
    # each check reads its own keys: classical the physics, quantum the input
    @pytest.fixture()
    def physics_cfg(self, tmp_path):
        zg = W0
        offs = [2 * math.pi * 0.5e12, 2 * math.pi * 1.0e12, 2 * math.pi * 1.7e12]
        cfg = {
            "profile": {"omega0_rad_s": W0, "beta_coeffs_si": [0.0],
                        "gamma_per_w_m": 2e-3, "length_m": 100.0},
            "grid": {"pump_freqs_rad_s": [zg + o for o in offs],
                     "weak_freqs_rad_s": [zg - o for o in offs]},
            "pumps": {"powers_w": [0.5, 0.5, 0.5]},
        }
        return write_config(tmp_path, cfg, "physics.json")

    @pytest.fixture()
    def input_cfg(self, tmp_path):
        cfg = {"input": {"kind": "squeezed_vacuum", "modes": [1, 3], "zeta": 0.4}}
        return write_config(tmp_path, cfg, "input.json")

    def test_classical_passes_at_1e6(self, tmp_path, physics_cfg):
        rc = main(["oracle", "--config", physics_cfg, "--check", "classical",
                   "--tol", "1e-6", "--out", str(tmp_path / "o.csv")])
        assert rc == 0

    def test_quantum_passes_at_1e10(self, tmp_path, input_cfg):
        rc = main(["oracle", "--config", input_cfg, "--check", "quantum",
                   "--tol", "1e-10", "--out", str(tmp_path / "o.csv")])
        assert rc == 0

    @pytest.mark.parametrize("zeta", [7, 8])
    def test_strong_squeezing_passes(self, tmp_path, capsys, zeta):
        # the composed map's entries grow as cosh^2|zeta|, and its symplectic
        # residual with them: relative to them it is rounding, not an assembly bug
        cfg = {"input": {"kind": "squeezed_vacuum", "modes": [1, 3], "zeta": zeta}}
        out = tmp_path / "o.csv"
        assert main(["oracle", "--config", write_config(tmp_path, cfg), "--check", "quantum",
                     "--tol", "1e-10", "--out", str(out)]) == 0
        assert "assembly bug" not in capsys.readouterr().err
        assert out.exists()

    def test_impossible_tolerance_fails(self, tmp_path, input_cfg):
        rc = main(["oracle", "--config", input_cfg, "--check", "quantum",
                   "--tol", "1e-18", "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_quantum_checks_the_g2_that_sweep_writes(self, tmp_path, input_cfg, monkeypatch):
        # a curve off by 1e-6 fails at 1e-10 only if the oracle reads the curve
        curves = []

        def scaled_curve(*args, **kwargs):
            curve = correlation_curve(*args, **kwargs)
            curve.g2.update({pair: g2 * (1 + 1e-6) for pair, g2 in curve.g2.items()})
            curves.append(curve)
            return curve

        monkeypatch.setattr(cli, "correlation_curve", scaled_curve)
        rc = main(["oracle", "--config", input_cfg, "--check", "quantum",
                   "--tol", "1e-10", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert len(curves) == 1 and len(curves[0].phi) == 25

    def test_quantum_builds_one_transfer_stack(self, tmp_path, input_cfg, monkeypatch):
        phases = []

        def recorded_transfer(n_modes, phi):
            phases.append(np.shape(phi))
            return ideal_transfer(n_modes, phi)

        monkeypatch.setattr(cli, "ideal_transfer", recorded_transfer)
        assert main(["oracle", "--config", input_cfg, "--check", "quantum",
                     "--out", str(tmp_path / "o.csv")]) == 0
        assert phases == [(26,)]

    @pytest.mark.parametrize("check,unread", [
        ("quantum", "['seed', 'sweep', 'transfer']"),
        ("classical", "['input', 'n_modes', 'seed', 'sweep', 'transfer']"),
        ("all", "['seed', 'sweep', 'transfer']"),
    ], ids=["quantum", "classical", "all"])
    def test_unread_keys_are_exit_1(self, tmp_path, capsys, check, unread):
        # oracle reads neither seed nor sweep, and takes its transfer route from
        # the profile, not from the transfer key; the classical check reads
        # neither n_modes nor input
        cfg = {"n_modes": 3, "seed": 5, "sweep": {"steps": 7}, "transfer": "lossy",
               "input": {"kind": "squeezed_vacuum", "modes": [1, 3], "zeta": 0.4}}
        out = tmp_path / "o.csv"
        assert main(["oracle", "--config", write_config(tmp_path, cfg), "--check", check,
                     "--out", str(out)]) == 1
        assert unread in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("profile", {"omega0_rad_s": W0, "beta_coeffs_si": [0.0], "gamma_per_w_m": 2e-3,
                     "length_m": 100.0}),
        ("pumps", {"powers_w": [0.5, 0.5, 0.5]}),
        ("grid", {"pump_freqs_rad_s": [W0 + 1e12, W0 + 2e12],
                  "weak_freqs_rad_s": [W0 - 1e12, W0 - 2e12]}),
    ])
    def test_quantum_rejects_physics_keys(self, tmp_path, capsys, key, value):
        cfg = {"input": {"kind": "squeezed_vacuum", "zeta": 0.4}, key: value}
        out = tmp_path / "o.csv"
        assert main(["oracle", "--config", write_config(tmp_path, cfg), "--check", "quantum",
                     "--out", str(out)]) == 1
        assert f"[{key!r}]" in capsys.readouterr().err
        assert not out.exists()

    def test_quantum_needs_squeezed_vacuum(self, tmp_path, capsys):
        cfg = {"input": {"kind": "photon_pair", "modes": [1, 3]}}
        assert main(["oracle", "--config", write_config(tmp_path, cfg), "--check", "quantum",
                     "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert "'kind'" in err and "['squeezed_vacuum']" in err

    @staticmethod
    def classical_cfg(tmp_path, powers, alpha=0.0):
        offs = [1e12, 2e12, 3e12]
        cfg = {
            "profile": {"omega0_rad_s": W0, "beta_coeffs_si": [0.0],
                        "gamma_per_w_m": 2e-3, "length_m": 100.0, "alpha_per_m": alpha},
            "grid": {"pump_freqs_rad_s": [W0 + o for o in offs],
                     "weak_freqs_rad_s": [W0 - o for o in offs]},
            "pumps": {"powers_w": powers},
        }
        return write_config(tmp_path, cfg)

    @staticmethod
    def read_oracle_rows(path):
        """(max_error, pass) of each case row of an oracle CSV."""
        lines = [l for l in open(path).read().splitlines() if l and not l.startswith("#")]
        assert lines[0] == "case,max_error,pass"
        return [(float(err), int(ok)) for _, err, ok in (l.split(",") for l in lines[1:])]

    @pytest.mark.parametrize("check", ["classical", "all"])
    def test_nan_error_is_a_failure(self, tmp_path, capsys, monkeypatch, check):
        # an integrator that returns NaN makes every classical error NaN
        monkeypatch.setattr("nwaybs.propagation.integrate_weak",
                            lambda *args: np.full((3, 3), np.nan, dtype=complex))
        cfgp = self.classical_cfg(tmp_path, [0.5, 0.5, 0.5])
        out = tmp_path / "o.csv"
        rc = main(["oracle", "--config", cfgp, "--check", check, "--out", str(out)])
        assert rc == 2
        assert "max_error=nan" in capsys.readouterr().out
        classical = self.read_oracle_rows(out)[:3]
        assert all(math.isnan(err) and ok == 0 for err, ok in classical)

    def test_all_runs_the_quantum_check_at_the_pump_count(self, tmp_path, capsys):
        # without n_modes both checks take N from the five pumps: five
        # classical rows, and quantum rows from phi = 0 to 2 pi / 5
        offs = [k * 1e12 for k in range(1, 6)]
        cfg = {
            "profile": {"omega0_rad_s": W0, "beta_coeffs_si": [0.0],
                        "gamma_per_w_m": 2e-3, "length_m": 100.0},
            "grid": {"pump_freqs_rad_s": [W0 + o for o in offs],
                     "weak_freqs_rad_s": [W0 - o for o in offs]},
            "pumps": {"powers_w": [0.5] * 5},
            "input": {"kind": "squeezed_vacuum", "zeta": 0.4},
        }
        out = tmp_path / "o.csv"
        rc = main(["oracle", "--config", write_config(tmp_path, cfg), "--check", "all",
                   "--out", str(out)])
        assert rc == 0, capsys.readouterr()
        names = [l.split(",")[0] for l in out.read_text().splitlines()
                 if l and not l.startswith("#")][1:]
        assert names[:5] == [f"classical_seed_{k}" for k in range(1, 6)]
        assert names[5] == "quantum_phi_0.000000"
        assert names[-1] == f"quantum_phi_{2 * math.pi / 5:.6f}" == "quantum_phi_1.256637"
        assert len(names) == 5 + 25
        # so a loss list is one transmission per pump there, not per one of 3 modes
        cfg["input"]["pre_loss"] = [0.9, 0.8, 0.7]
        out.unlink()
        rc = main(["oracle", "--config", write_config(tmp_path, cfg), "--check", "all",
                   "--out", str(out)])
        assert rc == 1
        assert "pre_loss must supply one transmission per channel" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("powers", [[0.5, 0.0, 0.5], [0.0, 0.0, 0.0]])
    def test_pump_switched_off_passes(self, tmp_path, capsys, powers):
        # the seed is sized by the weakest pump that is on, or 1 with none on
        out = tmp_path / "o.csv"
        rc = main(["oracle", "--config", self.classical_cfg(tmp_path, powers),
                   "--check", "classical", "--out", str(out)])
        assert rc == 0, capsys.readouterr()
        assert [ok for _, ok in self.read_oracle_rows(out)] == [1, 1, 1]

    def test_lossy_operating_point_passes(self, tmp_path, capsys):
        # the tier-1 lossy operating point of test_propagation
        cfgp = self.classical_cfg(tmp_path, [0.7, 0.7, 0.7], alpha=4.950556e-5)
        out = tmp_path / "o.csv"
        rc = main(["oracle", "--config", cfgp, "--check", "classical", "--tol", "1e-9",
                   "--out", str(out)])
        assert rc == 0, capsys.readouterr()
        assert [ok for _, ok in self.read_oracle_rows(out)] == [1, 1, 1]

    def test_lossy_negligible_mismatch_is_exit_1(self, tmp_path, capsys):
        # beta4 = 1e-55 on the symmetric grid: every |dk| L is negligible but
        # not zero, and the lossy closed form models zero mismatch only
        offs = [2 * math.pi * f for f in (0.5e12, 1.0e12, 1.7e12)]
        cfg = {
            "profile": {"omega0_rad_s": W0, "beta_coeffs_si": [0.0, 0.0, 0.0, 0.0, 1e-55],
                        "gamma_per_w_m": 2e-3, "length_m": 100.0,
                        "alpha_per_m": 4.950556e-5},
            "grid": {"pump_freqs_rad_s": [W0 + o for o in offs],
                     "weak_freqs_rad_s": [W0 - o for o in offs]},
            "pumps": {"powers_w": [0.7, 0.7, 0.7]},
        }
        rc = main(["oracle", "--config", write_config(tmp_path, cfg), "--check", "classical",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("n_modes, exit_code", [(5, 1), (2, 1), (3, 0)])
    def test_all_needs_one_mode_per_pump(self, tmp_path, capsys, n_modes, exit_code):
        # both checks must run the same N: the classical one runs the pump count
        cfg = json.loads(open(self.classical_cfg(tmp_path, [0.5, 0.5, 0.5])).read())
        cfg.update(n_modes=n_modes, input={"kind": "squeezed_vacuum", "modes": [1, 2],
                                           "zeta": 0.4})
        out = tmp_path / "o.csv"
        assert main(["oracle", "--config", write_config(tmp_path, cfg), "--check", "all",
                     "--out", str(out)]) == exit_code
        if exit_code:
            err = capsys.readouterr().err
            assert f"'n_modes' is {n_modes}" in err and "one mode per pump (3)" in err
            assert not out.exists()
        else:
            # an n_modes that repeats the pump count changes no row
            del cfg["n_modes"]
            bare = tmp_path / "bare.csv"
            assert main(["oracle", "--config", write_config(tmp_path, cfg), "--check", "all",
                         "--out", str(bare)]) == 0
            bodies = [[l for l in path.read_text().splitlines() if not l.startswith("#")]
                      for path in (out, bare)]
            assert bodies[0] == bodies[1] and len(bodies[0]) == 1 + 3 + 25

    def test_lossy_unequal_powers_is_exit_1(self, tmp_path, capsys):
        cfgp = self.classical_cfg(tmp_path, [0.7, 0.5, 0.7], alpha=4.950556e-5)
        rc = main(["oracle", "--config", cfgp, "--check", "classical",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "equal pump powers" in capsys.readouterr().err


MALFORMED_BASES = {
    "pair": BASE_CONFIG,
    "dual": dict(BASE_CONFIG, input={"kind": "dual_coherent", "modes": [1, 3]}),
    "squeezed": dict(BASE_CONFIG, input={"kind": "squeezed_vacuum", "modes": [1, 3],
                                         "zeta": 0.4}),
    "powers": dict(BASE_CONFIG, sweep=POWER_SWEEP),
    "physics": TestPhasematchCommand.symmetric_cfg(),
    "general": TestTransferCommand.route_cfg("general"),
    "wavelengths": dict(TestPhasematchCommand.symmetric_cfg(),
                        grid={"pump_freqs_lambda_nm": [1280.0, 1275.5, 1271.0],
                              "weak_freqs_lambda_nm": [1293.0, 1297.5, 1302.0]}),
}
# (subcommand, base config, path of the mistyped key, its value)
MALFORMED = [
    ("sweep", "squeezed", ("input", "zeta"), [0.3, 0.1, 9.0]),
    ("sweep", "squeezed", ("input", "zeta"), [0.3]),
    ("sweep", "dual", ("input", "phase_averaged"), "false"),
    ("sweep", "pair", ("input", "modes"), "13"),
    ("sweep", "pair", ("input", "modes"), [1.9, 3]),
    ("sweep", "squeezed", ("input", "pre_loss"), "111"),
    ("sweep", "dual", ("input", "amplitude"), math.nan),
    ("sweep", "pair", ("input",), [1]),
    ("sweep", "pair", ("n_modes",), 3.7),
    ("sweep", "pair", ("seed",), "abc"),
    ("sweep", "pair", ("sweep",), None),
    ("sweep", "pair", ("sweep", "steps"), 11.9),
    ("sweep", "pair", ("sweep", "steps"), 1),
    ("sweep", "pair", ("sweep", "phi_max"), math.inf),
    ("sweep", "powers", ("sweep", "powers_w"), "555"),
    ("sweep", "powers", ("sweep", "powers_w"), [0.2, math.nan]),
    ("synth", "powers", ("sweep", "powers_w"), [0.2, math.nan]),
    *[(command, "powers", ("sweep", "powers_w"), powers)
      for command in ("sweep", "synth") for powers in ([], [-0.5, 0.2])],
    ("phasematch", "physics", ("pumps", "powers_w"), "555"),
    ("phasematch", "physics", ("profile", "beta_coeffs_si"), "0"),
    ("phasematch", "physics", ("profile", "length_m"), 10**400),
    ("phasematch", "physics", ("n_modes",), True),
    # the _rad_s and _lambda_nm forms of one list fill the same field
    ("phasematch", "physics", ("grid", "pump_freqs_lambda_nm"), [1280.0, 1275.5, 1271.0]),
    # a wavelength whose frequency would divide by zero: 0 nm, and 1e-320 nm, whose metres
    # underflow to 0
    ("phasematch", "wavelengths", ("grid", "pump_freqs_lambda_nm"), [0, 1540, 1545]),
    ("phasematch", "wavelengths", ("grid", "pump_freqs_lambda_nm"), [1e-320, 1540, 1545]),
]


@pytest.mark.parametrize("command,base,path,value", MALFORMED,
                         ids=[f"{c}-{'.'.join(p)}={json.dumps(v)[:16]}" for c, _, p, v in MALFORMED])
def test_mistyped_config_value_is_exit_1(tmp_path, capsys, command, base, path, value):
    cfg = json.loads(json.dumps(MALFORMED_BASES[base]))
    *parents, key = path
    section = cfg
    for name in parents:
        section = section[name]
    section[key] = value
    out = tmp_path / "o.csv"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


# values of the right type that a dataclass rejects: (subcommand, base, path, value)
OUT_OF_RANGE = [
    ("phasematch", "physics", ("profile", "length_m"), -1),
    ("phasematch", "physics", ("profile", "gamma_per_w_m"), -1),
    ("phasematch", "physics", ("pumps", "powers_w"), [0.5, -0.5, 0.5]),
    ("phasematch", "physics", ("grid", "pump_freqs_rad_s"), [W0 + 1e12, W0 + 1e12, W0 + 3e12]),
    ("sweep", "squeezed", ("input", "pre_loss"), [1.5, 1, 1]),
    ("sweep", "pair", ("input", "modes"), [0, 1]),
]


@pytest.mark.parametrize("command,base,path,value", OUT_OF_RANGE,
                         ids=[".".join(p) for _, _, p, _ in OUT_OF_RANGE])
def test_out_of_range_value_names_its_section(tmp_path, capsys, command, base, path, value):
    cfg = json.loads(json.dumps(MALFORMED_BASES[base]))
    cfg[path[0]][path[1]] = value
    out = tmp_path / "o.csv"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    assert f"config error: section {path[0]!r} of the config of {command}" in \
        capsys.readouterr().err
    assert not out.exists()


# physics keys an output would ignore: (subcommand, base, path, value, hint in the message);
# general_transfer has no loss term, and nonlinear_mismatch reads neither loss nor pump phases
UNREAD_PHYSICS = [
    ("transfer", "general", ("profile", "alpha_per_m"), 2e-5, "lossy route"),
    ("phasematch", "physics", ("profile", "alpha_per_m"), 3e-4, ""),
    ("phasematch", "physics", ("pumps", "phases_rad"), [0.0, 1.1, 2.5], ""),
]


@pytest.mark.parametrize("command,base,path,value,hint", UNREAD_PHYSICS,
                         ids=[f"{c}-{'.'.join(p)}" for c, _, p, _, _ in UNREAD_PHYSICS])
def test_physics_key_the_output_ignores_is_exit_1(tmp_path, capsys, command, base, path, value,
                                                  hint):
    cfg = json.loads(json.dumps(MALFORMED_BASES[base]))
    cfg[path[0]][path[1]] = value
    out = tmp_path / "o.csv"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert repr(path[1]) in err and hint in err
    assert not out.exists()


@pytest.mark.parametrize("command,base", [("transfer", "general"), ("phasematch", "physics")])
@pytest.mark.parametrize("alpha", [0, 0.0])
def test_zero_loss_accepted_where_loss_is_not_read(tmp_path, command, base, alpha):
    cfg = json.loads(json.dumps(MALFORMED_BASES[base]))
    cfg["profile"]["alpha_per_m"] = alpha
    assert main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o.csv")]) == 0


# inputs that reach an error path of main: (subcommand, flags, the file its first
# flag names, exit code, a part of the message); none writes an output file
ERROR_PATHS = [
    pytest.param("transfer", ["--config"], json.dumps({"transfer": "general",
                                                       "pumps": {"powers_w": [0.5, 0.5]}}),
                 1, "needs key 'profile'", id="general-route-without-profile"),
    pytest.param("sweep", ["--config"], "[1, 2]", 1, "must be a JSON object",
                 id="config-not-an-object"),
    pytest.param("fit", ["--data", "--model", "pair"], "singles_rate,ratio\n0.1,0.2\n0.2,0.3\n",
                 1, "needs power_w and value columns", id="fit-pair-without-its-columns"),
    pytest.param("fit", ["--data", "--model", "multiphoton"], "power_w,value\n0.1,0.2\n0.2,0.3\n",
                 1, "needs singles_rate and ratio columns",
                 id="fit-multiphoton-without-its-columns"),
    # a nonlinear phase of 100 rad: RK4 at L/2000 fails its step-halving check
    pytest.param("oracle", ["--config", "--check", "classical"],
                 json.dumps({"profile": {"omega0_rad_s": W0, "beta_coeffs_si": [0.0],
                                         "gamma_per_w_m": 1.0, "length_m": 100.0},
                             "grid": {"pump_freqs_rad_s": [W0 + 1e12, W0 + 2e12, W0 + 3e12],
                                      "weak_freqs_rad_s": [W0 - 1e12, W0 - 2e12, W0 - 3e12]},
                             "pumps": {"powers_w": [1.0, 1.0, 1.0]}}),
                 2, "numerical failure", id="oracle-richardson-fails"),
]


@pytest.mark.parametrize("command,flags,text,code,message", ERROR_PATHS)
def test_error_path_writes_nothing(tmp_path, capsys, command, flags, text, code, message):
    path = tmp_path / "input"
    path.write_text(text)
    out = tmp_path / "o.csv"
    assert main([command, flags[0], str(path), *flags[1:], "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


NO_LIGHT = ("squeezed_vacuum input carries no light: its zero-phase coincidence vanishes; "
            "cannot normalize")
# configs the schema accepts but that cannot be computed: (subcommand and flags,
# the config but its input, the input's zeta, exit code, a part of the message);
# above |zeta| of about 178 sinh(|zeta|)**4 overflows, and above 710 math.sinh too
ZETA_OVERFLOW = "overflows the squeezed-vacuum rates"
DEGENERATE = [
    pytest.param(["sweep"], {}, 0, 1, NO_LIGHT, id="sweep-zeta-0"),
    pytest.param(["oracle", "--check", "quantum"], {}, 0, 1, NO_LIGHT, id="oracle-quantum-zeta-0"),
    pytest.param(["oracle", "--check", "all"], TestPhasematchCommand.symmetric_cfg(), 0, 1,
                 NO_LIGHT, id="oracle-all-zeta-0"),
    pytest.param(["sweep"], {}, 800, 1, f"zeta 800.0 {ZETA_OVERFLOW}", id="sweep-zeta-800"),
    pytest.param(["synth"], {"sweep": POWER_SWEEP}, 800, 1, f"zeta 800.0 {ZETA_OVERFLOW}",
                 id="synth-zeta-800"),
    pytest.param(["oracle", "--check", "quantum"], {}, 800, 1, f"zeta 800.0 {ZETA_OVERFLOW}",
                 id="oracle-quantum-zeta-800"),
    pytest.param(["sweep"], {}, 200, 1, f"zeta 200.0 {ZETA_OVERFLOW}", id="sweep-zeta-200"),
    pytest.param(["synth"], {"sweep": POWER_SWEEP}, 200, 1, f"zeta 200.0 {ZETA_OVERFLOW}",
                 id="synth-zeta-200"),
    pytest.param(["oracle", "--check", "quantum"], {}, 200, 1, f"zeta 200.0 {ZETA_OVERFLOW}",
                 id="oracle-quantum-zeta-200"),
]


@pytest.mark.parametrize("argv,cfg,zeta,code,message", DEGENERATE)
def test_degenerate_config_is_an_exit_code(tmp_path, capsys, argv, cfg, zeta, code, message):
    cfg = dict(cfg, input={"kind": "squeezed_vacuum", "modes": [1, 3], "zeta": zeta})
    out = tmp_path / "o.csv"
    assert main([argv[0], "--config", write_config(tmp_path, cfg), "--out", str(out),
                 *argv[1:]]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_oracle_all_rejects_an_input_without_light_before_the_classical_check(
        tmp_path, capsys, monkeypatch):
    def classical_rows(cfg, tol):
        raise AssertionError("the classical check ran")

    monkeypatch.setattr(cli, "_oracle_classical_rows", classical_rows)
    cfg = dict(TestPhasematchCommand.symmetric_cfg(),
               input={"kind": "squeezed_vacuum", "modes": [1, 3], "zeta": 0})
    out = tmp_path / "o.csv"
    assert main(["oracle", "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--check", "all"]) == 1
    assert NO_LIGHT in capsys.readouterr().err
    assert not out.exists()


# flag values that would run and write NaN, or report a numerical failure
BAD_FLAG_VALUES = [
    ["transfer", "--phi", "nan"], ["synth", "--noise", "nan"], ["oracle", "--tol", "nan"],
    ["oracle", "--tol", "-1"], ["oracle", "--tol", "0"], ["oracle", "--tol", "abc"],
]


@pytest.mark.parametrize("argv", BAD_FLAG_VALUES, ids=" ".join)
def test_bad_flag_value_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", write_config(tmp_path, BASE_CONFIG), "--out", str(out),
              *argv[1:]])
    assert exc.value.code == 1
    assert f"argument {argv[1]}" in capsys.readouterr().err
    assert not out.exists()


# flags whose settings are the config keys sweep.phi_min, sweep.phi_max, sweep.steps and seed
CONFIG_KEY_FLAGS = [["sweep", "--phi-min", "0.1"], ["sweep", "--phi-max", "1.2"],
                    ["sweep", "--steps", "9"], ["sweep", "--seed", "9"], ["synth", "--seed", "9"]]


@pytest.mark.parametrize("argv", CONFIG_KEY_FLAGS, ids=" ".join)
def test_config_key_flag_is_unrecognized(tmp_path, capsys, argv):
    cfg = BASE_CONFIG if argv[0] == "sweep" else dict(BASE_CONFIG, sweep=POWER_SWEEP)
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", write_config(tmp_path, cfg), "--out", str(out), *argv[1:]])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not out.exists()


def run_child(tmp_path, argv):
    """``python -m nwaybs.cli *argv`` in a fresh interpreter, on this package's source."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nwaybs.__file__)))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONWARNINGS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "nwaybs.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True)


def test_usage_error_exit_codes(tmp_path):
    """An unknown flag is a usage error (exit 1); --help exits 0."""
    cfgp = write_config(tmp_path, BASE_CONFIG)
    runs = {argv[-1]: run_child(tmp_path, argv)
            for argv in (["sweep", "--config", cfgp, "--threads"], ["sweep", "--help"])}
    assert runs["--threads"].returncode == 1
    assert "unrecognized arguments: --threads" in runs["--threads"].stderr
    assert runs["--help"].returncode == 0
    assert runs["--help"].stdout.startswith("usage: nwaybs sweep")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command", ["sweep", "synth"])
def test_overflowing_model_prints_one_line_and_no_warning(tmp_path, command):
    """numpy's overflow warnings stay off stderr: the input error is its one line."""
    lines = {}
    for name, sweep in (("overflow", {"powers_w": [0.1, 1e200], "phase_scale_rad_per_w": 1e200}),
                        ("finite", POWER_SWEEP)):
        cfg = {"n_modes": 3, "input": {"kind": "photon_pair"}, "sweep": sweep}
        out = tmp_path / f"{name}.csv"
        run = run_child(tmp_path, [command, "--config", write_config(tmp_path, cfg),
                                   "--out", str(out)])
        lines[name] = (run.returncode, run.stderr, out.exists())
    assert lines == {
        "overflow": (1, "input error: the model rates at pump power 1e+200 W are not finite: "
                        "the phase, the input or a scale overflows\n", False),
        "finite": (0, "", True)}


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_cli_section_names_exactly_the_parser_options():
    """Each long option of a subcommand is named in README's CLI section, and no other is."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    defined = {option for parser in subparsers.choices.values() for action in parser._actions
               for option in action.option_strings if option.startswith("--")}
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    assert named - {"--help"} == defined - {"--help"}


class TestFitCommand:
    def write_depletion_csv(self, tmp_path, kappa=0.9, noise=0.0, seed=0):
        powers = np.linspace(0, 2 * math.pi / 3 / kappa, 30)
        vals = np.abs(p_coeff(3, kappa * powers)) ** 2
        if noise:
            rng = np.random.default_rng(seed)
            vals = vals * (1 + noise * rng.standard_normal(len(vals)))
        path = tmp_path / "curve.csv"
        lines = ["power_w,value"]
        lines += [f"{p:.17g},{v:.17g}" for p, v in zip(powers, vals)]
        path.write_text("\n".join(lines) + "\n")
        return str(path), kappa

    def test_fit_pair_model(self, tmp_path):
        data, kappa = self.write_depletion_csv(tmp_path)
        out = tmp_path / "fit.txt"
        rc = main(["fit", "--data", data, "--model", "pair", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        line = [l for l in text.splitlines() if l.startswith("phase_scale")][0]
        assert float(line.split("=")[1]) == pytest.approx(kappa, rel=1e-6)

    def test_empty_file_exit_1(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        assert main(["fit", "--data", str(p), "--model", "pair"]) == 1

    # (model, curve CSV text, the line its message names); seven good rows precede a bad one
    GOOD_ROWS = "".join(f"{0.1 * k:g},{1 - 0.1 * k:g}\n" for k in range(7))
    MALFORMED_CURVES = [
        pytest.param("pair", "power_w,value\n" + "".join(f"{0.1 * k:g}\n" for k in range(7)),
                     2, id="row-shorter-than-header"),
        pytest.param("pair", "power_w,value\n" + GOOD_ROWS + "0.7,inf\n", 9, id="inf"),
        pytest.param("pair", "power_w,value\n" + GOOD_ROWS + "0.7,nan\n", 9, id="nan-pair"),
        pytest.param("multiphoton", "singles_rate,ratio\n# a comment\n" + GOOD_ROWS + "nan,0.2\n",
                     10, id="nan-multiphoton"),
        # a name map of the columns would keep the last one: the fit would read it in silence
        pytest.param("pair", "power_w,value,value\n"
                     + "".join(f"{0.1 * k:g},{1 - 0.1 * k:g},{0.5 - 0.05 * k:g}\n"
                               for k in range(7)), 1, id="repeated-column"),
    ]

    @pytest.mark.parametrize("model,text,line", MALFORMED_CURVES)
    def test_malformed_row_is_exit_1(self, tmp_path, capsys, model, text, line):
        p = tmp_path / "curve.csv"
        p.write_text(text)
        out = tmp_path / "fit.txt"
        assert main(["fit", "--data", str(p), "--model", model, "--out", str(out)]) == 1
        assert f"config error: line {line} of {p}" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_curve_exit_3(self, tmp_path):
        p = tmp_path / "flat.csv"
        p.write_text("power_w,value\n" + "\n".join(f"{x},1.0" for x in range(10)))
        assert main(["fit", "--data", str(p), "--model", "pair"]) == 3

    def test_fit_determinism(self, tmp_path):
        data, _ = self.write_depletion_csv(tmp_path, noise=0.01, seed=5)
        out1, out2 = tmp_path / "f1.txt", tmp_path / "f2.txt"
        assert main(["fit", "--data", data, "--model", "pair", "--out", str(out1)]) == 0
        assert main(["fit", "--data", data, "--model", "pair", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_rejected(self, tmp_path, capsys):
        # a fit is deterministic, so a seed would change nothing
        data, _ = self.write_depletion_csv(tmp_path)
        out = tmp_path / "fit.txt"
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", data, "--model", "pair", "--out", str(out), "--seed", "5"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_multiphoton_model(self, tmp_path):
        zg = np.linspace(0.05, 0.4, 12)
        s2 = np.sinh(zg) ** 2
        ratio = s2 / (2 * (1 + s2))
        path = tmp_path / "ratio.csv"
        lines = ["singles_rate,ratio"]
        lines += [f"{0.4 * s:.17g},{r:.17g}" for s, r in zip(s2, ratio)]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.txt"
        rc = main(["fit", "--data", str(path), "--model", "multiphoton",
                   "--out", str(out)])
        assert rc == 0
        line = [l for l in out.read_text().splitlines() if l.startswith("zeta")][0]
        assert float(line.split("=")[1]) == pytest.approx(0.4, rel=1e-6)

    def test_multiphoton_iteration_cap_is_exit_3(self, tmp_path, capsys, monkeypatch):
        from nwaybs import fitting

        rng = np.random.default_rng(3)
        s2 = np.sinh(np.linspace(0.05, 0.4, 600)) ** 2
        ratio = s2 / (2 * (1 + s2)) * (1 + 0.05 * rng.standard_normal(600))
        path = tmp_path / "ratio.csv"
        path.write_text("singles_rate,ratio\n"
                        + "".join(f"{s / 2:.17g},{r:.17g}\n" for s, r in zip(s2, ratio)))
        out = tmp_path / "fit.txt"
        argv = ["fit", "--data", str(path), "--model", "multiphoton", "--out", str(out)]
        monkeypatch.setattr(fitting, "ITERATION_CAP", 3)
        assert main(argv) == 3
        assert "fit did not converge" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.undo()
        assert main(argv) == 0 and out.exists()

    def test_multiphoton_unidentifiable_is_exit_3(self, tmp_path, capsys):
        # a ratio falling with the singles rate sends conv to infinity
        path = tmp_path / "ratio.csv"
        path.write_text("singles_rate,ratio\n1,0.3\n2,0.2\n3,0.1\n")
        out = tmp_path / "fit.txt"
        argv = ["fit", "--data", str(path), "--model", "multiphoton", "--out", str(out)]
        assert main(argv) == 3
        assert "fit did not converge" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows", [
        "1,0.1\n2,0.2\n3,0.4\n4,0.8\n",
        "1,0.05\n2,0.1\n3,0.2\n4,0.4\n5,0.8\n",
    ], ids=["4-point", "5-point"])
    def test_multiphoton_upward_curve_is_exit_3(self, tmp_path, capsys, rows):
        # the concave model fits a ratio that curves upward only in its
        # linear limit, where the data fix scale * conv but not zeta
        path = tmp_path / "ratio.csv"
        path.write_text("singles_rate,ratio\n" + rows)
        out = tmp_path / "fit.txt"
        argv = ["fit", "--data", str(path), "--model", "multiphoton", "--out", str(out)]
        assert main(argv) == 3
        assert "fit did not converge" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model,keys", [
        ("pair", ["phase_scale_rad_per_w", "residual_norm", "converged", "iterations"]),
        ("coherent", ["phase_scale_rad_per_w", "residual_norm", "converged", "iterations"]),
        ("multiphoton", ["zeta", "residual_norm", "converged", "iterations", "channel_scale_1"]),
    ])
    def test_writes_only_what_the_model_fits(self, tmp_path, model, keys):
        # the parameter a model does not fit has no line, so no value is NaN
        path = tmp_path / "curve.csv"
        if model == "multiphoton":
            s2 = np.sinh(np.linspace(0.05, 0.4, 12)) ** 2
            rows = ["singles_rate,ratio"] + [f"{0.4 * s:.17g},{s / (2 * (1 + s)):.17g}" for s in s2]
        else:
            powers = np.linspace(0.0, 1.5, 12)
            rows = ["power_w,value"] + [f"{p:.17g},{math.cos(0.8 * p) ** 2:.17g}" for p in powers]
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "fit.txt"
        assert main(["fit", "--data", str(path), "--model", model, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# nwaybs ")
        kv = dict(line.split("=", 1) for line in lines[1:])
        assert list(kv) == keys
        assert kv["converged"] == "1"
        assert not any(math.isnan(float(v)) for v in kv.values())

    def write_ratio_csv(self, tmp_path):
        s2 = np.sinh(np.linspace(0.05, 0.4, 12)) ** 2
        path = tmp_path / "ratio.csv"
        lines = ["singles_rate,ratio"] + [f"{0.4 * s:.17g},{s / (2 * (1 + s)):.17g}" for s in s2]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    # (model, curve, sha256 prefix of the output file): fit outputs pinned byte
    # for byte, header included; like PINNED_OUTPUTS they pin one numpy build
    PINNED_FITS = [
        pytest.param("pair", {}, "542dd01557496f61", id="pair-exact"),
        pytest.param("pair", {"noise": 0.01, "seed": 5}, "3e4ce4a4ef7f9d22", id="pair-noisy"),
        pytest.param("multiphoton", None, "1144add31e3be931", id="multiphoton"),
    ]

    @pytest.mark.parametrize("model,curve,digest", PINNED_FITS)
    def test_fit_output_is_pinned(self, tmp_path, model, curve, digest):
        data = (self.write_ratio_csv(tmp_path) if curve is None
                else self.write_depletion_csv(tmp_path, **curve)[0])
        out = tmp_path / "fit.txt"
        assert main(["fit", "--data", data, "--model", model, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


class TestSynthCommand:
    def test_synth_roundtrips_through_fit(self, tmp_path):
        cfg = {
            "n_modes": 3,
            "input": {"kind": "photon_pair", "modes": [1, 3]},
            "sweep": {"powers_w": list(np.linspace(0.05, 1.0, 25)),
                      "phase_scale_rad_per_w": 2 * math.pi / 3},
            "seed": 42,
        }
        out = tmp_path / "synth.csv"
        assert main(["synth", "--config", write_config(tmp_path, cfg),
                     "--out", str(out), "--noise", "0.0"]) == 0
        header, rows = read_rows(out)
        assert "singles_1" in header and "coinc_13" in header
        assert rows[0][0] == 0.0  # zero-power record present

    def test_synth_determinism(self, tmp_path):
        cfg = {
            "n_modes": 3,
            "input": {"kind": "photon_pair", "modes": [1, 3]},
            "sweep": {"powers_w": [0.2, 0.5, 0.9],
                      "phase_scale_rad_per_w": 1.5},
            "seed": 7,
        }
        cfgp = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["synth", "--config", cfgp, "--out", str(out1),
                     "--noise", "0.02"]) == 0
        assert main(["synth", "--config", cfgp, "--out", str(out2),
                     "--noise", "0.02"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_negative_noisy_rate_is_exit_1(self, tmp_path, capsys):
        cfg = {"n_modes": 3, "input": {"kind": "photon_pair", "modes": [1, 3]},
               "sweep": {"powers_w": list(np.linspace(0.1, 1.0, 10)),
                         "phase_scale_rad_per_w": 1.3}}
        out = tmp_path / "synth.csv"
        assert main(["synth", "--config", write_config(tmp_path, cfg), "--out", str(out),
                     "--noise", "0.5"]) == 1
        err = capsys.readouterr().err
        assert "noise 0.5" in err and "pump power" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("input_section,powers,kappa,power", [
        ({"kind": "photon_pair"}, [0.1, 1e200, 0.5], 1e200, "1e+200"),
        ({"kind": "photon_pair"}, [0.1, 1e200], 1e200, "1e+200"),
        ({"kind": "dual_coherent", "amplitude": 1e150}, [0.1, 0.5], 1.0, "0"),
    ], ids=["phase-inf-inside", "phase-inf-last", "dual-coincidence-inf"])
    def test_overflowing_model_is_exit_1(self, tmp_path, capsys, input_section, powers, kappa,
                                         power):
        # no record drops a coincidence or reads 0 in its place: the model's overflow is an error
        cfg = {"n_modes": 3, "input": input_section,
               "sweep": {"powers_w": powers, "phase_scale_rad_per_w": kappa}}
        out = tmp_path / "synth.csv"
        assert main(["synth", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        assert (f"input error: the model rates at pump power {power} W are not finite"
                in capsys.readouterr().err)
        assert not out.exists()

    def _synth(self, tmp_path, input_section, powers=(0.1, 0.4, 0.7, 1.0), kappa=1.3):
        cfg = {"n_modes": 3, "input": input_section,
               "sweep": {"powers_w": list(powers), "phase_scale_rad_per_w": kappa}}
        out = tmp_path / "synth.csv"
        assert main(["synth", "--config", write_config(tmp_path, cfg),
                     "--out", str(out), "--noise", "0.0"]) == 0
        header, rows = read_rows(out)
        return {name: rows[:, k] for k, name in enumerate(header)}, kappa * rows[:, 0]

    def test_synth_squeezed_vacuum(self, tmp_path):
        section = {"kind": "squeezed_vacuum", "modes": [1, 3], "zeta": 0.4,
                   "pre_loss": [0.9, 1.0, 0.6]}
        col, phis = self._synth(tmp_path, section)
        state = InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=0.4,
                           pre_loss=(0.9, 1.0, 0.6))
        curve = correlation_curve(state, phis)
        assert np.all(sum(col[f"singles_{i}"] for i in (1, 2, 3)) > 0)
        assert np.array_equal(np.column_stack([col[f"singles_{i}"] for i in (1, 2, 3)]),
                              curve.singles)
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            assert np.array_equal(col[f"coinc_{i}{j}"], curve.g2[(i, j)])

    def test_synth_honours_input_modes(self, tmp_path):
        col, phis = self._synth(tmp_path, {"kind": "photon_pair", "modes": [1, 2]})
        assert (col["singles_1"][0], col["singles_2"][0], col["singles_3"][0]) == (1, 1, 0)
        curve = correlation_curve(InputState(kind="photon_pair", modes=(1, 2)), phis)
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            assert np.array_equal(col[f"coinc_{i}{j}"], curve.g2[(i, j)])


PIN_PROFILE = {"omega0_rad_s": W0, "beta_coeffs_si": [0.0, 0.0, 2e-26, 1e-41],
               "gamma_per_w_m": 2e-3, "length_m": 100}
PIN_GRID = {"pump_freqs_rad_s": [W0 + 1e12, W0 + 2e12, W0 + 3e12],
            "weak_freqs_rad_s": [W0 - 1e12, W0 - 2e12, W0 - 3e12]}
PIN_SQUEEZED = {"kind": "squeezed_vacuum", "modes": [1, 3], "zeta": [0.3, 0.1],
                "pre_loss": [0.9, 1, 0.8], "post_loss": [0.7, 0.95, 1.0]}
# (subcommand and flags, config, sha256 prefix of the output file): valid
# configs whose output is pinned byte for byte, header included.  The digests
# pin one numpy build; another build may round the last digit differently.
PINNED_OUTPUTS = [
    pytest.param(["transfer", "--phi", "0.37"], {"n_modes": 4, "transfer": "ideal"},
                 "c60e10761ea734a3", id="transfer-ideal"),
    pytest.param(["transfer"], {"transfer": "general", "n_modes": 3, "profile": PIN_PROFILE,
                                "pumps": {"powers_w": [0.5, 0.7, 0.4],
                                          "phases_rad": [0, 1.1, 2.5]},
                                "grid": {"pump_freqs_lambda_nm": [1280.0, 1275.5, 1271],
                                         "weak_freqs_lambda_nm": [1293.0, 1297.5, 1302]}},
                 "a1b170e2bea7ce36", id="transfer-general-lambda-nm"),
    pytest.param(["transfer"], {"transfer": "lossy",
                                "profile": {"omega0_rad_s": W0, "beta_coeffs_si": [0.0],
                                            "gamma_per_w_m": 2e-3, "length_m": 100.0,
                                            "alpha_per_m": 2e-5},
                                "pumps": {"powers_w": [0.6, 0.6, 0.6]}, "grid": PIN_GRID},
                 "8a1a3277a590a445", id="transfer-lossy"),
    pytest.param(["sweep"], {"n_modes": 3, "input": {"kind": "single_coherent", "modes": [2],
                                                     "amplitude": 1.5},
                             "sweep": {"phi_min": 0.1, "phi_max": 2, "steps": 7}, "seed": 4},
                 "b52cab30c0fbdd1a", id="sweep-single-linear"),
    pytest.param(["sweep"], {"input": {"kind": "dual_coherent", "modes": [1, 3],
                                       "amplitude": 2, "phase_averaged": False},
                             "sweep": {"powers_w": [0, 0.3, 0.6, 1], "phase_scale_rad_per_w": 1.5}},
                 "7abf62eafb893a53", id="sweep-dual-powers"),
    pytest.param(["sweep"], {"n_modes": 4, "transfer": "ideal",
                             "input": {"kind": "photon_pair", "modes": [1, 2]},
                             "sweep": {"steps": 9, "phi_max": 1.2}},
                 "f9ca1ee25a300420", id="sweep-pair-flags"),
    pytest.param(["sweep"], {"n_modes": 3, "input": PIN_SQUEEZED,
                             "sweep": {"powers_w": [0.2, 0.5, 0.8], "phase_scale_rad_per_w": 2}},
                 "482d6d48467afc87", id="sweep-squeezed-powers"),
    pytest.param(["sweep", "--input", "dual"], BASE_CONFIG,
                 "8c1cb8e8e96315ca", id="sweep-input-override"),
    pytest.param(["phasematch"], {"profile": PIN_PROFILE, "grid": PIN_GRID, "n_modes": 3,
                                  "pumps": {"powers_w": [0.5, 0.6, 0.7]}},
                 "646384a4688f17f9", id="phasematch"),
    pytest.param(["oracle", "--check", "quantum"], {"n_modes": 3, "input": PIN_SQUEEZED},
                 "72cbcccd8f81e6ea", id="oracle-quantum"),
    # no n_modes: both checks run at the pump count
    pytest.param(["oracle", "--check", "all"], {"profile": PIN_PROFILE, "grid": PIN_GRID,
                                                "pumps": {"powers_w": [0.5, 0.6, 0.7]},
                                                "input": PIN_SQUEEZED},
                 "6babe537276d8b3b", id="oracle-all"),
    pytest.param(["synth", "--noise", "0.01"], {"n_modes": 3, "input": PIN_SQUEEZED, "seed": 6,
                                                "sweep": {"powers_w": [0.1, 0.4, 0.7],
                                                          "phase_scale_rad_per_w": 1.3}},
                 "08af8238d086fbbe", id="synth-noise"),
    # no seed: the noise is drawn from seed 0, and the header has no seed line
    pytest.param(["synth", "--noise", "0.02"], {"n_modes": 3,
                                                "input": {"kind": "photon_pair", "modes": [1, 3]},
                                                "sweep": {"powers_w": [0, 0.5, 1.2],
                                                          "phase_scale_rad_per_w": 1.5}},
                 "0b0ec473d1751412", id="synth-seedless"),
]


@pytest.mark.parametrize("argv,cfg,digest", PINNED_OUTPUTS)
def test_valid_config_output_is_pinned(tmp_path, argv, cfg, digest):
    out = tmp_path / "o.csv"
    assert main([argv[0], "--config", write_config(tmp_path, cfg), "--out", str(out),
                 *argv[1:]]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


SEEDLESS = {key: value for key, value in BASE_CONFIG.items() if key != "seed"}
# (subcommand and flags, a config without seed, the seed added to it or None);
# only sweep and synth read seed, the others reject it
HEADER_CASES = [
    (["transfer"], TRANSFER_CONFIG, None),
    (["phasematch"], TestPhasematchCommand.symmetric_cfg(), None),
    (["oracle", "--check", "quantum"], {"input": {"kind": "squeezed_vacuum", "zeta": 0.4}}, None),
    *[(argv, cfg, seed) for argv, cfg in ((["sweep"], SEEDLESS),
                                          (["synth"], dict(SEEDLESS, sweep=POWER_SWEEP)))
      for seed in (None, 0, 11)],
]


@pytest.mark.parametrize("argv,cfg,seed", HEADER_CASES,
                         ids=[f"{a[0]}-seed={s}" for a, _, s in HEADER_CASES])
def test_header_has_a_seed_line_only_when_the_config_has_seed(tmp_path, argv, cfg, seed):
    cfg = dict(cfg) if seed is None else dict(cfg, seed=seed)
    out = tmp_path / "o.csv"
    assert main([argv[0], "--config", write_config(tmp_path, cfg), "--out", str(out),
                 *argv[1:]]) == 0
    header = [line for line in out.read_text().splitlines() if line.startswith("#")]
    assert header == [f"# nwaybs {nwaybs.__version__}", f"# config_hash={config_hash(cfg)}",
                      *([] if seed is None else [f"# seed={seed}"])]


LOAD_PATH_SCRIPT = r"""
import json, math, os, sys, tempfile

import nwaybs.cli

physics = {
    "profile": {"omega0_rad_s": 1.46e15, "beta_coeffs_si": [0.0, 0.0, 0.0, 1e-41],
                "gamma_per_w_m": 2e-3, "length_m": 100.0},
    "grid": {"pump_freqs_rad_s": [1.47e15, 1.48e15], "weak_freqs_rad_s": [1.45e15, 1.44e15]},
    "pumps": {"powers_w": [0.5, 0.5]},
}
squeezed = {"kind": "squeezed_vacuum", "modes": [1, 3], "zeta": 0.4}
inputs = {
    "curve.json": json.dumps({"n_modes": 3, "input": squeezed, "sweep": {
        "powers_w": [0.2, 0.5], "phase_scale_rad_per_w": 1.5}}),
    "quantum.json": json.dumps({"n_modes": 3, "input": squeezed}),
    "transfer.json": json.dumps({"n_modes": 3}),
    "physics.json": json.dumps(physics),
    "curve.csv": "power_w,value\n" + "".join(
        f"{p},{math.cos(p) ** 2}\n" for p in (0.1 * k for k in range(12))),
    "ratio.csv": "singles_rate,ratio\n" + "".join(
        f"{0.4 * s},{s / (2 * (1 + s))}\n" for s in (math.sinh(0.05 * k) ** 2 for k in range(1, 9))),
}
with tempfile.TemporaryDirectory() as tmp:
    for name, text in inputs.items():
        with open(os.path.join(tmp, name), "w") as fh:
            fh.write(text)
    argv = [os.path.join(tmp, a) if a in inputs else a for a in json.loads(sys.argv[1])]
    rc = nwaybs.cli.main(argv + ["--out", os.path.join(tmp, "out")])
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "nwaybs"),
                  sorted({"scipy", "scipy.optimize"} & set(sys.modules))]))
"""

# the layers the schema needs, which every subcommand loads
SCHEMA_LAYERS = ["nwaybs", "nwaybs.cli", "nwaybs.dispersion", "nwaybs.quantum", "nwaybs.transfer"]
LOAD_PATH_CASES = [
    (["transfer", "--config", "transfer.json", "--phi", "0.3"], [], []),
    (["sweep", "--config", "curve.json"], [], []),
    (["phasematch", "--config", "physics.json"], [], []),
    (["oracle", "--config", "quantum.json", "--check", "quantum"], ["nwaybs.oracle"], []),
    (["oracle", "--config", "physics.json", "--check", "classical"], ["nwaybs.propagation"], []),
    (["synth", "--config", "curve.json"], ["nwaybs.fitting"], ["scipy"]),
    # the fits run in numpy: no fit loads scipy.optimize
    (["fit", "--model", "pair", "--data", "curve.csv"], ["nwaybs.fitting"], ["scipy"]),
    (["fit", "--model", "multiphoton", "--data", "ratio.csv"], ["nwaybs.fitting"], ["scipy"]),
]


@pytest.mark.parametrize("argv, layers, scipy", LOAD_PATH_CASES,
                         ids=["transfer", "sweep", "phasematch", "oracle-quantum",
                              "oracle-classical", "synth", "fit", "fit-multiphoton"])
def test_subcommand_loads_only_its_layers(tmp_path, argv, layers, scipy):
    """A fresh interpreter running one subcommand loads only the layers it runs."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nwaybs.__file__)))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", LOAD_PATH_SCRIPT, json.dumps(argv)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == [0, sorted(SCHEMA_LAYERS + layers), scipy]
    assert list(tmp_path.iterdir()) == []
