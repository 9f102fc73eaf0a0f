import csv
import hashlib
import importlib.util
import io
import json
import os
import reprlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skagree
import skagree.cli
from skagree.channels import RNG_ALGORITHM
from skagree.cli import (
    KINDS,
    REQUIRED,
    ConfigError,
    ExperimentConfig,
    _csv_bytes,
    describe,
    main,
    run,
)


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestDescribe:
    def test_threshold_lists_parameters(self):
        text = describe("threshold")
        for key in ("w_c", "rate", "tol_db", "seed"):
            assert key in text
        assert "w_r" not in text

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            describe("nonsense")

    def test_every_kind_describable(self):
        for kind in KINDS:
            assert describe(kind)


class TestConfigValidation:
    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="seed required"):
            ExperimentConfig.from_dict("threshold", {"w_c": 3, "rate": 0.25})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="w_z"):
            ExperimentConfig.from_dict(
                "threshold", {"seed": 1, "w_c": 3, "rate": 0.25, "w_z": 9}
            )

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="trials"):
            ExperimentConfig.from_dict(
                "diag-check", {"seed": 1, "m": 16, "mu": 4, "l_r": 2}
            )


# one small valid config per kind
_VALID = {
    "diag-check": {"seed": 1, "m": 16, "mu": 4, "l_r": 2, "trials": 3},
    "threshold": {"seed": 1, "w_c": 3, "rate": 0.25, "tol_db": 0.1},
    "fer-sim": {"seed": 1, "n": 256, "rate": 0.25, "w_c": 3, "snr_db_list": [1.0],
                "max_frames": 20, "target_frame_errors": 5, "max_iter": 10},
    "security-gap": {"seed": 1, "n": 256, "rate": 0.25, "w_c": 3, "fer_reliable": 0.05,
                     "fer_secure": 0.8},
    "sk-cdf": {"seed": 1, "m": 64, "mu": 8, "l_r": 8, "l_e": 8, "gamma_r_db": -10.0,
               "gamma_e_db": -10.0, "target_lambda_r_db": -1.0, "samples": 200},
    "outage-analytic": {"seed": 1, "m": 64, "mu": 8, "l_e": 8, "gamma_e_db": -10.0,
                        "power": 2.0},
}

# (kind, config, the key at fault or None when the fault spans keys)
_MALFORMED = [
    ("fer-sim", {"max_iter": -1}, "max_iter"),
    ("fer-sim", {"n": 256.7}, "n"),
    ("outage-analytic", {"points": 0}, "points"),
    ("fer-sim", {"w_c": "abc"}, "w_c"),
    ("threshold", {"rate": 1.0}, "rate"),
    # w_r = w_c, an ensemble with no threshold
    ("threshold", {"rate": 0.0}, "rate"),
    ("sk-cdf", {"samples": 0}, "samples"),
    ("fer-sim", {"max_frames": 0}, "max_frames"),
    ("fer-sim", {"snr_db_list": 5}, "snr_db_list"),
    ("outage-analytic", {"power": -2}, "power"),
    ("sk-cdf", {"l_r": 9}, None),  # l_r > mu, the library's check
    ("fer-sim", {"max_iter": True}, "max_iter"),
    ("fer-sim", {"snr_db_list": []}, "snr_db_list"),
    ("fer-sim", {"snr_db_list": [1.0, "2"]}, "snr_db_list"),
    ("outage-analytic", {"gamma_e_db": float("nan")}, "gamma_e_db"),
    ("security-gap", {"fer_secure": 1.0}, "fer_secure"),
    ("threshold", {"seed": "1"}, "seed"),
    ("diag-check", {"out": 3}, "out"),
    ("outage-analytic", {"power": 10**400}, "power"),
    # 10 ** (db / 10) of these overflows a float
    ("fer-sim", {"snr_db_list": [4000.0]}, "snr_db_list"),
    ("threshold", {"hi_db": 4000.0}, "hi_db"),
    ("outage-analytic", {"gamma_e_db": 5000.0}, "gamma_e_db"),
    ("sk-cdf", {"target_lambda_r_db": 4000.0}, "target_lambda_r_db"),
    ("outage-analytic", {"theta_max_db": 4000.0}, "theta_max_db"),
    # every key in bounds, but the quadratic form overflows: the library's check
    ("outage-analytic", {"l_e": 2, "gamma_e_db": 300.0, "power": 1e308}, None),
    # a grid step the SNR cannot resolve: the library's check
    ("security-gap", {"step_db": 1e-320}, None),
    # a full-rank code, k = 0: the simulator's check
    ("fer-sim", {"n": 60, "rate": 0.0}, None),
    # 1 - rate rounds to 1, so w_c / (1 - rate) is w_c again
    ("threshold", {"rate": 1e-17}, "rate"),
    # a bracket with no inside: the library's check
    ("threshold", {"lo_db": 10.0, "hi_db": -10.0}, None),
    ("threshold", {"lo_db": 0.0, "hi_db": 0.0}, None),
    # density evolution of no iteration never converges
    ("threshold", {"max_iter": 0}, "max_iter"),
    # two points in one millidecibel stream would decode the same frames
    ("fer-sim", {"snr_db_list": [0.0004, 0.0001]}, "snr_db_list"),
    ("fer-sim", {"snr_db_list": [1.0, 2.0, 1.0]}, "snr_db_list"),
]


@pytest.mark.parametrize(
    "kind, override, key", _MALFORMED, ids=[f"{kind}-{reprlib.repr(o)}" for kind, o, _ in _MALFORMED]
)
def test_malformed_config_exits_1_and_writes_nothing(tmp_path, capsys, kind, override, key):
    ExperimentConfig.from_dict(kind, _VALID[kind])
    cfg = write_config(tmp_path, {**_VALID[kind], **override})
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main([kind, "--config", cfg, "--out", str(out_dir), "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    if key is not None:
        assert f"key {key!r} of kind {kind!r}" in err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("body", [b'[{"seed": 1}]', b"{", b"\xff\xfe{"],
                         ids=["not-an-object", "not-json", "not-utf-8"])
def test_unreadable_config_exits_1(tmp_path, capsys, body):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(body)
    assert main(["threshold", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["fer-sim", "security-gap"])
def test_zero_decoder_iterations_is_valid(kind):
    # decode_batch returns the channel decisions for max_iter 0
    cfg = ExperimentConfig.from_dict(kind, {**_VALID[kind], "max_iter": 0})
    assert cfg.params["max_iter"] == 0


def test_params_are_resolved_and_recorded(tmp_path):
    raw = {**_VALID["outage-analytic"], "m": 64.0, "power": 2, "points": 5}
    cfg = ExperimentConfig.from_dict("outage-analytic", raw)
    assert type(cfg.params["m"]) is int and type(cfg.params["power"]) is float
    assert cfg.params["decay"] == 0.5 and cfg.params["out"] == "outage-analytic"
    run(cfg, out_dir=str(tmp_path))
    meta = json.loads((tmp_path / "outage-analytic.meta.json").read_text())
    assert meta["params"] == cfg.params
    assert set(meta["params"]) == {"seed", "out"} | {p.key for p in KINDS["outage-analytic"][1]}


def test_runtime_error_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("no convergence")

    monkeypatch.setattr(skagree.cli, "sk_rate_outage_cdf", fail)
    cfg = write_config(tmp_path, _VALID["sk-cdf"])
    out_dir = tmp_path / "out"
    assert main(["sk-cdf", "--config", cfg, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: no convergence")
    assert not out_dir.exists()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_describe_shows_the_defaults_that_are_filled_in(kind):
    lines = {line.split()[0]: line for line in describe(kind).splitlines()[1:]}
    given = ExperimentConfig.from_dict(kind, _VALID[kind]).params
    for param in KINDS[kind][1]:
        assert param.shape() in lines[param.key]
    for key, value in given.items():
        if key in _VALID[kind]:
            continue
        tag = "[optional]" if value is None else f"[default {value!r}]"
        assert lines[key].endswith(tag)
    assert all(lines[p.key].endswith("[required]")
               for p in KINDS[kind][1] if p.default is REQUIRED)


def _anchor_jobs():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_anchor_experiments.py"
    spec = importlib.util.spec_from_file_location("run_anchor_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.DESK + module.FULL


_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_anchor_script_runs_every_shipped_config():
    names = sorted(name for _, name in _anchor_jobs())
    assert names == sorted(p.name for p in _CONFIGS.glob("*.json"))


@pytest.mark.parametrize("kind, name", _anchor_jobs())
def test_shipped_config_is_valid(kind, name):
    ExperimentConfig.from_dict(kind, json.loads((_CONFIGS / name).read_text()))


class TestMain:
    def test_threshold_end_to_end(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"seed": 3, "w_c": 3, "rate": 0.25, "tol_db": 0.1, "out": "th"},
        )
        code = main(["threshold", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        body = (tmp_path / "th.csv").read_text().splitlines()
        assert body[0] == "w_c,w_r,lambda_th_db"
        lam_db = float(body[1].split(",")[2])
        assert abs(lam_db - (-2.0)) < 0.3
        meta = json.loads((tmp_path / "th.meta.json").read_text())
        assert meta["params"]["seed"] == 3
        assert "philox" in meta["rng_algorithm"]

    def test_missing_seed_exit_code_and_diagnostic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"w_c": 3, "rate": 0.25})
        assert main(["threshold", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "seed required" in capsys.readouterr().err

    def test_no_partial_files_on_failure(self, tmp_path):
        # bracket failure after validation: exit 2, nothing written
        cfg = write_config(
            tmp_path,
            {"seed": 1, "w_c": 3, "rate": 0.25, "lo_db": -20.0, "hi_db": -15.0,
             "out": "bad"},
        )
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        assert main(["threshold", "--config", cfg, "--out", str(out_dir)]) == 2
        assert list(out_dir.iterdir()) == []

    def test_describe_command(self, capsys):
        assert main(["describe", "sk-cdf"]) == 0
        assert "gamma_r_db" in capsys.readouterr().out

    def test_unknown_config_file(self, tmp_path, capsys):
        assert main(["threshold", "--config", str(tmp_path / "nope.json")]) == 1


class TestRunKinds:
    def test_diag_check(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            "diag-check", {"seed": 5, "m": 32, "mu": 4, "l_r": 3, "trials": 20}
        )
        run(cfg, out_dir=str(tmp_path))
        meta = json.loads((tmp_path / "diag-check.meta.json").read_text())
        assert meta["worst_offdiag"] < 1e-10
        assert meta["worst_diag_error"] < 1e-10

    def test_fer_sim_small(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            "fer-sim",
            {
                "seed": 2,
                "n": 256,
                "rate": 0.25,
                "w_c": 3,
                "snr_db_list": [1.0],
                "max_frames": 50,
                "target_frame_errors": 50,
                "max_iter": 30,
                "out": "fer",
            },
        )
        run(cfg, out_dir=str(tmp_path))
        lines = (tmp_path / "fer.csv").read_text().splitlines()
        assert lines[0] == "snr_db,frames,frame_errors,bit_errors,fer,ber,ci95"
        assert len(lines) == 2
        meta = json.loads((tmp_path / "fer.meta.json").read_text())
        assert meta["true_rate"] == pytest.approx(0.25)
        assert meta["girth"] >= 6

    def test_sk_cdf_writes_both_curves(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            "sk-cdf",
            {
                "seed": 9,
                "m": 64,
                "mu": 8,
                "l_r": 8,
                "l_e": 8,
                "gamma_r_db": -10.0,
                "gamma_e_db": -10.0,
                "target_lambda_r_db": -1.0,
                "samples": 2000,
                "out": "cdf",
            },
        )
        run(cfg, out_dir=str(tmp_path))
        sk = np.loadtxt(tmp_path / "cdf.csv", delimiter=",", skiprows=1)
        sec = np.loadtxt(tmp_path / "cdf.secrecy.csv", delimiter=",", skiprows=1)
        assert sk.shape == (2000, 2)
        assert sec.shape == (2000, 2)
        assert np.all(np.diff(sk[:, 0]) >= 0)
        meta = json.loads((tmp_path / "cdf.meta.json").read_text())
        assert "0.001" in meta["rate_at_outage"]

    def test_outage_analytic_monotone_cdf(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            "outage-analytic",
            {
                "seed": 4,
                "m": 64,
                "mu": 8,
                "l_e": 8,
                "gamma_e_db": -10.0,
                "power": 2.0,
                "points": 50,
                "out": "oa",
            },
        )
        run(cfg, out_dir=str(tmp_path))
        data = np.loadtxt(tmp_path / "oa.csv", delimiter=",", skiprows=1)
        assert data.shape[1] == 2
        assert np.all(np.diff(data[:, 1]) >= -1e-12)
        assert 0.0 <= data[0, 1] and data[-1, 1] <= 1.0

    def test_security_gap_relaxed(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            "security-gap",
            {
                "seed": 6,
                "n": 1024,
                "rate": 0.25,
                "w_c": 3,
                "fer_reliable": 0.05,
                "fer_secure": 0.8,
                "step_db": 0.25,
                "max_frames": 300,
                "target_frame_errors": 60,
                "max_iter": 40,
                "out": "gap",
            },
        )
        run(cfg, out_dir=str(tmp_path))
        body = (tmp_path / "gap.csv").read_text().splitlines()
        gap_db = float(body[1].split(",")[2])
        assert 0.0 < gap_db < 3.0
        assert (tmp_path / "gap.grid.csv").exists()


@pytest.mark.parametrize("kind, extra", [
    ("fer-sim", {"snr_db_list": [1.0]}),
    ("security-gap", {"fer_reliable": 0.05, "fer_secure": 0.8, "step_db": 0.5}),
])
def test_ldpc_sidecar_records_decoder_precision(tmp_path, kind, extra):
    """CSV bodies of the LDPC kinds depend on the decoder's message dtype
    and numpy's float32 transcendentals, so the sidecar names both."""
    params = {"seed": 3, "n": 256, "rate": 0.25, "w_c": 3, "max_frames": 40,
              "target_frame_errors": 20, "max_iter": 20, "out": "x", **extra}
    run(ExperimentConfig.from_dict(kind, params), out_dir=str(tmp_path))
    meta = json.loads((tmp_path / "x.meta.json").read_text())
    assert meta["decoder_dtype"] == "float32"
    assert meta["numpy_version"] == np.__version__


def test_fer_sim_sidecar_names_the_scrambler_law(tmp_path):
    """A point's ``bit_errors`` count frames behind the key the seed draws,
    so the sidecar's RNG record names the key's law as well."""
    params = {"seed": 3, "n": 256, "rate": 0.25, "w_c": 3, "snr_db_list": [1.0],
              "max_frames": 40, "target_frame_errors": 20, "max_iter": 20, "out": "x"}
    run(ExperimentConfig.from_dict("fer-sim", params), out_dir=str(tmp_path))
    meta = json.loads((tmp_path / "x.meta.json").read_text())
    assert meta["rng_algorithm"] == RNG_ALGORITHM
    assert meta["rng_algorithm"].endswith(";scrambler=L*C(raw words)")


def test_rerun_byte_identical(tmp_path):
    payload = {
        "seed": 11,
        "m": 32,
        "mu": 4,
        "l_r": 4,
        "l_e": 4,
        "gamma_r_db": -10.0,
        "gamma_e_db": -10.0,
        "target_lambda_r_db": -1.0,
        "samples": 500,
        "out": "rep",
    }
    cfg = ExperimentConfig.from_dict("sk-cdf", payload)
    run(cfg, out_dir=str(tmp_path / "a"))
    run(cfg, out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / "rep.csv").read_bytes() == (
        tmp_path / "b" / "rep.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "rep.secrecy.csv").read_bytes() == (
        tmp_path / "b" / "rep.secrecy.csv"
    ).read_bytes()


def test_sk_cdf_golden_csv(tmp_path):
    """The shipped M=256 sk-cdf config at 5000 samples keeps the sha256 of
    both CSV bodies: the draws span many channel chunks and the rows two
    render chunks."""
    raw = json.loads((_CONFIGS / "sk_cdf_m256.json").read_text())
    run(ExperimentConfig.from_dict("sk-cdf", dict(raw, samples=5000, out="g")),
        out_dir=str(tmp_path))
    digests = {name: hashlib.sha256((tmp_path / f"g.{name}").read_bytes()).hexdigest()
               for name in ("csv", "secrecy.csv")}
    assert digests == {
        "csv": "e28cd9d2425b8ea3e7add08ad0edf6cdb3eb41bd9d36fa2fb4933fdc501b6334",
        "secrecy.csv": "122945306d6e1d28d222d2644e6b4ae72e78a0d2eed8d0c3e6a70ebf07ce5a95",
    }


def _csv_writer_bytes(header, rows):
    """What ``csv.writer`` writes for the cells as Python floats and ints."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [float(x) if isinstance(x, (float, np.floating)) else int(x) for x in row]
        )
    return buf.getvalue().encode()


_FLOATS = [0.1, -0.0, 1e-300, 5e-324, float("inf"), float("-inf"), float("nan"), 1e22, 2.5]
_CSV_TABLES = {
    "floats": [[a, b] for a, b in zip(_FLOATS, reversed(_FLOATS))],
    "numpy-floats": [
        [np.float64(x), np.float32(x), np.float16(0.1)] for x in _FLOATS
    ],
    "ints": [[0, -3, 2**70], [np.int64(7), np.int32(-1), np.uint8(255)], [True, False, 1]],
    "mixed-column": [[1, 2.0], [1.5, 3]],
    "fer-row": [[-2.2, 1000, 838, np.int64(912345), 0.838, 0.25, 0.0228]],
    "no-rows": [],
    "one-column": [[0.5], [np.float64(-0.0)]],
    "many-rows": [[i, i / 7.0] for i in range(10_000)],
    # the form sk-cdf hands over: a 2-D float64 array
    "float64-array": np.column_stack((np.tile(_FLOATS, 1000), np.arange(9000) / 7.0)),
}


@pytest.mark.parametrize("table", sorted(_CSV_TABLES))
def test_csv_bytes_match_csv_writer(table):
    rows = _CSV_TABLES[table]
    header = ["x", "y, z", "w"]
    assert _csv_bytes(header, rows) == _csv_writer_bytes(header, rows)


@pytest.mark.parametrize(
    "rows, error",
    [([["a", 1.0]], TypeError), ([[None, 1.0]], TypeError), ([[1.0, 2.0], [3.0]], ValueError)],
)
def test_csv_bytes_rejects_non_numeric_and_ragged_rows(rows, error):
    with pytest.raises(error):
        _csv_bytes(["x", "y"], rows)


def test_import_leaves_slow_scipy_modules_unloaded():
    """``import skagree.cli`` loads no scipy module; the functions that need
    one (the DE root finder, the outage kinds) import it when called."""
    src = str(Path(skagree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, skagree.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
