"""Batch experiment runner: one JSON config in, CSV plus metadata out.

Units convention: config keys ending in ``_db`` are in dB, everything else
is linear (or a count); ``decay`` is in nats per tap. Every experiment
requires a ``seed`` and is deterministic given it: reruns produce
byte-identical CSV bodies (the metadata sidecar holds wall time).

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channels import RNG_ALGORITHM, SeededRng, exponential_pdp
from .ldpc import decoding_threshold, fer_ber_sim, peg_construct, security_gap
from .ofdm import (
    OfdmConfig,
    demodulator_matrix,
    modulator_matrix,
    toeplitz_conv_matrix,
)
from .outage import EigenSpectrum, build_c_matrix, lambda_e_cdf, sk_rate_outage_cdf


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to exit code 1."""


class NumericalError(RuntimeError):
    """Search or bracketing failure during an experiment; exit code 2."""


_COMMON = {
    "seed": "int, RNG seed (required for every kind)",
    "out": "str, optional output stem (default: the kind)",
}

KIND_PARAMS: dict[str, dict[str, dict[str, str]]] = {
    "diag-check": {
        "required": {
            "m": "int, subcarriers",
            "mu": "int, cyclic-prefix samples",
            "l_r": "int, legitimate channel taps (<= mu)",
            "trials": "int, random channels to test",
        },
        "optional": {},
    },
    "threshold": {
        "required": {"w_c": "int, column weight"},
        "optional": {
            "rate": "float, design rate (gives w_r = w_c/(1-rate))",
            "w_r": "float, row weight (alternative to rate)",
            "tol_db": "float dB, bisection width (default 0.05)",
            "max_iter": "int, density-evolution iterations (default 1000)",
            "xi_target": "float, divergence declaration level (default 1.0)",
            "lo_db": "float dB, bottom of the search bracket (default -20)",
            "hi_db": "float dB, top of the search bracket (default +20)",
        },
    },
    "fer-sim": {
        "required": {
            "n": "int, codeword length",
            "rate": "float, design rate",
            "w_c": "int, column weight",
            "snr_db_list": "list of float dB, symbol SNR grid",
            "max_frames": "int, frame budget per SNR",
        },
        "optional": {
            "target_frame_errors": "int, early-stop error count (default 100)",
            "max_iter": "int, decoder iterations (default 100)",
        },
    },
    "security-gap": {
        "required": {
            "n": "int, codeword length",
            "rate": "float, design rate",
            "w_c": "int, column weight",
            "fer_reliable": "float, FER the legitimate user must reach",
            "fer_secure": "float, FER the eavesdropper must exceed",
        },
        "optional": {
            "step_db": "float dB, simulation grid step (default 0.2)",
            "max_frames": "int, frame budget per grid point (default 20000)",
            "target_frame_errors": "int, early stop per point (default 50)",
            "max_iter": "int, decoder iterations (default 100)",
        },
    },
    "sk-cdf": {
        "required": {
            "m": "int, subcarriers",
            "mu": "int, cyclic-prefix samples",
            "l_r": "int, legitimate channel taps (<= mu)",
            "l_e": "int, eavesdropper channel taps",
            "gamma_r_db": "float dB, legitimate total channel gain",
            "gamma_e_db": "float dB, eavesdropper total channel gain",
            "target_lambda_r_db": "float dB, enforced legitimate SNR",
            "samples": "int, Monte Carlo draws",
        },
        "optional": {"decay": "float nats/tap, PDP decay (default 0.5)"},
    },
    "outage-analytic": {
        "required": {
            "m": "int, subcarriers",
            "mu": "int, cyclic-prefix samples",
            "l_e": "int, eavesdropper channel taps",
            "gamma_e_db": "float dB, eavesdropper total channel gain",
            "power": "float linear, transmit power",
        },
        "optional": {
            "decay": "float nats/tap, PDP decay (default 0.5)",
            "theta_max_db": "float dB, top of the threshold grid (default +10)",
            "theta_min_db": "float dB, bottom of the grid (default -30)",
            "points": "int, grid size (default 200)",
        },
    },
}


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    out_stem: str

    @classmethod
    def from_dict(cls, kind: str, raw: dict) -> "ExperimentConfig":
        if kind not in KIND_PARAMS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        spec = KIND_PARAMS[kind]
        if "seed" not in raw:
            raise ConfigError("seed required")
        known = set(spec["required"]) | set(spec["optional"]) | set(_COMMON)
        for key in raw:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r} for kind {kind!r}")
        for key in spec["required"]:
            if key not in raw:
                raise ConfigError(f"missing required key {key!r} for kind {kind!r}")
        if kind == "threshold" and ("rate" in raw) == ("w_r" in raw):
            raise ConfigError("threshold needs exactly one of 'rate' or 'w_r'")
        return cls(kind=kind, params=dict(raw), out_stem=raw.get("out", kind))


def describe(kind: str) -> str:
    """Human-readable parameter schema for one experiment kind."""
    if kind not in KIND_PARAMS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    spec = KIND_PARAMS[kind]
    lines = [f"{kind}: parameters (keys ending in _db are dB, others linear)"]
    for key, doc in spec["required"].items():
        lines.append(f"  {key:<22} {doc}  [required]")
    for key, doc in spec["optional"].items():
        lines.append(f"  {key:<22} {doc}")
    for key, doc in _COMMON.items():
        lines.append(f"  {key:<22} {doc}" + ("  [required]" if key == "seed" else ""))
    return "\n".join(lines)


def _csv_cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))  # full round-trip precision
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    raise TypeError(f"CSV cells are ints or floats, not {type(x).__name__}")


_CSV_CHUNK_ROWS = 4096


def _csv_column(values: tuple) -> list[str]:
    """The ``_csv_cell`` of each value; all-float columns in one numpy call."""
    if all(issubclass(k, (float, np.floating)) for k in set(map(type, values))):
        return list(map(repr, np.asarray(values, dtype=float).tolist()))
    return list(map(_csv_cell, values))


def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    """CSV of int and float rows, as ``csv.writer`` writes their ``_csv_cell``.

    Numeric cells need no quoting, so rows are joined directly, a few
    thousand at a time so that the cell strings stay few.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    for lo in range(0, len(rows), _CSV_CHUNK_ROWS):
        columns = map(_csv_column, zip(*rows[lo:lo + _CSV_CHUNK_ROWS], strict=True))
        buf.write("\n".join(map(",".join, zip(*columns))) + "\n")
    return buf.getvalue().encode()


def _run_diag_check(cfg: ExperimentConfig, rng: SeededRng):
    p = cfg.params
    ofdm = OfdmConfig(subcarriers=int(p["m"]), cp_len=int(p["mu"]))
    l_r = int(p["l_r"])
    r_mat = demodulator_matrix(ofdm, l_r)
    t_mat = modulator_matrix(ofdm)
    rows = []
    worst_off = worst_diag = 0.0
    for trial in range(int(p["trials"])):
        taps = rng.spawn(trial).complex_normals(l_r)
        product = r_mat @ toeplitz_conv_matrix(taps, ofdm.block_len) @ t_mat
        expected = np.fft.fft(taps, n=ofdm.subcarriers)
        off = float(np.max(np.abs(product - np.diag(np.diag(product)))))
        diag_err = float(np.max(np.abs(np.diag(product) - expected)))
        worst_off = max(worst_off, off)
        worst_diag = max(worst_diag, diag_err)
        rows.append([trial, off, diag_err])
    files = {"csv": (["trial", "max_offdiag", "max_diag_error"], rows)}
    meta = {"worst_offdiag": worst_off, "worst_diag_error": worst_diag}
    return files, meta


def _threshold_profile(p: dict) -> tuple[int, float]:
    w_c = int(p["w_c"])
    w_r = float(p["w_r"]) if "w_r" in p else w_c / (1.0 - float(p["rate"]))
    return w_c, w_r


def _run_threshold(cfg: ExperimentConfig, rng: SeededRng):
    p = cfg.params
    w_c, w_r = _threshold_profile(p)
    lam = decoding_threshold(
        w_c,
        w_r,
        tol_db=float(p.get("tol_db", 0.05)),
        max_iter=int(p.get("max_iter", 1000)),
        xi_target=float(p.get("xi_target", 1.0)),
        lo_db=float(p.get("lo_db", -20.0)),
        hi_db=float(p.get("hi_db", 20.0)),
    )
    rows = [[w_c, w_r, 10.0 * np.log10(lam)]]
    files = {"csv": (["w_c", "w_r", "lambda_th_db"], rows)}
    return files, {"lambda_th_linear": lam}


def _build_code(p: dict, rng: SeededRng):
    code = peg_construct(int(p["n"]), float(p["rate"]), int(p["w_c"]), rng.spawn(0))
    enc = code.encoder()
    meta = {
        "girth": code.girth(),
        "rank": enc.rank,
        "true_rate": enc.true_rate,
        "row_weight_histogram": {
            int(w): int(c) for w, c in zip(*np.unique(code.row_weights(), return_counts=True))
        },
    }
    return code, meta


def _run_fer_sim(cfg: ExperimentConfig, rng: SeededRng, workers: int):
    p = cfg.params
    code, code_meta = _build_code(p, rng)
    rows = []
    for snr_db in p["snr_db_list"]:
        est = fer_ber_sim(
            code,
            10.0 ** (float(snr_db) / 10.0),
            int(p["max_frames"]),
            int(p.get("target_frame_errors", 100)),
            int(p.get("max_iter", 100)),
            rng.spawn(int(round(float(snr_db) * 1000))),
            workers=workers,
        )
        rows.append(est.as_csv_row(float(snr_db)))
    header = ["snr_db", "frames", "frame_errors", "bit_errors", "fer", "ber", "ci95"]
    return {"csv": (header, rows)}, code_meta


def _run_security_gap(cfg: ExperimentConfig, rng: SeededRng, workers: int):
    p = cfg.params
    code, code_meta = _build_code(p, rng)
    try:
        result = security_gap(
            code,
            float(p["fer_reliable"]),
            float(p["fer_secure"]),
            rng.spawn(1),
            step_db=float(p.get("step_db", 0.2)),
            max_frames=int(p.get("max_frames", 20_000)),
            target_frame_errors=int(p.get("target_frame_errors", 50)),
            max_iter=int(p.get("max_iter", 100)),
            workers=workers,
        )
    except RuntimeError as exc:
        raise NumericalError(str(exc)) from exc
    rows = [[result.secure_snr_db, result.reliable_snr_db, result.gap_db]]
    files = {"csv": (["lambda_e_db", "lambda_r_db", "gap_db"], rows)}
    grid_rows = [est.as_csv_row(db) for db, est in result.points]
    files["grid.csv"] = (
        ["snr_db", "frames", "frame_errors", "bit_errors", "fer", "ber", "ci95"],
        grid_rows,
    )
    return files, code_meta


def _run_sk_cdf(cfg: ExperimentConfig, rng: SeededRng):
    p = cfg.params
    ofdm = OfdmConfig(subcarriers=int(p["m"]), cp_len=int(p["mu"]))
    decay = float(p.get("decay", 0.5))
    pdp_r = exponential_pdp(int(p["l_r"]), float(p["gamma_r_db"]), decay)
    pdp_e = exponential_pdp(int(p["l_e"]), float(p["gamma_e_db"]), decay)
    cdf = sk_rate_outage_cdf(
        ofdm, pdp_r, pdp_e, float(p["target_lambda_r_db"]), int(p["samples"]), rng
    )
    files = {}
    for kind, name in (("secret_key", "csv"), ("secrecy", "secrecy.csv")):
        rates, prob = cdf.cdf_points(kind)
        files[name] = (
            ["rate_bits_per_use", "cumulative_probability"],
            [[float(r), float(q)] for r, q in zip(rates, prob)],
        )
    meta = {
        "secrecy_curve": "reconstructed comparison curve",
        "rate_at_outage": {
            str(q): cdf.rate_at_outage(q) for q in (1e-3, 1e-2, 1e-1)
        },
        "decay": decay,
    }
    return files, meta


def _run_outage_analytic(cfg: ExperimentConfig, rng: SeededRng):
    p = cfg.params
    ofdm = OfdmConfig(subcarriers=int(p["m"]), cp_len=int(p["mu"]))
    pdp = exponential_pdp(
        int(p["l_e"]), float(p["gamma_e_db"]), float(p.get("decay", 0.5))
    )
    form = build_c_matrix(ofdm, pdp, float(p["power"]))
    spec = EigenSpectrum.from_matrix(form)
    grid_db = np.linspace(
        float(p.get("theta_min_db", -30.0)),
        float(p.get("theta_max_db", 10.0)),
        int(p.get("points", 200)),
    )
    cdf = lambda_e_cdf(10.0 ** (grid_db / 10.0), spec)
    rows = [[float(db), float(c)] for db, c in zip(grid_db, cdf)]
    files = {"csv": (["theta_db", "probability"], rows)}
    meta = {"eigenvalues": [float(v) for v in spec.eigenvalues]}
    return files, meta


def run(cfg: ExperimentConfig, out_dir: str = ".", workers: int = 1) -> list[str]:
    """Execute one experiment; returns the paths written (CSV + metadata)."""
    rng = SeededRng(int(cfg.params["seed"]))
    started = time.time()
    if cfg.kind == "diag-check":
        files, meta = _run_diag_check(cfg, rng)
    elif cfg.kind == "threshold":
        try:
            files, meta = _run_threshold(cfg, rng)
        except RuntimeError as exc:
            raise NumericalError(str(exc)) from exc
    elif cfg.kind == "fer-sim":
        files, meta = _run_fer_sim(cfg, rng, workers)
    elif cfg.kind == "security-gap":
        files, meta = _run_security_gap(cfg, rng, workers)
    elif cfg.kind == "sk-cdf":
        files, meta = _run_sk_cdf(cfg, rng)
    elif cfg.kind == "outage-analytic":
        files, meta = _run_outage_analytic(cfg, rng)
    else:  # pragma: no cover - guarded by ExperimentConfig
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")

    meta_out = {
        "kind": cfg.kind,
        "params": cfg.params,
        "rng_algorithm": RNG_ALGORITHM,
        "package_version": __version__,
        "wall_time_s": time.time() - started,
        **meta,
    }
    # render everything first so a failure leaves no partial files behind
    payloads = {}
    for suffix, (header, rows) in files.items():
        name = f"{cfg.out_stem}.{suffix}" if suffix != "csv" else f"{cfg.out_stem}.csv"
        payloads[name] = _csv_bytes(header, rows)
    payloads[f"{cfg.out_stem}.meta.json"] = (
        json.dumps(meta_out, indent=2, sort_keys=True) + "\n"
    ).encode()

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, blob in payloads.items():
        path = os.path.join(out_dir, name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
        written.append(path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="skagree",
        description="Secret-key agreement over OFDM: batch experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    describe_p = sub.add_parser("describe", help="show parameters for a kind")
    describe_p.add_argument("kind")
    for kind in KIND_PARAMS:
        kp = sub.add_parser(kind, help=f"run a {kind} experiment")
        kp.add_argument("--config", required=True, help="JSON config file")
        kp.add_argument("--out", default=".", help="output directory")
        kp.add_argument(
            "--threads", type=int, default=os.cpu_count() or 1,
            help="worker processes for frame simulation",
        )
    args = parser.parse_args(argv)

    try:
        if args.command == "describe":
            print(describe(args.kind))
            return 0
        with open(args.config) as fh:
            raw = json.load(fh)
        cfg = ExperimentConfig.from_dict(args.command, raw)
        written = run(cfg, out_dir=args.out, workers=max(1, args.threads))
        for path in written:
            print(path)
        return 0
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
