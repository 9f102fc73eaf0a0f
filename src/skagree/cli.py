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
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__
from .channels import RNG_ALGORITHM, SeededRng, exponential_pdp
from .ldpc import FerBerEstimate, decoding_threshold, fer_ber_sim, peg_construct, security_gap
from .ldpc.sim import MESSAGE_DTYPE
from .ofdm import OfdmConfig, demodulator_matrix, modulator_matrix, toeplitz_conv_matrix
from .outage import EigenSpectrum, build_c_matrix, lambda_e_cdf, sk_rate_outage_cdf


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to exit code 1."""


REQUIRED = object()  # the default of a key that every config must give


class Param(NamedTuple):
    """One config key of a kind: its type, meaning, default and bounds.

    ``type`` is int, float, str or list (a non-empty list of floats). An int
    key also takes an integral float; no key takes a bool, and no number key
    a string or a non-finite float. ``default`` is REQUIRED, or None for an
    optional key with no fixed value. Numbers, and the items of a list, must
    lie in ``bounds``, an interval such as "[1, inf)" or "(0, 1)".
    """

    key: str
    type: type
    doc: str
    default: object = REQUIRED
    bounds: str | None = None

    def shape(self) -> str:
        name = "list of float" if self.type is list else self.type.__name__
        return f"{name} in {self.bounds}" if self.bounds else name

    def resolve(self, raw, kind: str):
        """``raw`` as this key's type; ConfigError if it is not one in bounds."""
        if self.type is str:
            values = [raw if isinstance(raw, str) else None]
        elif self.type is list:
            values = [_number(x, float) for x in raw] if isinstance(raw, list) and raw else [None]
        else:
            values = [_number(raw, self.type)]
        if None in values or self.bounds and not all(_within(v, self.bounds) for v in values):
            raise ConfigError(
                f"key {self.key!r} of kind {kind!r} takes {self.shape()}, not {raw!r}"
            )
        return values if self.type is list else values[0]


def _number(raw, to: type):
    """``raw`` as a finite ``to`` (int or float), or None if it is not one."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return None
    if isinstance(raw, int):
        return to(raw) if to is int or abs(raw) <= sys.float_info.max else None
    return to(raw) if math.isfinite(raw) and (to is float or raw.is_integer()) else None


def _within(value, bounds: str) -> bool:
    lo, hi = (float(b) for b in bounds[1:-1].split(","))
    return ((lo < value or bounds[0] == "[" and lo == value)
            and (value < hi or bounds[-1] == "]" and value == hi))


# dB keys: far enough out for any experiment, and 10 ** (db / 10) stays finite
_DB = "[-300, 300]"
# keys that several kinds share
_OFDM = (
    Param("m", int, "subcarriers", bounds="[2, inf)"),
    Param("mu", int, "cyclic-prefix samples", bounds="[1, inf)"),
)
_L_R = Param("l_r", int, "legitimate channel taps (<= mu)", bounds="[1, inf)")
_L_E = Param("l_e", int, "eavesdropper channel taps", bounds="[1, inf)")
_GAMMA_E = Param("gamma_e_db", float, "dB, eavesdropper total channel gain", bounds=_DB)
_DECAY = Param("decay", float, "PDP decay in nats per tap", 0.5, "[0, inf)")
_W_C = Param("w_c", int, "column weight", bounds="[2, inf)")
_RATE = Param("rate", float, "design rate", bounds="[0, 1)")
_CODE = (Param("n", int, "codeword length", bounds="[2, inf)"), _RATE, _W_C)
_MAX_ITER = Param("max_iter", int, "decoder or density-evolution iterations", 100, "[0, inf)")


def _frame_budget(max_frames, target_frame_errors) -> tuple[Param, ...]:
    return (
        Param("max_frames", int, "frame budget per SNR point", max_frames, "[1, inf)"),
        Param("target_frame_errors", int, "frame errors that end a point early",
              target_frame_errors, "[1, inf)"),
        _MAX_ITER,
    )


def _csv_cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))  # full round-trip precision
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    raise TypeError(f"CSV cells are ints or floats, not {type(x).__name__}")


_CSV_CHUNK_ROWS = 4096


def _csv_column(values) -> list[str]:
    """The ``_csv_cell`` of each value; all-float columns in one numpy call."""
    if all(issubclass(k, (float, np.floating)) for k in set(map(type, values))):
        return list(map(repr, np.asarray(values, dtype=float).tolist()))
    return list(map(_csv_cell, values))


def _csv_bytes(header: list[str], rows) -> bytes:
    """CSV of int and float rows, as ``csv.writer`` writes their ``_csv_cell``.

    ``rows`` is a list of rows or a 2-D numeric array. Numeric cells need
    no quoting, so rows are joined directly, a few thousand at a time so
    that the cell strings stay few.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    for lo in range(0, len(rows), _CSV_CHUNK_ROWS):
        chunk = rows[lo:lo + _CSV_CHUNK_ROWS]
        columns = chunk.T if isinstance(chunk, np.ndarray) else zip(*chunk, strict=True)
        buf.write("\n".join(map(",".join, zip(*map(_csv_column, columns)))) + "\n")
    return buf.getvalue().encode()


def _ofdm(p: dict) -> OfdmConfig:
    return OfdmConfig(subcarriers=p["m"], cp_len=p["mu"])


def _run_diag_check(p: dict, rng: SeededRng, workers: int):
    ofdm = _ofdm(p)
    r_mat = demodulator_matrix(ofdm, p["l_r"])
    t_mat = modulator_matrix(ofdm)
    rows = []
    for trial in range(p["trials"]):
        taps = rng.spawn(trial).complex_normals(p["l_r"])
        product = r_mat @ toeplitz_conv_matrix(taps, ofdm.block_len) @ t_mat
        expected = np.fft.fft(taps, n=ofdm.subcarriers)
        off = float(np.max(np.abs(product - np.diag(np.diag(product)))))
        diag_err = float(np.max(np.abs(np.diag(product) - expected)))
        rows.append([trial, off, diag_err])
    files = {"csv": (["trial", "max_offdiag", "max_diag_error"], rows)}
    _, offs, diag_errs = zip(*rows)
    meta = {"worst_offdiag": max(offs), "worst_diag_error": max(diag_errs)}
    return files, meta


def _run_threshold(p: dict, rng: SeededRng, workers: int):
    w_c = p["w_c"]
    w_r = w_c / (1.0 - p["rate"])
    if not w_r > w_c:
        raise ConfigError(
            f"key 'rate' of kind 'threshold' must make w_c / (1 - rate) exceed w_c, "
            f"not {p['rate']!r}"
        )
    keys = ("tol_db", "max_iter", "xi_target", "lo_db", "hi_db")
    lam = decoding_threshold(w_c, w_r, **{key: p[key] for key in keys})
    rows = [[w_c, w_r, 10.0 * np.log10(lam)]]
    files = {"csv": (["w_c", "w_r", "lambda_th_db"], rows)}
    return files, {"lambda_th_linear": lam}


def _build_code(p: dict, rng: SeededRng):
    code = peg_construct(p["n"], p["rate"], p["w_c"], rng.spawn(0))
    enc = code.encoder()
    meta = {
        "girth": code.girth(),
        "rank": enc.rank,
        "true_rate": enc.true_rate,
        "row_weight_histogram": {
            int(w): int(c) for w, c in zip(*np.unique(code.row_weights(), return_counts=True))
        },
        # the simulated frames' outcomes depend on the decoder's message
        # precision and, in float32, on numpy's tanh and arctanh
        "decoder_dtype": MESSAGE_DTYPE.name,
        "numpy_version": np.__version__,
    }
    return code, meta


_POINT_HEADER = ["snr_db", "frames", "frame_errors", "bit_errors", "fer", "ber", "ci95"]


def _point_row(snr_db: float, est: FerBerEstimate) -> list:
    return [snr_db, est.frames, est.frame_errors, est.bit_errors, est.fer, est.ber,
            est.confidence_halfwidth]


def _run_fer_sim(p: dict, rng: SeededRng, workers: int):
    # each point decodes the frames of its millidecibel's stream
    streams = {}
    for snr_db in p["snr_db_list"]:
        stream = int(round(snr_db * 1000))
        if stream in streams:
            raise ConfigError(
                f"key 'snr_db_list' of kind 'fer-sim' has points {streams[stream]!r} and "
                f"{snr_db!r} in one millidecibel stream; they would decode the same frames"
            )
        streams[stream] = snr_db
    code, code_meta = _build_code(p, rng)
    rows = []
    for stream, snr_db in streams.items():
        est = fer_ber_sim(
            code, 10.0 ** (snr_db / 10.0), p["max_frames"], p["target_frame_errors"],
            p["max_iter"], rng.spawn(stream), workers=workers,
        )
        rows.append(_point_row(snr_db, est))
    return {"csv": (_POINT_HEADER, rows)}, code_meta


def _run_security_gap(p: dict, rng: SeededRng, workers: int):
    code, code_meta = _build_code(p, rng)
    keys = ("step_db", "max_frames", "target_frame_errors", "max_iter")
    result = security_gap(
        code, p["fer_reliable"], p["fer_secure"], rng.spawn(1), workers=workers,
        **{key: p[key] for key in keys},
    )
    rows = [[result.secure_snr_db, result.reliable_snr_db, result.gap_db]]
    files = {
        "csv": (["lambda_e_db", "lambda_r_db", "gap_db"], rows),
        "grid.csv": (_POINT_HEADER, [_point_row(db, est) for db, est in result.points]),
    }
    return files, code_meta


def _run_sk_cdf(p: dict, rng: SeededRng, workers: int):
    pdp_r = exponential_pdp(p["l_r"], p["gamma_r_db"], p["decay"])
    pdp_e = exponential_pdp(p["l_e"], p["gamma_e_db"], p["decay"])
    cdf = sk_rate_outage_cdf(_ofdm(p), pdp_r, pdp_e, p["target_lambda_r_db"], p["samples"], rng)
    prob = np.arange(1, p["samples"] + 1) / p["samples"]
    header = ["rate_bits_per_use", "cumulative_probability"]
    files = {
        "csv": (header, np.column_stack((cdf.secret_key_rates, prob))),
        "secrecy.csv": (header, np.column_stack((cdf.secrecy_rates, prob))),
    }
    meta = {
        "secrecy_curve": "reconstructed comparison curve",
        "rate_at_outage": {str(q): cdf.rate_at_outage(q) for q in (1e-3, 1e-2, 1e-1)},
    }
    return files, meta


def _run_outage_analytic(p: dict, rng: SeededRng, workers: int):
    pdp = exponential_pdp(p["l_e"], p["gamma_e_db"], p["decay"])
    form = build_c_matrix(_ofdm(p), pdp, p["power"])
    spec = EigenSpectrum.from_matrix(form)
    grid_db = np.linspace(p["theta_min_db"], p["theta_max_db"], p["points"])
    cdf = lambda_e_cdf(10.0 ** (grid_db / 10.0), spec)
    rows = [[float(db), float(c)] for db, c in zip(grid_db, cdf)]
    files = {"csv": (["theta_db", "probability"], rows)}
    meta = {"eigenvalues": [float(v) for v in spec.eigenvalues]}
    return files, meta


# kind -> (runner, parameters besides seed and out). A runner takes the
# resolved parameters, the experiment's rng and the worker count, and returns
# its CSV files by suffix and its metadata.
KINDS: dict[str, tuple] = {
    "diag-check": (_run_diag_check, (
        *_OFDM, _L_R,
        Param("trials", int, "random channels to test", bounds="[1, inf)"),
    )),
    "threshold": (_run_threshold, (
        # a rate of 0 would make w_r = w_c, an ensemble DE rejects
        _W_C, _RATE._replace(bounds="(0, 1)"),
        Param("tol_db", float, "dB, bisection width", 0.05, "(0, inf)"),
        # density evolution of no iteration never converges
        _MAX_ITER._replace(default=1000, bounds="[1, inf)"),
        Param("xi_target", float, "divergence declaration level", 1.0, "(0, inf)"),
        Param("lo_db", float, "dB, bottom of the search bracket", -20.0, _DB),
        Param("hi_db", float, "dB, top of the search bracket", 20.0, _DB),
    )),
    "fer-sim": (_run_fer_sim, (
        *_CODE,
        Param("snr_db_list", list, "dB, symbol SNR grid", bounds=_DB),
        *_frame_budget(REQUIRED, 100),
    )),
    "security-gap": (_run_security_gap, (
        *_CODE,
        Param("fer_reliable", float, "FER the legitimate user must reach", bounds="(0, 1)"),
        Param("fer_secure", float, "FER the eavesdropper must exceed", bounds="(0, 1)"),
        Param("step_db", float, "dB, simulation grid step", 0.2, "(0, inf)"),
        *_frame_budget(20_000, 50),
    )),
    "sk-cdf": (_run_sk_cdf, (
        *_OFDM, _L_R, _L_E,
        Param("gamma_r_db", float, "dB, legitimate total channel gain", bounds=_DB),
        _GAMMA_E,
        Param("target_lambda_r_db", float, "dB, enforced legitimate SNR", bounds=_DB),
        Param("samples", int, "Monte Carlo draws", bounds="[1, inf)"),
        _DECAY,
    )),
    "outage-analytic": (_run_outage_analytic, (
        *_OFDM, _L_E, _GAMMA_E,
        Param("power", float, "linear transmit power", bounds="(0, inf)"),
        _DECAY,
        Param("theta_max_db", float, "dB, top of the threshold grid", 10.0, _DB),
        Param("theta_min_db", float, "dB, bottom of the grid", -30.0, _DB),
        Param("points", int, "grid size", 200, "[1, inf)"),
    )),
}


def _spec(kind: str) -> dict[str, Param]:
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    common = (Param("seed", int, "RNG seed"), Param("out", str, "output file stem", kind))
    return {param.key: param for param in (*common, *KINDS[kind][1])}


@dataclass
class ExperimentConfig:
    kind: str
    params: dict

    @classmethod
    def from_dict(cls, kind: str, raw) -> "ExperimentConfig":
        """Validate ``raw`` against the kind's spec; params hold every key resolved."""
        spec = _spec(kind)
        if not isinstance(raw, dict):
            raise ConfigError(f"a {kind} config is a JSON object, not {type(raw).__name__}")
        for key in raw:
            if key not in spec:
                raise ConfigError(f"key {key!r} of kind {kind!r} is not one of its parameters")
        params = {}
        for key, param in spec.items():
            if key in raw:
                params[key] = param.resolve(raw[key], kind)
            elif param.default is REQUIRED:
                raise ConfigError(f"key {key!r} of kind {kind!r} is missing: {key} required")
            else:
                params[key] = param.default
        return cls(kind=kind, params=params)


def describe(kind: str) -> str:
    """Each parameter of one experiment kind: type, bounds, meaning and default."""
    lines = [f"{kind}: parameters (keys ending in _db are dB, others linear)"]
    for param in _spec(kind).values():
        tag = {REQUIRED: "required", None: "optional"}.get(
            param.default, f"default {param.default!r}")
        lines.append(f"  {param.key:<22} {param.shape()}, {param.doc}  [{tag}]")
    return "\n".join(lines)


def run(cfg: ExperimentConfig, out_dir: str = ".", workers: int = 1) -> list[str]:
    """Execute one experiment; returns the paths written (CSV + metadata)."""
    runner, _ = KINDS[cfg.kind]
    started = time.time()
    files, meta = runner(cfg.params, SeededRng(cfg.params["seed"]), workers)

    meta_out = {
        "kind": cfg.kind,
        "params": cfg.params,
        "rng_algorithm": RNG_ALGORITHM,
        "package_version": __version__,
        "wall_time_s": time.time() - started,
        **meta,
    }
    # render everything first so a failure leaves no partial files behind
    payloads, stem = {}, cfg.params["out"]
    for suffix, (header, rows) in files.items():
        payloads[f"{stem}.{suffix}"] = _csv_bytes(header, rows)
    payloads[f"{stem}.meta.json"] = (
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
    for kind in KINDS:
        kp = sub.add_parser(kind, help=f"run a {kind} experiment")
        kp.add_argument("--config", required=True, help="JSON config file")
        kp.add_argument("--out", default=".", help="output directory")
        kp.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker processes for frame simulation")
    args = parser.parse_args(argv)

    # a ValueError (ConfigError, bad JSON or UTF-8, or one the library
    # raises) is a configuration error, a RuntimeError a numerical failure
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
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
