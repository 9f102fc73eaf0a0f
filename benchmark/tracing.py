"""Per-layer tracing by wrapping the program's public functions.

Nothing inside ``src/`` changes: ``Tracer.install`` replaces functions and
methods of the imported ``skagree`` modules with timing wrappers, and
``Tracer.uninstall`` puts the originals back. Every wrapper records a span
(name, start, end, parent span) in memory; a layer's self time is its span
time minus the time of the spans opened inside it. Counts are kept at the
same boundaries, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

# by module path: ``skagree.ldpc`` re-exports functions named like its modules
(channels, cli, decoder, encoder, peg, scramble, sim, outage) = (
    importlib.import_module(f"skagree.{name}") for name in (
        "channels", "cli", "ldpc.decoder", "ldpc.encoder", "ldpc.peg",
        "ldpc.scramble", "ldpc.sim", "outage",
    )
)

# (owner, attribute, span name). An owner is a class, or a module whose
# namespace the program looks the name up in at call time; a function that
# is imported by name into several modules is listed once per module.
_TARGETS = [
    (cli, "run", "cli.run"),
    (peg, "peg_construct", "peg.construct"),
    (peg.ParityCheckMatrix, "girth", "peg.girth"),
    (peg.ParityCheckMatrix, "syndrome", "peg.syndrome"),
    (encoder, "derive_encoder", "encoder.derive"),
    (encoder.Gf2Encoder, "encode_batch", "encoder.encode"),
    (scramble.FrameScrambler, "__init__", "scramble.init"),
    (scramble.FrameScrambler, "apply", "scramble.apply"),
    (scramble.FrameScrambler, "invert_bits", "scramble.apply"),
    (sim, "qpsk_symbols", "modem"),
    (sim, "llrs_from_rx", "modem"),
    (decoder.SumProductDecoder, "decode_batch", "decoder.decode"),
    (sim, "fer_ber_sim", "sim.fer_ber_sim"),
    (sim.FrameSimulator, "run_frames", "sim.run_frames"),
    (sim, "decoding_threshold", "de.threshold"),
    (channels.SeededRng, "spawn", "channels.stream"),
    (channels.SeededRng, "bits", "channels.stream"),
    (channels.SeededRng, "complex_normals", "channels.stream"),
    (outage, "sample_tap_matrix", "channels.tap_draw"),
    (outage, "eavesdropper_column_energies", "ofdm.column_energies"),
    (outage, "secret_key_rates", "rates"),
    (outage, "secrecy_rates", "rates"),
    (cli, "sk_rate_outage_cdf", "outage.mc"),
    (outage, "sk_rate_outage_probability", "outage.conditional"),
    (cli, "lambda_e_cdf", "outage.cdf"),
    (outage, "lambda_e_cdf", "outage.cdf"),
    (cli, "build_c_matrix", "outage.spectrum"),
    (outage, "build_c_matrix", "outage.spectrum"),
    (outage.EigenSpectrum, "from_matrix", "outage.spectrum"),
]


class Tracer:
    """In-memory span and counter recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []
        self._last_codewords = None
        self._point_iters: list[np.ndarray] | None = None
        # converged decisions per simulated point, bit-packed, for the dense
        # syndrome check made after the clock stops
        self.converged_words: list[list[np.ndarray]] = []

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, idx, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for owner, attr, name in _TARGETS:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name)))
                continue
            key = id(raw)
            if key not in wrapped:
                wrapped[key] = self._wrap(raw, name)
            setattr(owner, attr, wrapped[key])

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- derived figures -----------------------------------------------
    def totals(self) -> tuple[dict, dict, dict]:
        """Total time, self time and call count per span name."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child_time[i]
            calls[name] += 1
        return total, own, calls

    def frame_stream_time(self) -> float:
        """Per-frame stream draws: stream spans opened directly in run_frames."""
        return sum(
            end - start
            for name, start, end, parent in self.spans
            if name == "channels.stream" and parent >= 0
            and self.spans[parent][0] == "sim.run_frames"
        )


# -- per-call bookkeeping after a wrapped call returns ---------------------
def _after_encode(tr: Tracer, idx, args, kwargs, words):
    tr._last_codewords = words


def _after_decode(tr: Tracer, idx, args, kwargs, result):
    bits, converged, iterations = result
    tr.counts["decoder.frames"] += int(bits.shape[0])
    tr.counts["decoder.frame_iters"] += int(iterations.sum())
    tr.counts["decoder.converged"] += int(converged.sum())
    sent = tr._last_codewords
    if sent is not None and sent.shape == bits.shape:
        wrong = np.any(bits[converged] != sent[converged], axis=1)
        tr.counts["decoder.undetected"] += int(wrong.sum())
    if tr._point_iters is not None:
        tr._point_iters.append(iterations)
        tr.converged_words[-1].append(np.packbits(bits[converged], axis=1))


def _before_point(tr: Tracer):
    tr._point_iters = []
    tr.converged_words.append([])


def _after_point(tr: Tracer, idx, args, kwargs, est):
    iters = np.concatenate(tr._point_iters) if tr._point_iters else np.zeros(0)
    tr._point_iters = None
    tr.counts["sim.frames_used"] += est.frames
    tr.counts["sim.frame_iters_used"] += int(iters[: est.frames].sum())
    tr.counts["sim.frame_iters_decoded"] += int(iters.sum())


def _after_tap_draw(tr: Tracer, idx, args, kwargs, taps):
    tr.counts["channels.taps_drawn"] += int(taps.shape[0])


def _after_cdf(tr: Tracer, idx, args, kwargs, out):
    tr.counts["outage.cdf_points"] += int(np.size(out))


def _after_mc(tr: Tracer, idx, args, kwargs, result):
    tr.counts["outage.mc_draws"] += int(result.secret_key_rates.size)


def _after_conditional(tr: Tracer, idx, args, kwargs, result):
    tr.counts["outage.conditional_peaks"] += int(kwargs["samples"])  # passed by keyword


def _after_cli_run(tr: Tracer, idx, args, kwargs, written):
    tr.counts["cli.output_bytes"] += sum(os.path.getsize(p) for p in written)


_BEFORE = {"sim.fer_ber_sim": _before_point}

_AFTER = {
    "encoder.encode": _after_encode,
    "decoder.decode": _after_decode,
    "sim.fer_ber_sim": _after_point,
    "channels.tap_draw": _after_tap_draw,
    "outage.cdf": _after_cdf,
    "outage.mc": _after_mc,
    "outage.conditional": _after_conditional,
    "cli.run": _after_cli_run,
}


def layer_metrics(tr: Tracer, import_s: float, rounds: int) -> dict:
    """Per-layer metrics of a traced run, each as {"value", "unit"}.

    Set-up layers (import, PEG, girth, encoder derivation) are given once
    per run. Every other time and count is given per round, the run's
    total over its rounds, so that it does not grow with the run length;
    ratios are taken over the whole run.
    """
    total, own, calls = tr.totals()
    c = tr.counts
    frames, iters = c["decoder.frames"], c["decoder.frame_iters"]
    decoded = c["sim.frame_iters_decoded"]
    per_run = {
        "cli.import_s": (import_s, "s"),
        "peg.construct_s": (total["peg.construct"], "s"),
        "peg.girth_s": (total["peg.girth"], "s"),
        "encoder.derive_s": (total["encoder.derive"], "s"),
    }
    ratios = {
        "decoder.iters_per_frame": (iters / frames if frames else 0.0, "iter/frame"),
        "decoder.us_per_frame_iter": (
            1e6 * total["decoder.decode"] / iters if iters else 0.0, "us"),
        "sim.useful_frame_iters": (
            c["sim.frame_iters_used"] / decoded if decoded else 0.0, "ratio"),
    }
    per_round = {
        "cli.output_s": (own["cli.run"], "s"),
        "cli.output_bytes": (c["cli.output_bytes"], "bytes"),
        "peg.syndrome_s": (total["peg.syndrome"], "s"),
        "peg.syndrome_calls": (calls["peg.syndrome"], "count"),
        "encoder.encode_s": (total["encoder.encode"], "s"),
        "scramble.init_s": (total["scramble.init"], "s"),
        "scramble.inits": (calls["scramble.init"], "count"),
        "scramble.apply_s": (total["scramble.apply"], "s"),
        "modem.s": (total["modem"], "s"),
        "decoder.decode_s": (total["decoder.decode"], "s"),
        "decoder.frames": (frames, "count"),
        "decoder.frame_iters": (iters, "count"),
        "decoder.converged": (c["decoder.converged"], "count"),
        "decoder.undetected": (c["decoder.undetected"], "count"),
        "sim.points": (calls["sim.fer_ber_sim"], "count"),
        "sim.run_frames_s": (total["sim.run_frames"], "s"),
        "sim.overhead_s": (total["sim.fer_ber_sim"] - total["sim.run_frames"], "s"),
        "sim.frames_used": (c["sim.frames_used"], "count"),
        "channels.frame_streams_s": (tr.frame_stream_time(), "s"),
        "channels.tap_draw_s": (total["channels.tap_draw"], "s"),
        "channels.taps_drawn": (c["channels.taps_drawn"], "count"),
        "de.threshold_s": (total["de.threshold"], "s"),
        "ofdm.column_energies_s": (total["ofdm.column_energies"], "s"),
        "rates.s": (total["rates"], "s"),
        "outage.mc_s": (total["outage.mc"], "s"),
        "outage.mc_self_s": (own["outage.mc"], "s"),
        "outage.mc_draws": (c["outage.mc_draws"], "count"),
        "outage.conditional_s": (total["outage.conditional"], "s"),
        "outage.conditional_peaks": (c["outage.conditional_peaks"], "count"),
        "outage.cdf_s": (total["outage.cdf"], "s"),
        "outage.cdf_points": (c["outage.cdf_points"], "count"),
        "outage.spectrum_s": (total["outage.spectrum"], "s"),
        "trace.spans": (len(tr.spans), "count"),
    }
    out = {name: {"value": v, "unit": u} for name, (v, u) in {**per_run, **ratios}.items()}
    out.update({name: {"value": v / rounds, "unit": u} for name, (v, u) in per_round.items()})
    return out
