"""The benchmark's workloads: set-up, rounds of operations, output checks.

A workload sets up once, then runs whole rounds until the run's time is
spent. A round is a fixed list of operations; an operation is one
experiment phase (one SNR point, one estimator call or one CLI kind). It
fails if it raises or if its output check fails; a frame error is a measured
result, not a failure. Checks run after the clock stops.

The LDPC codes are fixed per workload, as a deployment uses one code; the
seed draws every frame, walk and channel realisation, anew in every round.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import time
from pathlib import Path

import numpy as np

import checks
import skagree.cli as cli
import skagree.ldpc.peg as peg
import skagree.ldpc.sim as sim
import skagree.outage as outage
from skagree.channels import SeededRng, exponential_pdp
from skagree.ofdm import OfdmConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def round_seed(seed: int, index: int, k: int) -> int:
    """Integer seed of input ``k`` (0-9) of round ``index`` of a run.

    The program draws LDPC frames from the integer seed of the rng it is
    given, not from its stream, so every round gets a seed of its own.
    """
    return (seed * 100_000 + index) * 10 + k


def cpu_seconds() -> float:
    """User plus system CPU of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Op:
    """One experiment phase: its item counts, the CPU seconds of its hard
    items, and its deferred check."""

    def __init__(self, name: str, items: int = 0, hard_items: int = 0,
                 hard_cpu_s: float = 0.0, error: str | None = None, check=None):
        self.name = name
        self.items = items
        self.hard_items = hard_items
        self.hard_cpu_s = hard_cpu_s
        self.error = error
        self.check = check or (lambda: [])


class Workload:
    """Base: records when the first simulated item starts."""

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.first_item_at: float | None = None
        self.first_item_cpu = 0.0

    def _mark_first_item(self) -> None:
        if self.first_item_at is None:
            self.first_item_at = time.perf_counter()
            self.first_item_cpu = cpu_seconds()

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def check_setup(self) -> list[str]:
        return []


# -- LDPC ----------------------------------------------------------------------
class _LdpcWorkload(Workload):
    n = rate = w_c = code_seed = None

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        # (snr_db, estimate, CPU seconds in run_frames, converged decisions in
        # a traced run) of every fer_ber_sim call, in order; security_gap
        # calls it through the module, so this sees its points
        self.points: list[tuple] = []
        self._run_frames_cpu = 0.0
        inner_point, inner_frames = sim.fer_ber_sim, sim.FrameSimulator.run_frames

        def timed_point(h, snr_lambda, *args, **kwargs):
            self._mark_first_item()
            # the tracer wraps this function and has opened this point's list
            words = self.tracer.converged_words[-1] if self.tracer else None
            start = self._run_frames_cpu
            est = inner_point(h, snr_lambda, *args, **kwargs)
            self.points.append((10.0 * np.log10(snr_lambda), est,
                                self._run_frames_cpu - start, words))
            return est

        def timed_frames(*args, **kwargs):
            # the per-frame pipeline only: a point's simulator set-up is not
            # part of the cost of its frames
            start = cpu_seconds()
            try:
                return inner_frames(*args, **kwargs)
            finally:
                self._run_frames_cpu += cpu_seconds() - start

        sim.fer_ber_sim = timed_point
        sim.FrameSimulator.run_frames = timed_frames

    def setup(self) -> None:
        # as ``skagree fer-sim`` / ``security-gap`` build their code
        rng = SeededRng(self.code_seed)
        self.code = peg.peg_construct(self.n, self.rate, self.w_c, rng.spawn(0))
        self.code.girth()
        self.code.encoder()

    def check_setup(self) -> list[str]:
        h = self.code.to_dense()
        problems = checks.check_code(h, self.n, self.rate, self.w_c)
        enc = self.code.encoder()
        msgs = np.random.default_rng(self.seed).integers(0, 2, (16, enc.k), dtype=np.uint8)
        problems += checks.check_codewords(h, enc.encode_batch(msgs))
        self.dense = h
        return problems

    def _converged_check(self, point: tuple) -> list[str]:
        """In the traced run: converged decisions pass the dense syndrome."""
        words = point[3]
        return [] if words is None else checks.check_converged(self.dense, words)


class FerN5000(_LdpcWorkload):
    """The paper's n=5000 rate-1/4 code; fixed frame blocks per SNR."""

    n, rate, w_c = 5000, 0.25, 3
    code_seed = 1234  # configs/fer_n5000_desk.json
    max_iter = 100
    # (snr_db, frames per round, criterion-4 anchor side, bound, below DE threshold)
    blocks = ((-2.2, 32, "min", 0.85, True), (-1.2, 128, "max", 1e-2, False))

    def run_round(self, index: int) -> list[Op]:
        ops = []
        for snr_db, frames, side, bound, hard in self.blocks:
            rng = SeededRng(round_seed(self.seed, index, len(ops)))
            point = len(self.points)
            try:
                # early stopping off: the error target equals the frame budget
                est = sim.fer_ber_sim(
                    self.code, 10.0 ** (snr_db / 10.0), frames, frames,
                    self.max_iter, rng, workers=1,
                )
            except Exception as exc:  # an operation that raises is counted failed
                ops.append(Op(f"fer {snr_db} dB", error=repr(exc)))
                continue
            frames_cpu = self.points[point][2]

            def check(est=est, frames=frames, side=side, bound=bound, point=point):
                return (checks.check_count(est.frames, frames, "frames")
                        + checks.check_fer_anchor(est.frame_errors, est.frames, bound, side)
                        + self._converged_check(self.points[point]))

            ops.append(Op(f"fer {snr_db} dB", est.frames,
                          est.frames if hard else 0, frames_cpu if hard else 0.0,
                          check=check))
        return ops


class GapN2000(_LdpcWorkload):
    """One security-gap walk per round on a fixed n=2000 code.

    The 1 dB grid puts the points next to the DE threshold where FER is
    pinned near 1 and near 0, so every walk visits the same three points and
    only the frames differ; a finer grid makes the walk's length depend on
    the seed. With 128 frames per point every point decodes one full batch,
    and the 100-error target stops early only below the threshold.
    """

    n, rate, w_c = 2000, 0.25, 3
    code_seed = 99  # configs/security_gap_n5000_full.json
    walk = dict(fer_reliable=0.1, fer_secure=0.9, step_db=1.0, max_frames=128,
                target_frame_errors=100, max_iter=100)

    def run_round(self, index: int) -> list[Op]:
        first = len(self.points)
        w = self.walk
        try:
            res = sim.security_gap(
                self.code, w["fer_reliable"], w["fer_secure"],
                SeededRng(round_seed(self.seed, index, 1)),
                step_db=w["step_db"], max_frames=w["max_frames"],
                target_frame_errors=w["target_frame_errors"],
                max_iter=w["max_iter"], workers=1,
            )
            error = None
        except Exception as exc:  # the walk's points all count as failed
            res, error = None, repr(exc)
        visited = list(range(first, len(self.points)))
        if not visited:
            return [Op("gap walk", error=error or "walk visited no point")]
        center_db = self.points[first][0]  # the walk starts at the DE threshold

        def walk_check():
            grid = [(p[0], p[1].frames, p[1].frame_errors)
                    for p in (self.points[i] for i in visited)]
            return checks.check_gap_walk(
                grid, w["step_db"], w["fer_reliable"], w["fer_secure"],
                res.secure_snr_db, res.reliable_snr_db, center_db,
            )

        ops = []
        for i in visited:
            db, est, frames_cpu, _ = self.points[i]
            hard = db < center_db - 1e-9

            def check(i=i):
                return walk_check() + self._converged_check(self.points[i])

            ops.append(Op(f"gap point {db:.2f} dB", est.frames,
                          est.frames if hard else 0, frames_cpu if hard else 0.0,
                          error=error, check=check))
        return ops


# -- rate outage ---------------------------------------------------------------
class OutageM256(Workload):
    """Both shipped sk-cdf configs and outage-analytic through the CLI, plus
    the conditional estimator at the ends of each Monte Carlo interval."""

    draws = 50_000  # Monte Carlo draws per sk-cdf config
    peaks = 200_000  # conditional-estimator peaks per call
    outage_p = 1e-3
    # The conditional probabilities must bracket p at the interval ends. A
    # 99.9% interval misses on one check in a thousand with a correct
    # program; these ranks miss on one in a million.
    interval_confidence = 1 - 1e-6
    ks_alpha = 1e-6
    model_draws = 4000
    sk_configs = ("sk_cdf_m256.json", "sk_cdf_m256_decay025.json")
    analytic_config = "outage_analytic_m256.json"

    def setup(self) -> None:
        self.sk = []
        for name in self.sk_configs:
            p = json.loads((CONFIGS / name).read_text())
            decay = float(p.get("decay", 0.5))
            self.sk.append(dict(
                params=p,
                ofdm=OfdmConfig(subcarriers=int(p["m"]), cp_len=int(p["mu"])),
                pdp_r=exponential_pdp(int(p["l_r"]), float(p["gamma_r_db"]), decay),
                pdp_e=exponential_pdp(int(p["l_e"]), float(p["gamma_e_db"]), decay),
            ))
        self.analytic = json.loads((CONFIGS / self.analytic_config).read_text())
        self.ranks = checks.interval_ranks(self.draws, self.outage_p, self.interval_confidence)

    def _cli(self, kind: str, params: dict, out_dir: Path) -> str | None:
        """Run one CLI kind in this process; returns an error or None."""
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = out_dir / f"{params['out']}.json"
        cfg_path.write_text(json.dumps(params))
        try:
            with contextlib.redirect_stdout(io.StringIO()):  # the written paths
                code = cli.main([kind, "--config", str(cfg_path), "--out", str(out_dir),
                                 "--threads", "1"])
        except Exception as exc:
            return repr(exc)
        return None if code == 0 else f"{kind} exited with code {code}"

    def run_round(self, index: int) -> list[Op]:
        out_dir = self.workdir / f"round{index}"
        ops = []
        params = dict(self.analytic, seed=round_seed(self.seed, index, 0),
                      out="analytic")
        error = self._cli("outage-analytic", params, out_dir)
        mean = float(params["power"]) * 10.0 ** (float(params["gamma_e_db"]) / 10.0)
        ops.append(Op("outage-analytic", error=error,
                      check=lambda: _analytic_check(out_dir / "analytic.csv", mean)))
        for i, cfg in enumerate(self.sk):
            stem = f"sk{i}"
            sk_seed = round_seed(self.seed, index, 1 + i)
            params = dict(cfg["params"], seed=sk_seed, samples=self.draws, out=stem)
            self._mark_first_item()
            error = self._cli("sk-cdf", params, out_dir)
            ops.append(Op(f"sk-cdf {i}", self.draws, error=error,
                          check=lambda i=i, stem=stem: self._sk_check(i, out_dir, stem)))
            if error is not None:
                ops.append(Op(f"conditional {i}", error="no Monte Carlo interval"))
                continue
            lo, hi = _rates_at_ranks(out_dir / f"{stem}.csv", self.ranks)
            start = cpu_seconds()
            try:
                probs = outage.sk_rate_outage_probability(
                    cfg["ofdm"], cfg["pdp_r"], cfg["pdp_e"],
                    float(params["target_lambda_r_db"]), [lo, hi],
                    samples=self.peaks, rng=SeededRng(sk_seed).spawn(2),
                )
                error = None
            except Exception as exc:
                probs, error = None, repr(exc)
            took = cpu_seconds() - start
            ops.append(Op(f"conditional {i}", self.peaks, self.peaks, took, error=error,
                          check=lambda probs=probs: checks.check_bracket(
                              probs[0], probs[1], self.outage_p)))
        return ops

    def _sk_check(self, i: int, out_dir: Path, stem: str) -> list[str]:
        cfg = self.sk[i]
        if "model" not in cfg:
            gen = np.random.default_rng([self.seed, i])
            cfg["model"] = checks.model_secret_key_rates(cfg["params"], self.model_draws, gen)
        sk = np.loadtxt(out_dir / f"{stem}.csv", delimiter=",", skiprows=1, ndmin=2)
        sec = np.loadtxt(out_dir / f"{stem}.secrecy.csv", delimiter=",", skiprows=1, ndmin=2)
        problems = checks.check_count(sk.shape[0], self.draws, "rows")
        return problems + checks.check_rate_cdf(
            sk[:, 0], sec[:, 0], float(cfg["params"]["target_lambda_r_db"]),
            cfg["model"], self.ks_alpha,
        )


def _rates_at_ranks(path: Path, ranks: tuple[int, int]) -> tuple[float, float]:
    """Rates in rows ``ranks`` (1-based, after the header) of a sorted CSV."""
    lines = path.read_text().split("\n")
    return tuple(float(lines[r].split(",")[0]) for r in ranks)


def _analytic_check(path: Path, mean: float) -> list[str]:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return checks.check_analytic_cdf(table[:, 0], table[:, 1], mean, rel_tol=5e-3)


WORKLOADS = {"fer-n5000": FerN5000, "gap-n2000": GapN2000, "outage-m256": OutageM256}
