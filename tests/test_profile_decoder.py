import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "profile_decoder.py"


def test_profile_decoder_runs_on_a_small_code(capsys):
    """The profiler still drives the decoder's private steps and its batch
    decode, so a change to the decoder cannot break it unseen."""
    spec = importlib.util.spec_from_file_location("profile_decoder", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--n", "512", "--snr-db", "-1.5", "--frames", "4"]) == 0
    out = capsys.readouterr().out
    assert "n=512 m=384 edges=1536 frames=4" in out
    assert " dtype=float32 " in out  # the simulator's message dtype
    for step in (*script.STEPS, "sum of steps"):
        assert f"  {step} " in out
    assert "decode_batch" in out and "32 frames" in out
