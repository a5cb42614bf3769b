"""The benchmark tracer must still find every name it wraps in fvl, and
still see the tape.

`perfbench/tracer.py` patches fvl functions and methods by name; deleting
or renaming one of them breaks `perfbench/run.py --trace 1`.  It counts
tape nodes by wrapping the diffcore primitives, so one training epoch
under it must still report the primitive nodes of a batch.  It patches
fvl globally, so it runs in a child process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# One xoe epoch (h32 e24, tau = delta = 5, 3x3 pooling) on 36 windows:
# 4 are held out, so the 32 left make exactly one batch.
CHILD = """
import json
from tracer import Tracer
tracer = Tracer().install()
from fvl import dataio
from fvl.fvlmodel import ModelConfig, train_model

samples, seed = [], 0
while len(samples) < 36:
    scenario = dataio.random_scenario(seed, frames=24, width=320, height=160)
    samples += dataio.windows_from_video(dataio.generate_scenario(scenario),
                                         5, 5, expand=1.5, n=3)[0]
    seed += 1
config = ModelConfig(variant="xoe", hidden=32, embed=24, tau=5, delta=5,
                     pooled_dim=18)
train_model(config, samples[:36], epochs=1, batch_size=32, seed=0)
print(json.dumps(tracer.layer_metrics(1)))
"""


def test_tracer_installs_on_the_current_package(child_env):
    env = child_env(ROOT / "perfbench", ROOT / "src")
    result = subprocess.run([sys.executable, "-c", CHILD], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    metrics = json.loads(result.stdout.splitlines()[-1])
    # the unfused primitives of one batch: relu after the two encoder
    # embeds, the fuse layer and the ego embed, the add and mul that
    # average the two streams, and the sub, mul and mean_all of the loss.
    # The tracer does not see the fused affine, gru_sequence and
    # gru_decoder nodes.
    assert metrics["diffcore.nodes_per_batch"] == 9
    # nodes_per_batch divides the node count by the Adam steps, so the
    # one batch must be exactly one step
    assert metrics["nnkit.adam_step.calls"] == 1
    # the five projections of a forward pass (box, flow and ego embeds,
    # fuse and head), for the training batch and for the held-out pass
    assert metrics["nnkit.projection.calls"] == 10
    for prim in ("add", "sub", "mul", "relu", "mean_all"):
        assert metrics[f"diffcore.prim.{prim}.calls"] > 0, prim


# A warm cli.main call has built the parser before the tracer replaces
# cli.cmd_gradcheck, as in the benchmark's set-up; the traced call must
# still run through the replacement.
CLI_CHILD = """
import contextlib, io, json
from fvl import cli
argv = ["gradcheck", "--variant", "x", "--hidden", "2", "--embed", "2",
        "--tau", "2", "--delta", "1", "--pool-n", "1"]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(argv) == 0
    from tracer import Tracer
    tracer = Tracer().install()
    assert cli.main(argv) == 0
print(json.dumps(tracer.layer_metrics(1)))
"""


def test_tracer_installed_after_a_cli_call_sees_the_command(child_env):
    env = child_env(ROOT / "perfbench", ROOT / "src")
    result = subprocess.run([sys.executable, "-c", CLI_CHILD], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    metrics = json.loads(result.stdout.splitlines()[-1])
    assert metrics["cli.gradcheck.calls"] == 1
    assert metrics["cli.gradcheck.s"] > 0
    assert metrics["diffcore.grad_check.calls"] == 1
