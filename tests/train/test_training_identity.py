"""Golden digests of trained ``tiny`` checkpoints.

Training is the only path that runs autograd ``backward``, so a change
to the engine's accumulation order (which gradient contributions are
summed first, the memory layout a gradient is allocated with, how
``-0.0`` is treated) shows here as a changed weight long before it
moves a table.  Each case trains one model with
``task.train_model(method, seed=0)`` and hashes every array of its
state dict the way ``perfbench`` hashes checkpoints: name, dtype, shape,
then the raw bytes.

The constants were recorded before the backward engine was rewritten
to stage interior gradients and free the graph as it goes; they pin
that rewrite (and any later one) to the same bits.  They are exact
floating-point results, so a different numpy/BLAS build may need them
re-recorded from a known-good commit.
"""

import hashlib

import pytest

from repro.eval.tasks import build_task
from repro.models import conventional, proposed

#: Normalization of the conventional baseline per task, as in Table I.
_CONVENTIONAL_NORM = {"image": "batch", "audio": "batch", "co2": "batch",
                      "vessels": "group"}

GOLDEN = {
    ("image", "conventional"):
        "992568fdefc2cab70bda8e1fcd6ec9ae0bdecbfe0a21b4e858054258866a0137",
    ("image", "proposed"):
        "66df7f681a43f78a4939e13356032fc87d56cca4d946c1ce2d85f0a9ce1c4084",
    ("audio", "conventional"):
        "5a8fda68f4fb5ec6be667466a9e4778d0aa6ba9b0039fc734abf8643a8d1fe75",
    ("audio", "proposed"):
        "6af741b3bc377f68402c693827553fa9cb7eaf45e22f61282b9ad52628ee3796",
    ("vessels", "conventional"):
        "ef8d84478ec161b0436163aebac5e14adadee74982be8ac3d15e79cc55ed8990",
    ("vessels", "proposed"):
        "22a8400a95c06861d0ac0a69375d9eaedc9884b3acd3b292abd910985ddccaa2",
    ("co2", "conventional"):
        "3aa5aa4bec3cae4e05b636e7134ba030f5e814a972236eae5840f66c579b0482",
    ("co2", "proposed"):
        "ce7f72b7fa8a281e3597b0485344a4d5884aeb371980daab3d1acec87823308b",
}


def _state_digest(model) -> str:
    digest = hashlib.sha256()
    state = model.state_dict()
    for name in sorted(state):
        array = state[name]
        digest.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _method(task_name: str, method_name: str):
    if method_name == "conventional":
        return conventional(conventional_norm=_CONVENTIONAL_NORM[task_name])
    return proposed()


@pytest.mark.parametrize("method_name", ["conventional", "proposed"])
@pytest.mark.parametrize("task_name", ["image", "audio", "vessels", "co2"])
def test_tiny_training_digest(task_name, method_name):
    task = build_task(task_name, preset="tiny", seed=0)
    model = task.train_model(_method(task_name, method_name), seed=0)
    assert _state_digest(model) == GOLDEN[(task_name, method_name)]
